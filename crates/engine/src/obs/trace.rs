//! Span storage and the Chrome trace-event exporter behind
//! [`Recorder`](super::Recorder).
//!
//! Spans are buffered as compact [`TraceRecord`]s (one `Mutex<Vec<_>>`
//! push per record — the only lock on the hot path, held for a push) and
//! rendered on demand into the Chrome trace-event JSON array format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly, via the same hand-rolled [`Value`] writer the cache codec
//! uses.
//!
//! Two event shapes are used:
//!
//! - **Complete events** (`ph: "X"`) for spans that never overlap within
//!   one worker thread: campaign, launch phases, cells and tests on the
//!   blocking executors, and individual steps. Each worker thread gets
//!   its own track (`tid`), named via `thread_name` metadata.
//! - **Async begin/end pairs** (`ph: "b"` / `ph: "e"`) for test and cell
//!   spans on the event-loop executor, where thousands of jobs interleave
//!   on one shard thread and would otherwise render as nonsense nesting.
//!
//! Timestamps are microseconds since the recorder was created — pure
//! export data, never fed into results, hashes, or cache records.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::codec::Value;

/// Span categories; also the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanCat {
    /// The whole campaign, launch to join.
    Campaign,
    /// A launch phase (codegen, hash, cache preload, plan, report).
    Phase,
    /// One cell job (suite × stand) at cell granularity.
    Cell,
    /// One test execution.
    Test,
    /// One plan step.
    Step,
}

impl SpanCat {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanCat::Campaign => "campaign",
            SpanCat::Phase => "phase",
            SpanCat::Cell => "cell",
            SpanCat::Test => "test",
            SpanCat::Step => "step",
        }
    }

    /// Async-rendered categories get begin/end pairs; the rest are
    /// complete events.
    pub(crate) fn renders_async(self) -> bool {
        matches!(self, SpanCat::Cell | SpanCat::Test)
    }
}

/// A span name in the cheapest form the hot path can produce it: the
/// export path formats step numbers and borrows statics, so recording a
/// step or phase allocates nothing and a begin/end pair shares one
/// allocation via `Arc`.
#[derive(Debug, Clone)]
pub(crate) enum SpanName {
    /// A formatted name, shared between the begin and end halves.
    Owned(Arc<str>),
    /// A static name (launch phases).
    Static(&'static str),
    /// A plan step, rendered as `step {nr}` at export time.
    StepNr(u32),
}

impl SpanName {
    fn render(&self) -> Cow<'_, str> {
        match self {
            SpanName::Owned(name) => Cow::Borrowed(name),
            SpanName::Static(name) => Cow::Borrowed(name),
            SpanName::StepNr(nr) => Cow::Owned(format!("step {nr}")),
        }
    }
}

/// One buffered span, already reduced to export form.
#[derive(Debug)]
pub(crate) enum TraceRecord {
    /// A closed, non-overlapping span on a worker-thread track.
    Complete {
        cat: SpanCat,
        name: SpanName,
        track: u32,
        ts_micros: u64,
        dur_micros: u64,
    },
    /// Opening half of an async span pair.
    Begin {
        cat: SpanCat,
        name: SpanName,
        id: u64,
        track: u32,
        ts_micros: u64,
    },
    /// Closing half of an async span pair; `status` becomes an arg.
    End {
        cat: SpanCat,
        name: SpanName,
        id: u64,
        track: u32,
        ts_micros: u64,
        status: Option<String>,
    },
}

/// Distinguishes trace buffers for the per-thread track cache; `0` is
/// reserved as the cache's "empty" marker.
static NEXT_BUF_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's `(TraceBuf id, track)` from its last
    /// [`TraceBuf::track`] call — worker threads record thousands of
    /// spans into one buffer, so this skips the registry lock on all
    /// but the first.
    static CACHED_TRACK: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// The span buffer: records plus the thread → track registry.
#[derive(Debug)]
pub(crate) struct TraceBuf {
    /// This buffer's [`NEXT_BUF_ID`] tag, keying [`CACHED_TRACK`].
    buf_id: u64,
    records: Mutex<Vec<TraceRecord>>,
    /// Maps each recording thread to a stable track id, remembering the
    /// thread's name for the exported `thread_name` metadata.
    tracks: Mutex<(HashMap<ThreadId, u32>, Vec<String>)>,
    next_id: AtomicU64,
}

impl TraceBuf {
    pub(crate) fn new() -> Self {
        Self {
            buf_id: NEXT_BUF_ID.fetch_add(1, Ordering::Relaxed),
            records: Mutex::new(Vec::new()),
            tracks: Mutex::new((HashMap::new(), Vec::new())),
            next_id: AtomicU64::new(1),
        }
    }

    /// A fresh id for an async begin/end pair.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The calling thread's track id, assigning one on first use.
    ///
    /// The common case — the thread recorded into this buffer before —
    /// is answered from [`CACHED_TRACK`] without touching the registry
    /// lock.
    pub(crate) fn track(&self) -> u32 {
        CACHED_TRACK.with(|cached| {
            let (buf_id, track) = cached.get();
            if buf_id == self.buf_id {
                return track;
            }
            let track = self.track_slow();
            cached.set((self.buf_id, track));
            track
        })
    }

    /// Registry-lock path of [`TraceBuf::track`]: look the thread up,
    /// assigning the next track id on first use.
    fn track_slow(&self) -> u32 {
        let current = std::thread::current();
        let mut tracks = self.tracks.lock().expect("track registry poisoned");
        let (by_thread, names) = &mut *tracks;
        if let Some(&track) = by_thread.get(&current.id()) {
            return track;
        }
        let track = names.len() as u32;
        names.push(match current.name() {
            Some(name) => name.to_owned(),
            None => format!("worker-{track}"),
        });
        by_thread.insert(current.id(), track);
        track
    }

    pub(crate) fn push(&self, record: TraceRecord) {
        self.records
            .lock()
            .expect("trace buffer poisoned")
            .push(record);
    }

    pub(crate) fn len(&self) -> usize {
        self.records.lock().expect("trace buffer poisoned").len()
    }

    /// Renders the buffer as a Chrome trace-event JSON array.
    pub(crate) fn chrome_trace(&self) -> String {
        let records = self.records.lock().expect("trace buffer poisoned");
        let tracks = self.tracks.lock().expect("track registry poisoned");
        let mut events = Vec::with_capacity(records.len() + tracks.1.len() + 1);
        events.push(metadata_event("process_name", None, "comptest"));
        for (track, name) in tracks.1.iter().enumerate() {
            events.push(metadata_event("thread_name", Some(track as u32), name));
        }
        for record in records.iter() {
            events.push(match record {
                TraceRecord::Complete {
                    cat,
                    name,
                    track,
                    ts_micros,
                    dur_micros,
                } => {
                    let mut event = event_base("X", *cat, name, *track, *ts_micros);
                    event.insert("dur".to_owned(), Value::u64(*dur_micros));
                    Value::Object(event)
                }
                TraceRecord::Begin {
                    cat,
                    name,
                    id,
                    track,
                    ts_micros,
                } => {
                    let mut event = event_base("b", *cat, name, *track, *ts_micros);
                    event.insert("id".to_owned(), Value::str(format!("{id:#x}")));
                    Value::Object(event)
                }
                TraceRecord::End {
                    cat,
                    name,
                    id,
                    track,
                    ts_micros,
                    status,
                } => {
                    let mut event = event_base("e", *cat, name, *track, *ts_micros);
                    event.insert("id".to_owned(), Value::str(format!("{id:#x}")));
                    if let Some(status) = status {
                        let mut args = BTreeMap::new();
                        args.insert("status".to_owned(), Value::str(status));
                        event.insert("args".to_owned(), Value::Object(args));
                    }
                    Value::Object(event)
                }
            });
        }
        Value::Array(events).render()
    }
}

fn event_base(
    ph: &str,
    cat: SpanCat,
    name: &SpanName,
    track: u32,
    ts_micros: u64,
) -> BTreeMap<String, Value> {
    let mut event = BTreeMap::new();
    event.insert("ph".to_owned(), Value::str(ph));
    event.insert("cat".to_owned(), Value::str(cat.as_str()));
    event.insert("name".to_owned(), Value::str(name.render()));
    event.insert("pid".to_owned(), Value::u64(1));
    event.insert("tid".to_owned(), Value::u64(u64::from(track)));
    event.insert("ts".to_owned(), Value::u64(ts_micros));
    event
}

fn metadata_event(kind: &str, track: Option<u32>, name: &str) -> Value {
    let mut args = BTreeMap::new();
    args.insert("name".to_owned(), Value::str(name));
    let mut event = BTreeMap::new();
    event.insert("ph".to_owned(), Value::str("M"));
    event.insert("name".to_owned(), Value::str(kind));
    event.insert("pid".to_owned(), Value::u64(1));
    if let Some(track) = track {
        event.insert("tid".to_owned(), Value::u64(u64::from(track)));
    }
    event.insert("args".to_owned(), Value::Object(args));
    Value::Object(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_renders_metadata_complete_and_async_events() {
        let buf = TraceBuf::new();
        let track = buf.track();
        assert_eq!(track, buf.track(), "track id is stable per thread");
        buf.push(TraceRecord::Complete {
            cat: SpanCat::Phase,
            name: SpanName::Static("plan"),
            track,
            ts_micros: 10,
            dur_micros: 5,
        });
        buf.push(TraceRecord::Complete {
            cat: SpanCat::Step,
            name: SpanName::StepNr(7),
            track,
            ts_micros: 12,
            dur_micros: 2,
        });
        let id = buf.next_id();
        let name = SpanName::Owned("suite::t0".into());
        buf.push(TraceRecord::Begin {
            cat: SpanCat::Test,
            name: name.clone(),
            id,
            track,
            ts_micros: 20,
        });
        buf.push(TraceRecord::End {
            cat: SpanCat::Test,
            name,
            id,
            track,
            ts_micros: 30,
            status: Some("pass".into()),
        });
        assert_eq!(buf.len(), 4);

        let json = buf.chrome_trace();
        let parsed = crate::codec::parse(&json).expect("exporter emits valid JSON");
        let events = parsed.as_array().expect("top level is an array");
        // 1 process_name + 1 thread_name + 4 records.
        assert_eq!(events.len(), 6);
        assert!(json.contains("\"name\":\"step 7\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"b\""), "{json}");
        assert!(json.contains("\"ph\":\"e\""), "{json}");
        assert!(json.contains("\"status\":\"pass\""), "{json}");
        assert!(json.contains("thread_name"), "{json}");
    }
}
