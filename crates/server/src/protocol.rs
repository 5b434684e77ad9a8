//! The `comptest serve` wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one JSON object on one line, with a `"type"` field
//! naming the frame kind — the same framing in both directions, encoded
//! and parsed by the shared [`comptest_engine::codec`] (the hand-rolled
//! JSON layer the cache records already use, hoisted for exactly this).
//! The parser is hostile-input hardened, so a garbage line from a peer
//! becomes an [`Error`](Frame::Error) frame, never a panic.
//!
//! # Frame reference
//!
//! Client → server requests:
//!
//! | frame | fields | reply |
//! |---|---|---|
//! | `submit` | `stands` (paths), optional `suites` (bundled names, default all), `granularity` (`cell`\|`test`), `stop_on_first_fail`, `cache` (use the shared store, default `true`), `executor` (`pooled`\|`async`, both run on the daemon's one shared executor), `watch` | `submitted`, then (with `watch`) `event`… and a final `result` |
//! | `watch` | `id` | replayed + live `event` frames, then `result` |
//! | `fetch` | `id` | `result` if terminal, else `pending` |
//! | `cancel` | `id` | `ok` |
//! | `status` | — | `status` (every campaign's lifecycle state) |
//! | `metrics` | `id` | `metrics` (that campaign's recorder snapshot) |
//! | `shutdown` | — | `ok`, then graceful drain |
//! | `ping` | — | `pong` |
//!
//! Server → client frames: `submitted {id}`, `event {id, event}`,
//! `result {id, state, …}`, `pending {id, state}`, `status`, `metrics`,
//! `ok`, `pong`, `error {message}`.
//!
//! Campaign lifecycle states a `result`/`pending`/`status` frame can
//! carry: `queued → running → done`, with `cancelled` (never launched)
//! and `failed` (launch/join error, rendered in `error`) terminal
//! branches — see [`comptest_core::service::CampaignState`].

use std::collections::BTreeMap;
use std::str::FromStr;
use std::time::Duration;

use comptest_core::service::CampaignId;
use comptest_engine::codec::{parse, JsonError, Value};
use comptest_engine::{EngineEvent, Granularity};

/// The executor a submission names. Both values are accepted on the
/// wire and both run on the daemon's one lane-fair
/// [`AsyncExecutor`](comptest_engine::AsyncExecutor): up to `concurrency`
/// in-flight runs on a sim-time event loop sharded over `workers`
/// threads, shared by every tenant. Every executor merges byte-identical
/// verdicts, so the choice changes no verdict; `pooled` is kept as an
/// alias, like `comptest campaign --executor pooled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorChoice {
    /// The default; an alias for [`Async`](ExecutorChoice::Async).
    #[default]
    Pooled,
    /// The daemon's shared async executor.
    Async,
}

impl ExecutorChoice {
    fn name(self) -> &'static str {
        match self {
            ExecutorChoice::Pooled => "pooled",
            ExecutorChoice::Async => "async",
        }
    }
}

impl FromStr for ExecutorChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pooled" => Ok(ExecutorChoice::Pooled),
            "async" => Ok(ExecutorChoice::Async),
            other => Err(format!("unknown executor {other:?} (pooled, async)")),
        }
    }
}

/// One campaign submission as it travels on the wire. Stand files are
/// loaded **server-side** from `stands` paths; suites name a subset of
/// the daemon's bundled workbooks (empty = all of them).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Stand file paths, resolved on the server's filesystem.
    pub stands: Vec<String>,
    /// Bundled suite names to run (empty = every bundled suite).
    pub suites: Vec<String>,
    /// Scheduling granularity.
    pub granularity: Granularity,
    /// Cancel remaining jobs on the first failure.
    pub stop_on_first_fail: bool,
    /// Consult/fill the daemon's shared cache (if one is configured).
    pub cache: bool,
    /// The executor the client names; accepted for compatibility, since
    /// every campaign runs on the daemon's one shared executor.
    pub executor: ExecutorChoice,
    /// Stream events back on the submitting connection.
    pub watch: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            stands: Vec::new(),
            suites: Vec::new(),
            granularity: Granularity::default(),
            stop_on_first_fail: false,
            cache: true,
            executor: ExecutorChoice::default(),
            watch: false,
        }
    }
}

/// A finished (or failed) campaign's verdict as one wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// The campaign id.
    pub id: CampaignId,
    /// Terminal lifecycle state: `done`, `cancelled` or `failed`.
    pub state: String,
    /// The rendered launch/join error when `state == "failed"`.
    pub error: Option<String>,
    /// Jobs skipped by cancellation.
    pub cancelled: u64,
    /// True when every cell ran and passed.
    pub all_green: bool,
    /// The result matrix rendered exactly as local execution renders it
    /// (`CampaignResult`'s `Display`) — the byte-identity surface.
    pub report: String,
    /// Tests passed across the matrix.
    pub passed: u64,
    /// Tests failed across the matrix.
    pub failed: u64,
    /// Tests errored across the matrix.
    pub errored: u64,
    /// Cells that could not be planned.
    pub not_runnable: u64,
}

/// One campaign's row in a `status` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRow {
    /// The campaign id.
    pub id: CampaignId,
    /// Lifecycle state name (`queued`, `running`, `done`, `cancelled`,
    /// `failed`).
    pub state: String,
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- requests ----
    /// Submit a campaign.
    Submit(CampaignSpec),
    /// Subscribe to a campaign's events (replay + live).
    Watch {
        /// Campaign to watch.
        id: CampaignId,
    },
    /// Fetch a campaign's verdict without subscribing.
    Fetch {
        /// Campaign to fetch.
        id: CampaignId,
    },
    /// Cancel a campaign (queued: never launches; running: cooperative).
    Cancel {
        /// Campaign to cancel.
        id: CampaignId,
    },
    /// List every campaign's lifecycle state.
    Status,
    /// Request one campaign's metrics snapshot.
    Metrics {
        /// Campaign whose recorder to snapshot.
        id: CampaignId,
    },
    /// Begin graceful shutdown (drain in-flight campaigns, then exit).
    Shutdown,
    /// Liveness probe.
    Ping,

    // ---- responses ----
    /// A submission was accepted under this id.
    Submitted {
        /// The assigned stable id.
        id: CampaignId,
    },
    /// One live engine event of a watched campaign.
    Event {
        /// The campaign the event belongs to.
        id: CampaignId,
        /// The typed engine event.
        event: EngineEvent,
    },
    /// A terminal verdict.
    Result(ResultFrame),
    /// The campaign exists but is not terminal yet.
    Pending {
        /// The campaign id.
        id: CampaignId,
        /// Current lifecycle state (`queued` or `running`).
        state: String,
    },
    /// The daemon's campaign table.
    Status2 {
        /// One row per known campaign, id order (= submission order).
        rows: Vec<StatusRow>,
    },
    /// One campaign's metrics snapshot (the recorder's counters, gauges,
    /// phase timers and histograms as `MetricsSnapshot::to_json` emits
    /// them).
    MetricsReply {
        /// The campaign id.
        id: CampaignId,
        /// The snapshot document.
        metrics: Value,
    },
    /// Generic success.
    Ok,
    /// Liveness reply.
    Pong,
    /// A request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn id_value(id: CampaignId) -> Value {
    Value::str(id.to_string())
}

fn id_from(value: &Value) -> Result<CampaignId, JsonError> {
    value.field("id")?.as_str()?.parse().map_err(JsonError)
}

/// Encodes an engine event as its wire object. Unknown future variants
/// encode as `{"kind":"other"}` so an old client degrades gracefully
/// instead of killing the stream. `duration` travels as integer
/// microseconds.
pub fn event_to_value(event: &EngineEvent) -> Value {
    let kind = |name: &str| ("kind", Value::str(name));
    match event {
        EngineEvent::JobStarted { cell, suite, stand } => obj(vec![
            kind("job_started"),
            ("cell", Value::u64(*cell as u64)),
            ("suite", Value::str(suite.clone())),
            ("stand", Value::str(stand.clone())),
        ]),
        EngineEvent::JobFinished {
            cell,
            suite,
            stand,
            status,
            failed,
        } => obj(vec![
            kind("job_finished"),
            ("cell", Value::u64(*cell as u64)),
            ("suite", Value::str(suite.clone())),
            ("stand", Value::str(stand.clone())),
            ("status", Value::str(status.clone())),
            ("failed", Value::Bool(*failed)),
        ]),
        EngineEvent::TestStarted {
            cell,
            test,
            suite,
            stand,
            name,
        } => obj(vec![
            kind("test_started"),
            ("cell", Value::u64(*cell as u64)),
            ("test", Value::u64(*test as u64)),
            ("suite", Value::str(suite.clone())),
            ("stand", Value::str(stand.clone())),
            ("name", Value::str(name.clone())),
        ]),
        EngineEvent::TestFinished {
            cell,
            test,
            suite,
            stand,
            name,
            status,
            failed,
            duration,
        } => obj(vec![
            kind("test_finished"),
            ("cell", Value::u64(*cell as u64)),
            ("test", Value::u64(*test as u64)),
            ("suite", Value::str(suite.clone())),
            ("stand", Value::str(stand.clone())),
            ("name", Value::str(name.clone())),
            ("status", Value::str(status.clone())),
            ("failed", Value::Bool(*failed)),
            ("duration_micros", Value::u64(duration.as_micros() as u64)),
        ]),
        EngineEvent::CellCached {
            cell,
            test,
            suite,
            stand,
            status,
        } => obj(vec![
            kind("cell_cached"),
            ("cell", Value::u64(*cell as u64)),
            (
                "test",
                match test {
                    Some(t) => Value::u64(*t as u64),
                    None => Value::Null,
                },
            ),
            ("suite", Value::str(suite.clone())),
            ("stand", Value::str(stand.clone())),
            ("status", Value::str(status.clone())),
        ]),
        EngineEvent::CellCacheCorrupt { cell, suite, stand } => obj(vec![
            kind("cell_cache_corrupt"),
            ("cell", Value::u64(*cell as u64)),
            ("suite", Value::str(suite.clone())),
            ("stand", Value::str(stand.clone())),
        ]),
        _ => obj(vec![kind("other")]),
    }
}

/// Decodes a wire event object back into an [`EngineEvent`].
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown kinds (including `other`) or
/// missing/mistyped fields.
pub fn event_from_value(value: &Value) -> Result<EngineEvent, JsonError> {
    let get_usize =
        |name: &str| -> Result<usize, JsonError> { Ok(value.field(name)?.as_u64()? as usize) };
    let get_str =
        |name: &str| -> Result<String, JsonError> { Ok(value.field(name)?.as_str()?.to_owned()) };
    let get_bool = |name: &str| -> Result<bool, JsonError> { value.field(name)?.as_bool() };
    match value.field("kind")?.as_str()? {
        "job_started" => Ok(EngineEvent::JobStarted {
            cell: get_usize("cell")?,
            suite: get_str("suite")?,
            stand: get_str("stand")?,
        }),
        "job_finished" => Ok(EngineEvent::JobFinished {
            cell: get_usize("cell")?,
            suite: get_str("suite")?,
            stand: get_str("stand")?,
            status: get_str("status")?,
            failed: get_bool("failed")?,
        }),
        "test_started" => Ok(EngineEvent::TestStarted {
            cell: get_usize("cell")?,
            test: get_usize("test")?,
            suite: get_str("suite")?,
            stand: get_str("stand")?,
            name: get_str("name")?,
        }),
        "test_finished" => Ok(EngineEvent::TestFinished {
            cell: get_usize("cell")?,
            test: get_usize("test")?,
            suite: get_str("suite")?,
            stand: get_str("stand")?,
            name: get_str("name")?,
            status: get_str("status")?,
            failed: get_bool("failed")?,
            duration: Duration::from_micros(value.field("duration_micros")?.as_u64()?),
        }),
        "cell_cached" => Ok(EngineEvent::CellCached {
            cell: get_usize("cell")?,
            test: match value.field("test")? {
                Value::Null => None,
                other => Some(other.as_u64()? as usize),
            },
            suite: get_str("suite")?,
            stand: get_str("stand")?,
            status: get_str("status")?,
        }),
        "cell_cache_corrupt" => Ok(EngineEvent::CellCacheCorrupt {
            cell: get_usize("cell")?,
            suite: get_str("suite")?,
            stand: get_str("stand")?,
        }),
        other => Err(JsonError(format!("unknown event kind {other:?}"))),
    }
}

impl Frame {
    /// Encodes the frame as its one-line JSON document (no trailing
    /// newline — the transport adds the frame delimiter).
    pub fn encode(&self) -> String {
        self.to_value().render()
    }

    fn to_value(&self) -> Value {
        let typed = |name: &str, mut rest: Vec<(&str, Value)>| {
            let mut fields = vec![("type", Value::str(name))];
            fields.append(&mut rest);
            obj(fields)
        };
        match self {
            Frame::Submit(spec) => typed(
                "submit",
                vec![
                    (
                        "stands",
                        Value::Array(spec.stands.iter().map(Value::str).collect()),
                    ),
                    (
                        "suites",
                        Value::Array(spec.suites.iter().map(Value::str).collect()),
                    ),
                    ("granularity", Value::str(spec.granularity.to_string())),
                    ("stop_on_first_fail", Value::Bool(spec.stop_on_first_fail)),
                    ("cache", Value::Bool(spec.cache)),
                    ("executor", Value::str(spec.executor.name())),
                    ("watch", Value::Bool(spec.watch)),
                ],
            ),
            Frame::Watch { id } => typed("watch", vec![("id", id_value(*id))]),
            Frame::Fetch { id } => typed("fetch", vec![("id", id_value(*id))]),
            Frame::Cancel { id } => typed("cancel", vec![("id", id_value(*id))]),
            Frame::Status => typed("status", vec![]),
            Frame::Metrics { id } => typed("metrics", vec![("id", id_value(*id))]),
            Frame::Shutdown => typed("shutdown", vec![]),
            Frame::Ping => typed("ping", vec![]),
            Frame::Submitted { id } => typed("submitted", vec![("id", id_value(*id))]),
            Frame::Event { id, event } => typed(
                "event",
                vec![("id", id_value(*id)), ("event", event_to_value(event))],
            ),
            Frame::Result(result) => typed(
                "result",
                vec![
                    ("id", id_value(result.id)),
                    ("state", Value::str(result.state.clone())),
                    (
                        "error",
                        match &result.error {
                            Some(e) => Value::str(e.clone()),
                            None => Value::Null,
                        },
                    ),
                    ("cancelled", Value::u64(result.cancelled)),
                    ("all_green", Value::Bool(result.all_green)),
                    ("report", Value::str(result.report.clone())),
                    ("passed", Value::u64(result.passed)),
                    ("failed", Value::u64(result.failed)),
                    ("errored", Value::u64(result.errored)),
                    ("not_runnable", Value::u64(result.not_runnable)),
                ],
            ),
            Frame::Pending { id, state } => typed(
                "pending",
                vec![("id", id_value(*id)), ("state", Value::str(state.clone()))],
            ),
            Frame::Status2 { rows } => typed(
                "status",
                vec![(
                    "campaigns",
                    Value::Array(
                        rows.iter()
                            .map(|row| {
                                obj(vec![
                                    ("id", id_value(row.id)),
                                    ("state", Value::str(row.state.clone())),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
            Frame::MetricsReply { id, metrics } => typed(
                "metrics",
                vec![("id", id_value(*id)), ("metrics", metrics.clone())],
            ),
            Frame::Ok => typed("ok", vec![]),
            Frame::Pong => typed("pong", vec![]),
            Frame::Error { message } => {
                typed("error", vec![("message", Value::str(message.clone()))])
            }
        }
    }

    /// Decodes one frame line (request or response).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, an unknown `type` or
    /// missing/mistyped fields.
    pub fn decode(line: &str) -> Result<Frame, JsonError> {
        let value = parse(line)?;
        let frame_type = value.field("type")?.as_str()?.to_owned();
        // Responses and requests share the `status`/`metrics` names; the
        // presence of payload fields disambiguates.
        match frame_type.as_str() {
            "submit" => {
                let strings = |name: &str| -> Result<Vec<String>, JsonError> {
                    value
                        .field(name)?
                        .as_array()?
                        .iter()
                        .map(|v| Ok(v.as_str()?.to_owned()))
                        .collect()
                };
                Ok(Frame::Submit(CampaignSpec {
                    stands: strings("stands")?,
                    suites: strings("suites")?,
                    granularity: value
                        .field("granularity")?
                        .as_str()?
                        .parse()
                        .map_err(JsonError)?,
                    stop_on_first_fail: value.field("stop_on_first_fail")?.as_bool()?,
                    cache: value.field("cache")?.as_bool()?,
                    executor: value
                        .field("executor")?
                        .as_str()?
                        .parse()
                        .map_err(JsonError)?,
                    watch: value.field("watch")?.as_bool()?,
                }))
            }
            "watch" => Ok(Frame::Watch {
                id: id_from(&value)?,
            }),
            "fetch" => Ok(Frame::Fetch {
                id: id_from(&value)?,
            }),
            "cancel" => Ok(Frame::Cancel {
                id: id_from(&value)?,
            }),
            "status" => match value.field("campaigns") {
                Err(_) => Ok(Frame::Status),
                Ok(campaigns) => Ok(Frame::Status2 {
                    rows: campaigns
                        .as_array()?
                        .iter()
                        .map(|row| {
                            Ok(StatusRow {
                                id: id_from(row)?,
                                state: row.field("state")?.as_str()?.to_owned(),
                            })
                        })
                        .collect::<Result<_, JsonError>>()?,
                }),
            },
            "metrics" => match value.field("metrics") {
                Err(_) => Ok(Frame::Metrics {
                    id: id_from(&value)?,
                }),
                Ok(metrics) => Ok(Frame::MetricsReply {
                    id: id_from(&value)?,
                    metrics: metrics.clone(),
                }),
            },
            "shutdown" => Ok(Frame::Shutdown),
            "ping" => Ok(Frame::Ping),
            "submitted" => Ok(Frame::Submitted {
                id: id_from(&value)?,
            }),
            "event" => Ok(Frame::Event {
                id: id_from(&value)?,
                event: event_from_value(value.field("event")?)?,
            }),
            "result" => Ok(Frame::Result(ResultFrame {
                id: id_from(&value)?,
                state: value.field("state")?.as_str()?.to_owned(),
                error: match value.field("error")? {
                    Value::Null => None,
                    other => Some(other.as_str()?.to_owned()),
                },
                cancelled: value.field("cancelled")?.as_u64()?,
                all_green: value.field("all_green")?.as_bool()?,
                report: value.field("report")?.as_str()?.to_owned(),
                passed: value.field("passed")?.as_u64()?,
                failed: value.field("failed")?.as_u64()?,
                errored: value.field("errored")?.as_u64()?,
                not_runnable: value.field("not_runnable")?.as_u64()?,
            })),
            "pending" => Ok(Frame::Pending {
                id: id_from(&value)?,
                state: value.field("state")?.as_str()?.to_owned(),
            }),
            "ok" => Ok(Frame::Ok),
            "pong" => Ok(Frame::Pong),
            "error" => Ok(Frame::Error {
                message: value.field("message")?.as_str()?.to_owned(),
            }),
            other => Err(JsonError(format!("unknown frame type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let line = frame.encode();
        assert!(!line.contains('\n'), "frames must be one line: {line}");
        assert_eq!(Frame::decode(&line).unwrap(), frame, "{line}");
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Submit(CampaignSpec {
            stands: vec!["assets/stand_a.stand".into()],
            suites: vec!["interior_light".into()],
            granularity: Granularity::Test,
            stop_on_first_fail: true,
            cache: false,
            executor: ExecutorChoice::Async,
            watch: true,
        }));
        roundtrip(Frame::Submit(CampaignSpec::default()));
        roundtrip(Frame::Watch { id: CampaignId(7) });
        roundtrip(Frame::Fetch { id: CampaignId(7) });
        roundtrip(Frame::Cancel { id: CampaignId(7) });
        roundtrip(Frame::Status);
        roundtrip(Frame::Metrics { id: CampaignId(1) });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Ping);
        roundtrip(Frame::Submitted { id: CampaignId(3) });
        roundtrip(Frame::Result(ResultFrame {
            id: CampaignId(3),
            state: "done".into(),
            error: None,
            cancelled: 2,
            all_green: false,
            report: "interior_light on HIL-A PASS (3P/0F/0E)\n".into(),
            passed: 3,
            failed: 0,
            errored: 0,
            not_runnable: 0,
        }));
        roundtrip(Frame::Result(ResultFrame {
            id: CampaignId(4),
            state: "failed".into(),
            error: Some("launch exploded".into()),
            cancelled: 0,
            all_green: false,
            report: String::new(),
            passed: 0,
            failed: 0,
            errored: 0,
            not_runnable: 0,
        }));
        roundtrip(Frame::Pending {
            id: CampaignId(3),
            state: "running".into(),
        });
        roundtrip(Frame::Status2 {
            rows: vec![
                StatusRow {
                    id: CampaignId(1),
                    state: "done".into(),
                },
                StatusRow {
                    id: CampaignId(2),
                    state: "queued".into(),
                },
            ],
        });
        roundtrip(Frame::MetricsReply {
            id: CampaignId(1),
            metrics: parse("{\"counters\":{\"jobs_planned\":4}}").unwrap(),
        });
        roundtrip(Frame::Ok);
        roundtrip(Frame::Pong);
        roundtrip(Frame::Error {
            message: "unknown id \"c-9\"".into(),
        });
    }

    #[test]
    fn events_roundtrip() {
        let events = [
            EngineEvent::JobStarted {
                cell: 1,
                suite: "s".into(),
                stand: "t".into(),
            },
            EngineEvent::JobFinished {
                cell: 1,
                suite: "s".into(),
                stand: "t".into(),
                status: "PASS (1P/0F/0E)".into(),
                failed: false,
            },
            EngineEvent::TestStarted {
                cell: 0,
                test: 2,
                suite: "s".into(),
                stand: "t".into(),
                name: "n".into(),
            },
            EngineEvent::TestFinished {
                cell: 0,
                test: 2,
                suite: "s".into(),
                stand: "t".into(),
                name: "n".into(),
                status: "FAIL".into(),
                failed: true,
                duration: Duration::from_micros(1234),
            },
            EngineEvent::CellCached {
                cell: 0,
                test: None,
                suite: "s".into(),
                stand: "t".into(),
                status: "PASS (1P/0F/0E)".into(),
            },
            EngineEvent::CellCached {
                cell: 0,
                test: Some(4),
                suite: "s".into(),
                stand: "t".into(),
                status: "PASS".into(),
            },
            EngineEvent::CellCacheCorrupt {
                cell: 3,
                suite: "s".into(),
                stand: "t".into(),
            },
        ];
        for event in events {
            let round = event_from_value(&event_to_value(&event)).unwrap();
            assert_eq!(round, event);
        }
    }

    #[test]
    fn hostile_lines_error_cleanly() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"type\":\"nope\"}",
            "{\"type\":\"watch\"}",
            "{\"type\":\"watch\",\"id\":\"zzz\"}",
            "{\"type\":\"submit\"}",
            "{\"type\":\"event\",\"id\":\"c-1\",\"event\":{\"kind\":\"other\"}}",
            "[1,2,3]",
        ] {
            assert!(Frame::decode(line).is_err(), "{line:?} should not decode");
        }
    }
}
