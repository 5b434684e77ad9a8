//! The content-addressed campaign cache: [`CampaignCache`], the in-memory
//! [`MemoryCache`], the on-disk [`DirCache`], and the per-run
//! `CacheRuntime` every executor consults.
//!
//! Regression campaigns re-run mostly unchanged suites on mostly unchanged
//! stands; compositional-testing results (Kanso & Chebaro; Daca &
//! Henzinger) justify skipping re-verification of a component whose
//! interface contract is unchanged. A cell's contract is captured by its
//! [`CellKey`] — stable structural hashes of suite, stand, DUT config and
//! execution options (see [`comptest_core::hash`]) — and the cache maps
//! that key to the cell's full per-test outcomes.
//!
//! Design points:
//!
//! * **Records are per cell, granularity-agnostic.** A [`CellRecord`]
//!   holds per-test outcomes (full [`TestResult`](comptest_core::TestResult)s
//!   including traces and simulated step timing, so reports from a warm
//!   run carry the same timing a cold run would). Because every test runs
//!   against a fresh power-cycled DUT, a record written by a test-granular
//!   run serves a cell-granular one and vice versa — the same independence
//!   argument behind the engine's byte-identity guarantee.
//! * **A record may be a prefix.** A job stops at its first planning
//!   error, so a cell-granular run never learns the tests after it; the
//!   record stores the determined prefix. A job hits when the record
//!   determines every test the job would run
//!   ([`CellRecord::job_outcomes`]): one test for a test-granular job; the
//!   whole cell — complete, or ending in a planning error — for a
//!   cell-granular one.
//! * **Anything unreadable is a miss.** Corrupt, truncated or
//!   wrong-version entries decode to an error and the cell simply
//!   executes; only an unusable cache *directory* raises
//!   [`CoreError::Cache`], at configuration time.
//! * **Hits keep campaign semantics.** A hit resolves at the same
//!   admission point where the job would have run: it emits
//!   [`EngineEvent::CellCached`] and a cached failure trips the
//!   `stop_on_first_fail` latch exactly like an executed one, so warm runs
//!   cancel the same deterministic suffix.
//! * **`cache_verify` audits instead of skipping.** Every job executes,
//!   executed outcomes are compared to cached ones, and
//!   [`CampaignHandle::join`](crate::CampaignHandle::join) raises
//!   [`CoreError::CacheMismatch`] when any diverged — the paper-style
//!   spot-check that the content addressing really covers every input.
//! * **Hits build no devices.** Records are pre-loaded before jobs are
//!   packaged, and a job's cached outcomes stay untouched until its own
//!   admission, so admission is a deterministic function of them;
//!   packaging asks `CacheRuntime::will_hit` and skips constructing the
//!   DUT devices of every predicted hit — a fully warm run builds zero
//!   devices.
//!
//! # What invalidates the cache
//!
//! Two keying modes decide *which* edits turn hits into misses
//! ([`CacheKeying`], CLI `--cache-key`, footprint default):
//!
//! * **[`CacheKeying::Full`]** keys each cell on the whole suite, the
//!   whole stand and the whole DUT config ([`CellKey`]). Safe and simple,
//!   but coarse: editing one ECU's fault set on a shared DUT, or touching
//!   any stand resource, invalidates every cell keyed against them.
//! * **[`CacheKeying::Footprint`]** (the default) keys each cell on its
//!   recorded dependency [`Footprint`]: the digest of the cell's
//!   *resolved execution plans* (the exact stand slice the planner
//!   allocated) and of the *DUT slice* its signals route through (touched
//!   pin/CAN bindings refined by
//!   [`Behavior::port_slice`](comptest_dut::Behavior::port_slice)). Edits
//!   outside a cell's footprint — an unrelated stand resource, another
//!   ECU's configuration block — leave its key, and its cached verdict,
//!   untouched. Anything the footprint cannot prove untouched falls back
//!   to whole-device hashing, so footprint keying is never less safe than
//!   full keying, only more precise.
//!
//! Both modes fold the campaign's **cache salt**
//! ([`Campaign::cache_salt`](crate::Campaign::cache_salt), CLI
//! `--cache-salt`) into footprint keys; bump it (e.g. on a firmware
//! release) to invalidate every footprint-keyed record at once. The two
//! modes' keys live in disjoint hash domains, so one directory can hold
//! both without aliasing; switching modes is safe but starts cold on the
//! first run.
//!
//! # On-disk records
//!
//! [`DirCache`] stores one `<key>.bin` file per [`CellKey`]: a
//! length-prefixed, field-tagged layout decoded in one pass over the
//! single `Vec<u8>` read from disk:
//!
//! ```text
//! magic "CCR" | version u8 | flags u8 | varint total | varint n_tests
//! | [ footprint section, if flags bit 1 ]
//! | n_tests × ( varint len | tagged outcome body )
//! ```
//!
//! Varint lengths are bounds-checked before use, strings are
//! UTF-8-validated in place, floats are raw `to_bits` LE words, and the
//! fixed-position header alone answers hit/miss (coverage and
//! determinedness) without decoding any per-test payload. The full
//! field-by-field layout and the versioning rules live in the [`binary`]
//! module docs. A version bump makes stale files decode as errors →
//! misses; they re-execute and are rewritten in the current version.
//!
//! Earlier releases could also write `<key>.json` records. Those files
//! are never read: a leftover `.json` entry is a plain miss, so its cell
//! re-executes and is rewritten as `.bin`.

pub mod binary;

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard};

use comptest_core::campaign::TestJobOutcome;
use comptest_core::error::CoreError;
use comptest_core::hash::{CellKey, Footprint};

use crate::campaign::{Campaign, Granularity};
use crate::events::{emit, EngineEvent};
use crate::executor::KeySet;
use crate::obs::{Counter, Recorder};

/// How campaign cells are keyed into the cache — which edits invalidate
/// what. See the [module docs](self#what-invalidates-the-cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheKeying {
    /// Whole-artifact keys ([`CellKey`]): any change to the suite, the
    /// stand or the DUT config invalidates every cell keyed against it.
    Full,
    /// Dependency-footprint keys ([`Footprint`]): a cell is invalidated
    /// only by changes to the stand slice its plans allocate or the DUT
    /// slice its signals touch. The default.
    #[default]
    Footprint,
}

impl CacheKeying {
    /// Accepted [`FromStr`](std::str::FromStr) spellings, for CLI help.
    pub const ACCEPTED: [&'static str; 2] = ["full", "footprint"];
}

impl fmt::Display for CacheKeying {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKeying::Full => write!(f, "full"),
            CacheKeying::Footprint => write!(f, "footprint"),
        }
    }
}

impl std::str::FromStr for CacheKeying {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(CacheKeying::Full),
            "footprint" => Ok(CacheKeying::Footprint),
            _ => Err(format!(
                "unknown cache keying {s:?}: expected one of {}",
                Self::ACCEPTED.join(", ")
            )),
        }
    }
}

/// The cached outcomes of one campaign cell: per-test outcomes in suite
/// order, possibly truncated to the prefix a cell-granular run determined.
///
/// Invariant: `tests.len() <= total`, where `total` is the suite's test
/// count at store time. A record *determines* the whole cell when it ends
/// in a planning error or covers every test.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Number of tests the suite had when the record was stored.
    pub total: usize,
    /// Per-test outcomes (full results including traces and sim timing),
    /// a prefix of the suite's tests.
    pub tests: Vec<TestJobOutcome>,
    /// The dependency footprint the cell was keyed under when stored by a
    /// footprint-keyed run ([`CacheKeying::Footprint`]); `None` for
    /// full-keyed stores and for records written before the footprint
    /// format revision. Informational: admission recomputes keys fresh
    /// every run, so a missing footprint never weakens a hit.
    pub footprint: Option<Footprint>,
}

impl CellRecord {
    /// The cached outcome of one test, if the record covers it. Each test
    /// runs against a fresh power-cycled DUT, so any stored entry is valid
    /// independently of the others.
    pub fn test_outcome(&self, test: usize) -> Option<&TestJobOutcome> {
        self.tests.get(test)
    }

    /// True when the record covers every test of the suite.
    pub fn is_complete(&self) -> bool {
        self.tests.len() == self.total
    }

    /// True when the record determines the whole cell: it is complete, or
    /// it ends in a planning error (exactly where sequential cell
    /// execution stops).
    pub fn is_determined(&self) -> bool {
        self.is_complete() || matches!(self.tests.last(), Some(Err(_)))
    }

    /// The outcomes a job running the suite's tests `tests` would produce,
    /// if the record determines them: every test in order, up to and
    /// including the first planning error (where a job stops). `None` when
    /// the record lacks a test the job would run.
    pub fn job_outcomes(&self, tests: Range<usize>) -> Option<&[TestJobOutcome]> {
        let range = job_range(self.tests.len(), |t| self.tests[t].is_err(), tests)?;
        Some(&self.tests[range])
    }
}

/// The suite tests a job running `tests` takes from a record of `len`
/// outcomes, where `is_err(t)` says whether test `t`'s outcome is a
/// planning error: every test in order, up to and including the first
/// error (where a job stops). `None` when the record lacks a test the job
/// would run.
fn job_range(
    len: usize,
    is_err: impl Fn(usize) -> bool,
    tests: Range<usize>,
) -> Option<Range<usize>> {
    let (start, mut end) = (tests.start, tests.start);
    for test in tests {
        if test >= len {
            return None;
        }
        end = test + 1;
        if is_err(test) {
            break;
        }
    }
    (end <= len).then_some(start..end)
}

/// A content-addressed store of campaign cell outcomes.
///
/// Implementations must be safe to share across worker threads and should
/// treat `store` as best-effort: a cache that cannot persist must not fail
/// the campaign (the outcome it was asked to store is already merged).
pub trait CampaignCache: fmt::Debug + Send + Sync {
    /// Loads the record for a key; `None` for absent *or unreadable*
    /// entries — a corrupt cache degrades to cold execution, never to an
    /// error.
    fn load(&self, key: &CellKey) -> Option<CellRecord>;

    /// Stores (or replaces) the record for a key. Best-effort.
    fn store(&self, key: &CellKey, record: &CellRecord);

    /// Like [`CampaignCache::load`], but distinguishes an entry that does
    /// not exist from one that exists and cannot be decoded, so the
    /// engine can tell a cold cache from a rotting store (it emits
    /// [`EngineEvent::CellCacheCorrupt`] and bumps the
    /// `cache_corrupt_entries` counter for the latter).
    ///
    /// The default implementation cannot see corruption and maps `load`
    /// to `Hit`/`Miss`; stores with their own decode step (like
    /// [`DirCache`]) should override it.
    fn lookup(&self, key: &CellKey) -> CacheLookup {
        match self.load(key) {
            Some(record) => CacheLookup::Hit(record),
            None => CacheLookup::Miss,
        }
    }

    /// Like [`CampaignCache::lookup`], annotated with how many encoded
    /// bytes were read. The engine feeds this into the `cache_bytes_read`
    /// counter.
    ///
    /// The default implementation performs no I/O it could measure and
    /// reports zero bytes; stores that actually read encoded records (like
    /// [`DirCache`]) should override it.
    fn lookup_io(&self, key: &CellKey) -> LookupInfo {
        LookupInfo {
            lookup: self.lookup(key),
            bytes: 0,
        }
    }

    /// Like [`CampaignCache::store`], returning the number of encoded
    /// bytes written (`0` for in-memory stores or failed best-effort
    /// writes). The engine feeds this into the `cache_bytes_written`
    /// counter.
    fn store_io(&self, key: &CellKey, record: &CellRecord) -> u64 {
        self.store(key, record);
        0
    }
}

/// A [`CampaignCache::lookup_io`] result: the lookup outcome plus the
/// encoded bytes read.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupInfo {
    /// The lookup outcome.
    pub lookup: CacheLookup,
    /// Encoded bytes read from the backing store (0 when nothing was
    /// read, e.g. a miss or an in-memory cache).
    pub bytes: u64,
}

/// Outcome of a [`CampaignCache::lookup`]: a usable record, a plain
/// absence, or an entry that exists but cannot be decoded. `Corrupt`
/// behaves like `Miss` for execution (the cell runs cold) and exists so
/// the condition can be surfaced instead of silently swallowed.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A decodable record was found.
    Hit(CellRecord),
    /// No entry exists for the key.
    Miss,
    /// An entry exists but is truncated, wrong-version, or garbage.
    Corrupt,
}

/// An in-process cache: outcomes survive across launches of the same (or
/// an equal) campaign within one process — replay loops, watch mode,
/// benches.
#[derive(Debug, Default)]
pub struct MemoryCache {
    cells: Mutex<HashMap<CellKey, CellRecord>>,
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("cache lock").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CampaignCache for MemoryCache {
    fn load(&self, key: &CellKey) -> Option<CellRecord> {
        self.cells.lock().expect("cache lock").get(key).cloned()
    }

    fn store(&self, key: &CellKey, record: &CellRecord) {
        self.cells
            .lock()
            .expect("cache lock")
            .insert(*key, record.clone());
    }
}

/// An on-disk cache: one binary record file per cell key under a
/// directory, shared across processes and campaign runs (see the
/// [module docs](self#on-disk-records)). Writes go through a temporary
/// file in the same directory followed by an atomic rename, so concurrent
/// runs and crashes never leave a half-written record — readers see the
/// old record or the new one, and a torn file can only be a leftover
/// `.tmp` no reader ever opens.
#[derive(Debug)]
pub struct DirCache {
    dir: PathBuf,
}

/// Temp-name disambiguator shared by every [`DirCache`] in the process:
/// two instances opened on the same directory (different campaigns, a
/// cache and its verify pass, the multi-tenant daemon) must never race on
/// the same `.tmp` name, so the counter cannot live per instance.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl DirCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] when the directory cannot be created
    /// or is not usable as a directory (e.g. the path names a file).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let dir = dir.into();
        if dir.as_os_str().is_empty() {
            return Err(CoreError::Cache {
                message: "cache directory path is empty".into(),
            });
        }
        std::fs::create_dir_all(&dir).map_err(|e| CoreError::Cache {
            message: format!("cannot create cache directory {}: {e}", dir.display()),
        })?;
        if !dir.is_dir() {
            return Err(CoreError::Cache {
                message: format!("{} is not a directory", dir.display()),
            });
        }
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The record file path of a key.
    pub fn entry_path(&self, key: &CellKey) -> PathBuf {
        self.dir.join(format!("{key}.bin"))
    }
}

impl CampaignCache for DirCache {
    fn load(&self, key: &CellKey) -> Option<CellRecord> {
        match self.lookup(key) {
            CacheLookup::Hit(record) => Some(record),
            CacheLookup::Miss | CacheLookup::Corrupt => None,
        }
    }

    fn lookup(&self, key: &CellKey) -> CacheLookup {
        self.lookup_io(key).lookup
    }

    fn lookup_io(&self, key: &CellKey) -> LookupInfo {
        let bytes = match std::fs::read(self.entry_path(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return LookupInfo {
                    lookup: CacheLookup::Miss,
                    bytes: 0,
                }
            }
            // Present but unreadable (permissions, I/O error): the store
            // has the entry and cannot serve it — report rot.
            Err(_) => {
                return LookupInfo {
                    lookup: CacheLookup::Corrupt,
                    bytes: 0,
                }
            }
        };
        LookupInfo {
            lookup: match binary::decode(&bytes) {
                Ok(record) => CacheLookup::Hit(record),
                Err(_) => CacheLookup::Corrupt,
            },
            bytes: bytes.len() as u64,
        }
    }

    fn store(&self, key: &CellKey, record: &CellRecord) {
        self.store_io(key, record);
    }

    fn store_io(&self, key: &CellKey, record: &CellRecord) -> u64 {
        // Unique-per-writer temp name: process id + process-wide counter
        // (two DirCache instances on one directory must not collide).
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = binary::encode(record);
        let written = bytes.len() as u64;
        // Best-effort: a cache that cannot persist (full disk, revoked
        // permissions) degrades to a smaller cache, never a failed run —
        // but whatever happens, the temp file must not survive (a
        // partially written one would otherwise accumulate per attempt).
        if std::fs::write(&tmp, bytes).is_err()
            || std::fs::rename(&tmp, self.entry_path(key)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
            return 0;
        }
        written
    }
}

/// Per-cell store accumulator: collects the outcomes of the cell's jobs
/// (cached and executed) until every job reported, then stores once.
struct Collector {
    outcomes: Vec<Option<TestJobOutcome>>,
    /// Jobs of the cell that have not reported yet.
    pending: usize,
    /// At least one outcome came from execution (a fully-warm cell is
    /// never re-stored — 10k identical writes would erase the warm win).
    executed: bool,
}

/// A pre-loaded record's outcomes in suite order, each `None` once
/// admission has moved it into the job it serves.
type Slots = Vec<Option<TestJobOutcome>>;

/// One cell's pre-loaded record, whose outcomes admission hands out.
struct Preloaded {
    /// Whether the record covers every test of the suite.
    complete: bool,
    /// The cached outcomes. Jobs' test ranges never overlap, so a job
    /// only ever reads slots no other job has emptied.
    slots: Mutex<Slots>,
}

impl Preloaded {
    fn new(record: CellRecord) -> Self {
        Self {
            complete: record.is_complete(),
            slots: Mutex::new(record.tests.into_iter().map(Some).collect()),
        }
    }

    /// Locks the slots and finds the ones serving the job that runs
    /// `tests`, if the record determines them.
    fn job_slots(&self, tests: Range<usize>) -> Option<(MutexGuard<'_, Slots>, Range<usize>)> {
        let slots = self.slots.lock().expect("cached outcomes");
        let range = job_range(slots.len(), |t| matches!(slots[t], Some(Err(_))), tests)?;
        Some((slots, range))
    }
}

/// The cache state of one launched campaign run, shared by every worker:
/// pre-computed keys, pre-loaded records, per-cell store accumulators and
/// the `cache_verify` mismatch count.
///
/// Loading happens once on the launch thread (one I/O pass in
/// deterministic cell order); workers only read records and accumulate
/// outcomes.
pub(crate) struct CacheRuntime {
    cache: Arc<dyn CampaignCache>,
    verify: bool,
    /// The keying mode the campaign's keys were computed under — what the
    /// `cache_hits_footprint` counter reports against.
    keying: CacheKeying,
    keys: Vec<CellKey>,
    /// Per-cell dependency footprints (`None` under [`CacheKeying::Full`]
    /// or when capture was skipped) — attached to stored records.
    footprints: Vec<Option<Footprint>>,
    records: Vec<Option<Preloaded>>,
    collectors: Vec<Mutex<Collector>>,
    /// Cells whose stored entry existed but could not be decoded:
    /// `(cell, suite, stand)`, collected at preload so every launch path
    /// can emit [`EngineEvent::CellCacheCorrupt`] warnings once its event
    /// channel exists.
    corrupt: Vec<(usize, String, String)>,
    mismatches: AtomicUsize,
    /// Recorder for store-side accounting (`cache_bytes_written`) — reads
    /// are accounted once in [`CacheRuntime::prepare`], stores happen on
    /// workers throughout the run.
    obs: Recorder,
}

impl CacheRuntime {
    /// Pre-loads every cell's record using the campaign's precomputed
    /// [`CellKey`]s (hashed once per campaign *value* in the `OnceLock`
    /// key store, not once per launch), and sizes each cell's store
    /// accumulator to its job count at the campaign's granularity.
    /// Corrupt entries are treated as misses, remembered for warning
    /// events, and counted on `obs`. Every lookup that fails to produce a
    /// usable record counts as `cells_invalidated` (the cells this run
    /// will re-execute); per-cell footprints ride along to be attached to
    /// stored records, their encoded size feeding `footprint_bytes` (only
    /// counted when `obs` is enabled).
    pub(crate) fn prepare(
        cache: Arc<dyn CampaignCache>,
        campaign: &Campaign<'_, '_>,
        keyset: &KeySet,
        obs: &Recorder,
    ) -> Arc<Self> {
        let keys = &keyset.keys;
        let footprints = &keyset.footprints;
        debug_assert_eq!(keys.len(), campaign.entries.len() * campaign.stands.len());
        debug_assert_eq!(footprints.len(), keys.len());
        let mut records = Vec::with_capacity(keys.len());
        let mut collectors = Vec::with_capacity(keys.len());
        let mut corrupt = Vec::new();
        let mut bytes_read = 0u64;
        let mut footprint_bytes = 0u64;
        let mut cell = 0;
        for entry in campaign.entries {
            for stand in campaign.stands {
                // Encoding a footprint only to count its bytes is wasted
                // work when nobody records the count.
                if obs.is_enabled() {
                    if let Some(fp) = &footprints[cell] {
                        footprint_bytes += binary::footprint_bytes(fp);
                    }
                }
                let info = cache.lookup_io(&keys[cell]);
                bytes_read += info.bytes;
                records.push(match info.lookup {
                    CacheLookup::Hit(record) => Some(Preloaded::new(record)),
                    CacheLookup::Miss => {
                        obs.inc(Counter::CellsInvalidated);
                        None
                    }
                    CacheLookup::Corrupt => {
                        obs.inc(Counter::CacheCorruptEntries);
                        obs.inc(Counter::CellsInvalidated);
                        corrupt.push((cell, entry.suite.name.clone(), stand.name().to_owned()));
                        None
                    }
                });
                let tests = entry.suite.tests.len();
                collectors.push(Mutex::new(Collector {
                    outcomes: vec![None; tests],
                    pending: match campaign.granularity {
                        Granularity::Cell => 1,
                        Granularity::Test => tests,
                    },
                    executed: false,
                }));
                cell += 1;
            }
        }
        obs.add(Counter::CacheBytesRead, bytes_read);
        obs.add(Counter::FootprintBytes, footprint_bytes);
        Arc::new(Self {
            cache,
            verify: campaign.cache_verify,
            keying: campaign.cache_keying,
            keys: keys.to_vec(),
            footprints: footprints.to_vec(),
            records,
            collectors,
            corrupt,
            mismatches: AtomicUsize::new(0),
            obs: obs.clone(),
        })
    }

    /// Emits one [`EngineEvent::CellCacheCorrupt`] per rotten entry found
    /// at preload. Every launch path calls this right after creating its
    /// event channel, before any job runs.
    pub(crate) fn emit_corrupt_warnings(&self, events: &Sender<EngineEvent>) {
        for (cell, suite, stand) in &self.corrupt {
            emit(
                events,
                EngineEvent::CellCacheCorrupt {
                    cell: *cell,
                    suite: suite.clone(),
                    stand: stand.clone(),
                },
            );
        }
    }

    /// Whether [`CacheRuntime::admit`] will serve the job running `tests`
    /// of `cell`. Records are pre-loaded before packaging and a job's
    /// cached outcomes stay untouched until its own admission, so this
    /// prediction is exact — packaging uses it to skip building DUT
    /// devices for jobs that will never run.
    pub(crate) fn will_hit(&self, cell: usize, tests: Range<usize>) -> bool {
        !self.verify
            && self.records[cell]
                .as_ref()
                .is_some_and(|r| r.job_slots(tests).is_some())
    }

    /// Admission: the cached outcomes of the job running `tests` of
    /// `cell`, or `None` (miss / verify mode — the job must execute).
    ///
    /// Each (cell, test) outcome is served to exactly one job, so a hit
    /// *moves* its outcomes out of the pre-loaded record instead of
    /// cloning them. The one clone left is for partial records: their
    /// hits also feed the cell's store accumulator, so mixed warm/cold
    /// cells can complete their record. A complete record never needs
    /// re-storing, so fully-warm cells skip the accumulator and clone
    /// nothing. Verify mode serves nothing and leaves every record intact
    /// for [`CacheRuntime::finish`] to compare against.
    pub(crate) fn admit(&self, cell: usize, tests: Range<usize>) -> Option<Vec<TestJobOutcome>> {
        if self.verify {
            return None;
        }
        let record = self.records[cell].as_ref()?;
        let (mut slots, range) = record.job_slots(tests.clone())?;
        // Every slot in the range is still full; an emptied one would only
        // turn this hit into a miss.
        let outcomes: Vec<TestJobOutcome> = slots[range]
            .iter_mut()
            .map(Option::take)
            .collect::<Option<_>>()?;
        drop(slots);
        if self.keying == CacheKeying::Footprint {
            self.obs.inc(Counter::CacheHitsFootprint);
        }
        if !record.complete {
            self.note(cell, tests.start, &outcomes, false);
        }
        Some(outcomes)
    }

    /// Reports one *executed* job's outcomes (its tests from suite index
    /// `first` on): feeds the store accumulator and, in verify mode,
    /// counts a mismatch when the cached outcomes for the same tests
    /// differ.
    pub(crate) fn finish(&self, cell: usize, first: usize, outcomes: &[TestJobOutcome]) {
        if self.verify {
            if let Some(record) = &self.records[cell] {
                if let Some((cached, range)) = record.job_slots(first..first + outcomes.len()) {
                    if !cached[range]
                        .iter()
                        .map(Option::as_ref)
                        .eq(outcomes.iter().map(Some))
                    {
                        self.mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.note(cell, first, outcomes, true);
    }

    /// Raises [`CoreError::CacheMismatch`] if verify mode saw divergences
    /// — called by the join.
    pub(crate) fn check_verified(&self) -> Result<(), CoreError> {
        match self.mismatches.load(Ordering::Relaxed) {
            0 => Ok(()),
            mismatches => Err(CoreError::CacheMismatch { mismatches }),
        }
    }

    /// Accumulates one job's outcomes; once every job of the cell reported
    /// and at least one executed, stores the determined prefix — the
    /// outcomes up to the first test no job produced.
    fn note(&self, cell: usize, first: usize, outcomes: &[TestJobOutcome], executed: bool) {
        let mut c = self.collectors[cell].lock().expect("collector");
        if c.pending == 0 {
            // Every job of the cell already reported.
            return;
        }
        for (slot, outcome) in c.outcomes[first..].iter_mut().zip(outcomes) {
            slot.get_or_insert_with(|| outcome.clone());
        }
        c.pending -= 1;
        c.executed |= executed;
        if c.pending > 0 || !c.executed {
            return;
        }
        let total = c.outcomes.len();
        let tests: Vec<TestJobOutcome> = c.outcomes.iter_mut().map_while(Option::take).collect();
        drop(c);
        let record = CellRecord {
            total,
            tests,
            footprint: self.footprints[cell].clone(),
        };
        let written = self.cache.store_io(&self.keys[cell], &record);
        self.obs.add(Counter::CacheBytesWritten, written);
    }
}

impl fmt::Debug for CacheRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheRuntime")
            .field("verify", &self.verify)
            .field("cells", &self.keys.len())
            .field(
                "preloaded",
                &self.records.iter().filter(|r| r.is_some()).count(),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_core::{TestResult, Trace};

    fn result(test: &str) -> TestResult {
        TestResult {
            test: test.into(),
            stand: "HIL-A".into(),
            dut: "interior_light".into(),
            steps: vec![comptest_core::StepResult {
                nr: 0,
                t_end: comptest_model::SimTime::from_millis(500),
                checks: vec![],
            }],
            error: None,
            trace: Trace::new(),
        }
    }

    fn key(n: u64) -> CellKey {
        CellKey {
            suite_hash: n,
            stand_hash: n ^ 1,
            dut_config_hash: n ^ 2,
            exec_hash: n ^ 3,
        }
    }

    #[test]
    fn record_roundtrips_through_the_codec() {
        let record = CellRecord {
            total: 3,
            tests: vec![Ok(result("a")), Err("no resource supports get_u".into())],
            footprint: None,
        };
        let decoded = binary::decode(&binary::encode(&record)).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn cache_keying_parses_and_displays() {
        assert_eq!(CacheKeying::default(), CacheKeying::Footprint);
        for accepted in CacheKeying::ACCEPTED {
            let keying: CacheKeying = accepted.parse().unwrap();
            assert_eq!(keying.to_string(), accepted);
        }
        let err = "bogus".parse::<CacheKeying>().unwrap_err();
        assert!(err.contains("full, footprint"), "{err}");
    }

    #[test]
    fn partial_record_determines_cells_only_through_an_error() {
        let with_error = CellRecord {
            total: 3,
            tests: vec![Ok(result("a")), Err("boom".into())],
            footprint: None,
        };
        assert_eq!(with_error.job_outcomes(0..3).map(<[_]>::len), Some(2));
        assert_eq!(with_error.test_outcome(0), Some(&Ok(result("a"))));
        assert!(with_error.test_outcome(2).is_none());

        let undetermined = CellRecord {
            total: 3,
            tests: vec![Ok(result("a")), Ok(result("b"))],
            footprint: None,
        };
        assert!(undetermined.job_outcomes(0..3).is_none(), "missing tail");
        assert!(
            undetermined.test_outcome(1).is_some(),
            "per-test still hits"
        );

        let complete = CellRecord {
            total: 2,
            tests: vec![Ok(result("a")), Ok(result("b"))],
            footprint: None,
        };
        assert_eq!(complete.job_outcomes(0..2).map(<[_]>::len), Some(2));
        assert_eq!(complete.job_outcomes(1..2).map(<[_]>::len), Some(1));
        let empty = CellRecord {
            total: 0,
            tests: vec![],
            footprint: None,
        };
        assert_eq!(empty.job_outcomes(0..0), Some(&[][..]), "an empty cell");
    }

    #[test]
    fn memory_cache_stores_and_loads() {
        let cache = MemoryCache::new();
        assert!(cache.is_empty());
        let record = CellRecord {
            total: 1,
            tests: vec![Ok(result("a"))],
            footprint: None,
        };
        assert!(cache.load(&key(1)).is_none());
        cache.store(&key(1), &record);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.load(&key(1)), Some(record));
        assert!(cache.load(&key(2)).is_none());
    }

    #[test]
    fn dir_cache_roundtrips_and_treats_corruption_as_a_miss() {
        let dir = std::env::temp_dir().join(format!("comptest-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DirCache::open(&dir).unwrap();
        let record = CellRecord {
            total: 1,
            tests: vec![Ok(result("a"))],
            footprint: None,
        };
        cache.store(&key(7), &record);
        assert_eq!(cache.load(&key(7)), Some(record.clone()));

        // Truncate the entry: unreadable -> miss, not an error.
        let path = cache.entry_path(&key(7));
        assert_eq!(path.extension().unwrap(), "bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(cache.load(&key(7)), None);

        // Arbitrary garbage and a wrong-version header: all misses.
        std::fs::write(&path, "not a record at all \u{0}\u{1}").unwrap();
        assert_eq!(cache.load(&key(7)), None);
        let mut wrong_version = bytes.clone();
        wrong_version[3] = binary::VERSION + 1;
        std::fs::write(&path, &wrong_version).unwrap();
        assert_eq!(cache.load(&key(7)), None);

        // A fresh store replaces the rotten entry (self-heal).
        cache.store(&key(7), &record);
        assert_eq!(cache.load(&key(7)), Some(record.clone()));

        // Reopening an existing directory is fine; a file path is not.
        assert!(DirCache::open(&dir).is_ok());
        let file = dir.join("plain-file");
        std::fs::write(&file, "x").unwrap();
        assert!(matches!(
            DirCache::open(&file),
            Err(CoreError::Cache { .. })
        ));
        assert!(matches!(DirCache::open(""), Err(CoreError::Cache { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records written by earlier releases as `<key>.json` are never
    /// read: the entry is a plain miss, and the re-executed cell is
    /// stored as `.bin`.
    #[test]
    fn dir_cache_treats_leftover_json_entries_as_misses() {
        let dir =
            std::env::temp_dir().join(format!("comptest-cache-json-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DirCache::open(&dir).unwrap();
        let json = dir.join(format!("{}.json", key(1)));
        std::fs::write(&json, "{\"version\": 1, \"total\": 1, \"tests\": []}").unwrap();
        let info = cache.lookup_io(&key(1));
        assert_eq!((info.lookup, info.bytes), (CacheLookup::Miss, 0));

        let record = CellRecord {
            total: 2,
            tests: vec![Ok(result("a")), Err("boom".into())],
            footprint: None,
        };
        cache.store(&key(1), &record);
        let path = cache.entry_path(&key(1));
        assert_eq!(path.extension().unwrap(), "bin");
        let info = cache.lookup_io(&key(1));
        assert_eq!(info.lookup, CacheLookup::Hit(record));
        assert!(info.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Many writers — separate `DirCache` instances, shared keys — may
    /// interleave freely: every key must stay loadable at every
    /// instant (atomic rename means readers see old or new, never torn)
    /// and no `.tmp` files may survive.
    #[test]
    fn dir_cache_concurrent_writers_never_lose_the_winning_record() {
        let dir =
            std::env::temp_dir().join(format!("comptest-cache-hammer-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = DirCache::open(&dir).unwrap();
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        const KEYS: u64 = 4;
        let record = CellRecord {
            total: 1,
            tests: vec![Ok(result("a"))],
            footprint: None,
        };
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let dir = &dir;
                let record = &record;
                scope.spawn(move || {
                    // Each thread its own instance — the temp-name counter
                    // must disambiguate across instances, not within one.
                    let cache = DirCache::open(dir).unwrap();
                    for round in 0..ROUNDS {
                        let k = key((t + round) as u64 % KEYS);
                        cache.store(&k, record);
                        // A concurrent reader must never observe a torn or
                        // vanished record.
                        assert_eq!(
                            cache.load(&k),
                            Some(record.clone()),
                            "store raced a concurrent writer into a miss"
                        );
                    }
                });
            }
        });
        let reader = DirCache::open(&dir).unwrap();
        for k in 0..KEYS {
            assert_eq!(reader.load(&key(k)), Some(record.clone()));
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(
                !name.starts_with(".tmp-"),
                "leftover temp file {name} survived the hammer"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
