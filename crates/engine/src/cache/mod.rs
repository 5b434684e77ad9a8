//! The content-addressed campaign cache: [`CampaignCache`], the in-memory
//! [`MemoryCache`], the on-disk [`DirCache`], and the per-run
//! `CacheRuntime` every executor consults.
//!
//! Regression campaigns re-run mostly unchanged suites on mostly unchanged
//! stands; compositional-testing results (Kanso & Chebaro; Daca &
//! Henzinger) justify skipping re-verification of a component whose
//! interface contract is unchanged. A cell's contract is captured by its
//! [`CellKey`] — stable structural hashes of the suite, of the stand and
//! DUT slices the cell touches, and of the execution options (see
//! [`comptest_core::hash`]) — and the cache maps that key to the cell's
//! full per-test outcomes.
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
//!   determines every test the job would run: one test for a test-granular
//!   job; the whole cell — complete, or ending in a planning error
//!   ([`CellRecord::is_determined`]) — for a cell-granular one.
//! * **Anything unreadable is a miss.** Corrupt, truncated or
//!   wrong-version entries decode to an error and the cell simply
//!   executes; only an unusable cache *directory* raises
//!   [`CoreError::Cache`], at configuration time.
//! * **Hits keep campaign semantics.** A hit is decided once, when the
//!   launch packages its jobs, and served at the same admission point
//!   where the job would have run: it emits [`EngineEvent::CellCached`]
//!   and a cached failure trips the `stop_on_first_fail` latch exactly
//!   like an executed one, so warm runs cancel the same deterministic
//!   suffix.
//! * **`cache_verify` audits instead of skipping.** Every job executes,
//!   executed outcomes are compared to cached ones, and
//!   [`CampaignHandle::join`](crate::CampaignHandle::join) raises
//!   [`CoreError::CacheMismatch`] when any diverged — the paper-style
//!   spot-check that the content addressing really covers every input.
//! * **One pass decides each cell's key and record.** Before any job is
//!   packaged, the launch walks its cells once, in cell order. Per cell it
//!   reads the plan memo, derives the key, takes or reads the record, and
//!   warns once ([`EngineEvent::CellCacheCorrupt`]) if the memo or the
//!   record is unreadable. Packaging then moves each hit's outcomes out of
//!   its launch's own copy of the record into the job. A hit therefore
//!   carries no tests: packaging builds no DUT devices and generates no
//!   scripts for it, and a fully warm run builds no devices for its jobs.
//!   What the store does after that pass cannot turn a hit into a miss.
//! * **Warm keys need no plans.** A footprint key needs each cell's
//!   resolved plans, which depend on the suite and the stand but not on
//!   the device. So every stored cell record is also aliased under the
//!   cell's [plan-memo key](comptest_core::hash::plan_memo_key)
//!   ([`CampaignCache::alias`]). The pass reads the record's footprint
//!   back through it, re-walks only the DUT slice ([`footprint_from_memo`])
//!   and, when that slice is unchanged, serves the very record it read:
//!   one read per warm cell, no codegen, no planning. A cell whose
//!   planning fails gets no memo. An absent, stale or corrupt memo only
//!   costs a re-plan and a read under the record key; a hit there
//!   re-aliases the memo. `cache_verify` still reads every memo and counts
//!   one whose plan side disagrees with fresh planning as a mismatch.
//!
//! # What invalidates the cache
//!
//! Each cell is keyed on its recorded dependency [`Footprint`]: the digest
//! of the cell's *resolved execution plans* (the exact stand slice the
//! planner allocated) and of the *DUT slice* its signals route through
//! (touched pin/CAN bindings refined by
//! [`Behavior::port_slice`](comptest_dut::Behavior::port_slice)). Edits
//! outside a cell's footprint — an unrelated stand resource, another ECU's
//! configuration block — leave its key, and its cached verdict, untouched.
//! Anything the footprint cannot prove untouched falls back to hashing the
//! whole device, so a footprint key is never less safe than a whole-device
//! digest, only more precise.
//!
//! A cell's plan memo trusts that codegen and planning did not change
//! since it was written. A change that moves a generated script or a
//! resolved plan (one that re-blesses `assets/golden/plan_digests.txt`)
//! therefore bumps
//! [`PLAN_MEMO_VERSION`](comptest_core::hash::PLAN_MEMO_VERSION), which
//! moves every memo key: old memos become misses, never wrong keys.
//!
//! Every key folds in the campaign's **cache salt**
//! ([`Campaign::cache_salt`](crate::Campaign::cache_salt), CLI
//! `--cache-salt`); bump it (e.g. on a firmware release) to invalidate
//! every record at once. Record keys and memo keys live in disjoint hash
//! domains, so one directory holds both without aliasing.
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
//! Each clean cell's record file also has a second name,
//! `<memo-key>.bin`: a hard link made by [`DirCache`]'s
//! [`alias`](CampaignCache::alias). A store replaces the record file with
//! a new one, so the engine re-links the memo name after every store; an
//! existing link is replaced by linking a `.tmp-*` name and renaming it
//! over. Records from releases without memos stay valid hits and gain
//! their link on the first warm run.
//!
//! Earlier releases could also write `<key>.json` records. Those files
//! are never read: a leftover `.json` entry is a plain miss, so its cell
//! re-executes and is rewritten as `.bin`.

pub mod binary;

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

use comptest_core::campaign::TestJobOutcome;
use comptest_core::error::CoreError;
use comptest_core::hash::{
    capture_footprint, footprint_from_memo, hash_exec_options, hash_stand, hash_suite,
    plan_memo_key, CellKey, Footprint, FootprintDevice,
};
use comptest_stand::ExecutionPlan;

use crate::campaign::{Campaign, Granularity};
use crate::events::{emit, EngineEvent};
use crate::executor::{EntryScripts, PlanSlot};
use crate::obs::{Counter, Phase, Recorder};

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
    /// The dependency footprint the cell was keyed under when stored;
    /// `None` for records encoded without one (remote result frames).
    /// Read back through the cell's plan memo, its plan side stands in for
    /// codegen and planning on the next launch, so it must be the
    /// footprint the record's key was derived from.
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

/// Whether two footprints of one cell agree on everything planning
/// decides: the plan digest and the touched signal, pin, frame and
/// resource sets.
fn same_plan_side(a: &Footprint, b: &Footprint) -> bool {
    a.plan_hash == b.plan_hash
        && a.signals == b.signals
        && a.pins == b.pins
        && a.frames == b.frames
        && a.resources == b.resources
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

    /// Makes `alias` resolve to the record stored under `key` — the
    /// engine keeps each cell's plan memo this way (see [`plan_memo_key`]).
    /// Best-effort like `store`: a missing alias only costs the next launch
    /// a re-plan.
    ///
    /// The default implementation copies the record (`load`, then
    /// `store`), so a decorator that does not forward `alias` stays
    /// correct. [`DirCache`] hard-links the record file instead and
    /// [`MemoryCache`] maps the alias to the key.
    fn alias(&self, key: &CellKey, alias: &CellKey) {
        if let Some(record) = self.load(key) {
            self.store(alias, &record);
        }
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
    cells: Mutex<MemoryCells>,
}

#[derive(Debug, Default)]
struct MemoryCells {
    records: HashMap<CellKey, CellRecord>,
    /// Alias key → the key whose record it resolves to.
    aliases: HashMap<CellKey, CellKey>,
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached cells. Aliases are not records and do not count.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("cache lock").records.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CampaignCache for MemoryCache {
    fn load(&self, key: &CellKey) -> Option<CellRecord> {
        let cells = self.cells.lock().expect("cache lock");
        let key = cells.aliases.get(key).unwrap_or(key);
        cells.records.get(key).cloned()
    }

    fn store(&self, key: &CellKey, record: &CellRecord) {
        let mut cells = self.cells.lock().expect("cache lock");
        cells.aliases.remove(key);
        cells.records.insert(*key, record.clone());
    }

    fn alias(&self, key: &CellKey, alias: &CellKey) {
        let mut cells = self.cells.lock().expect("cache lock");
        cells.records.remove(alias);
        cells.aliases.insert(*alias, *key);
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

    /// A fresh temp name in the directory, unique per writer: process id
    /// plus the process-wide counter (two instances on one directory must
    /// not collide).
    fn tmp_path(&self) -> PathBuf {
        self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
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
        let tmp = self.tmp_path();
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

    /// Hard-links the record file of `key` under `alias`'s name, so the
    /// alias costs one directory entry and reads as the record did at
    /// link time. An existing alias is replaced atomically: the link goes
    /// to a temp name first and is renamed over it.
    fn alias(&self, key: &CellKey, alias: &CellKey) {
        let (record, target) = (self.entry_path(key), self.entry_path(alias));
        match std::fs::hard_link(&record, &target) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let tmp = self.tmp_path();
                if std::fs::hard_link(&record, &tmp).is_ok() {
                    let _ = std::fs::rename(&tmp, &target);
                }
                // Renaming one link of a file over another link of the same
                // file succeeds and leaves both names, so always clean up.
                let _ = std::fs::remove_file(&tmp);
            }
            // Linked, or best-effort failure (no record, no permission, no
            // hard links on this file system): the next launch re-plans.
            _ => {}
        }
    }
}

/// Per-cell store accumulator: collects the outcomes of the cell's jobs
/// (cached and executed) until every job reported, then stores once.
struct Collector {
    outcomes: Vec<Option<TestJobOutcome>>,
    /// Jobs of the cell that have not reported yet — `0` from packaging
    /// on when every job of the cell hit.
    pending: usize,
    /// At least one outcome came from execution (a fully-warm cell is
    /// never re-stored — 10k identical writes would erase the warm win).
    executed: bool,
}

/// One cell of a cached launch, as [`CacheRuntime::resolve`] left it.
struct CacheCell {
    /// The record key: the cell's footprint, keyed.
    key: CellKey,
    /// The dependency footprint the key was derived from, attached to the
    /// stored record.
    footprint: Footprint,
    /// The plan-memo key, re-pointed at the cell's record after each store
    /// (`None` for a cell with a planning error).
    memo: Option<CellKey>,
    /// The pre-loaded record. Packaging takes the hits out of it; under
    /// `cache_verify` nothing is taken and [`CacheRuntime::finish`]
    /// compares against it.
    record: Option<CellRecord>,
    store: Mutex<Collector>,
}

/// The cache state of one launched campaign run, shared by every worker:
/// per cell its key, footprint, memo key, pre-loaded record and store
/// accumulator, plus the `cache_verify` mismatch count.
///
/// Keys and records are resolved once on the launch thread (one pass in
/// deterministic cell order), and packaging takes the hits out of the
/// records there too; workers only compare against records (under
/// `cache_verify`) and accumulate outcomes.
pub(crate) struct CacheRuntime {
    cache: Arc<dyn CampaignCache>,
    verify: bool,
    cells: Vec<CacheCell>,
    mismatches: AtomicUsize,
    /// Recorder for store-side accounting (`cache_bytes_written`) — reads
    /// are accounted once in [`CacheRuntime::resolve`], stores happen on
    /// workers throughout the run.
    obs: Recorder,
}

impl CacheRuntime {
    /// Resolves every cell's key and record in one pass, in cell order —
    /// the one place a launch decides which stored record serves a cell.
    /// For each cell it:
    ///
    /// 1. reads the cell's [plan memo](comptest_core::hash::plan_memo_key);
    /// 2. derives the footprint key: from the memo, with the DUT slice
    ///    walked again on the entry's one footprint device; or, on a memo
    ///    miss and always under `cache_verify` (which audits the memo
    ///    against fresh plans, counting a plan-side disagreement as a
    ///    mismatch), from the entry's `scripts` planned through the
    ///    launch's `slot`s, which the jobs then reuse;
    /// 3. takes the memo's record when its DUT slice still matches (never
    ///    under `cache_verify`), and otherwise reads the record key,
    ///    re-pointing the memo at the record on a hit;
    /// 4. when the memo or the record was unreadable, counts
    ///    `cache_corrupt_entries` and emits one
    ///    [`EngineEvent::CellCacheCorrupt`] — once per cell, though in a
    ///    [`DirCache`] a memo is a hard link to its record and rots with
    ///    it;
    /// 5. sizes the cell's store accumulator to its job count.
    ///
    /// A cell without a usable record counts as `cells_invalidated`.
    /// Reads are timed as `cache_preload`, key derivation (device builds
    /// and planning included) as `hash`; `scripts` times its own codegen.
    ///
    /// # Errors
    ///
    /// The first codegen error of an entry that had to be planned.
    pub(crate) fn resolve(
        cache: &Arc<dyn CampaignCache>,
        campaign: &Campaign<'_, '_>,
        scripts: &dyn Fn(usize) -> Result<EntryScripts, CoreError>,
        slot: &dyn Fn(usize, usize, usize) -> Arc<PlanSlot>,
        events: &Sender<EngineEvent>,
    ) -> Result<Self, CoreError> {
        let obs = &campaign.obs;
        let (salt, verify) = (campaign.cache_salt.as_str(), campaign.cache_verify);
        let (exec_hash, stand_hashes, suite_hashes) = obs.time_phase(Phase::Hash, || {
            let stands: Vec<u64> = campaign.stands.iter().map(|s| hash_stand(s)).collect();
            let suites: Vec<u64> = campaign
                .entries
                .iter()
                .map(|e| hash_suite(e.suite))
                .collect();
            (hash_exec_options(&campaign.exec), stands, suites)
        });
        let mut cells = Vec::with_capacity(campaign.entries.len() * campaign.stands.len());
        let (mut memo_hits, mut bytes_read, mut footprint_bytes) = (0u64, 0u64, 0u64);
        let mut mismatches = 0;
        for (e, entry) in campaign.entries.iter().enumerate() {
            let suite_hash = suite_hashes[e];
            // One device per entry, built when its first key is derived:
            // footprint capture only reads it, so every stand shares the
            // build and its whole-device digest.
            let built = OnceCell::new();
            let device =
                || built.get_or_init(|| FootprintDevice::new(entry.device_factory.build()));
            for (s, stand) in campaign.stands.iter().enumerate() {
                let memo_key = plan_memo_key(suite_hash, stand_hashes[s], salt, exec_hash);
                let read = obs.time_phase(Phase::CachePreload, || cache.lookup_io(&memo_key));
                bytes_read += read.bytes;
                let mut corrupt = matches!(read.lookup, CacheLookup::Corrupt);
                let memo = match read.lookup {
                    CacheLookup::Hit(record)
                        if record.footprint.as_ref().is_some_and(|fp| fp.salt == salt) =>
                    {
                        Some(record)
                    }
                    _ => None,
                };
                let memoised = memo.as_ref().and_then(|record| record.footprint.as_ref());
                let (footprint, clean) = match memoised.filter(|_| !verify) {
                    // A hit is a key taken from the memo: under
                    // `cache_verify` the memo is only audited.
                    Some(memoised) => {
                        memo_hits += 1;
                        (
                            obs.time_phase(Phase::Hash, || footprint_from_memo(memoised, device())),
                            true,
                        )
                    }
                    None => {
                        let scripts = scripts(e)?;
                        let (fp, clean) = obs.time_phase(Phase::Hash, || {
                            let plans: Vec<Result<Arc<ExecutionPlan>, String>> =
                                (0..entry.suite.tests.len())
                                    .map(|t| slot(e, t, s).resolve(&scripts[t], stand, obs))
                                    .collect();
                            let plan_refs: Vec<Result<&ExecutionPlan, &str>> = plans
                                .iter()
                                .map(|p| p.as_deref().map_err(String::as_str))
                                .collect();
                            let fp = capture_footprint(&plan_refs, device(), salt);
                            (fp, plans.iter().all(Result::is_ok))
                        });
                        if memoised.is_some_and(|memoised| !same_plan_side(memoised, &fp)) {
                            mismatches += 1;
                        }
                        (fp, clean)
                    }
                };
                let current = !verify
                    && memoised.is_some_and(|memoised| {
                        memoised.dut_slice_hash == footprint.dut_slice_hash
                    });
                // Encoding a footprint only to count its bytes is wasted
                // work when nobody records the count.
                if obs.is_enabled() {
                    footprint_bytes += binary::footprint_bytes(&footprint);
                }
                let memo_key = clean.then_some(memo_key);
                let key = footprint.key(suite_hash, exec_hash);
                let record = match memo.filter(|_| current) {
                    Some(record) => Some(record),
                    None => obs.time_phase(Phase::CachePreload, || {
                        let read = cache.lookup_io(&key);
                        bytes_read += read.bytes;
                        match read.lookup {
                            CacheLookup::Hit(record) => {
                                // The memo missed this record: re-point it.
                                if let Some(memo) = &memo_key {
                                    cache.alias(&key, memo);
                                }
                                Some(record)
                            }
                            CacheLookup::Miss => None,
                            CacheLookup::Corrupt => {
                                corrupt = true;
                                None
                            }
                        }
                    }),
                };
                if record.is_none() {
                    obs.inc(Counter::CellsInvalidated);
                }
                if corrupt {
                    obs.inc(Counter::CacheCorruptEntries);
                    emit(
                        events,
                        EngineEvent::CellCacheCorrupt {
                            cell: cells.len(),
                            suite: entry.suite.name.clone(),
                            stand: stand.name().to_owned(),
                        },
                    );
                }
                let tests = entry.suite.tests.len();
                cells.push(CacheCell {
                    key,
                    footprint,
                    memo: memo_key,
                    record,
                    store: Mutex::new(Collector {
                        outcomes: vec![None; tests],
                        pending: match campaign.granularity {
                            Granularity::Cell => 1,
                            Granularity::Test => tests,
                        },
                        executed: false,
                    }),
                });
            }
        }
        obs.add(Counter::PlanMemoHits, memo_hits);
        obs.add(Counter::PlanMemoMisses, cells.len() as u64 - memo_hits);
        obs.add(Counter::CacheBytesRead, bytes_read);
        obs.add(Counter::FootprintBytes, footprint_bytes);
        Ok(Self {
            cache: Arc::clone(cache),
            verify,
            cells,
            mismatches: AtomicUsize::new(mismatches),
            obs: obs.clone(),
        })
    }

    /// The hits of `cell`'s jobs, which run the suite tests `batches`
    /// (disjoint, in order) — the one place a launch decides a hit. A job
    /// hits when the cell's record determines every test it would run
    /// ([`job_range`]); its outcomes then move out of the record, so each
    /// serves exactly one job and nothing is cloned. `None` for a miss,
    /// and for every job under `cache_verify`, which leaves the records
    /// whole for [`CacheRuntime::finish`] to compare against.
    ///
    /// A cell whose every job hits is never re-stored, so its store
    /// accumulator is settled here and its hits clone nothing into it.
    /// Hits on a cell with jobs to execute feed the accumulator at
    /// admission, so the cell's record is completed.
    pub(crate) fn take_hits(
        &mut self,
        cell: usize,
        batches: &[Range<usize>],
    ) -> Vec<Option<Vec<TestJobOutcome>>> {
        let cell = &mut self.cells[cell];
        let record = if self.verify {
            None
        } else {
            cell.record.take()
        };
        let Some(record) = record else {
            return vec![None; batches.len()];
        };
        let mut slots: Vec<Option<TestJobOutcome>> = record.tests.into_iter().map(Some).collect();
        let hits: Vec<Option<Vec<TestJobOutcome>>> = batches
            .iter()
            .map(|tests| {
                let range = job_range(
                    slots.len(),
                    |t| matches!(slots[t], Some(Err(_))),
                    tests.clone(),
                )?;
                slots[range].iter_mut().map(Option::take).collect()
            })
            .collect();
        if hits.iter().all(Option::is_some) {
            cell.store.get_mut().expect("collector").pending = 0;
        }
        hits
    }

    /// Reports one *executed* job's outcomes (its tests from suite index
    /// `first` on): feeds the store accumulator and, in verify mode,
    /// counts a mismatch when the cached outcomes for the same tests
    /// differ.
    pub(crate) fn finish(&self, cell: usize, first: usize, outcomes: &[TestJobOutcome]) {
        if let Some(record) = self.cells[cell].record.as_ref().filter(|_| self.verify) {
            let cached = &record.tests;
            let tests = first..first + outcomes.len();
            if job_range(cached.len(), |t| cached[t].is_err(), tests)
                .is_some_and(|range| cached[range] != *outcomes)
            {
                self.mismatches.fetch_add(1, Ordering::Relaxed);
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

    /// Accumulates one job's outcomes — `executed`, or served from the
    /// cache at admission; once every job of the cell reported and at
    /// least one executed, stores the determined prefix — the outcomes up
    /// to the first test no job produced.
    pub(crate) fn note(
        &self,
        cell: usize,
        first: usize,
        outcomes: &[TestJobOutcome],
        executed: bool,
    ) {
        let cell = &self.cells[cell];
        let mut c = cell.store.lock().expect("collector");
        if c.pending == 0 {
            // Every job of the cell already reported, or every job hit.
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
            footprint: Some(cell.footprint.clone()),
        };
        let written = self.cache.store_io(&cell.key, &record);
        self.obs.add(Counter::CacheBytesWritten, written);
        if let Some(memo) = &cell.memo {
            self.cache.alias(&cell.key, memo);
        }
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
    fn partial_record_determines_cells_only_through_an_error() {
        // The tests a job running `tests` takes from `record`, if any.
        fn job(record: &CellRecord, tests: Range<usize>) -> Option<Range<usize>> {
            job_range(record.tests.len(), |t| record.tests[t].is_err(), tests)
        }
        let with_error = CellRecord {
            total: 3,
            tests: vec![Ok(result("a")), Err("boom".into())],
            footprint: None,
        };
        assert_eq!(job(&with_error, 0..3), Some(0..2));
        assert_eq!(with_error.test_outcome(0), Some(&Ok(result("a"))));
        assert!(with_error.test_outcome(2).is_none());
        assert!(with_error.is_determined() && !with_error.is_complete());

        let undetermined = CellRecord {
            total: 3,
            tests: vec![Ok(result("a")), Ok(result("b"))],
            footprint: None,
        };
        assert!(job(&undetermined, 0..3).is_none(), "missing tail");
        assert!(undetermined.test_outcome(1).is_some());
        assert_eq!(job(&undetermined, 1..2), Some(1..2), "per-test still hits");
        assert!(!undetermined.is_determined());

        let complete = CellRecord {
            total: 2,
            tests: vec![Ok(result("a")), Ok(result("b"))],
            footprint: None,
        };
        assert_eq!(job(&complete, 0..2), Some(0..2));
        assert_eq!(job(&complete, 1..2), Some(1..2));
        let empty = CellRecord {
            total: 0,
            tests: vec![],
            footprint: None,
        };
        assert_eq!(job(&empty, 0..0), Some(0..0), "an empty cell");
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
    fn memory_cache_aliases_resolve_and_do_not_count() {
        let cache = MemoryCache::new();
        let record = CellRecord {
            total: 1,
            tests: vec![Ok(result("a"))],
            footprint: None,
        };
        cache.store(&key(1), &record);
        cache.alias(&key(1), &key(2));
        cache.alias(&key(1), &key(3));
        assert_eq!(cache.len(), 1, "aliases are not records");
        assert_eq!(cache.load(&key(2)), Some(record.clone()));
        // An alias follows its key's latest record.
        let mut newer = record.clone();
        newer.total = 2;
        cache.store(&key(1), &newer);
        assert_eq!(cache.load(&key(3)), Some(newer));
        // An alias of nothing reads as a miss.
        cache.alias(&key(4), &key(5));
        assert_eq!(cache.lookup(&key(5)), CacheLookup::Miss);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn dir_cache_aliases_are_hard_links_replaced_atomically() {
        let dir = std::env::temp_dir().join(format!("comptest-cache-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DirCache::open(&dir).unwrap();
        let record = CellRecord {
            total: 1,
            tests: vec![Ok(result("a"))],
            footprint: None,
        };
        cache.store(&key(1), &record);
        cache.alias(&key(1), &key(2));
        assert_eq!(cache.load(&key(2)), Some(record.clone()));
        // The alias keeps the record it was linked to until re-aliased.
        let newer = CellRecord {
            total: 2,
            ..record.clone()
        };
        cache.store(&key(1), &newer);
        assert_eq!(cache.load(&key(2)), Some(record));
        cache.alias(&key(1), &key(2));
        assert_eq!(cache.load(&key(2)), Some(newer.clone()));
        // Re-aliasing to the same file, or aliasing a missing record,
        // changes nothing and leaves no temp file behind.
        cache.alias(&key(1), &key(2));
        cache.alias(&key(9), &key(2));
        assert_eq!(cache.load(&key(2)), Some(newer));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.iter().all(|n| !n.starts_with(".tmp-")), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
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
