//! The executor conformance suite: one shared contract battery that every
//! [`CampaignExecutor`] must pass, instantiated for Serial / Pooled /
//! Async × cache off / memory / dir.
//!
//! This replaces the ad-hoc per-executor duplication that used to live in
//! `engine_equivalence.rs` — the contract is written once, and adding an
//! executor (or a cache backend) means adding one subject row, not a new
//! copy of every test:
//!
//! * **determinism** — the joined `CampaignOutcome` is byte-identical to
//!   the `SerialExecutor` reference at both granularities, cold and warm
//!   (a warm cache run must merge the exact bytes a cold run produces,
//!   including per-test sim timing in JUnit/text reports);
//! * **cancellation** — a pre-cancelled token skips every job and
//!   accounts for all of them;
//! * **stop-on-first-fail** — width-1 subjects truncate to the serial
//!   prefix, and a *cached* failure trips the latch exactly like an
//!   executed one;
//! * **empty matrix** — rejected by validation before any executor runs;
//! * **JobsLost** — a worker dying mid-job surfaces as an error, never as
//!   a silently truncated (possibly all-green) result;
//! * **cache audit** — `cache_verify` passes on a truthful cache and
//!   raises `CacheMismatch` on a poisoned one, counting each planted
//!   mismatch once;
//! * **admission** — a warm test-granular run serves every (cell, test)
//!   outcome to exactly one job, launch after launch, and a hit on a
//!   partial record still completes and stores the cell's record;
//! * **observability** — enabling a `Recorder` changes no result or
//!   report byte; counters balance (`jobs_executed + jobs_cached +
//!   jobs_cancelled == jobs_planned`, `spans_opened == spans_closed`) on
//!   clean runs, under cancellation, under `stop_on_first_fail`, and on
//!   warm cache runs; corrupt cache entries surface as
//!   `CellCacheCorrupt` warnings and a nonzero `cache_corrupt_entries`
//!   counter instead of silent misses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use comptest::core::campaign::CampaignEntry;
use comptest::core::hash::FootprintKey;
use comptest::core::CoreError;
use comptest::dut::{Behavior, Device, PinBinding, PortValue};
use comptest::engine::{CacheKeying, CampaignCache, DirCache, MemoryCache};
use comptest::model::SimTime;
use comptest::prelude::*;

/// Both cache keying schemes, for batteries that must prove them
/// byte-equivalent.
const KEYINGS: [CacheKeying; 2] = [CacheKeying::Full, CacheKeying::Footprint];

// ---------------------------------------------------------------------------
// Subjects and cache setups
// ---------------------------------------------------------------------------

/// One executor under test.
struct Subject {
    name: &'static str,
    build: fn() -> Box<dyn CampaignExecutor>,
    /// Runs jobs off the launch thread and reports lost jobs instead of
    /// propagating worker panics (the serial executor runs inline, so a
    /// panicking job panics `launch` itself).
    catches_lost_jobs: bool,
    /// Processes jobs strictly in plan order, so stop-on-first-fail
    /// truncation is byte-deterministic against serial.
    serial_order: bool,
}

fn subjects() -> Vec<Subject> {
    vec![
        Subject {
            name: "serial",
            build: || Box::new(SerialExecutor),
            catches_lost_jobs: false,
            serial_order: true,
        },
        Subject {
            name: "pooled(1)",
            build: || Box::new(PooledExecutor::new(1)),
            catches_lost_jobs: true,
            serial_order: true,
        },
        Subject {
            name: "pooled(4)",
            build: || Box::new(PooledExecutor::new(4)),
            catches_lost_jobs: true,
            serial_order: false,
        },
        Subject {
            name: "async(1)",
            build: || Box::new(AsyncExecutor::new(1)),
            catches_lost_jobs: true,
            serial_order: true,
        },
        Subject {
            name: "async(256x2)",
            build: || Box::new(AsyncExecutor::new(256).sharded(2)),
            catches_lost_jobs: true,
            serial_order: false,
        },
        Subject {
            name: "remote(1)",
            build: || Box::new(remote_executor(1)),
            catches_lost_jobs: true,
            serial_order: true,
        },
        Subject {
            name: "remote(2)",
            build: || Box::new(remote_executor(2)),
            catches_lost_jobs: true,
            serial_order: false,
        },
    ]
}

/// A remote executor whose worker command is the real `comptest` binary —
/// `current_exe()` inside a test harness is the harness itself, which has
/// no `worker` subcommand.
fn remote_executor(workers: usize) -> RemoteExecutor {
    RemoteExecutor::new(workers).command(vec![
        env!("CARGO_BIN_EXE_comptest").to_string(),
        "worker".to_string(),
    ])
}

/// Cache backends the battery instantiates each subject against.
#[derive(Clone, Copy, PartialEq)]
enum CacheSetup {
    Off,
    Memory,
    Dir,
}

const CACHES: [CacheSetup; 3] = [CacheSetup::Off, CacheSetup::Memory, CacheSetup::Dir];

impl CacheSetup {
    fn label(self) -> &'static str {
        match self {
            CacheSetup::Off => "cache=off",
            CacheSetup::Memory => "cache=memory",
            CacheSetup::Dir => "cache=dir",
        }
    }

    /// A fresh cache instance (dir caches get a unique temp directory,
    /// removed by `TempDir`'s drop).
    fn build(self, scratch: &TempDir) -> Option<Arc<dyn CampaignCache>> {
        match self {
            CacheSetup::Off => None,
            CacheSetup::Memory => Some(Arc::new(MemoryCache::new())),
            CacheSetup::Dir => Some(Arc::new(
                DirCache::open(scratch.fresh_subdir()).expect("temp cache dir"),
            )),
        }
    }
}

/// Minimal scoped temp directory (no tempfile crate in the container).
struct TempDir {
    path: std::path::PathBuf,
    counter: AtomicUsize,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("comptest-conformance-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir");
        Self {
            path,
            counter: AtomicUsize::new(0),
        }
    }

    fn fresh_subdir(&self) -> std::path::PathBuf {
        self.path
            .join(format!("c{}", self.counter.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn load_suites() -> Vec<TestSuite> {
    comptest::load_bundled_suites().expect("bundled workbooks load")
}

fn entries(suites: &[TestSuite]) -> Vec<CampaignEntry<'_>> {
    comptest::bundled_entries(suites)
}

fn load_stand(name: &str) -> TestStand {
    TestStand::load(comptest::asset(name)).unwrap()
}

// ---------------------------------------------------------------------------
// Determinism: every subject × granularity × cache merges the serial bytes,
// cold and warm.
// ---------------------------------------------------------------------------

#[test]
fn conformance_determinism_vs_serial_cold_and_warm() {
    let scratch = TempDir::new("determinism");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        let reference = Campaign::new(&entries, &stands)
            .granularity(granularity)
            .launch(&SerialExecutor)
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(reference.result.cells.len(), 10);

        for subject in subjects() {
            for setup in CACHES {
                let mut campaign = Campaign::new(&entries, &stands).granularity(granularity);
                if let Some(cache) = setup.build(&scratch) {
                    campaign = campaign.cache(cache);
                }
                let executor = (subject.build)();
                // Cold run (populates the cache when one is configured).
                let cold = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                assert_eq!(
                    cold,
                    reference,
                    "{granularity}/{}/{} cold diverged",
                    subject.name,
                    setup.label()
                );
                if setup == CacheSetup::Off {
                    continue;
                }
                // Warm run: every job served from cache, still the exact
                // serial bytes, and only CellCached events on the stream.
                let mut handle = campaign.launch(executor.as_ref()).unwrap();
                let events: Vec<EngineEvent> = handle.events().collect();
                let warm = handle.join().unwrap();
                assert_eq!(
                    warm,
                    reference,
                    "{granularity}/{}/{} warm diverged",
                    subject.name,
                    setup.label()
                );
                let cached = events
                    .iter()
                    .filter(|e| matches!(e, EngineEvent::CellCached { .. }))
                    .count();
                let executed = events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            EngineEvent::TestStarted { .. } | EngineEvent::JobStarted { .. }
                        )
                    })
                    .count();
                assert!(
                    cached > 0 && executed == 0,
                    "{granularity}/{}/{} warm run must be all hits ({cached} cached, \
                     {executed} executed)",
                    subject.name,
                    setup.label()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache keying: footprint-keyed warm runs are byte-identical to full-keyed
// and to cold, on every executor × granularity × cache backend.
// ---------------------------------------------------------------------------

#[test]
fn conformance_footprint_and_full_keying_are_byte_identical() {
    let scratch = TempDir::new("keying");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        let reference = Campaign::new(&entries, &stands)
            .granularity(granularity)
            .run(&SerialExecutor)
            .unwrap();
        for subject in subjects() {
            for setup in [CacheSetup::Memory, CacheSetup::Dir] {
                for keying in KEYINGS {
                    let label =
                        format!("{granularity}/{}/{}/{keying}", subject.name, setup.label());
                    let obs = Recorder::enabled();
                    let campaign = Campaign::new(&entries, &stands)
                        .granularity(granularity)
                        .cache_keying(keying)
                        .cache(setup.build(&scratch).unwrap())
                        .recorder(obs.clone());
                    let executor = (subject.build)();
                    let cold = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                    assert_eq!(cold.result, reference, "{label}: cold diverged");
                    let warm = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                    assert_eq!(warm.result, reference, "{label}: warm diverged");

                    // One recorder across both runs: the cold run misses
                    // (and so invalidates) every cell, the warm run serves
                    // every job from the cache under either keying.
                    let metrics = obs.metrics().unwrap();
                    assert_eq!(
                        metrics.counter("jobs_cached"),
                        campaign.job_count() as u64,
                        "{label}: warm run must be all hits ({:?})",
                        metrics.counters
                    );
                    assert_eq!(
                        metrics.counter("cells_invalidated"),
                        (entries.len() * stands.len()) as u64,
                        "{label}: cold run must have invalidated every cell"
                    );
                    match keying {
                        CacheKeying::Footprint => {
                            assert_eq!(
                                metrics.counter("cache_hits_footprint"),
                                metrics.counter("cache_hits"),
                                "{label}: footprint keying must tag every hit"
                            );
                            assert!(
                                metrics.counter("footprint_bytes") > 0,
                                "{label}: footprints must be accounted"
                            );
                        }
                        CacheKeying::Full => assert_eq!(
                            metrics.counter("cache_hits_footprint"),
                            0,
                            "{label}: full keying must not count footprint hits"
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Record-format compatibility: version-1 binary records (written before the
// footprint section existed) remain valid hits — never errors.
// ---------------------------------------------------------------------------

#[test]
fn conformance_v1_binary_records_remain_valid_hits() {
    let scratch = TempDir::new("v1compat");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();

    // Populate under full keying: those records carry no footprint, so
    // their byte stream is exactly the v1 layout (v2 = v1 plus an optional
    // footprint section) — rewriting the version byte forges a faithful
    // pre-footprint store.
    let dir = scratch.fresh_subdir();
    let _ = Campaign::new(&entries, &stands)
        .cache_keying(CacheKeying::Full)
        .cache(Arc::new(DirCache::open(&dir).expect("cache dir")))
        .run(&SerialExecutor)
        .unwrap();
    let mut downgraded = 0usize;
    for entry in std::fs::read_dir(&dir).expect("cache dir listing") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("record bytes");
        assert_eq!(&bytes[..3], b"CCR");
        bytes[3] = 1; // version byte
        std::fs::write(&path, &bytes).expect("downgrade record");
        downgraded += 1;
    }
    assert_eq!(downgraded, entries.len(), "one binary record per cell");

    // A warm run over the v1 store: every job a hit, nothing corrupt,
    // byte-identical result.
    let obs = Recorder::enabled();
    let warm = Campaign::new(&entries, &stands)
        .cache_keying(CacheKeying::Full)
        .cache(Arc::new(DirCache::open(&dir).expect("cache dir")))
        .recorder(obs.clone())
        .run(&SerialExecutor)
        .unwrap();
    assert_eq!(warm, reference, "v1 records must serve identical bytes");
    let metrics = obs.metrics().unwrap();
    assert_eq!(
        metrics.counter("jobs_cached"),
        metrics.counter("jobs_planned"),
        "v1 store must serve every job ({:?})",
        metrics.counters
    );
    assert_eq!(
        metrics.counter("cache_corrupt_entries"),
        0,
        "v1 records are valid, not corrupt"
    );
}

/// A fully-cached run feeds the exact same bytes into reports as a cold
/// one — per-test simulated timing included (the cached record carries the
/// full step results rather than zeroing them).
#[test]
fn conformance_warm_reports_keep_sim_timing() {
    let scratch = TempDir::new("timing");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    let cold = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .run(&SerialExecutor)
        .unwrap();
    let cold_junit = comptest::report::campaign_junit_xml(&cold);
    assert!(
        cold_junit.contains("time=\"3."),
        "fixture should have nonzero per-suite sim timing:\n{cold_junit}"
    );

    for setup in [CacheSetup::Memory, CacheSetup::Dir] {
        let campaign = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .cache(setup.build(&scratch).unwrap());
        let _ = campaign.run(&SerialExecutor).unwrap(); // populate
        let warm = campaign.run(&AsyncExecutor::new(64)).unwrap();
        assert_eq!(
            comptest::report::campaign_junit_xml(&warm),
            cold_junit,
            "{}: warm JUnit must carry identical sim timing",
            setup.label()
        );
        assert_eq!(
            comptest::report::campaign_table(&warm).to_string(),
            comptest::report::campaign_table(&cold).to_string(),
            "{}: warm text table must match",
            setup.label()
        );
    }
}

// ---------------------------------------------------------------------------
// Cancellation: a pre-cancelled token skips everything, accountably.
// ---------------------------------------------------------------------------

#[test]
fn conformance_precancelled_token_skips_every_job() {
    let scratch = TempDir::new("cancel");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            for setup in CACHES {
                let token = CancelToken::new();
                let mut campaign = Campaign::new(&entries, &stands)
                    .granularity(granularity)
                    .cancel_token(token.clone());
                if let Some(cache) = setup.build(&scratch) {
                    campaign = campaign.cache(cache);
                }
                token.cancel();
                let executor = (subject.build)();
                let outcome = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                assert_eq!(
                    (outcome.result.cells.len(), outcome.cancelled),
                    (0, campaign.job_count()),
                    "{granularity}/{}/{}: every job skipped and accounted",
                    subject.name,
                    setup.label()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// stop_on_first_fail: serial-order subjects truncate byte-identically, and
// cached failures trip the latch exactly like executed ones.
// ---------------------------------------------------------------------------

#[test]
fn conformance_stop_on_first_fail_truncates_like_serial() {
    let scratch = TempDir::new("stopfail");
    let suites = load_suites();
    let entries = entries(&suites);
    let mini = load_stand("stand_minimal.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&mini, &stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        let reference = Campaign::new(&entries, &stands)
            .granularity(granularity)
            .stop_on_first_fail(true)
            .launch(&SerialExecutor)
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(reference.result.cells.len(), 1, "{}", reference.result);
        assert!(!reference.result.all_green());
        assert!(reference.cancelled > 0);

        for subject in subjects().into_iter().filter(|s| s.serial_order) {
            for setup in CACHES {
                for keying in KEYINGS {
                    // Keying is irrelevant without a cache — one arm suffices.
                    if setup == CacheSetup::Off && keying == CacheKeying::Full {
                        continue;
                    }
                    let mut campaign = Campaign::new(&entries, &stands)
                        .granularity(granularity)
                        .stop_on_first_fail(true)
                        .cache_keying(keying);
                    if let Some(cache) = setup.build(&scratch) {
                        campaign = campaign.cache(cache);
                    }
                    let executor = (subject.build)();
                    let cold = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                    assert_eq!(
                        cold,
                        reference,
                        "{granularity}/{}/{}/{keying} cold truncation diverged",
                        subject.name,
                        setup.label()
                    );
                    if setup == CacheSetup::Off {
                        continue;
                    }
                    // Warm: the first cell's failure is served from cache and
                    // must trip the latch deterministically — same prefix,
                    // same cancelled count — under either keying.
                    let warm = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                    assert_eq!(
                        warm,
                        reference,
                        "{granularity}/{}/{}/{keying}: cached failure must trip the latch \
                         like an executed one",
                        subject.name,
                        setup.label()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Empty matrix: validation rejects before any executor sees the campaign.
// ---------------------------------------------------------------------------

#[test]
fn conformance_empty_matrix_is_rejected_by_every_subject() {
    let suites = load_suites();
    let entries_vec = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    for subject in subjects() {
        let executor = (subject.build)();
        let no_entries = Campaign::new(&[], &stands)
            .launch(executor.as_ref())
            .unwrap_err();
        assert!(
            matches!(no_entries, CoreError::InvalidCampaign(_)),
            "{}: empty entries must be InvalidCampaign, got {no_entries:?}",
            subject.name
        );
        let no_stands = Campaign::new(&entries_vec, &[])
            .launch(executor.as_ref())
            .unwrap_err();
        assert!(
            matches!(no_stands, CoreError::InvalidCampaign(_)),
            "{}: empty stands must be InvalidCampaign, got {no_stands:?}",
            subject.name
        );
    }
}

// ---------------------------------------------------------------------------
// JobsLost: a worker dying mid-job is an error, never a truncated result.
// ---------------------------------------------------------------------------

/// A behaviour that panics as soon as simulation time advances — the DUT
/// model blowing up mid-execution, after the job was admitted.
#[derive(Debug)]
struct ExplodingBehavior;

impl Behavior for ExplodingBehavior {
    fn name(&self) -> &str {
        "exploding"
    }
    fn inputs(&self) -> &[&'static str] {
        &["sw"]
    }
    fn outputs(&self) -> &[&'static str] {
        &["out"]
    }
    fn reset(&mut self, _now: SimTime) {}
    fn set_input(&mut self, _port: &str, _value: PortValue, _now: SimTime) {}
    fn advance(&mut self, now: SimTime) {
        assert!(now.is_zero(), "DUT model bug: boom at {now}");
    }
    fn next_event(&self) -> Option<SimTime> {
        None
    }
    fn output(&self, _port: &str) -> PortValue {
        PortValue::Bool(false)
    }
}

/// A one-test suite whose DUT panics mid-run.
fn exploding_fixture() -> (TestSuite, TestStand) {
    let wb = "\
[suite]
name = exploding

[signals]
name, kind,       direction, init
SW,   pin:DS_FL,  input,     Open

[status]
status, method, attribut, var, nom, min, max
Open,   put_r,  r,        ,    0,   0,   2

[test boom]
step, dt,  SW
0,    0.5, Open
";
    let suite = Workbook::parse_str("exploding.cts", wb).unwrap().suite;
    let stand = TestStand::parse_str("a.stand", comptest::core::PAPER_STAND_A).unwrap();
    (suite, stand)
}

fn exploding_entries(suite: &TestSuite) -> Vec<CampaignEntry<'_>> {
    vec![CampaignEntry {
        suite,
        device_factory: Box::new(|| {
            Device::builder(Box::new(ExplodingBehavior))
                .pin("DS_FL", PinBinding::InputActiveLow { port: "sw" })
                .build()
        }),
    }]
}

#[test]
fn conformance_dead_workers_surface_as_jobs_lost() {
    let (suite, stand) = exploding_fixture();
    let entries = exploding_entries(&suite);
    let stands = [&stand];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            let campaign = Campaign::new(&entries, &stands).granularity(granularity);
            let executor = (subject.build)();
            if subject.catches_lost_jobs {
                let err = campaign
                    .launch(executor.as_ref())
                    .unwrap()
                    .join()
                    .unwrap_err();
                assert!(
                    matches!(err, CoreError::JobsLost { lost, .. } if lost > 0),
                    "{granularity}/{}: expected JobsLost, got {err:?}",
                    subject.name
                );
            } else {
                // The serial executor runs jobs on the launch thread: the
                // DUT panic propagates to the caller instead of vanishing.
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = campaign.launch(executor.as_ref());
                }));
                assert!(
                    panicked.is_err(),
                    "{granularity}/{}: inline execution must propagate the panic",
                    subject.name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache audit mode: truthful caches verify clean, poisoned caches error.
// ---------------------------------------------------------------------------

#[test]
fn conformance_cache_verify_passes_on_truth_and_catches_poison() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();

    for granularity in [Granularity::Cell, Granularity::Test] {
        for keying in KEYINGS {
            let cache = Arc::new(MemoryCache::new());
            let campaign = Campaign::new(&entries, &stands)
                .granularity(granularity)
                .cache_keying(keying)
                .cache(cache.clone());
            let _ = campaign.run(&SerialExecutor).unwrap(); // populate

            // Truthful cache: verify re-executes everything and joins clean.
            let verify = Campaign::new(&entries, &stands)
                .granularity(granularity)
                .cache_keying(keying)
                .cache(cache.clone())
                .cache_verify(true);
            for subject in subjects() {
                let executor = (subject.build)();
                let outcome = verify.launch(executor.as_ref()).unwrap().join().unwrap();
                assert_eq!(
                    outcome.result, reference,
                    "{granularity}/{}/{keying}: verify mode must produce the cold result",
                    subject.name
                );
            }

            // Poison one record: flip the first cached test outcome into a
            // planning error. Verify mode must now fail the join. (Each
            // verify run re-stores the executed truth — the cache
            // self-heals — so the poison is re-applied before every
            // subject.) The record address depends on the keying scheme.
            let key = match keying {
                CacheKeying::Full => comptest::core::CellKey::for_cell(
                    &entries[0],
                    &stand_b,
                    &ExecOptions::default(),
                ),
                CacheKeying::Footprint => {
                    FootprintKey::for_cell(&entries[0], &stand_b, &ExecOptions::default(), "")
                        .cell_key()
                }
            };
            let truth = cache.load(&key).expect("populated record");
            for subject in subjects() {
                let mut record = truth.clone();
                record.tests[0] = Err("poisoned cache entry".into());
                cache.store(&key, &record);
                let executor = (subject.build)();
                let err = verify
                    .launch(executor.as_ref())
                    .unwrap()
                    .join()
                    .unwrap_err();
                assert!(
                    matches!(err, CoreError::CacheMismatch { mismatches } if mismatches > 0),
                    "{granularity}/{}/{keying}: expected CacheMismatch, got {err:?}",
                    subject.name
                );
            }
            // Verify mode re-executed and re-stored the truth: the cache
            // has self-healed, and a fresh audit passes again.
            let healed = verify.launch(&SerialExecutor).unwrap().join().unwrap();
            assert_eq!(healed.result, reference);
        }
    }
}

// ---------------------------------------------------------------------------
// Observability: recording is invisible in results and reports, and the
// counters balance under every termination mode.
// ---------------------------------------------------------------------------

/// Asserts the counter and span invariants every joined campaign keeps:
/// every planned job is executed, served from cache, or cancelled — and
/// every span opened was closed.
fn assert_obs_invariants(metrics: &comptest::engine::MetricsSnapshot, label: &str) {
    assert_eq!(
        metrics.counter("jobs_executed")
            + metrics.counter("jobs_cached")
            + metrics.counter("jobs_cancelled"),
        metrics.counter("jobs_planned"),
        "{label}: job accounting must balance ({:?})",
        metrics.counters
    );
    assert_eq!(
        metrics.counter("spans_opened"),
        metrics.counter("spans_closed"),
        "{label}: every span opened must close ({:?})",
        metrics.counters
    );
}

#[test]
fn conformance_observed_runs_are_byte_identical_and_balanced() {
    let scratch = TempDir::new("obs");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            for setup in CACHES {
                let executor = (subject.build)();
                let label = format!("{granularity}/{}/{}", subject.name, setup.label());

                let mut plain = Campaign::new(&entries, &stands).granularity(granularity);
                let mut observed = Campaign::new(&entries, &stands).granularity(granularity);
                if let Some(cache) = setup.build(&scratch) {
                    // One shared cache per pairing, so the observed run
                    // sees the same hit/miss pattern as the plain one.
                    plain = plain.cache(cache.clone());
                    observed = observed.cache(cache);
                }
                let obs = Recorder::enabled();
                let observed = observed.recorder(obs.clone());

                // Cold pair: same bytes in the outcome and in every report.
                let cold_plain = plain.launch(executor.as_ref()).unwrap().join().unwrap();
                let obs_cold = Recorder::enabled();
                let cold_observed = Campaign::new(&entries, &stands)
                    .granularity(granularity)
                    .recorder(obs_cold.clone())
                    .launch(executor.as_ref())
                    .unwrap()
                    .join()
                    .unwrap();
                assert_eq!(cold_observed, cold_plain, "{label}: cold outcome diverged");
                assert_eq!(
                    comptest::report::campaign_junit_xml(&cold_observed.result),
                    comptest::report::campaign_junit_xml(&cold_plain.result),
                    "{label}: cold JUnit diverged"
                );
                assert_eq!(
                    comptest::report::campaign_table(&cold_observed.result).to_string(),
                    comptest::report::campaign_table(&cold_plain.result).to_string(),
                    "{label}: cold text table diverged"
                );
                let cold_metrics = obs_cold.metrics().unwrap();
                assert_obs_invariants(&cold_metrics, &label);
                assert_eq!(
                    cold_metrics.counter("jobs_planned"),
                    plain.job_count() as u64,
                    "{label}"
                );
                assert!(cold_metrics.counter("spans_opened") > 0, "{label}");
                assert!(cold_metrics.counter("steps_executed") > 0, "{label}");

                // Warm run on the observed campaign (its first launch, so a
                // cache means everything comes out of it — the plain run
                // populated it).
                let warm = observed.launch(executor.as_ref()).unwrap().join().unwrap();
                assert_eq!(warm, cold_plain, "{label}: warm outcome diverged");
                let metrics = obs.metrics().unwrap();
                assert_obs_invariants(&metrics, &label);
                if setup != CacheSetup::Off {
                    assert_eq!(
                        metrics.counter("jobs_cached"),
                        metrics.counter("jobs_planned"),
                        "{label}: warm run must be all cache hits ({:?})",
                        metrics.counters
                    );
                    assert!(metrics.counter("cache_hits") > 0, "{label}");
                    assert_eq!(metrics.counter("cache_corrupt_entries"), 0, "{label}");
                }
            }
        }
    }
}

#[test]
fn conformance_obs_counters_balance_under_cancellation() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            let label = format!("{granularity}/{}", subject.name);
            let token = CancelToken::new();
            let obs = Recorder::enabled();
            let campaign = Campaign::new(&entries, &stands)
                .granularity(granularity)
                .cancel_token(token.clone())
                .recorder(obs.clone());
            token.cancel();
            let executor = (subject.build)();
            let outcome = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
            let metrics = obs.metrics().unwrap();
            assert_obs_invariants(&metrics, &label);
            assert_eq!(
                metrics.counter("jobs_cancelled"),
                outcome.cancelled as u64,
                "{label}"
            );
            assert_eq!(
                metrics.counter("jobs_cancelled"),
                campaign.job_count() as u64,
                "{label}: a pre-cancelled token cancels every job"
            );
        }
    }
}

#[test]
fn conformance_obs_counters_balance_under_stop_on_first_fail() {
    let suites = load_suites();
    let entries = entries(&suites);
    let mini = load_stand("stand_minimal.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&mini, &stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            let label = format!("{granularity}/{}", subject.name);
            let obs = Recorder::enabled();
            let campaign = Campaign::new(&entries, &stands)
                .granularity(granularity)
                .stop_on_first_fail(true)
                .recorder(obs.clone());
            let executor = (subject.build)();
            let outcome = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
            if subject.serial_order {
                // Wide subjects may admit every job before the latch trips;
                // only in-order ones are guaranteed a truncation.
                assert!(outcome.cancelled > 0, "{label}: fixture must truncate");
            }
            let metrics = obs.metrics().unwrap();
            assert_obs_invariants(&metrics, &label);
            assert_eq!(
                metrics.counter("jobs_cancelled"),
                outcome.cancelled as u64,
                "{label}"
            );
        }
    }
}

/// Counts the async-begin events of one span category in a Chrome trace.
fn span_begins(trace: &str, cat: &str) -> usize {
    let trace = comptest::engine::codec::parse(trace).expect("trace is valid JSON");
    trace
        .as_array()
        .expect("trace is an event array")
        .iter()
        .filter(|event| {
            event.field("ph").and_then(|ph| ph.as_str()).ok() == Some("b")
                && event.field("cat").and_then(|c| c.as_str()).ok() == Some(cat)
        })
        .count()
}

/// Every executor records one test span and one wall timing per executed
/// test at either granularity — including the async executor at cell
/// granularity, where a cell's tests interleave step by step with other
/// cells'.
#[test]
fn conformance_every_executed_test_gets_a_span_and_a_timing() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            let label = format!("{granularity}/{}", subject.name);
            let obs = Recorder::enabled();
            Campaign::new(&entries, &stands)
                .granularity(granularity)
                .recorder(obs.clone())
                .launch((subject.build)().as_ref())
                .unwrap()
                .join()
                .unwrap();
            let metrics = obs.metrics().unwrap();
            let tests = metrics.counter("tests_executed");
            assert!(tests > 0, "{label}");
            let trace = obs.chrome_trace_json().unwrap();
            assert_eq!(
                span_begins(&trace, "test") as u64,
                tests,
                "{label}: one test span per executed test"
            );
            assert_eq!(
                metrics.histograms["test_wall_micros"].count, tests,
                "{label}: one wall timing per executed test"
            );
            if granularity == Granularity::Cell {
                assert_eq!(
                    span_begins(&trace, "cell") as u64,
                    metrics.counter("jobs_executed"),
                    "{label}: one cell span per executed cell"
                );
            }
        }
    }
}

/// Overwrites every cache record in `dir` with an undecodable body —
/// present but corrupt, not missing — and returns how many files were
/// hit. The garbage keeps a valid magic/version and truncates mid-varint.
fn clobber_records(dir: &std::path::Path) -> usize {
    let mut clobbered = 0usize;
    for entry in std::fs::read_dir(dir).expect("cache dir listing") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        std::fs::write(&path, b"CCR\x01\x00\xff\xff\xff").expect("clobber record");
        clobbered += 1;
    }
    clobbered
}

#[test]
fn conformance_corrupt_cache_entries_warn_count_and_reexecute() {
    let scratch = TempDir::new("corrupt");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();

    let cache_dir = scratch.fresh_subdir();
    let campaign = Campaign::new(&entries, &stands)
        .cache(Arc::new(DirCache::open(&cache_dir).expect("cache dir")));
    let _ = campaign.run(&SerialExecutor).unwrap(); // populate

    // Corrupt every record on disk: undecodable, not missing.
    let clobbered = clobber_records(&cache_dir);
    assert!(clobbered > 0, "populate run must have written records");

    for subject in subjects() {
        let obs = Recorder::enabled();
        let warm = Campaign::new(&entries, &stands)
            .cache(Arc::new(DirCache::open(&cache_dir).expect("cache dir")))
            .recorder(obs.clone());
        let mut handle = warm.launch((subject.build)().as_ref()).unwrap();
        let events: Vec<EngineEvent> = handle.events().collect();
        let outcome = handle.join().unwrap();
        // Corruption must not poison the result — every cell re-executes.
        assert_eq!(
            outcome.result, reference,
            "{}: corrupt entries must fall back to execution",
            subject.name
        );
        let warnings = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::CellCacheCorrupt { .. }))
            .count();
        assert_eq!(
            warnings, clobbered,
            "{}: one warning per corrupt record",
            subject.name
        );
        let metrics = obs.metrics().unwrap();
        assert_eq!(
            metrics.counter("cache_corrupt_entries"),
            clobbered as u64,
            "{}",
            subject.name
        );
        assert_obs_invariants(&metrics, subject.name);
        // The re-executed outcomes overwrite the clobbered records, so the
        // cache self-heals; restore the corruption for the next subject.
        assert_eq!(
            clobber_records(&cache_dir),
            clobbered,
            "{}: self-heal must have re-written every record",
            subject.name
        );
    }
}

// ---------------------------------------------------------------------------
// Cross-executor cache interchange: a record written by one executor at one
// granularity serves every other executor at the other granularity.
// ---------------------------------------------------------------------------

#[test]
fn conformance_cache_records_are_executor_and_granularity_agnostic() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stands = [&stand_a];
    let cell_ref = Campaign::new(&entries, &stands)
        .granularity(Granularity::Cell)
        .run(&SerialExecutor)
        .unwrap();
    let test_ref = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .run(&SerialExecutor)
        .unwrap();

    // Populate at *test* granularity on the async executor...
    let cache = Arc::new(MemoryCache::new());
    let populate = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .cache(cache.clone());
    let _ = populate.run(&AsyncExecutor::new(128)).unwrap();

    // ...and consume at *cell* granularity on the pooled executor (and the
    // reverse pairing), byte-identical to the cold references.
    let consume_cells = Campaign::new(&entries, &stands)
        .granularity(Granularity::Cell)
        .cache(cache.clone());
    assert_eq!(
        consume_cells.run(&PooledExecutor::new(4)).unwrap(),
        cell_ref,
        "test-granular records must serve cell-granular runs"
    );
    let consume_tests = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .cache(cache);
    assert_eq!(
        consume_tests.run(&PooledExecutor::new(4)).unwrap(),
        test_ref,
        "and cell-granular consumption must not have disturbed them"
    );
}

// ---------------------------------------------------------------------------
// Lazy device construction: a predicted cache hit never builds a DUT device.
// ---------------------------------------------------------------------------

/// The bundled entries with a device factory that counts invocations —
/// the probe proving warm runs skip device construction entirely.
fn counting_entries<'a>(
    suites: &'a [TestSuite],
    built: &Arc<AtomicUsize>,
) -> Vec<CampaignEntry<'a>> {
    suites
        .iter()
        .zip(comptest::dut::ecus::NAMES)
        .map(|(suite, ecu)| {
            let built = Arc::clone(built);
            CampaignEntry {
                suite,
                device_factory: Box::new(move || {
                    built.fetch_add(1, Ordering::Relaxed);
                    comptest::dut::ecus::device_by_name(ecu, Default::default())
                        .expect("bundled ECU")
                }),
            }
        })
        .collect()
}

#[test]
fn conformance_cache_hits_build_no_devices() {
    let scratch = TempDir::new("nodevice");
    let suites = load_suites();
    let built = Arc::new(AtomicUsize::new(0));
    let entries = counting_entries(&suites, &built);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];

    for granularity in [Granularity::Cell, Granularity::Test] {
        for subject in subjects() {
            for setup in [CacheSetup::Memory, CacheSetup::Dir] {
                let label = format!("{granularity}/{}/{}", subject.name, setup.label());
                let campaign = Campaign::new(&entries, &stands)
                    .granularity(granularity)
                    .cache(setup.build(&scratch).unwrap());
                let executor = (subject.build)();

                built.store(0, Ordering::Relaxed);
                let cold = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                assert!(
                    built.load(Ordering::Relaxed) > 0,
                    "{label}: cold run must build devices"
                );

                built.store(0, Ordering::Relaxed);
                let warm = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
                assert_eq!(warm, cold, "{label}: warm run diverged");
                assert_eq!(
                    built.load(Ordering::Relaxed),
                    0,
                    "{label}: cache hits must build zero devices"
                );
            }
        }
    }

    // Audit mode re-executes everything, so it must build devices again —
    // lazy construction never starves cache_verify.
    let campaign = Campaign::new(&entries, &stands)
        .cache(Arc::new(MemoryCache::new()))
        .cache_verify(true);
    built.store(0, Ordering::Relaxed);
    let _ = campaign.run(&SerialExecutor).unwrap();
    let cold_builds = built.load(Ordering::Relaxed);
    // The first launch also builds one device per entry for key hashing;
    // that hash is memoized per campaign value, so the warm audit run
    // builds exactly the execution devices.
    assert!(
        cold_builds > entries.len(),
        "verify cold run builds devices"
    );
    built.store(0, Ordering::Relaxed);
    let _ = campaign.run(&SerialExecutor).unwrap();
    assert_eq!(
        built.load(Ordering::Relaxed),
        cold_builds - entries.len(),
        "cache_verify re-executes, so warm audit runs still build every device"
    );
}

// ---------------------------------------------------------------------------
// Admission: a hit moves each cached outcome into the one job it serves.
// ---------------------------------------------------------------------------

/// The footprint-keyed address (the default keying) of one bundled cell.
fn default_key(entry: &CampaignEntry<'_>, stand: &TestStand) -> comptest::core::CellKey {
    FootprintKey::for_cell(entry, stand, &ExecOptions::default(), "").cell_key()
}

#[test]
fn conformance_test_granular_hits_serve_each_job_its_own_outcome() {
    let scratch = TempDir::new("admission");
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let reference = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .launch(&SerialExecutor)
        .unwrap()
        .join()
        .unwrap();
    let tests_per_cell: Vec<usize> = entries
        .iter()
        .flat_map(|e| stands.iter().map(move |_| e.suite.tests.len()))
        .collect();

    for subject in subjects() {
        for setup in [CacheSetup::Memory, CacheSetup::Dir] {
            let label = format!("{}/{}", subject.name, setup.label());
            let campaign = Campaign::new(&entries, &stands)
                .granularity(Granularity::Test)
                .cache(setup.build(&scratch).unwrap());
            let executor = (subject.build)();
            let _ = campaign.launch(executor.as_ref()).unwrap().join().unwrap();
            // Two warm launches of the same campaign value: a launch moves
            // outcomes out of its own pre-loaded copy, never out of the
            // store, so the second is served in full as well.
            for round in 0..2 {
                let mut handle = campaign.launch(executor.as_ref()).unwrap();
                let mut served: Vec<(usize, usize)> = handle
                    .events()
                    .filter_map(|e| match e {
                        EngineEvent::CellCached {
                            cell,
                            test: Some(test),
                            ..
                        } => Some((cell, test)),
                        _ => None,
                    })
                    .collect();
                let warm = handle.join().unwrap();
                assert_eq!(warm, reference, "{label}: warm round {round} diverged");
                served.sort_unstable();
                let expected: Vec<(usize, usize)> = tests_per_cell
                    .iter()
                    .enumerate()
                    .flat_map(|(cell, &n)| (0..n).map(move |test| (cell, test)))
                    .collect();
                assert_eq!(
                    served, expected,
                    "{label}: round {round} must serve every (cell, test) exactly once"
                );
            }
        }
    }
}

#[test]
fn conformance_cache_verify_counts_one_planted_mismatch_on_a_warm_store() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let cache = Arc::new(MemoryCache::new());
    let campaign = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .cache(cache.clone());
    let _ = campaign.run(&SerialExecutor).unwrap();

    // Plant one wrong outcome: the last test of the first cell reports a
    // different stand name than the one it ran on.
    let key = default_key(&entries[0], &stand_b);
    let mut record = cache.load(&key).expect("populated record");
    let last = record.tests.last_mut().expect("a cached test");
    last.as_mut().expect("the planted test executed").stand = "ELSEWHERE".into();
    cache.store(&key, &record);

    let verify = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .cache(cache.clone())
        .cache_verify(true);
    for subject in subjects() {
        cache.store(&key, &record);
        let executor = (subject.build)();
        let err = verify
            .launch(executor.as_ref())
            .unwrap()
            .join()
            .unwrap_err();
        assert!(
            matches!(err, CoreError::CacheMismatch { mismatches: 1 }),
            "{}: expected exactly one mismatch, got {err:?}",
            subject.name
        );
    }
}

#[test]
fn conformance_partial_record_completes_and_is_stored() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let reference = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .launch(&SerialExecutor)
        .unwrap()
        .join()
        .unwrap();
    let truth = Arc::new(MemoryCache::new());
    let _ = Campaign::new(&entries, &stands)
        .cache(truth.clone())
        .run(&SerialExecutor)
        .unwrap();
    let key = default_key(&entries[0], &stand_b);
    let full = truth.load(&key).expect("populated record");
    assert!(full.total > 1 && full.is_complete() && full.tests.iter().all(Result::is_ok));

    for subject in subjects() {
        // Only the first test of the first cell is cached: that job hits
        // a partial record, the rest of the cell executes, and the cell's
        // record is stored complete.
        let cache = Arc::new(MemoryCache::new());
        let mut partial = full.clone();
        partial.tests.truncate(1);
        cache.store(&key, &partial);
        let campaign = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .cache(cache.clone());
        let executor = (subject.build)();
        let mut handle = campaign.launch(executor.as_ref()).unwrap();
        let cached: Vec<(usize, Option<usize>)> = handle
            .events()
            .filter_map(|e| match e {
                EngineEvent::CellCached { cell, test, .. } => Some((cell, test)),
                _ => None,
            })
            .collect();
        let outcome = handle.join().unwrap();
        assert_eq!(
            outcome, reference,
            "{}: partial-hit run diverged",
            subject.name
        );
        assert_eq!(
            cached,
            [(0, Some(0))],
            "{}: only the cached test hits",
            subject.name
        );
        assert_eq!(
            cache.load(&key).as_ref(),
            Some(&full),
            "{}: the completed record is stored",
            subject.name
        );
    }
}
