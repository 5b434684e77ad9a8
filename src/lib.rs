//! `comptest` — test-stand-independent component testing.
//!
//! A complete, laptop-scale reproduction of Horst Brinkmeyer's *A New
//! Approach to Component Testing* (DATE 2005): define component tests once
//! in plain-text sheets, generate portable XML test scripts, and run them on
//! any (simulated) test stand that can allocate appropriate resources —
//! against simulated automotive ECUs.
//!
//! This crate is a façade: it re-exports the subsystem crates and adds the
//! small amount of glue (asset paths, DUT-per-stand construction) that
//! examples, integration tests and benches share.
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`model`] | `comptest-model` | signals, statuses, methods, expressions |
//! | [`sheets`] | `comptest-sheets` | `.cts` workbook parsing |
//! | [`script`] | `comptest-script` | XML test scripts + codegen |
//! | [`stand`] | `comptest-stand` | resources, matrix, allocation, planning |
//! | [`dut`] | `comptest-dut` | electrical model, CAN, ECUs, faults |
//! | [`core`] | `comptest-core` | execution, campaign planning/merge, fault coverage |
//! | [`engine`] | `comptest-engine` | `Campaign` builder, pluggable executors (serial / pooled / async event loop / remote multi-process), cancellable handles with typed event streams |
//! | [`report`] | `comptest-report` | tables, markdown, JUnit, live-progress lines |
//! | [`server`] | `comptest-server` | resident multi-tenant campaign daemon, wire protocol, client |
//!
//! # Quickstart — one test
//!
//! ```
//! use comptest::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! let mut dut = comptest::device_for_stand("interior_light", &stand)
//!     .expect("known ECU");
//! let result = run_test(
//!     &workbook.suite,
//!     "day_stays_dark",
//!     &stand,
//!     &mut dut,
//!     &ExecOptions::default(),
//! )?;
//! assert!(result.passed());
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — a campaign
//!
//! One test definition, every stand that can allocate the resources: a
//! [`Campaign`](prelude::Campaign) describes the suites × stands matrix
//! once and launches on any executor — [`SerialExecutor`](prelude::SerialExecutor)
//! for the deterministic reference, [`PooledExecutor`](prelude::PooledExecutor)
//! (the local parallel executor with one in-flight run per thread) for
//! wall-clock speedup; the results are byte-identical. The returned
//! [`CampaignHandle`](prelude::CampaignHandle) streams typed events and
//! supports cooperative cancellation ([`CancelToken`](prelude::CancelToken)
//! or `stop_on_first_fail`).
//!
//! Every executor runs one unit of work — a job holding a run of
//! consecutive tests of one cell — and
//! [`Granularity`](prelude::Granularity) is its batch size:
//! `Granularity::Test` runs batches of one test (a large workbook spreads
//! over every worker; events arrive per test), `Granularity::Cell` runs
//! one batch per cell (the lowest overhead; events arrive per cell).
//! Either way the merged matrix is the same.
//!
//! ```
//! use comptest::prelude::*;
//! use comptest::core::campaign::CampaignEntry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! let entries = vec![CampaignEntry {
//!     suite: &workbook.suite,
//!     device_factory: Box::new(|| {
//!         comptest::device_for_stand("interior_light", &stand).expect("known ECU")
//!     }),
//! }];
//! let stands = [&stand];
//! let executor = PooledExecutor::new(2);
//! let mut handle = Campaign::new(&entries, &stands)
//!     .granularity(Granularity::Test)
//!     .launch(&executor)?;
//! for event in handle.events() {
//!     eprintln!("{}", comptest::report::progress_line(&event));
//! }
//! let outcome = handle.join()?;
//! assert!(outcome.result.all_green());
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — thousands of concurrent stands
//!
//! A test run is a resumable state machine
//! ([`TestRun`](prelude::TestRun)), so concurrency does not need threads:
//! the event-loop [`AsyncExecutor`](prelude::AsyncExecutor) keeps up to
//! `concurrency` runs open *simultaneously on one OS thread*, interleaving
//! them step by step in simulated-time order — and still merges the exact
//! bytes the serial executor produces. Its threads start on the first
//! launch and serve every later launch of the same executor value.
//!
//! ```
//! use comptest::prelude::*;
//! use comptest::core::campaign::CampaignEntry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! # let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! # let entries = vec![CampaignEntry {
//! #     suite: &workbook.suite,
//! #     device_factory: Box::new(|| {
//! #         comptest::device_for_stand("interior_light", &stand).expect("known ECU")
//! #     }),
//! # }];
//! # let stands = [&stand];
//! let outcome = Campaign::new(&entries, &stands)
//!     .granularity(Granularity::Test)
//!     .launch(&AsyncExecutor::new(1024))? // up to 1024 in-flight runs, one thread
//!     .join()?;
//! assert!(outcome.result.all_green());
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — distributed execution
//!
//! [`RemoteExecutor`](prelude::RemoteExecutor) moves job execution out of
//! the campaign process entirely: it spawns `--remote-workers` copies of
//! the `comptest` binary as `comptest worker` children and ships packaged
//! jobs to them over a length-prefixed stdio frame protocol (stands and
//! scripts are interned per worker, so each crosses the pipe once). The
//! cache stays in the parent — workers never touch disk — and the merged
//! matrix is byte-identical to [`SerialExecutor`](prelude::SerialExecutor).
//! A worker that dies mid-job is reaped, its jobs retried on the survivors
//! (the `jobs_retried` counter); only when every retry is exhausted does
//! the join report `JobsLost` with the exact job labels. If no worker can
//! be spawned at all, jobs degrade gracefully to in-process execution.
//! On the CLI: `comptest campaign … --executor remote --remote-workers N`.
//!
//! ```no_run
//! use comptest::prelude::*;
//! use comptest::core::campaign::CampaignEntry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! # let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! # let entries = vec![CampaignEntry {
//! #     suite: &workbook.suite,
//! #     device_factory: Box::new(|| {
//! #         comptest::device_for_stand("interior_light", &stand).expect("known ECU")
//! #     }),
//! # }];
//! # let stands = [&stand];
//! // Four worker processes; the worker command defaults to re-invoking
//! // the current executable as `comptest worker`.
//! let outcome = Campaign::new(&entries, &stands)
//!     .granularity(Granularity::Test)
//!     .launch(&RemoteExecutor::new(4))?
//!     .join()?;
//! assert!(outcome.result.all_green());
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — caching & cache-verify
//!
//! Regression campaigns mostly re-run unchanged cells. A content-addressed
//! cache ([`engine::cache`]) keys every suite×stand×DUT cell by stable
//! structural hashes ([`core::hash`]) and skips byte-identical
//! re-executions — across executors, granularities and (with
//! [`engine::DirCache`]) across processes. Hits merge the *exact* bytes a
//! cold run produces, full traces and per-test sim timing included, and a
//! cached failure still trips `stop_on_first_fail` and the exit code.
//! `cache_verify(true)` is the audit mode: everything re-executes and the
//! join errors if any cached outcome diverged. On the CLI:
//! `comptest campaign … --cache <dir> [--cache-verify]`.
//!
//! On-disk records are length-prefixed binary (one read per record, no
//! text parsing); see the [`engine::cache`] module docs for the record
//! layout.
//!
//! ```
//! use comptest::prelude::*;
//! use comptest::core::campaign::CampaignEntry;
//! use comptest::engine::MemoryCache;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! # let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! # let entries = vec![CampaignEntry {
//! #     suite: &workbook.suite,
//! #     device_factory: Box::new(|| {
//! #         comptest::device_for_stand("interior_light", &stand).expect("known ECU")
//! #     }),
//! # }];
//! # let stands = [&stand];
//! // Use engine::DirCache::open("…")? instead to persist across processes.
//! let cache = Arc::new(MemoryCache::new());
//! let campaign = Campaign::new(&entries, &stands).cache(cache);
//! let cold = campaign.run(&SerialExecutor)?;   // executes, fills the cache
//! let warm = campaign.run(&SerialExecutor)?;   // all hits, byte-identical
//! assert_eq!(warm, cold);
//! // Audit mode: re-execute and cross-check every cached outcome.
//! let audited = campaign.cache_verify(true).run(&SerialExecutor)?;
//! assert_eq!(audited, cold);
//! # Ok(())
//! # }
//! ```
//!
//! ## What invalidates the cache
//!
//! During planning the engine records each cell's exact dependency
//! footprint ([`core::hash::Footprint`]: the signals it reads and drives,
//! the stand resources its plans allocate, the DUT slices behind the ports
//! it touches) and keys the record by *that*. An edit re-executes only the
//! cells whose footprint contains it; everything else stays a hit — one
//! ECU's fault-set tweak no longer re-runs the entire regression matrix.
//!
//! A change *inside* a cell's footprint — a touched signal, pin, resource
//! or port slice, the suite itself, the execution options, or the
//! author-supplied [`cache_salt`](prelude::Campaign::cache_salt) (bump it
//! to force a re-run without touching inputs) — moves the key, and the
//! re-executed result is byte-identical to a cold run. Devices whose
//! [`Behavior`](dut::Behavior) does not implement
//! [`port_slice`](dut::Behavior::port_slice) degrade gracefully: their
//! cells fall back to whole-device identity (any edit to the device
//! re-runs them, never a stale hit). Unreadable or outdated record files
//! are clean misses, never errors.
//!
//! ```
//! use comptest::prelude::*;
//! use comptest::core::campaign::CampaignEntry;
//! use comptest::engine::MemoryCache;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! # let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! # let entries = vec![CampaignEntry {
//! #     suite: &workbook.suite,
//! #     device_factory: Box::new(|| {
//! #         comptest::device_for_stand("interior_light", &stand).expect("known ECU")
//! #     }),
//! # }];
//! # let stands = [&stand];
//! let campaign = Campaign::new(&entries, &stands)
//!     .cache(Arc::new(MemoryCache::new()))
//!     .cache_salt("calibration-2026w32"); // joined into every footprint
//! let cold = campaign.run(&SerialExecutor)?;
//! let warm = campaign.run(&SerialExecutor)?; // hits for untouched cells
//! assert_eq!(warm, cold);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — observability
//!
//! Attach a [`Recorder`](prelude::Recorder) to see *where the time goes*:
//! a metrics registry (jobs/tests/steps, cache hits, phase timings,
//! wall-vs-sim histograms) and span tracing (campaign → cell → test →
//! step) exportable as Chrome trace-event JSON for
//! <https://ui.perfetto.dev>. The default recorder is disabled and free;
//! enabling it never changes results — wall-clock readings are
//! export-only. On the CLI: `comptest campaign … --trace-out trace.json
//! --metrics [--metrics-out metrics.json]`. See the `comptest_engine`
//! crate docs for the counter glossary and trace-viewer walkthrough.
//!
//! ```
//! use comptest::prelude::*;
//! use comptest::core::campaign::CampaignEntry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let workbook = Workbook::load(comptest::asset("interior_light.cts"))?;
//! # let stand = TestStand::load(comptest::asset("stand_a.stand"))?;
//! # let entries = vec![CampaignEntry {
//! #     suite: &workbook.suite,
//! #     device_factory: Box::new(|| {
//! #         comptest::device_for_stand("interior_light", &stand).expect("known ECU")
//! #     }),
//! # }];
//! # let stands = [&stand];
//! let obs = Recorder::enabled();
//! let outcome = Campaign::new(&entries, &stands)
//!     .recorder(obs.clone())
//!     .launch(&AsyncExecutor::new(64))?
//!     .join()?;
//! let metrics = obs.metrics().unwrap();
//! assert_eq!(
//!     metrics.counter("jobs_executed") + metrics.counter("jobs_cached"),
//!     metrics.counter("jobs_planned"),
//! );
//! eprint!("{}", comptest::report::metrics_text(&metrics));
//! let trace = obs.chrome_trace_json().unwrap(); // write to a file, load in Perfetto
//! assert!(trace.starts_with('['));
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — serving campaigns
//!
//! `comptest serve` keeps everything expensive **resident**: one daemon
//! loads the bundled suites once, owns two lane-fair executors (pooled and
//! async, each on a fixed set of threads) and one shared on-disk cache, and
//! multiplexes any number of concurrently submitted campaigns onto them
//! over a newline-delimited JSON TCP protocol. Campaigns get stable ids
//! (`c-000001`), stream typed events to any number of watchers (late
//! subscribers get a full replay), survive client disconnects (fetch the
//! verdict by id later), and can be cancelled over the wire. `status`
//! and `metrics` expose each tenant's lifecycle state and its own
//! recorder snapshot. On the CLI:
//!
//! ```text
//! comptest serve  [--addr 127.0.0.1:7171] [--workers N] [--concurrency N]
//!                 [--max-active N] [--cache <dir>]
//! comptest submit [--addr …] <stand.stand>... [--suite NAME]...
//!                 [--granularity cell|test] [--executor pooled|async]
//!                 [--stop-on-first-fail] [--no-cache] [--watch]
//! comptest watch  [--addr …] <campaign-id>
//! comptest cancel [--addr …] <campaign-id>
//! comptest status [--addr …]
//! ```
//!
//! Served verdicts are byte-identical to local execution, and the
//! one-shot `comptest campaign` now drains cooperatively on Ctrl-C. See
//! the [`server`] crate docs for the frame reference, lifecycle states
//! and an in-process quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

pub use comptest_core as core;
pub use comptest_dut as dut;
pub use comptest_engine as engine;
pub use comptest_model as model;
pub use comptest_report as report;
pub use comptest_script as script;
pub use comptest_server as server;
pub use comptest_sheets as sheets;
pub use comptest_stand as stand;

/// The most commonly used items in one import.
pub mod prelude {
    pub use comptest_core::{
        execute, run_suite, run_test, ExecOptions, RunState, SampleMode, SuiteResult, TestResult,
        TestRun, Verdict,
    };
    pub use comptest_dut::{Device, ElectricalConfig, FaultKind, FaultyBehavior};
    pub use comptest_engine::{
        AsyncExecutor, Campaign, CampaignExecutor, CampaignHandle, CampaignOutcome, CancelToken,
        EngineEvent, EventStream, Granularity, MetricsSnapshot, PooledExecutor, Recorder,
        RemoteExecutor, SerialExecutor,
    };
    pub use comptest_model::{Env, MethodRegistry, TestSuite};
    pub use comptest_script::{generate, generate_all, TestScript};
    pub use comptest_sheets::Workbook;
    pub use comptest_stand::{plan, TestStand};
}

/// The repository's `assets/` directory (paper sheets and stands).
pub fn assets_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("assets")
}

/// Path of one asset file, e.g. `asset("interior_light.cts")`.
pub fn asset(name: &str) -> PathBuf {
    assets_dir().join(name)
}

/// Builds the simulated DUT for an ECU name, electrically matched to a
/// stand: the DUT's supply voltage is taken from the stand's `ubatt`
/// variable so `UBATT`-scaled bounds measure against the same rail.
///
/// Known ECUs: `interior_light`, `wiper`, `power_window`, `central_lock`
/// (suite names of the bundled workbooks match these).
pub fn device_for_stand(ecu: &str, stand: &stand::TestStand) -> Option<dut::Device> {
    let mut cfg = dut::ElectricalConfig::default();
    if let Some(ubatt) = stand.env().get("ubatt") {
        cfg.ubatt = ubatt;
    }
    dut::ecus::device_by_name(ecu, cfg)
}

/// Loads every bundled ECU suite (`assets/<ecu>.cts`), in
/// [`dut::ecus::NAMES`] order — the suite set the `comptest campaign` CLI,
/// the campaign example and the integration tests all run.
///
/// # Errors
///
/// Returns the first [`sheets::SheetError`] raised while loading a
/// workbook.
pub fn load_bundled_suites() -> Result<Vec<model::TestSuite>, sheets::SheetError> {
    dut::ecus::NAMES
        .iter()
        .map(|ecu| Ok(sheets::Workbook::load(asset(&format!("{ecu}.cts")))?.suite))
        .collect()
}

/// Campaign entries pairing the bundled suites (in [`load_bundled_suites`]
/// order) with factories building their simulated DUTs at the default
/// 12 V electrical config — both full stands' bounds tolerate either rail
/// because limits scale with the stand's own `ubatt`.
pub fn bundled_entries(suites: &[model::TestSuite]) -> Vec<core::campaign::CampaignEntry<'_>> {
    suites
        .iter()
        .zip(dut::ecus::NAMES)
        .map(|(suite, ecu)| core::campaign::CampaignEntry {
            suite,
            device_factory: Box::new(move || {
                dut::ecus::device_by_name(ecu, Default::default()).expect("bundled ECU")
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assets_exist() {
        for name in [
            "interior_light.cts",
            "wiper.cts",
            "power_window.cts",
            "central_lock.cts",
            "stand_a.stand",
            "stand_b.stand",
            "stand_minimal.stand",
        ] {
            assert!(asset(name).exists(), "missing asset {name}");
        }
    }

    #[test]
    fn device_matches_stand_supply() {
        let stand = stand::TestStand::load(asset("stand_b.stand")).unwrap();
        let dut = device_for_stand("interior_light", &stand).unwrap();
        assert_eq!(dut.config().ubatt, 13.8);
        assert!(device_for_stand("toaster", &stand).is_none());
    }
}
