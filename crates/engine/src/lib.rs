//! `comptest-engine` — campaign execution behind one composable API.
//!
//! The campaign matrix (every suite × every stand × its DUT) is the paper's
//! Section-5 evaluation shape, and its cells are independent: component
//! verdicts compose without cross-talk, so the matrix is embarrassingly
//! parallel — and because every test runs against a fresh power-cycled
//! DUT, so are the tests *inside* a cell. This crate turns
//! `comptest-core`'s deterministic job plans into wall-clock speedup
//! through these pieces:
//!
//! * a [`Campaign`] builder describing one run — entries × stands,
//!   [`ExecOptions`](comptest_core::exec::ExecOptions), scheduling
//!   [`Granularity`], `stop_on_first_fail` and an optional external
//!   [`CancelToken`] — which owns validation (empty matrices and
//!   duplicate stand names are rejected before anything runs);
//! * a [`CampaignExecutor`] trait with three executors —
//!   [`SerialExecutor`] (in-order on the calling thread, the determinism
//!   reference), [`AsyncExecutor`] (the local parallel executor: an event
//!   loop of resumable [`TestRun`](comptest_core::TestRun)s on persistent
//!   shard threads fed from one lane-fair queue, where thousands of
//!   concurrent simulated stands interleave per thread on a sim-time
//!   wheel; [`PooledExecutor`] is its thread-pool shape, one in-flight
//!   run per shard) and [`RemoteExecutor`] (packaged jobs shipped to
//!   spawned `comptest worker` *processes* over a length-prefixed stdio
//!   frame protocol — see [`remote`]). The trait contract all of them
//!   keep: outcomes merge back in the deterministic plan order (so every
//!   executor, at every worker count / concurrency limit, is
//!   byte-identical to serial), launch surfaces the first codegen error
//!   before any job runs, and cancellation is cooperative — serial and
//!   remote finish the jobs they started, the local parallel executor
//!   abandons in-flight runs at the next *step* boundary and counts them
//!   into `cancelled`;
//! * a [`CampaignHandle`] returned by [`Campaign::launch`]: a typed
//!   [`EventStream`] of [`EngineEvent`]s, cooperative cancellation via
//!   [`CancelToken`], and a [`CampaignHandle::join`] folding every
//!   worker's outcome back **in deterministic (cell, test) order** through
//!   [`merge_test_outcomes`](comptest_core::campaign::merge_test_outcomes),
//!   so an N-worker run at either granularity is byte-identical to serial
//!   execution;
//! * a content-addressed campaign [`cache`]: cells keyed by stable
//!   structural hashes of (suite, stand, DUT config, exec options) —
//!   [`CellKey`], computed in `comptest_core::hash` — with an in-process
//!   [`MemoryCache`] and an on-disk [`DirCache`] (atomic
//!   write-then-rename, length-prefixed binary records; anything
//!   unreadable is a miss).
//!   Installed via [`Campaign::cache`], every executor consults it at job
//!   admission: hits emit [`EngineEvent::CellCached`], merge
//!   byte-identical to a cold run (full results, traces and sim timing
//!   travel in the record), and a cached failure trips
//!   `stop_on_first_fail` exactly like an executed one.
//!   [`Campaign::cache_verify`] is the audit mode: everything re-executes
//!   and [`CampaignHandle::join`] errors with
//!   [`CoreError::CacheMismatch`](comptest_core::CoreError::CacheMismatch)
//!   if any cached outcome diverged. Each (entry, test, stand) triple is
//!   planned at most once per launch, and a warm launch plans nothing: it
//!   reads each cell's plan side from the plan memo aliased to its record.
//!
//! # What invalidates the cache
//!
//! Every cell is keyed by its recorded dependency footprint — the digest
//! of the cell's resolved execution plans (the exact stand slice the
//! planner allocated) and of the DUT slice its signals route through — so
//! editing one ECU's configuration, fault set or an unrelated stand
//! resource re-executes *only the cells that touch it*; everything else
//! keeps hitting. An author-supplied [`Campaign::cache_salt`] (CLI
//! `--cache-salt`) folds into every key so a firmware release can
//! invalidate everything at once, and anything a footprint cannot prove
//! untouched falls back to hashing the whole device — a footprint key is
//! never less safe than a whole-device digest. The precise rules, the
//! salt semantics and the record-format details live in
//! [the cache module docs](cache#what-invalidates-the-cache).
//!
//! # Granularity is a batch size
//!
//! Every executor runs one unit of work: a *job*, a run of consecutive
//! tests of one cell, executed in order against fresh devices and stopped
//! after the first planning error. [`Granularity`] only chooses how many
//! tests a job batches. [`Granularity::Test`] makes batches of one test —
//! a large workbook spreads over every worker, and cancellation cuts in
//! between tests. [`Granularity::Cell`] makes one batch per cell — the
//! lowest overhead, and the cell is the unit of cancellation. The
//! granularity also fixes the event shape: `JobStarted`/`JobFinished` per
//! cell, or `TestStarted`/`TestFinished` per test, and
//! [`EngineEvent::CellCached`]'s `test` is `None` or `Some`. Admission,
//! the cache, spans and the join are the same code either way, which is
//! why both granularities merge the same bytes.
//!
//! # Observability
//!
//! The [`obs`] module is the engine's first-class observability layer: a
//! lock-cheap metrics registry (counters, gauges, fixed-bucket
//! histograms, phase timings) plus span tracing with a campaign → cell →
//! test → step hierarchy, recorded identically by all four executors at
//! both granularities (the remote executor stops at test spans: its steps
//! run in worker processes, whose recorders are not gathered). Attach a [`Recorder`] with [`Campaign::recorder`];
//! the default is disabled and costs nothing. Wall-clock readings are
//! **export-only** — never folded into results, cache keys or cache
//! records — so observed and unobserved runs are byte-identical.
//!
//! CLI flags (`comptest campaign`): `--trace-out <path>` writes Chrome
//! trace-event JSON, `--metrics-out <path>` writes the metrics snapshot
//! as JSON, `--metrics` prints the summary tables. Library users call
//! [`Recorder::metrics`] / [`Recorder::chrome_trace_json`] after
//! [`CampaignHandle::join`].
//!
//! **Trace-viewer walkthrough.** Open the `--trace-out` file in
//! <https://ui.perfetto.dev> (or `chrome://tracing`): each worker thread
//! is one named track. The `campaign` span brackets the whole run;
//! `codegen`/`hash`/`cache_preload`/`plan`/`execute`/`report` phase spans
//! show where setup time goes; cell and test spans are *async* (paired
//! begin/end) because on the [`AsyncExecutor`] thousands of them overlap
//! on one track; step spans are the innermost complete slices. Gaps
//! between step spans on a track are scheduler wait — compare executors
//! by how densely they pack the `execute` phase. Phase `calls` count
//! work done, not launches: `codegen` records one call per entry actually
//! generated and `plan` one per plan resolved, so a fully warm cached
//! launch shows zero of both; `hash` and `cache_preload` record calls per
//! cell of a cached launch's key pass.
//!
//! **Counter glossary** (names as they appear in
//! [`MetricsSnapshot::counters`]):
//!
//! | counter | meaning |
//! |---|---|
//! | `jobs_planned` | schedulable jobs at the configured granularity ([`Campaign::job_count`]) |
//! | `jobs_executed` | jobs that ran to completion (cells at cell granularity, tests at test granularity) |
//! | `jobs_cached` | jobs short-circuited by a cache hit |
//! | `jobs_cancelled` | jobs skipped by `stop_on_first_fail` or a [`CancelToken`] |
//! | `jobs_retried` | extra dispatch attempts after remote worker deaths ([`RemoteExecutor`] only — retries add attempts, not planned jobs, so the balance below still holds) |
//! | `tests_executed` | individual tests driven to a verdict (per job at test granularity, per suite member at cell granularity) |
//! | `steps_executed` | test steps driven through the DUT |
//! | `cache_hits` / `cache_misses` | jobs of a cached launch served from the cache / started for execution (each counted once) |
//! | `cells_invalidated` | cells whose preload lookup found no usable record — exactly the cells this run re-executes |
//! | `footprint_bytes` | summed encoded size of the campaign's captured dependency footprints |
//! | `plan_memo_hits` / `plan_memo_misses` | cells whose footprint key came from their plan memo (no codegen, no planning) / cells that had to generate and plan; they sum to the cell count on every cached launch |
//! | `cache_corrupt_entries` | cells with an unreadable record or memo, once per launch (also emitted as [`EngineEvent::CellCacheCorrupt`] warnings) |
//! | `cache_bytes_read` / `cache_bytes_written` | encoded record bytes moved at preload (plan-memo reads included) / by stores — what the `cache_preload` phase cost buys |
//! | `spans_opened` / `spans_closed` | trace spans begun / ended — equal once the campaign joins, even under cancellation |
//! | `worker_busy_micros` | summed wall-clock the workers spent inside steps |
//! | `campaign_wall_micros` | wall-clock from launch to join |
//! | `test_wall_micros_total` / `test_sim_micros_total` | summed wall vs *simulated* test time — their ratio is the sim speed-up |
//!
//! Invariants a joined campaign satisfies: `jobs_executed + jobs_cached
//! == jobs_planned` (without cancellation) and `spans_opened ==
//! spans_closed` (always). Every executor records one test span and one
//! wall timing per executed test, at either granularity.
//!
//! # Distributed execution
//!
//! [`RemoteExecutor`] (CLI `--executor remote --remote-workers N`) runs
//! jobs in spawned **worker processes** (`comptest worker`) instead of
//! threads. The parent keeps everything stateful — planning, cache
//! admission (only misses ship), events, result merging — and sends each
//! cache-missing job to a worker as a few length-prefixed binary frames:
//! stand and script text interned once per worker, then one run request
//! per job carrying the device *recipe*
//! ([`DeviceSpec`](comptest_dut::DeviceSpec)). Workers execute through
//! the same planning/execution path as every local executor and send back
//! only one result record per job (the cache's binary codec), so merged
//! results stay byte-identical to serial at both granularities and under
//! every cache mode. The parent emits each remote job's events exactly
//! once: the started event when it ships the job, the finished event when
//! the record arrives, however many times a worker death made it re-ship.
//!
//! Failure handling is part of the contract: a worker death
//! ([`EngineEvent::WorkerLost`]) retries the in-flight job on another
//! worker with exponential backoff (counted as `jobs_retried`; bounded by
//! [`RemoteExecutor::retry_limit`]), exhausted retries surface as
//! [`CoreError::JobsLost`](comptest_core::CoreError::JobsLost) *naming
//! the lost jobs*, and campaigns degrade gracefully to in-process
//! execution when workers cannot spawn at all or a device has no
//! shippable recipe (custom behaviours). See the [`remote`] module docs
//! for the frame protocol and the full robustness rules.
//!
//! # Serving campaigns
//!
//! Everything above is per-process; the `comptest-server` crate (re-exported
//! by the facade as `comptest::server`, CLI `comptest serve`) keeps one
//! engine resident and multiplexes many tenants onto it: one shared,
//! sharded [`AsyncExecutor`] (both wire executor choices run on it) + one
//! [`DirCache`], one [`Campaign`] per submission, and a runner thread per
//! running campaign that takes the next queued one when it finishes. Three engine properties make that multiplexing sound, and
//! they are the reason the daemon needs no protocol-level result plumbing:
//!
//! * **byte-identity** — merged results depend only on the campaign value,
//!   never on worker count, interleaving or cache temperature, so a served
//!   verdict equals a local `SerialExecutor` run byte for byte;
//! * **lane fairness** — [`Campaign::lane`] tags a campaign's jobs so the
//!   shared shards pull round-robin *between* campaigns (the daemon uses
//!   the campaign id as the lane): a 500-cell tenant cannot starve a
//!   5-cell one;
//! * **cooperative cancellation** — an external [`CancelToken`] held per
//!   tenant turns a wire `cancel` frame into the same step-boundary drain
//!   a local Ctrl-C performs, with skipped work counted in
//!   [`CampaignOutcome`]`::cancelled`.
//!
//! The wire protocol is newline-delimited JSON frames (the [`codec`]
//! module's `Value` on both sides). Requests: `submit` (a campaign spec;
//! answers `submitted` with a stable id `c-NNNNNN`), `watch` (replay +
//! live-stream a campaign's [`EngineEvent`]s as `event` frames, ending in
//! `result`), `fetch` (verdict by id: `result` once terminal, `pending`
//! while queued/running), `cancel`, `status` (all tenants), `metrics`
//! (one tenant's [`MetricsSnapshot`] as JSON), `shutdown`, `ping`. The
//! authoritative frame-by-frame reference with field tables lives on
//! `comptest-server`'s `protocol` module.
//!
//! A served campaign walks `queued → running → {done, cancelled, failed}`.
//! Terminal verdicts outlive connections: a watcher killed mid-stream can
//! reconnect and `fetch`/`watch` by id — replay is gapless, so the re-read
//! report is byte-identical to the uninterrupted stream. Each tenant gets
//! its own enabled [`Recorder`], so the `metrics` frame answers with
//! exactly the [`MetricsSnapshot::to_json`] shape documented above —
//! `{"counters": {"jobs_planned": 10, "jobs_executed": 10, ...}}` — and the
//! counter glossary and invariants apply per campaign, not per daemon.
//! When a campaign finishes, its recorder is frozen into that final
//! snapshot (span buffer and registry released) and its verdict is kept
//! as the rendered `result` frame, not as a result matrix, so the daemon
//! does not grow with the traces of every campaign it served.
//!
//! # Example
//!
//! ```
//! use comptest_core::campaign::CampaignEntry;
//! use comptest_engine::{Campaign, Granularity, PooledExecutor};
//! use comptest_sheets::Workbook;
//! use comptest_stand::TestStand;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wb = Workbook::parse_str("wb.cts", "\
//! [signals]
//! name,    kind,                     direction, init
//! DS_FL,   pin:DS_FL,                input,     Closed
//! NIGHT,   can:0x2A0:0:1,            input,     0
//! INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,
//!
//! [status]
//! status, method,  attribut, var,   nom, min,  max
//! Open,   put_r,   r,        ,      0,   0,    2
//! Closed, put_r,   r,        ,      INF, 5000, INF
//! 0,      put_can, data,     ,      0B,  ,
//! 1,      put_can, data,     ,      1B,  ,
//! Lo,     get_u,   u,        UBATT, 0,   0,    0.3
//! Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1
//!
//! [test night_on]
//! step, dt,  DS_FL, NIGHT, INT_ILL
//! 0,    0.5, Open,  1,     Ho
//! ")?;
//! let stand = TestStand::parse_str("a.stand", comptest_core::PAPER_STAND_A)?;
//! let entries = vec![CampaignEntry {
//!     suite: &wb.suite,
//!     device_factory: Box::new(|| {
//!         comptest_dut::ecus::interior_light::device(Default::default())
//!     }),
//! }];
//! let stands = [&stand];
//! let executor = PooledExecutor::new(4);
//! let mut handle = Campaign::new(&entries, &stands)
//!     .granularity(Granularity::Test)
//!     .launch(&executor)?;
//! for event in handle.events() {
//!     // live progress — see comptest_report::progress for rendering
//!     let _ = event;
//! }
//! let outcome = handle.join()?;
//! assert!(outcome.result.all_green());
//! assert_eq!(outcome.cancelled, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_exec;
pub mod cache;
mod campaign;
pub mod codec;
mod events;
mod executor;
mod handle;
pub mod obs;
pub mod remote;

pub use async_exec::{AsyncExecutor, PooledExecutor};
pub use cache::{CacheLookup, CampaignCache, CellRecord, DirCache, LookupInfo, MemoryCache};
pub use campaign::{Campaign, Granularity};
pub use events::EngineEvent;
pub use executor::{CampaignExecutor, SerialExecutor};
pub use handle::{CampaignHandle, CampaignOutcome, CancelToken, EventStream};
pub use obs::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, PhaseSnapshot, Recorder};
pub use remote::{worker_main, RemoteExecutor, HOLD_MS_ENV};

pub use comptest_core::hash::{CellKey, Footprint};

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_core::campaign::CampaignEntry;
    use comptest_sheets::Workbook;
    use comptest_stand::TestStand;

    const WB_PASS: &str = "\
[suite]
name = lamp

[signals]
name,    kind,                     direction, init
DS_FL,   pin:DS_FL,                input,     Closed
NIGHT,   can:0x2A0:0:1,            input,     0
INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,

[status]
status, method,  attribut, var,   nom, min,  max
Open,   put_r,   r,        ,      0,   0,    2
Closed, put_r,   r,        ,      INF, 5000, INF
0,      put_can, data,     ,      0B,  ,
1,      put_can, data,     ,      1B,  ,
Lo,     get_u,   u,        UBATT, 0,   0,    0.3
Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1

[test night_on]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  1,     Ho

[test day_off]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  0,     Lo
";

    /// Same shape but expecting the lamp ON during the day: always fails.
    const WB_FAIL: &str = "\
[suite]
name = broken

[signals]
name,    kind,                     direction, init
DS_FL,   pin:DS_FL,                input,     Closed
NIGHT,   can:0x2A0:0:1,            input,     0
INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,

[status]
status, method,  attribut, var,   nom, min,  max
Open,   put_r,   r,        ,      0,   0,    2
Closed, put_r,   r,        ,      INF, 5000, INF
0,      put_can, data,     ,      0B,  ,
1,      put_can, data,     ,      1B,  ,
Lo,     get_u,   u,        UBATT, 0,   0,    0.3
Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1

[test impossible]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  0,     Ho
";

    /// Pass, fail, pass — exercises per-test cancellation mid-cell.
    const WB_MIXED: &str = "\
[suite]
name = mixed

[signals]
name,    kind,                     direction, init
DS_FL,   pin:DS_FL,                input,     Closed
NIGHT,   can:0x2A0:0:1,            input,     0
INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,

[status]
status, method,  attribut, var,   nom, min,  max
Open,   put_r,   r,        ,      0,   0,    2
Closed, put_r,   r,        ,      INF, 5000, INF
0,      put_can, data,     ,      0B,  ,
1,      put_can, data,     ,      1B,  ,
Lo,     get_u,   u,        UBATT, 0,   0,    0.3
Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1

[test ok_first]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  1,     Ho

[test fails_second]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  0,     Ho

[test never_runs]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  0,     Lo
";

    /// A stand named `name` with the paper's stand-A resources (distinct
    /// names because campaigns reject duplicate stand ids).
    fn stand_named(name: &str) -> TestStand {
        let text = comptest_core::PAPER_STAND_A.replace("HIL-A", name);
        TestStand::parse_str("a.stand", &text).unwrap()
    }

    fn stand() -> TestStand {
        stand_named("HIL-A")
    }

    fn entries(suites: &[comptest_model::TestSuite]) -> Vec<CampaignEntry<'_>> {
        suites
            .iter()
            .map(|suite| CampaignEntry {
                suite,
                device_factory: Box::new(|| {
                    comptest_dut::ecus::interior_light::device(Default::default())
                }),
            })
            .collect()
    }

    fn suites_pass_fail() -> Vec<comptest_model::TestSuite> {
        vec![
            Workbook::parse_str("a.cts", WB_PASS).unwrap().suite,
            Workbook::parse_str("b.cts", WB_FAIL).unwrap().suite,
        ]
    }

    #[test]
    fn granularity_parses_and_displays() {
        // Valid names.
        assert_eq!("cell".parse::<Granularity>().unwrap(), Granularity::Cell);
        assert_eq!("test".parse::<Granularity>().unwrap(), Granularity::Test);
        // Case handling: parsing is case-insensitive.
        assert_eq!("Cell".parse::<Granularity>().unwrap(), Granularity::Cell);
        assert_eq!("TEST".parse::<Granularity>().unwrap(), Granularity::Test);
        // Invalid names report the accepted set.
        let err = "suite".parse::<Granularity>().unwrap_err();
        assert!(err.contains("\"suite\""), "{err}");
        assert!(err.contains("cell, test"), "{err}");
        assert_eq!(Granularity::Test.to_string(), "test");
        assert_eq!(Granularity::default(), Granularity::Cell);
    }

    #[test]
    fn builder_validation_rejects_bad_campaigns() {
        use comptest_core::campaign::CampaignSpecError;
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let executor = SerialExecutor;

        let no_entries = Campaign::new(&[], &[&stand]).launch(&executor).unwrap_err();
        assert_eq!(no_entries, CampaignSpecError::NoEntries.into());

        let no_stands = Campaign::new(&entries, &[]).launch(&executor).unwrap_err();
        assert_eq!(no_stands, CampaignSpecError::NoStands.into());

        let dup = Campaign::new(&entries, &[&stand, &stand])
            .launch(&executor)
            .unwrap_err();
        assert_eq!(
            dup,
            CampaignSpecError::DuplicateStand {
                name: "HIL-A".into()
            }
            .into()
        );

        // validate() alone catches the same problems without an executor.
        assert!(Campaign::new(&entries, &[]).validate().is_err());
        assert!(Campaign::new(&entries, &[&stand]).validate().is_ok());
    }

    #[test]
    fn serial_and_pooled_executors_agree_cell_for_cell() {
        let suites = suites_pass_fail();
        let entries = entries(&suites);
        let stand_a = stand();
        let stand_b = stand_named("HIL-A2");
        let stands = [&stand_a, &stand_b];
        for granularity in [Granularity::Cell, Granularity::Test] {
            let campaign = Campaign::new(&entries, &stands).granularity(granularity);
            let serial = campaign.run(&SerialExecutor).unwrap();
            for workers in [1usize, 2, 4, 8] {
                let pooled = campaign.run(&PooledExecutor::new(workers)).unwrap();
                assert_eq!(
                    pooled, serial,
                    "granularity {granularity}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn handle_streams_cell_events_and_joins() {
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let executor = PooledExecutor::new(2);
        let mut handle = Campaign::new(&entries, &stands).launch(&executor).unwrap();
        let stream = handle.events();
        let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
        let outcome = handle.join().unwrap();
        let events = collector.join().unwrap();
        assert!(outcome.result.all_green());
        assert_eq!(outcome.cancelled, 0);
        let starts = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::JobStarted { .. }))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::JobFinished { failed: false, .. }))
            .count();
        assert_eq!((starts, finishes), (1, 1));
    }

    #[test]
    fn serial_executor_buffers_events_for_later_draining() {
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let mut handle = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .launch(&SerialExecutor)
            .unwrap();
        // Single-threaded: drain events first, then join — no deadlock.
        let events: Vec<EngineEvent> = handle.events().collect();
        let started = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::TestStarted { .. }))
            .count();
        assert_eq!(started, 2);
        // A second take yields the empty stream.
        assert_eq!(handle.events().count(), 0);
        assert!(handle.join().unwrap().result.all_green());
    }

    #[test]
    fn stop_on_first_fail_truncates_to_the_same_prefix_everywhere() {
        // Failing suite first: the first cell fails and every later cell is
        // cancelled — identically for the serial executor and a 1-worker
        // pool, at cell granularity.
        let suites = vec![
            Workbook::parse_str("b.cts", WB_FAIL).unwrap().suite,
            Workbook::parse_str("a.cts", WB_PASS).unwrap().suite,
        ];
        let entries = entries(&suites);
        let stand_a = stand();
        let stand_b = stand_named("HIL-A2");
        let stands = [&stand_a, &stand_b];
        let campaign = Campaign::new(&entries, &stands).stop_on_first_fail(true);

        let serial = campaign.launch(&SerialExecutor).unwrap().join().unwrap();
        assert_eq!(serial.result.cells.len(), 1, "{}", serial.result);
        assert!(!serial.result.cells[0].passed());
        assert_eq!(serial.cancelled, 3);

        let pooled = campaign
            .launch(&PooledExecutor::new(1))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(pooled, serial, "1-worker pool must match serial truncation");
    }

    #[test]
    fn stop_on_first_fail_cancels_at_test_granularity() {
        let suites = vec![Workbook::parse_str("m.cts", WB_MIXED).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let campaign = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .stop_on_first_fail(true);
        for (label, outcome) in [
            ("serial", campaign.run(&SerialExecutor)),
            ("pooled", campaign.run(&PooledExecutor::new(1))),
        ] {
            // The interrupted cell keeps its finished prefix: the passing
            // test and the failing one, but not the cancelled third.
            let result = outcome.unwrap();
            assert_eq!(result.cells.len(), 1, "{label}");
            let suite_result = result.cells[0].outcome.as_ref().unwrap();
            assert_eq!(suite_result.results.len(), 2, "{label}: {result}");
            assert_eq!(suite_result.results[1].test, "fails_second", "{label}");
        }
    }

    #[test]
    fn failed_run_does_not_poison_a_relaunch() {
        // stop_on_first_fail trips a per-run latch, not the campaign's
        // external token: launching the same Campaign again runs everything.
        let suites = vec![Workbook::parse_str("b.cts", WB_FAIL).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let campaign = Campaign::new(&entries, &stands).stop_on_first_fail(true);
        let first = campaign.launch(&SerialExecutor).unwrap().join().unwrap();
        assert_eq!(first.result.cells.len(), 1);
        let second = campaign.launch(&SerialExecutor).unwrap().join().unwrap();
        assert_eq!(second, first, "second launch must re-run, not drain");
    }

    #[test]
    fn external_cancel_token_skips_every_job() {
        let suites = suites_pass_fail();
        let entries = entries(&suites);
        let stand = stand();
        let token = CancelToken::new();
        let stands = [&stand];
        let campaign = Campaign::new(&entries, &stands).cancel_token(token.clone());
        token.cancel();
        for (label, outcome) in [
            ("serial", campaign.launch(&SerialExecutor).unwrap().join()),
            (
                "pooled",
                campaign.launch(&PooledExecutor::new(2)).unwrap().join(),
            ),
        ] {
            let outcome = outcome.unwrap();
            assert_eq!(outcome.result.cells.len(), 0, "{label}");
            assert_eq!(outcome.cancelled, 2, "{label}");
        }
    }

    /// A cell without tests is one job at cell granularity and no job at
    /// test granularity: a cancelled run omits it in the first case and
    /// keeps it (there was nothing to cancel) in the second.
    #[test]
    fn empty_cells_follow_the_granularity_under_cancellation() {
        let text = WB_PASS.split("[test night_on]").next().unwrap();
        let suites = vec![Workbook::parse_str("e.cts", text).unwrap().suite];
        assert!(suites[0].tests.is_empty());
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let token = CancelToken::new();
        token.cancel();
        for (granularity, cells, cancelled) in
            [(Granularity::Cell, 0, 1), (Granularity::Test, 1, 0)]
        {
            let campaign = Campaign::new(&entries, &stands)
                .granularity(granularity)
                .cancel_token(token.clone());
            for executor in [
                &SerialExecutor as &dyn CampaignExecutor,
                &PooledExecutor::new(2),
                &AsyncExecutor::new(4),
            ] {
                let outcome = campaign.launch(executor).unwrap().join().unwrap();
                assert_eq!(outcome.result.cells.len(), cells, "{granularity}");
                assert_eq!(outcome.cancelled, cancelled, "{granularity}");
            }
        }
    }

    #[test]
    fn handle_cancel_skips_queued_jobs() {
        // Cancel through the handle before the single worker can drain the
        // queue: the outcome must account for every job either way.
        let suites = suites_pass_fail();
        let entries = entries(&suites);
        let stand = stand();
        let executor = PooledExecutor::new(1);
        let stands = [&stand];
        let handle = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .launch(&executor)
            .unwrap();
        handle.cancel();
        assert!(handle.cancel_token().is_cancelled());
        let outcome = handle.join().unwrap();
        let finished: usize = outcome
            .result
            .cells
            .iter()
            .map(|c| c.outcome.as_ref().map_or(1, |r| r.results.len()))
            .sum();
        assert_eq!(finished + outcome.cancelled, 3, "{}", outcome.result);
    }

    #[test]
    fn zero_workers_is_clamped_in_the_option_layers() {
        // More shards than in-flight runs would leave shards with a zero
        // limit that never admit; only as many start as the budget has
        // runs for, and the campaign completes.
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let obs = Recorder::enabled();
        let campaign = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .recorder(obs.clone());
        assert!(campaign
            .run(&AsyncExecutor::new(1).sharded(4))
            .unwrap()
            .all_green());
        assert_eq!(obs.metrics().unwrap().gauges["workers"].max, 1);
    }

    /// `PooledExecutor::new(0)` is a caller bug, flagged the same way the
    /// CLI rejects `--workers 0` (the silent clamp survives only as the
    /// release-build safety net). `AsyncExecutor` follows the same policy
    /// for its concurrency and shard counts.
    #[cfg(debug_assertions)]
    mod zero_sizes_debug_assert {
        use super::*;

        #[test]
        #[should_panic(expected = "at least one worker")]
        fn pooled_executor_rejects_zero_workers() {
            let _ = PooledExecutor::new(0);
        }

        #[test]
        #[should_panic(expected = "at least one in-flight run")]
        fn async_executor_rejects_zero_concurrency() {
            let _ = AsyncExecutor::new(0);
        }

        #[test]
        #[should_panic(expected = "at least one shard thread")]
        fn async_executor_rejects_zero_shards() {
            let _ = AsyncExecutor::new(4).sharded(0);
        }
    }

    /// In release builds the constructors clamp instead of asserting, so a
    /// zero-sized executor still cannot deadlock a campaign.
    #[cfg(not(debug_assertions))]
    #[test]
    fn zero_sizes_are_clamped_in_release() {
        assert_eq!(PooledExecutor::new(0).workers(), 1);
        let executor = AsyncExecutor::new(0).sharded(0);
        assert_eq!((executor.concurrency(), executor.shards()), (1, 1));
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let result = Campaign::new(&entries, &[&stand])
            .run(&PooledExecutor::new(0))
            .unwrap();
        assert!(result.all_green());
    }

    #[test]
    fn async_executor_matches_serial_at_both_granularities() {
        let suites = suites_pass_fail();
        let entries = entries(&suites);
        let stand_a = stand();
        let stand_b = stand_named("HIL-A2");
        let stands = [&stand_a, &stand_b];
        for granularity in [Granularity::Cell, Granularity::Test] {
            let campaign = Campaign::new(&entries, &stands).granularity(granularity);
            let serial = campaign.run(&SerialExecutor).unwrap();
            for (concurrency, shards) in [(1, 1), (2, 1), (1024, 1), (2, 2), (1024, 3)] {
                let executor = AsyncExecutor::new(concurrency).sharded(shards);
                assert_eq!(
                    (executor.concurrency(), executor.shards()),
                    (concurrency, shards)
                );
                let outcome = campaign.run(&executor).unwrap();
                assert_eq!(
                    outcome, serial,
                    "granularity {granularity}, concurrency {concurrency}, {shards} shard(s)"
                );
            }
        }
    }

    #[test]
    fn async_executor_streams_test_events() {
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let mut handle = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .launch(&AsyncExecutor::new(16))
            .unwrap();
        let stream = handle.events();
        let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
        let outcome = handle.join().unwrap();
        let events = collector.join().unwrap();
        assert!(outcome.result.all_green());
        let started = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::TestStarted { .. }))
            .count();
        let finished = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::TestFinished { failed: false, .. }))
            .count();
        assert_eq!((started, finished), (2, 2));
    }

    #[test]
    fn async_stop_on_first_fail_truncates_like_serial_at_concurrency_one() {
        let suites = vec![
            Workbook::parse_str("b.cts", WB_FAIL).unwrap().suite,
            Workbook::parse_str("a.cts", WB_PASS).unwrap().suite,
        ];
        let entries = entries(&suites);
        let stand_a = stand();
        let stand_b = stand_named("HIL-A2");
        let stands = [&stand_a, &stand_b];
        for granularity in [Granularity::Cell, Granularity::Test] {
            let campaign = Campaign::new(&entries, &stands)
                .granularity(granularity)
                .stop_on_first_fail(true);
            let serial = campaign.launch(&SerialExecutor).unwrap().join().unwrap();
            let async_one = campaign
                .launch(&AsyncExecutor::new(1))
                .unwrap()
                .join()
                .unwrap();
            assert_eq!(
                async_one, serial,
                "{granularity}: 1-in-flight async must match serial truncation"
            );
        }
    }

    #[test]
    fn async_cancellation_accounts_for_every_job() {
        // Cancel mid-flight: admitted runs are abandoned at their next step
        // boundary, everything else is skipped — and every planned job is
        // either in the result or counted cancelled, never lost.
        let suites = suites_pass_fail();
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        // Bound, not a temporary: dropping the executor waits for its
        // queued jobs, which would finish the campaign before the cancel.
        let executor = AsyncExecutor::new(8);
        let handle = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .launch(&executor)
            .unwrap();
        handle.cancel();
        let outcome = handle.join().unwrap();
        let finished: usize = outcome
            .result
            .cells
            .iter()
            .map(|c| c.outcome.as_ref().map_or(1, |r| r.results.len()))
            .sum();
        assert_eq!(finished + outcome.cancelled, 3, "{}", outcome.result);
    }

    #[test]
    fn async_executor_is_reusable_and_object_safe() {
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let campaign = Campaign::new(&entries, &stands).granularity(Granularity::Test);
        let serial = campaign.run(&SerialExecutor).unwrap();
        let executor: Box<dyn CampaignExecutor> = Box::new(AsyncExecutor::new(64));
        for round in 0..2 {
            assert_eq!(
                campaign.run(executor.as_ref()).unwrap(),
                serial,
                "round {round}"
            );
        }
    }

    #[test]
    fn executors_are_reusable_across_campaigns() {
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let campaign = Campaign::new(&entries, &stands).granularity(Granularity::Test);
        let serial = campaign.run(&SerialExecutor).unwrap();
        // Successive campaigns on the same threads (replay mode).
        let executor = PooledExecutor::new(3);
        assert_eq!(executor.workers(), 3);
        for round in 0..2 {
            assert_eq!(campaign.run(&executor).unwrap(), serial, "round {round}");
        }
    }

    #[test]
    fn test_granular_events_cover_every_test() {
        let suites = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
        let entries = entries(&suites);
        let stand = stand();
        let stands = [&stand];
        let executor = PooledExecutor::new(2);
        let mut handle = Campaign::new(&entries, &stands)
            .granularity(Granularity::Test)
            .launch(&executor)
            .unwrap();
        let stream = handle.events();
        let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
        let outcome = handle.join().unwrap();
        let events = collector.join().unwrap();
        assert!(outcome.result.all_green());
        let started = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::TestStarted { .. }))
            .count();
        let mut names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::TestFinished {
                    name,
                    failed: false,
                    ..
                } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        names.sort_unstable();
        assert_eq!(started, 2);
        assert_eq!(names, ["day_off", "night_on"]);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, EngineEvent::JobStarted { .. })),
            "no per-cell events at test granularity"
        );
    }

    /// Multi-tenant behaviour: the lane-fair shard queue and the additive
    /// gauges that the `comptest serve` daemon relies on when many
    /// campaigns share one executor and one [`Recorder`].
    mod multi_tenant {
        use super::*;
        use crate::async_exec::LaneQueues;

        /// With every job queued up front, the drain order alternates
        /// strictly between the two lanes — no lane waits for the other
        /// to finish — and keeps queue order within each lane.
        #[test]
        fn pool_lanes_interleave_round_robin() {
            let mut queues = LaneQueues::default();
            queues.push(1, ["a1", "a2", "a3"].into_iter());
            queues.push(2, ["b1", "b2", "b3"].into_iter());
            queues.push(3, std::iter::empty());
            let order: Vec<_> = std::iter::from_fn(|| queues.steal()).collect();
            assert_eq!(order, ["a1", "b1", "a2", "b2", "a3", "b3"]);
        }

        /// Two campaigns launched concurrently on one shared executor and
        /// one shared recorder: the job counters balance *summed* across both
        /// and every gauge returns to zero after both join — the
        /// counter-balance contract a multi-campaign `ObsCore` keeps.
        #[test]
        fn shared_recorder_balances_across_concurrent_campaigns() {
            let suites_a = vec![Workbook::parse_str("a.cts", WB_PASS).unwrap().suite];
            let suites_b = suites_pass_fail();
            let entries_a = entries(&suites_a);
            let entries_b = entries(&suites_b);
            let stand_a = stand();
            let stand_b = stand_named("HIL-B");
            let stands_a = [&stand_a];
            let stands_b = [&stand_b];

            let pool = PooledExecutor::new(2);
            let obs = Recorder::enabled();
            let c1 = Campaign::new(&entries_a, &stands_a)
                .granularity(Granularity::Test)
                .recorder(obs.clone())
                .lane(1);
            let c2 = Campaign::new(&entries_b, &stands_b)
                .granularity(Granularity::Cell)
                .recorder(obs.clone())
                .lane(2);
            let planned = (c1.job_count() + c2.job_count()) as u64;

            let h1 = c1.launch(&pool).unwrap();
            let h2 = c2.launch(&pool).unwrap();
            let o1 = h1.join().unwrap();
            let o2 = h2.join().unwrap();
            assert!(o1.result.all_green());
            assert!(!o2.result.all_green());

            let m = obs.metrics().unwrap();
            assert_eq!(m.counter("jobs_planned"), planned);
            assert_eq!(
                m.counter("jobs_executed") + m.counter("jobs_cached") + m.counter("jobs_cancelled"),
                m.counter("jobs_planned"),
            );
            assert_eq!(m.counter("spans_opened"), m.counter("spans_closed"));
            for gauge in ["queue_depth", "inflight_jobs", "workers"] {
                assert_eq!(m.gauge(gauge), 0, "gauge {gauge} did not balance");
            }
        }
    }
}
