//! Engine behaviours *around* the executor contract: event-stream
//! coverage, report generation from campaign results, executor reuse
//! (also after a panicking DUT), and the serial reference
//! `comptest_core::reference::run_campaign` that anchors the builder API
//! byte for byte.
//!
//! The executor contract itself — byte-identity to the serial reference,
//! cancellation prefix-truncation, stop-on-first-fail, empty-matrix
//! rejection, `JobsLost`, and cache hit/warm-run semantics — lives in the
//! shared battery of `tests/executor_conformance.rs`, instantiated for
//! Serial / Pooled / Async × cache off / memory / dir.

use comptest::core::campaign::CampaignEntry;
use comptest::dut::{Behavior, PortValue};
use comptest::model::SimTime;
use comptest::prelude::*;

fn load_suites() -> Vec<TestSuite> {
    comptest::load_bundled_suites().expect("bundled workbooks load")
}

fn entries(suites: &[TestSuite]) -> Vec<CampaignEntry<'_>> {
    comptest::bundled_entries(suites)
}

fn load_stand(name: &str) -> TestStand {
    TestStand::load(comptest::asset(name)).unwrap()
}

#[test]
fn one_executor_is_reusable_across_campaigns() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let campaign = Campaign::new(&entries, &stands).granularity(Granularity::Test);
    let serial = campaign.run(&SerialExecutor).unwrap();

    // One pooled executor, three campaigns (replay / watch mode): the
    // worker threads are constructed once and reused; every run merges
    // byte-identically.
    let executor = PooledExecutor::new(4);
    for round in 0..3 {
        let result = campaign.run(&executor).unwrap();
        assert_eq!(result, serial, "round {round} diverged");
    }
}

#[test]
fn engine_events_cover_every_cell_exactly_once() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let executor = PooledExecutor::new(4);
    let mut handle = Campaign::new(&entries, &stands).launch(&executor).unwrap();
    let stream = handle.events();
    let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
    let outcome = handle.join().unwrap();
    let events = collector.join().unwrap();

    let mut started: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::JobStarted { cell, .. } => Some(*cell),
            _ => None,
        })
        .collect();
    started.sort_unstable();
    assert_eq!(started, (0..5).collect::<Vec<_>>());
    let finished = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::JobFinished { .. }))
        .count();
    assert_eq!(finished, 5);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, EngineEvent::CellCached { .. })),
        "no cache configured, no cached events"
    );
    assert_eq!(outcome.cancelled, 0);
    assert!(outcome.result.all_green(), "{}", outcome.result);
}

#[test]
fn test_granular_events_cover_every_test_exactly_once() {
    let suites = load_suites();
    let total_tests: usize = suites.iter().map(|s| s.tests.len()).sum();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let executor = PooledExecutor::new(4);
    let mut handle = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .launch(&executor)
        .unwrap();
    let stream = handle.events();
    let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
    let outcome = handle.join().unwrap();
    let events = collector.join().unwrap();

    let mut started: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::TestStarted { cell, test, .. } => Some((*cell, *test)),
            _ => None,
        })
        .collect();
    started.sort_unstable();
    started.dedup();
    assert_eq!(started.len(), total_tests, "every (cell, test) starts once");
    let finished = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::TestFinished { .. }))
        .count();
    assert_eq!(finished, total_tests);
    assert!(
        !events.iter().any(|e| matches!(
            e,
            EngineEvent::JobStarted { .. } | EngineEvent::JobFinished { .. }
        )),
        "per-cell events are a cell-granularity concept"
    );
    assert!(outcome.result.all_green(), "{}", outcome.result);
}

#[test]
fn campaign_junit_covers_the_matrix() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let result = Campaign::new(&entries, &stands)
        .run(&PooledExecutor::new(4))
        .unwrap();
    let xml = comptest::report::campaign_junit_xml(&result);
    let parsed = comptest::script::xml::parse(&xml).unwrap();
    assert_eq!(parsed.name, "testsuites");
    assert_eq!(parsed.elements_named("testsuite").count(), 10);
    assert!(xml.contains("interior_light@HIL-A"));
    assert!(
        xml.contains("type=\"NotRunnable\""),
        "stand A misses 4 ECUs"
    );
}

/// `comptest_core`'s serial reference `run_campaign` (no jobs, no merge,
/// no cache) anchors the builder API: the serial executor, a fresh pooled
/// executor at both granularities and a bare persistent pool must
/// reproduce it exactly.
#[test]
fn serial_run_campaign_anchors_the_builder_api() {
    use comptest::core::reference::run_campaign;

    let suites = load_suites();
    let entries_vec = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let anchor = run_campaign(&entries_vec, &stands, &ExecOptions::default()).unwrap();

    let campaign = Campaign::new(&entries_vec, &stands);
    assert_eq!(campaign.run(&SerialExecutor).unwrap(), anchor, "serial");
    for granularity in [Granularity::Cell, Granularity::Test] {
        let campaign = Campaign::new(&entries_vec, &stands).granularity(granularity);
        assert_eq!(
            campaign.run(&PooledExecutor::new(4)).unwrap(),
            anchor,
            "pooled at {granularity}"
        );
    }
}

/// A behaviour that panics as soon as simulation time advances: a DUT
/// model bug surfacing mid-run, on a shard thread.
#[derive(Debug)]
struct ExplodingBehavior;

impl Behavior for ExplodingBehavior {
    fn name(&self) -> &str {
        "exploding"
    }
    fn inputs(&self) -> &[&'static str] {
        &[]
    }
    fn outputs(&self) -> &[&'static str] {
        &[]
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

/// The local parallel executor's threads are persistent, so a DUT that
/// panics must cost only its own job: the campaign joins to `JobsLost`,
/// and the same executor value then still runs a healthy campaign
/// byte-identical to the reference, twice.
#[test]
fn persistent_executors_survive_a_panicking_dut() {
    use comptest::core::reference::run_campaign;
    use comptest::core::CoreError;

    let suites = load_suites();
    let healthy = entries(&suites);
    let exploding: Vec<CampaignEntry<'_>> = suites[..1]
        .iter()
        .map(|suite| CampaignEntry {
            suite,
            device_factory: Box::new(|| Device::builder(Box::new(ExplodingBehavior)).build()),
        })
        .collect();
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let anchor = run_campaign(&healthy, &stands, &ExecOptions::default()).unwrap();

    let executors: [(&str, Box<dyn CampaignExecutor>); 2] = [
        ("pooled(1)", Box::new(PooledExecutor::new(1))),
        ("async(4x2)", Box::new(AsyncExecutor::new(4).sharded(2))),
    ];
    for (label, executor) in executors {
        for granularity in [Granularity::Cell, Granularity::Test] {
            let err = Campaign::new(&exploding, &stands)
                .granularity(granularity)
                .launch(executor.as_ref())
                .unwrap()
                .join()
                .unwrap_err();
            assert!(
                matches!(err, CoreError::JobsLost { lost, .. } if lost > 0),
                "{label}/{granularity}: expected JobsLost, got {err:?}"
            );
        }
        let campaign = Campaign::new(&healthy, &stands);
        for round in 0..2 {
            assert_eq!(
                campaign.run(executor.as_ref()).unwrap(),
                anchor,
                "{label}, round {round} after the panics"
            );
        }
    }
}
