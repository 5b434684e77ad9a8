//! The plan memo: a warm footprint-keyed launch derives each cell's key
//! from the plan side memoised with the cell's record plus a fresh
//! DUT-slice walk, without generating or planning the cell.
//!
//! The memo is an alias of the cell's latest record under its
//! [`plan_memo_key`]. These tests pin what that buys and what it must not
//! cost:
//!
//! * memo-derived keys equal freshly planned keys, for every bundled
//!   workbook on every bundled stand, under two salts and two sets of exec
//!   options, on both cache backends;
//! * a store without aliases (filled by an older release) still serves
//!   warm and then aliases itself;
//! * a corrupt alias warns, counts, re-plans and heals, and a record
//!   rotten in place (its alias with it) warns once for its cell;
//! * cells that cannot be generated or planned get no alias;
//! * `cache_verify` audits the memo against fresh plans, and a memo it
//!   audits counts as a miss, not a hit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use comptest::core::campaign::CampaignEntry;
use comptest::core::hash::{
    footprint_for_cell, footprint_from_memo, hash_exec_options, hash_stand, hash_suite,
    plan_memo_key, CellKey, FootprintDevice,
};
use comptest::core::{CoreError, SampleMode};
use comptest::dut::ElectricalConfig;
use comptest::engine::{
    CacheLookup, CampaignCache, CellRecord, DirCache, MemoryCache, MetricsSnapshot,
};
use comptest::model::SimTime;
use comptest::prelude::*;

/// A per-test scratch directory, removed on drop.
struct TempDir {
    path: std::path::PathBuf,
    counter: AtomicUsize,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("comptest-plan-memo-{tag}-{}", std::process::id()));
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

/// Both cache backends, fresh.
fn backends(scratch: &TempDir) -> [(&'static str, Arc<dyn CampaignCache>); 2] {
    [
        ("memory", Arc::new(MemoryCache::new())),
        (
            "dir",
            Arc::new(DirCache::open(scratch.fresh_subdir()).expect("cache dir")),
        ),
    ]
}

fn load_stand(name: &str) -> TestStand {
    TestStand::load(comptest::asset(&format!("{name}.stand"))).unwrap()
}

/// The bundled suites' entries on devices built at `cfg`.
fn entries_at(suites: &[TestSuite], cfg: ElectricalConfig) -> Vec<CampaignEntry<'_>> {
    suites
        .iter()
        .zip(comptest::dut::ecus::NAMES)
        .map(|(suite, ecu)| CampaignEntry {
            suite,
            device_factory: Box::new(move || {
                comptest::dut::ecus::device_by_name(ecu, cfg).expect("bundled ECU")
            }),
        })
        .collect()
}

/// The two option sets every memo test runs under.
fn exec_options() -> [ExecOptions; 2] {
    [
        ExecOptions::default(),
        ExecOptions {
            sample: SampleMode::Continuous {
                interval: SimTime::from_millis(50),
            },
            stop_on_failure: true,
        },
    ]
}

/// Whether every test of `suite` generates and plans on `stand` — the
/// cells that get a plan memo.
fn plans_cleanly(suite: &TestSuite, stand: &TestStand) -> bool {
    comptest::script::generate_all(suite).is_ok_and(|scripts| {
        scripts
            .iter()
            .all(|script| comptest::stand::plan(script, stand).is_ok())
    })
}

/// The plan-memo key of one cell.
fn memo_key(suite: &TestSuite, stand: &TestStand, salt: &str, exec: &ExecOptions) -> CellKey {
    plan_memo_key(
        hash_suite(suite),
        hash_stand(stand),
        salt,
        hash_exec_options(exec),
    )
}

/// Runs `campaign` on the serial executor with a fresh recorder; returns
/// the outcome (or error), the events and the metrics.
fn observed(
    campaign: Campaign<'_, '_>,
) -> (
    Result<CampaignOutcome, CoreError>,
    Vec<EngineEvent>,
    MetricsSnapshot,
) {
    let obs = Recorder::enabled();
    let mut handle = campaign
        .recorder(obs.clone())
        .launch(&SerialExecutor)
        .expect("launch");
    let events: Vec<EngineEvent> = handle.events().collect();
    let outcome = handle.join();
    (outcome, events, obs.metrics().expect("enabled recorder"))
}

fn phase_calls(metrics: &MetricsSnapshot, phase: &str) -> u64 {
    metrics.phases.get(phase).map_or(0, |p| p.calls)
}

/// Every footprint-keyed launch that resolves keys classifies each cell
/// exactly once as a memo hit or miss.
fn assert_memo_counters_balance(metrics: &MetricsSnapshot, cells: usize, label: &str) {
    assert_eq!(
        metrics.counter("plan_memo_hits") + metrics.counter("plan_memo_misses"),
        cells as u64,
        "{label}: memo hits + misses must cover every cell ({:?})",
        metrics.counters
    );
}

#[test]
fn memo_footprints_equal_freshly_planned_footprints() {
    let suites = comptest::load_bundled_suites().unwrap();
    let stands = ["stand_a", "stand_b", "stand_minimal"].map(load_stand);
    for cfg in [
        ElectricalConfig::default(),
        ElectricalConfig {
            ubatt: 13.5,
            ..ElectricalConfig::default()
        },
    ] {
        let entries = entries_at(&suites, cfg);
        for entry in &entries {
            for stand in &stands {
                if !plans_cleanly(entry.suite, stand) {
                    continue;
                }
                for salt in ["", "fw-2"] {
                    let fresh = footprint_for_cell(entry, stand, salt);
                    let device = FootprintDevice::new(entry.device_factory.build());
                    assert_eq!(
                        footprint_from_memo(&fresh, &device),
                        fresh,
                        "{} on {} (salt {salt:?})",
                        entry.suite.name,
                        stand.name()
                    );
                }
            }
        }
    }
}

fn memo_campaign<'a, 'b>(
    entries: &'a [CampaignEntry<'b>],
    stands: &'a [&'a TestStand],
    exec: ExecOptions,
    salt: &str,
    cache: &Arc<dyn CampaignCache>,
) -> Campaign<'a, 'b> {
    Campaign::new(entries, stands)
        .exec_options(exec)
        .cache_salt(salt)
        .cache(Arc::clone(cache))
}

#[test]
fn memo_derived_keys_equal_freshly_planned_keys() {
    let scratch = TempDir::new("keys");
    let suites = comptest::load_bundled_suites().unwrap();
    let stand_values = ["stand_a", "stand_b", "stand_minimal"].map(load_stand);
    let stands: Vec<&TestStand> = stand_values.iter().collect();
    let entries = entries_at(&suites, ElectricalConfig::default());
    let edited_cfg = ElectricalConfig {
        ubatt: 13.5,
        ..ElectricalConfig::default()
    };
    let edited = entries_at(&suites, edited_cfg);
    let cells = entries.len() * stands.len();
    let clean: Vec<bool> = entries
        .iter()
        .flat_map(|e| stands.iter().map(|s| plans_cleanly(e.suite, s)))
        .collect();
    let clean_cells = clean.iter().filter(|c| **c).count();
    assert!(
        0 < clean_cells && clean_cells < cells,
        "the matrix covers cells with and without a memo"
    );

    for exec in exec_options() {
        let reference = Campaign::new(&entries, &stands)
            .exec_options(exec)
            .run(&SerialExecutor)
            .unwrap();
        let edited_reference = Campaign::new(&edited, &stands)
            .exec_options(exec)
            .run(&SerialExecutor)
            .unwrap();
        for salt in ["", "fw-2"] {
            for (backend, cache) in backends(&scratch) {
                let label = format!("{backend}/salt {salt:?}/{exec:?}");
                let campaign = |entries| memo_campaign(entries, &stands, exec, salt, &cache);
                let (cold, _, metrics) = observed(campaign(&entries));
                assert_eq!(cold.unwrap().result, reference, "{label}: cold");
                assert_eq!(metrics.counter("plan_memo_misses"), cells as u64);
                // Every clean cell's memo resolves to its record; no other
                // cell has one.
                for ((entry, stand), clean) in entries
                    .iter()
                    .flat_map(|e| stands.iter().map(move |s| (e, *s)))
                    .zip(&clean)
                {
                    let memo = cache.load(&memo_key(entry.suite, stand, salt, &exec));
                    let key = CellKey::for_cell(entry, stand, &exec, salt);
                    if *clean {
                        assert_eq!(memo, cache.load(&key), "{label}: memo aliases the record");
                        assert!(memo.is_some(), "{label}: clean cell has a memo");
                    } else {
                        assert!(memo.is_none(), "{label}: a planning error gets no memo");
                    }
                }

                // Warm, same devices: every clean cell keys from its memo
                // (no codegen, no planning for it) and every cell hits.
                let (warm, _, metrics) = observed(campaign(&entries));
                assert_eq!(warm.unwrap().result, reference, "{label}: warm");
                assert_memo_counters_balance(&metrics, cells, &label);
                assert_eq!(
                    metrics.counter("plan_memo_hits"),
                    clean_cells as u64,
                    "{label}"
                );
                assert_eq!(metrics.counter("cells_invalidated"), 0, "{label}");
                assert_eq!(
                    metrics.counter("jobs_cached"),
                    metrics.counter("jobs_planned"),
                    "{label}"
                );

                // Warm, every device edited: the memo still gives the plan
                // side, every cell misses, and each record is stored under
                // exactly the key fresh planning derives.
                let (rerun, _, metrics) = observed(campaign(&edited));
                assert_eq!(rerun.unwrap().result, edited_reference, "{label}: edited");
                assert_memo_counters_balance(&metrics, cells, &label);
                assert_eq!(
                    metrics.counter("plan_memo_hits"),
                    clean_cells as u64,
                    "{label}"
                );
                assert_eq!(metrics.counter("cells_invalidated"), cells as u64);
                for entry in &edited {
                    for stand in &stands {
                        let key = CellKey::for_cell(entry, stand, &exec, salt);
                        assert!(
                            cache.load(&key).is_some(),
                            "{label}: {} on {} stored under its freshly planned key",
                            entry.suite.name,
                            stand.name()
                        );
                    }
                }
            }
        }
    }
}

/// A decorator that drops every alias: a store as an older release fills
/// it.
#[derive(Debug)]
struct NoAlias(Arc<dyn CampaignCache>);

impl CampaignCache for NoAlias {
    fn load(&self, key: &CellKey) -> Option<CellRecord> {
        self.0.load(key)
    }

    fn store(&self, key: &CellKey, record: &CellRecord) {
        self.0.store(key, record);
    }

    fn alias(&self, _key: &CellKey, _alias: &CellKey) {}
}

#[test]
fn a_store_without_aliases_serves_warm_and_then_aliases_itself() {
    let scratch = TempDir::new("unaliased");
    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stand = load_stand("stand_b");
    let stands = [&stand];
    let cells = entries.len();
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();
    for (backend, cache) in backends(&scratch) {
        let _ = Campaign::new(&entries, &stands)
            .cache(Arc::new(NoAlias(Arc::clone(&cache))))
            .run(&SerialExecutor)
            .unwrap();

        // No memo yet: every cell re-plans, yet every cell hits.
        let (warm, _, metrics) =
            observed(Campaign::new(&entries, &stands).cache(Arc::clone(&cache)));
        assert_eq!(warm.unwrap().result, reference, "{backend}");
        assert_eq!(
            metrics.counter("plan_memo_misses"),
            cells as u64,
            "{backend}"
        );
        assert_eq!(metrics.counter("jobs_cached"), cells as u64, "{backend}");
        assert!(phase_calls(&metrics, "plan") > 0, "{backend}");

        // The hits aliased the memos: the next launch neither generates
        // nor plans anything.
        let (warm, _, metrics) =
            observed(Campaign::new(&entries, &stands).cache(Arc::clone(&cache)));
        assert_eq!(warm.unwrap().result, reference, "{backend}");
        assert_eq!(metrics.counter("plan_memo_hits"), cells as u64, "{backend}");
        assert_eq!(metrics.counter("jobs_cached"), cells as u64, "{backend}");
        assert_eq!(phase_calls(&metrics, "plan"), 0, "{backend}");
        assert_eq!(phase_calls(&metrics, "codegen"), 0, "{backend}");
    }
}

#[test]
fn a_corrupt_alias_warns_counts_replans_and_heals() {
    let scratch = TempDir::new("corrupt");
    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stand = load_stand("stand_b");
    let stands = [&stand];
    let cells = entries.len();
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();
    let dir = scratch.fresh_subdir();
    let cache = Arc::new(DirCache::open(&dir).expect("cache dir"));
    let campaign = || Campaign::new(&entries, &stands).cache(cache.clone());
    let _ = campaign().run(&SerialExecutor).unwrap();

    // Replace the first cell's alias (not the record it links to) with
    // garbage.
    let memo = cache.entry_path(&memo_key(
        entries[0].suite,
        &stand,
        "",
        &ExecOptions::default(),
    ));
    std::fs::remove_file(&memo).expect("the first cell has a memo");
    std::fs::write(&memo, b"CCR\x02\x00\xff\xff\xff").unwrap();

    let (warm, events, metrics) = observed(campaign());
    assert_eq!(warm.unwrap().result, reference);
    let warnings: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::CellCacheCorrupt { cell, .. } => Some(*cell),
            _ => None,
        })
        .collect();
    assert_eq!(warnings, [0], "one warning, for the first cell");
    assert_eq!(metrics.counter("cache_corrupt_entries"), 1);
    assert_eq!(metrics.counter("plan_memo_misses"), 1);
    assert_eq!(metrics.counter("jobs_cached"), cells as u64);
    assert_eq!(
        phase_calls(&metrics, "plan"),
        entries[0].suite.tests.len() as u64,
        "the first cell re-plans, nothing else does"
    );

    // The hit re-aliased the memo: clean again.
    let (warm, events, metrics) = observed(campaign());
    assert_eq!(warm.unwrap().result, reference);
    assert!(!events
        .iter()
        .any(|e| matches!(e, EngineEvent::CellCacheCorrupt { .. })));
    assert_eq!(metrics.counter("plan_memo_hits"), cells as u64);
    assert_eq!(phase_calls(&metrics, "plan"), 0);
    let leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with(".tmp-")
        })
        .count();
    assert_eq!(leftovers, 0, "re-aliasing leaves no temp files");
}

#[test]
fn a_record_rotten_in_place_warns_once_for_its_cell() {
    let scratch = TempDir::new("rotten");
    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stand = load_stand("stand_b");
    let stands = [&stand];
    let cells = entries.len();
    let exec = ExecOptions::default();
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();
    let cache = Arc::new(DirCache::open(scratch.fresh_subdir()).expect("cache dir"));
    let campaign = || Campaign::new(&entries, &stands).cache(cache.clone());
    let _ = campaign().run(&SerialExecutor).unwrap();

    // Truncate the first cell's record file in place. Its plan memo is a
    // hard link to the same file, so both names now read as rotten.
    let record = cache.entry_path(&CellKey::for_cell(&entries[0], &stand, &exec, ""));
    std::fs::OpenOptions::new()
        .write(true)
        .open(&record)
        .expect("the first cell has a record")
        .set_len(20)
        .unwrap();
    let memo = memo_key(entries[0].suite, &stand, "", &exec);
    assert_eq!(
        cache.lookup(&memo),
        CacheLookup::Corrupt,
        "the memo rots too"
    );

    let (warm, events, metrics) = observed(campaign());
    assert_eq!(warm.unwrap().result, reference);
    let warnings: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::CellCacheCorrupt { cell, .. } => Some(*cell),
            _ => None,
        })
        .collect();
    assert_eq!(warnings, [0], "one warning, for the first cell");
    assert!(
        matches!(events.first(), Some(EngineEvent::CellCacheCorrupt { .. })),
        "the warning precedes every job event: {events:?}"
    );
    assert_eq!(metrics.counter("cache_corrupt_entries"), 1);
    assert_eq!(metrics.counter("cells_invalidated"), 1);
    assert_eq!(metrics.counter("jobs_cached"), cells as u64 - 1);

    // The re-executed cell was stored and re-aliased: fully warm again.
    let (warm, events, metrics) = observed(campaign());
    assert_eq!(warm.unwrap().result, reference);
    assert!(!events
        .iter()
        .any(|e| matches!(e, EngineEvent::CellCacheCorrupt { .. })));
    assert_eq!(metrics.counter("plan_memo_hits"), cells as u64);
    assert_eq!(metrics.counter("cells_invalidated"), 0);
    assert_eq!(metrics.counter("jobs_cached"), cells as u64);
    assert_eq!(phase_calls(&metrics, "plan"), 0);
    assert_eq!(phase_calls(&metrics, "codegen"), 0);
}

#[test]
fn a_codegen_error_on_a_warm_cache_fails_launch_and_gets_no_alias() {
    let scratch = TempDir::new("codegen");
    let suites = comptest::load_bundled_suites().unwrap();
    let mut invalid = suites.clone();
    invalid[3].tests[0].steps[0].dt = SimTime::ZERO;
    assert!(comptest::script::generate_all(&invalid[3]).is_err());
    let stand = load_stand("stand_b");
    let stands = [&stand];
    let valid_entries = comptest::bundled_entries(&suites);
    let invalid_entries = comptest::bundled_entries(&invalid);
    let cold_error = Campaign::new(&invalid_entries, &stands)
        .run(&SerialExecutor)
        .unwrap_err();
    assert!(
        matches!(cold_error, CoreError::Codegen(_)),
        "{cold_error:?}"
    );

    for (backend, cache) in backends(&scratch) {
        // Warm every valid cell, then launch the campaign with one suite
        // broken: its cell has no memo, so it is generated, and the launch
        // fails with the error a cold launch reports.
        let _ = Campaign::new(&valid_entries, &stands)
            .cache(Arc::clone(&cache))
            .run(&SerialExecutor)
            .unwrap();
        let error = Campaign::new(&invalid_entries, &stands)
            .cache(Arc::clone(&cache))
            .launch(&SerialExecutor)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(error.to_string(), cold_error.to_string(), "{backend}");
        let memo = memo_key(&invalid[3], &stand, "", &ExecOptions::default());
        assert!(cache.load(&memo).is_none(), "{backend}: no alias");
    }
}

#[test]
fn cache_verify_audits_the_memo_and_re_aliases_it() {
    let scratch = TempDir::new("verify");
    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stand = load_stand("stand_b");
    let stands = [&stand];
    let exec = ExecOptions::default();
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();
    for (backend, cache) in backends(&scratch) {
        let _ = Campaign::new(&entries, &stands)
            .cache(Arc::clone(&cache))
            .run(&SerialExecutor)
            .unwrap();
        // Point the first cell's memo at the second cell's record: its
        // plan side is another suite's.
        let other = CellKey::for_cell(&entries[1], &stand, &exec, "");
        cache.alias(&other, &memo_key(entries[0].suite, &stand, "", &exec));

        let (audit, _, metrics) = observed(
            Campaign::new(&entries, &stands)
                .cache(Arc::clone(&cache))
                .cache_verify(true),
        );
        assert!(
            matches!(audit, Err(CoreError::CacheMismatch { mismatches: 1 })),
            "{backend}: the audit must flag the stale memo, got {audit:?}"
        );
        assert_memo_counters_balance(&metrics, entries.len(), backend);

        // The audit re-aliased every memo: a plain warm run is served in
        // full, with the right bytes.
        let (warm, _, metrics) =
            observed(Campaign::new(&entries, &stands).cache(Arc::clone(&cache)));
        assert_eq!(warm.unwrap().result, reference, "{backend}");
        assert_eq!(metrics.counter("plan_memo_hits"), entries.len() as u64);
        assert_eq!(metrics.counter("jobs_cached"), entries.len() as u64);
    }
}

#[test]
fn a_warm_cache_verify_launch_counts_no_memo_hits() {
    let scratch = TempDir::new("verify-hits");
    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stand = load_stand("stand_b");
    let stands = [&stand];
    let cells = entries.len();
    for (backend, cache) in backends(&scratch) {
        let _ = Campaign::new(&entries, &stands)
            .cache(Arc::clone(&cache))
            .run(&SerialExecutor)
            .unwrap();
        // Every memo is warm and sound, yet the audit generates and
        // plans every cell: none of its keys came from a memo.
        let (audit, _, metrics) = observed(
            Campaign::new(&entries, &stands)
                .cache(Arc::clone(&cache))
                .cache_verify(true),
        );
        assert!(audit.is_ok(), "{backend}: {audit:?}");
        assert_eq!(metrics.counter("plan_memo_hits"), 0, "{backend}");
        assert_eq!(
            metrics.counter("plan_memo_misses"),
            cells as u64,
            "{backend}"
        );
        assert!(phase_calls(&metrics, "codegen") > 0, "{backend}");
        assert!(phase_calls(&metrics, "plan") > 0, "{backend}");
    }
}
