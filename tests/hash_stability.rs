//! Property tests pinning the cache-key hashing contract
//! (`comptest_core::hash`): structurally equal suites and stands hash
//! equal — across re-parses and irrelevant spelling differences — and
//! every structural mutation (renamed test, changed check bound,
//! reordered steps, re-wired matrix, changed supply) moves the key.
//! Plus the cache-robustness half: a corrupted or truncated `DirCache`
//! entry is a *miss* (the campaign executes cold), never an error.

use std::sync::Arc;

use comptest::core::campaign::CampaignEntry;
use comptest::core::hash::{
    footprint_for_cell, hash_exec_options, hash_stand, hash_suite, plan_memo_key,
};
use comptest::core::CellKey;
use comptest::dut::ElectricalConfig;
use comptest::engine::{CampaignCache, DirCache};
use comptest::prelude::*;
use comptest_workload::{
    block_device, block_stand, gen_workbook_text, gen_workbook_text_prefixed, BlockSpec,
    SplitMix64, WorkbookShape,
};
use proptest::prelude::*;

/// A generated workbook: the suite plus its source text (so equality can
/// be checked against an independent re-parse).
fn generated_suite(seed: u64, signals: usize, tests: usize) -> (TestSuite, String) {
    let mut rng = SplitMix64::new(seed);
    let text = gen_workbook_text(
        &mut rng,
        &WorkbookShape {
            signals: signals.max(2),
            tests: tests.max(1),
            steps: 2,
        },
    );
    let suite = Workbook::parse_str("gen.cts", &text)
        .expect("generated workbook parses")
        .suite;
    (suite, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-parsing the identical sheet text yields the identical hash:
    /// the hash is a function of structure, not of parse order, heap
    /// addresses or wall-clock.
    #[test]
    fn reparsed_suites_hash_equal(seed in 0u64..1_000_000, signals in 2usize..6, tests in 1usize..8) {
        let (a, text) = generated_suite(seed, signals, tests);
        let b = Workbook::parse_str("again.cts", &text).unwrap().suite;
        prop_assert_eq!(hash_suite(&a), hash_suite(&b));
        // A clone is trivially structurally equal.
        prop_assert_eq!(hash_suite(&a), hash_suite(&a.clone()));
    }

    /// Renaming any test changes the suite hash.
    #[test]
    fn renaming_a_test_changes_the_hash(seed in 0u64..1_000_000, pick in 0usize..64) {
        let (base, _) = generated_suite(seed, 3, 4);
        let mut mutated = base.clone();
        let i = pick % mutated.tests.len();
        mutated.tests[i].name = format!("{}_renamed", mutated.tests[i].name);
        prop_assert_ne!(hash_suite(&base), hash_suite(&mutated));
    }

    /// Widening (or otherwise moving) any status bound changes the hash —
    /// the acceptance interval is part of the verified contract.
    #[test]
    fn changing_a_check_bound_changes_the_hash(seed in 0u64..1_000_000, pick in 0usize..64, delta in 0.001f64..10.0) {
        let (base, _) = generated_suite(seed, 3, 4);
        let mut mutated = base.clone();
        let defs: Vec<_> = mutated.statuses.iter().cloned().collect();
        prop_assert!(!defs.is_empty());
        let mut def = defs[pick % defs.len()].clone();
        // `max` may be absent (bit-pattern statuses) or infinite (`INF`
        // upper bounds, where adding a delta is a no-op) — move it to a
        // fresh finite value in every case.
        def.max = Some(match def.max {
            Some(m) if m.is_finite() => m + delta,
            _ => delta,
        });
        mutated.statuses.insert(def);
        prop_assert_ne!(hash_suite(&base), hash_suite(&mutated));
    }

    /// Reordering the steps of a test changes the hash — the stimulus
    /// sequence is structure, not presentation.
    #[test]
    fn reordering_steps_changes_the_hash(seed in 0u64..1_000_000, pick in 0usize..64) {
        let (base, _) = generated_suite(seed, 3, 4);
        let mut mutated = base.clone();
        let i = pick % mutated.tests.len();
        // Step rows carry their sheet number (`nr`), so reversing the
        // sequence always changes the hashed byte stream — even for tests
        // whose rows happen to assign identical statuses.
        mutated.tests[i].steps.reverse();
        prop_assert_ne!(hash_suite(&base), hash_suite(&mutated));
    }

    /// Stand mutations move the stand hash: supply voltage, resource
    /// capability range, and matrix wiring are all part of the key.
    #[test]
    fn stand_mutations_change_the_hash(ubatt in 9.0f64..16.0, delta in 0.25f64..4.0) {
        let base = TestStand::parse_str("a.stand", comptest::core::PAPER_STAND_A).unwrap();
        let mut supply = base.clone();
        supply.env_mut().set("ubatt", ubatt + 100.0);
        prop_assert_ne!(hash_stand(&base), hash_stand(&supply));

        let mut tweaked = base.clone();
        tweaked.env_mut().set("extra_var", delta);
        prop_assert_ne!(hash_stand(&base), hash_stand(&tweaked), "added env var");
    }
}

/// The two ECU blocks of the composite-device footprint fixture:
/// (pin-name prefix, behaviour output port).
const BLOCKS: [(&str, &str); 2] = [("e0_", "e0_out"), ("e1_", "e1_out")];

/// One generated suite per block, each touching only its own block's pins.
fn block_suites(seed: u64, signals: usize, tests: usize) -> Vec<TestSuite> {
    BLOCKS
        .iter()
        .map(|(prefix, _)| {
            let text = gen_workbook_text_prefixed(
                &mut SplitMix64::new(seed),
                &WorkbookShape {
                    signals: signals.max(2),
                    tests: tests.max(1),
                    steps: 2,
                },
                prefix,
            );
            Workbook::parse_str("block.cts", &text)
                .expect("generated workbook parses")
                .suite
        })
        .collect()
}

/// Campaign entries sharing one composite device that aggregates both
/// blocks at the given per-block configs — the workload where footprint
/// keys and a whole-device digest genuinely differ.
fn block_entries<'a>(suites: &'a [TestSuite], configs: [&str; 2]) -> Vec<CampaignEntry<'a>> {
    let specs: Vec<BlockSpec> = BLOCKS
        .iter()
        .zip(configs)
        .map(|((prefix, out_port), config)| BlockSpec {
            prefix: (*prefix).into(),
            out_port,
            config: config.into(),
        })
        .collect();
    suites
        .iter()
        .map(|suite| {
            let specs = specs.clone();
            CampaignEntry {
                suite,
                device_factory: Box::new(move || {
                    block_device(&specs, ElectricalConfig::default(), None)
                }),
            }
        })
        .collect()
}

proptest! {
    // Each case plans several small campaigns; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The footprint contract, end to end on a composite device: edits
    /// outside a cell's footprint (another block's config, another block's
    /// stand resources) leave its record [`CellKey`] fixed, edits inside it
    /// (its own block, its own resources, its suite, the cache salt) move
    /// the key, and record and plan-memo keys never alias across distinct
    /// cells.
    #[test]
    fn footprint_keys_track_exactly_the_touched_slices(
        seed in 0u64..1_000_000,
        rev in 1u64..1_000_000,
    ) {
        let opts = ExecOptions::default();
        let suites = block_suites(seed, 2, 2);
        let stand = block_stand(&["e0_", "e1_"], 2);

        let base = block_entries(&suites, ["base", "base"]);
        let edited_cfg = format!("v{rev}");
        let edited = block_entries(&suites, ["base", &edited_cfg]);
        let key = |entries: &[CampaignEntry<'_>], i: usize, stand: &TestStand, salt: &str| {
            CellKey::for_cell(&entries[i], stand, &opts, salt)
        };

        // Editing block 1's config is outside cell 0's footprint: its key
        // holds — re-running the campaign would re-test only block 1...
        prop_assert_eq!(key(&base, 0, &stand, ""), key(&edited, 0, &stand, ""));
        prop_assert_ne!(key(&base, 1, &stand, ""), key(&edited, 1, &stand, ""));

        // The author-supplied cache salt is inside every footprint.
        let salted = format!("fw-{rev}");
        prop_assert_ne!(key(&base, 0, &stand, ""), key(&base, 0, &stand, &salted));

        // A third block's resources are outside both footprints: the full
        // stand hash moves, the footprint keys hold.
        let widened = block_stand(&["e0_", "e1_", "e2_"], 2);
        prop_assert_ne!(hash_stand(&stand), hash_stand(&widened));
        prop_assert_eq!(key(&base, 0, &stand, ""), key(&base, 0, &widened, ""));
        prop_assert_eq!(key(&base, 1, &stand, ""), key(&base, 1, &widened, ""));

        // Removing the resources a cell's plans allocate moves that cell's
        // key (its plans fail and key by the error) — and only that one.
        let narrowed = block_stand(&["e0_"], 2);
        prop_assert_eq!(key(&base, 0, &stand, ""), key(&base, 0, &narrowed, ""));
        prop_assert_ne!(key(&base, 1, &stand, ""), key(&base, 1, &narrowed, ""));

        // A suite edit is always inside its own cell's footprint.
        let mut renamed_suites = block_suites(seed, 2, 2);
        renamed_suites[0].tests[0].name.push_str("_renamed");
        let renamed = block_entries(&renamed_suites, ["base", "base"]);
        prop_assert_ne!(key(&base, 0, &stand, ""), key(&renamed, 0, &stand, ""));

        // Record and plan-memo keys live in disjoint hash domains: across
        // every distinct cell, the 2 record + 2 memo names are 4 distinct
        // cache entries.
        let mut all: Vec<CellKey> = Vec::new();
        for i in 0..base.len() {
            all.push(key(&base, i, &stand, ""));
            all.push(plan_memo_key(
                hash_suite(base[i].suite),
                hash_stand(&stand),
                "",
                hash_exec_options(&opts),
            ));
        }
        all.sort();
        all.dedup();
        prop_assert_eq!(all.len(), 4, "record and memo keys must never alias");
    }
}

/// Irrelevant spelling: identifier *case* is not structure (the whole
/// toolchain compares names case-insensitively), so a case-only respelling
/// keys identically.
#[test]
fn identifier_case_is_not_structure() {
    let upper = "\
[suite]
name = lamp

[signals]
name,    kind,       direction, init
DS_FL,   pin:DS_FL,  input,     OPEN

[status]
status, method, attribut, var, nom, min, max
OPEN,   put_r,  r,        ,    0,   0,   2

[test smoke]
step, dt,  DS_FL
0,    0.5, OPEN
";
    let lower = upper
        .replace(
            "DS_FL,   pin:DS_FL,  input,     OPEN",
            "ds_fl,   pin:ds_fl,  input,     open",
        )
        .replace("OPEN,   put_r", "open,   put_r")
        .replace("step, dt,  DS_FL", "step, dt,  ds_fl")
        .replace("0,    0.5, OPEN", "0,    0.5, open");
    let a = Workbook::parse_str("upper.cts", upper).unwrap().suite;
    let b = Workbook::parse_str("lower.cts", &lower).unwrap().suite;
    assert_eq!(
        hash_suite(&a),
        hash_suite(&b),
        "case-only respelling must key identically"
    );
}

/// The footprint's name sets are collected from borrowed plan names and
/// canonicalised once per distinct name; they must equal the sets built by
/// calling `key()` on every action, for every bundled workbook on every
/// bundled stand.
#[test]
fn footprint_name_sets_match_per_action_keys() {
    use std::collections::BTreeSet;

    use comptest::core::campaign::plan_script;
    use comptest::model::SignalKind;
    use comptest::stand::Action;

    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stands = ["stand_a", "stand_b", "stand_minimal"]
        .map(|name| TestStand::load(comptest::asset(&format!("{name}.stand"))).unwrap());
    let mut touched_cells = 0;
    for entry in &entries {
        for stand in &stands {
            let mut signals = BTreeSet::new();
            let mut pins = BTreeSet::new();
            let mut frames = BTreeSet::new();
            let mut resources = BTreeSet::new();
            for script in comptest::script::generate_each(entry.suite) {
                let Ok(plan) = plan_script(&script.unwrap(), stand) else {
                    continue;
                };
                for action in plan
                    .init
                    .iter()
                    .chain(plan.steps.iter().flat_map(|s| &s.actions))
                {
                    let (signal, kind, resource) = match action {
                        Action::Apply {
                            signal,
                            kind,
                            resource,
                            ..
                        } => (signal, kind, resource),
                        Action::Check(check) => (&check.signal, &check.kind, &check.resource),
                    };
                    signals.insert(signal.key());
                    resources.insert(resource.key());
                    match kind {
                        SignalKind::Pin { pins: p } => pins.extend(p.iter().map(|p| p.key())),
                        SignalKind::Can { frame, .. } => {
                            frames.insert(frame.0);
                        }
                    }
                }
            }
            let fp = footprint_for_cell(entry, stand, "");
            let cell = format!("{} @ {}", entry.suite.name, stand.name());
            assert_eq!(fp.signals, Vec::from_iter(signals), "signals of {cell}");
            assert_eq!(fp.pins, Vec::from_iter(pins), "pins of {cell}");
            assert_eq!(fp.frames, Vec::from_iter(frames), "frames of {cell}");
            assert_eq!(
                fp.resources,
                Vec::from_iter(resources),
                "resources of {cell}"
            );
            touched_cells += usize::from(!fp.signals.is_empty());
        }
    }
    assert!(
        touched_cells >= entries.len(),
        "most cells must plan something"
    );
}

/// The robustness half of the contract: corrupting or truncating every
/// on-disk record between two runs turns hits back into misses — the
/// second run executes cold and still produces the byte-identical result,
/// and the corrupt files are replaced with fresh records.
#[test]
fn corrupted_dir_cache_entries_are_misses_not_errors() {
    let dir = std::env::temp_dir().join(format!("comptest-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let suites = comptest::load_bundled_suites().unwrap();
    let entries: Vec<CampaignEntry<'_>> = comptest::bundled_entries(&suites);
    let stand = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
    let stands = [&stand];
    let reference = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .unwrap();

    let cache = Arc::new(DirCache::open(&dir).unwrap());
    let campaign = Campaign::new(&entries, &stands).cache(cache.clone());
    let _ = campaign.run(&SerialExecutor).unwrap();

    // Vandalise every record differently: truncation, garbage, emptiness.
    // (Records are binary by default; truncating bytes is format-agnostic.)
    // Each clean cell's plan memo is a hard link to its record file, so it
    // rots along with it.
    let keys: Vec<CellKey> = entries
        .iter()
        .map(|e| CellKey::for_cell(e, &stand, &ExecOptions::default(), ""))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let path = cache.entry_path(key);
        assert!(path.exists(), "one record per cell: {}", path.display());
        match i % 3 {
            0 => {
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
            }
            1 => std::fs::write(&path, b"\x00\xff garbage {{{").unwrap(),
            _ => std::fs::write(&path, b"").unwrap(),
        }
    }

    // Every load must now miss...
    for key in &keys {
        assert!(
            cache.load(key).is_none(),
            "corrupt entry must read as a miss"
        );
    }

    // ...and the campaign simply runs cold, byte-identical, re-storing
    // valid records as it goes.
    let mut handle = campaign.launch(&SerialExecutor).unwrap();
    let events: Vec<EngineEvent> = handle.events().collect();
    let rerun = handle.join().unwrap();
    assert_eq!(rerun.result, reference);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, EngineEvent::CellCached { .. })),
        "nothing can hit a vandalised cache"
    );
    for key in &keys {
        assert!(cache.load(key).is_some(), "cold run must repair the record");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
