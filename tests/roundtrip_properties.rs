//! Property-based tests across crate boundaries: generated workloads must
//! survive every serialisation layer unchanged, and planning must be
//! deterministic.

use comptest::engine::CampaignCache;
use comptest::prelude::*;
use comptest_workload::{
    gen_script, gen_stand, gen_workbook_text, ScriptShape, SplitMix64, StandShape, WorkbookShape,
};
use proptest::prelude::*;

/// Executed cache records for the bundled campaign (one per cell), built
/// once per process — the richest record corpus we can get without
/// hand-assembling every result type.
fn executed_records() -> &'static [comptest::engine::CellRecord] {
    use std::sync::{Arc, OnceLock};
    static RECORDS: OnceLock<Vec<comptest::engine::CellRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let suites = comptest::load_bundled_suites().expect("bundled suites");
        let entries = comptest::bundled_entries(&suites);
        let stand = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
        let stands = [&stand];
        let cache = Arc::new(comptest::engine::MemoryCache::new());
        let campaign = Campaign::new(&entries, &stands).cache(cache.clone());
        let _ = campaign.run(&SerialExecutor).unwrap();
        entries
            .iter()
            .map(|entry| {
                let key =
                    comptest::core::CellKey::for_cell(entry, &stand, &ExecOptions::default(), "");
                cache.load(&key).expect("populated record")
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary cache records roundtrip bit-exactly: decode(encode(r)) == r
    /// and re-encoding the decoded record reproduces the same bytes, for
    /// executed records, prefixes of them (partial cells), and prefixes
    /// extended with a planning error — with the header probe agreeing on
    /// coverage and determinedness throughout.
    #[test]
    fn binary_cache_record_roundtrip(
        cell in 0usize..64,
        keep in 0usize..32,
        with_err in proptest::prelude::any::<bool>(),
        err in "[ -~]{0,40}",
    ) {
        use comptest::engine::cache::binary;
        let records = executed_records();
        let mut record = records[cell % records.len()].clone();
        record.tests.truncate(keep % (record.tests.len() + 1));
        if with_err && record.tests.len() < record.total {
            record.tests.push(Err(err));
        }

        let bytes = binary::encode(&record);
        let decoded = binary::decode(&bytes).expect("valid encoding must decode");
        prop_assert_eq!(&decoded, &record);
        prop_assert_eq!(binary::encode(&decoded), bytes.clone());

        let header = binary::probe(&bytes).expect("valid encoding must probe");
        prop_assert_eq!(header.total, record.total);
        prop_assert_eq!(header.tests, record.tests.len());
        prop_assert_eq!(header.ends_err, matches!(record.tests.last(), Some(Err(_))));
        prop_assert_eq!(header.determines_cell(), record.is_determined());
    }

    /// Generated scripts roundtrip through XML byte-identically on reparse.
    #[test]
    fn script_xml_roundtrip(seed in 0u64..1000, signals in 1usize..20, steps in 1usize..30) {
        let mut rng = SplitMix64::new(seed);
        let script = gen_script(&mut rng, &ScriptShape {
            signals,
            steps,
            puts_per_step: 2,
            concurrency: signals.min(4),
        });
        let xml = script.to_xml();
        let back = TestScript::parse_xml(&xml).unwrap();
        prop_assert_eq!(&back, &script);
        // Serialising again gives the same bytes (stable output).
        prop_assert_eq!(back.to_xml(), xml);
    }

    /// Generated workbooks parse, validate, and compile for every test.
    #[test]
    fn workbook_pipeline(seed in 0u64..500, tests in 1usize..4, steps in 1usize..10) {
        let mut rng = SplitMix64::new(seed);
        let text = gen_workbook_text(&mut rng, &WorkbookShape { signals: 4, tests, steps });
        let parsed = Workbook::parse_str("gen.cts", &text).unwrap();
        let issues = parsed.suite.validate(&MethodRegistry::builtin());
        prop_assert!(issues.is_empty(), "{:?}", issues);
        let scripts = generate_all(&parsed.suite).unwrap();
        prop_assert_eq!(scripts.len(), tests);
        for script in &scripts {
            let back = TestScript::parse_xml(&script.to_xml()).unwrap();
            prop_assert_eq!(&back, script);
        }
    }

    /// Planning is deterministic: same script + same stand = same plan.
    #[test]
    fn planning_is_deterministic(seed in 0u64..500) {
        let mut rng = SplitMix64::new(seed);
        let stand = gen_stand(&mut rng, &StandShape {
            pins: 8,
            put_resources: 4,
            get_resources: 1,
            density: 0.5,
        });
        let script = gen_script(&mut rng, &ScriptShape {
            signals: 8,
            steps: 12,
            puts_per_step: 2,
            concurrency: 3,
        });
        let p1 = plan(&script, &stand);
        let p2 = plan(&script, &stand);
        match (p1, p2) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "outcomes diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// Feasible workloads plan successfully: if concurrency never exceeds
    /// the put-resource count and the matrix is fully dense, allocation
    /// must not fail.
    #[test]
    fn dense_feasible_workloads_always_plan(seed in 0u64..200, resources in 2usize..6) {
        let mut rng = SplitMix64::new(seed);
        let stand = gen_stand(&mut rng, &StandShape {
            pins: 8,
            put_resources: resources,
            get_resources: 1,
            density: 1.0,
        });
        let script = gen_script(&mut rng, &ScriptShape {
            signals: 8,
            steps: 20,
            puts_per_step: 1,
            concurrency: resources,
        });
        let planned = plan(&script, &stand);
        prop_assert!(planned.is_ok(), "{}", planned.unwrap_err());
    }

    /// The allocator never grants a value outside the statement's window.
    #[test]
    fn grants_respect_realization_windows(seed in 0u64..200) {
        use comptest::stand::{Action, AppliedValue};
        let mut rng = SplitMix64::new(seed);
        let stand = gen_stand(&mut rng, &StandShape {
            pins: 6,
            put_resources: 3,
            get_resources: 1,
            density: 1.0,
        });
        let script = gen_script(&mut rng, &ScriptShape {
            signals: 6,
            steps: 10,
            puts_per_step: 1,
            concurrency: 3,
        });
        if let Ok(planned) = plan(&script, &stand) {
            for (step, planned_step) in script.steps.iter().zip(&planned.steps) {
                for (stmt, action) in step.statements.iter().zip(&planned_step.actions) {
                    let Action::Apply { value: AppliedValue::Num(v), .. } = action else {
                        continue;
                    };
                    let lo = stmt.attr("r_min").and_then(|a| a.as_expr()).map(|e| e.eval(&Env::new()).unwrap());
                    let hi = stmt.attr("r_max").and_then(|a| a.as_expr()).map(|e| e.eval(&Env::new()).unwrap());
                    if let (Some(lo), Some(hi)) = (lo, hi) {
                        prop_assert!(*v >= lo && *v <= hi, "applied {} outside [{}, {}]", v, lo, hi);
                    }
                }
            }
        }
    }
}

/// Sanity outside proptest: the workbook generator hits the validator's
/// happy path for the default shape (regression anchor for the generators).
#[test]
fn default_workbook_shape_is_valid() {
    let mut rng = SplitMix64::new(0);
    let text = gen_workbook_text(&mut rng, &WorkbookShape::default());
    let parsed = Workbook::parse_str("gen.cts", &text).unwrap();
    assert!(parsed.suite.validate(&MethodRegistry::builtin()).is_empty());
}
