//! Golden plan digests: the planner judged only from outside.
//!
//! Every (script, stand, allocation options) pair below is planned and
//! reduced to one stable digest of the plan's `Debug` rendering, or of the
//! error text when planning fails. The digests are frozen in
//! `assets/golden/plan_digests.txt`, so any moved plan or diagnostic byte
//! fails this test — whatever the planner does internally to get there.
//!
//! The pairs cover the bundled workbooks on the bundled stands, seeded
//! random stands and scripts at the allocation-bench shapes (both
//! rerouting and greedy), and the disjoint per-block stands of the
//! multi-block workload, including blocks the stand does not wire.
//!
//! A deliberate planner change re-blesses the file with
//! `cargo test --test plan_identity -- --ignored` and commits the diff.

use comptest::core::hash::StableHasher;
use comptest::model::MethodRegistry;
use comptest::script::{generate_all, TestScript};
use comptest::sheets::Workbook;
use comptest::stand::{plan_with, AllocOptions, TestStand};
use comptest_workload::{
    block_stand, gen_script, gen_stand, gen_workbook_text_prefixed, ScriptShape, SplitMix64,
    StandShape, WorkbookShape,
};

const GOLDEN: &str = "golden/plan_digests.txt";

const OPTIONS: [(&str, AllocOptions); 2] = [
    ("reroute", AllocOptions { reroute: true }),
    ("greedy", AllocOptions { reroute: false }),
];

/// One `<digest> <ok|err> <label>` line per planned pair.
struct Digests {
    registry: MethodRegistry,
    lines: Vec<String>,
}

impl Digests {
    fn plan(&mut self, label: &str, script: &TestScript, stand: &TestStand) {
        for (name, options) in OPTIONS {
            let mut h = StableHasher::new();
            let outcome = match plan_with(script, stand, options, &self.registry) {
                Ok(plan) => {
                    h.write_u8(1);
                    h.write_str(&format!("{plan:?}"));
                    "ok"
                }
                Err(e) => {
                    h.write_u8(2);
                    h.write_str(&e.to_string());
                    "err"
                }
            };
            self.lines.push(format!(
                "{:016x} {outcome} {label}/{}/{name}",
                h.finish(),
                script.name
            ));
        }
    }
}

fn bundled(d: &mut Digests) {
    let stands = ["stand_a", "stand_b", "stand_minimal"]
        .map(|name| TestStand::load(comptest::asset(&format!("{name}.stand"))).unwrap());
    for workbook in [
        "central_lock",
        "flasher",
        "interior_light",
        "power_window",
        "wiper",
    ] {
        let suite = Workbook::load(comptest::asset(&format!("{workbook}.cts")))
            .unwrap()
            .suite;
        for script in generate_all(&suite).unwrap() {
            for stand in &stands {
                d.plan(
                    &format!("bundled/{workbook}/{}", stand.name()),
                    &script,
                    stand,
                );
            }
        }
    }
}

/// The `t4_allocation` shapes: (pins, put resources, density, steps,
/// puts per step).
const T4_SHAPES: [(usize, usize, f64, usize, usize); 8] = [
    (8, 2, 0.4, 100, 3),
    (32, 8, 0.4, 100, 3),
    (128, 16, 0.4, 100, 3),
    (256, 32, 0.4, 100, 3),
    (64, 8, 0.3, 200, 3),
    (64, 8, 0.2, 100, 2),
    (64, 8, 0.5, 100, 2),
    (64, 8, 1.0, 100, 2),
];

fn generated(d: &mut Digests) {
    for seed in [1u64, 7, 9001] {
        for (pins, resources, density, steps, puts) in T4_SHAPES {
            let mut rng = SplitMix64::new(seed);
            let stand = gen_stand(
                &mut rng,
                &StandShape {
                    pins,
                    put_resources: resources,
                    get_resources: 2,
                    density,
                },
            );
            let script = gen_script(
                &mut rng,
                &ScriptShape {
                    signals: pins,
                    steps,
                    puts_per_step: puts,
                    concurrency: resources,
                },
            );
            let label = format!("generated/s{seed}/{pins}p_{resources}r_d{density}");
            d.plan(&label, &script, &stand);
        }
    }
}

/// Block stands: (blocks, signals per block on the stand, signals per
/// generated suite). A suite wider than the stand's block asks for a pin
/// nothing reaches.
const BLOCK_SHAPES: [(usize, usize, usize); 5] =
    [(1, 1, 1), (3, 3, 3), (4, 2, 2), (16, 2, 2), (2, 2, 3)];

fn blocks(d: &mut Digests) {
    for (blocks, stand_signals, suite_signals) in BLOCK_SHAPES {
        let prefixes: Vec<String> = (0..blocks).map(|k| format!("e{k}_")).collect();
        let prefix_refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
        let stand = block_stand(&prefix_refs, stand_signals);
        // The last block's suite also runs on a stand without that block.
        let partial = block_stand(&prefix_refs[..blocks - 1], stand_signals);
        for (k, prefix) in prefixes.iter().enumerate() {
            let mut rng = SplitMix64::new(9001 + k as u64);
            let shape = WorkbookShape {
                signals: suite_signals,
                tests: 4,
                steps: 3,
            };
            let text = gen_workbook_text_prefixed(&mut rng, &shape, prefix);
            let suite = Workbook::parse_str("block.cts", &text).unwrap().suite;
            let label = format!("blocks/{blocks}x{stand_signals}/{prefix}{suite_signals}");
            for script in generate_all(&suite).unwrap() {
                d.plan(&label, &script, &stand);
                if k + 1 == blocks {
                    d.plan(&format!("{label}/unwired"), &script, &partial);
                }
            }
        }
    }
}

fn digests() -> Vec<String> {
    let mut d = Digests {
        registry: MethodRegistry::builtin(),
        lines: Vec::new(),
    };
    bundled(&mut d);
    generated(&mut d);
    blocks(&mut d);
    d.lines
}

/// Every `(PLAN_MEMO_VERSION, digest of the plan golden file)` pair ever
/// released, append-only. A plan memo skips codegen and planning, so it
/// must not outlive a change to either: re-blessing the plan goldens
/// moves the digest, and this list only accepts the new digest under a
/// new, larger version — bump `PLAN_MEMO_VERSION` and append the pair.
const PLAN_MEMO_GOLDENS: &[(u32, u64)] = &[(1, 0x0696_9354_4f34_0643)];

#[test]
fn plan_memo_version_tracks_the_plan_goldens() {
    use comptest::core::hash::PLAN_MEMO_VERSION;
    assert!(
        PLAN_MEMO_GOLDENS.windows(2).all(|w| w[0].0 < w[1].0),
        "memo versions must strictly increase: {PLAN_MEMO_GOLDENS:x?}"
    );
    let golden = std::fs::read(comptest::asset(GOLDEN)).expect("golden file exists");
    let mut h = StableHasher::new();
    h.write(&golden);
    let now = (PLAN_MEMO_VERSION, h.finish());
    assert_eq!(
        PLAN_MEMO_GOLDENS.last(),
        Some(&now),
        "the plan goldens or PLAN_MEMO_VERSION moved: bump the version and \
         append ({}, {:#018x}) to PLAN_MEMO_GOLDENS",
        now.0,
        now.1
    );
}

#[test]
fn plans_match_the_golden_digests() {
    let golden = std::fs::read_to_string(comptest::asset(GOLDEN)).expect("golden file exists");
    let golden: Vec<&str> = golden.lines().collect();
    let now = digests();
    let moved: Vec<String> = now
        .iter()
        .zip(&golden)
        .filter(|(now, golden)| now != *golden)
        .map(|(now, golden)| format!("  was {golden}\n  now {now}"))
        .collect();
    assert!(
        moved.is_empty() && now.len() == golden.len(),
        "{} of {} plan digests moved ({} pairs now, {} golden):\n{}",
        moved.len(),
        golden.len(),
        now.len(),
        golden.len(),
        moved.join("\n")
    );
    for outcome in [" ok ", " err "] {
        assert!(
            golden.iter().any(|l| l.contains(outcome)),
            "the corpus covers{outcome}plans"
        );
    }
}

#[test]
#[ignore = "rewrites the golden digests; run only for a deliberate planner change"]
fn bless_golden_digests() {
    let mut text = digests().join("\n");
    text.push('\n');
    std::fs::write(comptest::asset(GOLDEN), text).unwrap();
}
