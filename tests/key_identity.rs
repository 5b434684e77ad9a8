//! Golden cache keys: the content addresses a `DirCache` files records
//! under, judged only from outside.
//!
//! Every bundled workbook is keyed against every bundled stand, under full
//! keying (`CellKey`: suite, stand, DUT and exec digests) and under
//! footprint keying (`FootprintKey`: suite, plan, DUT-slice and exec
//! digests, plus the footprint's own `plan_hash` and `dut_slice_hash`).
//! The lines are frozen in `assets/golden/key_digests.txt`, so a change
//! that would silently re-key every user's on-disk cache fails this test,
//! whatever the hashing does internally to get there.
//!
//! A deliberate re-keying re-blesses the file with
//! `cargo test --test key_identity -- --ignored` and commits the diff.

use comptest::core::hash::{footprint_for_cell, hash_exec_options, hash_suite, FootprintKey};
use comptest::core::{CellKey, ExecOptions, SampleMode};
use comptest::model::SimTime;
use comptest::stand::TestStand;

const GOLDEN: &str = "golden/key_digests.txt";

const STANDS: [&str; 3] = ["stand_a", "stand_b", "stand_minimal"];

/// The default options plus one set that moves the exec digest.
fn option_sets() -> [(&'static str, ExecOptions); 2] {
    [
        ("default", ExecOptions::default()),
        (
            "continuous",
            ExecOptions {
                sample: SampleMode::Continuous {
                    interval: SimTime::from_millis(10),
                },
                stop_on_failure: true,
            },
        ),
    ]
}

fn digests() -> Vec<String> {
    let suites = comptest::load_bundled_suites().unwrap();
    let entries = comptest::bundled_entries(&suites);
    let stands =
        STANDS.map(|name| TestStand::load(comptest::asset(&format!("{name}.stand"))).unwrap());
    let mut lines = Vec::new();
    for entry in &entries {
        for stand in &stands {
            let cell = format!("{}/{}", entry.suite.name, stand.name());
            for (name, options) in option_sets() {
                let k = CellKey::for_cell(entry, stand, &options);
                lines.push(format!(
                    "full {cell}/{name} suite={:016x} stand={:016x} dut={:016x} exec={:016x}",
                    k.suite_hash, k.stand_hash, k.dut_config_hash, k.exec_hash
                ));
                let k = FootprintKey::for_cell(entry, stand, &options, "");
                lines.push(format!(
                    "footprint {cell}/{name} suite={:016x} plan={:016x} dut_slice={:016x} exec={:016x}",
                    k.suite_hash, k.plan_hash, k.dut_slice_hash, k.exec_hash
                ));
            }
            for salt in ["", "release-2"] {
                let fp = footprint_for_cell(entry, stand, salt);
                let key = fp.key(
                    hash_suite(entry.suite),
                    hash_exec_options(&ExecOptions::default()),
                );
                lines.push(format!(
                    "footprint-digests {cell}/salt={salt:?} plan_hash={:016x} dut_slice_hash={:016x} cell_key={}",
                    fp.plan_hash,
                    fp.dut_slice_hash,
                    key.cell_key()
                ));
            }
        }
    }
    lines
}

#[test]
fn keys_match_the_golden_digests() {
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
        "{} of {} key lines moved ({} lines now, {} golden):\n{}",
        moved.len(),
        golden.len(),
        now.len(),
        golden.len(),
        moved.join("\n")
    );
}

#[test]
#[ignore = "rewrites the golden keys; run only for a deliberate re-keying"]
fn bless_golden_digests() {
    let mut text = digests().join("\n");
    text.push('\n');
    std::fs::write(comptest::asset(GOLDEN), text).unwrap();
}
