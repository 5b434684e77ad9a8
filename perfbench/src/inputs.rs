//! Seeded input generation: stand sets derived from the bundled stands,
//! and input properties the layer report needs.

use std::collections::BTreeSet;
use std::path::PathBuf;

use comptest_model::TestSuite;
use comptest_stand::TestStand;
use comptest_workload::SplitMix64;

/// The bundled ECUs, in catalogue order (workbooks `assets/<ecu>.cts`).
pub const ECUS: [&str; 5] = comptest_dut::ecus::NAMES;

/// The repository's bundled assets directory.
pub fn assets_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../assets"))
}

/// Reads one bundled asset as text.
///
/// # Errors
///
/// Returns a rendered I/O error.
pub fn read_asset(name: &str) -> Result<String, String> {
    let path = assets_dir().join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Which bundled stand a generated stand derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandKind {
    /// `stand_a.stand`: only the interior light plans here.
    A,
    /// `stand_b.stand`: every bundled workbook plans here.
    B,
}

impl StandKind {
    fn asset(self) -> &'static str {
        match self {
            StandKind::A => "stand_a.stand",
            StandKind::B => "stand_b.stand",
        }
    }
}

/// Generates the text of one stand derived from a bundled stand: renamed
/// to `name`, with the rows of its switch matrix in a seeded order (the
/// order the planner meets crosspoints in). Resources keep their order, so
/// every derived stand plans exactly the suites its template plans.
///
/// # Errors
///
/// Returns a rendered error when the bundled stand cannot be read.
pub fn stand_text(kind: StandKind, name: &str, rng: &mut SplitMix64) -> Result<String, String> {
    let template = read_asset(kind.asset())?;
    let mut out = Vec::new();
    let mut matrix_rows: Vec<&str> = Vec::new();
    let mut section = "";
    let mut header_seen = false;
    for line in template.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            section = trimmed;
            header_seen = false;
            out.push(line.to_owned());
            continue;
        }
        if trimmed.starts_with("name") && section == "[stand]" {
            out.push(format!("name = {name}"));
            continue;
        }
        if section == "[matrix]" && !trimmed.is_empty() && !trimmed.starts_with('#') {
            if header_seen {
                matrix_rows.push(line);
                continue;
            }
            header_seen = true;
        }
        out.push(line.to_owned());
    }
    for i in (1..matrix_rows.len()).rev() {
        matrix_rows.swap(i, rng.index(i + 1));
    }
    out.extend(matrix_rows.iter().map(|row| (*row).to_owned()));
    out.push(String::new());
    Ok(out.join("\n"))
}

/// A seeded stand set as `(name, text)` pairs: one stand per entry of
/// `kinds`, named `{tag}-{i}` so names are unique within the set.
///
/// # Errors
///
/// Returns a rendered error when a bundled stand cannot be read.
pub fn stand_set(
    kinds: &[StandKind],
    tag: &str,
    rng: &mut SplitMix64,
) -> Result<Vec<(String, String)>, String> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let name = format!("{tag}-{i}");
            let text = stand_text(kind, &name, rng)?;
            Ok((name, text))
        })
        .collect()
}

/// Parses generated stand texts.
///
/// # Errors
///
/// Returns the first parse error, rendered.
pub fn parse_stands(texts: &[(String, String)]) -> Result<Vec<TestStand>, String> {
    texts
        .iter()
        .map(|(name, text)| {
            TestStand::parse_str(&format!("{name}.stand"), text).map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// Distinct (suite, signal set, stand) triples per test job: the share of
/// plan calls a plan memo keyed by the signals a test drives could not
/// serve from an earlier call. `1` means every test drives its own set.
pub fn distinct_plan_ratio(suites: &[&TestSuite], stands: usize) -> f64 {
    let mut distinct = BTreeSet::new();
    let mut tests = 0usize;
    for suite in suites {
        for test in &suite.tests {
            let signals: BTreeSet<String> = test
                .steps
                .iter()
                .flat_map(|step| step.assignments.iter())
                .map(|a| a.signal.key())
                .collect();
            distinct.insert((suite.name.clone(), signals));
            tests += 1;
        }
    }
    if tests == 0 {
        return 0.0;
    }
    // Stands never share plans, so both counts scale with the stand count.
    (distinct.len() * stands) as f64 / (tests * stands) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_stands_are_renamed_reordered_and_seeded() {
        let a = stand_text(StandKind::B, "B-x", &mut SplitMix64::new(1)).unwrap();
        let b = stand_text(StandKind::B, "B-x", &mut SplitMix64::new(1)).unwrap();
        let c = stand_text(StandKind::B, "B-x", &mut SplitMix64::new(2)).unwrap();
        assert_eq!(a, b, "same seed, same stand");
        assert_ne!(a, c, "another seed reorders the matrix");
        let stand = TestStand::parse_str("b.stand", &a).unwrap();
        let bundled =
            TestStand::parse_str("b.stand", &read_asset("stand_b.stand").unwrap()).unwrap();
        assert_eq!(stand.name(), "B-x");
        assert_eq!(stand.matrix().len(), bundled.matrix().len());
        assert_eq!(stand.resources().len(), bundled.resources().len());
    }

    #[test]
    fn stand_sets_have_unique_names() {
        let set = stand_set(
            &[StandKind::A, StandKind::B, StandKind::A],
            "s7",
            &mut SplitMix64::new(3),
        )
        .unwrap();
        let names: BTreeSet<&str> = set.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert_eq!(parse_stands(&set).unwrap().len(), 3);
    }
}
