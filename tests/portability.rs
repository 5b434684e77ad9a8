//! Experiments E3/T3 and E4/T4: resource descriptions, the connection
//! matrix, and the paper's central portability claim — including the error
//! message when a stand cannot serve a script.

use comptest::core::portability::check_portability;
use comptest::prelude::*;

#[test]
fn portability_matrix_over_three_stands() {
    let wb = Workbook::load(comptest::asset("interior_light.cts")).unwrap();
    let a = TestStand::load(comptest::asset("stand_a.stand")).unwrap();
    let b = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
    let mini = TestStand::load(comptest::asset("stand_minimal.stand")).unwrap();

    let report = check_portability(&wb.suite, &[&a, &b, &mini]).unwrap();
    assert_eq!(report.rows.len(), 9, "3 tests × 3 stands");
    // Full stands run everything.
    assert!(report.for_stand("HIL-A").all(|r| r.ok));
    assert!(report.for_stand("SUPPLIER-B").all(|r| r.ok));
    // The minimal stand (no DVM, no CAN) runs nothing.
    assert!(report.for_stand("MINI").all(|r| !r.ok));
    assert!((report.portability() - 2.0 / 3.0).abs() < 1e-9);

    // The error message names the method and signal, like the paper's
    // interpreter would.
    let failing = report.for_stand("MINI").next().unwrap();
    let err = failing.error.as_ref().unwrap();
    assert!(
        err.contains("no resource for") || err.contains("Statement"),
        "unhelpful error: {err}"
    );
}

#[test]
fn scripts_are_bit_identical_across_stands() {
    // Portability claim at the artifact level: the XML handed to stand A is
    // byte-for-byte the XML handed to stand B — nothing stand-specific
    // leaks into the test definition.
    let wb = Workbook::load(comptest::asset("interior_light.cts")).unwrap();
    let script = generate(&wb.suite, "interior_illumination").unwrap();
    let xml_for_a = script.to_xml();
    let xml_for_b = script.to_xml();
    assert_eq!(xml_for_a, xml_for_b);
    // And both stands can plan that identical artifact.
    let a = TestStand::load(comptest::asset("stand_a.stand")).unwrap();
    let b = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
    let reparsed = TestScript::parse_xml(&xml_for_a).unwrap();
    assert!(plan(&reparsed, &a).is_ok());
    assert!(plan(&reparsed, &b).is_ok());
}

#[test]
fn stand_b_resolves_bounds_with_its_own_supply() {
    // The same script measures against 13.8 V on stand B: the planned
    // bounds must scale with the stand's ubatt, not the authoring stand's.
    use comptest::stand::Action;
    use comptest_model::StatusBound;
    let wb = Workbook::load(comptest::asset("interior_light.cts")).unwrap();
    let script = generate(&wb.suite, "interior_illumination").unwrap();
    let b = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
    let plan_b = plan(&script, &b).unwrap();
    let mut saw_ho = false;
    for step in &plan_b.steps {
        for action in &step.actions {
            if let Action::Check(check) = action {
                if let StatusBound::Numeric { hi, .. } = check.bound {
                    if (hi - 1.1 * 13.8).abs() < 1e-9 {
                        saw_ho = true;
                    }
                }
            }
        }
    }
    assert!(
        saw_ho,
        "Ho's u_max must evaluate to 1.1 × 13.8 V on stand B"
    );
}

#[test]
fn greedy_allocation_is_strictly_weaker() {
    // Ablation (`AllocOptions::reroute`, see the `comptest_stand::alloc`
    // module docs): on the paper stand, a workload needing the
    // big decade later fails under greedy allocation but succeeds with
    // rerouting.
    use comptest::stand::{plan_with, AllocOptions};
    use comptest_model::MethodRegistry;

    let xml = r#"<?xml version="1.0"?>
<testscript name="reroute_demo" suite="x" version="1">
  <signals>
    <signal name="ds_fl" kind="pin:DS_FL" direction="input"/>
    <signal name="ds_fr" kind="pin:DS_FR" direction="input"/>
  </signals>
  <step nr="0" dt="0.1">
    <signal name="ds_fl"><put_r r="100" r_min="90" r_max="110"/></signal>
  </step>
  <step nr="1" dt="0.1">
    <signal name="ds_fr"><put_r r="500000" r_min="400000" r_max="600000"/></signal>
  </step>
</testscript>"#;
    let script = TestScript::parse_xml(xml).unwrap();
    let a = TestStand::load(comptest::asset("stand_a.stand")).unwrap();
    let registry = MethodRegistry::builtin();

    assert!(
        plan_with(&script, &a, AllocOptions { reroute: true }, &registry).is_ok(),
        "rerouting moves ds_fl onto the small decade"
    );
    let err = plan_with(&script, &a, AllocOptions { reroute: false }, &registry).unwrap_err();
    assert!(err.to_string().contains("no resource"), "{err}");
}
