//! `repro` — regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run -p comptest-bench --bin repro -- all
//! cargo run -p comptest-bench --bin repro -- t1   # one experiment
//! ```
//!
//! Experiments: `t1` test sheet, `t2` status table,
//! `t3` resource table, `t4` connection matrix / allocation, `f1` test
//! circuit execution trace, `l1` XML listing, `s5` campaign + portability +
//! fault coverage.

use comptest::core::campaign::CampaignEntry;
use comptest::core::coverage::RequirementCoverage;
use comptest::core::faultcamp::run_fault_campaign;
use comptest::core::portability::check_portability;
use comptest::core::TraceEvent;
use comptest::prelude::*;
use comptest::report::{step_table, suite_text, TextTable};
use comptest_bench::{
    build_device, cfg_for, fault_set, load_stand, load_suite, sparse_alloc_case, ECUS,
};
use comptest_model::Env;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let run = |name: &str| which == "all" || which == name;

    if run("t1") {
        exp_t1();
    }
    if run("t2") {
        exp_t2();
    }
    if run("t3") {
        exp_t3();
    }
    if run("t4") {
        exp_t4();
    }
    if run("f1") {
        exp_f1();
    }
    if run("l1") {
        exp_l1();
    }
    if run("s5") {
        exp_s5();
    }
    if !["all", "t1", "t2", "t3", "t4", "f1", "l1", "s5"].contains(&which) {
        eprintln!("unknown experiment {which:?}; use t1|t2|t3|t4|f1|l1|s5|all");
        std::process::exit(2);
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// E1/T1: the paper's test definition sheet, executed.
fn exp_t1() {
    banner("E1 / T1 — test definition sheet (interior illumination, 10 steps)");
    let suite = load_suite("interior_light");
    let stand = load_stand("stand_a.stand");
    let mut dut = build_device("interior_light", cfg_for(&stand), None);
    let result = run_test(
        &suite,
        "interior_illumination",
        &stand,
        &mut dut,
        &ExecOptions::default(),
    )
    .expect("plans on stand A");
    println!("{}", step_table(&result));
    println!(
        "paper: all steps behave as specified | measured: {} ({} checks)",
        result.verdict(),
        result.check_count()
    );
}

/// E2/T2: the status table resolved against several supply voltages.
fn exp_t2() {
    banner("E2 / T2 — status definition table resolved per stand voltage");
    let suite = load_suite("interior_light");
    let mut table = TextTable::new(vec![
        "status",
        "method",
        "attr",
        "ubatt=10.8",
        "ubatt=12",
        "ubatt=14.4",
    ]);
    for def in suite.statuses.iter() {
        let mut cells = vec![
            def.name.to_string(),
            def.method.to_string(),
            def.attribut.clone(),
        ];
        for u in [10.8, 12.0, 14.4] {
            let resolved = def.resolve(&Env::with_ubatt(u)).unwrap();
            cells.push(resolved.bound.to_string());
        }
        table.row(cells);
    }
    println!("{table}");
    println!("paper: limits scale with UBATT | measured: table above");
}

/// E3/T3: the resource table as parsed.
fn exp_t3() {
    banner("E3 / T3 — resource tables of the bundled stands");
    for file in ["stand_a.stand", "stand_b.stand", "stand_minimal.stand"] {
        let stand = load_stand(file);
        print!("{stand}");
    }
    println!("paper: Ress1 DVM ±60 V, decades 1 MΩ / 200 kΩ | measured: HIL-A above");
}

/// E4/T4: the connection matrix and per-step allocations.
fn exp_t4() {
    banner("E4 / T4 — connection matrix and per-step resource allocation");
    let stand = load_stand("stand_a.stand");
    println!("{}", stand.matrix());

    let suite = load_suite("interior_light");
    let script = generate(&suite, "interior_illumination").unwrap();
    let plan = plan(&script, &stand).unwrap();

    let mut table = TextTable::new(vec!["step", "signal", "action", "resource", "value"]);
    for action in &plan.init {
        push_action_row(&mut table, "init", action);
    }
    for step in &plan.steps {
        for action in &step.actions {
            push_action_row(&mut table, &step.nr.to_string(), action);
        }
    }
    println!("{table}");
    println!("paper: interpreter searches an appropriate, connectable resource");
    println!("measured: every statement above resolved (Park = pin left open)");

    // Scaling sweep (indicative wall-clock; criterion benches in
    // benches/t4_allocation.rs give the statistically solid numbers).
    use comptest_workload::{gen_script, gen_stand, ScriptShape, SplitMix64, StandShape};
    println!("\nallocation scaling (100 steps, reroute on):");
    let mut sweep = TextTable::new(vec!["pins", "resources", "crosspoints", "plan time"]);
    for (pins, resources) in [(8usize, 2usize), (32, 8), (128, 16), (256, 32)] {
        let mut rng = SplitMix64::new(7);
        let stand = gen_stand(
            &mut rng,
            &StandShape {
                pins,
                put_resources: resources,
                get_resources: 2,
                density: 0.4,
            },
        );
        let script = gen_script(
            &mut rng,
            &ScriptShape {
                signals: pins,
                steps: 100,
                puts_per_step: 3,
                concurrency: resources,
            },
        );
        sweep.row(vec![
            pins.to_string(),
            resources.to_string(),
            stand.matrix().len().to_string(),
            format!("{:?}", time_plan(&script, &stand)),
        ]);
    }
    println!("{sweep}");

    println!("sparse block stands (20 steps, one or two resources per pin):");
    let mut sparse = TextTable::new(vec!["blocks", "resources", "crosspoints", "plan time"]);
    for (blocks, signals) in [(16usize, 2usize), (64, 4)] {
        let (stand, script) = sparse_alloc_case(blocks, signals);
        if let Err(e) = comptest::stand::plan(&script, &stand) {
            panic!("sparse block stand {blocks}x{signals} must plan: {e}");
        }
        sparse.row(vec![
            blocks.to_string(),
            stand.resources().len().to_string(),
            stand.matrix().len().to_string(),
            format!("{:?}", time_plan(&script, &stand)),
        ]);
    }
    println!("{sparse}");
}

/// Mean wall time of one plan: warm once, then time a few repetitions.
fn time_plan(script: &TestScript, stand: &TestStand) -> std::time::Duration {
    let _ = comptest::stand::plan(script, stand);
    let reps = 20;
    let start = std::time::Instant::now();
    for _ in 0..reps {
        let _ = comptest::stand::plan(script, stand);
    }
    start.elapsed() / reps
}

fn push_action_row(table: &mut TextTable, step: &str, action: &comptest::stand::Action) {
    match action {
        comptest::stand::Action::Apply {
            signal,
            resource,
            method,
            value,
            ..
        } => {
            table.row(vec![
                step.to_owned(),
                signal.to_string(),
                method.to_string(),
                resource.to_string(),
                value.to_string(),
            ]);
        }
        comptest::stand::Action::Check(check) => {
            table.row(vec![
                step.to_owned(),
                check.signal.to_string(),
                check.method.to_string(),
                check.resource.to_string(),
                check.bound.to_string(),
            ]);
        }
    }
}

/// E5/F1: the simulated test circuit's electrical trace.
fn exp_f1() {
    banner("E5 / F1 — test circuit execution trace (stand A wiring)");
    let suite = load_suite("interior_light");
    let stand = load_stand("stand_a.stand");
    let mut dut = build_device("interior_light", cfg_for(&stand), None);
    let result = run_test(
        &suite,
        "interior_illumination",
        &stand,
        &mut dut,
        &ExecOptions::default(),
    )
    .unwrap();
    let mut shown = 0;
    for event in &result.trace {
        println!("{event}");
        shown += 1;
        if shown > 40 {
            let remaining = result.trace.len() - shown;
            println!("… {remaining} further events");
            break;
        }
    }
    let measures = result
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Measured { .. }))
        .count();
    println!(
        "paper: DVM via Sw1.1/Sw1.2, decades via Mx columns | measured: {measures} measurements, verdict {}",
        result.verdict()
    );
}

/// E6/L1: the generated XML listing, byte-compared to the paper's fragment.
fn exp_l1() {
    banner("E6 / L1 — generated XML test script");
    let suite = load_suite("interior_light");
    let script = generate(&suite, "interior_illumination").unwrap();
    let xml = script.to_xml();
    let paper_fragment = r#"<get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/>"#;
    let reproduced = xml.contains(paper_fragment);
    for line in xml.lines().take(24) {
        println!("{line}");
    }
    println!("…");
    println!("paper fragment  : {paper_fragment}");
    println!(
        "measured        : {}",
        if reproduced {
            "byte-identical statement present"
        } else {
            "MISSING"
        }
    );
    let back = TestScript::parse_xml(&xml).unwrap();
    println!(
        "roundtrip       : {}",
        if back == script {
            "parse(write(script)) == script"
        } else {
            "BROKEN"
        }
    );
}

/// E7/§5: campaign, portability and fault coverage.
fn exp_s5() {
    banner("E7 / §5 — ECU campaign across stands");
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let suites: Vec<TestSuite> = ECUS.iter().map(|e| load_suite(e)).collect();

    let entries: Vec<CampaignEntry> = suites
        .iter()
        .zip(ECUS)
        .map(|(suite, ecu)| CampaignEntry {
            suite,
            device_factory: Box::new(move || {
                build_device(ecu, comptest::dut::ElectricalConfig::default(), None)
            }),
        })
        .collect();
    let stands = [&stand_a, &stand_b];
    let campaign = Campaign::new(&entries, &stands)
        .run(&SerialExecutor)
        .expect("valid suites");
    println!("{campaign}");

    banner("E7 — portability matrix (3 stands)");
    let mini = load_stand("stand_minimal.stand");
    for suite in &suites {
        let report = check_portability(suite, &[&stand_a, &stand_b, &mini]).unwrap();
        let ok = report.rows.iter().filter(|r| r.ok).count();
        println!(
            "{:<16} {:>2}/{} (test,stand) pairs runnable",
            suite.name,
            ok,
            report.rows.len()
        );
    }

    banner("E7 — fault-injection coverage per ECU (stand B)");
    let mut table = TextTable::new(vec!["ecu", "faults", "detected", "coverage", "escapes"]);
    for ecu in ECUS {
        let suite = load_suite(ecu);
        let stand = if ecu == "interior_light" {
            &stand_a
        } else {
            &stand_b
        };
        let faults = fault_set(ecu);
        let result = run_fault_campaign(
            &suite,
            stand,
            |f| build_device(ecu, cfg_for(stand), f),
            &faults,
            &ExecOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{ecu}: {e}"));
        let detected = result.runs.iter().filter(|r| r.detected).count();
        let escapes: Vec<String> = result.escapes().iter().map(|r| r.fault.clone()).collect();
        table.row(vec![
            ecu.to_owned(),
            result.runs.len().to_string(),
            detected.to_string(),
            format!("{:.0}%", result.coverage() * 100.0),
            if escapes.is_empty() {
                "-".into()
            } else {
                escapes.join(", ")
            },
        ]);
    }
    println!("{table}");

    banner("E7 — requirement coverage (stand B)");
    for ecu in ECUS {
        let suite = load_suite(ecu);
        let stand = load_stand("stand_b.stand");
        let results = run_suite(
            &suite,
            &stand,
            || build_device(ecu, cfg_for(&stand), None),
            &ExecOptions::default(),
        )
        .unwrap();
        let cov = RequirementCoverage::from_suite(&suite).with_results(&results);
        println!(
            "{:<16} {:>2} requirements, {:>2} verified",
            ecu,
            cov.requirement_count(),
            cov.verified().len()
        );
        print!("{}", suite_text(&results));
    }
    println!("paper: 'successfully applied to two ECUs of the next S-class'");
    println!("measured: 4 ECU suites pass on the supplier stand; see tables above");
}
