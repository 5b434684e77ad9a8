//! Experiment E7 (test-quality half): fault-injection campaigns over the
//! ECU library. The paper's motivation — sheets preserve knowledge about
//! past bugs — is only real if the sheets actually detect injected bugs.

use comptest::core::faultcamp::run_fault_campaign;
use comptest::dut::ecus::{central_lock, interior_light, power_window, wiper};
use comptest::dut::{Behavior, Device, ElectricalConfig};
use comptest::prelude::*;
use comptest_model::SimTime;

fn build_device(ecu: &str, cfg: ElectricalConfig, fault: Option<&FaultKind>) -> Device {
    let behavior: Box<dyn Behavior + Send> = match ecu {
        "interior_light" => Box::new(interior_light::InteriorLight::new()),
        "wiper" => Box::new(wiper::Wiper::new()),
        "power_window" => Box::new(power_window::PowerWindow::new()),
        "central_lock" => Box::new(central_lock::CentralLock::new()),
        other => panic!("unknown ecu {other}"),
    };
    let behavior: Box<dyn Behavior + Send> = match fault {
        Some(f) if !f.is_device_level() => Box::new(FaultyBehavior::new(behavior, vec![f.clone()])),
        _ => behavior,
    };
    let mut device = match ecu {
        "interior_light" => interior_light::device_with(cfg, behavior),
        "wiper" => wiper::device_with(cfg, behavior),
        "power_window" => power_window::device_with(cfg, behavior),
        "central_lock" => central_lock::device_with(cfg, behavior),
        other => panic!("unknown ecu {other}"),
    };
    if let Some(f) = fault {
        if f.is_device_level() {
            assert!(f.apply_to_device(&mut device));
        }
    }
    device
}

fn cfg_for(stand: &TestStand) -> ElectricalConfig {
    let mut cfg = ElectricalConfig::default();
    if let Some(u) = stand.env().get("ubatt") {
        cfg.ubatt = u;
    }
    cfg
}

#[test]
fn interior_light_faults_are_fully_covered() {
    let wb = Workbook::load(comptest::asset("interior_light.cts")).unwrap();
    let stand = TestStand::load(comptest::asset("stand_a.stand")).unwrap();
    let cfg = cfg_for(&stand);
    let faults = vec![
        FaultKind::StuckOutput {
            port: "lamp",
            value: comptest::dut::PortValue::Bool(true),
        },
        FaultKind::StuckOutput {
            port: "lamp",
            value: comptest::dut::PortValue::Bool(false),
        },
        FaultKind::InvertedOutput { port: "lamp" },
        FaultKind::IgnoredInput { port: "door_fl" },
        FaultKind::IgnoredInput { port: "night" },
        // The paper's 280 s / 25 s rows exist precisely to catch these two:
        FaultKind::TimerScale { factor: 1.5 },
        FaultKind::TimerScale { factor: 0.5 },
        FaultKind::DropCanFrame {
            frame: interior_light::NIGHT_FRAME,
        },
        FaultKind::OutputDelay {
            port: "lamp",
            delay: SimTime::from_secs(1),
        },
    ];
    let result = run_fault_campaign(
        &wb.suite,
        &stand,
        |fault| build_device("interior_light", cfg, fault),
        &faults,
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(
        result.coverage(),
        1.0,
        "the paper suite catches every fault:\n{result}"
    );
    // The timer faults must be caught by the long test specifically.
    let timer_fast = result
        .runs
        .iter()
        .find(|r| r.fault == "timer_x1.5")
        .unwrap();
    assert!(timer_fast
        .detected_by
        .contains(&"interior_illumination".to_owned()));
}

#[test]
fn fault_coverage_across_the_ecu_library() {
    let stand = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
    let cfg = cfg_for(&stand);

    let cases: Vec<(&str, Vec<FaultKind>)> = vec![
        (
            "wiper",
            vec![
                FaultKind::StuckOutput {
                    port: "motor",
                    value: comptest::dut::PortValue::Bool(true),
                },
                FaultKind::InvertedOutput { port: "motor" },
                FaultKind::IgnoredInput { port: "stalk" },
                FaultKind::IgnoredInput { port: "wash" },
                FaultKind::TimerScale { factor: 3.0 },
            ],
        ),
        (
            "power_window",
            vec![
                FaultKind::StuckOutput {
                    port: "motor_up",
                    value: comptest::dut::PortValue::Bool(false),
                },
                FaultKind::InvertedOutput { port: "motor_down" },
                FaultKind::IgnoredInput { port: "pinch" },
                FaultKind::IgnoredInput { port: "btn_down" },
            ],
        ),
        (
            "central_lock",
            vec![
                FaultKind::StuckOutput {
                    port: "actuator",
                    value: comptest::dut::PortValue::Bool(true),
                },
                FaultKind::IgnoredInput { port: "crash" },
                FaultKind::IgnoredInput { port: "unlock_cmd" },
                FaultKind::DropCanFrame {
                    frame: central_lock::CMD_FRAME,
                },
                FaultKind::TimerScale { factor: 0.25 },
            ],
        ),
    ];

    for (ecu, faults) in cases {
        let wb = Workbook::load(comptest::asset(&format!("{ecu}.cts"))).unwrap();
        let result = run_fault_campaign(
            &wb.suite,
            &stand,
            |fault| build_device(ecu, cfg, fault),
            &faults,
            &ExecOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{ecu}: {e}"));
        assert!(
            result.coverage() >= 0.8,
            "{ecu} suite should catch most faults:\n{result}"
        );
    }
}

#[test]
fn continuous_sampling_strictly_increases_detection() {
    // Ablation: a short output delay escapes end-of-step sampling on the
    // quick suites but is caught by continuous monitoring. Continuous
    // sampling is only sound for tests whose expected outputs are stable
    // for the whole step, so `auto_relock` (which legitimately transitions
    // mid-step at t = 60.5 s) is excluded — exactly the semantic trade-off
    // the `comptest_core::exec` module docs describe.
    let mut wb = Workbook::load(comptest::asset("central_lock.cts")).unwrap();
    wb.suite.tests.retain(|t| t.name != "auto_relock");
    let stand = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
    let cfg = cfg_for(&stand);
    let fault = FaultKind::OutputDelay {
        port: "actuator",
        delay: SimTime::from_millis(300),
    };

    let end_of_step = run_fault_campaign(
        &wb.suite,
        &stand,
        |f| build_device("central_lock", cfg, f),
        std::slice::from_ref(&fault),
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(
        !end_of_step.runs[0].detected,
        "0.3 s delay hides from 0.5 s steps sampled at the end:\n{end_of_step}"
    );

    let continuous = run_fault_campaign(
        &wb.suite,
        &stand,
        |f| build_device("central_lock", cfg, f),
        std::slice::from_ref(&fault),
        &ExecOptions {
            sample: SampleMode::Continuous {
                interval: SimTime::from_millis(100),
            },
            ..ExecOptions::default()
        },
    );
    // Continuous sampling may reject the *reference* run if a legitimate
    // transition happens mid-step; for this suite it does not, so the fault
    // must be caught.
    let continuous = continuous.expect("reference run passes under continuous sampling");
    assert!(continuous.runs[0].detected, "{continuous}");
}
