//! Shared fixtures for the benchmarks and the `repro` harness.
//!
//! The criterion benches and the table-printing harness load their inputs
//! through this crate, so both measure exactly the same artifacts. Gated
//! performance numbers come from the separate `perfbench` workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use comptest::dut::ecus::{central_lock, flasher, interior_light, power_window, wiper};
use comptest::dut::{Behavior, Device, ElectricalConfig, FaultKind, FaultyBehavior, PortValue};
use comptest::prelude::*;
use comptest_model::SimTime;

/// The bundled ECU names (suite files `assets/<name>.cts`).
pub const ECUS: [&str; 5] = comptest::dut::ecus::NAMES;

/// Loads a bundled workbook's suite by ECU name.
///
/// # Panics
///
/// Panics when the asset is missing or malformed — fixtures are part of the
/// repository.
pub fn load_suite(ecu: &str) -> TestSuite {
    Workbook::load(comptest::asset(&format!("{ecu}.cts")))
        .unwrap_or_else(|e| panic!("asset workbook {ecu}: {e}"))
        .suite
}

/// Loads a bundled stand by file name (`stand_a.stand`, …).
///
/// # Panics
///
/// Panics when the asset is missing or malformed.
pub fn load_stand(file: &str) -> TestStand {
    TestStand::load(comptest::asset(file)).unwrap_or_else(|e| panic!("asset stand {file}: {e}"))
}

/// The sparse allocation case: a `blocks`-block
/// [`block_stand`](comptest_workload::block_stand) with `signals` decades
/// per block (one resource per input pin, one DVM per output pair) and a
/// 20-step generated script for its last block. Every pin is reachable from
/// one or two of the stand's `blocks × (signals + 1)` resources.
///
/// # Panics
///
/// Panics when `blocks` is zero.
pub fn sparse_alloc_case(blocks: usize, signals: usize) -> (TestStand, TestScript) {
    use comptest_workload::{block_stand, gen_workbook_text_prefixed, SplitMix64, WorkbookShape};
    let prefixes: Vec<String> = (0..blocks).map(|k| format!("e{k}_")).collect();
    let prefix_refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
    let stand = block_stand(&prefix_refs, signals);
    let shape = WorkbookShape {
        signals,
        tests: 1,
        steps: 20,
    };
    let text = gen_workbook_text_prefixed(&mut SplitMix64::new(17), &shape, &prefixes[blocks - 1]);
    let suite = Workbook::parse_str("sparse.cts", &text)
        .expect("generated workbooks parse")
        .suite;
    let script = generate_all(&suite)
        .expect("generated workbooks validate")
        .remove(0);
    (stand, script)
}

/// The electrical configuration matching a stand's supply rail.
pub fn cfg_for(stand: &TestStand) -> ElectricalConfig {
    let mut cfg = ElectricalConfig::default();
    if let Some(u) = stand.env().get("ubatt") {
        cfg.ubatt = u;
    }
    cfg
}

/// Builds an ECU device, optionally with one injected fault.
///
/// # Panics
///
/// Panics for unknown ECU names.
pub fn build_device(ecu: &str, cfg: ElectricalConfig, fault: Option<&FaultKind>) -> Device {
    let behavior: Box<dyn Behavior + Send> = match ecu {
        "interior_light" => Box::new(interior_light::InteriorLight::new()),
        "wiper" => Box::new(wiper::Wiper::new()),
        "power_window" => Box::new(power_window::PowerWindow::new()),
        "central_lock" => Box::new(central_lock::CentralLock::new()),
        "flasher" => Box::new(flasher::Flasher::new()),
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
        "flasher" => flasher::device_with(cfg, behavior),
        other => panic!("unknown ecu {other}"),
    };
    if let Some(f) = fault {
        if f.is_device_level() {
            assert!(f.apply_to_device(&mut device));
        }
    }
    device
}

/// The standard fault set per ECU used by experiment E7 (and the
/// `fault_coverage` example for the interior light).
pub fn fault_set(ecu: &str) -> Vec<FaultKind> {
    match ecu {
        "interior_light" => vec![
            FaultKind::StuckOutput {
                port: "lamp",
                value: PortValue::Bool(true),
            },
            FaultKind::StuckOutput {
                port: "lamp",
                value: PortValue::Bool(false),
            },
            FaultKind::InvertedOutput { port: "lamp" },
            FaultKind::IgnoredInput { port: "door_fl" },
            FaultKind::IgnoredInput { port: "door_fr" },
            FaultKind::IgnoredInput { port: "night" },
            FaultKind::TimerScale { factor: 1.5 },
            FaultKind::TimerScale { factor: 0.5 },
            FaultKind::OutputDelay {
                port: "lamp",
                delay: SimTime::from_secs(1),
            },
            FaultKind::ThresholdShift { delta: 0.35 },
            FaultKind::DropCanFrame {
                frame: interior_light::NIGHT_FRAME,
            },
            FaultKind::DropCanFrame {
                frame: interior_light::IGN_FRAME,
            },
        ],
        "wiper" => vec![
            FaultKind::StuckOutput {
                port: "motor",
                value: PortValue::Bool(true),
            },
            FaultKind::StuckOutput {
                port: "motor",
                value: PortValue::Bool(false),
            },
            FaultKind::InvertedOutput { port: "motor" },
            FaultKind::InvertedOutput { port: "fast" },
            FaultKind::IgnoredInput { port: "stalk" },
            FaultKind::IgnoredInput { port: "wash" },
            FaultKind::TimerScale { factor: 3.0 },
            FaultKind::OutputDelay {
                port: "motor",
                delay: SimTime::from_secs(2),
            },
            FaultKind::DropCanFrame {
                frame: wiper::STALK_FRAME,
            },
        ],
        "power_window" => vec![
            FaultKind::StuckOutput {
                port: "motor_up",
                value: PortValue::Bool(false),
            },
            FaultKind::StuckOutput {
                port: "motor_down",
                value: PortValue::Bool(true),
            },
            FaultKind::InvertedOutput { port: "motor_down" },
            FaultKind::IgnoredInput { port: "pinch" },
            FaultKind::IgnoredInput { port: "btn_up" },
            FaultKind::IgnoredInput { port: "btn_down" },
            FaultKind::TimerScale { factor: 2.0 },
        ],
        "central_lock" => vec![
            FaultKind::StuckOutput {
                port: "actuator",
                value: PortValue::Bool(true),
            },
            FaultKind::StuckOutput {
                port: "actuator",
                value: PortValue::Bool(false),
            },
            FaultKind::InvertedOutput { port: "actuator" },
            FaultKind::IgnoredInput { port: "crash" },
            FaultKind::IgnoredInput { port: "lock_cmd" },
            FaultKind::IgnoredInput { port: "unlock_cmd" },
            FaultKind::TimerScale { factor: 0.25 },
            FaultKind::DropCanFrame {
                frame: central_lock::CMD_FRAME,
            },
        ],
        "flasher" => vec![
            FaultKind::StuckOutput {
                port: "lamp_l",
                value: PortValue::Bool(true),
            },
            FaultKind::StuckOutput {
                port: "lamp_l",
                value: PortValue::Bool(false),
            },
            FaultKind::InvertedOutput { port: "lamp_l" },
            FaultKind::IgnoredInput { port: "stalk" },
            FaultKind::IgnoredInput { port: "outage" },
            FaultKind::TimerScale { factor: 2.0 },
            FaultKind::TimerScale { factor: 0.5 },
            FaultKind::DropCanFrame {
                frame: flasher::STALK_FRAME,
            },
        ],
        other => panic!("unknown ecu {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_load() {
        for ecu in ECUS {
            let suite = load_suite(ecu);
            assert!(!suite.tests.is_empty());
            assert!(!fault_set(ecu).is_empty());
            let stand = load_stand("stand_b.stand");
            let device = build_device(ecu, cfg_for(&stand), None);
            assert_eq!(device.behavior_name(), ecu);
        }
    }

    #[test]
    fn faulty_fixture_devices_build() {
        let stand = load_stand("stand_a.stand");
        for fault in fault_set("interior_light") {
            let d = build_device("interior_light", cfg_for(&stand), Some(&fault));
            // Behaviour-level faults rename the behaviour; device-level keep it.
            if fault.is_device_level() {
                assert_eq!(d.behavior_name(), "interior_light");
            } else {
                assert!(d.behavior_name().starts_with("interior_light!"));
            }
        }
    }
}
