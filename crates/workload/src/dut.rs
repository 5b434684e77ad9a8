//! A synthetic composite DUT: many independent ECU "blocks" behind one
//! device, with per-block [`port_slice`](comptest_dut::Behavior::port_slice)
//! implementations.
//!
//! This is the workload the footprint-keyed cache is built for: a vehicle
//! model aggregating every ECU into one simulated device, where each
//! suite's tests exercise exactly one block. Keyed on the whole device
//! configuration, editing one block's config (a fault set, a firmware
//! revision) would invalidate every cell; keyed on footprints, only the
//! cells whose plans touch the edited block's ports re-execute.
//!
//! Blocks are deliberately inert (outputs constantly low, an optional
//! internal activity tick to make execution expensive): the interesting
//! part is their *configuration identity*, not their dynamics.

use comptest_dut::{Behavior, Device, ElectricalConfig, PinBinding, PortValue};
use comptest_model::SimTime;

/// One independent block of a [`BlockEcu`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpec {
    /// Name prefix for the block's pins: the device binds
    /// `{prefix}OUT_F` / `{prefix}OUT_R` (matching the workbooks of
    /// [`gen_workbook_text_prefixed`](crate::suites::gen_workbook_text_prefixed)
    /// and the stand of [`block_stand`](crate::stands::block_stand)).
    pub prefix: String,
    /// The block's behaviour output port. Pin bindings require `'static`
    /// port names — leak each name **once** per program (not per device
    /// build) and reuse the spec across builds.
    pub out_port: &'static str,
    /// The block's behavioural configuration (fault set, firmware
    /// revision, calibration, …). Rendered into the block's
    /// `port_slice`, so editing it moves exactly the footprint keys of
    /// the cells that touch this block.
    pub config: String,
}

/// A composite behaviour made of independent [`BlockSpec`] blocks.
///
/// Every output reads constantly low (generated workbooks check `Dark`),
/// and an optional activity tick schedules dense internal events so that
/// cold execution dominates a campaign run — the asymmetry a cache
/// exploits. `port_slice` maps each block's output port to that block's
/// `prefix` + `config` only, so the footprint-keyed cache can tell
/// which cells an edit actually touches.
#[derive(Debug)]
pub struct BlockEcu {
    blocks: Vec<BlockSpec>,
    outputs: Vec<&'static str>,
    /// Internal activity period; `None` = no internal events.
    tick: Option<SimTime>,
    next: Option<SimTime>,
}

impl BlockEcu {
    /// Builds the composite behaviour. `tick` schedules an internal event
    /// every period (pass `None` for an event-free model).
    pub fn new(blocks: Vec<BlockSpec>, tick: Option<SimTime>) -> Self {
        let outputs = blocks.iter().map(|b| b.out_port).collect();
        Self {
            blocks,
            outputs,
            tick,
            next: tick,
        }
    }
}

impl Behavior for BlockEcu {
    fn name(&self) -> &str {
        "vehicle"
    }

    fn inputs(&self) -> &[&'static str] {
        &[]
    }

    fn outputs(&self) -> &[&'static str] {
        &self.outputs
    }

    fn reset(&mut self, now: SimTime) {
        self.next = self.tick.map(|t| now.saturating_add(t));
    }

    fn set_input(&mut self, _port: &str, _value: PortValue, _now: SimTime) {}

    fn advance(&mut self, now: SimTime) {
        if let (Some(tick), Some(next)) = (self.tick, &mut self.next) {
            while *next <= now {
                *next = next.saturating_add(tick);
            }
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        self.next
    }

    fn output(&self, _port: &str) -> PortValue {
        PortValue::Bool(false)
    }

    fn port_slice(&self, port: &str) -> Option<String> {
        self.blocks
            .iter()
            .find(|b| b.out_port == port)
            .map(|b| format!("{}={}", b.prefix, b.config))
    }
}

/// Builds the composite device for `blocks`: per block, the pins
/// `{prefix}OUT_F` (output) and `{prefix}OUT_R` (return) are bound; input
/// pins carry stand-side stimulus only and need no binding.
pub fn block_device(blocks: &[BlockSpec], cfg: ElectricalConfig, tick: Option<SimTime>) -> Device {
    let mut builder = Device::builder(Box::new(BlockEcu::new(blocks.to_vec(), tick))).config(cfg);
    for block in blocks {
        builder = builder
            .pin(
                &format!("{}OUT_F", block.prefix),
                PinBinding::Output {
                    port: block.out_port,
                },
            )
            .pin(&format!("{}OUT_R", block.prefix), PinBinding::Return);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(configs: [&str; 2]) -> Vec<BlockSpec> {
        vec![
            BlockSpec {
                prefix: "e0_".into(),
                out_port: "e0_out",
                config: configs[0].into(),
            },
            BlockSpec {
                prefix: "e1_".into(),
                out_port: "e1_out",
                config: configs[1].into(),
            },
        ]
    }

    #[test]
    fn port_slices_cover_exactly_their_block() {
        let device = block_device(&specs(["a", "b"]), ElectricalConfig::default(), None);
        assert_eq!(device.port_slice("e0_out").unwrap(), "e0_=a");
        assert_eq!(device.port_slice("e1_out").unwrap(), "e1_=b");
        assert_eq!(device.port_slice("nonexistent"), None);

        // Editing block 1 leaves block 0's slice untouched — the property
        // footprint keying hinges on.
        let edited = block_device(&specs(["a", "b2"]), ElectricalConfig::default(), None);
        assert_eq!(device.port_slice("e0_out"), edited.port_slice("e0_out"));
        assert_ne!(device.port_slice("e1_out"), edited.port_slice("e1_out"));
    }

    #[test]
    fn activity_tick_schedules_events() {
        let tick = SimTime::from_micros(50);
        let mut ecu = BlockEcu::new(specs(["a", "b"]), Some(tick));
        ecu.reset(SimTime::ZERO);
        let first = ecu.next_event().expect("tick scheduled");
        assert_eq!(first, tick);
        ecu.advance(first);
        assert!(ecu.next_event().unwrap() > first);

        let mut quiet = BlockEcu::new(specs(["a", "b"]), None);
        quiet.reset(SimTime::ZERO);
        assert_eq!(quiet.next_event(), None);
    }
}
