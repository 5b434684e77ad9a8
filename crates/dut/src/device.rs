//! [`Device`]: a behaviour wired to pins and CAN fields.
//!
//! The execution engine never talks to behaviours directly; it applies pin
//! drives and CAN fields to a device and measures pin voltages or reads CAN
//! fields back, exactly like the instruments of a real stand.

use std::collections::BTreeMap;

use comptest_model::{CanFrameId, PinId, SimTime};

use crate::behavior::{Behavior, PortValue};
use crate::can::CanBus;
use crate::elec::{pin_voltage, DigitalInput, DutPinMode, ElectricalConfig, PinDrive};

/// How a DUT pin relates to the behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinBinding {
    /// Digital input port (active-low: a grounded pin reads `true`).
    InputActiveLow {
        /// Behaviour input port.
        port: &'static str,
    },
    /// Digital input port (active-high: a high pin reads `true`).
    InputActiveHigh {
        /// Behaviour input port.
        port: &'static str,
    },
    /// Push-pull output pin driven by a boolean output port.
    Output {
        /// Behaviour output port.
        port: &'static str,
    },
    /// Ground return terminal (second pin of differential loads).
    Return,
}

/// A CAN field binding.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CanBinding {
    frame: CanFrameId,
    start_bit: u8,
    width: u8,
    port: &'static str,
    /// true = DUT input (stand writes), false = DUT output (DUT transmits).
    input: bool,
}

/// A simulated DUT instance.
#[derive(Debug)]
pub struct Device {
    behavior: Box<dyn Behavior + Send>,
    cfg: ElectricalConfig,
    pins: BTreeMap<PinId, PinBinding>,
    can: Vec<CanBinding>,
    bus: CanBus,
    drives: BTreeMap<PinId, PinDrive>,
    inputs: BTreeMap<PinId, DigitalInput>,
    dropped_frames: Vec<CanFrameId>,
    /// Logic-level edge timestamps per output pin (for `get_f`).
    edges: BTreeMap<PinId, Vec<SimTime>>,
    last_levels: BTreeMap<PinId, bool>,
    now: SimTime,
    /// True only for devices built by the named registry constructors in
    /// [`crate::ecus`]; such devices can be respecified elsewhere from their
    /// behaviour name alone.
    from_registry: bool,
}

impl Device {
    /// Starts building a device around a behaviour.
    pub fn builder(behavior: Box<dyn Behavior + Send>) -> DeviceBuilder {
        DeviceBuilder {
            behavior,
            cfg: ElectricalConfig::default(),
            pins: BTreeMap::new(),
            can: Vec::new(),
        }
    }

    /// The electrical configuration.
    pub fn config(&self) -> &ElectricalConfig {
        &self.cfg
    }

    /// The behaviour's name.
    pub fn behavior_name(&self) -> &str {
        self.behavior.name()
    }

    /// CAN frames this device ignores writes to (fault injection), in the
    /// order they were dropped.
    pub fn dropped_frames(&self) -> &[CanFrameId] {
        &self.dropped_frames
    }

    /// Marks this device as a verbatim product of a registry constructor.
    ///
    /// Only the named `device()` constructors in [`crate::ecus`] call this;
    /// `device_with` stays unmarked so custom or fault-wrapped behaviours
    /// never masquerade as a stock ECU.
    pub(crate) fn mark_registry(&mut self) {
        self.from_registry = true;
    }

    /// A portable specification that rebuilds this device elsewhere, or
    /// `None` when the device cannot be rebuilt from its name (custom
    /// behaviour, fault wrapper, hand-assembled bindings).
    ///
    /// The captured [`ElectricalConfig`] reflects the *current* thresholds,
    /// so [`shift_thresholds`](Self::shift_thresholds) survives the round
    /// trip; dropped frames are replayed by
    /// [`DeviceSpec::realize`](crate::spec::DeviceSpec::realize).
    pub fn spec(&self) -> Option<crate::spec::DeviceSpec> {
        if !self.from_registry {
            return None;
        }
        Some(crate::spec::DeviceSpec {
            behavior: self.behavior.name().to_string(),
            cfg: self.cfg,
            dropped_frames: self.dropped_frames.clone(),
        })
    }

    /// Makes the device ignore writes to a CAN frame (fault injection).
    pub fn drop_can_frame(&mut self, frame: CanFrameId) {
        self.dropped_frames.push(frame);
    }

    /// Shifts both input thresholds by `delta` (fraction of ubatt; fault
    /// injection).
    pub fn shift_thresholds(&mut self, delta: f64) {
        self.cfg.low_threshold += delta;
        self.cfg.high_threshold += delta;
    }

    /// Resets behaviour, bus, latched inputs and edge recorders.
    pub fn reset(&mut self, now: SimTime) {
        self.now = now;
        self.bus.clear();
        self.drives.clear();
        self.inputs.clear();
        self.edges.clear();
        self.last_levels.clear();
        self.behavior.reset(now);
        // Present the idle pin state (everything open) to the behaviour.
        let bindings: Vec<(PinId, PinBinding)> = self
            .pins
            .iter()
            .map(|(p, b)| (p.clone(), b.clone()))
            .collect();
        for (pin, binding) in bindings {
            self.refresh_input(&pin, &binding);
        }
        // Baseline output levels (no edge recorded for the initial state).
        let outputs: Vec<(PinId, bool)> = self
            .pins
            .iter()
            .filter_map(|(p, b)| match b {
                PinBinding::Output { port } => {
                    Some((p.clone(), self.behavior.output(port).as_bool()))
                }
                _ => None,
            })
            .collect();
        for (pin, level) in outputs {
            self.last_levels.insert(pin, level);
        }
    }

    /// Applies a stand drive to a pin at time `now`.
    pub fn apply_pin(&mut self, pin: &PinId, drive: PinDrive, now: SimTime) {
        self.advance_to(now);
        self.drives.insert(pin.clone(), drive);
        if let Some(binding) = self.pins.get(pin).cloned() {
            self.refresh_input(pin, &binding);
        }
    }

    /// Writes a CAN field from the stand side at time `now`.
    pub fn write_can_field(
        &mut self,
        frame: CanFrameId,
        start_bit: u8,
        width: u8,
        value: u64,
        now: SimTime,
    ) {
        self.advance_to(now);
        if self.dropped_frames.contains(&frame) {
            return;
        }
        self.bus.write_field(frame, start_bit, width, value);
        let matching: Vec<CanBinding> = self
            .can
            .iter()
            .filter(|b| b.input && b.frame == frame)
            .cloned()
            .collect();
        for b in matching {
            if let Some(v) = self.bus.read_field(b.frame, b.start_bit, b.width) {
                self.behavior
                    .set_input(b.port, PortValue::Bits(v), self.now);
            }
        }
        self.sync_outputs();
    }

    /// Advances simulation time, processing behaviour events in order.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the device's current time — the engine
    /// must drive time monotonically.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(
            to >= self.now,
            "time must be monotone ({to} < {})",
            self.now
        );
        while let Some(event) = self.behavior.next_event() {
            if event > to {
                break;
            }
            let at = event.max(self.now);
            self.behavior.advance(at);
            self.now = at;
            self.sync_outputs();
        }
        self.behavior.advance(to);
        self.now = to;
        self.sync_outputs();
    }

    /// The current device time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Measures a voltage: single-ended for one pin, differential (first
    /// minus second) for two.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty or has more than two entries.
    pub fn measure_pins(&self, pins: &[PinId]) -> f64 {
        match pins {
            [single] => self.voltage(single),
            [fwd, ret] => self.voltage(fwd) - self.voltage(ret),
            _ => panic!("measure_pins takes 1 or 2 pins, got {}", pins.len()),
        }
    }

    /// Reads a CAN field as the stand would (`None` if never transmitted).
    pub fn read_can_field(&self, frame: CanFrameId, start_bit: u8, width: u8) -> Option<u64> {
        self.bus.read_field(frame, start_bit, width)
    }

    /// Number of logic-level edges an output pin produced in
    /// `window_start..=window_end`.
    pub fn edge_count(&self, pin: &PinId, window_start: SimTime, window_end: SimTime) -> usize {
        self.edges
            .get(pin)
            .map(|ts| {
                ts.iter()
                    .filter(|t| **t >= window_start && **t <= window_end)
                    .count()
            })
            .unwrap_or(0)
    }

    /// The frequency (Hz) of an output pin over a window, as a frequency
    /// counter would report it: edge count / 2 / window length. Returns 0
    /// for an empty window or a static pin.
    pub fn frequency(&self, pin: &PinId, window_start: SimTime, window_end: SimTime) -> f64 {
        let window = window_end.saturating_sub(window_start).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        self.edge_count(pin, window_start, window_end) as f64 / 2.0 / window
    }

    /// Direct access to the bus (statistics, debugging).
    pub fn bus(&self) -> &CanBus {
        &self.bus
    }

    /// Footprint accessor: how `pin` is bound (matched case-insensitively),
    /// or `None` for pins this device does not bind.
    pub fn pin_binding(&self, pin: &PinId) -> Option<&PinBinding> {
        self.pins.get(pin)
    }

    /// Footprint accessor: every CAN binding touching `frame`, as
    /// `(start_bit, width, port, input)` in declaration order.
    pub fn can_frame_bindings(&self, frame: CanFrameId) -> Vec<(u8, u8, &'static str, bool)> {
        self.can
            .iter()
            .filter(|b| b.frame == frame)
            .map(|b| (b.start_bit, b.width, b.port, b.input))
            .collect()
    }

    /// The behaviour's [`port_slice`](Behavior::port_slice) for `port`.
    pub fn port_slice(&self, port: &str) -> Option<String> {
        self.behavior.port_slice(port)
    }

    /// The voltage at one pin under the current drives and outputs.
    fn voltage(&self, pin: &PinId) -> f64 {
        let mode = match self.pins.get(pin) {
            Some(PinBinding::InputActiveLow { .. }) | Some(PinBinding::InputActiveHigh { .. }) => {
                DutPinMode::InputPullUp
            }
            Some(PinBinding::Output { port }) => DutPinMode::OutputPushPull {
                level: if self.behavior.output(port).as_bool() {
                    1.0
                } else {
                    0.0
                },
            },
            Some(PinBinding::Return) => DutPinMode::Ground,
            None => DutPinMode::HighZ,
        };
        let drive = self.drives.get(pin).copied().unwrap_or(PinDrive::HighZ);
        pin_voltage(&self.cfg, mode, drive)
    }

    /// Recomputes a digital input pin and informs the behaviour on change.
    fn refresh_input(&mut self, pin: &PinId, binding: &PinBinding) {
        let (port, active_low) = match binding {
            PinBinding::InputActiveLow { port } => (*port, true),
            PinBinding::InputActiveHigh { port } => (*port, false),
            _ => return,
        };
        let v = self.voltage(pin);
        let entry = self.inputs.entry(pin.clone()).or_default();
        let high = entry.update(v, &self.cfg);
        let logical = if active_low { !high } else { high };
        self.behavior
            .set_input(port, PortValue::Bool(logical), self.now);
        self.sync_outputs();
    }

    /// Publishes CAN outputs and records output-pin edges at `self.now`.
    fn sync_outputs(&mut self) {
        self.publish_can_outputs();
        let outputs: Vec<(PinId, bool)> = self
            .pins
            .iter()
            .filter_map(|(p, b)| match b {
                PinBinding::Output { port } => {
                    Some((p.clone(), self.behavior.output(port).as_bool()))
                }
                _ => None,
            })
            .collect();
        for (pin, level) in outputs {
            match self.last_levels.get(&pin) {
                Some(prev) if *prev == level => {}
                Some(_) => {
                    self.edges.entry(pin.clone()).or_default().push(self.now);
                    self.last_levels.insert(pin, level);
                }
                None => {
                    self.last_levels.insert(pin, level);
                }
            }
        }
    }

    /// Copies DUT output ports bound to CAN fields onto the bus.
    fn publish_can_outputs(&mut self) {
        for b in &self.can {
            if b.input {
                continue;
            }
            let value = self.behavior.output(b.port).as_bits();
            let current = self.bus.read_field(b.frame, b.start_bit, b.width);
            if current != Some(value) {
                self.bus.write_field(b.frame, b.start_bit, b.width, value);
            }
        }
    }
}

/// Builder for [`Device`].
#[derive(Debug)]
pub struct DeviceBuilder {
    behavior: Box<dyn Behavior + Send>,
    cfg: ElectricalConfig,
    pins: BTreeMap<PinId, PinBinding>,
    can: Vec<CanBinding>,
}

impl DeviceBuilder {
    /// Sets the electrical configuration.
    pub fn config(mut self, cfg: ElectricalConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Binds a pin.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate pin binding.
    pub fn pin(mut self, pin: &str, binding: PinBinding) -> Self {
        let pin = PinId::new(pin).expect("valid pin id");
        let old = self.pins.insert(pin.clone(), binding);
        assert!(old.is_none(), "pin {pin} bound twice");
        self
    }

    /// Binds a CAN field as a DUT input.
    pub fn can_input(mut self, frame: u32, start_bit: u8, width: u8, port: &'static str) -> Self {
        self.can.push(CanBinding {
            frame: CanFrameId(frame),
            start_bit,
            width,
            port,
            input: true,
        });
        self
    }

    /// Binds a CAN field as a DUT output (the DUT transmits it).
    pub fn can_output(mut self, frame: u32, start_bit: u8, width: u8, port: &'static str) -> Self {
        self.can.push(CanBinding {
            frame: CanFrameId(frame),
            start_bit,
            width,
            port,
            input: false,
        });
        self
    }

    /// Finishes the device.
    pub fn build(self) -> Device {
        let mut device = Device {
            behavior: self.behavior,
            cfg: self.cfg,
            pins: self.pins,
            can: self.can,
            bus: CanBus::new(),
            drives: BTreeMap::new(),
            inputs: BTreeMap::new(),
            dropped_frames: Vec::new(),
            edges: BTreeMap::new(),
            last_levels: BTreeMap::new(),
            now: SimTime::ZERO,
            from_registry: false,
        };
        device.reset(SimTime::ZERO);
        device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially observable behaviour: `lamp = sw && bit`.
    #[derive(Debug, Default)]
    struct AndGate {
        sw: bool,
        bit: bool,
    }

    impl Behavior for AndGate {
        fn name(&self) -> &str {
            "and_gate"
        }
        fn inputs(&self) -> &[&'static str] {
            &["sw", "bit"]
        }
        fn outputs(&self) -> &[&'static str] {
            &["lamp"]
        }
        fn reset(&mut self, _now: SimTime) {
            self.sw = false;
            self.bit = false;
        }
        fn set_input(&mut self, port: &str, value: PortValue, _now: SimTime) {
            match port {
                "sw" => self.sw = value.as_bool(),
                "bit" => self.bit = value.as_bool(),
                _ => {}
            }
        }
        fn advance(&mut self, _now: SimTime) {}
        fn next_event(&self) -> Option<SimTime> {
            None
        }
        fn output(&self, port: &str) -> PortValue {
            match port {
                "lamp" => PortValue::Bool(self.sw && self.bit),
                "echo" => PortValue::Bits(self.bit as u64),
                _ => PortValue::Bool(false),
            }
        }
    }

    fn device() -> Device {
        Device::builder(Box::new(AndGate::default()))
            .pin("SW", PinBinding::InputActiveLow { port: "sw" })
            .pin("LAMP_F", PinBinding::Output { port: "lamp" })
            .pin("LAMP_R", PinBinding::Return)
            .can_input(0x100, 0, 1, "bit")
            .can_output(0x200, 0, 1, "echo")
            .build()
    }

    fn pid(s: &str) -> PinId {
        PinId::new(s).unwrap()
    }

    #[test]
    fn pin_and_can_drive_the_behavior() {
        let mut d = device();
        let t = SimTime::from_millis(1);
        d.apply_pin(&pid("SW"), PinDrive::ResistanceToGround(0.0), t);
        let v = d.measure_pins(&[pid("LAMP_F"), pid("LAMP_R")]);
        assert!(v < 1.0, "bit not yet set, lamp off: {v}");
        d.write_can_field(CanFrameId(0x100), 0, 1, 1, t);
        let v = d.measure_pins(&[pid("LAMP_F"), pid("LAMP_R")]);
        assert!(v > 11.0, "lamp on: {v}");
    }

    #[test]
    fn can_output_is_published() {
        let mut d = device();
        let t = SimTime::from_millis(1);
        assert_eq!(d.read_can_field(CanFrameId(0x200), 0, 1), Some(0));
        d.write_can_field(CanFrameId(0x100), 0, 1, 1, t);
        assert_eq!(d.read_can_field(CanFrameId(0x200), 0, 1), Some(1));
    }

    #[test]
    fn releasing_the_pin_restores_high() {
        let mut d = device();
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        d.write_can_field(CanFrameId(0x100), 0, 1, 1, t1);
        d.apply_pin(&pid("SW"), PinDrive::ResistanceToGround(0.0), t1);
        assert!(d.measure_pins(&[pid("LAMP_F"), pid("LAMP_R")]) > 11.0);
        d.apply_pin(&pid("SW"), PinDrive::ResistanceToGround(f64::INFINITY), t2);
        assert!(d.measure_pins(&[pid("LAMP_F"), pid("LAMP_R")]) < 1.0);
    }

    #[test]
    fn dropped_frames_are_ignored() {
        let mut d = device();
        d.drop_can_frame(CanFrameId(0x100));
        d.write_can_field(CanFrameId(0x100), 0, 1, 1, SimTime::from_millis(1));
        d.apply_pin(
            &pid("SW"),
            PinDrive::ResistanceToGround(0.0),
            SimTime::from_millis(1),
        );
        assert!(d.measure_pins(&[pid("LAMP_F"), pid("LAMP_R")]) < 1.0);
    }

    #[test]
    fn unbound_pin_measures_stand_drive_only() {
        let mut d = device();
        let t = SimTime::from_millis(1);
        d.apply_pin(&pid("FLOATING"), PinDrive::Voltage(5.0), t);
        let v = d.measure_pins(&[pid("FLOATING")]);
        assert!((v - 5.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_must_be_monotone() {
        let mut d = device();
        d.advance_to(SimTime::from_secs(1));
        d.advance_to(SimTime::from_millis(1));
    }

    #[test]
    fn reset_clears_state() {
        let mut d = device();
        let t = SimTime::from_millis(1);
        d.write_can_field(CanFrameId(0x100), 0, 1, 1, t);
        d.apply_pin(&pid("SW"), PinDrive::ResistanceToGround(0.0), t);
        d.reset(SimTime::ZERO);
        assert_eq!(d.read_can_field(CanFrameId(0x100), 0, 1), None);
        assert!(d.measure_pins(&[pid("LAMP_F"), pid("LAMP_R")]) < 1.0);
    }
}
