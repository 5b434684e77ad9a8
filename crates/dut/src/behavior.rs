//! The event-driven behaviour interface ECU models implement.
//!
//! Behaviours are sampled-state machines with scheduled internal events
//! (timers).  The engine drives them with this contract:
//!
//! 1. [`Behavior::reset`] once at test start;
//! 2. [`Behavior::advance`] *to the current time* before any input change or
//!    output query — behaviours never see time move backwards;
//! 3. [`Behavior::set_input`] whenever a bound port's value changes;
//! 4. [`Behavior::next_event`] after every interaction: if `Some(t)`, the
//!    engine guarantees an [`advance`](Behavior::advance) call at `t` (or
//!    earlier).  Events in the past are processed immediately;
//! 5. [`Behavior::output`] once per bound output pin and per CAN output
//!    field after every event and every interaction, to record edges and
//!    publish frames. It sits on the hottest path of an event-dense model,
//!    so it must be cheap and free of side effects.

use std::fmt;

use comptest_model::SimTime;

/// A value on a behaviour port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortValue {
    /// A logic level (switch pressed, lamp on, …).
    Bool(bool),
    /// A multi-bit field (CAN-mapped values).
    Bits(u64),
}

impl PortValue {
    /// The boolean, coercing bits (`0` = false).
    pub fn as_bool(self) -> bool {
        match self {
            PortValue::Bool(b) => b,
            PortValue::Bits(v) => v != 0,
        }
    }

    /// The raw bits (`true` = 1).
    pub fn as_bits(self) -> u64 {
        match self {
            PortValue::Bool(b) => b as u64,
            PortValue::Bits(v) => v,
        }
    }
}

impl fmt::Display for PortValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortValue::Bool(b) => write!(f, "{b}"),
            PortValue::Bits(v) => write!(f, "{v:#b}"),
        }
    }
}

/// An ECU model. See the [module docs](self) for the driving contract.
pub trait Behavior: fmt::Debug {
    /// Model name, for reports.
    fn name(&self) -> &str;

    /// Input port names.
    fn inputs(&self) -> &[&'static str];

    /// Output port names.
    fn outputs(&self) -> &[&'static str];

    /// Re-initialises all state at time `now`.
    fn reset(&mut self, now: SimTime);

    /// Applies an input-port change at time `now`. Unknown ports are
    /// ignored (a wiring mistake shows up as a failed check, as on a real
    /// bench, not as a crash).
    fn set_input(&mut self, port: &str, value: PortValue, now: SimTime);

    /// Processes internal events up to and including `now`.
    fn advance(&mut self, now: SimTime);

    /// The next scheduled internal event, if any.
    fn next_event(&self) -> Option<SimTime>;

    /// Reads an output port. Unknown ports read `Bool(false)`.
    fn output(&self, port: &str) -> PortValue;

    /// A stable rendering of the *slice* of this behaviour's configuration
    /// and dynamics that can influence `port` — the footprint-keyed cache
    /// hashes it instead of the whole behaviour, so edits to unrelated
    /// sub-blocks of a composite behaviour do not invalidate cells that
    /// never touch them.
    ///
    /// Contract: the returned string must cover **everything** that can
    /// change the port's observable waveform for any input sequence —
    /// configuration fields, timer constants, fault injections, couplings
    /// to other ports. When two configurations render the same slice for a
    /// port, the cache may serve one's recorded outcome for the other.
    /// When in doubt, include more (or return `None`).
    ///
    /// The default returns `None`, which makes footprint keying fall back
    /// to hashing the entire device — conservative, never less safe.
    fn port_slice(&self, _port: &str) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_value_coercions() {
        assert!(PortValue::Bool(true).as_bool());
        assert!(!PortValue::Bits(0).as_bool());
        assert!(PortValue::Bits(4).as_bool());
        assert_eq!(PortValue::Bool(true).as_bits(), 1);
        assert_eq!(PortValue::Bits(0b101).as_bits(), 5);
        assert_eq!(PortValue::Bool(false).to_string(), "false");
        assert_eq!(PortValue::Bits(5).to_string(), "0b101");
    }
}
