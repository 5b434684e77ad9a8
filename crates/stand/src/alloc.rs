//! Resource allocation: "For each method to be carried out, the test stand
//! searches an approriate ressource, that can be connected to the signal
//! pin. If this is not possible an error message is generated." (§4)
//!
//! Stimulus (`put_*`) assignments are *persistent*: a signal keeps its
//! resource until reassigned, because the applied status must hold across
//! steps.  That turns allocation into incremental bipartite matching with
//! capacities: when a new requirement arrives and every capable, connected
//! resource is busy, the allocator may *reroute* held assignments through
//! the matrix (augmenting paths), as a real stand would re-switch its
//! multiplexers — provided the moved signal's own value constraint stays
//! satisfied on the new resource.
//!
//! Measurements (`get_*`) are transient: within one step a single DVM can
//! serve several checks sequentially, so gets only need capability,
//! connectivity and range coverage, never exclusivity against other gets.
//!
//! # The pin index
//!
//! A resource that cannot reach a requirement's first pin can never serve
//! it, so searches walk only Park and the stand's pin index entry for that
//! pin ([`TestStand`] builds the index on first use, in stand order). The
//! first-fit pass, the reroute pass and `route_get`'s success path all work
//! on these candidates; on a stand with one decade per pin that is one or
//! two resources instead of all of them. Only the diagnostics scan the
//! whole stand — [`AllocFailure::rejections`] lists every resource in stand
//! order — and they run only once a search has failed.
//!
//! Park is recognised by identity, not by name: a stand resource spelled
//! `Park` is an ordinary instrument that needs crosspoints like any other.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use comptest_model::{BitPattern, MethodName, PinId, SignalName};

use crate::resource::{Capability, Resource, ResourceId};
use crate::stand::TestStand;

/// A value as actually applied by a resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppliedValue {
    /// A numeric value (volts, ohms, …).
    Num(f64),
    /// A bit pattern (CAN payload field).
    Bits(BitPattern),
}

impl fmt::Display for AppliedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppliedValue::Num(n) => f.write_str(&comptest_model::value::number_to_string(*n)),
            AppliedValue::Bits(b) => b.fmt(f),
        }
    }
}

/// A stimulus requirement: what a `put_*` statement needs from a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct PutRequirement {
    /// The method (`put_r`, `put_can`, …).
    pub method: MethodName,
    /// Nominal value to apply.
    pub nominal: AppliedValue,
    /// Admissible realization window `[lo, hi]` for numeric values; a stand
    /// may apply any value inside it (e.g. `Closed` accepts ≥ 5 kΩ when the
    /// decade cannot do a true open circuit).
    pub window: (f64, f64),
    /// The pins the resource must reach (empty + `can = true` for CAN).
    pub pins: Vec<PinId>,
}

/// A measurement requirement: what a `get_*` statement needs.
#[derive(Debug, Clone, PartialEq)]
pub struct GetRequirement {
    /// The method (`get_u`, `get_can`, …).
    pub method: MethodName,
    /// Acceptance bounds whose finite endpoints must lie inside the
    /// resource's measurable range.
    pub bounds: (f64, f64),
    /// The pins the resource must reach.
    pub pins: Vec<PinId>,
}

/// Why a specific resource was rejected for a requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The resource does not implement the method.
    NoCapability,
    /// The matrix offers no crosspoint from this resource to some pin.
    NotConnected {
        /// The unreachable pin.
        pin: PinId,
    },
    /// The requirement's window/bounds and the resource's range do not
    /// intersect / are not covered.
    ValueOutOfRange {
        /// The resource's range, rendered.
        range: String,
    },
    /// The resource is at capacity serving other signals and no reroute was
    /// possible.
    Busy {
        /// The signals currently holding the resource.
        holding: Vec<SignalName>,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NoCapability => f.write_str("method not supported"),
            RejectReason::NotConnected { pin } => write!(f, "no crosspoint to pin {pin}"),
            RejectReason::ValueOutOfRange { range } => {
                write!(f, "value outside supported range {range}")
            }
            RejectReason::Busy { holding } => {
                write!(f, "busy (holding ")?;
                for (i, s) in holding.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{s}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// The paper's "error message": no appropriate, connectable resource.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocFailure {
    /// The signal whose statement failed.
    pub signal: SignalName,
    /// The requested method.
    pub method: MethodName,
    /// Step number (`None` = init block).
    pub step: Option<u32>,
    /// Per-resource rejection reasons, in resource order.
    pub rejections: Vec<(ResourceId, RejectReason)>,
}

impl fmt::Display for AllocFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(nr) => write!(
                f,
                "step {nr}: no resource for {} on signal {}",
                self.method, self.signal
            )?,
            None => write!(
                f,
                "init: no resource for {} on signal {}",
                self.method, self.signal
            )?,
        }
        for (id, reason) in &self.rejections {
            write!(f, "\n  {id}: {reason}")?;
        }
        Ok(())
    }
}

impl Error for AllocFailure {}

/// Allocation tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOptions {
    /// Allow rerouting held assignments via augmenting paths. Disabling
    /// makes the allocator greedy (first-fit only) — the ablation measured
    /// in experiment E4.
    pub reroute: bool,
}

impl Default for AllocOptions {
    fn default() -> Self {
        Self { reroute: true }
    }
}

/// A granted stimulus assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PutGrant {
    /// The chosen resource.
    pub resource: ResourceId,
    /// The value the resource will actually apply (nominal clamped into the
    /// intersection of window and resource range).
    pub applied: AppliedValue,
    /// True if the signal was moved off a previously-held resource.
    pub rerouted: bool,
}

#[derive(Debug, Clone)]
struct Held<'a> {
    resource: &'a Resource,
    requirement: PutRequirement,
}

/// The incremental allocator. One instance lives for the duration of a test
/// execution; create a fresh one per test.
///
/// Besides the stand's instruments the allocator knows one implicit
/// pseudo-resource, **`Park`**: leaving a pin disconnected realises an open
/// circuit, i.e. `put_r` with an `INF` upper realization window.  This is
/// how a stand with two resistor decades can still hold all four door
/// switches in the paper's `Closed` initial status — closed door switches
/// are simply not wired up.
#[derive(Debug, Clone)]
pub struct Allocator<'a> {
    stand: &'a TestStand,
    options: AllocOptions,
    held: BTreeMap<SignalName, Held<'a>>,
    load: BTreeMap<ResourceId, Vec<SignalName>>,
}

/// The id of the implicit open-circuit pseudo-resource.
pub const PARK_RESOURCE: &str = "Park";

/// The park pseudo-resource, built once per process.
fn park() -> &'static Resource {
    static PARK: OnceLock<Resource> = OnceLock::new();
    PARK.get_or_init(|| {
        let id = ResourceId::new(PARK_RESOURCE).expect("constant id is valid");
        let method = MethodName::new("put_r").expect("constant method is valid");
        Resource::new(id)
            .with_capability(Capability::new(
                method,
                "r",
                f64::INFINITY,
                f64::INFINITY,
                comptest_model::Unit::Ohm,
            ))
            .with_capacity(usize::MAX)
    })
}

/// The stand resources that can reach every pin of `pins`, in stand order:
/// those indexed under the first pin (every resource when there is none).
/// A resource outside this set fails the connectivity check, so a search
/// for a working resource needs to look no further.
fn candidates<'a>(stand: &'a TestStand, pins: &[PinId]) -> impl Iterator<Item = &'a Resource> {
    let unpinned = if pins.is_empty() {
        stand.resources()
    } else {
        &[]
    };
    let reaching = pins.first().map(|pin| stand.resources_reaching(pin));
    unpinned.iter().chain(reaching.into_iter().flatten())
}

impl<'a> Allocator<'a> {
    /// Creates an allocator with default options.
    pub fn new(stand: &'a TestStand) -> Self {
        Self::with_options(stand, AllocOptions::default())
    }

    /// Creates an allocator with explicit options.
    pub fn with_options(stand: &'a TestStand, options: AllocOptions) -> Self {
        Self {
            stand,
            options,
            held: BTreeMap::new(),
            load: BTreeMap::new(),
        }
    }

    /// The resource currently holding a signal's stimulus, if any.
    pub fn holder(&self, signal: &SignalName) -> Option<&ResourceId> {
        self.held.get(signal).map(|h| &h.resource.id)
    }

    /// Current number of held stimulus assignments.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Assigns (or re-assigns) a stimulus to a resource.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailure`] listing every resource with its rejection
    /// reason when no assignment (including reroutes) exists.  The allocator
    /// state is unchanged on failure.
    pub fn assign_put(
        &mut self,
        signal: &SignalName,
        step: Option<u32>,
        requirement: PutRequirement,
    ) -> Result<PutGrant, AllocFailure> {
        // Fast path: the signal's current resource also satisfies the new
        // requirement — keep it (a real stand just dials a new value).
        if let Some(held) = self.held.get(signal) {
            if let Ok(applied) = self.supports(held.resource, &requirement) {
                let resource = held.resource;
                self.held.insert(
                    signal.clone(),
                    Held {
                        resource,
                        requirement,
                    },
                );
                return Ok(PutGrant {
                    resource: resource.id.clone(),
                    applied,
                    rerouted: false,
                });
            }
        }

        // Otherwise the old hold (if any) is released and a new resource
        // found. The old resource cannot serve the new requirement, so
        // releasing it frees nothing the first-fit pass could use: probe
        // first, and snapshot for rollback only when rerouting must run.
        let mut full = Vec::new();
        let mut found = self.first_fit(&requirement, &BTreeSet::new(), &mut full);
        let mut had_previous = false;
        if found.is_some() {
            had_previous = self.release(signal);
        } else if self.options.reroute {
            let snapshot_held = self.held.clone();
            let snapshot_load = self.load.clone();
            had_previous = self.release(signal);
            found = self.reroute(full, &mut BTreeSet::new());
            if found.is_none() {
                self.held = snapshot_held;
                self.load = snapshot_load;
            }
        }

        if let Some(resource) = found {
            let applied = self
                .supports(resource, &requirement)
                .expect("the search returns only supporting resources");
            self.load
                .entry(resource.id.clone())
                .or_default()
                .push(signal.clone());
            self.held.insert(
                signal.clone(),
                Held {
                    resource,
                    requirement,
                },
            );
            return Ok(PutGrant {
                resource: resource.id.clone(),
                applied,
                rerouted: had_previous,
            });
        }

        // Failure: report per-resource reasons.
        let rejections = self.explain(&requirement);
        Err(AllocFailure {
            signal: signal.clone(),
            method: requirement.method,
            step,
            rejections,
        })
    }

    /// Routes a measurement. Does not mutate allocator state.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailure`] when no capable, connected, range-covering
    /// resource exists that is not busy holding stimuli.
    pub fn route_get(
        &self,
        signal: &SignalName,
        step: Option<u32>,
        requirement: &GetRequirement,
    ) -> Result<ResourceId, AllocFailure> {
        // A resource saturated with stimuli cannot double as a meter (a
        // capacity-1 DVM holding a put is busy; a CAN interface transmits
        // and receives concurrently).
        if let Some(resource) = candidates(self.stand, &requirement.pins)
            .find(|r| self.supports_get(r, requirement).is_ok() && self.used(r) < r.capacity)
        {
            return Ok(resource.id.clone());
        }
        // No resource works: explain every one, in stand order.
        let mut rejections = Vec::new();
        for resource in self.stand.resources() {
            match self.supports_get(resource, requirement) {
                Ok(()) => rejections.push((
                    resource.id.clone(),
                    RejectReason::Busy {
                        holding: self.load.get(&resource.id).cloned().unwrap_or_default(),
                    },
                )),
                Err(reason) => rejections.push((resource.id.clone(), reason)),
            }
        }
        Err(AllocFailure {
            signal: signal.clone(),
            method: requirement.method.clone(),
            step,
            rejections,
        })
    }

    /// Releases a signal's held stimulus. Returns true if one was held.
    pub fn release(&mut self, signal: &SignalName) -> bool {
        if let Some(held) = self.held.remove(signal) {
            if let Some(load) = self.load.get_mut(&held.resource.id) {
                load.retain(|s| s != signal);
            }
            true
        } else {
            false
        }
    }

    /// How many signals a resource currently serves.
    fn used(&self, resource: &Resource) -> usize {
        self.load.get(&resource.id).map(Vec::len).unwrap_or(0)
    }

    /// First-fit pass: the first unvisited resource (Park, then the stand's
    /// candidates) that supports `requirement` and has a free slot. Park
    /// comes first: never tie up an instrument for something a bare pin
    /// does. Supporting resources passed over as full are appended to
    /// `full`, in order.
    fn first_fit(
        &self,
        requirement: &PutRequirement,
        visited: &BTreeSet<ResourceId>,
        full: &mut Vec<&'a Resource>,
    ) -> Option<&'a Resource> {
        let resources = std::iter::once(park()).chain(candidates(self.stand, &requirement.pins));
        for resource in resources {
            if visited.contains(&resource.id) || self.supports(resource, requirement).is_err() {
                continue;
            }
            if self.used(resource) < resource.capacity {
                return Some(resource);
            }
            full.push(resource);
        }
        None
    }

    /// Kuhn-style augmenting search: returns a resource with free effective
    /// capacity for `requirement`, rerouting held signals if allowed.
    fn augment(
        &mut self,
        requirement: &PutRequirement,
        visited: &mut BTreeSet<ResourceId>,
    ) -> Option<&'a Resource> {
        let mut full = Vec::new();
        if let Some(resource) = self.first_fit(requirement, visited, &mut full) {
            return Some(resource);
        }
        if !self.options.reroute {
            return None;
        }
        self.reroute(full, visited)
    }

    /// Reroute pass: frees one of the `full` supporting resources by moving
    /// one of its holders elsewhere, and returns it.
    fn reroute(
        &mut self,
        full: Vec<&'a Resource>,
        visited: &mut BTreeSet<ResourceId>,
    ) -> Option<&'a Resource> {
        for resource in full {
            visited.insert(resource.id.clone());
            let holders = self.load.get(&resource.id).cloned().unwrap_or_default();
            for holder in holders {
                let holder_req = self.held[&holder].requirement.clone();
                if let Some(alternative) = self.augment(&holder_req, visited) {
                    // Move `holder` onto `alternative`.
                    if let Some(load) = self.load.get_mut(&resource.id) {
                        load.retain(|s| s != &holder);
                    }
                    self.load
                        .entry(alternative.id.clone())
                        .or_default()
                        .push(holder.clone());
                    self.held.insert(
                        holder,
                        Held {
                            resource: alternative,
                            requirement: holder_req,
                        },
                    );
                    return Some(resource);
                }
            }
        }
        None
    }

    /// Feasibility check for puts; returns the value that would be applied.
    fn supports(
        &self,
        resource: &Resource,
        req: &PutRequirement,
    ) -> Result<AppliedValue, RejectReason> {
        let cap = resource
            .capability(&req.method)
            .ok_or(RejectReason::NoCapability)?;
        // Park needs no crosspoints: an unconnected pin *is* the stimulus.
        if !std::ptr::eq(resource, park()) {
            for pin in &req.pins {
                if self.stand.matrix().connection(&resource.id, pin).is_none() {
                    return Err(RejectReason::NotConnected { pin: pin.clone() });
                }
            }
        }
        match req.nominal {
            AppliedValue::Bits(b) => Ok(AppliedValue::Bits(b)),
            AppliedValue::Num(nominal) => {
                let lo = req.window.0.max(cap.min);
                let hi = req.window.1.min(cap.max);
                if lo > hi {
                    return Err(RejectReason::ValueOutOfRange {
                        range: format!(
                            "[{}, {}]",
                            comptest_model::value::number_to_string(cap.min),
                            comptest_model::value::number_to_string(cap.max)
                        ),
                    });
                }
                let applied = nominal.clamp(lo, hi);
                let applied = if applied.is_finite() {
                    applied
                } else if applied > 0.0 {
                    // Nominal INF with an unbounded window on an unbounded
                    // resource: apply the open-circuit sentinel.
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                Ok(AppliedValue::Num(applied))
            }
        }
    }

    /// Feasibility check for gets.
    fn supports_get(&self, resource: &Resource, req: &GetRequirement) -> Result<(), RejectReason> {
        let cap = resource
            .capability(&req.method)
            .ok_or(RejectReason::NoCapability)?;
        for pin in &req.pins {
            if self.stand.matrix().connection(&resource.id, pin).is_none() {
                return Err(RejectReason::NotConnected { pin: pin.clone() });
            }
        }
        let (lo, hi) = req.bounds;
        let lo_ok = !lo.is_finite() || (lo >= cap.min && lo <= cap.max);
        let hi_ok = !hi.is_finite() || (hi >= cap.min && hi <= cap.max);
        if lo_ok && hi_ok {
            Ok(())
        } else {
            Err(RejectReason::ValueOutOfRange {
                range: format!(
                    "[{}, {}]",
                    comptest_model::value::number_to_string(cap.min),
                    comptest_model::value::number_to_string(cap.max)
                ),
            })
        }
    }

    /// Builds the rejection list for an error message.
    fn explain(&self, requirement: &PutRequirement) -> Vec<(ResourceId, RejectReason)> {
        let mut out = Vec::new();
        for resource in std::iter::once(park()).chain(self.stand.resources()) {
            match self.supports(resource, requirement) {
                Err(reason) => out.push((resource.id.clone(), reason)),
                Ok(_) => out.push((
                    resource.id.clone(),
                    RejectReason::Busy {
                        holding: self.load.get(&resource.id).cloned().unwrap_or_default(),
                    },
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_model::{Env, Unit};

    fn rid(s: &str) -> ResourceId {
        ResourceId::new(s).unwrap()
    }

    fn pid(s: &str) -> PinId {
        PinId::new(s).unwrap()
    }

    fn sig(s: &str) -> SignalName {
        SignalName::new(s).unwrap()
    }

    fn m(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    /// The paper's stand: one DVM on the lamp, two decades muxed onto four
    /// door-switch pins.
    fn paper_stand() -> TestStand {
        let mut stand = TestStand::new("paper", Env::with_ubatt(12.0))
            .with_resource(Resource::new(rid("Ress1")).with_capability(Capability::new(
                m("get_u"),
                "u",
                -60.0,
                60.0,
                Unit::Volt,
            )))
            .with_resource(Resource::new(rid("Ress2")).with_capability(Capability::new(
                m("put_r"),
                "r",
                0.0,
                1e6,
                Unit::Ohm,
            )))
            .with_resource(Resource::new(rid("Ress3")).with_capability(Capability::new(
                m("put_r"),
                "r",
                0.0,
                2e5,
                Unit::Ohm,
            )));
        stand = stand
            .with_connection(pid("Sw1.1"), rid("Ress1"), pid("INT_ILL_F"))
            .with_connection(pid("Sw1.2"), rid("Ress1"), pid("INT_ILL_R"));
        for (i, pin) in ["DS_FL", "DS_FR", "DS_RL", "DS_RR"].iter().enumerate() {
            stand = stand
                .with_connection(pid(&format!("Mx{}.2", i + 1)), rid("Ress2"), pid(pin))
                .with_connection(pid(&format!("Mx{}.1", i + 1)), rid("Ress3"), pid(pin));
        }
        stand
    }

    fn open_req(pin: &str) -> PutRequirement {
        PutRequirement {
            method: m("put_r"),
            nominal: AppliedValue::Num(0.0),
            window: (0.0, 2.0),
            pins: vec![pid(pin)],
        }
    }

    fn closed_req(pin: &str) -> PutRequirement {
        PutRequirement {
            method: m("put_r"),
            nominal: AppliedValue::Num(f64::INFINITY),
            window: (5000.0, f64::INFINITY),
            pins: vec![pid(pin)],
        }
    }

    #[test]
    fn two_door_switches_use_both_decades() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        let g1 = alloc
            .assign_put(&sig("DS_FL"), Some(0), open_req("DS_FL"))
            .unwrap();
        let g2 = alloc
            .assign_put(&sig("DS_FR"), Some(0), open_req("DS_FR"))
            .unwrap();
        assert_ne!(g1.resource, g2.resource, "decades are capacity-1");
        assert_eq!(alloc.held_count(), 2);
        // A third simultaneous *open* switch cannot be served (Park cannot
        // realise a low resistance).
        let err = alloc
            .assign_put(&sig("DS_RL"), Some(0), open_req("DS_RL"))
            .unwrap_err();
        assert_eq!(err.signal, sig("DS_RL"));
        let busy = err
            .rejections
            .iter()
            .filter(|(_, r)| matches!(r, RejectReason::Busy { .. }))
            .count();
        assert_eq!(busy, 2, "both decades busy: {err}");
    }

    #[test]
    fn closed_parks_the_pin() {
        // `Closed` (nominal INF, window up to INF) needs no instrument at
        // all: the pin is simply left unconnected. All four doors can be
        // closed although the stand has only two decades.
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        for pin in ["DS_FL", "DS_FR", "DS_RL", "DS_RR"] {
            let g = alloc
                .assign_put(&sig(pin), Some(0), closed_req(pin))
                .unwrap();
            assert_eq!(g.resource, PARK_RESOURCE, "{pin} parks");
            assert_eq!(g.applied, AppliedValue::Num(f64::INFINITY));
        }
        // Parked signals do not consume decades.
        assert!(alloc
            .assign_put(&sig("DS_FL"), Some(1), open_req("DS_FL"))
            .is_ok());
        assert!(alloc
            .assign_put(&sig("DS_FR"), Some(1), open_req("DS_FR"))
            .is_ok());
    }

    #[test]
    fn reassignment_keeps_resource() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        let g1 = alloc
            .assign_put(&sig("DS_FL"), Some(0), open_req("DS_FL"))
            .unwrap();
        let g2 = alloc
            .assign_put(&sig("DS_FL"), Some(1), closed_req("DS_FL"))
            .unwrap();
        assert_eq!(g1.resource, g2.resource);
        assert_eq!(alloc.held_count(), 1);
    }

    #[test]
    fn nominal_is_clamped_into_decade_range() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        // Nominal INF with a *finite* window ceiling: Park cannot serve it
        // (it only does a true open circuit), so a decade applies its
        // maximum within the window.
        let g = alloc
            .assign_put(
                &sig("DS_FL"),
                Some(0),
                PutRequirement {
                    method: m("put_r"),
                    nominal: AppliedValue::Num(f64::INFINITY),
                    window: (5000.0, 1e9),
                    pins: vec![pid("DS_FL")],
                },
            )
            .unwrap();
        assert_ne!(g.resource, PARK_RESOURCE);
        match g.applied {
            AppliedValue::Num(v) => assert!((5000.0..=1e6).contains(&v), "applied {v}"),
            _ => panic!("numeric expected"),
        }
    }

    #[test]
    fn rerouting_frees_the_right_decade() {
        // Ress3 (0..2e5) is the only decade that can serve a hypothetical
        // high-precision pin if we request a value beyond 2e5 on another pin
        // first. Construct: DS_FL takes Ress2 (value 5e5, only Ress2 can),
        // then DS_FR wants any decade; greedy would only find Ress3; then
        // DS_RL wants 5e5 — impossible. Instead: DS_FL takes value 100 on
        // Ress2 (first-fit), then DS_FR wants 5e5 (only Ress2 can do it) —
        // requires rerouting DS_FL onto Ress3.
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        let g1 = alloc
            .assign_put(
                &sig("DS_FL"),
                Some(0),
                PutRequirement {
                    method: m("put_r"),
                    nominal: AppliedValue::Num(100.0),
                    window: (90.0, 110.0),
                    pins: vec![pid("DS_FL")],
                },
            )
            .unwrap();
        assert_eq!(g1.resource, rid("Ress2"), "first-fit picks Ress2");
        let g2 = alloc
            .assign_put(
                &sig("DS_FR"),
                Some(0),
                PutRequirement {
                    method: m("put_r"),
                    nominal: AppliedValue::Num(5e5),
                    window: (4e5, 6e5),
                    pins: vec![pid("DS_FR")],
                },
            )
            .unwrap();
        assert_eq!(g2.resource, rid("Ress2"), "big value needs the 1 MΩ decade");
        assert_eq!(
            alloc.holder(&sig("DS_FL")),
            Some(&rid("Ress3")),
            "DS_FL rerouted"
        );
    }

    #[test]
    fn greedy_mode_fails_where_rerouting_succeeds() {
        let stand = paper_stand();
        let mut alloc = Allocator::with_options(&stand, AllocOptions { reroute: false });
        alloc
            .assign_put(
                &sig("DS_FL"),
                Some(0),
                PutRequirement {
                    method: m("put_r"),
                    nominal: AppliedValue::Num(100.0),
                    window: (90.0, 110.0),
                    pins: vec![pid("DS_FL")],
                },
            )
            .unwrap();
        let err = alloc
            .assign_put(
                &sig("DS_FR"),
                Some(0),
                PutRequirement {
                    method: m("put_r"),
                    nominal: AppliedValue::Num(5e5),
                    window: (4e5, 6e5),
                    pins: vec![pid("DS_FR")],
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("Ress2"));
    }

    #[test]
    fn failure_rolls_back_state() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        alloc
            .assign_put(&sig("DS_FL"), Some(0), open_req("DS_FL"))
            .unwrap();
        let before = alloc.held_count();
        // Unreachable pin.
        let err = alloc
            .assign_put(
                &sig("GHOST"),
                Some(1),
                PutRequirement {
                    method: m("put_r"),
                    nominal: AppliedValue::Num(0.0),
                    window: (0.0, 1.0),
                    pins: vec![pid("NOT_A_PIN")],
                },
            )
            .unwrap_err();
        assert_eq!(alloc.held_count(), before, "state unchanged after failure");
        assert!(err
            .rejections
            .iter()
            .any(|(_, r)| matches!(r, RejectReason::NotConnected { .. })));
        assert_eq!(alloc.holder(&sig("DS_FL")), Some(&rid("Ress2")));
    }

    #[test]
    fn get_routing_and_conflicts() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        let get = GetRequirement {
            method: m("get_u"),
            bounds: (8.4, 13.2),
            pins: vec![pid("INT_ILL_F"), pid("INT_ILL_R")],
        };
        let r = alloc.route_get(&sig("INT_ILL"), Some(0), &get).unwrap();
        assert_eq!(r, rid("Ress1"));
        // Out-of-range bounds are rejected.
        let too_high = GetRequirement {
            bounds: (100.0, 200.0),
            ..get.clone()
        };
        let err = alloc
            .route_get(&sig("INT_ILL"), Some(0), &too_high)
            .unwrap_err();
        assert!(err
            .rejections
            .iter()
            .any(|(_, r)| matches!(r, RejectReason::ValueOutOfRange { .. })));
        // Infinite bounds are fine as long as finite ones fit.
        let open_bound = GetRequirement {
            bounds: (8.4, f64::INFINITY),
            ..get.clone()
        };
        assert!(alloc
            .route_get(&sig("INT_ILL"), Some(0), &open_bound)
            .is_ok());
        // A decade holding a stimulus cannot serve as a meter even if it had
        // the capability; simulate by asking for put_r measurement… instead
        // verify the busy path via a custom stand below.
        alloc
            .assign_put(&sig("DS_FL"), Some(0), open_req("DS_FL"))
            .unwrap();
        let err = alloc
            .route_get(
                &sig("DS_FL"),
                Some(0),
                &GetRequirement {
                    method: m("get_u"),
                    bounds: (0.0, 1.0),
                    pins: vec![pid("DS_FL")],
                },
            )
            .unwrap_err();
        // Ress1 not connected to DS_FL; decades lack get_u.
        assert_eq!(err.rejections.len(), 3);
    }

    #[test]
    fn a_meter_holding_a_stimulus_is_busy() {
        // Smu1 sources and measures voltage but serves one signal at a time.
        let smu = Resource::new(rid("Smu1"))
            .with_capability(Capability::new(m("put_u"), "u", 0.0, 20.0, Unit::Volt))
            .with_capability(Capability::new(m("get_u"), "u", -60.0, 60.0, Unit::Volt));
        let dvm = Resource::new(rid("Dvm1")).with_capability(Capability::new(
            m("get_u"),
            "u",
            -60.0,
            60.0,
            Unit::Volt,
        ));
        let alone = TestStand::new("smu", Env::with_ubatt(12.0))
            .with_resource(smu)
            .with_connection(pid("Sw1.1"), rid("Smu1"), pid("P"));
        let with_dvm =
            alone
                .clone()
                .with_resource(dvm)
                .with_connection(pid("Sw2.1"), rid("Dvm1"), pid("P"));
        let drive = PutRequirement {
            method: m("put_u"),
            nominal: AppliedValue::Num(5.0),
            window: (5.0, 5.0),
            pins: vec![pid("P")],
        };
        let sense = GetRequirement {
            method: m("get_u"),
            bounds: (4.0, 6.0),
            pins: vec![pid("P")],
        };
        for (stand, routed) in [(&with_dvm, Some("Dvm1")), (&alone, None)] {
            let mut alloc = Allocator::new(stand);
            assert_eq!(
                alloc.route_get(&sig("S"), Some(0), &sense).unwrap(),
                rid("Smu1"),
                "idle, the SMU measures"
            );
            alloc.assign_put(&sig("D"), Some(0), drive.clone()).unwrap();
            let got = alloc.route_get(&sig("S"), Some(0), &sense);
            match routed {
                Some(id) => assert_eq!(got.unwrap(), rid(id)),
                None => assert_eq!(
                    got.unwrap_err().rejections,
                    [(
                        rid("Smu1"),
                        RejectReason::Busy {
                            holding: vec![sig("D")]
                        }
                    )]
                ),
            }
        }
    }

    #[test]
    fn release_frees_capacity() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        alloc
            .assign_put(&sig("DS_FL"), Some(0), open_req("DS_FL"))
            .unwrap();
        alloc
            .assign_put(&sig("DS_FR"), Some(0), open_req("DS_FR"))
            .unwrap();
        assert!(alloc
            .assign_put(&sig("DS_RL"), Some(0), open_req("DS_RL"))
            .is_err());
        assert!(alloc.release(&sig("DS_FL")));
        assert!(!alloc.release(&sig("DS_FL")), "double release is a no-op");
        assert!(alloc
            .assign_put(&sig("DS_RL"), Some(0), open_req("DS_RL"))
            .is_ok());
    }

    #[test]
    fn can_interface_capacity() {
        let mut stand = TestStand::new("can", Env::with_ubatt(12.0));
        stand = stand
            .with_resource(
                Resource::new(rid("CanIf"))
                    .with_capability(Capability::new(
                        m("put_can"),
                        "data",
                        0.0,
                        0.0,
                        Unit::Dimensionless,
                    ))
                    .with_capacity(16),
            )
            .with_connection(pid("IfPort"), rid("CanIf"), pid("CAN0"));
        let mut alloc = Allocator::new(&stand);
        for i in 0..10 {
            let req = PutRequirement {
                method: m("put_can"),
                nominal: AppliedValue::Bits(BitPattern::parse("1B").unwrap()),
                window: (0.0, 0.0),
                pins: vec![pid("CAN0")],
            };
            alloc
                .assign_put(&sig(&format!("S{i}")), Some(0), req)
                .unwrap_or_else(|e| panic!("assignment {i} failed: {e}"));
        }
        assert_eq!(alloc.held_count(), 10);
    }

    #[test]
    fn failure_message_reads_like_the_paper() {
        let stand = paper_stand();
        let mut alloc = Allocator::new(&stand);
        alloc
            .assign_put(&sig("DS_FL"), Some(0), open_req("DS_FL"))
            .unwrap();
        alloc
            .assign_put(&sig("DS_FR"), Some(0), open_req("DS_FR"))
            .unwrap();
        let err = alloc
            .assign_put(&sig("DS_RL"), Some(2), open_req("DS_RL"))
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("step 2"), "{text}");
        assert!(
            text.contains("no resource for put_r on signal DS_RL"),
            "{text}"
        );
        assert!(text.contains("Ress1: method not supported"), "{text}");
        assert!(text.contains("busy"), "{text}");
    }
}
