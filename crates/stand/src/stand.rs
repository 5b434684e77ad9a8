//! The test stand: resources + matrix + environment.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use comptest_model::{Env, MethodName, PinId};

use crate::matrix::ConnectionMatrix;
use crate::resource::{Resource, ResourceId};

/// A complete test stand description.
///
/// Build one programmatically with the [`TestStand::with_resource`] /
/// [`TestStand::with_connection`] setters, or load a `.stand` file via
/// [`TestStand::load`] / [`TestStand::parse_str`] (see
/// [`crate::config`]).
///
/// Planning reads the stand through a pin index (pin → the resources with
/// a crosspoint to it), built on first use and dropped by every mutator.
/// The index is derived data: it takes no part in equality or `Debug`.
#[derive(Clone)]
pub struct TestStand {
    name: String,
    env: Env,
    resources: Vec<Resource>,
    matrix: ConnectionMatrix,
    pin_index: OnceLock<HashMap<PinId, Vec<usize>>>,
}

impl TestStand {
    /// Creates an empty stand with the given name and environment.
    ///
    /// The environment must contain every variable generated scripts use;
    /// in practice that is at least `ubatt`.
    pub fn new(name: impl Into<String>, env: Env) -> TestStand {
        TestStand {
            name: name.into(),
            env,
            resources: Vec::new(),
            matrix: ConnectionMatrix::new(),
            pin_index: OnceLock::new(),
        }
    }

    /// Adds a resource (builder style).
    ///
    /// # Panics
    ///
    /// Panics if a resource with the same id already exists — stand
    /// descriptions merge capability rows per id before construction.
    pub fn with_resource(mut self, resource: Resource) -> TestStand {
        assert!(
            self.resource(&resource.id).is_none(),
            "duplicate resource id {}",
            resource.id
        );
        self.push_resource(resource);
        self
    }

    /// Adds a matrix crosspoint (builder style).
    pub fn with_connection(mut self, point: PinId, resource: ResourceId, pin: PinId) -> TestStand {
        self.matrix_mut().add(point, resource, pin);
        self
    }

    /// The stand's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stand's expression environment (`ubatt`, …).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Mutable access to the environment (e.g. sweep `ubatt` in a bench).
    pub fn env_mut(&mut self) -> &mut Env {
        &mut self.env
    }

    /// All resources.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Looks a resource up by id.
    pub fn resource(&self, id: &ResourceId) -> Option<&Resource> {
        self.resources.iter().find(|r| &r.id == id)
    }

    /// The connection matrix.
    pub fn matrix(&self) -> &ConnectionMatrix {
        &self.matrix
    }

    /// Mutable matrix access (used by the config parser).
    pub(crate) fn matrix_mut(&mut self) -> &mut ConnectionMatrix {
        self.pin_index = OnceLock::new();
        &mut self.matrix
    }

    /// Pushes a resource (used by the config parser).
    pub(crate) fn push_resource(&mut self, resource: Resource) {
        self.pin_index = OnceLock::new();
        self.resources.push(resource);
    }

    /// The resources with a crosspoint to `pin`, each once, in stand order.
    /// Pins compare case-insensitively, like everywhere else.
    pub(crate) fn resources_reaching<'s>(
        &'s self,
        pin: &PinId,
    ) -> impl Iterator<Item = &'s Resource> {
        let index = self.pin_index.get_or_init(|| self.build_pin_index());
        index
            .get(pin)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&i| &self.resources[i])
    }

    fn build_pin_index(&self) -> HashMap<PinId, Vec<usize>> {
        let mut index: HashMap<PinId, Vec<usize>> = HashMap::new();
        for (i, resource) in self.resources.iter().enumerate() {
            for pin in self.matrix.pins_for_resource(&resource.id) {
                let reaching = index.entry(pin.clone()).or_default();
                // Parallel crosspoints (same resource, same pin) list once.
                if reaching.last() != Some(&i) {
                    reaching.push(i);
                }
            }
        }
        index
    }

    /// All resources that support `method` at all (before range/connection
    /// filtering) — handy for diagnostics.
    pub fn resources_supporting(&self, method: &MethodName) -> Vec<&Resource> {
        self.resources
            .iter()
            .filter(|r| r.supports(method))
            .collect()
    }
}

impl PartialEq for TestStand {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.env == other.env
            && self.resources == other.resources
            && self.matrix == other.matrix
    }
}

impl fmt::Debug for TestStand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestStand")
            .field("name", &self.name)
            .field("env", &self.env)
            .field("resources", &self.resources)
            .field("matrix", &self.matrix)
            .finish()
    }
}

impl fmt::Display for TestStand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stand {} ({} resources, {} crosspoints)",
            self.name,
            self.resources.len(),
            self.matrix.len()
        )?;
        for r in &self.resources {
            write!(f, "  {}", r.id)?;
            if r.capacity != 1 {
                write!(f, " (capacity {})", r.capacity)?;
            }
            for c in &r.capabilities {
                write!(f, " {c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Capability;
    use comptest_model::Unit;

    fn rid(s: &str) -> ResourceId {
        ResourceId::new(s).unwrap()
    }

    fn pid(s: &str) -> PinId {
        PinId::new(s).unwrap()
    }

    fn m(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    fn demo_stand() -> TestStand {
        TestStand::new("demo", Env::with_ubatt(12.0))
            .with_resource(Resource::new(rid("Dvm1")).with_capability(Capability::new(
                m("get_u"),
                "u",
                -60.0,
                60.0,
                Unit::Volt,
            )))
            .with_resource(Resource::new(rid("Dec1")).with_capability(Capability::new(
                m("put_r"),
                "r",
                0.0,
                1e6,
                Unit::Ohm,
            )))
            .with_connection(pid("Sw1.1"), rid("Dvm1"), pid("LAMP_F"))
            .with_connection(pid("Mx1.1"), rid("Dec1"), pid("DS_FL"))
    }

    #[test]
    fn lookups() {
        let s = demo_stand();
        assert_eq!(s.name(), "demo");
        assert_eq!(s.env().get("UBATT"), Some(12.0));
        assert!(s.resource(&rid("dvm1")).is_some());
        assert!(s.resource(&rid("nope")).is_none());
        assert_eq!(s.resources_supporting(&m("put_r")).len(), 1);
        assert_eq!(s.resources_supporting(&m("put_u")).len(), 0);
        assert_eq!(s.matrix().len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate resource id")]
    fn duplicate_resource_panics() {
        let s = demo_stand();
        let _ = s.with_resource(Resource::new(rid("DVM1")));
    }

    #[test]
    fn display_summarises() {
        let text = demo_stand().to_string();
        assert!(text.contains("stand demo"));
        assert!(text.contains("get_u"));
    }

    fn reaching(stand: &TestStand, pin: &str) -> Vec<String> {
        stand
            .resources_reaching(&pid(pin))
            .map(|r| r.id.to_string())
            .collect()
    }

    fn decade(id: &str) -> Resource {
        Resource::new(rid(id)).with_capability(Capability::new(
            m("put_r"),
            "r",
            0.0,
            1e6,
            Unit::Ohm,
        ))
    }

    fn open_on(pin: &str) -> crate::alloc::PutRequirement {
        crate::alloc::PutRequirement {
            method: m("put_r"),
            nominal: crate::AppliedValue::Num(0.0),
            window: (0.0, 2.0),
            pins: vec![pid(pin)],
        }
    }

    fn assign(stand: &TestStand, pin: &str) -> Result<String, crate::AllocFailure> {
        let signal = comptest_model::SignalName::new(pin).unwrap();
        crate::Allocator::new(stand)
            .assign_put(&signal, Some(0), open_on(pin))
            .map(|grant| grant.resource.to_string())
    }

    #[test]
    fn pin_index_lists_each_reaching_resource_once_in_stand_order() {
        let stand = demo_stand()
            .with_resource(decade("Dec2"))
            .with_connection(pid("Mx2.1"), rid("Dec2"), pid("DS_FL"))
            // A parallel crosspoint to the same pin lists Dec1 once.
            .with_connection(pid("Mx1.2"), rid("Dec1"), pid("DS_FL"));
        assert_eq!(reaching(&stand, "DS_FL"), ["Dec1", "Dec2"]);
        assert_eq!(reaching(&stand, "LAMP_F"), ["Dvm1"]);
        assert!(reaching(&stand, "GHOST").is_empty());
    }

    #[test]
    fn mutators_drop_a_built_pin_index() {
        let stand = demo_stand();
        assert!(
            assign(&stand, "DS_FR").is_err(),
            "nothing reaches DS_FR yet"
        );

        // A new crosspoint on a planned stand is seen by the next plan.
        let stand = stand.with_connection(pid("Mx2.1"), rid("Dec1"), pid("DS_FR"));
        assert_eq!(assign(&stand, "DS_FR").unwrap(), "Dec1");

        // So is a new resource with its crosspoint.
        let stand = stand.with_resource(decade("Dec2")).with_connection(
            pid("Mx3.1"),
            rid("Dec2"),
            pid("DS_RL"),
        );
        assert_eq!(assign(&stand, "DS_RL").unwrap(), "Dec2");

        // And the config parser's in-place mutators.
        let mut stand = stand;
        stand.push_resource(decade("Dec3"));
        stand
            .matrix_mut()
            .add(pid("Mx4.1"), rid("Dec3"), pid("DS_RR"));
        assert_eq!(reaching(&stand, "DS_RR"), ["Dec3"]);
        assert_eq!(assign(&stand, "DS_RR").unwrap(), "Dec3");
    }

    #[test]
    fn the_pin_index_is_invisible_to_equality_and_debug() {
        let unplanned = demo_stand();
        let planned = demo_stand();
        assign(&planned, "DS_FL").unwrap();
        let planned_clone = planned.clone();
        assert_eq!(planned_clone, unplanned);
        assert_eq!(format!("{planned_clone:?}"), format!("{unplanned:?}"));
        assert!(!format!("{planned:?}").contains("pin_index"));
    }

    #[test]
    fn pin_spellings_differing_in_case_share_an_index_entry() {
        let stand = demo_stand();
        assert_eq!(reaching(&stand, "ds_fl"), reaching(&stand, "DS_FL"));
        assert_eq!(assign(&stand, "ds_fl").unwrap(), "Dec1");
    }

    #[test]
    fn a_multi_pin_get_needs_a_crosspoint_to_every_pin() {
        let dvm = |id: &str| {
            Resource::new(rid(id)).with_capability(Capability::new(
                m("get_u"),
                "u",
                -60.0,
                60.0,
                Unit::Volt,
            ))
        };
        // Dvm1 reaches only the first pin, so the index offers it first.
        let half = TestStand::new("half", Env::with_ubatt(12.0))
            .with_resource(dvm("Dvm1"))
            .with_connection(pid("Sw1.1"), rid("Dvm1"), pid("OUT_F"));
        let get = crate::alloc::GetRequirement {
            method: m("get_u"),
            bounds: (0.0, 0.3),
            pins: vec![pid("OUT_F"), pid("OUT_R")],
        };
        let signal = comptest_model::SignalName::new("OUT").unwrap();
        let err = crate::Allocator::new(&half)
            .route_get(&signal, Some(0), &get)
            .unwrap_err();
        assert_eq!(
            err.rejections,
            [(
                rid("Dvm1"),
                crate::RejectReason::NotConnected { pin: pid("OUT_R") }
            )]
        );

        let both = half
            .with_resource(dvm("Dvm2"))
            .with_connection(pid("Sw2.1"), rid("Dvm2"), pid("OUT_F"))
            .with_connection(pid("Sw2.2"), rid("Dvm2"), pid("OUT_R"));
        let routed = crate::Allocator::new(&both)
            .route_get(&signal, Some(0), &get)
            .unwrap();
        assert_eq!(routed, rid("Dvm2"));
    }
}
