//! Resources: instruments described by the methods they support.

use std::fmt;

use comptest_model::{MethodName, Unit};

comptest_model::define_name!(
    /// The identifier of a resource (`Ress1`, `Dvm1`, `CanIf`, …). Resource
    /// ids follow the same rules as other sheet names: non-empty ASCII
    /// `[A-Za-z0-9_.-]`.
    ResourceId,
    "resource"
);

/// One supported method with its valid parameter range — one row of the
/// paper's resource table (`Ress1  get_u  u  -60  60  V`).
#[derive(Debug, Clone, PartialEq)]
pub struct Capability {
    /// The supported method.
    pub method: MethodName,
    /// Principal attribute name.
    pub attribut: String,
    /// Smallest realisable / measurable value.
    pub min: f64,
    /// Largest realisable / measurable value (may be `INF`, e.g. a decade
    /// that can open-circuit).
    pub max: f64,
    /// The range's unit.
    pub unit: Unit,
}

impl Capability {
    /// Creates a capability.
    pub fn new(
        method: MethodName,
        attribut: impl Into<String>,
        min: f64,
        max: f64,
        unit: Unit,
    ) -> Self {
        Self {
            method,
            attribut: attribut.into(),
            min,
            max,
            unit,
        }
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}: {}..{} {})",
            self.method,
            self.attribut,
            comptest_model::value::number_to_string(self.min),
            comptest_model::value::number_to_string(self.max),
            self.unit
        )
    }
}

/// An instrument of the test stand.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Identifier used by the connection matrix.
    pub id: ResourceId,
    /// Supported methods with ranges.
    pub capabilities: Vec<Capability>,
    /// How many signals the resource can serve simultaneously. Classic
    /// instruments (DVM, decade) have capacity 1; a CAN interface serves a
    /// whole bus worth of mapped signals.
    pub capacity: usize,
}

impl Resource {
    /// Creates a resource with capacity 1 and no capabilities.
    pub fn new(id: ResourceId) -> Self {
        Self {
            id,
            capabilities: Vec::new(),
            capacity: 1,
        }
    }

    /// Adds a capability (builder style).
    pub fn with_capability(mut self, cap: Capability) -> Self {
        self.capabilities.push(cap);
        self
    }

    /// Sets the capacity (builder style).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// The capability for a method, if supported.
    pub fn capability(&self, method: &MethodName) -> Option<&Capability> {
        self.capabilities.iter().find(|c| &c.method == method)
    }

    /// True if the resource supports the method at all.
    pub fn supports(&self, method: &MethodName) -> bool {
        self.capability(method).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    #[test]
    fn resource_id_semantics() {
        let a = ResourceId::new("Ress1").unwrap();
        let b = ResourceId::new("RESS1").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, "ress1");
        assert_eq!(a.to_string(), "Ress1");
        assert!(ResourceId::new("bad id").is_err());
    }

    #[test]
    fn bad_resource_id_is_reported_as_a_resource_name() {
        let err = ResourceId::new("Dec/1").unwrap_err();
        assert_eq!(err.offending(), "Dec/1");
        assert_eq!(
            err.to_string(),
            "invalid resource name \"Dec/1\": must be non-empty ASCII of [A-Za-z0-9_.-]"
        );
    }

    #[test]
    fn paper_resource_table() {
        // Ress1: DVM. Ress2/Ress3: resistor decades (normalised to put_r).
        let dvm = Resource::new(ResourceId::new("Ress1").unwrap())
            .with_capability(Capability::new(m("get_u"), "u", -60.0, 60.0, Unit::Volt));
        let decade1 = Resource::new(ResourceId::new("Ress2").unwrap())
            .with_capability(Capability::new(m("put_r"), "r", 0.0, 1.0e6, Unit::Ohm));
        assert!(dvm.supports(&m("get_u")));
        assert!(!dvm.supports(&m("put_r")));
        let cap = decade1.capability(&m("put_r")).unwrap();
        assert_eq!(cap.max, 1.0e6);
        assert_eq!(cap.to_string(), "put_r(r: 0..1000000 Ohm)");
        assert_eq!(dvm.capacity, 1);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let r = Resource::new(ResourceId::new("X").unwrap()).with_capacity(0);
        assert_eq!(r.capacity, 1);
    }
}
