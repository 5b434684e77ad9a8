//! Abstract instrument methods.
//!
//! A *method* is the unit of portability in the paper: test definitions say
//! `put_r` ("apply this resistance") or `get_u` ("measure this voltage and
//! compare"), and every test stand maps methods onto whatever instruments it
//! actually owns. The registry below carries the built-in vocabulary and can
//! be extended with custom methods.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::units::Unit;

define_name!(
    /// The name of a method (`put_r`, `get_u`, `put_can`, …).
    MethodName,
    "method"
);

/// Whether a method applies a stimulus or observes a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodDirection {
    /// Applies a stimulus to a DUT input (`put_*`).
    Put,
    /// Measures a DUT output and compares against limits (`get_*`).
    Get,
}

impl fmt::Display for MethodDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodDirection::Put => f.write_str("put"),
            MethodDirection::Get => f.write_str("get"),
        }
    }
}

/// The kind of a method's principal attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// A number in a physical unit (voltage, resistance, …).
    Numeric(Unit),
    /// A bit pattern (`data="0001B"`).
    Bits,
}

/// The signature of a method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name.
    pub name: MethodName,
    /// Put or get.
    pub direction: MethodDirection,
    /// Principal attribute name (`u`, `r`, `i`, `f`, `data`).
    pub attribut: String,
    /// Kind/unit of the principal attribute.
    pub attr_kind: AttrKind,
    /// Human description.
    pub description: &'static str,
}

impl MethodSpec {
    /// The unit of the principal attribute, if numeric.
    pub fn unit(&self) -> Option<Unit> {
        match self.attr_kind {
            AttrKind::Numeric(u) => Some(u),
            AttrKind::Bits => None,
        }
    }
}

/// The set of methods known to the toolchain.
///
/// # Example
///
/// ```
/// use comptest_model::{MethodRegistry, MethodName};
///
/// let reg = MethodRegistry::builtin();
/// let get_u = reg.get(&MethodName::new("get_u")?).expect("builtin");
/// assert_eq!(get_u.attribut, "u");
/// # Ok::<(), comptest_model::InvalidNameError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MethodRegistry {
    map: BTreeMap<MethodName, MethodSpec>,
}

impl MethodRegistry {
    /// An empty registry (no methods at all).
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in vocabulary used throughout the paper and this crate:
    ///
    /// | method    | dir | attr  | unit |
    /// |-----------|-----|-------|------|
    /// | `put_u`   | put | `u`   | V    |
    /// | `put_i`   | put | `i`   | A    |
    /// | `put_r`   | put | `r`   | Ohm  |
    /// | `put_f`   | put | `f`   | Hz   |
    /// | `put_can` | put | `data`| bits |
    /// | `get_u`   | get | `u`   | V    |
    /// | `get_i`   | get | `i`   | A    |
    /// | `get_r`   | get | `r`   | Ohm  |
    /// | `get_f`   | get | `f`   | Hz   |
    /// | `get_can` | get | `data`| bits |
    pub fn builtin() -> Self {
        let mut reg = Self::new();
        let rows: [(&str, MethodDirection, &str, AttrKind, &'static str); 10] = [
            (
                "put_u",
                MethodDirection::Put,
                "u",
                AttrKind::Numeric(Unit::Volt),
                "apply a voltage",
            ),
            (
                "put_i",
                MethodDirection::Put,
                "i",
                AttrKind::Numeric(Unit::Ampere),
                "apply/sink a current",
            ),
            (
                "put_r",
                MethodDirection::Put,
                "r",
                AttrKind::Numeric(Unit::Ohm),
                "apply a resistance to ground",
            ),
            (
                "put_f",
                MethodDirection::Put,
                "f",
                AttrKind::Numeric(Unit::Hertz),
                "apply a frequency",
            ),
            (
                "put_can",
                MethodDirection::Put,
                "data",
                AttrKind::Bits,
                "transmit a CAN-mapped bit field",
            ),
            (
                "get_u",
                MethodDirection::Get,
                "u",
                AttrKind::Numeric(Unit::Volt),
                "measure a voltage",
            ),
            (
                "get_i",
                MethodDirection::Get,
                "i",
                AttrKind::Numeric(Unit::Ampere),
                "measure a current",
            ),
            (
                "get_r",
                MethodDirection::Get,
                "r",
                AttrKind::Numeric(Unit::Ohm),
                "measure a resistance",
            ),
            (
                "get_f",
                MethodDirection::Get,
                "f",
                AttrKind::Numeric(Unit::Hertz),
                "measure a frequency",
            ),
            (
                "get_can",
                MethodDirection::Get,
                "data",
                AttrKind::Bits,
                "receive and compare a CAN-mapped bit field",
            ),
        ];
        for (name, direction, attribut, attr_kind, description) in rows {
            reg.register(MethodSpec {
                name: MethodName::new(name).expect("builtin names are valid"),
                direction,
                attribut: attribut.to_owned(),
                attr_kind,
                description,
            });
        }
        reg
    }

    /// The [`builtin`](Self::builtin) registry, built once per process and
    /// shared, for hot paths (planning, codegen, lint) that would otherwise
    /// rebuild it on every call.
    pub fn shared_builtin() -> &'static MethodRegistry {
        static BUILTIN: OnceLock<MethodRegistry> = OnceLock::new();
        BUILTIN.get_or_init(Self::builtin)
    }

    /// Registers (or replaces) a method, returning any previous spec.
    pub fn register(&mut self, spec: MethodSpec) -> Option<MethodSpec> {
        self.map.insert(spec.name.clone(), spec)
    }

    /// Looks a method up by name.
    pub fn get(&self, name: &MethodName) -> Option<&MethodSpec> {
        self.map.get(name)
    }

    /// Looks a method up by raw string.
    ///
    /// Returns `None` both for unknown methods and for strings that are not
    /// valid method names at all.
    pub fn get_str(&self, name: &str) -> Option<&MethodSpec> {
        let name = MethodName::new(name).ok()?;
        self.map.get(&name)
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no methods are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over specs in name order.
    pub fn iter(&self) -> impl Iterator<Item = &MethodSpec> {
        self.map.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_paper_methods() {
        let reg = MethodRegistry::builtin();
        assert_eq!(reg.len(), 10);
        for m in ["put_r", "get_u", "put_can"] {
            assert!(reg.get_str(m).is_some(), "{m} should be builtin");
        }
        let get_u = reg.get_str("GET_U").expect("case-insensitive");
        assert_eq!(get_u.direction, MethodDirection::Get);
        assert_eq!(get_u.attribut, "u");
        assert_eq!(get_u.unit(), Some(Unit::Volt));
        let put_can = reg.get_str("put_can").unwrap();
        assert_eq!(put_can.attr_kind, AttrKind::Bits);
        assert_eq!(put_can.unit(), None);
    }

    #[test]
    fn register_custom_method() {
        let mut reg = MethodRegistry::builtin();
        let spec = MethodSpec {
            name: MethodName::new("put_pwm").unwrap(),
            direction: MethodDirection::Put,
            attribut: "duty".into(),
            attr_kind: AttrKind::Numeric(Unit::Percent),
            description: "apply a PWM duty cycle",
        };
        assert!(reg.register(spec.clone()).is_none());
        assert_eq!(reg.get_str("put_pwm"), Some(&spec));
        // Re-registering replaces.
        assert_eq!(reg.register(spec.clone()).as_ref(), Some(&spec));
    }

    #[test]
    fn get_str_invalid_name() {
        let reg = MethodRegistry::builtin();
        assert!(reg.get_str("not a method!").is_none());
        assert!(reg.get_str("").is_none());
    }

    #[test]
    fn iteration_is_ordered() {
        let reg = MethodRegistry::builtin();
        let names: Vec<String> = reg.iter().map(|s| s.name.key()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
