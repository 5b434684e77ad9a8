//! Status definitions: the status table of the paper's Section 3.
//!
//! Every status used in the signal or test sheets is defined here: which
//! method realises it, the method attribute, an optional scaling variable
//! (e.g. `UBATT`) and nominal/min/max values.
//!
//! # Column semantics
//!
//! The paper leaves these partly implicit; this crate reads them as follows.
//!
//! * `nom` is the value a `put_*` status applies; for a `get_*` status it
//!   is informational only. A bit-pattern status (`data` attribute) gives
//!   its pattern (`0001B`) in `nom` and leaves `min`/`max` empty.
//! * `min`/`max` bound the value: the window a stand resource must be able
//!   to realise for a `put_*` status, and the acceptance limits of a
//!   measurement for a `get_*` status. An empty cell is unbounded; `INF`
//!   is infinity.
//! * With `var` set, `nom`, `min` and `max` are multipliers of the stand's
//!   value of that variable, resolved only when the stand is known: `Ho`
//!   (`get_u`, `UBATT`, 1, 0.7, 1.1) accepts 0.7·UBATT to 1.1·UBATT.
//! * `D1` is a settle time before the status counts as applied (`put_*`)
//!   or before sampling may start (`get_*`); `D2` and `D3` are read but
//!   reserved.
//!
//! # Normalisations of the paper's tables
//!
//! The bundled workbooks and stands reproduce the paper's tables with
//! these changes:
//!
//! * The door switches' statuses are resistances the stand imposes:
//!   `Open` (the switch shorts the pin) is `put_r` with 0 Ω nominal and a
//!   0..2 Ω window, `Closed` (an open circuit) is `put_r` with nominal
//!   `INF` and at least 5 kΩ, unbounded above.
//! * Stand A's decade resistors are `put_r` resources where the paper's
//!   resource table writes `get_r`: allocation matches a status's method
//!   to a resource's method, and the statuses above put a resistance.
//! * Stand A gains a CAN interface (`Can1`, switched to pin `CAN0` through
//!   point `Port1`), because the signal sheet drives `IGN_ST` and `NIGHT`
//!   over CAN.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::expr::{Env, EvalExprError, Expr};
use crate::method::{MethodDirection, MethodName, MethodRegistry};
use crate::time::SimTime;
use crate::value::{number_to_string, BitPattern};

define_name!(
    /// The name of a status (`Open`, `Closed`, `Lo`, `Ho`, `0`, `1`, …).
    StatusName,
    "status"
);

/// One row of the status definition sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusDef {
    /// Status name, referenced from signal and test sheets.
    pub name: StatusName,
    /// The abstract method realising the status (`put_r`, `get_u`, …).
    pub method: MethodName,
    /// The method's principal attribute (`r`, `u`, `data`, …).
    pub attribut: String,
    /// Optional scaling variable: when set, `nom`/`min`/`max` are multiplied
    /// by the stand's value of this variable (the paper's `var (x)` column).
    pub var: Option<String>,
    /// Nominal value — the target for `put_*`, informational for `get_*`.
    /// `None` only for bit-pattern statuses where `bits` is set instead.
    pub nom: Option<f64>,
    /// Lower limit (multiplier if `var` is set). `None` means unbounded.
    pub min: Option<f64>,
    /// Upper limit (multiplier if `var` is set). `None` means unbounded.
    pub max: Option<f64>,
    /// Bit pattern for `data`-attribute statuses (`0001B`).
    pub bits: Option<BitPattern>,
    /// `D1`: settle time in seconds before the status is considered applied
    /// (for `put_*`) or before sampling may begin (for `get_*`).
    pub d1: Option<f64>,
    /// `D2`: sample window in seconds (reserved for continuous monitoring).
    pub d2: Option<f64>,
    /// `D3`: reserved.
    pub d3: Option<f64>,
}

impl StatusDef {
    /// Creates a numeric status with nominal value and limits.
    pub fn numeric(
        name: StatusName,
        method: MethodName,
        attribut: impl Into<String>,
        nom: f64,
        min: f64,
        max: f64,
    ) -> Self {
        Self {
            name,
            method,
            attribut: attribut.into(),
            var: None,
            nom: Some(nom),
            min: Some(min),
            max: Some(max),
            bits: None,
            d1: None,
            d2: None,
            d3: None,
        }
    }

    /// Creates a bit-pattern status (`put_can` / `get_can`).
    pub fn bits(
        name: StatusName,
        method: MethodName,
        attribut: impl Into<String>,
        bits: BitPattern,
    ) -> Self {
        Self {
            name,
            method,
            attribut: attribut.into(),
            var: None,
            nom: None,
            min: None,
            max: None,
            bits: Some(bits),
            d1: None,
            d2: None,
            d3: None,
        }
    }

    /// Sets the scaling variable (builder style).
    pub fn with_var(mut self, var: impl Into<String>) -> Self {
        self.var = Some(var.into().to_ascii_lowercase());
        self
    }

    /// Sets the settle time `D1` in seconds (builder style).
    pub fn with_settle(mut self, secs: f64) -> Self {
        self.d1 = Some(secs);
        self
    }

    /// The lower bound as an expression for script generation:
    /// `min` or `(min*var)`, `None` if unbounded.
    pub fn min_expr(&self) -> Option<Expr> {
        self.bound_expr(self.min)
    }

    /// The upper bound as an expression for script generation.
    pub fn max_expr(&self) -> Option<Expr> {
        self.bound_expr(self.max)
    }

    /// The nominal value as an expression for script generation.
    pub fn nom_expr(&self) -> Option<Expr> {
        self.bound_expr(self.nom)
    }

    fn bound_expr(&self, bound: Option<f64>) -> Option<Expr> {
        let b = bound?;
        Some(match &self.var {
            Some(var) => Expr::mul(Expr::num(b), Expr::var(var)),
            None => Expr::num(b),
        })
    }

    /// Resolves the status against a stand environment into concrete bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveStatusError`] if the scaling variable is missing from
    /// the environment.
    pub fn resolve(&self, env: &Env) -> Result<ResolvedStatus, ResolveStatusError> {
        if let Some(bits) = self.bits {
            return Ok(ResolvedStatus {
                status: self.name.clone(),
                method: self.method.clone(),
                attribut: self.attribut.clone(),
                bound: StatusBound::Bits(bits),
                settle: SimTime::from_secs_f64(self.d1.unwrap_or(0.0)),
                window: SimTime::from_secs_f64(self.d2.unwrap_or(0.0)),
            });
        }
        let scale = match &self.var {
            Some(var) => env.get(var).ok_or_else(|| ResolveStatusError {
                status: self.name.clone(),
                source: EvalExprError::UnknownVariable { name: var.clone() },
            })?,
            None => 1.0,
        };
        let nominal = self.nom.map(|n| n * scale);
        let lo = self.min.map_or(f64::NEG_INFINITY, |m| m * scale);
        let hi = self.max.map_or(f64::INFINITY, |m| m * scale);
        Ok(ResolvedStatus {
            status: self.name.clone(),
            method: self.method.clone(),
            attribut: self.attribut.clone(),
            bound: StatusBound::Numeric { nominal, lo, hi },
            settle: SimTime::from_secs_f64(self.d1.unwrap_or(0.0)),
            window: SimTime::from_secs_f64(self.d2.unwrap_or(0.0)),
        })
    }

    /// Sanity-checks the definition against a method registry.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// unknown method, attribute mismatch, `nom` outside `[min, max]`,
    /// inverted limits, or a bit pattern on a numeric method.
    pub fn check(&self, registry: &MethodRegistry) -> Result<(), String> {
        let spec = registry
            .get(&self.method)
            .ok_or_else(|| format!("status {}: unknown method {}", self.name, self.method))?;
        if !spec.attribut.eq_ignore_ascii_case(&self.attribut) {
            return Err(format!(
                "status {}: method {} expects attribute `{}`, sheet says `{}`",
                self.name, self.method, spec.attribut, self.attribut
            ));
        }
        match spec.attr_kind {
            crate::method::AttrKind::Bits => {
                if self.bits.is_none() {
                    return Err(format!(
                        "status {}: method {} needs a bit pattern (e.g. 0001B)",
                        self.name, self.method
                    ));
                }
            }
            crate::method::AttrKind::Numeric(_) => {
                if self.bits.is_some() {
                    return Err(format!(
                        "status {}: method {} is numeric but a bit pattern was given",
                        self.name, self.method
                    ));
                }
                if let (Some(lo), Some(hi)) = (self.min, self.max) {
                    if lo > hi {
                        return Err(format!(
                            "status {}: min {} exceeds max {}",
                            self.name,
                            number_to_string(lo),
                            number_to_string(hi)
                        ));
                    }
                }
                if let Some(nom) = self.nom {
                    let lo = self.min.unwrap_or(f64::NEG_INFINITY);
                    let hi = self.max.unwrap_or(f64::INFINITY);
                    if nom < lo || nom > hi {
                        return Err(format!(
                            "status {}: nominal {} outside [{}, {}]",
                            self.name,
                            number_to_string(nom),
                            number_to_string(lo),
                            number_to_string(hi)
                        ));
                    }
                }
                if spec.direction == MethodDirection::Put && self.nom.is_none() {
                    return Err(format!(
                        "status {}: put method {} needs a nominal value",
                        self.name, self.method
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The value constraint of a resolved status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatusBound {
    /// Numeric target and acceptance/realization interval in concrete units.
    Numeric {
        /// Scaled nominal value (`None` when only bounds were given).
        nominal: Option<f64>,
        /// Scaled lower limit (may be `-INF`).
        lo: f64,
        /// Scaled upper limit (may be `+INF`).
        hi: f64,
    },
    /// Exact bit pattern.
    Bits(BitPattern),
}

impl StatusBound {
    /// True if a measured numeric value satisfies the bound.
    pub fn accepts_num(&self, value: f64) -> bool {
        match self {
            StatusBound::Numeric { lo, hi, .. } => value >= *lo && value <= *hi,
            StatusBound::Bits(_) => false,
        }
    }

    /// True if a measured bit value satisfies the bound.
    pub fn accepts_bits(&self, value: u64) -> bool {
        match self {
            StatusBound::Bits(p) => p.matches(value),
            StatusBound::Numeric { .. } => false,
        }
    }
}

impl fmt::Display for StatusBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::value::display_number;
        match self {
            StatusBound::Numeric { nominal, lo, hi } => {
                if let Some(n) = nominal {
                    write!(f, "{} ", display_number(*n))?;
                }
                write!(f, "[{}, {}]", display_number(*lo), display_number(*hi))
            }
            StatusBound::Bits(b) => b.fmt(f),
        }
    }
}

/// A status resolved against a concrete stand environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedStatus {
    /// The originating status.
    pub status: StatusName,
    /// The method to execute.
    pub method: MethodName,
    /// The method's principal attribute.
    pub attribut: String,
    /// Concrete value constraint.
    pub bound: StatusBound,
    /// Settle time before apply/sample (`D1`).
    pub settle: SimTime,
    /// Sample window (`D2`).
    pub window: SimTime,
}

/// The status table: an ordered collection of [`StatusDef`]s with
/// case-insensitive lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusTable {
    rows: Vec<StatusDef>,
    /// Row index by name; `StatusName` orders case-insensitively, so a
    /// lookup needs no lowercase copy of the name.
    index: BTreeMap<StatusName, usize>,
}

impl StatusTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a definition. A redefinition replaces the earlier row and is
    /// reported by returning the old definition.
    pub fn insert(&mut self, def: StatusDef) -> Option<StatusDef> {
        match self.index.get(&def.name) {
            Some(&i) => {
                let old = std::mem::replace(&mut self.rows[i], def);
                Some(old)
            }
            None => {
                self.index.insert(def.name.clone(), self.rows.len());
                self.rows.push(def);
                None
            }
        }
    }

    /// Looks a status up by name, case-insensitively.
    pub fn get(&self, name: &StatusName) -> Option<&StatusDef> {
        self.index.get(name).map(|&i| &self.rows[i])
    }

    /// Looks a status up by raw string (`None` for a string that is not a
    /// valid status name).
    pub fn get_str(&self, name: &str) -> Option<&StatusDef> {
        self.get(&StatusName::new(name).ok()?)
    }

    /// Number of statuses.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates in sheet order.
    pub fn iter(&self) -> std::slice::Iter<'_, StatusDef> {
        self.rows.iter()
    }
}

impl FromIterator<StatusDef> for StatusTable {
    fn from_iter<T: IntoIterator<Item = StatusDef>>(iter: T) -> Self {
        let mut table = StatusTable::new();
        for def in iter {
            table.insert(def);
        }
        table
    }
}

impl<'a> IntoIterator for &'a StatusTable {
    type Item = &'a StatusDef;
    type IntoIter = std::slice::Iter<'a, StatusDef>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// Error resolving a [`StatusDef`] against an [`Env`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveStatusError {
    /// The status that failed to resolve.
    pub status: StatusName,
    /// Underlying evaluation error.
    pub source: EvalExprError,
}

impl fmt::Display for ResolveStatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot resolve status {}: {}", self.status, self.source)
    }
}

impl Error for ResolveStatusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodRegistry;

    fn name(s: &str) -> StatusName {
        StatusName::new(s).unwrap()
    }

    fn method(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    /// The paper's `Ho` row: `get_u u UBATT 1 0,7 1,1`.
    fn ho() -> StatusDef {
        StatusDef::numeric(name("Ho"), method("get_u"), "u", 1.0, 0.7, 1.1).with_var("UBATT")
    }

    /// The paper's `Open` row, normalised as the module docs list: 0 Ω
    /// nominal, 0..2 Ω.
    fn open() -> StatusDef {
        StatusDef::numeric(name("Open"), method("put_r"), "r", 0.0, 0.0, 2.0).with_settle(0.01)
    }

    #[test]
    fn resolve_scaled_status() {
        let env = Env::with_ubatt(12.0);
        let r = ho().resolve(&env).unwrap();
        match r.bound {
            StatusBound::Numeric { nominal, lo, hi } => {
                assert_eq!(nominal, Some(12.0));
                assert!((lo - 8.4).abs() < 1e-12);
                assert!((hi - 13.2).abs() < 1e-12);
            }
            _ => panic!("expected numeric bound"),
        }
        assert!(r.bound.accepts_num(12.0));
        assert!(r.bound.accepts_num(8.4));
        assert!(!r.bound.accepts_num(8.3));
        assert!(!r.bound.accepts_num(13.3));
    }

    #[test]
    fn resolve_unscaled_status() {
        let env = Env::new();
        let r = open().resolve(&env).unwrap();
        match r.bound {
            StatusBound::Numeric { nominal, lo, hi } => {
                assert_eq!(nominal, Some(0.0));
                assert_eq!((lo, hi), (0.0, 2.0));
            }
            _ => panic!("expected numeric bound"),
        }
        assert_eq!(r.settle, SimTime::from_millis(10));
    }

    #[test]
    fn resolve_missing_variable_errors() {
        let err = ho().resolve(&Env::new()).unwrap_err();
        assert_eq!(err.status, name("Ho"));
        assert!(err.to_string().contains("ubatt"));
    }

    #[test]
    fn resolve_infinite_bounds() {
        // `Closed` as normalised in the module docs: nominal INF, at least
        // 5 kΩ.
        let closed = StatusDef {
            min: Some(5000.0),
            max: None,
            nom: Some(f64::INFINITY),
            ..StatusDef::numeric(name("Closed"), method("put_r"), "r", 0.0, 0.0, 0.0)
        };
        let r = closed.resolve(&Env::new()).unwrap();
        assert!(r.bound.accepts_num(1e6));
        assert!(r.bound.accepts_num(f64::INFINITY));
        assert!(!r.bound.accepts_num(4999.0));
    }

    #[test]
    fn bits_status_resolution_and_matching() {
        let s = StatusDef::bits(
            name("Off"),
            method("put_can"),
            "data",
            BitPattern::parse("0001B").unwrap(),
        );
        let r = s.resolve(&Env::new()).unwrap();
        assert!(r.bound.accepts_bits(1));
        assert!(!r.bound.accepts_bits(2));
        assert!(!r.bound.accepts_num(1.0));
    }

    #[test]
    fn bound_exprs_for_codegen() {
        let ho = ho();
        assert_eq!(ho.min_expr().unwrap().to_string(), "(0.7*ubatt)");
        assert_eq!(ho.max_expr().unwrap().to_string(), "(1.1*ubatt)");
        assert_eq!(ho.nom_expr().unwrap().to_string(), "(1*ubatt)");
        let open = open();
        assert_eq!(open.min_expr().unwrap().to_string(), "0");
        assert_eq!(open.max_expr().unwrap().to_string(), "2");
    }

    #[test]
    fn check_catches_inconsistencies() {
        let reg = MethodRegistry::builtin();
        assert!(ho().check(&reg).is_ok());
        assert!(open().check(&reg).is_ok());

        // Unknown method.
        let mut bad = open();
        bad.method = method("put_q");
        assert!(bad.check(&reg).unwrap_err().contains("unknown method"));

        // Wrong attribute.
        let mut bad = open();
        bad.attribut = "u".into();
        assert!(bad.check(&reg).unwrap_err().contains("attribute"));

        // Inverted limits — this is the paper's own `Open 0 0,5 1 2` row.
        let mut bad = open();
        bad.min = Some(0.5);
        bad.max = Some(2.0);
        bad.nom = Some(0.0);
        assert!(bad.check(&reg).unwrap_err().contains("outside"));

        // Bits on numeric method.
        let mut bad = open();
        bad.bits = Some(BitPattern::parse("1B").unwrap());
        assert!(bad.check(&reg).is_err());

        // Numeric on bits method.
        let bad = StatusDef::numeric(name("x"), method("put_can"), "data", 0.0, 0.0, 1.0);
        assert!(bad.check(&reg).unwrap_err().contains("bit pattern"));
    }

    #[test]
    fn table_insert_lookup_replace() {
        let mut t = StatusTable::new();
        assert!(t.is_empty());
        assert!(t.insert(ho()).is_none());
        assert!(t.insert(open()).is_none());
        assert_eq!(t.len(), 2);
        assert!(t.get(&name("HO")).is_some(), "case-insensitive lookup");
        assert!(t.get_str("open").is_some());
        assert!(t.get_str("nope").is_none());
        // Replacement keeps sheet order and returns the old row.
        let mut ho2 = ho();
        ho2.max = Some(1.2);
        let old = t.insert(ho2).unwrap();
        assert_eq!(old.max, Some(1.1));
        assert_eq!(t.iter().next().unwrap().max, Some(1.2));
    }

    #[test]
    fn table_from_iterator() {
        let t: StatusTable = vec![ho(), open()].into_iter().collect();
        assert_eq!(t.len(), 2);
    }
}
