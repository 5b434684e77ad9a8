//! The interpreter front half: script → concrete per-step instrument plan.
//!
//! Given a parsed [`TestScript`] and a [`TestStand`], [`plan`] resolves every
//! signal statement: expression attributes are evaluated against the stand's
//! environment, and a resource is allocated (the paper's "searches an
//! approriate ressource").  The result is an [`ExecutionPlan`] the execution
//! engine (in `comptest-core`) replays against a simulated DUT; planning
//! alone is also the portability check between stands.

use comptest_model::{
    AttrKind, MethodDirection, MethodName, MethodRegistry, PinId, SignalKind, SignalName, SimTime,
    StatusBound,
};
use comptest_script::{AttrValue, Statement, TestScript};

pub use crate::alloc::AppliedValue;
use crate::alloc::{AllocOptions, Allocator, GetRequirement, PutRequirement};
use crate::error::StandError;
use crate::stand::TestStand;

/// The pseudo-pin every CAN-mapped signal connects through: a stand's CAN
/// interface must have a matrix crosspoint to `CAN0`.
pub const CAN_ATTACHMENT: &str = "CAN0";

/// One concrete instrument action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Apply a stimulus.
    Apply {
        /// Target signal.
        signal: SignalName,
        /// Physical realisation of the signal (pins / CAN field).
        kind: SignalKind,
        /// The allocated resource.
        resource: crate::resource::ResourceId,
        /// The method executed by the resource.
        method: MethodName,
        /// The value the resource applies.
        value: AppliedValue,
        /// Settle time before the stimulus counts as applied.
        settle: SimTime,
    },
    /// Measure and compare at step end.
    Check(GetCheck),
}

/// A measurement with acceptance bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct GetCheck {
    /// Target signal.
    pub signal: SignalName,
    /// Physical realisation of the signal.
    pub kind: SignalKind,
    /// The routed measurement resource.
    pub resource: crate::resource::ResourceId,
    /// The measurement method.
    pub method: MethodName,
    /// Acceptance bound (numeric interval or bit pattern).
    pub bound: StatusBound,
    /// Settle time before sampling may begin.
    pub settle: SimTime,
    /// Optional monitoring window (`D2`); zero = sample once at step end.
    pub window: SimTime,
}

/// One planned step.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStep {
    /// Step number from the script.
    pub nr: u32,
    /// Step duration.
    pub dt: SimTime,
    /// Actions in statement order (applies before checks is *not* enforced
    /// here; the engine applies all stimuli first, then schedules checks).
    pub actions: Vec<Action>,
}

/// A fully resolved execution plan for one script on one stand.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// The script's test name.
    pub script_name: String,
    /// The stand it was planned for.
    pub stand_name: String,
    /// Initial stimuli (the signal sheet's "status before start").
    pub init: Vec<Action>,
    /// The timed steps.
    pub steps: Vec<PlannedStep>,
}

impl ExecutionPlan {
    /// Total planned duration.
    pub fn duration(&self) -> SimTime {
        self.steps
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc.saturating_add(s.dt))
    }

    /// Count of stimulus actions across init and all steps.
    pub fn apply_count(&self) -> usize {
        self.init
            .iter()
            .chain(self.steps.iter().flat_map(|s| s.actions.iter()))
            .filter(|a| matches!(a, Action::Apply { .. }))
            .count()
    }

    /// Count of measurement actions across all steps.
    pub fn check_count(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| s.actions.iter())
            .filter(|a| matches!(a, Action::Check(_)))
            .count()
    }
}

/// Plans a script on a stand with default allocation options.
///
/// # Errors
///
/// Returns [`StandError`] when a statement cannot be resolved (missing
/// variable, malformed attributes, unknown signal) or no resource can be
/// allocated — the paper's portability error message.
pub fn plan(script: &TestScript, stand: &TestStand) -> Result<ExecutionPlan, StandError> {
    plan_with(
        script,
        stand,
        AllocOptions::default(),
        MethodRegistry::shared_builtin(),
    )
}

/// Plans with explicit allocator options and method registry.
///
/// # Errors
///
/// See [`plan`].
pub fn plan_with(
    script: &TestScript,
    stand: &TestStand,
    options: AllocOptions,
    registry: &MethodRegistry,
) -> Result<ExecutionPlan, StandError> {
    let mut allocator = Allocator::with_options(stand, options);
    let mut init = Vec::new();
    for stmt in &script.init {
        init.push(resolve_statement(
            script,
            stand,
            registry,
            &mut allocator,
            None,
            stmt,
        )?);
    }
    let mut steps = Vec::new();
    for step in &script.steps {
        let mut actions = Vec::new();
        for stmt in &step.statements {
            actions.push(resolve_statement(
                script,
                stand,
                registry,
                &mut allocator,
                Some(step.nr),
                stmt,
            )?);
        }
        steps.push(PlannedStep {
            nr: step.nr,
            dt: step.dt,
            actions,
        });
    }
    Ok(ExecutionPlan {
        script_name: script.name.clone(),
        stand_name: stand.name().to_owned(),
        init,
        steps,
    })
}

fn resolve_statement(
    script: &TestScript,
    stand: &TestStand,
    registry: &MethodRegistry,
    allocator: &mut Allocator<'_>,
    step: Option<u32>,
    stmt: &Statement,
) -> Result<Action, StandError> {
    let stmt_err = |message: String| StandError::Statement {
        step,
        statement: stmt.to_string(),
        message,
    };

    let def = script
        .signal(&stmt.signal)
        .ok_or_else(|| StandError::UnknownSignal {
            signal: stmt.signal.to_string(),
        })?;
    let spec = registry
        .get(&stmt.method)
        .ok_or_else(|| stmt_err(format!("unknown method {}", stmt.method)))?;

    let pins: Vec<PinId> = match &def.kind {
        SignalKind::Pin { pins } => pins.clone(),
        SignalKind::Can { .. } => {
            vec![PinId::new(CAN_ATTACHMENT).expect("constant pin id is valid")]
        }
    };

    let eval_attr = |name: AttrName<'_>| -> Result<Option<f64>, StandError> {
        match name.find(stmt) {
            None => Ok(None),
            Some(AttrValue::Expr(e)) => e
                .eval(stand.env())
                .map(Some)
                .map_err(|err| stmt_err(format!("attribute {name}: {err}"))),
            Some(AttrValue::Bits(_)) => Err(stmt_err(format!("attribute {name} must be numeric"))),
        }
    };
    let min_attr = AttrName(&spec.attribut, "_min");
    let max_attr = AttrName(&spec.attribut, "_max");

    let settle = SimTime::from_secs_f64(eval_attr(AttrName("settle", ""))?.unwrap_or(0.0));
    let window = SimTime::from_secs_f64(eval_attr(AttrName("window", ""))?.unwrap_or(0.0));

    match spec.direction {
        MethodDirection::Put => {
            let (nominal, realization) = match spec.attr_kind {
                AttrKind::Bits => {
                    let bits = stmt
                        .attr(&spec.attribut)
                        .and_then(AttrValue::as_bits)
                        .ok_or_else(|| {
                            stmt_err(format!("missing bit-pattern attribute {}", spec.attribut))
                        })?;
                    (AppliedValue::Bits(bits), (0.0, 0.0))
                }
                AttrKind::Numeric(_) => {
                    let nominal = eval_attr(AttrName(&spec.attribut, ""))?
                        .ok_or_else(|| stmt_err(format!("missing attribute {}", spec.attribut)))?;
                    let lo = eval_attr(min_attr)?.unwrap_or(nominal);
                    let hi = eval_attr(max_attr)?.unwrap_or(nominal);
                    if lo > hi {
                        return Err(stmt_err(format!(
                            "realization window [{lo}, {hi}] is inverted"
                        )));
                    }
                    (AppliedValue::Num(nominal), (lo, hi))
                }
            };
            let grant = allocator.assign_put(
                &stmt.signal,
                step,
                PutRequirement {
                    method: stmt.method.clone(),
                    nominal,
                    window: realization,
                    pins,
                },
            )?;
            Ok(Action::Apply {
                signal: stmt.signal.clone(),
                kind: def.kind.clone(),
                resource: grant.resource,
                method: stmt.method.clone(),
                value: grant.applied,
                settle,
            })
        }
        MethodDirection::Get => {
            let bound = match spec.attr_kind {
                AttrKind::Bits => {
                    let bits = stmt
                        .attr(&spec.attribut)
                        .and_then(AttrValue::as_bits)
                        .ok_or_else(|| {
                            stmt_err(format!("missing bit-pattern attribute {}", spec.attribut))
                        })?;
                    StatusBound::Bits(bits)
                }
                AttrKind::Numeric(_) => {
                    let lo = eval_attr(min_attr)?.unwrap_or(f64::NEG_INFINITY);
                    let hi = eval_attr(max_attr)?.unwrap_or(f64::INFINITY);
                    if lo > hi {
                        return Err(stmt_err(format!(
                            "acceptance interval [{lo}, {hi}] is inverted"
                        )));
                    }
                    StatusBound::Numeric {
                        nominal: None,
                        lo,
                        hi,
                    }
                }
            };
            let bounds = match bound {
                StatusBound::Numeric { lo, hi, .. } => (lo, hi),
                StatusBound::Bits(_) => (0.0, 0.0),
            };
            let resource = allocator.route_get(
                &stmt.signal,
                step,
                &GetRequirement {
                    method: stmt.method.clone(),
                    bounds,
                    pins,
                },
            )?;
            Ok(Action::Check(GetCheck {
                signal: stmt.signal.clone(),
                kind: def.kind.clone(),
                resource,
                method: stmt.method.clone(),
                bound,
                settle,
                window,
            }))
        }
    }
}

/// An attribute name spelled as a stem plus a suffix (`u` + `_min`), so
/// bound attributes are looked up without building the name per statement.
#[derive(Clone, Copy)]
struct AttrName<'a>(&'a str, &'static str);

impl AttrName<'_> {
    /// The statement's value for this attribute (names compare
    /// case-insensitively, like [`Statement::attr`]).
    fn find<'s>(&self, stmt: &'s Statement) -> Option<&'s AttrValue> {
        let (stem, suffix) = (self.0.as_bytes(), self.1.as_bytes());
        stmt.attrs
            .iter()
            .find(|(key, _)| {
                let key = key.as_bytes();
                key.len() == stem.len() + suffix.len()
                    && key[..stem.len()].eq_ignore_ascii_case(stem)
                    && key[stem.len()..].eq_ignore_ascii_case(suffix)
            })
            .map(|(_, value)| value)
    }
}

impl std::fmt::Display for AttrName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_model::{SignalDef, SignalDirection};

    fn sig(s: &str) -> SignalName {
        SignalName::new(s).unwrap()
    }

    fn met(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    fn stand_a() -> TestStand {
        TestStand::parse_str("a.stand", crate::config::tests::STAND_A).unwrap()
    }

    /// A script exercising put_r, put_can and get_u, paper-shaped.
    fn script() -> TestScript {
        let xml = r#"<?xml version="1.0"?>
<testscript name="night" suite="interior_light" version="1">
  <signals>
    <signal name="ds_fl" kind="pin:DS_FL" direction="input"/>
    <signal name="night" kind="can:0x2A0:0:1" direction="input"/>
    <signal name="int_ill" kind="pin:INT_ILL_F/INT_ILL_R" direction="output"/>
  </signals>
  <init>
    <signal name="ds_fl"><put_r r="INF" r_min="5000" r_max="INF"/></signal>
  </init>
  <step nr="0" dt="0.5">
    <signal name="ds_fl"><put_r r="0" r_min="0" r_max="2" settle="0.01"/></signal>
    <signal name="night"><put_can data="1B"/></signal>
    <signal name="int_ill"><get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/></signal>
  </step>
</testscript>"#;
        TestScript::parse_xml(xml).unwrap()
    }

    #[test]
    fn plans_on_paper_stand() {
        let stand = stand_a();
        let plan = plan(&script(), &stand).unwrap();
        assert_eq!(plan.stand_name, "HIL-A");
        assert_eq!(plan.init.len(), 1);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.apply_count(), 3);
        assert_eq!(plan.check_count(), 1);

        // The get_u bounds were evaluated against ubatt = 12.
        let Action::Check(check) = &plan.steps[0].actions[2] else {
            panic!("expected check");
        };
        match check.bound {
            StatusBound::Numeric { lo, hi, .. } => {
                assert!((lo - 8.4).abs() < 1e-9);
                assert!((hi - 13.2).abs() < 1e-9);
            }
            _ => panic!("numeric bound expected"),
        }
        assert_eq!(check.resource, "Ress1");

        // The put_r settle time came through.
        let Action::Apply { settle, value, .. } = &plan.steps[0].actions[0] else {
            panic!("expected apply");
        };
        assert_eq!(*settle, SimTime::from_millis(10));
        assert_eq!(*value, AppliedValue::Num(0.0));

        // The CAN stimulus routed to the CAN interface.
        let Action::Apply { resource, .. } = &plan.steps[0].actions[1] else {
            panic!("expected apply");
        };
        assert_eq!(*resource, "Can1");
    }

    #[test]
    fn missing_variable_is_a_statement_error() {
        let mut stand = stand_a();
        // A stand that forgot to define ubatt.
        *stand.env_mut() = comptest_model::Env::new();
        let err = plan(&script(), &stand).unwrap_err();
        match err {
            StandError::Statement { message, .. } => assert!(message.contains("ubatt")),
            other => panic!("expected Statement error, got {other}"),
        }
    }

    #[test]
    fn unknown_signal_rejected() {
        let mut s = script();
        s.steps[0]
            .statements
            .push(Statement::new(sig("ghost"), met("put_r")));
        let err = plan(&s, &stand_a()).unwrap_err();
        assert!(matches!(err, StandError::UnknownSignal { .. }));
    }

    #[test]
    fn unknown_method_rejected() {
        let mut s = script();
        s.steps[0]
            .statements
            .push(Statement::new(sig("ds_fl"), met("put_q")));
        let err = plan(&s, &stand_a()).unwrap_err();
        assert!(err.to_string().contains("unknown method"));
    }

    #[test]
    fn missing_attribute_rejected() {
        let mut s = script();
        s.steps[0]
            .statements
            .push(Statement::new(sig("ds_fl"), met("put_r")));
        let err = plan(&s, &stand_a()).unwrap_err();
        assert!(err.to_string().contains("missing attribute r"));
    }

    #[test]
    fn inverted_bounds_rejected() {
        let mut s = script();
        s.steps[0].statements.push(
            Statement::new(sig("int_ill"), met("get_u"))
                .with_attr("u_max", AttrValue::parse("1").unwrap())
                .with_attr("u_min", AttrValue::parse("2").unwrap()),
        );
        let err = plan(&s, &stand_a()).unwrap_err();
        assert!(err.to_string().contains("inverted"));
    }

    #[test]
    fn allocation_failure_propagates() {
        // Three simultaneous door switches exceed the two decades.
        let mut s = script();
        s.steps[0].statements = vec![Statement::new(sig("ds_fl"), met("put_r"))
            .with_attr("r", AttrValue::parse("0").unwrap())
            .with_attr("r_min", AttrValue::parse("0").unwrap())
            .with_attr("r_max", AttrValue::parse("2").unwrap())];
        s.signals.push(SignalDef::new(
            sig("ds_fr"),
            SignalKind::parse("pin:DS_FR").unwrap(),
            SignalDirection::Input,
        ));
        s.signals.push(SignalDef::new(
            sig("ds_rl"),
            SignalKind::parse("pin:DS_RL").unwrap(),
            SignalDirection::Input,
        ));
        for name in ["ds_fr", "ds_rl"] {
            s.steps[0].statements.push(
                Statement::new(sig(name), met("put_r"))
                    .with_attr("r", AttrValue::parse("0").unwrap())
                    .with_attr("r_min", AttrValue::parse("0").unwrap())
                    .with_attr("r_max", AttrValue::parse("2").unwrap()),
            );
        }
        let err = plan(&s, &stand_a()).unwrap_err();
        assert!(matches!(err, StandError::Allocation(_)), "{err}");
        assert!(err.to_string().contains("no resource"));
    }

    #[test]
    fn plan_metrics() {
        let p = plan(&script(), &stand_a()).unwrap();
        assert_eq!(p.duration(), SimTime::from_millis(500));
        assert_eq!(p.script_name, "night");
    }
}
