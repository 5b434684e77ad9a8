//! Code generation: test suite → portable XML test script.
//!
//! This is the paper's "tool … for automatic generation of code, that can be
//! interpreted by any test stand".  Each status assignment becomes a signal
//! statement; the status table's scaled bounds become expression attributes
//! such as `u_max="(1.1*ubatt)"` that the stand evaluates against its own
//! environment.

use std::error::Error;
use std::fmt;

use comptest_model::{
    AttrKind, Expr, MethodDirection, MethodRegistry, SignalDef, StatusDef, StatusName, TestCase,
    TestSuite, ValidationIssue,
};

use crate::model::{AttrValue, ScriptStep, Statement, TestScript};

/// Generates the script for one named test of a suite, using the built-in
/// method registry.
///
/// # Errors
///
/// Returns [`CodegenError`] if the suite fails validation or the test does
/// not exist.
pub fn generate(suite: &TestSuite, test_name: &str) -> Result<TestScript, CodegenError> {
    generate_with(suite, test_name, MethodRegistry::shared_builtin())
}

/// Generates scripts for every test of the suite.
///
/// The suite is validated **once**, not once per test — `generate_all` on
/// a 10 000-test suite is linear, not quadratic. (Campaign launches
/// generate every script of every entry up front as their codegen
/// precheck, so this is launch-path cost.)
///
/// # Errors
///
/// See [`generate`].
pub fn generate_all(suite: &TestSuite) -> Result<Vec<TestScript>, CodegenError> {
    let registry = MethodRegistry::shared_builtin();
    check_valid(suite, registry)?;
    suite
        .tests
        .iter()
        .map(|t| generate_validated(suite, t, registry))
        .collect()
}

/// Generates every test's script, one result per test in suite order,
/// validating the suite once. Unlike [`generate_all`] a failure stays with
/// its test; an invalid suite yields its validation error for every test.
pub fn generate_each(suite: &TestSuite) -> Vec<Result<TestScript, CodegenError>> {
    let registry = MethodRegistry::shared_builtin();
    match check_valid(suite, registry) {
        Ok(()) => suite
            .tests
            .iter()
            .map(|t| generate_validated(suite, t, registry))
            .collect(),
        Err(invalid) => suite.tests.iter().map(|_| Err(invalid.clone())).collect(),
    }
}

/// Validates the suite, folding any issues into [`CodegenError::Invalid`].
fn check_valid(suite: &TestSuite, registry: &MethodRegistry) -> Result<(), CodegenError> {
    let issues = suite.validate(registry);
    if issues.is_empty() {
        Ok(())
    } else {
        Err(CodegenError::Invalid { issues })
    }
}

/// Generates the script for one test with a custom method registry.
///
/// # Errors
///
/// Returns [`CodegenError::Invalid`] when the suite has validation issues,
/// or [`CodegenError::UnknownTest`] for a missing test name.
pub fn generate_with(
    suite: &TestSuite,
    test_name: &str,
    registry: &MethodRegistry,
) -> Result<TestScript, CodegenError> {
    check_valid(suite, registry)?;
    let test = suite
        .test(test_name)
        .ok_or_else(|| CodegenError::UnknownTest {
            name: test_name.to_owned(),
            suite: suite.name.clone(),
        })?;
    generate_validated(suite, test, registry)
}

/// Generates one test's script assuming the suite already validated
/// against `registry` — the shared body of [`generate_with`] (which
/// validates per call), [`generate_all`] and [`generate_each`] (which
/// validate once).
fn generate_validated(
    suite: &TestSuite,
    test: &TestCase,
    registry: &MethodRegistry,
) -> Result<TestScript, CodegenError> {
    let mut init = Vec::new();
    for sig in &suite.signals {
        if let Some(status_name) = &sig.init {
            let def = lookup_status(suite, status_name)?;
            init.push(statement(sig, def, registry));
        }
    }

    let mut steps = Vec::new();
    for step in &test.steps {
        let mut statements = Vec::new();
        for a in &step.assignments {
            let sig = suite.signal(&a.signal).expect("validated: signal exists");
            let def = lookup_status(suite, &a.status)?;
            statements.push(statement(sig, def, registry));
        }
        steps.push(ScriptStep {
            nr: step.nr,
            dt: step.dt,
            statements,
        });
    }

    Ok(TestScript {
        name: test.name.clone(),
        suite: suite.name.clone(),
        signals: signals_used(suite, test),
        init,
        steps,
    })
}

/// Only signals the test (or the init block) actually touches are embedded.
fn signals_used(suite: &TestSuite, test: &TestCase) -> Vec<SignalDef> {
    let used = test.signals_used();
    suite
        .signals
        .iter()
        .filter(|s| s.init.is_some() || used.contains(&s.name))
        .cloned()
        .collect()
}

fn lookup_status<'a>(
    suite: &'a TestSuite,
    name: &StatusName,
) -> Result<&'a StatusDef, CodegenError> {
    suite
        .statuses
        .get(name)
        .ok_or_else(|| CodegenError::UnknownStatus {
            status: name.clone(),
        })
}

/// Builds the signal statement for one status assignment.
fn statement(sig: &SignalDef, def: &StatusDef, registry: &MethodRegistry) -> Statement {
    let spec = registry.get(&def.method).expect("validated: method exists");
    let mut stmt = Statement::new(sig.name.clone(), def.method.clone());
    match spec.attr_kind {
        AttrKind::Bits => {
            let bits = def.bits.expect("validated: bits status has a pattern");
            stmt = stmt.with_attr(spec.attribut.clone(), AttrValue::Bits(bits));
        }
        AttrKind::Numeric(_) => match spec.direction {
            MethodDirection::Get => {
                // Paper order: max first, then min.
                let max = def.max_expr().unwrap_or(Expr::num(f64::INFINITY));
                let min = def.min_expr().unwrap_or(Expr::num(f64::NEG_INFINITY));
                stmt = stmt
                    .with_attr(format!("{}_max", spec.attribut), AttrValue::Expr(max))
                    .with_attr(format!("{}_min", spec.attribut), AttrValue::Expr(min));
            }
            MethodDirection::Put => {
                let nom = def.nom_expr().expect("validated: put has a nominal");
                stmt = stmt.with_attr(spec.attribut.clone(), AttrValue::Expr(nom));
                if let Some(min) = def.min_expr() {
                    stmt = stmt.with_attr(format!("{}_min", spec.attribut), AttrValue::Expr(min));
                }
                if let Some(max) = def.max_expr() {
                    stmt = stmt.with_attr(format!("{}_max", spec.attribut), AttrValue::Expr(max));
                }
            }
        },
    }
    if let Some(d1) = def.d1 {
        stmt = stmt.with_attr("settle", AttrValue::Expr(Expr::num(d1)));
    }
    if let Some(d2) = def.d2 {
        stmt = stmt.with_attr("window", AttrValue::Expr(Expr::num(d2)));
    }
    stmt
}

/// Error generating a [`TestScript`].
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenError {
    /// The suite failed [`TestSuite::validate`].
    Invalid {
        /// All validation issues found.
        issues: Vec<ValidationIssue>,
    },
    /// The requested test does not exist in the suite.
    UnknownTest {
        /// The missing test's name.
        name: String,
        /// The suite that was searched.
        suite: String,
    },
    /// A status referenced during generation is undefined (unreachable when
    /// validation passes; kept for defence in depth).
    UnknownStatus {
        /// The missing status.
        status: StatusName,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Invalid { issues } => {
                writeln!(f, "suite failed validation with {} issue(s):", issues.len())?;
                for issue in issues {
                    writeln!(f, "  - {issue}")?;
                }
                Ok(())
            }
            CodegenError::UnknownTest { name, suite } => {
                write!(f, "no test named {name:?} in suite {suite:?}")
            }
            CodegenError::UnknownStatus { status } => {
                write!(f, "undefined status {status}")
            }
        }
    }
}

impl Error for CodegenError {}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_model::{BitPattern, SignalDirection, SignalKind, SignalName, SimTime, TestStep};

    fn sig(s: &str) -> SignalName {
        SignalName::new(s).unwrap()
    }

    fn st(s: &str) -> StatusName {
        StatusName::new(s).unwrap()
    }

    fn m(s: &str) -> comptest_model::MethodName {
        comptest_model::MethodName::new(s).unwrap()
    }

    /// A miniature paper suite: door switch in, lamp out, CAN night bit.
    fn suite() -> TestSuite {
        let mut suite = TestSuite::new("interior_light");
        suite.signals.push(
            SignalDef::new(
                sig("DS_FL"),
                SignalKind::parse("pin:DS_FL").unwrap(),
                SignalDirection::Input,
            )
            .with_init(st("Closed")),
        );
        suite.signals.push(SignalDef::new(
            sig("NIGHT"),
            SignalKind::parse("can:0x2A0:0:1").unwrap(),
            SignalDirection::Input,
        ));
        suite.signals.push(SignalDef::new(
            sig("INT_ILL"),
            SignalKind::parse("pin:INT_ILL_F/INT_ILL_R").unwrap(),
            SignalDirection::Output,
        ));
        suite.statuses.insert(
            StatusDef::numeric(st("Open"), m("put_r"), "r", 0.0, 0.0, 2.0).with_settle(0.01),
        );
        suite.statuses.insert(StatusDef {
            nom: Some(f64::INFINITY),
            min: Some(5000.0),
            max: Some(f64::INFINITY),
            ..StatusDef::numeric(st("Closed"), m("put_r"), "r", 0.0, 0.0, 0.0)
        });
        suite.statuses.insert(StatusDef::bits(
            st("1"),
            m("put_can"),
            "data",
            BitPattern::parse("1B").unwrap(),
        ));
        suite
            .statuses
            .insert(StatusDef::numeric(st("Ho"), m("get_u"), "u", 1.0, 0.7, 1.1).with_var("UBATT"));
        let mut tc = TestCase::new("night_light");
        tc.steps.push(
            TestStep::new(0, SimTime::from_millis(500))
                .assign(sig("DS_FL"), st("Open"))
                .assign(sig("NIGHT"), st("1"))
                .assign(sig("INT_ILL"), st("Ho")),
        );
        suite.tests.push(tc);
        suite
    }

    #[test]
    fn generates_paper_shaped_xml() {
        let script = generate(&suite(), "night_light").unwrap();
        let xml = script.to_xml();
        assert!(xml.contains("<get_u u_max=\"(1.1*ubatt)\" u_min=\"(0.7*ubatt)\"/>"));
        assert!(xml.contains("<put_can data=\"1B\"/>"));
        assert!(xml.contains("put_r r=\"0\" r_min=\"0\" r_max=\"2\" settle=\"0.01\""));
        // Init from the signal sheet's `Closed` column.
        assert!(xml.contains("<init>"));
        assert!(xml.contains("r=\"INF\""));
    }

    #[test]
    fn generated_script_roundtrips() {
        let script = generate(&suite(), "night_light").unwrap();
        let back = TestScript::parse_xml(&script.to_xml()).unwrap();
        assert_eq!(back, script);
    }

    #[test]
    fn embeds_only_used_signals() {
        let mut s = suite();
        s.signals.push(SignalDef::new(
            sig("UNUSED"),
            SignalKind::parse("pin:UNUSED").unwrap(),
            SignalDirection::Input,
        ));
        let script = generate(&s, "night_light").unwrap();
        assert!(script.signal(&sig("UNUSED")).is_none());
        assert!(script.signal(&sig("DS_FL")).is_some());
    }

    #[test]
    fn unknown_test_is_reported() {
        let err = generate(&suite(), "nope").unwrap_err();
        assert!(matches!(err, CodegenError::UnknownTest { .. }));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn invalid_suite_is_rejected() {
        let mut s = suite();
        s.tests[0]
            .steps
            .push(TestStep::new(1, SimTime::from_millis(500)).assign(sig("GHOST"), st("Open")));
        let err = generate(&s, "night_light").unwrap_err();
        match err {
            CodegenError::Invalid { issues } => assert_eq!(issues.len(), 1),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn generate_all_covers_every_test() {
        let mut s = suite();
        let mut tc = TestCase::new("second");
        tc.steps
            .push(TestStep::new(0, SimTime::from_secs(1)).assign(sig("DS_FL"), st("Closed")));
        s.tests.push(tc);
        let scripts = generate_all(&s).unwrap();
        assert_eq!(scripts.len(), 2);
        assert_eq!(scripts[1].name, "second");
    }
}
