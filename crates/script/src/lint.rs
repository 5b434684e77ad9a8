//! Linting test scripts before they enter the shared knowledge base.
//!
//! A script that *plans* cleanly can still be a poor test: steps that check
//! nothing, stimulated signals whose effect is never observed, settle times
//! longer than the step. These are review findings, not errors — the
//! paper's exchange workflow (OEM ↔ supplier) is exactly where such review
//! happens, so the toolchain automates it.

use std::collections::BTreeSet;
use std::fmt;

use comptest_model::{MethodDirection, MethodRegistry, SignalName, SimTime};

use crate::model::{AttrValue, TestScript};

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Stylistic or informational.
    Note,
    /// Likely a mistake; the script still runs.
    Warning,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Severity.
    pub level: LintLevel,
    /// Machine-readable rule id (`no-checks`, `unobserved-stimulus`, …).
    pub rule: &'static str,
    /// Step number (`None` = script-wide).
    pub step: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let level = match self.level {
            LintLevel::Note => "note",
            LintLevel::Warning => "warning",
        };
        match self.step {
            Some(nr) => write!(f, "{level}[{}] step {nr}: {}", self.rule, self.message),
            None => write!(f, "{level}[{}]: {}", self.rule, self.message),
        }
    }
}

/// Lints a script with the built-in method registry.
///
/// # Example
///
/// ```
/// use comptest_script::{lint, TestScript};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A script that stimulates but never checks anything.
/// let script = TestScript::parse_xml(r#"
/// <testscript name="t" suite="s" version="1">
///   <signals><signal name="d1" kind="pin:D1" direction="input"/></signals>
///   <step nr="0" dt="0.5">
///     <signal name="d1"><put_r r="0"/></signal>
///   </step>
/// </testscript>"#)?;
/// let findings = lint(&script);
/// assert!(findings.iter().any(|f| f.rule == "no-checks"));
/// # Ok(())
/// # }
/// ```
pub fn lint(script: &TestScript) -> Vec<LintFinding> {
    lint_with(script, MethodRegistry::shared_builtin())
}

/// Lints a script.
///
/// Rules:
/// * `no-checks` — the script contains no `get_*` statement at all (it can
///   never fail, so it tests nothing);
/// * `unobserved-stimulus` — a signal is stimulated but no output is ever
///   checked afterwards in the whole script;
/// * `unused-signal` — an embedded signal definition is never referenced;
/// * `undefined-signal` — a statement references a signal the script does
///   not embed (the stand will reject it; flagged early here);
/// * `settle-exceeds-step` — a statement's settle time is longer than its
///   step, so the value never counts as applied within the step;
/// * `empty-step` — a step without any statement (pure wait is legitimate,
///   hence only a note);
/// * `unknown-method` — a statement's method is not in the registry.
pub fn lint_with(script: &TestScript, registry: &MethodRegistry) -> Vec<LintFinding> {
    let mut findings = Vec::new();

    let mut any_check = false;
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    let mut last_check_step: Option<usize> = None;
    let mut stimulated: Vec<(usize, u32, SignalName)> = Vec::new();

    for stmt in &script.init {
        referenced.insert(stmt.signal.key());
        if script.signal(&stmt.signal).is_none() {
            findings.push(LintFinding {
                level: LintLevel::Warning,
                rule: "undefined-signal",
                step: None,
                message: format!("init references undeclared signal {}", stmt.signal),
            });
        }
    }

    for (idx, step) in script.steps.iter().enumerate() {
        if step.statements.is_empty() {
            findings.push(LintFinding {
                level: LintLevel::Note,
                rule: "empty-step",
                step: Some(step.nr),
                message: format!("step only waits for {}", step.dt),
            });
        }
        for stmt in &step.statements {
            referenced.insert(stmt.signal.key());
            if script.signal(&stmt.signal).is_none() {
                findings.push(LintFinding {
                    level: LintLevel::Warning,
                    rule: "undefined-signal",
                    step: Some(step.nr),
                    message: format!("references undeclared signal {}", stmt.signal),
                });
            }
            let Some(spec) = registry.get(&stmt.method) else {
                findings.push(LintFinding {
                    level: LintLevel::Warning,
                    rule: "unknown-method",
                    step: Some(step.nr),
                    message: format!("method {} is not registered", stmt.method),
                });
                continue;
            };
            match spec.direction {
                MethodDirection::Get => {
                    any_check = true;
                    last_check_step = Some(idx);
                }
                MethodDirection::Put => {
                    stimulated.push((idx, step.nr, stmt.signal.clone()));
                }
            }
            if let Some(AttrValue::Expr(e)) = stmt.attr("settle") {
                if let Ok(settle) = e.eval(&comptest_model::Env::new()) {
                    if SimTime::from_secs_f64(settle) > step.dt {
                        findings.push(LintFinding {
                            level: LintLevel::Warning,
                            rule: "settle-exceeds-step",
                            step: Some(step.nr),
                            message: format!(
                                "settle {settle}s is longer than the step ({})",
                                step.dt
                            ),
                        });
                    }
                }
            }
        }
    }

    if !any_check && !script.steps.is_empty() {
        findings.push(LintFinding {
            level: LintLevel::Warning,
            rule: "no-checks",
            step: None,
            message: "the script never measures anything; it cannot fail".into(),
        });
    }

    // Stimuli after the final check can never influence a verdict.
    if let Some(last) = last_check_step {
        let mut flagged: BTreeSet<String> = BTreeSet::new();
        for (idx, nr, signal) in &stimulated {
            if *idx > last && flagged.insert(signal.key()) {
                findings.push(LintFinding {
                    level: LintLevel::Note,
                    rule: "unobserved-stimulus",
                    step: Some(*nr),
                    message: format!(
                        "stimulus on {signal} comes after the last check; nothing observes it"
                    ),
                });
            }
        }
    }

    for def in &script.signals {
        if !referenced.contains(&def.name.key()) {
            findings.push(LintFinding {
                level: LintLevel::Note,
                rule: "unused-signal",
                step: None,
                message: format!("embedded signal {} is never referenced", def.name),
            });
        }
    }

    findings
}

/// The environment variables a stand must provide to run this script
/// (union of all expression attribute variables, lowercased and sorted).
pub fn required_variables(script: &TestScript) -> Vec<String> {
    let mut vars = BTreeSet::new();
    let statements = script
        .init
        .iter()
        .chain(script.steps.iter().flat_map(|s| s.statements.iter()));
    for stmt in statements {
        for (_, value) in &stmt.attrs {
            if let AttrValue::Expr(e) = value {
                for v in e.variables() {
                    vars.insert(v);
                }
            }
        }
    }
    vars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ScriptStep, Statement};
    use comptest_model::{MethodName, SignalDef, SignalDirection, SignalKind};

    fn sig(s: &str) -> SignalName {
        SignalName::new(s).unwrap()
    }

    fn met(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    fn base_script() -> TestScript {
        TestScript {
            name: "lint_me".into(),
            suite: "s".into(),
            signals: vec![
                SignalDef::new(
                    sig("in1"),
                    SignalKind::parse("pin:IN1").unwrap(),
                    SignalDirection::Input,
                ),
                SignalDef::new(
                    sig("out1"),
                    SignalKind::parse("pin:OUT1").unwrap(),
                    SignalDirection::Output,
                ),
            ],
            init: vec![],
            steps: vec![ScriptStep {
                nr: 0,
                dt: SimTime::from_millis(500),
                statements: vec![
                    Statement::new(sig("in1"), met("put_r"))
                        .with_attr("r", AttrValue::parse("0").unwrap()),
                    Statement::new(sig("out1"), met("get_u"))
                        .with_attr("u_max", AttrValue::parse("(1.1*ubatt)").unwrap())
                        .with_attr("u_min", AttrValue::parse("(0.7*ubatt)").unwrap()),
                ],
            }],
        }
    }

    #[test]
    fn clean_script_has_no_findings() {
        let findings = lint(&base_script());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn flags_scripts_without_checks() {
        let mut s = base_script();
        s.steps[0].statements.retain(|st| st.method == "put_r");
        let findings = lint(&s);
        assert!(findings.iter().any(|f| f.rule == "no-checks"));
        // The unchecked stimulus is implied by no-checks; no double report.
        assert!(findings.iter().all(|f| f.rule != "unobserved-stimulus"));
    }

    #[test]
    fn flags_unobserved_trailing_stimulus() {
        let mut s = base_script();
        s.steps.push(ScriptStep {
            nr: 1,
            dt: SimTime::from_millis(500),
            statements: vec![Statement::new(sig("in1"), met("put_r"))
                .with_attr("r", AttrValue::parse("INF").unwrap())],
        });
        let findings = lint(&s);
        let hit = findings
            .iter()
            .find(|f| f.rule == "unobserved-stimulus")
            .unwrap();
        assert_eq!(hit.step, Some(1));
        assert_eq!(hit.level, LintLevel::Note);
    }

    #[test]
    fn flags_unused_and_undefined_signals() {
        let mut s = base_script();
        s.signals.push(SignalDef::new(
            sig("ghost_def"),
            SignalKind::parse("pin:G").unwrap(),
            SignalDirection::Input,
        ));
        s.steps[0].statements.push(
            Statement::new(sig("undeclared"), met("put_r"))
                .with_attr("r", AttrValue::parse("1").unwrap()),
        );
        let findings = lint(&s);
        assert!(findings.iter().any(|f| f.rule == "unused-signal"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "undefined-signal" && f.level == LintLevel::Warning));
    }

    #[test]
    fn flags_settle_longer_than_step() {
        let mut s = base_script();
        s.steps[0].statements[0] = Statement::new(sig("in1"), met("put_r"))
            .with_attr("r", AttrValue::parse("0").unwrap())
            .with_attr("settle", AttrValue::parse("2").unwrap());
        let findings = lint(&s);
        assert!(findings.iter().any(|f| f.rule == "settle-exceeds-step"));
    }

    #[test]
    fn flags_empty_steps_and_unknown_methods() {
        let mut s = base_script();
        s.steps.insert(
            0,
            ScriptStep {
                nr: 99,
                dt: SimTime::from_secs(5),
                statements: vec![],
            },
        );
        s.steps[1]
            .statements
            .push(Statement::new(sig("in1"), met("put_quantum")));
        let findings = lint(&s);
        assert!(findings
            .iter()
            .any(|f| f.rule == "empty-step" && f.step == Some(99)));
        assert!(findings.iter().any(|f| f.rule == "unknown-method"));
    }

    #[test]
    fn required_variables_are_collected() {
        let s = base_script();
        assert_eq!(required_variables(&s), vec!["ubatt".to_string()]);
        let mut s = s;
        s.steps[0].statements[1] = Statement::new(sig("out1"), met("get_u"))
            .with_attr("u_max", AttrValue::parse("(temp+vref)").unwrap());
        assert_eq!(
            required_variables(&s),
            vec!["temp".to_string(), "vref".into()]
        );
    }

    #[test]
    fn finding_display() {
        let f = LintFinding {
            level: LintLevel::Warning,
            rule: "no-checks",
            step: None,
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "warning[no-checks]: boom");
        let f = LintFinding {
            level: LintLevel::Note,
            rule: "empty-step",
            step: Some(3),
            message: "waits".into(),
        };
        assert!(f.to_string().contains("step 3"));
    }
}
