//! Test definitions: steps, cases and suites (the test definition sheet).

use std::collections::BTreeSet;
use std::fmt;

use crate::method::{MethodDirection, MethodRegistry};
use crate::signal::{SignalDef, SignalDirection, SignalName};
use crate::status::{StatusName, StatusTable};
use crate::time::SimTime;

/// One status assignment inside a test step: "signal X takes status S".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The signal being stimulated or checked.
    pub signal: SignalName,
    /// The status applied or expected.
    pub status: StatusName,
}

impl Assignment {
    /// Creates an assignment.
    pub fn new(signal: SignalName, status: StatusName) -> Self {
        Self { signal, status }
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.signal, self.status)
    }
}

/// One row of a test definition sheet.
///
/// Stimuli of the step are applied atomically at step start; expected-output
/// statuses are checked at step end (see the timing semantics in the
/// `comptest_core::exec` module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TestStep {
    /// Step number as written in the sheet.
    pub nr: u32,
    /// Step duration `Δt`.
    pub dt: SimTime,
    /// Status assignments of this row, in column order.
    pub assignments: Vec<Assignment>,
    /// Free-text remark (also carries requirement tags such as `REQ-IL-001`).
    pub remark: String,
}

impl TestStep {
    /// Creates a step without assignments.
    pub fn new(nr: u32, dt: SimTime) -> Self {
        Self {
            nr,
            dt,
            assignments: Vec::new(),
            remark: String::new(),
        }
    }

    /// Adds an assignment (builder style).
    pub fn assign(mut self, signal: SignalName, status: StatusName) -> Self {
        self.assignments.push(Assignment::new(signal, status));
        self
    }

    /// Sets the remark (builder style).
    pub fn with_remark(mut self, remark: impl Into<String>) -> Self {
        self.remark = remark.into();
        self
    }
}

/// A named test case: an ordered sequence of steps.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    /// The test's name (the `[test …]` section header of a workbook).
    pub name: String,
    /// Steps in execution order.
    pub steps: Vec<TestStep>,
}

impl TestCase {
    /// Creates an empty test case.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Total duration (sum of all `Δt`).
    pub fn duration(&self) -> SimTime {
        self.steps
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc.saturating_add(s.dt))
    }

    /// All requirement tags mentioned in step remarks. A tag is any word of
    /// the form `REQ-…` (case-insensitive prefix).
    pub fn requirement_tags(&self) -> Vec<String> {
        let mut tags = BTreeSet::new();
        for step in &self.steps {
            for word in step
                .remark
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
            {
                if word.len() > 4 && word[..4].eq_ignore_ascii_case("REQ-") {
                    tags.insert(word.to_ascii_uppercase());
                }
            }
        }
        tags.into_iter().collect()
    }

    /// All signals referenced by the test, deduplicated.
    pub fn signals_used(&self) -> Vec<SignalName> {
        let mut set = BTreeSet::new();
        for step in &self.steps {
            for a in &step.assignments {
                set.insert(a.signal.clone());
            }
        }
        set.into_iter().collect()
    }
}

/// A complete component-test suite: the three sheets of the paper bound
/// together — signal definitions, the status table, and the test cases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TestSuite {
    /// Suite name (usually the workbook file stem).
    pub name: String,
    /// The signal definition sheet.
    pub signals: Vec<SignalDef>,
    /// The status definition sheet.
    pub statuses: StatusTable,
    /// The test definition sheets.
    pub tests: Vec<TestCase>,
}

impl TestSuite {
    /// Creates an empty suite.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            signals: Vec::new(),
            statuses: StatusTable::new(),
            tests: Vec::new(),
        }
    }

    /// Looks a signal up by name.
    pub fn signal(&self, name: &SignalName) -> Option<&SignalDef> {
        self.signals.iter().find(|s| &s.name == name)
    }

    /// Looks a test case up by name (case-insensitive).
    pub fn test(&self, name: &str) -> Option<&TestCase> {
        self.tests
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Merges another suite into this one — the knowledge-base operation
    /// the paper's Section 2 calls for (OEM and supplier exchanging and
    /// accumulating test definitions).
    ///
    /// Semantics:
    /// * signals: the other suite's definition wins on name collision (the
    ///   donor is assumed newer); otherwise appended;
    /// * statuses: donor definitions replace same-named entries
    ///   ([`StatusTable::insert`](crate::StatusTable::insert) semantics);
    /// * tests: donor tests with a name already present are skipped and
    ///   reported back, so callers can resolve collisions deliberately.
    ///
    /// Returns the names of skipped (colliding) tests.
    pub fn merge(&mut self, other: TestSuite) -> Vec<String> {
        for sig in other.signals {
            match self.signals.iter_mut().find(|s| s.name == sig.name) {
                Some(existing) => *existing = sig,
                None => self.signals.push(sig),
            }
        }
        for def in other.statuses.iter() {
            self.statuses.insert(def.clone());
        }
        let mut skipped = Vec::new();
        for test in other.tests {
            if self.test(&test.name).is_some() {
                skipped.push(test.name);
            } else {
                self.tests.push(test);
            }
        }
        skipped
    }

    /// Cross-validates the suite: every referenced status and signal must be
    /// defined, status methods must exist and be direction-compatible with
    /// the signal (`put_*` on inputs, `get_*` on outputs), durations must be
    /// positive, and every status definition must pass
    /// [`StatusDef::check`](crate::StatusDef::check).
    ///
    /// Returns all problems found (empty = valid).
    pub fn validate(&self, registry: &MethodRegistry) -> Vec<ValidationIssue> {
        let mut issues = Vec::new();

        for def in self.statuses.iter() {
            if let Err(msg) = def.check(registry) {
                issues.push(ValidationIssue::BadStatus {
                    status: def.name.clone(),
                    message: msg,
                });
            }
        }

        for sig in &self.signals {
            if let Some(init) = &sig.init {
                match self.statuses.get(init) {
                    None => issues.push(ValidationIssue::UnknownStatus {
                        test: "<signal sheet>".into(),
                        step: 0,
                        status: init.clone(),
                    }),
                    Some(_) => {
                        self.check_direction(registry, sig, init, "<signal sheet>", 0, &mut issues)
                    }
                }
            }
        }

        for test in &self.tests {
            for step in &test.steps {
                if step.dt.is_zero() {
                    issues.push(ValidationIssue::ZeroDuration {
                        test: test.name.clone(),
                        step: step.nr,
                    });
                }
                for a in &step.assignments {
                    let Some(sig) = self.signal(&a.signal) else {
                        issues.push(ValidationIssue::UnknownSignal {
                            test: test.name.clone(),
                            step: step.nr,
                            signal: a.signal.clone(),
                        });
                        continue;
                    };
                    if self.statuses.get(&a.status).is_none() {
                        issues.push(ValidationIssue::UnknownStatus {
                            test: test.name.clone(),
                            step: step.nr,
                            status: a.status.clone(),
                        });
                        continue;
                    }
                    self.check_direction(
                        registry,
                        sig,
                        &a.status,
                        &test.name,
                        step.nr,
                        &mut issues,
                    );
                }
            }
        }
        issues
    }

    fn check_direction(
        &self,
        registry: &MethodRegistry,
        sig: &SignalDef,
        status: &StatusName,
        test: &str,
        step: u32,
        issues: &mut Vec<ValidationIssue>,
    ) {
        let Some(def) = self.statuses.get(status) else {
            return;
        };
        let Some(spec) = registry.get(&def.method) else {
            return; // already reported by StatusDef::check
        };
        let compatible = matches!(
            (spec.direction, sig.direction),
            (MethodDirection::Put, SignalDirection::Input)
                | (MethodDirection::Get, SignalDirection::Output)
        );
        if !compatible {
            issues.push(ValidationIssue::DirectionMismatch {
                test: test.to_owned(),
                step,
                signal: sig.name.clone(),
                status: status.clone(),
                method_direction: spec.direction,
                signal_direction: sig.direction,
            });
        }
    }
}

/// A problem found by [`TestSuite::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationIssue {
    /// A test step references a signal not present in the signal sheet.
    UnknownSignal {
        /// Test case name.
        test: String,
        /// Step number.
        step: u32,
        /// The missing signal.
        signal: SignalName,
    },
    /// A test step (or the signal sheet) references an undefined status.
    UnknownStatus {
        /// Test case name, or `<signal sheet>`.
        test: String,
        /// Step number (0 for the signal sheet).
        step: u32,
        /// The missing status.
        status: StatusName,
    },
    /// A status definition is internally inconsistent.
    BadStatus {
        /// The status.
        status: StatusName,
        /// Explanation from [`StatusDef::check`](crate::StatusDef::check).
        message: String,
    },
    /// A `put_*` status was assigned to an output, or `get_*` to an input.
    DirectionMismatch {
        /// Test case name.
        test: String,
        /// Step number.
        step: u32,
        /// The signal.
        signal: SignalName,
        /// The status.
        status: StatusName,
        /// The method's direction.
        method_direction: MethodDirection,
        /// The signal's direction.
        signal_direction: SignalDirection,
    },
    /// A step has `Δt = 0`.
    ZeroDuration {
        /// Test case name.
        test: String,
        /// Step number.
        step: u32,
    },
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationIssue::UnknownSignal { test, step, signal } => {
                write!(f, "[{test} step {step}] unknown signal {signal}")
            }
            ValidationIssue::UnknownStatus { test, step, status } => {
                write!(f, "[{test} step {step}] undefined status {status}")
            }
            ValidationIssue::BadStatus { status, message } => {
                write!(f, "[status table] {status}: {message}")
            }
            ValidationIssue::DirectionMismatch {
                test,
                step,
                signal,
                status,
                method_direction,
                signal_direction,
            } => write!(
                f,
                "[{test} step {step}] status {status} is a {method_direction} method but {signal} is an {signal_direction}"
            ),
            ValidationIssue::ZeroDuration { test, step } => {
                write!(f, "[{test} step {step}] step duration must be positive")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodName;
    use crate::signal::SignalKind;
    use crate::status::StatusDef;
    use crate::value::BitPattern;

    fn sname(s: &str) -> SignalName {
        SignalName::new(s).unwrap()
    }

    fn st(s: &str) -> StatusName {
        StatusName::new(s).unwrap()
    }

    fn m(s: &str) -> MethodName {
        MethodName::new(s).unwrap()
    }

    fn tiny_suite() -> TestSuite {
        let mut suite = TestSuite::new("tiny");
        suite.signals.push(SignalDef::new(
            sname("DS_FL"),
            SignalKind::parse("pin:DS_FL").unwrap(),
            SignalDirection::Input,
        ));
        suite.signals.push(SignalDef::new(
            sname("INT_ILL"),
            SignalKind::parse("pin:INT_ILL_F/INT_ILL_R").unwrap(),
            SignalDirection::Output,
        ));
        suite.statuses.insert(StatusDef::numeric(
            st("Open"),
            m("put_r"),
            "r",
            0.0,
            0.0,
            2.0,
        ));
        suite
            .statuses
            .insert(StatusDef::numeric(st("Ho"), m("get_u"), "u", 1.0, 0.7, 1.1).with_var("ubatt"));
        let mut tc = TestCase::new("basic");
        tc.steps.push(
            TestStep::new(0, SimTime::from_millis(500))
                .assign(sname("DS_FL"), st("Open"))
                .assign(sname("INT_ILL"), st("Ho"))
                .with_remark("REQ-IL-001 light on when door open"),
        );
        suite.tests.push(tc);
        suite
    }

    #[test]
    fn valid_suite_has_no_issues() {
        let suite = tiny_suite();
        let issues = suite.validate(&MethodRegistry::builtin());
        assert!(issues.is_empty(), "unexpected issues: {issues:?}");
    }

    #[test]
    fn duration_and_tags() {
        let suite = tiny_suite();
        let tc = suite.test("BASIC").expect("case-insensitive test lookup");
        assert_eq!(tc.duration(), SimTime::from_millis(500));
        assert_eq!(tc.requirement_tags(), vec!["REQ-IL-001".to_string()]);
        assert_eq!(tc.signals_used().len(), 2);
    }

    #[test]
    fn detects_unknown_signal_and_status() {
        let mut suite = tiny_suite();
        suite.tests[0].steps.push(
            TestStep::new(1, SimTime::from_millis(500))
                .assign(sname("NO_SUCH"), st("Open"))
                .assign(sname("DS_FL"), st("Wobble")),
        );
        let issues = suite.validate(&MethodRegistry::builtin());
        assert!(issues.iter().any(
            |i| matches!(i, ValidationIssue::UnknownSignal { signal, .. } if signal == "NO_SUCH")
        ));
        assert!(issues.iter().any(
            |i| matches!(i, ValidationIssue::UnknownStatus { status, .. } if status == "Wobble")
        ));
    }

    #[test]
    fn detects_direction_mismatch() {
        let mut suite = tiny_suite();
        // `Ho` (get_u) applied to an input signal.
        suite.tests[0]
            .steps
            .push(TestStep::new(1, SimTime::from_millis(500)).assign(sname("DS_FL"), st("Ho")));
        let issues = suite.validate(&MethodRegistry::builtin());
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::DirectionMismatch { .. })));
    }

    #[test]
    fn detects_zero_duration_and_bad_status() {
        let mut suite = tiny_suite();
        suite.tests[0]
            .steps
            .push(TestStep::new(2, SimTime::ZERO).assign(sname("DS_FL"), st("Open")));
        suite.statuses.insert(StatusDef::bits(
            st("Junk"),
            m("put_r"),
            "r",
            BitPattern::parse("1B").unwrap(),
        ));
        let issues = suite.validate(&MethodRegistry::builtin());
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::ZeroDuration { step: 2, .. })));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::BadStatus { .. })));
    }

    #[test]
    fn init_status_is_validated() {
        let mut suite = tiny_suite();
        suite.signals[0].init = Some(st("Missing"));
        let issues = suite.validate(&MethodRegistry::builtin());
        assert!(issues.iter().any(
            |i| matches!(i, ValidationIssue::UnknownStatus { test, .. } if test == "<signal sheet>")
        ));
    }

    #[test]
    fn merge_combines_and_reports_collisions() {
        let mut base = tiny_suite();
        let mut donor = TestSuite::new("donor");
        // New signal.
        donor.signals.push(SignalDef::new(
            sname("EXTRA"),
            SignalKind::parse("pin:EXTRA").unwrap(),
            SignalDirection::Input,
        ));
        // Redefined signal: donor wins.
        donor.signals.push(SignalDef::new(
            sname("DS_FL"),
            SignalKind::parse("pin:DS_FL_V2").unwrap(),
            SignalDirection::Input,
        ));
        // New + redefined status.
        donor.statuses.insert(StatusDef::numeric(
            st("Open"),
            m("put_r"),
            "r",
            0.0,
            0.0,
            5.0, // widened tolerance
        ));
        donor.statuses.insert(StatusDef::numeric(
            st("Fresh"),
            m("put_r"),
            "r",
            1.0,
            0.0,
            2.0,
        ));
        // One colliding and one new test.
        donor.tests.push(TestCase::new("basic"));
        donor.tests.push(TestCase::new("extra_case"));

        let skipped = base.merge(donor);
        assert_eq!(skipped, vec!["basic".to_string()]);
        assert_eq!(base.signals.len(), 3);
        assert_eq!(
            base.signal(&sname("DS_FL")).unwrap().kind.pins()[0],
            "DS_FL_V2"
        );
        assert_eq!(base.statuses.get(&st("Open")).unwrap().max, Some(5.0));
        assert!(base.statuses.get(&st("Fresh")).is_some());
        assert_eq!(base.tests.len(), 2);
        assert!(base.test("extra_case").is_some());
        // The colliding donor test did not clobber the original's steps.
        assert_eq!(base.test("basic").unwrap().steps.len(), 1);
    }

    #[test]
    fn issue_display_is_informative() {
        let issue = ValidationIssue::UnknownSignal {
            test: "basic".into(),
            step: 3,
            signal: sname("GHOST"),
        };
        let text = issue.to_string();
        assert!(text.contains("basic"));
        assert!(text.contains("step 3"));
        assert!(text.contains("GHOST"));
    }
}
