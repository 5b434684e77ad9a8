//! Executing a planned script against a simulated DUT.
//!
//! # Timing semantics
//!
//! All stimuli of a step are applied atomically at step start; the DUT then
//! advances event-driven to step end; checks are sampled **at step end**
//! ([`SampleMode::EndOfStep`], the default). This is the paper's reading of
//! a test sheet row: the row sets inputs, and its expected outputs describe
//! the state the DUT has settled into by the end of the step.
//!
//! [`SampleMode::Continuous`] additionally samples the whole step window, a
//! stricter ablation with a trade-off. It catches glitch and delay faults
//! that a single end-of-step sample misses, so it suits soak runs. But it
//! rejects steps that legitimately contain a transition, like the paper's
//! step 8 (the light goes out mid-step at its 300 s timeout), so it is
//! sound only for tests whose expected outputs hold for the whole step.
//!
//! Execution itself is a resumable state machine: [`TestRun`] advances one
//! planned step per [`TestRun::step`] call, which lets an event-loop
//! scheduler interleave thousands of runs on one thread; [`execute`] is the
//! drive-to-completion wrapper over it.

use std::borrow::{Borrow, BorrowMut};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use comptest_dut::{Device, PinDrive};
use comptest_model::{SignalKind, SimTime};
use comptest_stand::{Action, AppliedValue, ExecutionPlan, GetCheck};

use crate::trace::{Trace, TraceEvent};
use crate::verdict::{CheckResult, Measured, StepResult, TestResult, Verdict};

/// When expected-output checks are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Sample each check once, at step end (paper semantics).
    EndOfStep,
    /// Sample at step start + settle, then every `interval`, then at step
    /// end; a check passes only if **every** sample is in bounds.
    Continuous {
        /// Sampling interval.
        interval: SimTime,
    },
}

/// Execution options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Sampling mode for checks.
    pub sample: SampleMode,
    /// Abort the test after the first non-passing step (long soak tests
    /// then stop spending bench time on a component already known bad).
    /// Aborted runs still report the steps executed so far.
    pub stop_on_failure: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            sample: SampleMode::EndOfStep,
            stop_on_failure: false,
        }
    }
}

impl SampleMode {
    /// The accepted `FromStr` spellings, for CLI error messages.
    pub const ACCEPTED: [&'static str; 2] = ["end-of-step", "continuous:<interval_s>"];
}

impl FromStr for SampleMode {
    type Err = String;

    /// Parses a sample-mode name, case-insensitively: `end-of-step` or
    /// `continuous:<interval_s>` (seconds, decimal comma or point — e.g.
    /// `continuous:0.1`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if lower == "end-of-step" {
            return Ok(SampleMode::EndOfStep);
        }
        if let Some(rest) = lower.strip_prefix("continuous:") {
            let interval: SimTime = rest
                .parse()
                .map_err(|e| format!("bad continuous sampling interval {rest:?}: {e}"))?;
            if interval.is_zero() {
                return Err(format!(
                    "continuous sampling interval must be positive, got {rest:?}"
                ));
            }
            return Ok(SampleMode::Continuous { interval });
        }
        Err(format!(
            "unknown sample mode {s:?}: expected one of {} (e.g. continuous:0.1)",
            SampleMode::ACCEPTED.join(", ")
        ))
    }
}

/// Observer of per-step execution progress, attached with
/// [`TestRun::with_probe`].
///
/// A probe is pure telemetry: it sees each executed step *after* the step
/// completed and cannot influence the run — results stay byte-identical
/// with or without one. Wall-clock time reaches the probe only as a
/// duration argument; nothing wall-clock ever enters the [`TestResult`],
/// which is what keeps results hashable and cacheable.
pub trait StepProbe: std::fmt::Debug + Send + Sync {
    /// Called once per executed plan step: the step's `nr`, the simulated
    /// time the run advanced to, and the wall-clock time the step took.
    fn step_executed(&self, nr: u32, sim_end: SimTime, wall: Duration);
}

/// What one [`TestRun::step`] call left behind.
#[must_use = "a Finished state carries the test result"]
#[derive(Debug)]
pub enum RunState {
    /// The run has more planned steps; call [`TestRun::step`] again.
    Running,
    /// The run is complete. The result is handed out exactly once; calling
    /// [`TestRun::step`] again afterwards panics.
    Finished(TestResult),
}

/// One test execution as a **resumable state machine**: each
/// [`TestRun::step`] call advances exactly one planned step (stimuli →
/// event-driven DUT advance → end-of-step/continuous sampling), so a
/// scheduler can interleave thousands of runs on one thread. Driving a run
/// to completion yields byte-for-byte the [`execute`] result — `execute`
/// *is* the trivial drive-to-completion wrapper.
///
/// The plan and device parameters are generic over ownership
/// ([`Borrow`]/[`BorrowMut`]): `execute` borrows them
/// (`TestRun<&ExecutionPlan, &mut Device>`), while a long-lived scheduler
/// like `comptest-engine`'s `AsyncExecutor` moves owned values in
/// (`TestRun<ExecutionPlan, Device>`), which keeps the run `'static` and
/// `Send` without self-referential tricks.
///
/// Construction resets the device and applies the plan's init stimuli; an
/// init error latches an error-carrying result that the first `step` call
/// delivers as [`RunState::Finished`], exactly like `execute`.
///
/// # Example
///
/// ```
/// use comptest_core::{RunState, TestRun, ExecOptions, PAPER_STAND_A};
/// use comptest_dut::ecus::interior_light;
/// use comptest_script::TestScript;
/// use comptest_stand::{plan, TestStand};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let script = TestScript::parse_xml(r#"
/// <testscript name="t" suite="s" version="1">
///   <signals>
///     <signal name="ds_fl" kind="pin:DS_FL" direction="input"/>
///     <signal name="int_ill" kind="pin:INT_ILL_F/INT_ILL_R" direction="output"/>
///   </signals>
///   <step nr="0" dt="0.5">
///     <signal name="ds_fl"><put_r r="0" r_min="0" r_max="2"/></signal>
///     <signal name="int_ill"><get_u u_max="(0.3*ubatt)" u_min="0"/></signal>
///   </step>
/// </testscript>"#)?;
/// let stand = TestStand::parse_str("a.stand", PAPER_STAND_A)?;
/// let plan = plan(&script, &stand)?;
/// let mut dut = interior_light::device(Default::default());
/// let mut run = TestRun::new(&plan, &mut dut, &ExecOptions::default());
/// let result = loop {
///     match run.step() {
///         RunState::Running => continue,
///         RunState::Finished(result) => break result,
///     }
/// };
/// assert!(result.passed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TestRun<P, D>
where
    P: Borrow<ExecutionPlan>,
    D: BorrowMut<Device>,
{
    plan: P,
    device: D,
    options: ExecOptions,
    /// Simulated time at the start of the next step.
    now: SimTime,
    /// Index of the next plan step to execute.
    next_step: usize,
    /// Reused scratch: indices of the current step's check actions. One
    /// buffer for the whole run instead of a fresh `Vec<&GetCheck>`
    /// allocation per step — the per-step re-collection used to sit on the
    /// execution hot path.
    checks_buf: Vec<usize>,
    /// The result under construction; taken when the run finishes.
    result: Option<TestResult>,
    /// Latched when the run ended before exhausting the plan (init error,
    /// step error, `stop_on_failure`).
    done: bool,
    /// Optional telemetry observer; `None` (the default) keeps the step
    /// path free of any timing calls.
    probe: Option<Arc<dyn StepProbe>>,
}

impl<P, D> TestRun<P, D>
where
    P: Borrow<ExecutionPlan>,
    D: BorrowMut<Device>,
{
    /// Prepares a run: resets the device to simulated time zero and applies
    /// the plan's init stimuli. An init error does not raise — it latches
    /// the error-carrying result (no steps executed) that the first
    /// [`TestRun::step`] call delivers.
    pub fn new(plan: P, mut device: D, options: &ExecOptions) -> Self {
        let now = SimTime::ZERO;
        let mut done = false;
        let mut result = {
            let plan = plan.borrow();
            let device = device.borrow_mut();
            let mut result = TestResult {
                test: plan.script_name.clone(),
                stand: plan.stand_name.clone(),
                dut: device.behavior_name().to_owned(),
                steps: Vec::new(),
                error: None,
                trace: Trace::new(),
            };
            device.reset(now);
            for action in &plan.init {
                if let Err(msg) = apply_action(device, action, now, &mut result.trace) {
                    result.error = Some(format!("init: {msg}"));
                    done = true;
                    break;
                }
            }
            result
        };
        result
            .steps
            .reserve(if done { 0 } else { plan.borrow().steps.len() });
        Self {
            plan,
            device,
            options: *options,
            now,
            next_step: 0,
            checks_buf: Vec::new(),
            result: Some(result),
            done,
            probe: None,
        }
    }

    /// Attaches a telemetry probe (builder style): every subsequent
    /// [`TestRun::step`] call reports the executed step's number, simulated
    /// end time and wall-clock duration to it. Observation only — the
    /// run's result is byte-identical with or without a probe.
    pub fn with_probe(mut self, probe: Arc<dyn StepProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Advances the run by exactly one planned step (or delivers the final
    /// result when none remain): all of the step's stimuli atomically at
    /// step start, the event-driven DUT advance, and the step's full
    /// sampling schedule. The call that completes the run returns
    /// [`RunState::Finished`]; a plan with no (remaining) steps — or a run
    /// whose init failed — finishes on the first call.
    ///
    /// # Panics
    ///
    /// Panics when called again after [`RunState::Finished`] was returned.
    pub fn step(&mut self) -> RunState {
        assert!(
            self.result.is_some(),
            "TestRun::step called after the run finished"
        );
        if !self.done && self.next_step < self.plan.borrow().steps.len() {
            if self.probe.is_none() {
                self.execute_next_step();
            } else {
                let nr = self.plan.borrow().steps[self.next_step].nr;
                let begin = Instant::now();
                self.execute_next_step();
                let wall = begin.elapsed();
                if let Some(probe) = &self.probe {
                    probe.step_executed(nr, self.now, wall);
                }
            }
        }
        if self.done || self.next_step >= self.plan.borrow().steps.len() {
            return RunState::Finished(self.result.take().expect("checked above"));
        }
        RunState::Running
    }

    /// True once the next [`TestRun::step`] call will return (or already
    /// returned) [`RunState::Finished`].
    pub fn is_finished(&self) -> bool {
        self.done || self.next_step >= self.plan.borrow().steps.len()
    }

    /// Simulated time the run has advanced to (the start of the next step).
    pub fn sim_now(&self) -> SimTime {
        self.now
    }

    /// Simulated time the next [`TestRun::step`] call will advance to: the
    /// end of the next planned step, or the current time when the run is
    /// finished. This is the sim-time wheel key an event-loop scheduler
    /// orders runs by.
    pub fn next_deadline(&self) -> SimTime {
        if self.done {
            return self.now;
        }
        match self.plan.borrow().steps.get(self.next_step) {
            Some(step) => self.now.saturating_add(step.dt),
            None => self.now,
        }
    }

    /// Executes plan step `self.next_step`. Caller guarantees it exists and
    /// the run is not done.
    fn execute_next_step(&mut self) {
        let Self {
            plan,
            device,
            options,
            now,
            next_step,
            checks_buf,
            result,
            done,
            probe: _,
        } = self;
        let plan: &ExecutionPlan = (*plan).borrow();
        let device: &mut Device = (*device).borrow_mut();
        let result = result.as_mut().expect("caller checked");
        let step = &plan.steps[*next_step];
        let t_start = *now;
        let t_end = now.saturating_add(step.dt);

        // Phase 1: all stimuli, atomically at step start.
        for action in &step.actions {
            if let Err(msg) = apply_action(device, action, t_start, &mut result.trace) {
                result.error = Some(format!("step {}: {msg}", step.nr));
                *done = true;
                return;
            }
        }

        // Phase 2: collect the checks (into the run's reused buffer) and
        // their sample schedules.
        checks_buf.clear();
        checks_buf.extend(
            step.actions
                .iter()
                .enumerate()
                .filter_map(|(i, a)| match a {
                    Action::Check(_) => Some(i),
                    Action::Apply { .. } => None,
                }),
        );
        let check_at = |i: usize| -> &GetCheck {
            match &step.actions[i] {
                Action::Check(c) => c,
                Action::Apply { .. } => unreachable!("checks_buf holds only check indices"),
            }
        };

        let mut step_result = StepResult {
            nr: step.nr,
            t_end,
            checks: Vec::new(),
        };

        match options.sample {
            SampleMode::EndOfStep => {
                device.advance_to(t_end);
                for &i in checks_buf.iter() {
                    step_result.checks.push(sample_check(
                        device,
                        check_at(i),
                        step.nr,
                        t_start,
                        t_end,
                        &mut result.trace,
                    ));
                }
            }
            SampleMode::Continuous { interval } => {
                let interval = if interval.is_zero() {
                    SimTime::from_millis(100)
                } else {
                    interval
                };
                // Worst result per check across all samples.
                let mut worst: Vec<Option<CheckResult>> = vec![None; checks_buf.len()];
                let max_settle = checks_buf
                    .iter()
                    .map(|&i| check_at(i).settle)
                    .max()
                    .unwrap_or(SimTime::ZERO);
                let mut t = t_start;
                let mut first = true;
                loop {
                    t = if first {
                        first = false;
                        // First sample: after the longest settle.
                        t_start.saturating_add(max_settle)
                    } else {
                        t.saturating_add(interval)
                    };
                    if t >= t_end {
                        t = t_end;
                    }
                    device.advance_to(t);
                    for (slot, &i) in checks_buf.iter().enumerate() {
                        let sampled = sample_check(
                            device,
                            check_at(i),
                            step.nr,
                            t_start,
                            t,
                            &mut result.trace,
                        );
                        let replace = match &worst[slot] {
                            None => true,
                            Some(prev) => sampled.verdict > prev.verdict,
                        };
                        if replace {
                            worst[slot] = Some(sampled);
                        }
                    }
                    if t == t_end {
                        break;
                    }
                }
                step_result.checks = worst.into_iter().flatten().collect();
            }
        }

        result.trace.push(TraceEvent::StepEnd {
            nr: step.nr,
            at: t_end,
        });
        let failed = step_result.verdict() != Verdict::Pass;
        result.steps.push(step_result);
        *now = t_end;
        *next_step += 1;
        if failed && options.stop_on_failure {
            *done = true;
        }
    }
}

/// Runs an execution plan against a device. Never panics on DUT behaviour;
/// execution-level problems (unsupported methods, absent CAN frames) yield
/// [`Verdict::Error`] checks or an error-carrying [`TestResult`].
///
/// # Example
///
/// ```
/// use comptest_core::{execute, ExecOptions, PAPER_STAND_A};
/// use comptest_dut::ecus::interior_light;
/// use comptest_script::TestScript;
/// use comptest_stand::{plan, TestStand};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let script = TestScript::parse_xml(r#"
/// <testscript name="t" suite="s" version="1">
///   <signals>
///     <signal name="ds_fl" kind="pin:DS_FL" direction="input"/>
///     <signal name="int_ill" kind="pin:INT_ILL_F/INT_ILL_R" direction="output"/>
///   </signals>
///   <step nr="0" dt="0.5">
///     <signal name="ds_fl"><put_r r="0" r_min="0" r_max="2"/></signal>
///     <signal name="int_ill"><get_u u_max="(0.3*ubatt)" u_min="0"/></signal>
///   </step>
/// </testscript>"#)?;
/// let stand = TestStand::parse_str("a.stand", PAPER_STAND_A)?;
/// let plan = plan(&script, &stand)?;
/// let mut dut = interior_light::device(Default::default());
/// let result = execute(&plan, &mut dut, &ExecOptions::default());
/// assert!(result.passed()); // day: lamp stays dark
/// # Ok(())
/// # }
/// ```
pub fn execute(plan: &ExecutionPlan, device: &mut Device, options: &ExecOptions) -> TestResult {
    let mut run = TestRun::new(plan, device, options);
    loop {
        if let RunState::Finished(result) = run.step() {
            return result;
        }
    }
}

/// Applies a single stimulus action. Checks are ignored here.
fn apply_action(
    device: &mut Device,
    action: &Action,
    at: SimTime,
    trace: &mut Trace,
) -> Result<(), String> {
    let Action::Apply {
        signal,
        kind,
        resource,
        method,
        value,
        ..
    } = action
    else {
        return Ok(());
    };
    match (kind, value) {
        (SignalKind::Pin { pins }, AppliedValue::Num(v)) => {
            let drive = if *method == "put_r" {
                PinDrive::ResistanceToGround(*v)
            } else if *method == "put_u" {
                PinDrive::Voltage(*v)
            } else {
                return Err(format!(
                    "method {} is not executable on this simulated stand",
                    method.key()
                ));
            };
            // Stimuli drive the signal's first pin; a second pin, if any, is
            // the return line.
            let pin = pins
                .first()
                .ok_or_else(|| format!("signal {signal} has no pins"))?;
            device.apply_pin(pin, drive, at);
        }
        (
            SignalKind::Can {
                frame,
                start_bit,
                width,
            },
            AppliedValue::Bits(bits),
        ) => {
            device.write_can_field(*frame, *start_bit, *width, bits.bits(), at);
        }
        (
            SignalKind::Can {
                frame,
                start_bit,
                width,
            },
            AppliedValue::Num(v),
        ) => {
            // A numeric put onto a CAN signal writes the rounded value.
            device.write_can_field(*frame, *start_bit, *width, v.round() as u64, at);
        }
        (SignalKind::Pin { .. }, AppliedValue::Bits(_)) => {
            return Err(format!(
                "bit-pattern stimulus on electrical signal {signal}"
            ));
        }
    }
    trace.push(TraceEvent::Applied {
        at,
        signal: signal.clone(),
        resource: resource.to_string(),
        value: *value,
    });
    Ok(())
}

/// Samples one check at time `at` (the device must already be advanced).
/// `step_start` bounds the observation window for rate measurements
/// (`get_f` counts edges over `step_start..=at`).
fn sample_check(
    device: &Device,
    check: &GetCheck,
    step: u32,
    step_start: SimTime,
    at: SimTime,
    trace: &mut Trace,
) -> CheckResult {
    let mut result = CheckResult {
        step,
        at,
        signal: check.signal.clone(),
        method: check.method.clone(),
        bound: check.bound,
        measured: Measured::None,
        verdict: Verdict::Error,
        message: String::new(),
    };

    let method = &check.method;
    match &check.kind {
        SignalKind::Pin { pins } if *method == "get_u" => {
            let v = device.measure_pins(pins);
            result.measured = Measured::Num(v);
            if check.bound.accepts_num(v) {
                result.verdict = Verdict::Pass;
            } else {
                result.verdict = Verdict::Fail;
                result.message = format!("{v:.3} V outside bounds");
            }
        }
        SignalKind::Pin { pins } if *method == "get_f" => {
            // A frequency counter gates over the step window. The settle
            // time excludes the initial transient from the count.
            let window_start = step_start.saturating_add(check.settle);
            let f = device.frequency(&pins[0], window_start, at);
            result.measured = Measured::Num(f);
            if check.bound.accepts_num(f) {
                result.verdict = Verdict::Pass;
            } else {
                result.verdict = Verdict::Fail;
                result.message = format!("{f:.3} Hz outside bounds");
            }
        }
        SignalKind::Can {
            frame,
            start_bit,
            width,
        } if *method == "get_can" => match device.read_can_field(*frame, *start_bit, *width) {
            Some(bits) => {
                result.measured = Measured::Bits(bits);
                if check.bound.accepts_bits(bits) {
                    result.verdict = Verdict::Pass;
                } else {
                    result.verdict = Verdict::Fail;
                    result.message = format!("field value {bits:#b} does not match");
                }
            }
            None => {
                result.verdict = Verdict::Fail;
                result.message = format!("frame {frame} never transmitted");
            }
        },
        _ => {
            result.message = format!(
                "method {} cannot be measured on this signal kind in the simulation",
                method.key()
            );
        }
    }

    trace.push(TraceEvent::Measured {
        at,
        signal: check.signal.clone(),
        resource: check.resource.to_string(),
        value: result.measured,
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_dut::ecus::interior_light;
    use comptest_script::TestScript;
    use comptest_stand::{plan, TestStand};

    fn stand() -> TestStand {
        TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap()
    }

    fn script(xml: &str) -> TestScript {
        TestScript::parse_xml(xml).unwrap()
    }

    const NIGHT_SCRIPT: &str = r#"<?xml version="1.0"?>
<testscript name="night" suite="demo" version="1">
  <signals>
    <signal name="ds_fl" kind="pin:DS_FL" direction="input"/>
    <signal name="night" kind="can:0x2A0:0:1" direction="input"/>
    <signal name="int_ill" kind="pin:INT_ILL_F/INT_ILL_R" direction="output"/>
  </signals>
  <step nr="0" dt="0.5">
    <signal name="night"><put_can data="1B"/></signal>
    <signal name="ds_fl"><put_r r="0" r_min="0" r_max="2"/></signal>
    <signal name="int_ill"><get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/></signal>
  </step>
  <step nr="1" dt="0.5">
    <signal name="ds_fl"><put_r r="INF" r_min="5000" r_max="INF"/></signal>
    <signal name="int_ill"><get_u u_max="(0.3*ubatt)" u_min="0"/></signal>
  </step>
</testscript>"#;

    #[test]
    fn healthy_dut_passes() {
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();
        let mut dut = interior_light::device(Default::default());
        let result = execute(&plan, &mut dut, &ExecOptions::default());
        assert!(result.passed(), "{result}\n{}", result.trace);
        assert_eq!(result.check_count(), 2);
        assert_eq!(result.steps.len(), 2);
        assert_eq!(result.steps[1].t_end, SimTime::from_secs(1));
    }

    #[test]
    fn broken_dut_fails() {
        use comptest_dut::ecus::interior_light::InteriorLight;
        use comptest_dut::{FaultKind, FaultyBehavior, PortValue};
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();
        let mut dut = interior_light::device_with(
            Default::default(),
            Box::new(FaultyBehavior::new(
                Box::new(InteriorLight::new()),
                vec![FaultKind::StuckOutput {
                    port: "lamp",
                    value: PortValue::Bool(false),
                }],
            )),
        );
        let result = execute(&plan, &mut dut, &ExecOptions::default());
        assert_eq!(result.verdict(), Verdict::Fail);
        let failures = result.failures();
        assert_eq!(failures.len(), 1, "step 0's Ho check fails");
        assert_eq!(failures[0].step, 0);
    }

    #[test]
    fn trace_records_everything() {
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();
        let mut dut = interior_light::device(Default::default());
        let result = execute(&plan, &mut dut, &ExecOptions::default());
        let applies = result
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Applied { .. }))
            .count();
        let measures = result
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Measured { .. }))
            .count();
        assert_eq!(applies, 3);
        assert_eq!(measures, 2);
    }

    #[test]
    fn get_can_round_trip() {
        // The central lock reports its state on CAN; check it with get_can.
        use comptest_dut::ecus::central_lock;
        let xml = r#"<?xml version="1.0"?>
<testscript name="lock" suite="demo" version="1">
  <signals>
    <signal name="lock_cmd" kind="can:0x2F0:0:1" direction="input"/>
    <signal name="lock_status" kind="can:0x2F8:0:1" direction="output"/>
  </signals>
  <step nr="0" dt="0.1">
    <signal name="lock_cmd"><put_can data="1B"/></signal>
    <signal name="lock_status"><get_can data="1B"/></signal>
  </step>
</testscript>"#;
        let stand = stand();
        let plan = plan(&script(xml), &stand).unwrap();
        let mut dut = central_lock::device(Default::default());
        let result = execute(&plan, &mut dut, &ExecOptions::default());
        assert!(result.passed(), "{result}\n{}", result.trace);
    }

    #[test]
    fn missing_frame_is_a_failure_not_a_crash() {
        let xml = r#"<?xml version="1.0"?>
<testscript name="ghost" suite="demo" version="1">
  <signals>
    <signal name="nothing" kind="can:0x7FF:0:1" direction="output"/>
  </signals>
  <step nr="0" dt="0.1">
    <signal name="nothing"><get_can data="1B"/></signal>
  </step>
</testscript>"#;
        let stand = stand();
        let plan = plan(&script(xml), &stand).unwrap();
        let mut dut = interior_light::device(Default::default());
        let result = execute(&plan, &mut dut, &ExecOptions::default());
        assert_eq!(result.verdict(), Verdict::Fail);
        assert!(result.failures()[0].message.contains("never transmitted"));
    }

    #[test]
    fn stepping_a_test_run_matches_execute() {
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();
        let reference = execute(
            &plan,
            &mut interior_light::device(Default::default()),
            &ExecOptions::default(),
        );

        let mut dut = interior_light::device(Default::default());
        let mut run = TestRun::new(&plan, &mut dut, &ExecOptions::default());
        assert!(!run.is_finished());
        assert_eq!(run.sim_now(), SimTime::ZERO);
        // The wheel key before the first step: end of step 0.
        assert_eq!(run.next_deadline(), SimTime::from_millis(500));
        // Two planned steps: the first call runs step 0 and keeps going,
        // the second runs step 1 and delivers the result.
        assert!(matches!(run.step(), RunState::Running));
        assert_eq!(run.sim_now(), SimTime::from_millis(500));
        assert_eq!(run.next_deadline(), SimTime::from_secs(1));
        let RunState::Finished(result) = run.step() else {
            panic!("two-step plan finishes on the second call");
        };
        assert!(run.is_finished());
        assert_eq!(result, reference, "stepping must equal execute exactly");
    }

    #[test]
    #[should_panic(expected = "after the run finished")]
    fn stepping_past_finished_panics() {
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();
        let mut dut = interior_light::device(Default::default());
        let mut run = TestRun::new(&plan, &mut dut, &ExecOptions::default());
        loop {
            if let RunState::Finished(_) = run.step() {
                break;
            }
        }
        let _ = run.step();
    }

    #[test]
    fn test_run_can_own_its_plan_and_device() {
        // The AsyncExecutor shape: owned plan + device, 'static run.
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();
        let reference = execute(
            &plan,
            &mut interior_light::device(Default::default()),
            &ExecOptions::default(),
        );
        let mut run: TestRun<_, _> = TestRun::new(
            plan,
            interior_light::device(Default::default()),
            &ExecOptions::default(),
        );
        fn assert_send<T: Send + 'static>(_: &T) {}
        assert_send(&run);
        let result = loop {
            if let RunState::Finished(result) = run.step() {
                break result;
            }
        };
        assert_eq!(result, reference);
    }

    #[test]
    fn sample_mode_parses_and_rejects() {
        assert_eq!(
            "end-of-step".parse::<SampleMode>().unwrap(),
            SampleMode::EndOfStep
        );
        assert_eq!(
            "END-OF-STEP".parse::<SampleMode>().unwrap(),
            SampleMode::EndOfStep
        );
        assert_eq!(
            "continuous:0.1".parse::<SampleMode>().unwrap(),
            SampleMode::Continuous {
                interval: SimTime::from_millis(100)
            }
        );
        // Decimal comma, as everywhere else in the sheets.
        assert_eq!(
            "continuous:0,25".parse::<SampleMode>().unwrap(),
            SampleMode::Continuous {
                interval: SimTime::from_millis(250)
            }
        );
        let unknown = "hourly".parse::<SampleMode>().unwrap_err();
        assert!(unknown.contains("\"hourly\""), "{unknown}");
        assert!(
            unknown.contains("end-of-step, continuous:<interval_s>"),
            "{unknown}"
        );
        let zero = "continuous:0".parse::<SampleMode>().unwrap_err();
        assert!(zero.contains("positive"), "{zero}");
        let junk = "continuous:fast".parse::<SampleMode>().unwrap_err();
        assert!(junk.contains("\"fast\""), "{junk}");
    }

    #[test]
    fn continuous_sampling_catches_a_delay_fault() {
        use comptest_dut::ecus::interior_light::InteriorLight;
        use comptest_dut::{FaultKind, FaultyBehavior};
        // The lamp reacts 0.3 s late. End-of-step sampling (0.5 s step)
        // misses it; continuous sampling sees the dark interval.
        let make_dut = || {
            interior_light::device_with(
                Default::default(),
                Box::new(FaultyBehavior::new(
                    Box::new(InteriorLight::new()),
                    vec![FaultKind::OutputDelay {
                        port: "lamp",
                        delay: SimTime::from_millis(300),
                    }],
                )),
            )
        };
        let stand = stand();
        let plan = plan(&script(NIGHT_SCRIPT), &stand).unwrap();

        let end_of_step = execute(&plan, &mut make_dut(), &ExecOptions::default());
        assert!(end_of_step.passed(), "end-of-step misses the delay");

        let continuous = execute(
            &plan,
            &mut make_dut(),
            &ExecOptions {
                sample: SampleMode::Continuous {
                    interval: SimTime::from_millis(100),
                },
                ..ExecOptions::default()
            },
        );
        assert_eq!(continuous.verdict(), Verdict::Fail, "continuous catches it");
    }
}
