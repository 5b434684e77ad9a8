//! Output-edge recording on an event-dense DUT, through every executor.
//!
//! The DUT has an internal event every millisecond and two output pins
//! that toggle at different periods, so every run records edges on both
//! pins. Generated suites measure both with `get_f` under continuous
//! sampling: every sample counts edges over a different window. The
//! pooled and sharded-async executors must merge the serial bytes at both
//! granularities, and every sampled frequency must equal the one computed
//! from the toggle periods.

use comptest::core::campaign::{CampaignEntry, CampaignResult};
use comptest::core::{Measured, TraceEvent};
use comptest::dut::{Behavior, PinBinding, PortValue};
use comptest::model::SimTime;
use comptest::prelude::*;
use comptest_workload::SplitMix64;

const TICK: SimTime = SimTime::from_millis(1);
/// Ticks between toggles of pin A and of pin B.
const HALF_PERIOD_A: u64 = 3;
const HALF_PERIOD_B: u64 = 7;

/// One internal event per [`TICK`]; output `a` toggles every
/// [`HALF_PERIOD_A`] ticks and `b` every [`HALF_PERIOD_B`].
#[derive(Debug, Default)]
struct Blinker {
    ticks: u64,
    next: SimTime,
}

impl Behavior for Blinker {
    fn name(&self) -> &str {
        "blinker"
    }
    fn inputs(&self) -> &[&'static str] {
        &["en"]
    }
    fn outputs(&self) -> &[&'static str] {
        &["a", "b"]
    }
    fn reset(&mut self, now: SimTime) {
        self.ticks = 0;
        self.next = now.saturating_add(TICK);
    }
    fn set_input(&mut self, _port: &str, _value: PortValue, _now: SimTime) {}
    fn advance(&mut self, now: SimTime) {
        while self.next <= now {
            self.ticks += 1;
            self.next = self.next.saturating_add(TICK);
        }
    }
    fn next_event(&self) -> Option<SimTime> {
        Some(self.next)
    }
    fn output(&self, port: &str) -> PortValue {
        let half = match port {
            "a" => HALF_PERIOD_A,
            "b" => HALF_PERIOD_B,
            _ => return PortValue::Bool(false),
        };
        PortValue::Bool(self.ticks / half % 2 == 1)
    }
}

fn blinker() -> Device {
    Device::builder(Box::<Blinker>::default())
        .pin("EN", PinBinding::InputActiveLow { port: "en" })
        .pin("A_F", PinBinding::Output { port: "a" })
        .pin("A_R", PinBinding::Return)
        .pin("B_F", PinBinding::Output { port: "b" })
        .pin("B_R", PinBinding::Return)
        .build()
}

const STAND: &str = "\
[stand]
name = BLINK
ubatt = 12

[resources]
id,    method, attribut, min, max,      unit
Fcnt1, get_f,  f,        0,   10000,    Hz
Fcnt2, get_f,  f,        0,   10000,    Hz
Dec1,  put_r,  r,        0,   1.00E+06, Ohm

[matrix]
point, resource, pin
F1,    Fcnt1,    A_F
F2,    Fcnt1,    A_R
F3,    Fcnt2,    B_F
F4,    Fcnt2,    B_R
M1,    Dec1,     EN
";

/// A seeded suite: every test steps through random durations, toggles the
/// (ignored) enable input and measures both pins against bounds that
/// always hold (`Any`), never hold (`Slow`) or hold only on long windows
/// (`FA`, `FB`; the first continuous sample gates an empty window and
/// reads 0 Hz).
fn gen_suite(seed: u64, tests: usize) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut out = String::from(
        "[suite]\nname = blink\n\n\
         [signals]\nname, kind, direction, init\n\
         EN, pin:EN, input, Off\n\
         A, pin:A_F/A_R, output,\n\
         B, pin:B_F/B_R, output,\n\n\
         [status]\nstatus, method, attribut, var, nom, min, max\n\
         On,   put_r, r, , 0,     0,     2\n\
         Off,  put_r, r, , INF,   5000,  INF\n\
         FA,   get_f, f, , 166.7, 140,   190\n\
         FB,   get_f, f, , 71.4,  60,    85\n\
         Any,  get_f, f, , 0,     0,     10000\n\
         Slow, get_f, f, , 1,     0.5,   2\n",
    );
    for t in 0..tests {
        out.push_str(&format!("\n[test blink_{t}]\nstep, dt, EN, A, B\n"));
        for s in 0..1 + rng.index(3) {
            let dt = [0.05, 0.12, 0.2, 0.3][rng.index(4)];
            let en = ["On", "Off", ""][rng.index(3)];
            let a = ["Any", "Any", "", "FA", "Slow"][rng.index(5)];
            let b = ["Any", "Any", "", "FB", "Slow"][rng.index(5)];
            out.push_str(&format!("{s}, {dt}, {en}, {a}, {b}\n"));
        }
    }
    out
}

/// The frequency a counter gating `start..=at` reads from a pin toggling
/// every `half` ticks since time zero: edges / 2 / window, 0 for an empty
/// window.
fn analytic_frequency(half: u64, start: SimTime, at: SimTime) -> f64 {
    let window = at.saturating_sub(start).as_secs_f64();
    if window <= 0.0 {
        return 0.0;
    }
    let period = TICK.as_micros() * half;
    let first = start.as_micros().div_ceil(period).max(1);
    let last = at.as_micros() / period;
    last.saturating_sub(first - 1) as f64 / 2.0 / window
}

/// Checks every sampled frequency of `result` against the toggle periods;
/// returns how many samples were checked.
fn assert_analytic(result: &CampaignResult) -> usize {
    let mut checked = 0;
    for cell in &result.cells {
        let suite = cell.outcome.as_ref().expect("the suite plans on BLINK");
        for test in &suite.results {
            assert_eq!(test.error, None, "{}", test.test);
            let mut step_start = SimTime::ZERO;
            for event in test.trace.iter() {
                match event {
                    TraceEvent::StepEnd { at, .. } => step_start = *at,
                    TraceEvent::Measured {
                        at, signal, value, ..
                    } => {
                        let half = if *signal == "A" {
                            HALF_PERIOD_A
                        } else {
                            HALF_PERIOD_B
                        };
                        let expected = analytic_frequency(half, step_start, *at);
                        assert_eq!(
                            *value,
                            Measured::Num(expected),
                            "{} {signal} at {at}",
                            test.test
                        );
                        checked += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    checked
}

#[test]
fn edges_are_recorded_identically_on_every_executor() {
    let stand = TestStand::parse_str("blink.stand", STAND).unwrap();
    let options = ExecOptions {
        sample: SampleMode::Continuous {
            interval: SimTime::from_millis(50),
        },
        stop_on_failure: false,
    };
    let pooled = PooledExecutor::new(2);
    let sharded = AsyncExecutor::new(64).sharded(2);
    let executors: [(&str, &dyn CampaignExecutor); 2] =
        [("pooled", &pooled), ("sharded-async", &sharded)];
    for seed in [1, 9001] {
        let suite = Workbook::parse_str("blink.cts", &gen_suite(seed, 12))
            .unwrap()
            .suite;
        let entries = [CampaignEntry {
            suite: &suite,
            device_factory: Box::new(blinker),
        }];
        let stands = [&stand];
        let campaign = |granularity| {
            Campaign::new(&entries, &stands)
                .exec_options(options)
                .granularity(granularity)
        };
        let reference = campaign(Granularity::Cell).run(&SerialExecutor).unwrap();
        let samples = assert_analytic(&reference);
        assert!(samples > 100, "seed {seed}: only {samples} samples");
        let verdicts: Vec<Verdict> = reference.cells[0]
            .outcome
            .as_ref()
            .unwrap()
            .results
            .iter()
            .map(TestResult::verdict)
            .collect();
        assert!(
            verdicts.contains(&Verdict::Pass) && verdicts.contains(&Verdict::Fail),
            "seed {seed}: want passing and failing tests, got {verdicts:?}"
        );

        for granularity in [Granularity::Cell, Granularity::Test] {
            let serial = campaign(granularity).run(&SerialExecutor).unwrap();
            assert_eq!(serial, reference, "seed {seed}: serial at {granularity}");
            for (name, executor) in executors {
                let result = campaign(granularity).run(executor).unwrap();
                assert_eq!(
                    result, reference,
                    "seed {seed}: {name} at {granularity} diverged"
                );
            }
        }
    }
}
