//! `serve_open`: open-loop, seeded arrivals at a fixed rate to an
//! in-process `comptest serve` daemon over loopback.
//!
//! Submissions arrive at seeded times at [`RATE_PER_S`]. Most reuse one
//! of a few fixed stand sets whose cells the setup already cached; a
//! seeded [`COLD_SHARE`] name fresh stands and run cold. Every
//! submission asks for the cache and streams its events (`watch`); half of
//! them, in seeded positions, run on the daemon's pool and half on its
//! async executor. [`CONNECTIONS`] client connections send the schedule: a
//! submission is sent at its due time or, when both connections are still
//! waiting for earlier verdicts, as soon as one is free — and its latency
//! is measured from the due time, so a stall counts against every
//! submission it delays.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use comptest_engine::Granularity;
use comptest_model::TestSuite;
use comptest_server::{
    CampaignSpec, Client, ExecutorChoice, Frame, ResultFrame, ServeConfig, Server,
};
use comptest_sheets::Workbook;
use comptest_workload::SplitMix64;

use crate::fleet::serial_reference;
use crate::inputs::{self, StandKind, ECUS};
use crate::metrics::{CampaignTrace, LayerContext, Metrics};
use crate::seams::CampaignObs;
use crate::stats::{ratio, Samples};

/// Offered load, submissions per second: 0.2 of the rate at which the
/// daemon saturates with this mix on two cores (about 160/s, measured with
/// `--rate`; see `README.md`).
pub const RATE_PER_S: f64 = 32.0;
/// A verdict later than this after its due time misses the limit, ms:
/// 1.2 to 1.6 times the p90 measured while tuning (`BASELINE.md`).
pub const LIMIT_MS: f64 = 30.0;
/// Client connections (and threads) sending the schedule.
pub const CONNECTIONS: usize = 2;
/// The daemon's pool workers.
pub const WORKERS: usize = 2;
/// Share of submissions that name fresh stands and run cold.
pub const COLD_SHARE: f64 = 0.1;
/// Stand sets the warm submissions draw from.
const WARM_SETS: usize = 4;
/// Stand kinds of one submission's stand set.
const SET_KINDS: [StandKind; 4] = [StandKind::A, StandKind::B, StandKind::A, StandKind::B];

/// One scheduled submission.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: Duration,
    set: usize,
    executor: ExecutorChoice,
}

/// What one submission observed.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Due time, from the start of the schedule.
    pub due: Duration,
    /// Whether the daemon's per-campaign metrics were fetched.
    pub traced: bool,
    /// Timings, or what went wrong (refusal, error, wrong verdict).
    pub outcome: Result<Timings, String>,
}

/// Timings of one answered submission.
#[derive(Debug, Clone)]
pub struct Timings {
    /// How late the generator sent it.
    pub lag: Duration,
    /// Send to `submitted`.
    pub ack: Duration,
    /// `submitted` to the first event.
    pub wait: Duration,
    /// First event to `result`.
    pub run: Duration,
    /// Due time to `result`.
    pub latency: Duration,
    /// Send to `result`.
    pub wall: Duration,
    /// Event frames streamed.
    pub events: u64,
    /// Tests with a verdict.
    pub tests: u64,
    /// The daemon's metrics for the campaign (traced submissions).
    pub obs: Option<CampaignObs>,
}

/// A verdict's expected report surface.
#[derive(Debug)]
struct Reference {
    report: String,
    totals: [u64; 4],
}

/// Everything `serve_open` sends, generated from the seed before any
/// daemon boots: the stand files, the arrival schedule and every stand
/// set's reference. Built once per run, outside the timed set-up, because
/// its cost grows with the number of cold stand sets and so with the window.
pub struct ServeInputs {
    sets: Vec<Vec<String>>,
    references: Vec<Reference>,
    schedule: Vec<Arrival>,
    ctx: LayerContext,
}

impl ServeInputs {
    /// Generates the stand sets and the arrival schedule for `seed` at
    /// `rate` submissions per second over `seconds`, writes the stand files
    /// under `dir` and computes every stand set's reference.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when an input or a reference run fails.
    pub fn generate(seed: u64, rate: f64, seconds: f64, dir: &Path) -> Result<Self, String> {
        let stand_dir = dir.join("stands");
        std::fs::create_dir_all(&stand_dir).map_err(|e| format!("stand dir: {e}"))?;
        let mut rng = SplitMix64::new(seed);
        let mut set_texts = Vec::new();
        for w in 0..WARM_SETS {
            set_texts.push(inputs::stand_set(
                &SET_KINDS,
                &format!("W{seed:x}-{w}"),
                &mut rng,
            )?);
        }
        // A fixed number of arrivals, uniform over the window (a Poisson
        // process conditioned on its count), with exact cold and executor
        // proportions in seeded positions: seeds move the schedule, not
        // the offered load.
        let arrivals = (rate * seconds).round().max(1.0) as usize;
        let mut dues: Vec<f64> = (0..arrivals).map(|_| rng.unit_f64() * seconds).collect();
        dues.sort_by(f64::total_cmp);
        let cold = shuffled_flags(
            arrivals,
            (arrivals as f64 * COLD_SHARE).round() as usize,
            &mut rng,
        );
        let pooled = shuffled_flags(arrivals, arrivals / 2, &mut rng);
        let mut schedule = Vec::with_capacity(arrivals);
        for (i, due) in dues.into_iter().enumerate() {
            let set = if cold[i] {
                let tag = format!("C{seed:x}-{}", set_texts.len());
                set_texts.push(inputs::stand_set(&SET_KINDS, &tag, &mut rng)?);
                set_texts.len() - 1
            } else {
                rng.index(WARM_SETS)
            };
            schedule.push(Arrival {
                due: Duration::from_secs_f64(due),
                set,
                executor: if pooled[i] {
                    ExecutorChoice::Pooled
                } else {
                    ExecutorChoice::Async
                },
            });
        }

        let suites: Vec<TestSuite> = ECUS
            .iter()
            .map(|ecu| {
                let file = format!("{ecu}.cts");
                Workbook::parse_str(&file, &inputs::read_asset(&file)?)
                    .map(|wb| wb.suite)
                    .map_err(|e| format!("bundled workbook: {e}"))
            })
            .collect::<Result<_, String>>()?;
        let mut sets = Vec::new();
        let mut references = Vec::new();
        for texts in &set_texts {
            let mut paths = Vec::new();
            for (name, text) in texts {
                let path = stand_dir.join(format!("{name}.stand"));
                std::fs::write(&path, text).map_err(|e| format!("writing stand: {e}"))?;
                paths.push(path.display().to_string());
            }
            sets.push(paths);
            let reference = serial_reference(&suites, &inputs::parse_stands(texts)?)?;
            let (passed, failed, errored, not_runnable) = reference.totals();
            references.push(Reference {
                report: reference.to_string(),
                totals: [passed, failed, errored, not_runnable].map(|n| n as u64),
            });
        }
        let suite_refs: Vec<&TestSuite> = suites.iter().collect();
        let tests: usize = suites.iter().map(|s| s.tests.len()).sum();
        Ok(Self {
            sets,
            references,
            schedule,
            ctx: LayerContext {
                workers: WORKERS as f64,
                entries: suites.len(),
                test_jobs: tests * SET_KINDS.len(),
                distinct_ratio: inputs::distinct_plan_ratio(&suite_refs, SET_KINDS.len()),
            },
        })
    }

    fn spec(&self, set: usize, executor: ExecutorChoice) -> CampaignSpec {
        CampaignSpec {
            stands: self.sets[set].clone(),
            granularity: Granularity::Cell,
            cache: true,
            executor,
            watch: true,
            ..CampaignSpec::default()
        }
    }

    fn check(&self, set: usize, verdict: &ResultFrame) -> Result<(), String> {
        let reference = &self.references[set];
        let totals = [
            verdict.passed,
            verdict.failed,
            verdict.errored,
            verdict.not_runnable,
        ];
        if verdict.state != "done" {
            return Err(format!("verdict {}: {:?}", verdict.state, verdict.error));
        }
        if verdict.report != reference.report || totals != reference.totals {
            return Err(format!(
                "verdict differs from the serial reference:\n{}\nexpected:\n{}",
                verdict.report, reference.report
            ));
        }
        Ok(())
    }
}

/// The `serve_open` workload: a running daemon plus the inputs it serves.
pub struct ServeOpen<'a> {
    server: Server,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
    addr: SocketAddr,
    inputs: &'a ServeInputs,
}

impl<'a> ServeOpen<'a> {
    /// Boots the daemon with its cache under `dir` and warms the cache with
    /// the warm stand sets: the timed set-up.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the daemon or a warm-up submission
    /// fails.
    pub fn setup(inputs: &'a ServeInputs, dir: &Path) -> Result<Self, String> {
        let mut cfg = ServeConfig::new(inputs::assets_dir());
        cfg.workers = WORKERS;
        cfg.max_active = CONNECTIONS;
        cfg.cache_dir = Some(dir.join("cache"));
        let server = Server::new(cfg)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let daemon_server = server.clone();
        let daemon = std::thread::spawn(move || daemon_server.run(listener));
        let workload = Self {
            server,
            daemon: Some(daemon),
            addr,
            inputs,
        };

        // Warm-up: every warm set once on each executor; the first run of
        // a set fills the cache, the second hits it.
        let mut client = Client::connect(addr)?;
        for set in 0..WARM_SETS {
            for executor in [ExecutorChoice::Pooled, ExecutorChoice::Async] {
                let (_, verdict) = client.submit_and_watch(&inputs.spec(set, executor), |_| {})?;
                inputs.check(set, &verdict)?;
            }
        }
        Ok(workload)
    }

    /// Layer attribution context.
    pub fn context(&self) -> LayerContext {
        self.inputs.ctx
    }

    /// Sends the whole schedule; submissions due at or after `trace_from`
    /// also fetch the daemon's metrics for their campaign.
    pub fn run(&self, trace_from: Option<Duration>) -> Vec<Submission> {
        let next = AtomicUsize::new(0);
        let observed = Mutex::new(Vec::with_capacity(self.inputs.schedule.len()));
        let start = Instant::now() + Duration::from_millis(10);
        std::thread::scope(|scope| {
            for _ in 0..CONNECTIONS {
                scope.spawn(|| {
                    let mut client = Client::connect(self.addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = self.inputs.schedule.get(i) else {
                            return;
                        };
                        let traced = trace_from.is_some_and(|from| arrival.due >= from);
                        let due = start + arrival.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let outcome = match &mut client {
                            Ok(client) => self.submit(client, arrival, due, traced),
                            Err(e) => Err(format!("connect: {e}")),
                        };
                        observed
                            .lock()
                            .expect("submission log lock")
                            .push(Submission {
                                due: arrival.due,
                                traced,
                                outcome,
                            });
                    }
                });
            }
        });
        let mut observed = observed.into_inner().expect("submission log lock");
        observed.sort_by_key(|s| s.due);
        observed
    }

    fn submit(
        &self,
        client: &mut Client,
        arrival: &Arrival,
        due: Instant,
        traced: bool,
    ) -> Result<Timings, String> {
        let sent = Instant::now();
        client.send(&Frame::Submit(
            self.inputs.spec(arrival.set, arrival.executor),
        ))?;
        let id = match client.recv()? {
            Frame::Submitted { id } => id,
            Frame::Error { message } => return Err(format!("refused: {message}")),
            other => return Err(format!("unexpected reply to submit: {other:?}")),
        };
        let acked = Instant::now();
        let mut first_event = None;
        let mut events = 0u64;
        let verdict = loop {
            match client.recv()? {
                Frame::Event { .. } => {
                    first_event.get_or_insert_with(Instant::now);
                    events += 1;
                }
                Frame::Result(verdict) => break verdict,
                Frame::Error { message } => return Err(format!("stream error: {message}")),
                other => return Err(format!("unexpected frame in stream: {other:?}")),
            }
        };
        let done = Instant::now();
        self.inputs.check(arrival.set, &verdict)?;
        let obs = if traced {
            Some(CampaignObs::from_value(&client.metrics(id)?)?)
        } else {
            None
        };
        let first_event = first_event.unwrap_or(done);
        Ok(Timings {
            lag: sent.saturating_duration_since(due),
            ack: acked - sent,
            wait: first_event.saturating_duration_since(acked),
            run: done.saturating_duration_since(first_event),
            latency: done - due,
            wall: done - sent,
            events,
            tests: verdict.passed + verdict.failed + verdict.errored,
            obs,
        })
    }
}

/// `len` flags of which exactly `set` are true, in seeded positions.
fn shuffled_flags(len: usize, set: usize, rng: &mut SplitMix64) -> Vec<bool> {
    let mut flags: Vec<bool> = (0..len).map(|i| i < set).collect();
    for i in (1..len).rev() {
        flags.swap(i, rng.index(i + 1));
    }
    flags
}

impl Drop for ServeOpen<'_> {
    fn drop(&mut self) {
        self.server.begin_shutdown();
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
    }
}

/// End-to-end figures of a window of submissions.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due-to-verdict latencies of answered submissions, ms.
    pub latencies_ms: Samples,
    /// Submissions sent.
    pub attempted: usize,
    /// Refused, errored or wrong submissions, rendered.
    pub failures: Vec<String>,
    /// Tests with a verdict per second of the window.
    pub tests_per_s: f64,
}

/// Summarises the submissions of one window.
pub fn open_loop(subs: &[&Submission]) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut tests = 0u64;
    let (mut first_due, mut last_done) = (None::<Duration>, Duration::ZERO);
    for sub in subs {
        out.attempted += 1;
        first_due = Some(first_due.map_or(sub.due, |d: Duration| d.min(sub.due)));
        match &sub.outcome {
            Ok(t) => {
                out.latencies_ms.push(t.latency.as_secs_f64() * 1e3);
                tests += t.tests;
                last_done = last_done.max(sub.due + t.latency);
            }
            Err(e) => out.failures.push(e.clone()),
        }
    }
    let span = last_done.saturating_sub(first_due.unwrap_or_default());
    out.tests_per_s = ratio(tests as f64, span.as_secs_f64());
    out
}

/// Per-layer figures of traced submissions: the engine layers (from the
/// daemon's per-campaign recorder) plus the wire seams and the generator.
pub fn layers(subs: &[&Submission], ctx: &LayerContext) -> Metrics {
    let mut traces = Vec::new();
    let mut ack = Samples::new();
    let mut wait = Samples::new();
    let mut run = Samples::new();
    let mut events = Samples::new();
    let mut lag = Samples::new();
    for sub in subs {
        let Ok(t) = &sub.outcome else { continue };
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        ack.push(us(t.ack));
        wait.push(us(t.wait));
        run.push(us(t.run));
        events.push(t.events as f64);
        lag.push(t.lag.as_secs_f64() * 1e3);
        if let Some(obs) = &t.obs {
            let campaign_wall = obs.counter("campaign_wall_micros") as f64;
            traces.push(CampaignTrace {
                wall_us: us(t.wall),
                obs: obs.clone(),
                server_us: (us(t.wall) - campaign_wall).max(0.0),
                ..CampaignTrace::default()
            });
        }
    }
    let mut m = crate::metrics::attribute(&traces, ctx);
    m.set("server.ack_us_p50", ack.median(), "us", ack.len());
    m.set("server.ack_us_p90", ack.percentile(90.0), "us", ack.len());
    m.set("server.wait_us_p50", wait.median(), "us", wait.len());
    m.set(
        "server.wait_us_p90",
        wait.percentile(90.0),
        "us",
        wait.len(),
    );
    m.set("server.run_us_p50", run.median(), "us", run.len());
    m.set("server.run_us_p90", run.percentile(90.0), "us", run.len());
    m.set(
        "server.events_per_campaign",
        ratio(events.sum(), events.len() as f64),
        "count",
        events.len(),
    );
    m.set("loadgen.lag_ms_p90", lag.percentile(90.0), "ms", lag.len());
    m.set("loadgen.lag_ms_max", lag.max(), "ms", lag.len());
    m
}
