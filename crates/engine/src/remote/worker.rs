//! The child side of the remote executor: `comptest worker`.
//!
//! A worker is a plain stdio filter: it reads [`ToWorker`] frames from
//! stdin, runs each job through the exact same
//! [`execute`](crate::executor::execute) runner every local executor uses
//! (so outcomes are byte-identical by construction), and writes one
//! [`FromWorker::Done`] frame per job — its result record — to stdout.
//! The worker reports no events: the parent emits a remote job's events
//! itself. Stands and scripts arrive once per worker as
//! interning frames; execution plans are resolved at most once per
//! (script, stand) pair, mirroring the parent's shared
//! [`PlanSlot`](crate::executor::PlanSlot)s.
//!
//! A clean EOF on stdin is a shutdown request (the parent's cancel
//! fan-out closes the pipe); a malformed frame is answered with one
//! `Error` frame and exit code 2. The worker never caches: the campaign
//! cache lives in the parent, which only ships cache misses.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use comptest_core::campaign::TestJobOutcome;
use comptest_core::exec::ExecOptions;
use comptest_dut::DeviceSpec;
use comptest_script::TestScript;
use comptest_stand::TestStand;

use crate::cache::binary;
use crate::cache::CellRecord;
use crate::campaign::Granularity;
use crate::executor::{execute, JobCtx, JobMsg, JobTest, PackagedJob, PlanSlot};
use crate::handle::{CancelToken, RunCancel};
use crate::obs::Recorder;
use crate::remote::frame::{read_frame, write_frame, FromWorker, RunRequest, ToWorker, VERSION};

/// Environment variable holding a per-job artificial delay in
/// milliseconds. Used by the kill-a-worker tests and the CI smoke job to
/// keep jobs in flight long enough to be interrupted; unset or invalid
/// values mean no delay.
pub const HOLD_MS_ENV: &str = "COMPTEST_WORKER_HOLD_MS";

/// Runs the worker protocol over this process's stdin/stdout until the
/// parent shuts it down. Returns the process exit code: `0` for a clean
/// shutdown (EOF or `Shutdown` frame), `2` for a protocol error.
///
/// This is what the `comptest worker` CLI subcommand calls; it is public
/// so embedders that ship their own binary to
/// [`RemoteExecutor::command`](crate::remote::RemoteExecutor::command)
/// can expose the same entry point.
pub fn worker_main() -> i32 {
    match serve(io::stdin().lock(), io::stdout()) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("comptest worker: {error}");
            2
        }
    }
}

/// Everything a worker interns across jobs.
struct WorkerState {
    stands: HashMap<u64, Arc<TestStand>>,
    scripts: HashMap<u64, Arc<TestScript>>,
    /// One shared plan slot per (script, stand) pair — resolved once, like
    /// the parent's campaign-owned slots.
    plans: HashMap<(u64, u64), Arc<PlanSlot>>,
    ctx: JobCtx,
    hold: Option<Duration>,
}

impl WorkerState {
    fn new(exec: ExecOptions, granularity: Granularity) -> Self {
        let hold = std::env::var(HOLD_MS_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        Self {
            stands: HashMap::new(),
            scripts: HashMap::new(),
            plans: HashMap::new(),
            ctx: JobCtx {
                exec,
                granularity,
                cancel: RunCancel::new(CancelToken::new()),
                stop: false,
                cache: None,
                obs: Recorder::disabled(),
                step_probe: None,
            },
            hold,
        }
    }

    fn stand(&self, id: u64) -> Result<&Arc<TestStand>, String> {
        self.stands
            .get(&id)
            .ok_or_else(|| format!("stand id {id} was never interned"))
    }

    fn script(&self, id: u64) -> Result<&Arc<TestScript>, String> {
        self.scripts
            .get(&id)
            .ok_or_else(|| format!("script id {id} was never interned"))
    }

    fn plan(&mut self, script: u64, stand: u64) -> Arc<PlanSlot> {
        Arc::clone(
            self.plans
                .entry((script, stand))
                .or_insert_with(|| Arc::new(PlanSlot::default())),
        )
    }

    fn device(&self, spec: &DeviceSpec) -> Result<comptest_dut::Device, String> {
        spec.realize()
            .ok_or_else(|| format!("device spec \"{}\" is not realizable here", spec.behavior))
    }
}

/// The worker protocol loop over arbitrary streams (tests drive it with
/// in-memory pipes).
pub(crate) fn serve(mut input: impl Read, mut output: impl Write) -> Result<(), String> {
    // Handshake: the first frame must be a version-matched Hello.
    let first = read_frame(&mut input).map_err(|e| e.to_string())?;
    let Some(first) = first else {
        // Spawned and immediately abandoned; nothing to do.
        return Ok(());
    };
    let (exec, granularity) = match ToWorker::decode(&first) {
        Ok(ToWorker::Hello { exec, granularity }) => (exec, granularity),
        Ok(other) => return refuse(&mut output, format!("expected Hello, got {other:?}")),
        Err(error) => return refuse(&mut output, error.to_string()),
    };
    send(&mut output, &FromWorker::Ready { version: VERSION })?;

    let mut state = WorkerState::new(exec, granularity);
    loop {
        let Some(payload) = read_frame(&mut input).map_err(|e| e.to_string())? else {
            // Parent closed our stdin: cooperative shutdown.
            return Ok(());
        };
        let frame = match ToWorker::decode(&payload) {
            Ok(frame) => frame,
            Err(error) => return refuse(&mut output, error.to_string()),
        };
        match frame {
            ToWorker::Hello { .. } => return refuse(&mut output, "duplicate Hello".into()),
            ToWorker::Shutdown => return Ok(()),
            ToWorker::Stand { id, text } => match TestStand::parse_str("remote.stand", &text) {
                Ok(stand) => {
                    state.stands.insert(id, Arc::new(stand));
                }
                Err(error) => return refuse(&mut output, format!("bad stand: {error}")),
            },
            ToWorker::Script { id, xml, names } => match TestScript::parse_xml(&xml) {
                Ok(mut script) => {
                    // The XML writer lowercased the signal names; put the
                    // shipped source spellings back so planning diagnostics
                    // match the parent's in-process executors byte for byte.
                    super::restore_signal_spellings(&mut script, &names);
                    state.scripts.insert(id, Arc::new(script));
                }
                Err(error) => return refuse(&mut output, format!("bad script: {error}")),
            },
            ToWorker::Run(request) => {
                if let Err(error) = run_job(&mut state, &mut output, request) {
                    return refuse(&mut output, error);
                }
            }
        }
    }
}

/// Sends one `Error` frame (best effort) and fails the loop.
fn refuse(output: &mut impl Write, message: String) -> Result<(), String> {
    let _ = send(
        output,
        &FromWorker::Error {
            message: message.clone(),
        },
    );
    Err(message)
}

fn send(output: &mut impl Write, frame: &FromWorker) -> Result<(), String> {
    write_frame(output, &frame.encode()).map_err(|e| e.to_string())
}

/// Runs one job through the shared runner and sends its result record.
/// The runner's events go nowhere: the parent emits the job's events.
fn run_job(
    state: &mut WorkerState,
    output: &mut impl Write,
    request: RunRequest,
) -> Result<(), String> {
    if let Some(hold) = state.hold {
        std::thread::sleep(hold);
    }
    let stand = Arc::clone(state.stand(request.stand)?);
    let mut tests = Vec::with_capacity(request.scripts.len());
    for &script in &request.scripts {
        let text = Arc::clone(state.script(script)?);
        tests.push(JobTest {
            name: text.name.clone(),
            script: text,
            plan: state.plan(script, request.stand),
        });
    }
    let devices = tests
        .iter()
        .map(|_| state.device(&request.spec))
        .collect::<Result<Vec<_>, String>>()?;
    let job = PackagedJob {
        job: request.job,
        cell: request.cell,
        first: request.first,
        suite: request.suite,
        stand_name: stand.name().to_owned(),
        stand,
        tests,
        devices,
        cached: None,
    };
    let (events, _) = mpsc::channel();
    let (results_tx, results_rx) = mpsc::channel();
    execute(job, &state.ctx, &events, &results_tx);
    let Ok(JobMsg::Done(job, outcomes)) = results_rx.try_recv() else {
        return Err("job produced no result".into());
    };
    send(
        output,
        &FromWorker::Done {
            job,
            record: encode_outcomes(request.scripts.len(), outcomes),
        },
    )
}

/// Serialises outcomes through the cache's record codec — the transport
/// reuses the bit-exact round-trip the cache conformance suite pins down.
pub(crate) fn encode_outcomes(total: usize, tests: Vec<TestJobOutcome>) -> Vec<u8> {
    binary::encode(&CellRecord {
        total,
        tests,
        footprint: None,
    })
}

/// Decodes a result record shipped by a worker.
pub(crate) fn decode_outcomes(record: &[u8]) -> Result<Vec<TestJobOutcome>, String> {
    binary::decode(record)
        .map(|record| record.tests)
        .map_err(|e| e.to_string())
}
