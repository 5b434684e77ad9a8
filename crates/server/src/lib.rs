//! `comptest-server` — a resident multi-tenant campaign service.
//!
//! The batch CLI pays campaign startup (suite parsing, executor
//! construction, cold caches) on every invocation. This crate keeps all
//! of that **resident**: a [`Server`] daemon loads the bundled suites
//! once, owns one shared lane-fair
//! [`AsyncExecutor`](comptest_engine::AsyncExecutor) (a fixed set of
//! `workers` shard threads, whichever [`ExecutorChoice`] a client names)
//! and one on-disk cell cache, and multiplexes any number of concurrently
//! submitted campaigns onto them — each tenant isolated by its own
//! [`CampaignId`], [`CancelToken`](comptest_engine::CancelToken), metrics
//! [`Recorder`](comptest_engine::Recorder) and event hub.
//!
//! There is no scheduler thread: `submit` starts a runner thread while
//! fewer than `max_active` campaigns run, and each runner takes the next
//! queued campaign when its own finishes, exiting once the queue is
//! empty. An idle daemon runs its accept loop and the executor's shard
//! threads, nothing else.
//!
//! # Protocol
//!
//! Newline-delimited JSON frames over TCP, encoded by the same
//! hand-rolled [`comptest_engine::codec`] the cache records use; see
//! [`protocol`] for the full frame reference and [`Frame`] for the
//! typed form. The important properties:
//!
//! - **Stable ids.** `submit` replies `submitted {id}`; the id stays
//!   valid for the daemon's lifetime.
//! - **Live streaming with replay.** `watch {id}` replays every event
//!   the campaign already emitted, then streams live, then delivers the
//!   terminal `result` — so a late (or reconnecting) client never
//!   misses anything.
//! - **Disconnect survival.** Dropping a connection only drops its
//!   subscription; the campaign keeps running and `fetch {id}` returns
//!   the verdict afterwards, from any connection — the very `result`
//!   frame its watchers received, which is all a finished campaign keeps
//!   of its verdict.
//! - **Per-tenant observability.** `status` lists every campaign's
//!   lifecycle state; `metrics {id}` returns that campaign's own
//!   counter/gauge/phase snapshot, frozen once the campaign finishes (the
//!   recorder's span buffer is released then).
//! - **Graceful shutdown.** `shutdown` (or SIGINT/SIGTERM, see
//!   [`signals`]) stops admissions, cancels queued campaigns, trips
//!   running ones and waits until no runner is left, so every campaign
//!   has a terminal verdict before exit.
//!
//! # Quickstart (in-process)
//!
//! ```no_run
//! use comptest_server::{CampaignSpec, Client, ServeConfig, Server};
//!
//! # fn main() -> Result<(), String> {
//! // Daemon side (usually `comptest serve --addr 127.0.0.1:7171`):
//! let server = Server::new(ServeConfig::new("assets"))?;
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
//! let addr = listener.local_addr().map_err(|e| e.to_string())?;
//! std::thread::spawn(move || server.run(listener));
//!
//! // Client side (usually `comptest submit` / `comptest watch`):
//! let mut client = Client::connect(addr)?;
//! let spec = CampaignSpec {
//!     stands: vec!["assets/stand_a.stand".into()],
//!     ..CampaignSpec::default()
//! };
//! let (id, verdict) = client.submit_and_watch(&spec, |event| {
//!     eprintln!("{event:?}");
//! })?;
//! println!("{id}: all green = {}", verdict.all_green);
//! print!("{}", verdict.report); // byte-identical to a local run
//! # Ok(())
//! # }
//! ```
//!
//! Served verdicts are **byte-identical** to direct local execution —
//! `ResultFrame::report` is the exact `CampaignResult` rendering a
//! `SerialExecutor` produces for the same matrix
//! (`tests/server_conformance.rs` proves it per granularity and cache
//! mode).

#![deny(unsafe_code)] // one scoped allow lives in `signals`

pub mod client;
pub mod protocol;
pub mod server;
pub mod signals;

pub use client::{Client, Fetched};
pub use protocol::{CampaignSpec, ExecutorChoice, Frame, ResultFrame, StatusRow};
pub use server::{EventHub, HubMsg, ServeConfig, Server};

pub use comptest_core::service::{CampaignId, CampaignState};
