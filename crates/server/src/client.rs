//! A blocking wire client for `comptest serve`.
//!
//! [`Client`] wraps one TCP connection with typed request/reply helpers
//! over the [`protocol`](crate::protocol) frames. It is deliberately
//! synchronous — the CLI subcommands, the conformance tests and the
//! `serve_open` benchmark workload all drive it from plain threads.
//!
//! Errors are rendered `String`s throughout: transport failures and
//! server-side `error` frames arrive through the same channel, so call
//! sites report them uniformly.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use comptest_core::service::CampaignId;
use comptest_engine::codec::Value;
use comptest_engine::EngineEvent;

use crate::protocol::{CampaignSpec, Frame, ResultFrame, StatusRow};

/// A fetched campaign's reply: ready verdict or still-live state.
#[derive(Debug, Clone, PartialEq)]
pub enum Fetched {
    /// The campaign reached a terminal state; here is its verdict.
    Ready(ResultFrame),
    /// The campaign is still `queued` or `running` (the payload).
    Pending(String),
}

/// One blocking connection to a `comptest serve` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Returns a rendered error if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        // Frames are small and the protocol is request/response; Nagle's
        // algorithm colliding with delayed ACKs would put a ~40 ms floor
        // under every round-trip.
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| format!("connect: {e}"))
            .map(BufReader::new)?;
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Sends one frame (one line).
    ///
    /// # Errors
    ///
    /// Returns a rendered transport error.
    pub fn send(&mut self, frame: &Frame) -> Result<(), String> {
        let mut line = frame.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Receives the next frame, skipping blank lines.
    ///
    /// # Errors
    ///
    /// Returns a rendered error on EOF (server gone), transport failure
    /// or an undecodable line.
    pub fn recv(&mut self) -> Result<Frame, String> {
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("recv: connection closed".to_owned());
            }
            if line.trim().is_empty() {
                continue;
            }
            return Frame::decode(line.trim_end()).map_err(|e| format!("recv: {}", e.0));
        }
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.send(frame)?;
        match self.recv()? {
            Frame::Error { message } => Err(message),
            reply => Ok(reply),
        }
    }

    /// Submits a campaign (with `spec.watch` forced off — use
    /// [`submit_and_watch`](Client::submit_and_watch) to stream) and
    /// returns its stable id.
    ///
    /// # Errors
    ///
    /// Returns the server's rendered rejection or a transport error.
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<CampaignId, String> {
        let mut spec = spec.clone();
        spec.watch = false;
        match self.request(&Frame::Submit(spec))? {
            Frame::Submitted { id } => Ok(id),
            other => Err(format!("unexpected reply to submit: {other:?}")),
        }
    }

    /// Submits with streaming: calls `on_event` for every event frame
    /// and returns `(id, verdict)` when the terminal `result` arrives.
    ///
    /// # Errors
    ///
    /// Returns the server's rendered rejection or a transport error.
    pub fn submit_and_watch(
        &mut self,
        spec: &CampaignSpec,
        on_event: impl FnMut(&EngineEvent),
    ) -> Result<(CampaignId, ResultFrame), String> {
        let mut spec = spec.clone();
        spec.watch = true;
        match self.request(&Frame::Submit(spec))? {
            Frame::Submitted { id } => {
                let result = self.stream_until_result(on_event)?;
                Ok((id, result))
            }
            other => Err(format!("unexpected reply to submit: {other:?}")),
        }
    }

    /// Subscribes to a campaign: replayed + live events through
    /// `on_event`, returning the terminal verdict.
    ///
    /// # Errors
    ///
    /// Returns the server's rendered error (unknown id) or a transport
    /// error.
    pub fn watch(
        &mut self,
        id: CampaignId,
        on_event: impl FnMut(&EngineEvent),
    ) -> Result<ResultFrame, String> {
        self.send(&Frame::Watch { id })?;
        self.stream_until_result(on_event)
    }

    fn stream_until_result(
        &mut self,
        mut on_event: impl FnMut(&EngineEvent),
    ) -> Result<ResultFrame, String> {
        loop {
            match self.recv()? {
                Frame::Event { event, .. } => on_event(&event),
                Frame::Result(result) => return Ok(result),
                Frame::Error { message } => return Err(message),
                other => return Err(format!("unexpected frame in stream: {other:?}")),
            }
        }
    }

    /// Fetches a campaign's verdict by id, without subscribing.
    ///
    /// # Errors
    ///
    /// Returns the server's rendered error (unknown id) or a transport
    /// error.
    pub fn fetch(&mut self, id: CampaignId) -> Result<Fetched, String> {
        match self.request(&Frame::Fetch { id })? {
            Frame::Result(result) => Ok(Fetched::Ready(result)),
            Frame::Pending { state, .. } => Ok(Fetched::Pending(state)),
            other => Err(format!("unexpected reply to fetch: {other:?}")),
        }
    }

    /// Cancels a campaign by id (queued: never launches; running:
    /// cooperative).
    ///
    /// # Errors
    ///
    /// Returns the server's rendered error (unknown id) or a transport
    /// error.
    pub fn cancel(&mut self, id: CampaignId) -> Result<(), String> {
        match self.request(&Frame::Cancel { id })? {
            Frame::Ok => Ok(()),
            other => Err(format!("unexpected reply to cancel: {other:?}")),
        }
    }

    /// Every campaign's lifecycle state, in submission order.
    ///
    /// # Errors
    ///
    /// Returns a rendered transport error.
    pub fn status(&mut self) -> Result<Vec<StatusRow>, String> {
        match self.request(&Frame::Status)? {
            Frame::Status2 { rows } => Ok(rows),
            other => Err(format!("unexpected reply to status: {other:?}")),
        }
    }

    /// One campaign's metrics snapshot document.
    ///
    /// # Errors
    ///
    /// Returns the server's rendered error (unknown id) or a transport
    /// error.
    pub fn metrics(&mut self, id: CampaignId) -> Result<Value, String> {
        match self.request(&Frame::Metrics { id })? {
            Frame::MetricsReply { metrics, .. } => Ok(metrics),
            other => Err(format!("unexpected reply to metrics: {other:?}")),
        }
    }

    /// Asks the daemon to shut down gracefully (drain, then exit).
    ///
    /// # Errors
    ///
    /// Returns a rendered transport error.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(&Frame::Shutdown)? {
            Frame::Ok => Ok(()),
            other => Err(format!("unexpected reply to shutdown: {other:?}")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns a rendered transport error.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.request(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(format!("unexpected reply to ping: {other:?}")),
        }
    }
}
