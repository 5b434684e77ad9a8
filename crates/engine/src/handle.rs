//! The cancellable side of a launched campaign: [`CancelToken`],
//! [`EventStream`], [`CampaignOutcome`] and [`CampaignHandle`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use comptest_core::campaign::CampaignResult;
use comptest_core::error::CoreError;

use crate::events::EngineEvent;
use crate::obs::{Counter, Recorder, SpanHandle};

/// A shared cooperative-cancellation latch.
///
/// Cloning is cheap (an `Arc` around one flag) and every clone observes the
/// same state, so a token handed to a ctrl-c handler, a watchdog thread or
/// a `stop-on-predicate` check cancels the campaign it was built into.
/// Cancellation is cooperative and latching: workers check the token
/// between jobs (a test that already started runs to completion, keeping
/// results deterministic), and a cancelled token never resets.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches cancellation: every clone of this token reports cancelled
    /// from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] ran on this token or any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The cancellation state of one launched run: the campaign's external
/// token OR-ed with a per-run latch. `stop_on_first_fail` (and
/// [`CampaignHandle::cancel`]) trip only the per-run latch, so a failed run
/// never poisons later launches of the same [`Campaign`](crate::Campaign);
/// the external token cancels every run it is shared with.
#[derive(Debug, Clone)]
pub(crate) struct RunCancel {
    external: CancelToken,
    run: CancelToken,
}

impl RunCancel {
    pub(crate) fn new(external: CancelToken) -> Self {
        Self {
            external,
            run: CancelToken::new(),
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.run.is_cancelled() || self.external.is_cancelled()
    }

    /// Cancels this run only.
    pub(crate) fn trip(&self) {
        self.run.cancel();
    }

    /// The per-run token (what [`CampaignHandle::cancel_token`] hands out).
    pub(crate) fn run_token(&self) -> CancelToken {
        self.run.clone()
    }
}

/// A blocking, typed iterator over a campaign's [`EngineEvent`]s.
///
/// The stream ends when the last worker finishes (or acknowledges
/// cancellation); it is `Send`, so it can be moved to a printer thread
/// while the launching thread joins the handle. Dropping it without
/// draining is always safe.
#[derive(Debug)]
pub struct EventStream {
    rx: Option<Receiver<EngineEvent>>,
}

impl EventStream {
    pub(crate) fn new(rx: Receiver<EngineEvent>) -> Self {
        Self { rx: Some(rx) }
    }

    /// A stream that yields nothing (what a second
    /// [`CampaignHandle::events`] call returns).
    pub(crate) fn empty() -> Self {
        Self { rx: None }
    }
}

impl Iterator for EventStream {
    type Item = EngineEvent;

    fn next(&mut self) -> Option<EngineEvent> {
        self.rx.as_ref()?.recv().ok()
    }
}

/// Everything a joined campaign produced: the deterministic result matrix
/// plus how many jobs were cancelled before they ran (whole cells at cell
/// granularity, single tests at test granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The merged result, in canonical (cell, test) order — byte-identical
    /// across executors and worker counts.
    pub result: CampaignResult,
    /// Jobs cancelled by `stop_on_first_fail` or a [`CancelToken`] before
    /// they ran.
    pub cancelled: usize,
}

type JoinFn<'a> = Box<dyn FnOnce() -> Result<CampaignOutcome, CoreError> + 'a>;

/// A launched campaign: typed event stream, cooperative cancellation, and
/// the join that folds worker outcomes into the deterministic
/// [`CampaignResult`].
///
/// Returned by [`Campaign::launch`](crate::Campaign::launch). Consume the
/// events (optional), then call [`CampaignHandle::join`] — dropping the
/// handle without joining leaves queued pool jobs running but discards
/// their outcomes.
pub struct CampaignHandle<'a> {
    events: Option<EventStream>,
    cancel: CancelToken,
    join: JoinFn<'a>,
    /// The campaign's recorder and open campaign span, finalized at join
    /// (attached by [`Campaign::launch`](crate::Campaign::launch)).
    obs: Option<(Recorder, SpanHandle)>,
}

impl<'a> CampaignHandle<'a> {
    pub(crate) fn new(events: EventStream, cancel: CancelToken, join: JoinFn<'a>) -> Self {
        Self {
            events: Some(events),
            cancel,
            join,
            obs: None,
        }
    }

    /// Attaches the campaign's recorder and open campaign span, to be
    /// finalized (cancelled-jobs counter, campaign wall time, span close)
    /// when the handle joins. Dropping the handle without joining leaves
    /// the campaign span open.
    pub(crate) fn with_observation(mut self, obs: Recorder, span: SpanHandle) -> Self {
        self.obs = Some((obs, span));
        self
    }

    /// Takes the typed event stream. The first call returns the live
    /// stream; later calls return an empty one (events are a single
    /// consumer resource).
    pub fn events(&mut self) -> EventStream {
        self.events.take().unwrap_or_else(EventStream::empty)
    }

    /// A clone of this run's cancellation token, for handing to signal
    /// handlers or watchdogs.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests cooperative cancellation of this run: jobs not yet started
    /// are skipped (and counted in [`CampaignOutcome::cancelled`]); running
    /// jobs finish, keeping the result's deterministic prefix-truncation
    /// semantics.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until every outstanding job reported, then folds the
    /// outcomes into the deterministic result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::JobsLost`] when jobs vanished without
    /// cancellation (a worker died mid-job) — never a silently truncated
    /// result.
    pub fn join(self) -> Result<CampaignOutcome, CoreError> {
        let outcome = (self.join)();
        if let Some((obs, span)) = self.obs {
            match &outcome {
                Ok(outcome) => {
                    obs.add(Counter::JobsCancelled, outcome.cancelled as u64);
                    let cancelled = outcome.cancelled;
                    obs.span_end(span, || Some(format!("{cancelled} cancelled")));
                }
                Err(_) => obs.span_end(span, || Some("error".into())),
            }
        }
        outcome
    }
}

impl fmt::Debug for CampaignHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignHandle")
            .field("events_taken", &self.events.is_none())
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive()
    }
}
