//! Service-side campaign identity and result retention.
//!
//! The one-shot CLI runs a campaign and exits; a resident campaign
//! service (`comptest serve`) outlives every run it executes, so it
//! needs two things the batch path never did: a **stable id** naming
//! each submitted campaign across its whole lifecycle, and a **result
//! store** keeping finished verdicts retrievable after the submitting
//! client is long gone. Both are engine-agnostic plain data, so they
//! live here next to [`CampaignResult`] rather than in the server crate —
//! tests and benches can use them without touching sockets.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

use crate::campaign::CampaignResult;

/// A stable campaign id, assigned at submission and valid for the
/// lifetime of the service process: `c-000042`. Ids are dense and
/// ordered by submission, which makes burst fairness observable (the
/// id order *is* the submission order) and log lines greppable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u64);

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c-{:06}", self.0)
    }
}

impl FromStr for CampaignId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("c-")
            .ok_or_else(|| format!("bad campaign id {s:?} (expected c-NNNNNN)"))?;
        digits
            .parse::<u64>()
            .map(CampaignId)
            .map_err(|_| format!("bad campaign id {s:?} (expected c-NNNNNN)"))
    }
}

/// Where a submitted campaign is in its service lifecycle.
///
/// ```text
/// Queued ──launch──▶ Running ──join──▶ Done
///    │                  │
///    └──cancel──────────┴──cancel──▶ (Done with cancelled jobs,
///                                     or Cancelled if never launched)
/// Running ──launch/join error──▶ Failed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignState {
    /// Accepted and waiting in the admission queue.
    Queued,
    /// Launched on the shared executor; events are streaming.
    Running,
    /// Joined with a verdict (which may include cancelled jobs).
    Done,
    /// Cancelled before it ever launched: no cell ran, no verdict exists.
    Cancelled,
    /// Launch or join failed; the payload is the rendered error.
    Failed(String),
}

impl CampaignState {
    /// The wire / display name of the state (`Failed` renders bare; the
    /// error travels separately).
    pub fn name(&self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed(_) => "failed",
        }
    }

    /// True once the campaign can never produce further events: `Done`,
    /// `Cancelled` or `Failed`.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, CampaignState::Queued | CampaignState::Running)
    }
}

impl fmt::Display for CampaignState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A finished campaign's retained verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredOutcome {
    /// The deterministic result matrix.
    pub result: CampaignResult,
    /// Jobs skipped by cancellation (`stop_on_first_fail` or a wire
    /// cancel).
    pub cancelled: usize,
}

/// An in-memory store of finished campaign verdicts, keyed by
/// [`CampaignId`] — what makes verdicts retrievable after the
/// submitting client disconnected. Thread-safe; the service keeps one
/// for its whole lifetime.
#[derive(Debug, Default)]
pub struct ResultStore {
    results: Mutex<BTreeMap<CampaignId, StoredOutcome>>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retains `outcome` under `id`, replacing any previous entry.
    pub fn insert(&self, id: CampaignId, outcome: StoredOutcome) {
        self.results
            .lock()
            .expect("result store lock")
            .insert(id, outcome);
    }

    /// The stored outcome for `id`, if that campaign has finished.
    pub fn get(&self, id: CampaignId) -> Option<StoredOutcome> {
        self.results
            .lock()
            .expect("result store lock")
            .get(&id)
            .cloned()
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.results.lock().expect("result store lock").len()
    }

    /// True when no verdict is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_and_parse_stably() {
        let id = CampaignId(42);
        assert_eq!(id.to_string(), "c-000042");
        assert_eq!("c-000042".parse::<CampaignId>().unwrap(), id);
        assert_eq!("c-7".parse::<CampaignId>().unwrap(), CampaignId(7));
        for bad in ["", "42", "c-", "c-x", "x-42"] {
            assert!(bad.parse::<CampaignId>().is_err(), "{bad:?}");
        }
        // Display order matches numeric order for dense ids.
        assert!(CampaignId(9).to_string() < CampaignId(10).to_string());
    }

    #[test]
    fn states_report_terminality() {
        assert!(!CampaignState::Queued.is_terminal());
        assert!(!CampaignState::Running.is_terminal());
        assert!(CampaignState::Done.is_terminal());
        assert!(CampaignState::Cancelled.is_terminal());
        assert!(CampaignState::Failed("boom".into()).is_terminal());
        assert_eq!(CampaignState::Failed("boom".into()).to_string(), "failed");
    }

    #[test]
    fn result_store_retains_and_replays() {
        let store = ResultStore::new();
        assert!(store.is_empty());
        assert_eq!(store.get(CampaignId(1)), None);
        let outcome = StoredOutcome {
            result: CampaignResult::default(),
            cancelled: 3,
        };
        store.insert(CampaignId(1), outcome.clone());
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(CampaignId(1)), Some(outcome));
    }
}
