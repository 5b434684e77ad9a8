//! Service-side campaign identity and lifecycle state.
//!
//! The one-shot CLI runs a campaign and exits; a resident campaign
//! service (`comptest serve`) outlives every run it executes, so it
//! needs what the batch path never did: a **stable id** naming each
//! submitted campaign across its whole lifecycle, and a **state** saying
//! where that campaign is in it. Both are engine-agnostic plain data, so
//! they live here rather than in the server crate — tests and benches can
//! use them without touching sockets. The service keeps a finished
//! campaign's verdict as its rendered wire frame, not as a
//! [`CampaignResult`](crate::campaign::CampaignResult).

use std::fmt;
use std::str::FromStr;

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
}
