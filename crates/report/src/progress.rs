//! Live-progress rendering for campaign [`EngineEvent`]s — the one
//! formatter shared by the `comptest campaign` CLI and the
//! `campaign_parallel` example, so a campaign looks the same everywhere it
//! streams.

use comptest_engine::{CampaignOutcome, EngineEvent};

/// One human-readable line for a live engine event, without trailing
/// newline. Cell events render as `[ 3] suite on stand …`, test events as
/// `[ 3] suite::test on stand: PASS (1.23ms)`.
pub fn progress_line(event: &EngineEvent) -> String {
    match event {
        EngineEvent::JobStarted { cell, suite, stand } => {
            format!("[{cell:>2}] {suite} on {stand} …")
        }
        EngineEvent::JobFinished {
            cell,
            suite,
            stand,
            status,
            ..
        } => format!("[{cell:>2}] {suite} on {stand}: {status}"),
        EngineEvent::TestStarted {
            cell,
            suite,
            stand,
            name,
            ..
        } => format!("[{cell:>2}] {suite}::{name} on {stand} …"),
        EngineEvent::TestFinished {
            cell,
            suite,
            stand,
            name,
            status,
            duration,
            ..
        } => format!("[{cell:>2}] {suite}::{name} on {stand}: {status} ({duration:.2?})"),
        EngineEvent::CellCached {
            cell,
            test,
            suite,
            stand,
            status,
        } => match test {
            Some(test) => format!("[{cell:>2}] {suite}::#{test} on {stand}: {status} (cached)"),
            None => format!("[{cell:>2}] {suite} on {stand}: {status} (cached)"),
        },
        EngineEvent::CellCacheCorrupt { cell, suite, stand } => {
            format!("[{cell:>2}] {suite} on {stand}: warning: corrupt cache entry (re-executing)")
        }
        // `EngineEvent` is non_exhaustive: render future event kinds
        // through Debug rather than dropping them silently.
        other => format!("{other:?}"),
    }
}

/// The terminal `done:` line for a joined campaign.
pub fn summary_line(outcome: &CampaignOutcome) -> String {
    let (passed, failed, errored, not_runnable) = outcome.result.totals();
    let cancelled = outcome.cancelled;
    format!(
        "done: {passed} passed, {failed} failed, {errored} errored, \
         {not_runnable} not runnable, {cancelled} cancelled"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_core::campaign::{CampaignCell, CampaignResult};
    use std::time::Duration;

    #[test]
    fn renders_every_event_kind() {
        let started = EngineEvent::JobStarted {
            cell: 3,
            suite: "lamp".into(),
            stand: "HIL-A".into(),
        };
        assert_eq!(progress_line(&started), "[ 3] lamp on HIL-A …");

        let finished = EngineEvent::JobFinished {
            cell: 3,
            suite: "lamp".into(),
            stand: "HIL-A".into(),
            status: "PASS (2P/0F/0E)".into(),
            failed: false,
        };
        assert_eq!(
            progress_line(&finished),
            "[ 3] lamp on HIL-A: PASS (2P/0F/0E)"
        );

        let test_started = EngineEvent::TestStarted {
            cell: 0,
            test: 1,
            suite: "lamp".into(),
            stand: "HIL-A".into(),
            name: "night_on".into(),
        };
        assert_eq!(
            progress_line(&test_started),
            "[ 0] lamp::night_on on HIL-A …"
        );

        let test_finished = EngineEvent::TestFinished {
            cell: 0,
            test: 1,
            suite: "lamp".into(),
            stand: "HIL-A".into(),
            name: "night_on".into(),
            status: "PASS".into(),
            failed: false,
            duration: Duration::from_millis(2),
        };
        let line = progress_line(&test_finished);
        assert!(
            line.starts_with("[ 0] lamp::night_on on HIL-A: PASS ("),
            "{line}"
        );

        let cached_cell = EngineEvent::CellCached {
            cell: 4,
            test: None,
            suite: "lamp".into(),
            stand: "HIL-A".into(),
            status: "PASS (2P/0F/0E)".into(),
        };
        assert_eq!(
            progress_line(&cached_cell),
            "[ 4] lamp on HIL-A: PASS (2P/0F/0E) (cached)"
        );
        let cached_test = EngineEvent::CellCached {
            cell: 4,
            test: Some(1),
            suite: "lamp".into(),
            stand: "HIL-A".into(),
            status: "PASS".into(),
        };
        assert_eq!(
            progress_line(&cached_test),
            "[ 4] lamp::#1 on HIL-A: PASS (cached)"
        );

        let corrupt = EngineEvent::CellCacheCorrupt {
            cell: 2,
            suite: "lamp".into(),
            stand: "HIL-A".into(),
        };
        assert_eq!(
            progress_line(&corrupt),
            "[ 2] lamp on HIL-A: warning: corrupt cache entry (re-executing)"
        );
    }

    #[test]
    fn summary_line_matches_the_done_event_format() {
        let outcome = CampaignOutcome {
            result: CampaignResult {
                cells: vec![CampaignCell {
                    suite: "lamp".into(),
                    stand: "HIL-A".into(),
                    outcome: Err("no resource".into()),
                }],
            },
            cancelled: 9,
        };
        assert_eq!(
            summary_line(&outcome),
            "done: 0 passed, 0 failed, 0 errored, 1 not runnable, 9 cancelled"
        );
    }
}
