//! The serial reference campaign: every entry's suite on every stand, one
//! cell after another, through [`plan_cells`] and [`run_cell`] alone.
//!
//! It uses no jobs, no merge and no cache, so it shares no code with the
//! engine's launch path (packaging, cache hits, the per-test merge). That
//! makes it the independent oracle the engine's executors are checked
//! against: `tests/engine_equivalence.rs` anchors every executor to
//! [`run_campaign`], and core's merge tests anchor
//! [`merge_test_outcomes`](crate::campaign::merge_test_outcomes) to it.

use comptest_stand::TestStand;

use crate::campaign::{plan_cells, precheck_entries, run_cell, CampaignEntry, CampaignResult};
use crate::error::CoreError;
use crate::exec::ExecOptions;

/// Runs every entry's suite on every stand, serially, in cell order.
///
/// The engine's `Campaign` launched on any executor must reproduce this
/// result byte for byte.
///
/// # Errors
///
/// Returns [`CoreError::Codegen`] only for invalid suites, which no stand
/// could ever run.
pub fn run_campaign(
    entries: &[CampaignEntry<'_>],
    stands: &[&TestStand],
    options: &ExecOptions,
) -> Result<CampaignResult, CoreError> {
    precheck_entries(entries)?;
    let mut result = CampaignResult::default();
    for job in plan_cells(entries.len(), stands.len()) {
        result
            .cells
            .push(run_cell(&entries[job.entry], stands[job.stand], options)?);
    }
    Ok(result)
}
