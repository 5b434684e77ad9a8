//! Metric catalogue, layer attribution and the result line.

use std::fmt::Write as _;

use crate::seams::{CampaignObs, SeamTotals};
use crate::stats::{ratio, Samples};

/// End-to-end metrics on the result line of an untraced run: `(name,
/// unit)`. The p50 and p90 latencies are printed on the `e2e` lines only:
/// on a shared two-core host, `serve_open`'s moved by more than the
/// largest allowed bound between checks half an hour apart, so latency is
/// gated through `in_limit_frac` (and, for closed loops, `tests_per_s`)
/// instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("tests_per_s", "tests/s"),
    ("in_limit_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Only
/// metrics every workload measures are listed; workload-specific ones
/// (parse, device builds, cache call times, report, server, load
/// generator) are printed above the result line.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("share.sheets", "frac"),
    ("share.script", "frac"),
    ("share.plan", "frac"),
    ("share.dut", "frac"),
    ("share.hash", "frac"),
    ("share.cache", "frac"),
    ("share.exec", "frac"),
    ("share.report", "frac"),
    ("share.server", "frac"),
    ("share.unattributed", "frac"),
    ("campaign.wall_us", "us"),
    ("script.codegen_us", "us"),
    ("plan.us", "us"),
    ("plan.calls", "count"),
    ("plan.us_per_test", "us"),
    ("plan.distinct_ratio", "frac"),
    ("exec.us", "us"),
    ("exec.steps", "count"),
    ("exec.us_per_step", "us"),
    ("exec.worker_busy_frac", "frac"),
    ("executor.queue_depth_max", "count"),
    ("executor.inflight_max", "count"),
    ("executor.unattributed_us", "us"),
    ("executor.unattributed_frac", "frac"),
    ("cache.hit_ratio", "frac"),
    ("cache.cells_invalidated", "count"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("trace_overhead_frac", "frac"),
];

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub n: usize,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        let metric = Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.0.push(metric),
        }
    }

    /// A metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// One human-readable line per metric: `<tag> <name> <value> <unit> n=<n>`.
    pub fn lines(&self, tag: &str) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "{tag} {} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
        out
    }
}

/// The final result line: exactly the metrics of `catalogue`, in order.
///
/// # Panics
///
/// Panics when a catalogue metric was not measured or is not a finite
/// number — a bench bug, not a property of the program under test.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert_eq!(m.unit, *unit, "metric {name} unit");
        assert!(m.value.is_finite(), "metric {name} is {}", m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    out.push_str("}}");
    out
}

/// How a workload's campaigns use the engine, for layer attribution.
#[derive(Debug, Clone, Copy)]
pub struct LayerContext {
    /// Worker threads executing jobs; worker-side layer time is divided by
    /// this to express it as wall time.
    pub workers: f64,
    /// Campaign entries (suites); with the cache on, the hash phase builds
    /// one device per entry.
    pub entries: usize,
    /// Tests × stands per campaign.
    pub test_jobs: usize,
    /// Distinct (signal set, stand) pairs per campaign / test jobs.
    pub distinct_ratio: f64,
}

/// One traced campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// The wall time the user waited for (one closed-loop iteration, or
    /// send-to-result for a served submission), µs.
    pub wall_us: f64,
    /// The engine's recorder snapshot.
    pub obs: CampaignObs,
    /// Bench-side seam measurements (empty for served campaigns).
    pub seams: SeamTotals,
    /// For a served campaign: the part of `wall_us` outside the engine's
    /// campaign span (wire, admission, event streaming), µs.
    pub server_us: f64,
}

/// Attributes traced campaigns to layers. Launch-thread layers (parse,
/// codegen, hash, cache preload, device builds, report) count their full
/// time; worker-side layers (execution, lazily resolved plans, cache
/// stores) count their busy time divided by the worker count. Plans are
/// resolved inside the hash phase whenever the cache is on (footprint
/// keys need them), so then they are launch-thread time and are taken out
/// of the hash phase, together with the hash phase's one device build per
/// entry. Whatever the user waited for beyond that is `unattributed`.
pub fn attribute(traces: &[CampaignTrace], ctx: &LayerContext) -> Metrics {
    let n = traces.len();
    let campaigns = n.max(1) as f64;
    let w = ctx.workers.max(1.0);
    let sum = |f: &dyn Fn(&CampaignTrace) -> f64| traces.iter().map(f).fold(0.0, |acc, v| acc + v);
    let counter = |name: &str| sum(&|t| t.obs.counter(name) as f64);

    let wall = sum(&|t| t.wall_us);
    let campaign_wall = counter("campaign_wall_micros");
    let parse = sum(&|t| t.seams.parse_us);
    let report = sum(&|t| t.seams.report_us);
    let codegen = sum(&|t| t.obs.phase_us("codegen"));
    let hash = sum(&|t| t.obs.phase_us("hash"));
    let preload = sum(&|t| t.obs.phase_us("cache_preload"));
    let plan = sum(&|t| t.obs.phase_us("plan"));
    let exec = sum(&|t| t.obs.phase_us("execute"));
    let plan_calls = sum(&|t| t.obs.phase_calls("plan") as f64);
    let cache_on = sum(&|t| t.obs.phase_calls("hash") as f64) > 0.0;
    let builds = sum(&|t| t.seams.build_us.iter().sum());
    let hash_builds = if cache_on {
        sum(&|t| t.seams.build_us.iter().take(ctx.entries).sum())
    } else {
        0.0
    };
    let build_count = sum(&|t| t.seams.build_us.len() as f64);
    let exec_builds = sum(&|t| {
        let skip = if cache_on { ctx.entries } else { 0 };
        t.seams.build_us.len().saturating_sub(skip) as f64
    });
    let mut lookups = Samples::new();
    let mut stores = Samples::new();
    for t in traces {
        for &us in &t.seams.lookup_us {
            lookups.push(us);
        }
        for &us in &t.seams.store_us {
            stores.push(us);
        }
    }
    let steps = counter("steps_executed");
    let sim_events = sum(&|t| t.seams.sim_events as f64);
    let hits = counter("cache_hits");
    let misses = counter("cache_misses");

    // Disjoint launch-thread and worker-side components.
    let (plan_launch, plan_worker) = if cache_on { (plan, 0.0) } else { (0.0, plan) };
    let hash_self = hash - plan_launch - hash_builds;
    let cache = preload + stores.sum() / w;
    let server = sum(&|t| t.server_us);
    let layers = [
        ("share.sheets", parse),
        ("share.script", codegen),
        ("share.plan", plan_launch + plan_worker / w),
        ("share.dut", builds),
        ("share.hash", hash_self),
        ("share.cache", cache),
        ("share.exec", exec / w),
        ("share.report", report),
        ("share.server", server),
    ];
    let attributed: f64 = layers.iter().map(|(_, us)| us).sum();
    let engine_attributed =
        codegen + hash + preload + (builds - hash_builds) + (exec + plan_worker + stores.sum()) / w;
    let engine_residual = campaign_wall - engine_attributed;

    let mut m = Metrics::default();
    for (name, us) in layers {
        m.set(name, ratio(us, wall), "frac", n);
    }
    m.set(
        "share.unattributed",
        ratio(wall - attributed, wall),
        "frac",
        n,
    );
    m.set("campaign.wall_us", campaign_wall / campaigns, "us", n);
    m.set("sheets.parse_us", parse / campaigns, "us", n);
    m.set("script.codegen_us", codegen / campaigns, "us", n);
    m.set("plan.us", plan / campaigns, "us", n);
    m.set("plan.calls", plan_calls / campaigns, "count", n);
    m.set(
        "plan.us_per_test",
        ratio(plan, plan_calls),
        "us",
        plan_calls as usize,
    );
    m.set("plan.distinct_ratio", ctx.distinct_ratio, "frac", n);
    m.set(
        "dut.build_us",
        builds / campaigns,
        "us",
        build_count as usize,
    );
    m.set("dut.builds", build_count / campaigns, "count", n);
    m.set(
        "dut.builds_skipped_ratio",
        1.0 - ratio(exec_builds, (ctx.test_jobs * n) as f64),
        "frac",
        n,
    );
    m.set("exec.us", exec / campaigns, "us", n);
    m.set("exec.steps", steps / campaigns, "count", n);
    m.set("exec.us_per_step", ratio(exec, steps), "us", steps as usize);
    m.set("exec.sim_events", sim_events / campaigns, "count", n);
    m.set(
        "exec.host_ns_per_sim_event",
        ratio(exec * 1e3, sim_events),
        "ns",
        sim_events as usize,
    );
    m.set(
        "exec.worker_busy_frac",
        ratio(counter("worker_busy_micros"), campaign_wall * w),
        "frac",
        n,
    );
    m.set("hash.us", hash / campaigns, "us", n);
    m.set(
        "hash.footprint_bytes",
        counter("footprint_bytes") / campaigns,
        "bytes",
        n,
    );
    m.set(
        "cache.lookup_calls",
        lookups.len() as f64 / campaigns,
        "count",
        n,
    );
    m.set("cache.lookup_us_p50", lookups.median(), "us", lookups.len());
    m.set(
        "cache.lookup_us_p90",
        lookups.percentile(90.0),
        "us",
        lookups.len(),
    );
    m.set(
        "cache.store_calls",
        stores.len() as f64 / campaigns,
        "count",
        n,
    );
    m.set(
        "cache.store_us",
        stores.sum() / campaigns,
        "us",
        stores.len(),
    );
    m.set(
        "cache.bytes_read",
        counter("cache_bytes_read") / campaigns,
        "bytes",
        n,
    );
    m.set(
        "cache.bytes_written",
        counter("cache_bytes_written") / campaigns,
        "bytes",
        n,
    );
    m.set("cache.hit_ratio", ratio(hits, hits + misses), "frac", n);
    m.set(
        "cache.cells_invalidated",
        counter("cells_invalidated") / campaigns,
        "count",
        n,
    );
    m.set("cache_preload.us", preload / campaigns, "us", n);
    let gauge_max = |name: &str| {
        traces
            .iter()
            .map(|t| t.obs.gauge_max(name))
            .max()
            .unwrap_or(0) as f64
    };
    m.set(
        "executor.queue_depth_max",
        gauge_max("queue_depth"),
        "count",
        n,
    );
    m.set(
        "executor.inflight_max",
        gauge_max("inflight_jobs"),
        "count",
        n,
    );
    m.set(
        "executor.unattributed_us",
        engine_residual / campaigns,
        "us",
        n,
    );
    m.set(
        "executor.unattributed_frac",
        ratio(engine_residual, campaign_wall),
        "frac",
        n,
    );
    m.set("report.us", report / campaigns, "us", n);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_exactly_the_catalogue() {
        let mut m = Metrics::default();
        m.set("b", 2.5, "ms", 10);
        m.set("a", 1.0, "s", 3);
        m.set("extra", 9.0, "count", 1);
        let line = result_line(true, 12, 0, &m, &[("a", "s"), ("b", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn set_replaces_and_lines_carry_sample_counts() {
        let mut m = Metrics::default();
        m.set("x", 1.0, "us", 1);
        m.set("x", 2.0, "us", 7);
        assert_eq!(m.0.len(), 1);
        assert_eq!(m.lines("layer"), "layer x 2 us n=7\n");
    }

    #[test]
    fn shares_of_a_cold_campaign_sum_to_one() {
        let obs = CampaignObs::from_json(
            r#"{"counters":{"campaign_wall_micros":900,"steps_executed":10,
                "worker_busy_micros":800},"gauges":{},
                "phases":{"codegen":{"micros":100,"calls":1},
                "plan":{"micros":200,"calls":4},"execute":{"micros":800,"calls":10}},
                "histograms":{}}"#,
        )
        .unwrap();
        let trace = CampaignTrace {
            wall_us: 1000.0,
            obs,
            seams: SeamTotals {
                parse_us: 50.0,
                report_us: 50.0,
                build_us: vec![25.0; 4],
                ..SeamTotals::default()
            },
            server_us: 0.0,
        };
        let ctx = LayerContext {
            workers: 2.0,
            entries: 1,
            test_jobs: 4,
            distinct_ratio: 0.5,
        };
        let m = attribute(&[trace], &ctx);
        let share = |name: &str| m.get(name).unwrap().value;
        assert_eq!(share("share.plan"), 0.1); // 200 µs over 2 workers
        assert_eq!(share("share.exec"), 0.4);
        assert_eq!(share("share.dut"), 0.1);
        let total: f64 = PER_LAYER
            .iter()
            .filter(|(name, _)| name.starts_with("share."))
            .map(|(name, _)| share(name))
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert_eq!(m.get("plan.us_per_test").unwrap().value, 50.0);
        assert_eq!(m.get("dut.builds_skipped_ratio").unwrap().value, 0.0);
        // Engine residual: 900 - (100 + 100 builds + (800 + 200) / 2) = 200.
        assert_eq!(m.get("executor.unattributed_us").unwrap().value, 200.0);
    }
}
