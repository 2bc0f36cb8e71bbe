//! Seeded end-to-end and per-layer benchmark of the condep engine.
//!
//! Four workloads, each driven by one single-threaded closed-loop client
//! (it issues the next call only after the previous one returned):
//!
//! * `monitor_churn` — a `QualityMonitor` over 100K tuples / 200 CFDs /
//!   2 CINDs ingesting windows of 128 deletes+inserts, with dashboard
//!   reads beside the writes;
//! * `repair_coordinated` — `QualitySuite::repair` of a planted instance
//!   carrying majority-flipping and uniform dirt;
//! * `drift_online` — a monitor with online discovery on, streaming a
//!   drifting suffix in windows of 16 inserts;
//! * `discover_1m` — sampled `discover` over a 1M-row planted instance.
//!
//! An untraced run reports the [`END_TO_END`] metrics (plus the
//! workload-specific [`DETAIL`] figures). A traced run reports the
//! [`PER_LAYER`] metrics, measured from outside the engine: it times
//! calls into each layer's public entry point, replays the same inputs
//! through an inner layer alone where one layer calls another, and takes
//! the difference as the outer layer's self time. A layer a workload
//! never calls reports 0 there.

pub mod data;
pub mod stats;

mod churn;
mod discover;
mod drift;
mod repair;

use condep::report::{QualityMonitor, Violation};
use condep_telemetry::{MetricValue, MetricsSnapshot};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "monitor_churn",
    "repair_coordinated",
    "drift_online",
    "discover_1m",
];

/// End-to-end metrics `(name, unit)`, reported by every workload.
///
/// * `setup_s` — generated rows and Σ to the engine ready for the first
///   operation (median of several set-ups);
/// * `op_mean_ms` — the mean of the client's operation: one monitor
///   window (ingest plus the dashboard reads), one `repair`, one
///   `discover`;
/// * `peak_rss_mb` — the process's peak resident set from the last
///   set-up through the minimum operations every run makes.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Workload-specific end-to-end figures, printed before the result line
/// of an untraced run for the workloads they apply to.
///
/// `validate_s` (one full `QualitySuite::check` of the workload's
/// instance under its Σ) and `op_p50_ms` (the median operation) are
/// printed for every workload but carry no regression bound: on a
/// shared two-core host their run-to-run spread reaches the largest
/// bound allowed.
pub const DETAIL: &[(&str, &str)] = &[
    ("validate_s", "s"),
    ("op_p50_ms", "ms"),
    ("ingest_us_per_mut", "us"),
    ("window_p50_us", "us"),
    ("window_p99_us", "us"),
    ("windows", "count"),
    ("report_read_us", "us"),
    ("report_reads", "count"),
    ("repair_s", "s"),
    ("repairs", "count"),
    ("repair_residual", "count"),
    ("repair_majority_flips", "count"),
    ("discover_s", "s"),
    ("discovers", "count"),
    ("discover_planted_implied", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.load_s", "s"),
    ("validator.compile_s", "s"),
    ("validator.sweep_s", "s"),
    ("validator.groups", "count"),
    ("validator.members", "count"),
    ("stream.materialize_s", "s"),
    ("stream.apply_us_per_mut", "us"),
    ("stream.probes.hash", "count"),
    ("stream.probes.slot", "count"),
    ("stream.pairs.fast_path", "count"),
    ("stream.pairs.recompute", "count"),
    ("stream.pairs.recompute_ratio", "ratio"),
    ("stream.violations.introduced", "count"),
    ("stream.violations.resolved", "count"),
    ("stream.mutations.inserts", "count"),
    ("stream.mutations.deletes", "count"),
    ("stream.mutations.noops", "count"),
    ("monitor.self_us_per_mut", "us"),
    ("monitor.report_us", "us"),
    ("monitor.poll_residual_us", "us"),
    ("online.seed_s", "s"),
    ("online.polls", "count"),
    ("online.proposed", "count"),
    ("online.promoted", "count"),
    ("online.retired", "count"),
    ("online.promote_ratio", "ratio"),
    ("online.poll_window_us", "us"),
    ("online.quiet_window_us", "us"),
    ("online.proposals_us", "us"),
    ("cover.dedup_us", "us"),
    ("analyze.preflight_s", "s"),
    ("repair.fixloop_s", "s"),
    ("repair.us_per_accepted_fix", "us"),
    ("repair.fixes.accepted", "count"),
    ("repair.fixes.rejected", "count"),
    ("repair.fixes.stale", "count"),
    ("repair.rounds", "count"),
    ("repair.accept_ratio", "ratio"),
    ("discover.sample_s", "s"),
    ("discover.mine_s", "s"),
    ("discover.confirm_s", "s"),
    ("discover.confirm_us_per_row", "us"),
    ("discover.kept.cfds", "count"),
    ("discover.kept.cinds", "count"),
    ("discover.sampled_rows", "count"),
    ("discover.confirm_dropped", "count"),
    ("unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Timed repetitions of each replayed layer call; their median is
/// reported.
pub(crate) const REPS: usize = 3;

/// Timed repetitions of the full check behind `validate_s`.
pub(crate) const CHECKS: usize = 5;

/// How one run is driven.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// How long the measured loop runs (it also runs a workload-specific
    /// minimum number of operations).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced instance sizes, for the self-test.
    pub small: bool,
}

/// A metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations and correctness gates attempted.
    pub attempted: u64,
    /// Operations that returned an error, plus gates that failed.
    pub failed: u64,
    /// The result metrics ([`END_TO_END`] or [`PER_LAYER`]).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures ([`DETAIL`]).
    pub detail: Vec<Metric>,
}

fn unit_of(
    spec: &[(&'static str, &'static str)],
    name: &str,
) -> Option<(&'static str, &'static str)> {
    spec.iter().copied().find(|(n, _)| *n == name)
}

impl Report {
    /// Records a result metric; `name` must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, unit) = unit_of(END_TO_END, name)
            .or_else(|| unit_of(PER_LAYER, name))
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a workload-specific figure; `name` must be in [`DETAIL`].
    pub fn detail(&mut self, name: &str, value: f64) {
        let (name, unit) = unit_of(DETAIL, name).unwrap_or_else(|| panic!("unknown detail {name}"));
        self.detail.push(Metric { name, value, unit });
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one correctness gate; a failed gate is a failed operation.
    pub fn gate(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("correctness gate failed: {what}");
        }
        self.op(ok);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config) -> Option<Report> {
    let mut report = Report::default();
    match workload {
        "monitor_churn" => churn::run(cfg, &mut report),
        "repair_coordinated" => repair::run(cfg, &mut report),
        "drift_online" => drift::run(cfg, &mut report),
        "discover_1m" => discover::run(cfg, &mut report),
        _ => return None,
    }
    if cfg.trace {
        // Layers this workload never calls read 0.
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == *name) {
                report.metrics.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
        }
    }
    Some(report)
}

/// Whether a monitor's live report equals a fresh sweep of its database
/// under its live Σ.
pub(crate) fn monitor_matches_sweep(monitor: &QualityMonitor) -> bool {
    let fresh = monitor.validator().validate_sorted(monitor.db());
    let live = monitor.report();
    let live_cfd = live.violations.iter().filter_map(|v| match v {
        Violation::Cfd {
            constraint,
            violation,
            ..
        } => Some((*constraint, violation)),
        Violation::Cind { .. } => None,
    });
    let live_cind = live.violations.iter().filter_map(|v| match v {
        Violation::Cind {
            constraint,
            violation,
            ..
        } => Some((*constraint, violation)),
        Violation::Cfd { .. } => None,
    });
    live_cfd.eq(fresh.cfd.iter().map(|(i, v)| (*i, v)))
        && live_cind.eq(fresh.cind.iter().map(|(i, v)| (*i, v)))
}

/// The counter `key` of an exported snapshot. A missing key fails a
/// gate, so a renamed counter cannot pass for a layer the workload never
/// calls.
pub(crate) fn counter(report: &mut Report, snapshot: &MetricsSnapshot, key: &str) -> f64 {
    match snapshot.get(key) {
        Some(MetricValue::Counter(v)) => *v as f64,
        _ => {
            report.gate(false, &format!("the engine exports the counter {key}"));
            0.0
        }
    }
}

/// Copies a stream's exported work counters into `report`.
pub(crate) fn stream_counters(report: &mut Report, snapshot: &MetricsSnapshot) {
    for key in [
        "stream.probes.hash",
        "stream.probes.slot",
        "stream.pairs.fast_path",
        "stream.pairs.recompute",
        "stream.violations.introduced",
        "stream.violations.resolved",
        "stream.mutations.inserts",
        "stream.mutations.deletes",
        "stream.mutations.noops",
    ] {
        let value = counter(report, snapshot, key);
        report.metric(key, value);
    }
    let read = |key: &str| {
        let m = report.metrics.iter().find(|m| m.name == key);
        m.map_or(0.0, |m| m.value)
    };
    let (fast, recompute) = (
        read("stream.pairs.fast_path"),
        read("stream.pairs.recompute"),
    );
    report.metric(
        "stream.pairs.recompute_ratio",
        ratio(recompute, fast + recompute),
    );
}

/// `num / den`, 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The share of `wall` (seconds) not covered by `attributed` seconds of
/// timed layer calls, in percent.
pub(crate) fn unattributed_pct(wall: f64, attributed: f64) -> f64 {
    100.0 * ratio(wall - attributed, wall)
}

/// How much longer the traced pass took than the untraced one, in
/// percent.
pub(crate) fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * ratio(traced - untraced, untraced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_counter_fails_a_gate() {
        let mut snapshot = MetricsSnapshot::new();
        snapshot.counter("stream.probes.hash", 3);
        let mut report = Report::default();
        assert_eq!(counter(&mut report, &snapshot, "stream.probes.hash"), 3.0);
        assert!(report.correct());
        assert_eq!(counter(&mut report, &snapshot, "stream.probes.slot"), 0.0);
        assert_eq!((report.attempted, report.failed), (1, 1));
    }
}
