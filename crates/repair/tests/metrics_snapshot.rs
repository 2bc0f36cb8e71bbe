//! `RepairReport::metrics` exports as valid JSON and carries the
//! round, plan, fix and violation summary, each figure equal to the
//! report it summarizes, under names the telemetry README's naming
//! table documents.

use condep_gen::{clean_database_with_hidden_sigma, dirtied_database, PlantedSigmaConfig};
use condep_repair::{repair, RepairBudget, RepairCost, RepairReport};
use condep_telemetry::{json, misnamed_keys, MetricValue, MetricsSnapshot};
use condep_validate::Validator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn counter(m: &MetricsSnapshot, key: &str) -> usize {
    match m.get(key) {
        Some(MetricValue::Counter(v)) => *v as usize,
        other => panic!("{key}: expected a counter, got {other:?}"),
    }
}

/// Repairs a 600-row planted instance dirtied at `dirt_rate`.
fn repaired(dirt_rate: f64) -> RepairReport {
    let planted = clean_database_with_hidden_sigma(
        &PlantedSigmaConfig {
            fd_pairs: 2,
            pair_cardinality: 8,
            constant_rows_per_pair: 2,
            cind_count: 1,
            tuples: 600,
            ..PlantedSigmaConfig::default()
        },
        &mut StdRng::seed_from_u64(7),
    );
    let dirty = dirtied_database(
        &planted.db,
        &planted.cfds,
        &planted.cinds,
        dirt_rate,
        &mut StdRng::seed_from_u64(8),
    );
    let validator = Validator::new(planted.cfds.clone(), planted.cinds.clone());
    let (_, report) = repair(
        validator,
        dirty.db,
        &RepairCost::uniform(),
        &RepairBudget::default(),
    )
    .expect("planted Σ is satisfiable");
    report
}

#[test]
fn repair_metrics_export_as_valid_json() {
    let report = repaired(0.05);
    let m = &report.metrics;
    let doc = m.to_json();
    assert!(json::is_valid(&doc), "not valid JSON:\n{doc}");
    assert_eq!(misnamed_keys(m), Vec::<&str>::new());
    assert!(
        report.initial_violations > 0,
        "5% dirt violates the planted Σ"
    );
    assert_eq!(counter(m, "repair.rounds"), report.log.rounds);
    // One plan per round, and at least one class read to plan it.
    match m.get("repair.plan_us") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count as usize, report.log.rounds),
        other => panic!("repair.plan_us: expected a histogram, got {other:?}"),
    }
    // Every round records its wall time once, whichever way it ends.
    match m.get("repair.round_us") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count as usize, report.log.rounds),
        other => panic!("repair.round_us: expected a histogram, got {other:?}"),
    }
    assert!(counter(m, "repair.plan.class_reads") > 0);
    assert_eq!(counter(m, "repair.fixes.accepted"), report.fixes_applied());
    assert_eq!(counter(m, "repair.fixes.rejected"), report.log.rejected);
    assert_eq!(counter(m, "repair.fixes.stale"), report.log.stale);
    assert_eq!(
        counter(m, "repair.violations.initial"),
        report.initial_violations
    );
    assert_eq!(
        counter(m, "repair.violations.residual"),
        report.residual.len()
    );
    assert_eq!(
        m.get("repair.total_cost"),
        Some(&MetricValue::Float(report.total_cost))
    );
}

/// A stale candidate, whose target an earlier fix already removed or
/// rewrote, is the fix loop's only mutation that changes nothing: the
/// stream's no-op counter, merged into the report, must equal it.
#[test]
fn stale_fixes_are_the_streams_noops() {
    let report = repaired(0.2);
    let m = &report.metrics;
    assert!(report.log.stale > 0, "20% dirt leaves some fixes stale");
    assert_eq!(
        counter(m, "stream.mutations.noops"),
        counter(m, "repair.fixes.stale")
    );
}
