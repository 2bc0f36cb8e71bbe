//! `RepairReport::metrics` exports as valid JSON and carries the
//! round, fix and violation summary, each figure equal to the report
//! it summarizes.

use condep_gen::{clean_database_with_hidden_sigma, dirtied_database, PlantedSigmaConfig};
use condep_repair::{repair, RepairBudget, RepairCost};
use condep_telemetry::{json, MetricValue, MetricsSnapshot};
use condep_validate::Validator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn counter(m: &MetricsSnapshot, key: &str) -> usize {
    match m.get(key) {
        Some(MetricValue::Counter(v)) => *v as usize,
        other => panic!("{key}: expected a counter, got {other:?}"),
    }
}

#[test]
fn repair_metrics_export_as_valid_json() {
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
        0.05,
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

    let m = &report.metrics;
    let doc = m.to_json();
    assert!(json::is_valid(&doc), "not valid JSON:\n{doc}");
    assert!(
        report.initial_violations > 0,
        "5% dirt violates the planted Σ"
    );
    assert_eq!(counter(m, "repair.rounds"), report.log.rounds);
    assert_eq!(counter(m, "repair.fixes.accepted"), report.fixes_applied());
    assert_eq!(counter(m, "repair.fixes.rejected"), report.log.rejected);
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
