//! Scoreboard round-trip: run scenarios → emit → validate → parse →
//! self-diff clean, and counters deterministic across runs.

use condep_bench::scenario::{by_name, run_scenario, DataShape};
use condep_bench::scoreboard::{diff, emit, validate, Thresholds};
use condep_telemetry::json;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn emit_validate_parse_self_diff_round_trip() {
    let scenarios = [
        by_name("singleton_churn").expect("in matrix"),
        by_name("adversarial_dirt").expect("in matrix"),
    ];
    let results: Vec<_> = scenarios.iter().map(run_scenario).collect();
    let doc = emit(&results);

    assert!(json::is_valid(&doc), "emitted scoreboard is well-formed");
    let tree = validate(&doc).expect("emitted scoreboard satisfies its schema");

    // Self-diff: zero regressions by construction.
    let report = diff(&tree, &tree, &Thresholds::default());
    assert!(report.ok(), "self-diff found: {report:?}");
    assert_eq!(report.regressions.len(), 0);
    assert_eq!(report.incomparable.len(), 0);
    assert!(report.compared > 0, "gated paths were actually compared");
    assert_eq!(report.improvements, 0, "identical documents cannot improve");
}

#[test]
fn scenario_counters_are_deterministic_across_runs() {
    let s = by_name("singleton_churn").expect("in matrix");
    let a = run_scenario(&s);
    let b = run_scenario(&s);
    // Everything but wall time must replay byte-identically.
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.churn_ops, b.churn_ops);
    assert_eq!(a.violations.initial, b.violations.initial);
    assert_eq!(a.violations.after_churn, b.violations.after_churn);
    assert_eq!(a.stream.inserts, b.stream.inserts);
    assert_eq!(a.stream.deletes, b.stream.deletes);
    assert_eq!(a.stream.noops, b.stream.noops);
    assert_eq!(a.stream.journal_total, b.stream.journal_total);
    assert_eq!(a.latency.count, b.latency.count);
    // The diff gate agrees: exact counters, loose timing.
    let base = validate(&emit(&[a])).unwrap();
    let new = validate(&emit(&[b])).unwrap();
    let report = diff(
        &base,
        &new,
        &Thresholds {
            latency_frac: 100.0,
            latency_floor_us: 1e9,
            throughput_frac: 0.999,
            counter_frac: 0.0,
        },
    );
    assert!(report.ok(), "counter drift across reruns: {report:?}");
}

#[test]
fn adversarial_scenario_reports_its_majority_flips() {
    let s = by_name("adversarial_dirt").expect("in matrix");
    let r = run_scenario(&s);
    let rep = r.repair.expect("repair pass runs");
    assert_eq!(rep.poisoned_classes, 4);
    assert!(
        rep.majority_flips > 0,
        "coordinated poison outvotes the clean rows, fooling the majority heuristic"
    );
    assert!(r.violations.residual < r.violations.initial);
    assert!(rep.accepted > 0);
    assert!(rep.rejected > 0, "verification rolled back candidate fixes");
}

#[test]
fn wide_sigma_scenario_repairs_its_dirt_then_churns() {
    let s = by_name("wide_sigma").expect("in matrix");
    // The shape: 200 CFDs in 10 `(fact, {k_p})` key groups of 20, plus
    // 2 CINDs.
    let DataShape::Planted(cfg) = &s.data else {
        panic!("wide_sigma runs on the planted shape");
    };
    let planted =
        condep_gen::clean_database_with_hidden_sigma(cfg, &mut StdRng::seed_from_u64(s.seed));
    let compiled = condep_validate::Validator::new(planted.cfds.clone(), planted.cinds.clone())
        .compile_stats();
    assert_eq!((compiled.cfd_groups, compiled.cfd_members), (10, 200));
    assert_eq!(planted.cinds.len(), 2);

    let r = run_scenario(&s);
    let rep = r.repair.expect("repair pass runs");
    assert!(r.violations.initial > 0, "1% dirt violates the planted Σ");
    assert_eq!(
        r.violations.residual, 0,
        "repair clears the CFD and the CIND violations"
    );
    assert!(rep.tuples_inserted > 0, "CIND orphans repair by insertion");
    assert!(rep.accepted > 0);
    assert_eq!(r.churn_ops, 2_048);
}
