//! Scoreboard round-trip: run scenarios → emit → validate → parse →
//! self-diff clean, and counters deterministic across runs.

use condep_bench::scenario::{by_name, matrix, run_scenario, ChurnSpec, DataShape, ScenarioResult};
use condep_bench::scoreboard::{diff, emit, validate, Thresholds};
use condep_telemetry::json::{self, JsonValue};
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
    // Everything but wall time must replay byte-identically: the
    // workload's identity and every metrics leaf that is not a `_us`
    // timing.
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.churn_ops, b.churn_ops);
    let untimed = |r: &ScenarioResult| -> Vec<(String, f64)> {
        let tree = json::parse(&r.metrics.to_json()).expect("metrics render as JSON");
        let mut leaves = Vec::new();
        numeric_leaves("", &tree, &mut leaves);
        leaves.retain(|(path, _)| !path.ends_with("_us"));
        leaves
    };
    let (leaves_a, leaves_b) = (untimed(&a), untimed(&b));
    assert!(
        leaves_a.len() > 20,
        "the stream and monitor counters are all there: {leaves_a:?}"
    );
    assert_eq!(leaves_a, leaves_b);
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

/// Every numeric leaf of a JSON tree as `(dotted path, value)`.
fn numeric_leaves(prefix: &str, v: &JsonValue, out: &mut Vec<(String, f64)>) {
    if let Some(fields) = v.as_object() {
        for (k, child) in fields {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            numeric_leaves(&path, child, out);
        }
    } else if let Some(x) = v.as_f64() {
        out.push((prefix.to_string(), x));
    }
}

/// Every metric a matrix scenario exports follows the naming rule: a
/// dotted lowercase key under a prefix the telemetry README documents.
#[test]
fn every_matrix_metric_is_documented() {
    for mut s in matrix() {
        // Which keys a scenario exports depends on the passes it runs,
        // not on how long it churns: capping `long_churn`'s 2^18 and
        // `fresh_key_churn`'s 2^16 operations keeps the unoptimized
        // test build to seconds.
        match &mut s.churn {
            ChurnSpec::Plan(plan) => plan.ops = plan.ops.min(4_096),
            ChurnSpec::FreshIds { ops, .. } => *ops = (*ops).min(4_096),
            _ => {}
        }
        let r = run_scenario(&s);
        assert!(!r.metrics.is_empty(), "{}: no metrics", s.name);
        assert_eq!(
            condep_telemetry::misnamed_keys(&r.metrics),
            Vec::<&str>::new(),
            "{}",
            s.name
        );
    }
}

#[test]
fn adversarial_scenario_reports_its_majority_flips() {
    let s = by_name("adversarial_dirt").expect("in matrix");
    let r = run_scenario(&s);
    let count = |name: &str| r.count(name).unwrap_or_else(|| panic!("{name} missing"));
    let classes = count("scenario.poisoned.classes");
    assert_eq!(classes, 4);
    assert_eq!(
        count("scenario.poisoned.restored")
            + count("scenario.poisoned.flipped")
            + count("scenario.poisoned.untouched"),
        classes,
        "every poisoned class gets exactly one score"
    );
    assert!(
        count("scenario.poisoned.restored") < classes,
        "coordinated poison fools the majority heuristic somewhere"
    );
    assert!(count("repair.violations.residual") < count("scenario.violations.initial"));
    assert!(count("repair.fixes.accepted") > 0);
    assert!(
        count("repair.fixes.rejected") > 0,
        "verification rolled back candidate fixes"
    );
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
    let count = |name: &str| r.count(name).unwrap_or_else(|| panic!("{name} missing"));
    assert!(
        count("scenario.violations.initial") > 0,
        "1% dirt violates the planted Σ"
    );
    assert_eq!(
        count("repair.violations.residual"),
        0,
        "repair clears the CFD and the CIND violations"
    );
    assert!(
        count("repair.tuples_inserted") > 0,
        "CIND orphans repair by insertion"
    );
    assert!(count("repair.fixes.accepted") > 0);
    assert_eq!(r.churn_ops, 2_048);
}
