//! An unsatisfiable Σ through every public entry point. The paper's
//! Example 3.2 cycle (no nonempty instance exists) must never make the
//! stack panic, loop, or — worst of all — report a database "clean":
//!
//! * `Validator::new` stays permissive (it validates; any nonempty db
//!   shows violations) while surfacing the cheap lint tier;
//! * `Validator::strict` refuses the Σ up front with a minimal core;
//! * `QualitySuite` exposes the Unsat verdict and refuses `repair`;
//! * the `repair()` engine pre-flights the same gate, so it can never
//!   chase an unreachable fixpoint.

use condep::cfd::fixtures::example_3_2;
use condep::prelude::*;
use condep::repair::repair;
use condep::report::QualitySuite;
use condep::validate::SigmaVerdict;

/// One nonempty instance over Example 3.2's schema: r(a=true, b="b2").
fn nonempty_db(schema: &std::sync::Arc<Schema>) -> Database {
    let mut db = Database::empty(schema.clone());
    let rel = schema.rel_id("r").expect("fixture relation");
    db.insert(rel, Tuple::new([Value::bool(true), Value::from("b2")]))
        .expect("arity matches");
    db
}

#[test]
fn plain_validator_accepts_unsat_sigma_but_never_reports_clean() {
    let (schema, cfds) = example_3_2();
    // Permissive construction must not panic or loop…
    let validator = Validator::new(cfds, Vec::new());
    // …and because Σ is unsatisfiable, EVERY nonempty database has at
    // least one violation. "Clean" here would be a soundness bug.
    let violations = validator.validate(&nonempty_db(&schema));
    assert!(
        !violations.is_empty(),
        "an unsatisfiable sigma reported a nonempty database clean"
    );
}

#[test]
fn strict_validator_refuses_with_a_minimal_core() {
    let (schema, cfds) = example_3_2();
    let err = Validator::strict(&schema, cfds, Vec::new())
        .expect_err("Example 3.2 is provably unsatisfiable");
    // All four CFDs participate: dropping any one breaks the cycle.
    assert_eq!(err.core, vec![0, 1, 2, 3]);
    let msg = err.to_string();
    assert!(msg.contains("unsatisfiable"), "unhelpful error: {msg}");
}

#[test]
fn validator_analysis_reports_unsat_with_the_exact_core() {
    let (schema, cfds) = example_3_2();
    let validator = Validator::new(cfds, Vec::new());
    let analysis = validator.analysis(&schema);
    match analysis.verdict {
        SigmaVerdict::Unsat(core) => assert_eq!(core.cfds, vec![0, 1, 2, 3]),
        other => panic!("expected Unsat, got {other:?}"),
    }
}

#[test]
fn quality_suite_surfaces_the_verdict_and_refuses_repair() {
    let (schema, cfds) = example_3_2();
    let suite = QualitySuite::from_normal(schema.clone(), cfds, Vec::new());
    assert!(suite.analysis().verdict.is_unsat());

    // The report side still works (and is not clean)…
    let report = suite.check(&nonempty_db(&schema));
    assert!(!report.summary.is_clean());

    // …but repair refuses up front instead of hunting a fixpoint that
    // cannot exist.
    let err = suite
        .repair(
            nonempty_db(&schema),
            &RepairCost::uniform(),
            &RepairBudget::default(),
        )
        .expect_err("repairing toward an unsatisfiable sigma must fail");
    assert_eq!(err.core, vec![0, 1, 2, 3]);
}

#[test]
fn repair_engine_preflights_the_unsat_gate() {
    let (schema, cfds) = example_3_2();
    let db = nonempty_db(&schema);
    let validator = Validator::new(cfds, Vec::new());
    assert!(!validator.validate(&db).is_empty());
    let err = repair(
        validator,
        db,
        &RepairCost::uniform(),
        &RepairBudget::default(),
    )
    .expect_err("the engine must refuse an unsatisfiable sigma");
    assert_eq!(err.core, vec![0, 1, 2, 3]);
}
