//! Property-based tests (proptest) on the core data structures and
//! invariants.

use condep::cind::normalize::normalize;
use condep::cind::satisfy;
use condep::model::{Database, Domain, PValue, PatternRow, Relation, Schema, Tuple, Value};
use condep::sat::{Cnf, SolveResult, Solver, Var};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------- values

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::bool),
        (-20i64..20).prop_map(Value::int),
        "[a-e]{1,3}".prop_map(Value::str),
    ]
}

fn arb_pvalue() -> impl Strategy<Value = PValue> {
    prop_oneof![Just(PValue::Any), arb_value().prop_map(PValue::Const),]
}

proptest! {
    /// The match order ≍: wildcards match everything; constants match
    /// exactly themselves.
    #[test]
    fn pvalue_match_order(v in arb_value(), p in arb_pvalue()) {
        match &p {
            PValue::Any => prop_assert!(p.matches(&v)),
            PValue::Const(c) => prop_assert_eq!(p.matches(&v), *c == v),
        }
    }

    /// Subsumption is reflexive and transitive through `Any`.
    #[test]
    fn pvalue_subsumption(p in arb_pvalue()) {
        prop_assert!(p.subsumed_by(&p));
        prop_assert!(p.subsumed_by(&PValue::Any));
        if p.is_const() {
            prop_assert!(!PValue::Any.subsumed_by(&p));
        }
    }

    /// Value ordering is a strict total order consistent with equality.
    #[test]
    fn value_total_order(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }
}

// ------------------------------------------------------------- relations

proptest! {
    /// Relations implement set semantics: insertion order preserved,
    /// duplicates dropped, equality order-insensitive.
    #[test]
    fn relation_set_semantics(rows in proptest::collection::vec(
        proptest::collection::vec(arb_value(), 2..=2), 0..12)
    ) {
        let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple::new(r.clone())).collect();
        let rel: Relation = tuples.iter().cloned().collect();
        // Every inserted tuple is present.
        for t in &tuples {
            prop_assert!(rel.contains(t));
        }
        // No duplicates survive.
        let mut seen = std::collections::HashSet::new();
        for t in rel.iter() {
            prop_assert!(seen.insert(t.clone()));
        }
        // Reversed insertion yields an equal relation.
        let rev: Relation = tuples.into_iter().rev().collect();
        prop_assert_eq!(rel, rev);
    }

    /// Pattern rows match a tuple iff every constant cell agrees.
    #[test]
    fn pattern_row_matching(
        cells in proptest::collection::vec((arb_value(), any::<bool>()), 1..5)
    ) {
        let tuple = Tuple::new(cells.iter().map(|(v, _)| v.clone()));
        let attrs: Vec<condep::model::AttrId> =
            (0..cells.len() as u32).map(condep::model::AttrId).collect();
        // A row that copies the tuple where const, wildcards elsewhere,
        // always matches.
        let row = PatternRow::new(cells.iter().map(|(v, wild)| {
            if *wild { PValue::Any } else { PValue::Const(v.clone()) }
        }));
        prop_assert!(row.matches_tuple(&tuple, &attrs));
    }
}

// ------------------------------------------------------------------- SAT

fn arb_cnf() -> impl Strategy<Value = (u32, Vec<Vec<(u32, bool)>>)> {
    (2u32..7).prop_flat_map(|nvars| {
        let clause = proptest::collection::vec((0..nvars, any::<bool>()), 1..4);
        (Just(nvars), proptest::collection::vec(clause, 0..14))
    })
}

proptest! {
    /// The DPLL solver agrees with brute force on small formulas, and
    /// returned models really satisfy.
    #[test]
    fn sat_solver_correct((nvars, clauses) in arb_cnf()) {
        let mut cnf = Cnf::new();
        let vars = cnf.fresh_vars(nvars as usize);
        for clause in &clauses {
            cnf.add_clause(clause.iter().map(|(v, pos)| {
                if *pos { vars[*v as usize].pos() } else { vars[*v as usize].neg() }
            }));
        }
        let brute = (0u64..(1 << nvars)).any(|bits| {
            let assignment: Vec<bool> =
                (0..nvars as usize).map(|i| bits >> i & 1 == 1).collect();
            cnf.eval(&assignment)
        });
        match Solver::new(&cnf).solve() {
            SolveResult::Sat(model) => {
                prop_assert!(brute, "solver SAT but brute force UNSAT");
                prop_assert!(cnf.eval(&model), "model does not satisfy");
            }
            SolveResult::Unsat => prop_assert!(!brute, "solver UNSAT but brute force SAT"),
            SolveResult::Unknown => prop_assert!(false, "no budget configured"),
        }
    }

    /// Exactly-one encodings admit exactly the one-hot models.
    #[test]
    fn exactly_one_models(n in 1usize..6) {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = cnf.fresh_vars(n);
        let lits: Vec<_> = vars.iter().map(|v| v.pos()).collect();
        cnf.add_exactly_one(&lits);
        for bits in 0u64..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let ones = assignment.iter().filter(|b| **b).count();
            prop_assert_eq!(cnf.eval(&assignment), ones == 1);
        }
    }
}

// ---------------------------------------------- CIND semantics invariants

/// A tiny two-relation schema for semantic properties.
fn two_rel_schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation(
                "src",
                &[
                    ("a", Domain::string()),
                    ("b", Domain::finite_strs(&["p", "q"])),
                ],
            )
            .relation(
                "dst",
                &[
                    ("c", Domain::string()),
                    ("d", Domain::finite_strs(&["p", "q"])),
                ],
            )
            .finish(),
    )
}

fn arb_small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::str("v0")),
        Just(Value::str("v1")),
        Just(Value::str("v2")),
    ]
}

fn arb_fin() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::str("p")), Just(Value::str("q"))]
}

fn arb_db() -> impl Strategy<Value = Database> {
    let src_rows = proptest::collection::vec((arb_small_value(), arb_fin()), 0..6);
    let dst_rows = proptest::collection::vec((arb_small_value(), arb_fin()), 0..6);
    (src_rows, dst_rows).prop_map(|(srcs, dsts)| {
        let schema = two_rel_schema();
        let mut db = Database::empty(schema.clone());
        let src = schema.rel_id("src").unwrap();
        let dst = schema.rel_id("dst").unwrap();
        for (a, b) in srcs {
            db.insert(src, Tuple::new([a, b])).unwrap();
        }
        for (c, d) in dsts {
            db.insert(dst, Tuple::new([c, d])).unwrap();
        }
        db
    })
}

fn arb_cind() -> impl Strategy<Value = condep::cind::Cind> {
    // Tableau rows over X=[a→c], Xp=[b], Yp=[d]: cells (x, xp ‖ y, yp)
    // with tp[X] = tp[Y] enforced by construction.
    let cell_x = prop_oneof![
        Just(None),
        Just(Some(Value::str("v0"))),
        Just(Some(Value::str("v1"))),
    ];
    let cell_f = prop_oneof![
        Just(None),
        Just(Some(Value::str("p"))),
        Just(Some(Value::str("q"))),
    ];
    proptest::collection::vec((cell_x, cell_f.clone(), cell_f), 1..4).prop_map(|rows| {
        let schema = two_rel_schema();
        let tableau = rows
            .into_iter()
            .map(|(x, xp, yp)| {
                let to_cell = |v: Option<Value>| match v {
                    None => PValue::Any,
                    Some(v) => PValue::Const(v),
                };
                PatternRow::new(vec![
                    to_cell(x.clone()),
                    to_cell(xp),
                    to_cell(x),
                    to_cell(yp),
                ])
            })
            .collect();
        condep::cind::Cind::parse(
            &schema,
            "src",
            &["a"],
            &["b"],
            "dst",
            &["c"],
            &["d"],
            tableau,
        )
        .unwrap()
    })
}

proptest! {
    /// Proposition 3.1: the normalized set is equivalent to the original
    /// CIND on arbitrary databases.
    #[test]
    fn normalization_preserves_satisfaction(db in arb_db(), cind in arb_cind()) {
        let direct = satisfy::satisfies_general_direct(&db, &cind);
        let via_normal = normalize(&cind)
            .iter()
            .all(|n| satisfy::satisfies_normal(&db, n));
        prop_assert_eq!(direct, via_normal);
    }

    /// The indexed checker agrees with the naive semantics.
    #[test]
    fn indexed_checker_agrees_with_oracle(db in arb_db(), cind in arb_cind()) {
        prop_assert_eq!(
            satisfy::satisfies(&db, &cind),
            satisfy::satisfies_general_direct(&db, &cind)
        );
    }

    /// Violations are exactly the triggered-but-unmatched tuples: the
    /// database satisfies a normal CIND iff no violations are reported.
    #[test]
    fn violations_iff_not_satisfied(db in arb_db(), cind in arb_cind()) {
        for n in normalize(&cind) {
            let violations = condep::cind::find_violations(&db, &n);
            prop_assert_eq!(
                violations.is_empty(),
                satisfy::satisfies_normal(&db, &n)
            );
        }
    }

    /// Monotonicity: adding tuples to the *target* relation never breaks
    /// a satisfied CIND.
    #[test]
    fn target_growth_is_monotone(
        db in arb_db(),
        cind in arb_cind(),
        extra_c in arb_small_value(),
        extra_d in arb_fin(),
    ) {
        let normal = normalize(&cind);
        let satisfied_before: Vec<bool> = normal
            .iter()
            .map(|n| satisfy::satisfies_normal(&db, n))
            .collect();
        let mut bigger = db.clone();
        let dst = bigger.schema().rel_id("dst").unwrap();
        bigger.insert(dst, Tuple::new([extra_c, extra_d])).unwrap();
        for (n, before) in normal.iter().zip(satisfied_before) {
            if before {
                prop_assert!(satisfy::satisfies_normal(&bigger, n));
            }
        }
    }
}

// ----------------------------------------------- CFD semantics invariants

/// A three-column relation for CFD semantic properties.
fn cfd_schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("a", Domain::string()),
                    ("b", Domain::string()),
                    ("c", Domain::string()),
                ],
            )
            .finish(),
    )
}

fn arb_cfd_db() -> impl Strategy<Value = Database> {
    let row = (arb_small_value(), arb_small_value(), arb_small_value());
    proptest::collection::vec(row, 0..8).prop_map(|rows| {
        let mut db = Database::empty(cfd_schema());
        let r = db.schema().rel_id("r").unwrap();
        for (a, b, c) in rows {
            db.insert(r, Tuple::new([a, b, c])).unwrap();
        }
        db
    })
}

/// A random normal CFD over `r`: any subset of the non-RHS columns as
/// LHS (∅ included), each LHS cell a wildcard or a constant, and a
/// wildcard or constant RHS.
fn arb_normal_cfd() -> impl Strategy<Value = condep::cfd::NormalCfd> {
    let cell = || {
        prop_oneof![
            Just(PValue::Any),
            Just(PValue::constant("v0")),
            Just(PValue::constant("v1")),
        ]
    };
    (0usize..3, 0u8..4, cell(), cell(), cell()).prop_map(|(rhs, lhs_mask, p0, p1, rhs_pat)| {
        let names = ["a", "b", "c"];
        let lhs: Vec<&str> = (0..3)
            .filter(|&i| i != rhs)
            .enumerate()
            .filter(|(bit, _)| lhs_mask >> bit & 1 == 1)
            .map(|(_, i)| names[i])
            .collect();
        let row = PatternRow::new([p0, p1].into_iter().take(lhs.len()).collect::<Vec<_>>());
        condep::cfd::NormalCfd::parse(&cfd_schema(), "r", &lhs, row, names[rhs], rhs_pat).unwrap()
    })
}

proptest! {
    /// The CFD twin of `violations_iff_not_satisfied`: the reference
    /// detector finds nothing exactly when the hash-grouped check
    /// passes, and the set-level check is the conjunction of the
    /// per-CFD checks.
    #[test]
    fn cfd_violations_iff_not_satisfied(
        db in arb_cfd_db(),
        set in proptest::collection::vec(arb_normal_cfd(), 1..4),
    ) {
        use condep::cfd::satisfy::{satisfies_all, satisfies_normal};
        for n in &set {
            prop_assert_eq!(
                condep::cfd::find_violations(&db, n).is_empty(),
                satisfies_normal(&db, n)
            );
        }
        prop_assert_eq!(
            satisfies_all(&db, &set),
            set.iter().all(|n| satisfies_normal(&db, n))
        );
    }
}

// ----------------------------------------- batched validator equivalence

/// The per-constraint reference detectors as a sorted report.
fn reference_report(
    v: &condep::validate::Validator,
    db: &Database,
) -> condep::validate::SigmaReport {
    let mut expected = condep::validate::SigmaReport::default();
    for (i, cfd) in v.cfds().iter().enumerate() {
        for viol in condep::cfd::find_violations(db, cfd) {
            expected.cfd.push((i, viol));
        }
    }
    for (i, cind) in v.cinds().iter().enumerate() {
        for viol in condep::cind::find_violations(db, cind) {
            expected.cind.push((i, viol));
        }
    }
    expected.sort();
    expected
}

/// Checks one (schema, Σ, database) case: the batched `Validator` must
/// agree with the per-CFD/per-CIND detectors — as sets of violations,
/// and (after sorting) witness for witness — and a clean report must
/// agree with `satisfies_normal` across the set.
fn assert_validator_matches_reference(
    cfds: &[condep::cfd::NormalCfd],
    cinds: &[condep::cind::NormalCind],
    db: &Database,
    context: &str,
) {
    let v = condep::validate::Validator::new(cfds.to_vec(), cinds.to_vec());
    let batched = v.validate_sorted(db);
    let expected = reference_report(&v, db);
    assert_eq!(batched, expected, "batched ≠ per-constraint on {context}");
    let per_constraint_clean = cfds
        .iter()
        .all(|n| condep::cfd::satisfy::satisfies_normal(db, n))
        && cinds.iter().all(|n| satisfy::satisfies_normal(db, n));
    assert_eq!(batched.is_empty(), per_constraint_clean, "{context}");
}

/// ≥ 100 random (schema, Σ, instance) cases from the Section 6
/// generators: the batched validator is indistinguishable from the
/// per-constraint detectors on every one of them.
#[test]
fn validator_agrees_with_per_constraint_detectors_on_random_workloads() {
    use condep::gen::{
        dirty_database, generate_sigma, random_schema, DirtyDataConfig, SchemaGenConfig,
        SigmaGenConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut cases = 0;
    for seed in 0u64..120 {
        let schema = random_schema(
            &SchemaGenConfig {
                relations: 3,
                attrs_min: 2,
                attrs_max: 5,
                finite_ratio: 0.3,
                finite_dom_min: 2,
                finite_dom_max: 4,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let (cfds, cinds, witness) = generate_sigma(
            &schema,
            &SigmaGenConfig {
                cardinality: 12,
                consistent: true,
                ..SigmaGenConfig::default()
            },
            &mut StdRng::seed_from_u64(seed ^ 0xdead_beef),
        );
        let Some(witness) = witness else { continue };
        // A dirty instance (clean clones of the witness + injected
        // violations) and the tiny witness database itself.
        let dirty = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &DirtyDataConfig {
                tuples_per_relation: 40,
                violations_per_relation: 4,
            },
            &mut StdRng::seed_from_u64(seed.wrapping_mul(31)),
        );
        assert_validator_matches_reference(
            &cfds,
            &cinds,
            &dirty.db,
            &format!("seed {seed} (dirty instance)"),
        );
        assert_validator_matches_reference(
            &cfds,
            &cinds,
            &witness.database(&schema),
            &format!("seed {seed} (witness instance)"),
        );
        cases += 2;
    }
    assert!(
        cases >= 100,
        "only {cases} cases ran — below the 100-case bar"
    );
}

// Focused randomized strategy for the tricky CFD shapes: wildcard-RHS
// pair witnesses and the empty-LHS (global agreement) edge case.
proptest! {
    #[test]
    fn validator_handles_wildcard_rhs_and_empty_lhs(
        rows in proptest::collection::vec((arb_small_value(), arb_fin()), 0..10),
        lhs_wild in any::<bool>(),
    ) {
        use condep::cfd::NormalCfd;
        use condep::model::PValue as P;
        let schema = two_rel_schema();
        let mut db = Database::empty(schema.clone());
        let src = schema.rel_id("src").unwrap();
        for (a, b) in rows {
            db.insert(src, Tuple::new([a, b])).unwrap();
        }
        // Wildcard-RHS FD src: a → b, empty-LHS variants on both
        // columns, and a constant-LHS row — all over the same relation.
        let cfds = vec![
            NormalCfd::parse(&schema, "src", &["a"], PatternRow::all_any(1), "b", P::Any)
                .unwrap(),
            NormalCfd::parse(&schema, "src", &[], PatternRow::all_any(0), "b", P::Any)
                .unwrap(),
            NormalCfd::parse(&schema, "src", &[], PatternRow::all_any(0), "a", P::Any)
                .unwrap(),
            NormalCfd::parse(
                &schema,
                "src",
                &["a"],
                if lhs_wild {
                    PatternRow::all_any(1)
                } else {
                    PatternRow::new([P::constant("v0")])
                },
                "b",
                P::constant("p"),
            )
            .unwrap(),
        ];
        let v = condep::validate::Validator::new(cfds.clone(), vec![]);
        let batched = v.validate_sorted(&db);
        let expected = reference_report(&v, &db);
        prop_assert_eq!(&batched, &expected);
        // Wildcard-RHS pair witnesses must match exactly, not just as
        // counts: same (left, right) positions.
        for ((bi, bv), (ei, ev)) in batched.cfd.iter().zip(expected.cfd.iter()) {
            prop_assert_eq!(bi, ei);
            prop_assert_eq!(bv, ev);
        }
    }
}

// ------------------------------------------------------- chase invariants

proptest! {
    /// The bounded chase always terminates and, when defined, its
    /// fresh instantiation satisfies the constraint set it was chased
    /// with (Theorem 5.1's certificate).
    #[test]
    fn chase_terminates_and_certifies(seed in 0u64..200) {
        use condep::chase::{chase, ChaseConfig, ChaseOutcome, TemplateDb};
        use condep::chase::ops::seed_tuple;
        use condep::gen::{generate_sigma, random_schema, SchemaGenConfig, SigmaGenConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let schema = random_schema(
            &SchemaGenConfig {
                relations: 3,
                attrs_min: 2,
                attrs_max: 4,
                finite_ratio: 0.3,
                finite_dom_min: 2,
                finite_dom_max: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let (cfds, cinds, _) = generate_sigma(
            &schema,
            &SigmaGenConfig {
                cardinality: 10,
                consistent: false,
                ..SigmaGenConfig::default()
            },
            &mut StdRng::seed_from_u64(seed + 1),
        );
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple(&mut db, condep::model::RelId(0));
        let cfg = ChaseConfig {
            tuple_cap: 200,
            ..ChaseConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed + 2);
        // Termination: the call returns (no hang); definedness varies.
        match chase(db, &cfds, &cinds, &cfg, &mut rng) {
            ChaseOutcome::Defined(template) => {
                let consts: Vec<Value> = {
                    let sigma = condep::consistency::ConstraintSet::new(
                        schema.clone(), cfds.clone(), cinds.clone());
                    sigma.all_constants()
                };
                if let Some(instance) = template.instantiate_fresh(&consts) {
                    prop_assert!(condep::cfd::satisfy::satisfies_all(&instance, &cfds));
                    prop_assert!(satisfy::satisfies_all(&instance, &cinds));
                }
            }
            ChaseOutcome::Undefined(_) => {}
        }
    }
}

// ------------------------------------------ streamed delta equivalence

/// An externally maintained violation state, updated **only** from
/// streamed [`condep::validate::SigmaDelta`]s by the documented consumer
/// rule: `after = renumber(before − resolved, moved) + introduced`.
struct ShadowReport {
    cfd: Vec<(usize, condep::cfd::CfdViolation)>,
    cind: Vec<(usize, condep::cind::CindViolation)>,
}

impl ShadowReport {
    fn from_report(report: &condep::validate::SigmaReport) -> Self {
        ShadowReport {
            cfd: report.cfd.clone(),
            cind: report.cind.clone(),
        }
    }

    fn apply(&mut self, v: &condep::validate::Validator, delta: &condep::validate::SigmaDelta) {
        use condep::cfd::CfdViolation;
        // 1. Subtract the resolved violations (pre-move labels).
        for gone in &delta.cfd.resolved {
            let at = self
                .cfd
                .iter()
                .position(|have| have == gone)
                .expect("resolved CFD violation must be present in the shadow");
            self.cfd.swap_remove(at);
        }
        for gone in &delta.cind.resolved {
            let at = self
                .cind
                .iter()
                .position(|have| have == gone)
                .expect("resolved CIND violation must be present in the shadow");
            self.cind.swap_remove(at);
        }
        // 2. Renumber for the swap-based deletion, if any.
        if let Some(mv) = delta.moved {
            let renum = |p: usize| if p == mv.from { mv.to } else { p };
            for (i, viol) in &mut self.cfd {
                if v.cfds()[*i].rel() != mv.rel {
                    continue;
                }
                match viol {
                    CfdViolation::SingleTuple { tuple, .. } => *tuple = renum(*tuple),
                    CfdViolation::Pair { left, right } => {
                        *left = renum(*left);
                        *right = renum(*right);
                    }
                }
            }
            for (i, viol) in &mut self.cind {
                if v.cinds()[*i].lhs_rel() == mv.rel {
                    viol.tuple = renum(viol.tuple);
                }
            }
        }
        // 3. Add the introduced violations (post-move labels).
        self.cfd.extend(delta.cfd.introduced.iter().cloned());
        self.cind.extend(delta.cind.introduced.iter().cloned());
    }

    fn sorted(&self) -> condep::validate::SigmaReport {
        let mut report = condep::validate::SigmaReport {
            cfd: self.cfd.clone(),
            cind: self.cind.clone(),
        };
        report.sort();
        report
    }
}

/// ≥ 240 random mutation sequences over a collision-heavy two-relation
/// workload, interleaving single mutations through `apply` and
/// multi-mutation `apply_deltas` windows: after
/// **every** step, the stream's materialized
/// violation set, an external delta consumer, and a from-scratch batch
/// `Validator::validate` of the current database must be identical — the
/// equivalence oracle for the delta engine — and every live [`TupleId`]
/// must still resolve to the same logical tuple it was allocated for
/// (with the id ⇄ position maps staying bijective on live tuples).
#[test]
fn stream_deltas_agree_with_batch_validation_on_random_sequences() {
    use condep::model::{RelId, TupleId};
    use condep::validate::{Mutation, Validator, ValidatorStream};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    let schema = Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("a", Domain::string()),
                    ("b", Domain::string()),
                    ("c", Domain::string()),
                    // `d` is in the key union ONLY through a conditioned
                    // CIND source role (no CFD indexes it): every
                    // resident tuple caches its `d` cell, but for
                    // non-triggering tuples no index key reaches it —
                    // the row cache alone holds such strings in the
                    // stream's dictionary.
                    ("d", Domain::string()),
                ],
            )
            .relation("s", &[("x", Domain::string()), ("y", Domain::string())])
            .finish(),
    );
    let sigma_cfds = vec![
        // a → b: the workhorse wildcard FD.
        condep::cfd::NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            condep::model::prow![_],
            "b",
            PValue::Any,
        )
        .unwrap(),
        // (a = k0) → c = v0: constant LHS and RHS.
        condep::cfd::NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            condep::model::prow!["a0"],
            "c",
            PValue::Const(Value::str("v0")),
        )
        .unwrap(),
        // (a, b) → c: a wider key sharing no group with a → b.
        condep::cfd::NormalCfd::parse(
            &schema,
            "r",
            &["a", "b"],
            condep::model::prow![_, _],
            "c",
            PValue::Any,
        )
        .unwrap(),
        // ∅ → c: global agreement — every tuple in one key group, the
        // worst case for pair-witness relabeling under swap deletions.
        condep::cfd::NormalCfd::parse(&schema, "r", &[], condep::model::prow![], "c", PValue::Any)
            .unwrap(),
    ];
    let sigma_cinds = vec![
        // r[a] ⊆ s[x].
        condep::cind::NormalCind::parse(&schema, "r", &["a"], &[], "s", &["x"], &[]).unwrap(),
        // r[b; c = v0] ⊆ s[y]: a conditioned source.
        condep::cind::NormalCind::parse(
            &schema,
            "r",
            &["b"],
            &[("c", Value::str("v0"))],
            "s",
            &["y"],
            &[],
        )
        .unwrap(),
        // s[y] ⊆ r[b]: the reverse direction, so s-side deletions orphan
        // nothing but r-side deletions orphan s tuples.
        condep::cind::NormalCind::parse(&schema, "s", &["y"], &[], "r", &["b"], &[]).unwrap(),
        // r[a] ⊆ r[b]: self-referential within one relation.
        condep::cind::NormalCind::parse(&schema, "r", &["a"], &[], "r", &["b"], &[]).unwrap(),
        // r[d; c = v0] ⊆ s[x]: the only constraint touching `d`, and a
        // conditioned one — a non-triggering tuple's `d` cell lives in
        // the row cache but in no index key.
        condep::cind::NormalCind::parse(
            &schema,
            "r",
            &["d"],
            &[("c", Value::str("v0"))],
            "s",
            &["x"],
            &[],
        )
        .unwrap(),
    ];

    let a_pool = ["a0", "a1", "a2"];
    let b_pool = ["b0", "b1", "a0"];
    let c_pool = ["v0", "v1"];
    // "a0" can find a target; "d7"/"d8" orphan when the condition fires
    // and otherwise sit in the row cache unreachable from any index key.
    let d_pool = ["a0", "d7", "d8"];
    let x_pool = ["a0", "a1", "a2", "z"];
    let y_pool = ["b0", "b1", "a0", "v0"];
    let r = RelId(0);
    let s = RelId(1);

    let mut mutations = 0usize;
    for seed in 0u64..240 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let pick = |rng: &mut StdRng, pool: &[&str]| Value::str(pool[rng.gen_range(0..pool.len())]);
        let random_tuple = |rng: &mut StdRng, rel: RelId| -> Tuple {
            if rel == r {
                Tuple::new(vec![
                    pick(rng, &a_pool),
                    pick(rng, &b_pool),
                    pick(rng, &c_pool),
                    pick(rng, &d_pool),
                ])
            } else {
                Tuple::new(vec![pick(rng, &x_pool), pick(rng, &y_pool)])
            }
        };

        // Random (possibly dirty) seed database.
        let mut db = Database::empty(schema.clone());
        for rel in [r, s] {
            let n = rng.gen_range(0..8usize);
            for _ in 0..n {
                let t = random_tuple(&mut rng, rel);
                db.insert(rel, t).unwrap();
            }
        }

        let validator = Validator::new(sigma_cfds.clone(), sigma_cinds.clone());
        let oracle = validator.clone();
        let (mut stream, initial) = ValidatorStream::new_validated(validator, db);
        assert_eq!(
            initial,
            oracle.validate_sorted(stream.db()),
            "seed {seed}: new_validated must report the batch state"
        );
        let mut shadow = ShadowReport::from_report(&initial);
        // Every (rel, TupleId) ever observed, with the tuple it was
        // allocated for: a live id must keep resolving to exactly that
        // tuple; a dead id must never resurrect as something else.
        let mut id_shadow: HashMap<(RelId, TupleId), Tuple> = HashMap::new();

        for step in 0..30 {
            let roll = rng.gen_range(0..12u32);
            if roll < 2 {
                // A buffered mutation window through the batched path:
                // same consumer rule, deltas in application order.
                let n = rng.gen_range(2..6usize);
                let mut muts = Vec::new();
                for _ in 0..n {
                    let rel = if rng.gen_bool(0.7) { r } else { s };
                    let len = stream.db().relation(rel).len();
                    match rng.gen_range(0..3u32) {
                        0 => muts.push(Mutation::Insert {
                            rel,
                            tuple: random_tuple(&mut rng, rel),
                        }),
                        1 if len > 0 => muts.push(Mutation::Delete {
                            rel,
                            tuple: stream
                                .db()
                                .relation(rel)
                                .get(rng.gen_range(0..len))
                                .unwrap()
                                .clone(),
                        }),
                        2 if len > 0 => muts.push(Mutation::Update {
                            rel,
                            old: stream
                                .db()
                                .relation(rel)
                                .get(rng.gen_range(0..len))
                                .unwrap()
                                .clone(),
                            new: random_tuple(&mut rng, rel),
                        }),
                        _ => {}
                    }
                }
                mutations += muts.len();
                let deltas = stream.apply_deltas(&muts).unwrap();
                for delta in &deltas {
                    shadow.apply(&oracle, delta);
                }
            } else if roll < 7 {
                let rel = if rng.gen_bool(0.7) { r } else { s };
                let tuple = random_tuple(&mut rng, rel);
                for delta in stream
                    .apply(Mutation::Insert { rel, tuple })
                    .unwrap()
                    .deltas
                {
                    shadow.apply(&oracle, &delta);
                }
                mutations += 1;
            } else if roll < 10 {
                let rel = if rng.gen_bool(0.7) { r } else { s };
                let len = stream.db().relation(rel).len();
                if len == 0 {
                    continue;
                }
                let tuple = stream
                    .db()
                    .relation(rel)
                    .get(rng.gen_range(0..len))
                    .unwrap()
                    .clone();
                let applied = stream.apply(Mutation::Delete { rel, tuple }).unwrap();
                assert!(!applied.is_noop(), "tuple is present");
                for delta in &applied.deltas {
                    shadow.apply(&oracle, delta);
                }
                mutations += 1;
            } else {
                let rel = if rng.gen_bool(0.7) { r } else { s };
                let len = stream.db().relation(rel).len();
                if len == 0 {
                    continue;
                }
                let old = stream
                    .db()
                    .relation(rel)
                    .get(rng.gen_range(0..len))
                    .unwrap()
                    .clone();
                let new = random_tuple(&mut rng, rel);
                let identity = old == new;
                let applied = stream.apply(Mutation::Update { rel, old, new }).unwrap();
                assert_eq!(applied.is_noop(), identity, "tuple is present");
                for delta in &applied.deltas {
                    shadow.apply(&oracle, delta);
                }
                mutations += 1;
            }
            let batch = oracle.validate_sorted(stream.db());
            assert_eq!(
                stream.current_report(),
                batch,
                "seed {seed} step {step}: stream live state diverged from batch"
            );
            assert_eq!(
                shadow.sorted(),
                batch,
                "seed {seed} step {step}: delta consumer diverged from batch"
            );
            // The id oracle: live positions and ids are in bijection,
            // newborn ids are registered, and every id ever seen either
            // still resolves to its original tuple or is dead for good.
            for rel in [r, s] {
                let inst = stream.db().relation(rel);
                for pos in 0..inst.len() {
                    let id = stream
                        .tuple_id_at(rel, pos)
                        .expect("every live position carries an id");
                    assert_eq!(
                        stream.position_of(rel, id),
                        Some(pos),
                        "seed {seed} step {step}: id map lost its bijection"
                    );
                    let t = inst.get(pos).unwrap();
                    match id_shadow.entry((rel, id)) {
                        std::collections::hash_map::Entry::Occupied(e) => assert_eq!(
                            e.get(),
                            t,
                            "seed {seed} step {step}: TupleId {id:?} re-resolved to a \
                             different logical tuple"
                        ),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(t.clone());
                        }
                    }
                }
            }
            for ((rel, id), expected) in &id_shadow {
                if let Some(resident) = stream.tuple_by_id(*rel, *id) {
                    assert_eq!(
                        resident, expected,
                        "seed {seed} step {step}: a dead TupleId resurrected"
                    );
                }
            }
        }
    }
    assert!(
        mutations >= 5000,
        "sweep too small: only {mutations} mutations checked"
    );
}

/// ≥ 240 random mutation sequences over a **redundant** Σ — duplicate
/// rows, subsumable rows (in both orders), and permuted-condition CIND
/// duplicates — run through two streams in lockstep: one compiled with
/// the exact Σ cover ([`Validator::new`]) and one without any cover pass
/// ([`Validator::new_uncovered`]). After the seed validation and after
/// every mutation, the two reports must be
/// **byte-identical** in the caller's original Σ index space: the cover
/// is an invisible compile-time optimization, never a semantic change.
#[test]
fn cover_compiled_stream_matches_uncovered_on_random_sequences() {
    use condep::model::RelId;
    use condep::validate::{Mutation, Validator, ValidatorStream};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let schema = Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("a", Domain::string()),
                    ("b", Domain::string()),
                    ("c", Domain::string()),
                ],
            )
            .relation("s", &[("x", Domain::string()), ("y", Domain::string())])
            .finish(),
    );
    let cfd = |lhs: &[&str], pat: condep::model::PatternRow, rhs: &str, rpat: PValue| {
        condep::cfd::NormalCfd::parse(&schema, "r", lhs, pat, rhs, rpat).unwrap()
    };
    // A deliberately redundant tableau, in an order that exercises every
    // exact-tier path: a specific row *before* its general subsumer
    // (the newcomer swallows it), a specific row *after* one (it
    // attaches), equal-pattern duplicates (earliest index wins), a
    // wildcard-RHS row next to a constant-RHS sibling (separate
    // buckets), and representatives that are not at index 0.
    let sigma_cfds = vec![
        /* 0 */ cfd(&["a"], condep::model::prow!["a1"], "b", PValue::Any),
        /* 1 */ cfd(&["a"], condep::model::prow![_], "b", PValue::Any),
        /* 2 */ cfd(&["a"], condep::model::prow!["a0"], "b", PValue::Any),
        /* 3 */ cfd(&["a"], condep::model::prow![_], "b", PValue::Any),
        /* 4 */
        cfd(
            &["a"],
            condep::model::prow!["a0"],
            "c",
            PValue::Const(Value::str("v0")),
        ),
        /* 5 */
        cfd(
            &["a"],
            condep::model::prow!["a0"],
            "c",
            PValue::Const(Value::str("v0")),
        ),
        /* 6 */ cfd(&["a", "b"], condep::model::prow![_, "b0"], "c", PValue::Any),
        /* 7 */ cfd(&["a", "b"], condep::model::prow![_, _], "c", PValue::Any),
        /* 8 */ cfd(&[], condep::model::prow![], "c", PValue::Any),
        /* 9 */ cfd(&["a"], condep::model::prow![_], "c", PValue::Any),
    ];
    let sigma_cinds = vec![
        // r[a] ⊆ s[x], twice (payload-identical duplicate).
        condep::cind::NormalCind::parse(&schema, "r", &["a"], &[], "s", &["x"], &[]).unwrap(),
        condep::cind::NormalCind::parse(&schema, "r", &["a"], &[], "s", &["x"], &[]).unwrap(),
        // r[b; c = v0, a = a0] ⊆ s[y] with the Xp pairs permuted — the
        // same dependency up to condition ordering.
        condep::cind::NormalCind::parse(
            &schema,
            "r",
            &["b"],
            &[("c", Value::str("v0")), ("a", Value::str("a0"))],
            "s",
            &["y"],
            &[],
        )
        .unwrap(),
        condep::cind::NormalCind::parse(
            &schema,
            "r",
            &["b"],
            &[("a", Value::str("a0")), ("c", Value::str("v0"))],
            "s",
            &["y"],
            &[],
        )
        .unwrap(),
        // s[y] ⊆ r[b]: reverse direction, not redundant.
        condep::cind::NormalCind::parse(&schema, "s", &["y"], &[], "r", &["b"], &[]).unwrap(),
    ];

    // The cover must have actually shrunk the compiled suite — otherwise
    // this test degenerates into comparing a validator with itself.
    let probe = Validator::new(sigma_cfds.clone(), sigma_cinds.clone());
    assert_eq!(
        probe.cover_stats().cfd_merged,
        5,
        "{:?}",
        probe.cover_stats()
    );
    assert_eq!(
        probe.cover_stats().cind_merged,
        2,
        "{:?}",
        probe.cover_stats()
    );

    let a_pool = ["a0", "a1", "a2"];
    let b_pool = ["b0", "b1", "a0"];
    let c_pool = ["v0", "v1"];
    let x_pool = ["a0", "a1", "z"];
    let y_pool = ["b0", "b1", "v0"];
    let r = RelId(0);
    let s = RelId(1);

    // Within one delta the two compiles may emit the same violations in
    // different orders (fan-out order vs. member order); equality is up
    // to the canonical report order.
    let norm = |mut d: condep::validate::SigmaDelta| {
        d.cfd.introduced.sort_by_key(|(i, v)| (*i, v.sort_key()));
        d.cfd.resolved.sort_by_key(|(i, v)| (*i, v.sort_key()));
        d.cind.introduced.sort_by_key(|(i, v)| (*i, v.tuple));
        d.cind.resolved.sort_by_key(|(i, v)| (*i, v.tuple));
        d
    };

    let mut mutations = 0usize;
    for seed in 0u64..240 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xc2b2_ae35));
        let pick = |rng: &mut StdRng, pool: &[&str]| Value::str(pool[rng.gen_range(0..pool.len())]);
        let random_tuple = |rng: &mut StdRng, rel: RelId| -> Tuple {
            if rel == r {
                Tuple::new(vec![
                    pick(rng, &a_pool),
                    pick(rng, &b_pool),
                    pick(rng, &c_pool),
                ])
            } else {
                Tuple::new(vec![pick(rng, &x_pool), pick(rng, &y_pool)])
            }
        };

        let mut db = Database::empty(schema.clone());
        for rel in [r, s] {
            let n = rng.gen_range(0..8usize);
            for _ in 0..n {
                let t = random_tuple(&mut rng, rel);
                db.insert(rel, t).unwrap();
            }
        }

        // Batch equivalence on the random seed database.
        let covered = Validator::new(sigma_cfds.clone(), sigma_cinds.clone());
        let uncovered = Validator::new_uncovered(sigma_cfds.clone(), sigma_cinds.clone());
        assert!(covered.compiled_cfd_members() < uncovered.compiled_cfd_members());
        assert_eq!(
            covered.validate_sorted(&db),
            uncovered.validate_sorted(&db),
            "seed {seed}: batch reports diverged on the seed database"
        );

        // Stream equivalence under a shared mutation sequence.
        let (mut cov_stream, cov_initial) = ValidatorStream::new_validated(covered, db.clone());
        let (mut unc_stream, unc_initial) = ValidatorStream::new_validated(uncovered, db);
        assert_eq!(cov_initial, unc_initial, "seed {seed}: initial reports");

        for step in 0..20 {
            let roll = rng.gen_range(0..10u32);
            if roll < 2 {
                let n = rng.gen_range(2..6usize);
                let mut muts = Vec::new();
                for _ in 0..n {
                    let rel = if rng.gen_bool(0.7) { r } else { s };
                    let len = cov_stream.db().relation(rel).len();
                    match rng.gen_range(0..3u32) {
                        0 => muts.push(Mutation::Insert {
                            rel,
                            tuple: random_tuple(&mut rng, rel),
                        }),
                        1 if len > 0 => muts.push(Mutation::Delete {
                            rel,
                            tuple: cov_stream
                                .db()
                                .relation(rel)
                                .get(rng.gen_range(0..len))
                                .unwrap()
                                .clone(),
                        }),
                        2 if len > 0 => muts.push(Mutation::Update {
                            rel,
                            old: cov_stream
                                .db()
                                .relation(rel)
                                .get(rng.gen_range(0..len))
                                .unwrap()
                                .clone(),
                            new: random_tuple(&mut rng, rel),
                        }),
                        _ => {}
                    }
                }
                mutations += muts.len();
                let cov_deltas = cov_stream.apply_deltas(&muts).unwrap();
                let unc_deltas = unc_stream.apply_deltas(&muts).unwrap();
                assert_eq!(
                    cov_deltas.len(),
                    unc_deltas.len(),
                    "seed {seed} step {step}: batched delta counts diverged"
                );
                for (cd, ud) in cov_deltas.into_iter().zip(unc_deltas) {
                    assert_eq!(
                        norm(cd),
                        norm(ud),
                        "seed {seed} step {step}: batched deltas diverged"
                    );
                }
            } else if roll < 6 {
                let rel = if rng.gen_bool(0.7) { r } else { s };
                let m = Mutation::Insert {
                    rel,
                    tuple: random_tuple(&mut rng, rel),
                };
                let cov_deltas = cov_stream.apply(m.clone()).unwrap().deltas;
                let unc_deltas = unc_stream.apply(m).unwrap().deltas;
                assert_eq!(
                    cov_deltas.into_iter().map(norm).collect::<Vec<_>>(),
                    unc_deltas.into_iter().map(norm).collect::<Vec<_>>(),
                    "seed {seed} step {step}: insert deltas diverged"
                );
                mutations += 1;
            } else {
                let rel = if rng.gen_bool(0.7) { r } else { s };
                let len = cov_stream.db().relation(rel).len();
                if len == 0 {
                    continue;
                }
                let m = Mutation::Delete {
                    rel,
                    tuple: cov_stream
                        .db()
                        .relation(rel)
                        .get(rng.gen_range(0..len))
                        .unwrap()
                        .clone(),
                };
                let cov_deltas = cov_stream.apply(m.clone()).unwrap().deltas;
                let unc_deltas = unc_stream.apply(m).unwrap().deltas;
                assert_eq!(cov_deltas.len(), 1, "tuple is present");
                assert_eq!(
                    cov_deltas.into_iter().map(norm).collect::<Vec<_>>(),
                    unc_deltas.into_iter().map(norm).collect::<Vec<_>>(),
                    "seed {seed} step {step}: delete deltas diverged"
                );
                mutations += 1;
            }
            assert_eq!(
                cov_stream.current_report(),
                unc_stream.current_report(),
                "seed {seed} step {step}: covered stream diverged from uncovered"
            );
        }
    }
    assert!(
        mutations >= 3000,
        "sweep too small: only {mutations} mutations checked"
    );
}

/// The seed build above the parallel threshold: 5,200 tuples, so the
/// group tasks run striped across threads wherever the host has more
/// than one core. Σ puts five CFD groups on one relation — an ∅-LHS
/// group, a constant-RHS row, a near-unique key, a pattern constant no
/// seed tuple carries — plus a CIND with both Xp and Yp conditions. The
/// seed report must equal the per-constraint detectors; then ~50
/// `apply_deltas` windows (one inserting the missing constant) drive a
/// `new_validated` stream and a `with_report` stream, which must agree
/// with each other and with a fresh sweep. A stream holding another
/// group's index drifts from the sweep within a window.
#[test]
fn threaded_seed_build_matches_the_detectors_and_streams_correctly() {
    use condep::cfd::NormalCfd;
    use condep::cind::NormalCind;
    use condep::model::prow;
    use condep::validate::{Mutation, Validator, ValidatorStream};

    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    let schema = Arc::new(
        Schema::builder()
            .relation(
                "r",
                &[
                    ("k", Domain::string()),
                    ("a", Domain::string()),
                    ("b", Domain::string()),
                    ("c", Domain::string()),
                    ("v", Domain::string()),
                ],
            )
            .relation("s", &[("x", Domain::string()), ("flag", Domain::string())])
            .finish(),
    );
    let r = schema.rel_id("r").unwrap();
    let s = schema.rel_id("s").unwrap();
    // `k` is near-unique (every 25th id repeats an earlier key), `a`
    // determines `v` up to planted noise, and `c` is almost constant.
    let r_tuple = |i: u64, state: &mut u64| {
        let k = if i % 25 == 24 { i - 7 } else { i };
        let a = next(state) % 13;
        let b = next(state) % 5;
        let c = if i.is_multiple_of(611) { "c1" } else { "c0" };
        let v = if i.is_multiple_of(97) {
            "noise".to_string()
        } else {
            format!("v{}", a % 4)
        };
        Tuple::new([
            Value::str(format!("k{k}")),
            Value::str(format!("a{a}")),
            Value::str(format!("b{b}")),
            Value::str(c),
            Value::str(v),
        ])
    };
    let mut db = Database::empty(schema.clone());
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..5200u64 {
        db.insert(r, r_tuple(i, &mut state)).unwrap();
    }
    // Partners for `a0`..`a9` only, half of them with the wrong flag.
    for j in 0..10 {
        let flag = if j % 2 == 0 { "yes" } else { "no" };
        db.insert(
            s,
            Tuple::new([Value::str(format!("a{j}")), Value::str(flag)]),
        )
        .unwrap();
    }
    let cfds = vec![
        // ∅ → c: one key group holding every tuple.
        NormalCfd::parse(&schema, "r", &[], prow![], "c", PValue::Any).unwrap(),
        // a → v, and (a = a3) → v = v3 in the same group.
        NormalCfd::parse(&schema, "r", &["a"], prow![_], "v", PValue::Any).unwrap(),
        NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow!["a3"],
            "v",
            PValue::constant("v3"),
        )
        .unwrap(),
        // (b = b2) → v = v0: a constant-RHS row alone in its group.
        NormalCfd::parse(
            &schema,
            "r",
            &["b"],
            prow!["b2"],
            "v",
            PValue::constant("v0"),
        )
        .unwrap(),
        // k → a: a near-unique key.
        NormalCfd::parse(&schema, "r", &["k"], prow![_], "a", PValue::Any).unwrap(),
        // (a = fresh, b) → v = v9: no seed tuple carries `fresh`.
        NormalCfd::parse(
            &schema,
            "r",
            &["a", "b"],
            prow!["fresh", _],
            "v",
            PValue::constant("v9"),
        )
        .unwrap(),
    ];
    // r[a; c = c0] ⊆ s[x; flag = yes].
    let cinds = vec![NormalCind::parse(
        &schema,
        "r",
        &["a"],
        &[("c", Value::str("c0"))],
        "s",
        &["x"],
        &[("flag", Value::str("yes"))],
    )
    .unwrap()];
    let v = Validator::new(cfds, cinds);
    assert!(v.group_count() >= 6, "five CFD groups and one CIND group");
    assert!(
        db.total_tuples() >= 5000,
        "must cross the parallel threshold"
    );

    let (mut fresh, seeded) = ValidatorStream::new_validated(v.clone(), db.clone());
    assert_eq!(seeded, reference_report(&v, &db), "seed ≠ detectors");
    assert_eq!(seeded, v.validate_sorted(&db), "seed ≠ batch sweep");
    assert!(!seeded.cfd.is_empty() && !seeded.cind.is_empty());
    let mut known = ValidatorStream::with_report(v.clone(), db.clone(), seeded);

    let mut next_id = 5200u64;
    for window in 0..50u64 {
        let mut muts = Vec::new();
        for _ in 0..24 {
            let len = fresh.db().relation(r).len() as u64;
            let victim = fresh
                .db()
                .relation(r)
                .get((next(&mut state) % len) as usize);
            let victim = victim.unwrap().clone();
            match next(&mut state) % 3 {
                0 => muts.push(Mutation::Delete {
                    rel: r,
                    tuple: victim,
                }),
                1 => {
                    let new = victim.with(condep::model::AttrId(4), Value::str("v1"));
                    muts.push(Mutation::Update {
                        rel: r,
                        old: victim,
                        new,
                    });
                }
                _ => {
                    muts.push(Mutation::Insert {
                        rel: r,
                        tuple: r_tuple(next_id, &mut state),
                    });
                    next_id += 1;
                }
            }
        }
        if window == 20 {
            // The missing pattern constant arrives, violating v = v9.
            muts.push(Mutation::Insert {
                rel: r,
                tuple: Tuple::new(["kfresh", "fresh", "b1", "c0", "v1"].map(Value::str)),
            });
        }
        if window % 10 == 5 {
            // Flip a partner's flag: orphans or adopts `a{j}` sources.
            let j = window % 10;
            let (old, new) = if window % 20 == 5 {
                ("no", "yes")
            } else {
                ("yes", "no")
            };
            muts.push(Mutation::Update {
                rel: s,
                old: Tuple::new([Value::str(format!("a{j}")), Value::str(old)]),
                new: Tuple::new([Value::str(format!("a{j}")), Value::str(new)]),
            });
        }
        let a = fresh.apply_deltas(&muts).unwrap();
        let b = known.apply_deltas(&muts).unwrap();
        assert_eq!(a, b, "window {window}: the two streams' deltas diverged");
        if window % 10 == 9 || window == 20 {
            let sweep = fresh.validator().validate_sorted(fresh.db());
            assert_eq!(fresh.current_report(), sweep, "window {window}");
            assert_eq!(known.current_report(), sweep, "window {window}");
        }
        if window == 20 {
            let last = fresh.validator().cfds().len() - 1;
            assert!(
                fresh.current_report().cfd.iter().any(|(i, _)| *i == last),
                "the arrived constant must raise its violation"
            );
        }
    }
}
