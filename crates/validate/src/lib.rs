#![warn(missing_docs)]

//! # condep-validate
//!
//! The batched Σ-validation engine.
//!
//! The paper's Section 6 experiments check constraint sets of up to 20K
//! CFDs/CINDs against sizable instances. Checking each normal CFD
//! independently rebuilds a full group-by index over its relation per
//! constraint — `k` constraints sharing one embedded FD `X → A` cost `k`
//! full scans. The classic pattern-tableau observation (Bravo/Fan/Ma)
//! is that a set of normal CFDs over the same `(R, X)` is *one* tableau:
//! every pattern row can be evaluated against each key-group of a
//! **single** group-by pass.
//!
//! [`Validator`] implements that:
//!
//! * Σ is compiled once, grouping CFDs by `(relation, LHS attribute
//!   set)` (LHS lists are canonicalized by sorting, patterns permuted in
//!   lock-step) and CINDs by `(target relation, Y set, Yp pattern)`;
//! * per database, the columns Σ reads are symbolized once, through a
//!   [`condep_model::Dict`], into a row-major row cache that the batch
//!   sweep drops and a stream keeps, and each group builds **one**
//!   [`condep_model::SymIndex`] over word-sized keys, every distinct
//!   key stored once in the index's slab;
//! * independent groups are swept in parallel with
//!   [`std::thread::scope`] (small instances stay single-threaded);
//! * [`ValidatorStream`] is the **delta engine**: it keeps the group
//!   indexes (plus reverse CIND source indexes) live together with the
//!   materialized violation set. Every mutation goes through one entry,
//!   [`ValidatorStream::apply_deltas`], which applies a window of
//!   [`Mutation`]s and returns one [`SigmaDelta`] per insert or delete
//!   (two per update) — the violations the mutation introduced *and*
//!   the violations it resolved (retraction) — in time proportional to
//!   the constraint groups and key groups the tuple touches, never to
//!   the database; [`ValidatorStream::apply`] is a window of one that
//!   also returns the mutation's inverse. Open one with
//!   [`ValidatorStream::new_validated`], which builds the live indexes
//!   with the batch sweep's own group tasks and reports the seed
//!   database's initial violations off them
//!   ([`ValidatorStream::with_report`] runs the same build and checks a
//!   known report against it in debug builds);
//! * the stream is built for **whole-life monitoring**:
//!   [`condep_model::TupleId`] handles address tuples stably across the
//!   swap renumbering deletions cause (every delta carries its
//!   [`IdDelta`] bookkeeping), a window amortizes key-translation work
//!   across its mutations, and nothing churn empties is kept: a key
//!   group is freed with its last tuple, and a string leaves the
//!   stream's refcounted [`condep_model::Dict`] with its last cached
//!   cell (or, for a constant of Σ, when its dependency goes).
//!   Memory follows the live data however long the stream runs, with
//!   no maintenance call.
//!
//! Results are identical (as sets, and after [`SigmaReport::sort`] even
//! in order) to the per-dependency reference detectors
//! `condep_cfd::find_violations` / `condep_core::find_violations`,
//! nested loops written straight from the definitions.
//! [`ValidatorStream::current_report`] stays equal to a fresh
//! [`Validator::validate_sorted`] across arbitrary mutation sequences,
//! in windows of one or more. Both properties are tested at the
//! workspace root.

pub mod cover;
mod stream;
mod telemetry;
mod validator;

pub use condep_analyze::{
    BudgetTrip, SigmaAnalysis, SigmaLint, SigmaVerdict, UnsatCore, UnsatSigma, Witness,
};
pub use condep_model::TupleId;
pub use cover::{CoverRole, CoverStats, SigmaCover};
pub use stream::{Applied, IdDelta, MovedTuple, Mutation, SigmaDelta, ValidatorStream};
pub use telemetry::StreamTelemetry;
pub use validator::{CompileStats, RetireLog, SigmaReport, UnknownDependency, Validator};

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::fixtures as cfd_fx;
    use condep_cfd::normalize::normalize_all as normalize_cfds;
    use condep_cfd::{CfdViolation, NormalCfd};
    use condep_core::fixtures as cind_fx;
    use condep_core::normalize::normalize_all as normalize_cinds;
    use condep_model::fixtures::{bank_database, clean_bank_database};
    use condep_model::{prow, tuple, Database, Domain, PValue, RelId, Schema, Tuple, Value};
    use std::sync::Arc;

    fn bank_validator() -> Validator {
        Validator::new(
            normalize_cfds(&[cfd_fx::phi1(), cfd_fx::phi2(), cfd_fx::phi3()]),
            normalize_cinds(&cind_fx::figure_2()),
        )
    }

    /// The per-constraint reference detectors, as a sorted report.
    fn reference_report(v: &Validator, db: &Database) -> SigmaReport {
        let mut expected = SigmaReport::default();
        for (i, cfd) in v.cfds().iter().enumerate() {
            for viol in condep_cfd::find_violations(db, cfd) {
                expected.cfd.push((i, viol));
            }
        }
        for (i, cind) in v.cinds().iter().enumerate() {
            for viol in condep_core::find_violations(db, cind) {
                expected.cind.push((i, viol));
            }
        }
        expected.sort();
        expected
    }

    /// The one delta of a window holding a single insert or delete.
    fn only(deltas: Result<Vec<SigmaDelta>, condep_model::ModelError>) -> SigmaDelta {
        let mut deltas = deltas.unwrap();
        assert_eq!(deltas.len(), 1, "one slot per insert or delete");
        deltas.pop().unwrap()
    }

    /// Inserts one tuple as a window of one (the empty delta when the
    /// tuple is resident).
    fn insert(stream: &mut ValidatorStream, rel: RelId, tuple: Tuple) -> SigmaDelta {
        only(stream.apply_deltas(&[Mutation::Insert { rel, tuple }]))
    }

    /// Deletes one tuple as a window of one (the empty delta when the
    /// tuple is absent).
    fn delete(stream: &mut ValidatorStream, rel: RelId, tuple: &Tuple) -> SigmaDelta {
        only(stream.apply_deltas(&[Mutation::Delete {
            rel,
            tuple: tuple.clone(),
        }]))
    }

    #[test]
    fn batched_report_matches_reference_on_figure_1() {
        let v = bank_validator();
        let db = bank_database();
        let report = v.validate_sorted(&db);
        assert_eq!(report, reference_report(&v, &db));
        // Exactly the paper's two errors: t12 (ϕ3) and t10 (ψ6).
        assert_eq!(report.cfd.len(), 1);
        assert_eq!(report.cind.len(), 1);
        assert!(!v.validate(&db).is_empty());
    }

    #[test]
    fn clean_instance_is_clean() {
        let v = bank_validator();
        let db = clean_bank_database();
        assert!(v.validate(&db).is_empty());
    }

    #[test]
    fn shared_lhs_cfds_land_in_one_group() {
        let db = bank_database();
        let schema = db.schema();
        // Three CFDs over interest[ct, at] → rt, plus one over the
        // permuted list [at, ct]: all one group, one shared index.
        let cfds = vec![
            NormalCfd::parse(
                schema,
                "interest",
                &["ct", "at"],
                prow![_, _],
                "rt",
                PValue::Any,
            )
            .unwrap(),
            NormalCfd::parse(
                schema,
                "interest",
                &["ct", "at"],
                prow!["UK", "checking"],
                "rt",
                PValue::constant("1.5%"),
            )
            .unwrap(),
            NormalCfd::parse(
                schema,
                "interest",
                &["at", "ct"],
                prow!["saving", "UK"],
                "rt",
                PValue::constant("4.5%"),
            )
            .unwrap(),
        ];
        let v = Validator::new(cfds, vec![]);
        assert_eq!(v.group_count(), 1);
        let report = v.validate_sorted(&db);
        assert_eq!(report, reference_report(&v, &db));
    }

    #[test]
    fn empty_lhs_group_forces_global_agreement() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        let cfd = NormalCfd::parse(&schema, "r", &[], prow![], "b", PValue::Any).unwrap();
        let v = Validator::new(vec![cfd], vec![]);
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["x", "same"]).unwrap();
        db.insert_into("r", tuple!["y", "same"]).unwrap();
        assert!(v.validate(&db).is_empty());
        db.insert_into("r", tuple!["z", "different"]).unwrap();
        let report = v.validate_sorted(&db);
        assert_eq!(report, reference_report(&v, &db));
        assert_eq!(
            report.cfd,
            vec![(0, CfdViolation::Pair { left: 0, right: 2 })]
        );
    }

    #[test]
    fn pattern_constant_unknown_to_the_database_matches_nothing() {
        let db = clean_bank_database();
        let schema = db.schema();
        // "Paris" appears nowhere in the instance: the member is pruned,
        // not a panic, and there are no violations.
        let cfd = NormalCfd::parse(
            schema,
            "interest",
            &["ab"],
            prow!["Paris"],
            "rt",
            PValue::constant("9.9%"),
        )
        .unwrap();
        let v = Validator::new(vec![cfd], vec![]);
        assert!(v.validate(&db).is_empty());
    }

    #[test]
    fn unknown_rhs_constant_still_flags_matching_tuples() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        // RHS constant "never" is not in the database, so every matching
        // tuple violates; the LHS wildcard means all tuples match.
        let cfd = NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow![_],
            "b",
            PValue::constant("never"),
        )
        .unwrap();
        let v = Validator::new(vec![cfd], vec![]);
        let mut db = Database::empty(schema);
        db.insert_into("r", tuple!["k", "v"]).unwrap();
        let report = v.validate_sorted(&db);
        assert_eq!(report, reference_report(&v, &db));
        assert_eq!(report.cfd.len(), 1);
    }

    #[test]
    fn stream_reports_only_new_violations() {
        let db = clean_bank_database();
        let schema = db.schema().clone();
        let interest = schema.rel_id("interest").unwrap();
        let v = Validator::new(
            normalize_cfds(&[cfd_fx::phi3()]),
            normalize_cinds(&cind_fx::figure_2()),
        );
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        assert!(initial.is_empty(), "the clean seed has no violations");
        // A clean tuple: UK checking at the mandated 1.5%.
        let clean = insert(
            &mut stream,
            interest,
            tuple!["GLA", "UK", "checking", "1.5%"],
        );
        assert!(clean.is_quiet(), "clean insert must be quiet: {clean:?}");
        // A dirty tuple: UK checking at the wrong rate. Both normal
        // forms of ϕ3 fire: the constant row (single-tuple mismatch)
        // and the wildcard FD row (pair against a resident 1.5% tuple).
        let dirty = insert(
            &mut stream,
            interest,
            tuple!["GLA", "UK", "checking", "9.9%"],
        );
        assert_eq!(dirty.cfd.introduced.len(), 2, "unexpected: {dirty:?}");
        assert!(dirty.cfd.resolved.is_empty());
        assert!(dirty.cfd.introduced.iter().any(|(_, v)| matches!(
            v,
            CfdViolation::SingleTuple { found, expected, .. }
                if found.to_string() == "9.9%" && expected.to_string() == "1.5%"
        )));
        assert!(dirty
            .cfd
            .introduced
            .iter()
            .any(|(_, v)| matches!(v, CfdViolation::Pair { .. })));
        // Re-inserting an existing tuple is a set-semantics no-op.
        let dup = insert(
            &mut stream,
            interest,
            tuple!["GLA", "UK", "checking", "9.9%"],
        );
        assert!(dup.is_quiet());
        // Deleting the dirty tuple retracts exactly what it introduced.
        let gone = delete(
            &mut stream,
            interest,
            &tuple!["GLA", "UK", "checking", "9.9%"],
        );
        assert_eq!(gone.resolved(), dirty.introduced());
        assert!(gone.cfd.introduced.is_empty());
        assert_eq!(stream.violation_count(), 0);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn new_validated_reports_the_seed_violations() {
        let v = bank_validator();
        let db = bank_database();
        let expected = v.validate_sorted(&db);
        let (stream, initial) = ValidatorStream::new_validated(v, db);
        assert_eq!(initial, expected);
        assert_eq!(initial.len(), 2, "the paper's two errors");
        assert_eq!(stream.current_report(), expected);
    }

    #[test]
    fn delete_retracts_cind_orphans_and_insert_resolves_them() {
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("a", Domain::string()), ("b", Domain::string())])
                .relation("dst", &[("c", Domain::string())])
                .finish(),
        );
        let cind = condep_core::NormalCind::parse(&schema, "src", &["a"], &[], "dst", &["c"], &[])
            .unwrap();
        let src = schema.rel_id("src").unwrap();
        let dst = schema.rel_id("dst").unwrap();
        let v = Validator::new(vec![], vec![cind]);
        let (mut stream, _) = ValidatorStream::new_validated(v, Database::empty(schema));
        insert(&mut stream, src, tuple!["k", "v1"]);
        insert(&mut stream, src, tuple!["k", "v2"]);
        // Two orphans; the arriving partner resolves both.
        assert_eq!(stream.violation_count(), 2);
        let arrival = insert(&mut stream, dst, tuple!["k"]);
        assert_eq!(arrival.cind.resolved.len(), 2, "{arrival:?}");
        assert!(arrival.cind.introduced.is_empty());
        assert_eq!(stream.violation_count(), 0);
        // Deleting the only partner re-orphans both sources.
        let gone = delete(&mut stream, dst, &tuple!["k"]);
        assert_eq!(gone.cind.introduced.len(), 2, "{gone:?}");
        assert_eq!(stream.violation_count(), 2);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn delete_swap_renumbers_live_violations() {
        // Build a relation where deleting position 0 moves the last
        // tuple (which owns violations) into the hole.
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let pin = NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow!["k"],
            "b",
            PValue::constant("v1"),
        )
        .unwrap();
        let r = schema.rel_id("r").unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["x", "q"]).unwrap(); // pos 0: unrelated
        db.insert_into("r", tuple!["k", "v1"]).unwrap(); // pos 1: group first
        db.insert_into("r", tuple!["k", "v2"]).unwrap(); // pos 2: pair + single
        let v = Validator::new(vec![fd, pin], vec![]);
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        assert_eq!(initial.cfd.len(), 2, "{initial:?}");
        // Deleting pos 0 swaps ("k","v2") from 2 → 0; it becomes the
        // group's lowest position, so the pair witness relabels too.
        let delta = delete(&mut stream, r, &tuple!["x", "q"]);
        let moved = delta.moved.expect("a swap happened");
        assert_eq!((moved.from, moved.to), (2, 0));
        let batch = stream.validator().validate_sorted(stream.db());
        assert_eq!(stream.current_report(), batch);
        assert_eq!(stream.violation_count(), 2);
    }

    #[test]
    fn update_returns_both_deltas_and_checks_types_first() {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::string()),
                        ("b", Domain::finite_strs(&["u", "v"])),
                    ],
                )
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let r = schema.rel_id("r").unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["k", "u"]).unwrap();
        db.insert_into("r", tuple!["k", "v"]).unwrap();
        let v = Validator::new(vec![fd], vec![]);
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        assert_eq!(initial.len(), 1);
        let update = |old, new| Mutation::Update { rel: r, old, new };
        // Repair the conflict by merging into the resident tuple: the
        // pair resolves, and the insert half is the empty delta.
        let deltas = stream
            .apply_deltas(&[update(tuple!["k", "v"], tuple!["k", "u"])])
            .unwrap();
        let [del, ins] = &deltas[..] else {
            panic!("an update gets a delete and an insert slot: {deltas:?}");
        };
        assert_eq!(del.cfd.resolved.len(), 1);
        assert_eq!(ins, &SigmaDelta::default());
        assert_eq!(stream.violation_count(), 0);
        // A domain-violating replacement fails up front, stream intact.
        assert!(stream
            .apply_deltas(&[update(tuple!["k", "u"], tuple!["k", "zzz"])])
            .is_err());
        assert_eq!(stream.db().total_tuples(), 1);
        // Updating an absent tuple fills both slots with empty deltas.
        let deltas = stream
            .apply_deltas(&[update(tuple!["nope", "u"], tuple!["k", "v"])])
            .unwrap();
        assert_eq!(deltas, [SigmaDelta::default(), SigmaDelta::default()]);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn stream_flags_wildcard_pairs_and_cind_misses() {
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("a", Domain::string()), ("b", Domain::string())])
                .relation("dst", &[("c", Domain::string())])
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "src", &["a"], prow![_], "b", PValue::Any).unwrap();
        let cind = condep_core::NormalCind::parse(&schema, "src", &["a"], &[], "dst", &["c"], &[])
            .unwrap();
        let src = schema.rel_id("src").unwrap();
        let dst = schema.rel_id("dst").unwrap();
        let v = Validator::new(vec![fd], vec![cind]);
        let (mut stream, _) = ValidatorStream::new_validated(v, Database::empty(schema));
        // Source tuple with no partner: CIND violation.
        let r1 = insert(&mut stream, src, tuple!["k", "v1"]);
        assert_eq!(r1.cind.introduced.len(), 1);
        assert!(r1.cfd.is_quiet());
        // Provide the partner: the orphaned source resolves.
        let r2 = insert(&mut stream, dst, tuple!["k"]);
        assert!(r2.cind.introduced.is_empty());
        assert_eq!(r2.cind.resolved.len(), 1);
        // A second source tuple with the same key but different b:
        // wildcard pair against the resident; partner now exists.
        let r3 = insert(&mut stream, src, tuple!["k", "v2"]);
        assert_eq!(
            r3.cfd.introduced,
            vec![(0, CfdViolation::Pair { left: 0, right: 1 })]
        );
        assert!(r3.cind.is_quiet());
        // Stream end state agrees with a batch validation of the final
        // database (nothing was resolved, one pair stands).
        let final_report = stream.validator().validate_sorted(stream.db());
        assert_eq!(final_report.cfd.len(), 1);
        assert_eq!(final_report.cind.len(), 0);
    }

    #[test]
    fn cinds_from_different_sources_share_one_target_group() {
        let schema = Arc::new(
            Schema::builder()
                .relation("s1", &[("a", Domain::string())])
                .relation("s2", &[("b", Domain::string())])
                .relation("t", &[("c", Domain::string())])
                .finish(),
        );
        let c1 =
            condep_core::NormalCind::parse(&schema, "s1", &["a"], &[], "t", &["c"], &[]).unwrap();
        let c2 =
            condep_core::NormalCind::parse(&schema, "s2", &["b"], &[], "t", &["c"], &[]).unwrap();
        let v = Validator::new(vec![], vec![c1, c2]);
        // Same (target, Y, Yp): one shared target index, one group.
        assert_eq!(v.group_count(), 1);
        let mut db = Database::empty(schema.clone());
        db.insert_into("t", tuple!["k"]).unwrap();
        db.insert_into("s1", tuple!["k"]).unwrap();
        db.insert_into("s2", tuple!["missing"]).unwrap();
        let report = v.validate_sorted(&db);
        assert_eq!(report, reference_report(&v, &db));
        assert_eq!(report.cind.len(), 1);
        assert_eq!(report.cind[0].0, 1, "only the s2 CIND is violated");
    }

    #[test]
    fn cind_condition_columns_no_other_dependency_reads_are_symbolized() {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "src",
                    &[
                        ("id", Domain::string()),
                        ("kind", Domain::string()),
                        ("x", Domain::string()),
                    ],
                )
                .relation(
                    "dst",
                    &[
                        ("y", Domain::string()),
                        ("status", Domain::string()),
                        ("note", Domain::string()),
                    ],
                )
                .finish(),
        );
        // src[x; kind = a] ⊆ dst[y; status = live]: `kind` and `status`
        // hold strings no other column holds, and only this CIND reads
        // them.
        let cind = condep_core::NormalCind::parse(
            &schema,
            "src",
            &["x"],
            &[("kind", Value::str("a"))],
            "dst",
            &["y"],
            &[("status", Value::str("live"))],
        )
        .unwrap();
        let cfd = NormalCfd::parse(&schema, "dst", &["y"], prow![_], "note", PValue::Any).unwrap();
        let v = Validator::new(vec![cfd], vec![cind]);
        let mut db = Database::empty(schema.clone());
        for t in [
            tuple!["s0", "a", "k1"], // target live: satisfied
            tuple!["s1", "a", "k2"], // target not live: violation
            tuple!["s2", "b", "k3"], // not triggered
            tuple!["s3", "a", "k4"], // no target: violation
        ] {
            db.insert_into("src", t).unwrap();
        }
        for t in [
            tuple!["k1", "live", "n1"],
            tuple!["k2", "dead", "n2"],
            tuple!["k5", "live", "n5"],
        ] {
            db.insert_into("dst", t).unwrap();
        }
        let report = v.validate_sorted(&db);
        assert_eq!(report, reference_report(&v, &db));
        let flagged: Vec<usize> = report.cind.iter().map(|(_, viol)| viol.tuple).collect();
        assert_eq!(flagged, [1, 3]);
    }

    #[test]
    fn stream_delta_matches_batch_pair_semantics() {
        // Batch wildcard pairs witness each conflicting tuple against the
        // key group's FIRST tuple. A new tuple agreeing with that first
        // tuple adds no batch violation — the stream must agree, even
        // though the new tuple disagrees with some later resident.
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
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let r = schema.rel_id("r").unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["k", "v1", "x0"]).unwrap();
        db.insert_into("r", tuple!["k", "v2", "x1"]).unwrap();
        let v = Validator::new(vec![fd], vec![]);
        let before = v.validate_sorted(&db);
        // A genuinely new tuple (fresh c) agreeing with the group's
        // FIRST tuple on b: it disagrees with the resident at position
        // 1, but batch semantics add no violation for it — the stream
        // must stay quiet.
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        assert_eq!(initial, before);
        let quiet = insert(&mut stream, r, tuple!["k", "v1", "x2"]);
        assert!(quiet.is_quiet(), "delta must be quiet: {quiet:?}");
        // Disagrees with the first tuple: exactly the pair batch adds.
        let noisy = insert(&mut stream, r, tuple!["k", "v3", "x3"]);
        assert_eq!(
            noisy.cfd.introduced,
            vec![(0, CfdViolation::Pair { left: 0, right: 3 })]
        );
        // before + deltas == batch on the final database.
        let mut expected = before;
        expected.cfd.extend(noisy.cfd.introduced.clone());
        expected.sort();
        let after = stream.validator().validate_sorted(stream.db());
        assert_eq!(after, expected);
        assert_eq!(stream.current_report(), after);
    }

    #[test]
    fn self_referential_cind_is_satisfied_by_the_arriving_tuple() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        // r[a] ⊆ r[b]: a tuple with a = b satisfies itself.
        let cind =
            condep_core::NormalCind::parse(&schema, "r", &["a"], &[], "r", &["b"], &[]).unwrap();
        let r = schema.rel_id("r").unwrap();
        let v = Validator::new(vec![], vec![cind]);
        let (mut stream, _) = ValidatorStream::new_validated(v, Database::empty(schema));
        let ok = insert(&mut stream, r, tuple!["x", "x"]);
        assert!(ok.is_quiet(), "self-partnered tuple must be quiet: {ok:?}");
        let miss = insert(&mut stream, r, tuple!["y", "z"]);
        assert_eq!(miss.cind.introduced.len(), 1);
        // Deleting the self-partnered tuple must not report it as its
        // own orphan (it leaves together with its partner).
        let gone = delete(&mut stream, r, &tuple!["x", "x"]);
        assert!(gone.cind.resolved.is_empty(), "{gone:?}");
        assert!(gone.cind.introduced.is_empty(), "{gone:?}");
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn apply_and_revert_round_trip() {
        let v = bank_validator();
        let (mut stream, initial) = ValidatorStream::new_validated(v, bank_database());
        let interest = stream.db().schema().rel_id("interest").unwrap();
        let before = stream.db().clone();
        // A no-op: inserting a resident tuple.
        let resident = before.relation(interest).get(0).unwrap().clone();
        let noop = stream
            .apply(Mutation::Insert {
                rel: interest,
                tuple: resident,
            })
            .unwrap();
        assert!(noop.is_noop());
        assert!(noop.deltas.is_empty());
        // Apply then revert each kind; the violation set must come back.
        let cases = vec![
            Mutation::Insert {
                rel: interest,
                tuple: tuple!["GLA", "UK", "checking", "9.9%"],
            },
            Mutation::Delete {
                rel: interest,
                tuple: tuple!["EDI", "UK", "checking", "10.5%"],
            },
            Mutation::Update {
                rel: interest,
                old: tuple!["EDI", "UK", "checking", "10.5%"],
                new: tuple!["EDI", "UK", "checking", "1.5%"],
            },
        ];
        // Reverting restores the tuple *set*; dense positions may come
        // back permuted (swap-delete + append-reinsert), so compare the
        // database as sets and the violation state against a fresh batch
        // sweep rather than label-for-label against `initial`.
        let assert_restored = |stream: &ValidatorStream, m: &Mutation| {
            for (rel, inst) in before.iter() {
                assert_eq!(
                    inst,
                    stream.db().relation(rel),
                    "revert must restore the tuple set after {m:?}"
                );
            }
            let report = stream.current_report();
            assert_eq!(report.len(), initial.len(), "violation count after {m:?}");
            assert_eq!(
                report,
                stream.validator().validate_sorted(stream.db()),
                "live state must equal a batch sweep after {m:?}"
            );
        };
        for m in cases {
            let applied = stream.apply(m.clone()).unwrap();
            let revert = applied.revert.clone().expect("not a no-op");
            stream.revert(revert).unwrap();
            assert_restored(&stream, &m);
        }
        // An update onto a resident tuple merges (set semantics); its
        // revert restores `old` without deleting the resident partner.
        let old = tuple!["EDI", "UK", "checking", "10.5%"];
        let new = tuple!["EDI", "UK", "saving", "4.5%"];
        assert!(stream.db().relation(interest).contains(&new));
        let merge = Mutation::Update {
            rel: interest,
            old: old.clone(),
            new: new.clone(),
        };
        let applied = stream.apply(merge.clone()).unwrap();
        assert_eq!(stream.db().total_tuples(), before.total_tuples() - 1);
        stream.revert(applied.revert.unwrap()).unwrap();
        assert!(stream.db().relation(interest).contains(&old));
        assert!(stream.db().relation(interest).contains(&new));
        assert_restored(&stream, &merge);
    }

    /// The bank stream plus a relation id one past its schema's last.
    fn stream_and_missing_rel() -> (ValidatorStream, SigmaReport, condep_model::RelId) {
        let (stream, initial) = ValidatorStream::new_validated(bank_validator(), bank_database());
        let missing = condep_model::RelId(stream.db().schema().len() as u32);
        (stream, initial, missing)
    }

    #[test]
    fn apply_deltas_rejects_an_out_of_range_delete_with_nothing_applied() {
        let (mut stream, initial, missing) = stream_and_missing_rel();
        let interest = stream.db().schema().rel_id("interest").unwrap();
        let err = stream
            .apply_deltas(&[
                Mutation::Insert {
                    rel: interest,
                    tuple: tuple!["GLA", "UK", "checking", "9.9%"],
                },
                Mutation::Delete {
                    rel: missing,
                    tuple: tuple!["x"],
                },
            ])
            .unwrap_err();
        assert_eq!(
            err,
            condep_model::ModelError::RelOutOfRange(missing.index())
        );
        assert_eq!(stream.db().total_tuples(), bank_database().total_tuples());
        assert_eq!(stream.current_report(), initial);
    }

    #[test]
    fn apply_rejects_out_of_range_relations() {
        let (mut stream, initial, missing) = stream_and_missing_rel();
        let expected = condep_model::ModelError::RelOutOfRange(missing.index());
        for m in [
            Mutation::Delete {
                rel: missing,
                tuple: tuple!["x"],
            },
            Mutation::Insert {
                rel: missing,
                tuple: tuple!["x"],
            },
        ] {
            assert_eq!(stream.apply(m).unwrap_err(), expected);
        }
        assert_eq!(stream.current_report(), initial);
    }

    #[test]
    fn with_report_skips_the_sweep_but_matches_new_validated() {
        let db = bank_database();
        let report = bank_validator().validate_sorted(&db);
        let mut stream = ValidatorStream::with_report(bank_validator(), db.clone(), report.clone());
        assert_eq!(stream.current_report(), report);
        // The seeded stream is a full delta engine: mutate and compare
        // against a fresh batch sweep.
        let interest = db.schema().rel_id("interest").unwrap();
        insert(
            &mut stream,
            interest,
            tuple!["GLA", "UK", "checking", "9.9%"],
        );
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db())
        );
    }

    #[test]
    fn cfd_violation_class_returns_the_key_group() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("k", Domain::string()), ("v", Domain::string())])
                .finish(),
        );
        let cfd = NormalCfd::parse(&schema, "r", &["k"], prow![_], "v", PValue::Any).unwrap();
        let r = schema.rel_id("r").unwrap();
        let v = Validator::new(vec![cfd], vec![]);
        let (mut stream, _) = ValidatorStream::new_validated(v, Database::empty(schema));
        insert(&mut stream, r, tuple!["a", "x"]);
        insert(&mut stream, r, tuple!["b", "y"]);
        insert(&mut stream, r, tuple!["a", "z"]);
        let class = stream.cfd_violation_class(0, &tuple!["a", "x"]);
        assert_eq!(class, vec![0, 2], "both k=a tuples, position-sorted");
        assert_eq!(stream.cfd_violation_class(0, &tuple!["b", "y"]), vec![1]);
        // A key the stream has never seen: empty class, no panic.
        assert!(stream.cfd_violation_class(0, &tuple!["q", "w"]).is_empty());
    }

    /// The FD `r: k → v` over `r(a, k, v)`, its key attribute second,
    /// with a conflict on `k = a`; `s(x)` is a one-attribute relation.
    fn keyed_stream() -> ValidatorStream {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::string()),
                        ("k", Domain::string()),
                        ("v", Domain::string()),
                    ],
                )
                .relation("s", &[("x", Domain::string())])
                .finish(),
        );
        let cfd = NormalCfd::parse(&schema, "r", &["k"], prow![_], "v", PValue::Any).unwrap();
        let mut db = Database::empty(schema);
        for t in [
            tuple!["p", "a", "x"],
            tuple!["q", "b", "y"],
            tuple!["r", "a", "z"],
        ] {
            db.insert_into("r", t).unwrap();
        }
        ValidatorStream::new_validated(Validator::new(vec![cfd], vec![]), db).0
    }

    #[test]
    fn cfd_violation_class_of_an_unassigned_index_is_empty() {
        let stream = keyed_stream();
        let t = tuple!["p", "a", "x"];
        assert_eq!(stream.cfd_violation_class(0, &t), vec![0, 2]);
        assert!(stream.cfd_violation_class(1, &t).is_empty());
        assert!(stream.cfd_violation_class(usize::MAX, &t).is_empty());
    }

    #[test]
    fn cfd_violation_class_of_another_relations_tuple_is_empty() {
        let stream = keyed_stream();
        // A tuple of `s(x)` has no cell at the key attribute `k`.
        assert!(stream.cfd_violation_class(0, &tuple!["a"]).is_empty());
        // Nor does a wider tuple read as one of `r`.
        let wide = tuple!["p", "a", "x", "w"];
        assert!(stream.cfd_violation_class(0, &wide).is_empty());
    }

    #[test]
    fn is_cfd_retired_reads_an_unassigned_index_as_not_retired() {
        let mut v = bank_validator();
        let n = v.cfds().len();
        v.retire_dependencies(&(0..n).collect::<Vec<_>>(), &[])
            .unwrap();
        assert!((0..n).all(|i| v.is_cfd_retired(i)));
        assert!(!v.is_cfd_retired(n));
        assert!(!v.is_cfd_retired(usize::MAX));
    }

    #[test]
    fn is_cind_retired_reads_an_unassigned_index_as_not_retired() {
        let mut v = bank_validator();
        let n = v.cinds().len();
        v.retire_dependencies(&[], &(0..n).collect::<Vec<_>>())
            .unwrap();
        assert!((0..n).all(|i| v.is_cind_retired(i)));
        assert!(!v.is_cind_retired(n));
        assert!(!v.is_cind_retired(usize::MAX));
    }

    /// Σ's constants are pinned when the stream opens, so a constant the
    /// seed lacks already has the symbol its first carrier gets. Four
    /// such constants — a merged cover's extra pattern constant, a
    /// constant RHS, a CIND Xp constant and a CIND Yp constant — arrive,
    /// leave and arrive again, and the live report tracks a fresh sweep
    /// throughout.
    #[test]
    fn constants_that_arrive_after_the_seed_are_matched_by_symbol() {
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
                .relation("s", &[("d", Domain::string()), ("e", Domain::string())])
                .finish(),
        );
        let cfds = vec![
            NormalCfd::parse(&schema, "r", &["a"], prow![_], "c", PValue::Any).unwrap(),
            // Merged into the FD above as a cover: "late" is its extra
            // constant.
            NormalCfd::parse(&schema, "r", &["a"], prow!["late"], "c", PValue::Any).unwrap(),
            NormalCfd::parse(
                &schema,
                "r",
                &["b"],
                prow!["b1"],
                "c",
                PValue::constant("crhs"),
            )
            .unwrap(),
        ];
        let cinds = vec![
            condep_core::NormalCind::parse(
                &schema,
                "r",
                &["a"],
                &[("b", Value::str("xlate"))],
                "s",
                &["d"],
                &[],
            )
            .unwrap(),
            condep_core::NormalCind::parse(
                &schema,
                "r",
                &["a"],
                &[],
                "s",
                &["d"],
                &[("e", Value::str("ylate"))],
            )
            .unwrap(),
        ];
        let v = Validator::new(cfds, cinds);
        assert_eq!(v.compiled_cfd_members(), 2, "the cover must merge");
        let mut db = Database::empty(schema.clone());
        for t in [
            tuple!["k", "b1", "c0"],
            tuple!["k", "b2", "c1"],
            tuple!["m", "b1", "c0"],
        ] {
            db.insert_into("r", t).unwrap();
        }
        db.insert_into("s", tuple!["k", "e0"]).unwrap();
        db.insert_into("s", tuple!["m", "e1"]).unwrap();
        let (r, s) = (schema.rel_id("r").unwrap(), schema.rel_id("s").unwrap());
        let (mut stream, _) = ValidatorStream::new_validated(v, db);
        // Eight resident strings, plus the four pinned late constants
        // ("b1" is resident).
        assert_eq!(gauge(&stream, "stream.interner.strings"), 12);

        let arrivals = [
            (r, tuple!["late", "xlate", "c5"]),
            (r, tuple!["late", "b1", "crhs"]),
            (r, tuple!["late", "b1", "c6"]),
            (r, tuple!["z", "xlate", "c7"]),
            (s, tuple!["late", "ylate"]),
            (s, tuple!["k", "ylate"]),
        ];
        let ins: Vec<Mutation> = arrivals
            .iter()
            .map(|(rel, tuple)| Mutation::Insert {
                rel: *rel,
                tuple: tuple.clone(),
            })
            .collect();
        let del: Vec<Mutation> = arrivals
            .iter()
            .map(|(rel, tuple)| Mutation::Delete {
                rel: *rel,
                tuple: tuple.clone(),
            })
            .collect();
        let mut again = ins.clone();
        again.reverse();
        for (window, muts) in [ins, del, again].iter().enumerate() {
            stream.apply_deltas(muts).unwrap();
            let fresh = stream.validator().validate_sorted(stream.db());
            assert_eq!(stream.current_report(), fresh, "window {window}");
            assert_eq!(fresh, reference_report(stream.validator(), stream.db()));
            let fired = |cfd: usize| fresh.cfd.iter().any(|(i, _)| *i == cfd);
            let fired_cind = |cind: usize| fresh.cind.iter().any(|(i, _)| *i == cind);
            if window == 1 {
                // Back to the seed: only the seed's violations remain.
                assert!(!fired(1), "{fresh:?}");
                assert_eq!(gauge(&stream, "stream.interner.strings"), 12);
            } else {
                // The late carriers fire the cover, keep "crhs" quiet
                // under `b1`, trigger the Xp member and satisfy some Yp
                // probes.
                assert!(fired(1), "{fresh:?}");
                assert!(fired_cind(0), "{fresh:?}");
                let crhs_pos = stream
                    .db()
                    .relation(r)
                    .position(&tuple!["late", "b1", "crhs"])
                    .unwrap();
                assert!(!fresh.cfd.iter().any(|(i, viol)| *i == 2
                    && matches!(viol, CfdViolation::SingleTuple { tuple, .. } if *tuple == crhs_pos)));
                let late_pos = stream
                    .db()
                    .relation(r)
                    .position(&tuple!["late", "xlate", "c5"])
                    .unwrap();
                assert!(!fresh
                    .cind
                    .iter()
                    .any(|(i, viol)| *i == 1 && viol.tuple == late_pos));
            }
        }
    }

    /// The storage gauge `name` of a stream's telemetry.
    fn gauge(stream: &ValidatorStream, name: &str) -> i64 {
        match stream.telemetry().snapshot().get(name) {
            Some(condep_telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn key_groups_are_freed_with_their_last_tuple_under_churn() {
        // A stream over ever-fresh keys: every key group is freed with
        // its last tuple, so the live key count stays bounded by the
        // resident data with no maintenance call.
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("k", Domain::string()), ("v", Domain::string())])
                .relation("dst", &[("c", Domain::string())])
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "src", &["k"], prow![_], "v", PValue::Any).unwrap();
        let cind = condep_core::NormalCind::parse(&schema, "src", &["k"], &[], "dst", &["c"], &[])
            .unwrap();
        let src = schema.rel_id("src").unwrap();
        let v = Validator::new(vec![fd], vec![cind]);
        let mut db = Database::empty(schema);
        db.insert_into("src", tuple!["resident", "x"]).unwrap();
        db.insert_into("dst", tuple!["resident"]).unwrap();
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        assert!(initial.is_empty());

        // One resident key in the CFD index, one in the CIND target
        // index, one in the reverse source index.
        assert_eq!(gauge(&stream, "stream.index.keys"), 3);
        // Churn rounds of 40 insert+delete pairs with fresh keys. A
        // fresh key opens a group in the CFD index and the reverse
        // source index (it is in no target), and its delete frees both:
        // the live key count never grows with the rounds.
        for round in 0..5u32 {
            for i in 0..40u32 {
                let t = tuple![format!("churn{round}_{i}").as_str(), "y"];
                insert(&mut stream, src, t.clone());
                assert_eq!(gauge(&stream, "stream.index.keys"), 5, "round {round}");
                delete(&mut stream, src, &t);
                assert_eq!(gauge(&stream, "stream.index.keys"), 3, "round {round}");
            }
        }
        assert_eq!(gauge(&stream, "stream.index.live"), 3);
        assert!(gauge(&stream, "stream.index.stored") <= 14 * 3);

        // The churned stream is still a correct delta engine.
        let noisy = insert(&mut stream, src, tuple!["resident", "z"]);
        assert_eq!(noisy.cfd.introduced.len(), 1, "{noisy:?}");
        let orphan = insert(&mut stream, src, tuple!["lonely", "w"]);
        assert_eq!(orphan.cind.introduced.len(), 1, "{orphan:?}");
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn windows_give_each_mutation_kind_its_fixed_slots() {
        let (mut stream, _) = ValidatorStream::new_validated(bank_validator(), bank_database());
        let rel = stream.db().schema().rel_id("interest").unwrap();
        let resident = stream.db().relation(rel).get(0).unwrap().clone();
        let other = stream.db().relation(rel).get(1).unwrap().clone();
        let fresh = tuple!["GLA", "UK", "checking", "9.9%"];
        let absent = tuple!["ABD", "UK", "saving", "1.0%"];
        let ins = |tuple: &Tuple| Mutation::Insert {
            rel,
            tuple: tuple.clone(),
        };
        let del = |tuple: &Tuple| Mutation::Delete {
            rel,
            tuple: tuple.clone(),
        };
        let upd = |old: &Tuple, new: &Tuple| Mutation::Update {
            rel,
            old: old.clone(),
            new: new.clone(),
        };
        // Per slot: (carries `born`, carries `retired`). The steps run in
        // order, each against the state the previous one left.
        const B: (bool, bool) = (true, false);
        const R: (bool, bool) = (false, true);
        const E: (bool, bool) = (false, false);
        let table = [
            ("effective insert", ins(&fresh), vec![B]),
            ("resident insert", ins(&fresh), vec![E]),
            ("effective delete", del(&fresh), vec![R]),
            ("absent delete", del(&fresh), vec![E]),
            ("effective update", upd(&resident, &fresh), vec![R, B]),
            ("merging update", upd(&fresh, &other), vec![R, E]),
            (
                "update of an absent tuple",
                upd(&absent, &fresh),
                vec![E, E],
            ),
            ("old == new", upd(&other, &other), vec![E, E]),
        ];
        for (what, m, slots) in table {
            let before = stream.db().clone();
            // `apply` on a copy: the same non-empty deltas, and a revert
            // that restores the tuple set.
            let mut probe = stream.clone();
            let applied = probe.apply(m.clone()).unwrap();
            let deltas = stream.apply_deltas(std::slice::from_ref(&m)).unwrap();
            let got: Vec<(bool, bool)> = deltas
                .iter()
                .map(|d| (d.ids.born.is_some(), d.ids.retired.is_some()))
                .collect();
            assert_eq!(got, slots, "{what}: slot shape");
            for (d, &slot) in deltas.iter().zip(&slots) {
                if slot == E {
                    assert_eq!(d, &SigmaDelta::default(), "{what}: empty slot");
                }
            }
            let effective: Vec<SigmaDelta> = deltas
                .iter()
                .filter(|d| **d != SigmaDelta::default())
                .cloned()
                .collect();
            assert_eq!(applied.deltas, effective, "{what}: apply's deltas");
            assert_eq!(applied.is_noop(), effective.is_empty(), "{what}");
            if let Some(revert) = applied.revert {
                probe.revert(revert).unwrap();
            }
            for (r, inst) in before.iter() {
                assert_eq!(inst, probe.db().relation(r), "{what}: revert");
            }
            assert_eq!(
                probe.current_report(),
                probe.validator().validate_sorted(probe.db()),
                "{what}: reverted live state"
            );
            assert_eq!(
                stream.current_report(),
                stream.validator().validate_sorted(stream.db()),
                "{what}: live state"
            );
        }
    }

    #[test]
    fn apply_deltas_matches_sequential_apply() {
        // A window must produce exactly the deltas its mutations produce
        // as windows of one (concatenated), leave the same violation
        // state, and type-check the window up front.
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("a", Domain::string()), ("b", Domain::string())])
                .relation("dst", &[("c", Domain::finite_strs(&["k", "j"]))])
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "src", &["a"], prow![_], "b", PValue::Any).unwrap();
        let pin = NormalCfd::parse(
            &schema,
            "src",
            &["a"],
            prow!["zzz"],          // a constant no seed tuple carries: the member
            "b",                   // must become matchable mid-batch when "zzz"
            PValue::constant("v"), // arrives.
        )
        .unwrap();
        let cind = condep_core::NormalCind::parse(&schema, "src", &["a"], &[], "dst", &["c"], &[])
            .unwrap();
        let src = schema.rel_id("src").unwrap();
        let dst = schema.rel_id("dst").unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_into("src", tuple!["k", "v1"]).unwrap();
        db.insert_into("src", tuple!["k", "v2"]).unwrap();
        db.insert_into("dst", tuple!["k"]).unwrap();
        let v = Validator::new(vec![fd, pin], vec![cind]);
        let muts = vec![
            Mutation::Insert {
                rel: src,
                tuple: tuple!["zzz", "w"], // fires the pin (w ≠ v), orphan
            },
            Mutation::Insert {
                rel: src,
                tuple: tuple!["k", "v1"], // resident: no-op
            },
            Mutation::Delete {
                rel: src,
                tuple: tuple!["k", "v1"], // swap + pair restructure
            },
            Mutation::Update {
                rel: src,
                old: tuple!["zzz", "w"],
                new: tuple!["zzz", "v"], // repairs the pin violation
            },
            Mutation::Update {
                rel: src,
                old: tuple!["k", "v2"],
                new: tuple!["zzz", "v"], // merge-degenerate update
            },
            Mutation::Delete {
                rel: src,
                tuple: tuple!["absent", "x"], // no-op (unknown strings)
            },
        ];
        let (mut batched, _) = ValidatorStream::new_validated(v.clone(), db.clone());
        let (mut sequential, _) = ValidatorStream::new_validated(v.clone(), db.clone());
        let batch_deltas = batched.apply_deltas(&muts).unwrap();
        let mut seq_deltas = Vec::new();
        for m in &muts {
            seq_deltas.extend(sequential.apply_deltas(std::slice::from_ref(m)).unwrap());
        }
        assert_eq!(batch_deltas, seq_deltas);
        assert_eq!(batch_deltas.len(), muts.len() + 2, "two updates");
        assert_eq!(batched.current_report(), sequential.current_report());
        assert_eq!(
            batched.current_report(),
            v.validate_sorted(batched.db()),
            "batched live state must equal a fresh sweep"
        );
        // An ill-typed batch applies nothing at all.
        let before = batched.current_report();
        let bad = vec![
            Mutation::Insert {
                rel: src,
                tuple: tuple!["ok", "fine"],
            },
            Mutation::Insert {
                rel: dst,
                tuple: tuple!["outside-finite-domain"],
            },
        ];
        assert!(batched.apply_deltas(&bad).is_err());
        assert_eq!(batched.current_report(), before);
        assert!(!batched.db().relation(src).contains(&tuple!["ok", "fine"]));
    }

    #[test]
    fn batch_mutations_handle_uninterned_conditioned_cind_cells() {
        // A cell reachable ONLY through a conditioned CIND source role
        // is never interned for tuples that do not trigger the CIND.
        // The batch path must still delete/update such resident tuples
        // exactly like the sequential path (regression: it used to skip
        // the delete as "not resident" and panic on the update).
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .relation("s", &[("x", Domain::string())])
                .finish(),
        );
        let cind = condep_core::NormalCind::parse(
            &schema,
            "r",
            &["a"],
            &[("b", condep_model::Value::str("go"))],
            "s",
            &["x"],
            &[],
        )
        .unwrap();
        let r = schema.rel_id("r").unwrap();
        let v = Validator::new(vec![], vec![cind]);
        let (mut stream, _) = ValidatorStream::new_validated(v.clone(), Database::empty(schema));
        // Non-triggering (b ≠ "go"): its `a` cell is never interned.
        insert(&mut stream, r, tuple!["orphan", "stop"]);
        // Batch update of the resident non-triggering tuple.
        let deltas = stream
            .apply_deltas(&[Mutation::Update {
                rel: r,
                old: tuple!["orphan", "stop"],
                new: tuple!["orphan2", "stop"],
            }])
            .unwrap();
        assert_eq!(deltas.len(), 2, "delete + insert deltas: {deltas:?}");
        assert!(stream.db().relation(r).contains(&tuple!["orphan2", "stop"]));
        // Batch delete of it.
        let deltas = stream
            .apply_deltas(&[Mutation::Delete {
                rel: r,
                tuple: tuple!["orphan2", "stop"],
            }])
            .unwrap();
        assert_eq!(deltas.len(), 1, "{deltas:?}");
        assert!(stream.db().relation(r).is_empty());
        // A genuinely absent tuple is still a no-op: one empty slot.
        let deltas = stream
            .apply_deltas(&[Mutation::Delete {
                rel: r,
                tuple: tuple!["never", "there"],
            }])
            .unwrap();
        assert_eq!(deltas, [SigmaDelta::default()]);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn tuple_ids_stay_stable_through_mutations_and_churn() {
        // Churn frees key groups and strings as it goes; none of that
        // renumbers a live id.
        let v = bank_validator();
        let db = bank_database();
        let interest = db.schema().rel_id("interest").unwrap();
        let (mut stream, _) = ValidatorStream::new_validated(v, db);
        // Dense seeding: TupleId(p) == seed position p.
        let t3 = stream.db().relation(interest).get(3).unwrap().clone();
        let id3 = stream.tuple_id_at(interest, 3).unwrap();
        assert_eq!(id3, condep_model::TupleId(3));
        assert_eq!(stream.tuple_by_id(interest, id3), Some(&t3));
        // Deleting position 0 swaps the last tuple down; id3 follows its
        // tuple, and the retired id resolves to None forever.
        let t0 = stream.db().relation(interest).get(0).unwrap().clone();
        let id0 = stream.tuple_id_at(interest, 0).unwrap();
        let delta = delete(&mut stream, interest, &t0);
        assert_eq!(delta.ids.retired, Some(id0));
        assert_eq!(delta.ids.moved, stream.tuple_id_at(interest, 0));
        assert!(delta.ids.moved.is_some());
        assert_eq!(stream.position_of(interest, id0), None);
        assert_eq!(stream.tuple_by_id(interest, id3), Some(&t3));
        // An insert allocates a fresh id (never a recycled one).
        let born = insert(
            &mut stream,
            interest,
            tuple!["GLA", "UK", "checking", "1.5%"],
        )
        .ids
        .born
        .unwrap();
        assert!(born > id0 && born > id3);
        assert_eq!(
            stream.tuple_by_id(interest, born),
            Some(&tuple!["GLA", "UK", "checking", "1.5%"])
        );
        // A tuple with a fresh key comes and goes: its group and its
        // strings are freed, and every live id still resolves.
        let report_before = stream.current_report();
        let passing = tuple!["ABD", "UK", "saving", "0.1%"];
        insert(&mut stream, interest, passing.clone());
        delete(&mut stream, interest, &passing);
        assert_eq!(stream.tuple_by_id(interest, id3), Some(&t3));
        assert_eq!(
            stream.tuple_by_id(interest, born),
            Some(&tuple!["GLA", "UK", "checking", "1.5%"])
        );
        assert_eq!(stream.position_of(interest, id0), None);
        assert_eq!(stream.current_report(), report_before);
    }

    #[test]
    fn strings_die_with_their_last_cached_cell() {
        // High-key-churn stream: every round floods fresh string keys
        // through insert+delete pairs. A string dies with the last
        // cached cell holding it, so the dictionary holds only the live
        // distinct values, with no maintenance call.
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("k", Domain::string()), ("v", Domain::string())])
                .relation("dst", &[("c", Domain::string())])
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "src", &["k"], prow![_], "v", PValue::Any).unwrap();
        let cind = condep_core::NormalCind::parse(&schema, "src", &["k"], &[], "dst", &["c"], &[])
            .unwrap();
        let src = schema.rel_id("src").unwrap();
        let v = Validator::new(vec![fd], vec![cind]);
        let mut db = Database::empty(schema);
        db.insert_into("src", tuple!["resident", "x"]).unwrap();
        db.insert_into("dst", tuple!["resident"]).unwrap();
        let (mut stream, _) = ValidatorStream::new_validated(v, db);
        // Only the live resident cells are held: "resident" (one shared
        // string across three index tiers) plus the resident tuple's
        // RHS cell "x", which the row cache keeps for witness compares.
        assert_eq!(gauge(&stream, "stream.interner.strings"), 2);
        for round in 0..4u32 {
            for i in 0..50u32 {
                let t = tuple![format!("churn{round}_{i}").as_str(), "y"];
                insert(&mut stream, src, t.clone());
                // The churned key and its "y" RHS cell are held while
                // the tuple resides…
                assert_eq!(gauge(&stream, "stream.interner.strings"), 4);
                delete(&mut stream, src, &t);
                // …and released with it.
                assert_eq!(
                    gauge(&stream, "stream.interner.strings"),
                    2,
                    "round {round}"
                );
            }
        }
        // The churned stream is still a correct delta engine, both for
        // keys it kept and for keys it dropped and re-learns.
        let noisy = insert(&mut stream, src, tuple!["resident", "z"]);
        assert_eq!(noisy.cfd.introduced.len(), 1, "{noisy:?}");
        let back = insert(&mut stream, src, tuple!["churn0_0", "y"]);
        assert_eq!(back.cind.introduced.len(), 1, "{back:?}");
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        // Batched mutations keep working against reused symbols.
        let deltas = stream
            .apply_deltas(&[
                Mutation::Delete {
                    rel: src,
                    tuple: tuple!["churn0_0", "y"],
                },
                Mutation::Insert {
                    rel: src,
                    tuple: tuple!["resident", "w"],
                },
            ])
            .unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn add_dependencies_extends_the_live_suite() {
        // Start monitoring with only ϕ3, then promote the remaining bank
        // constraints into the live stream — no re-materialization, and
        // the grown suite must agree with a fresh batch sweep.
        let db = bank_database();
        let v = Validator::new(normalize_cfds(&[cfd_fx::phi3()]), vec![]);
        let n_initial_cfds = v.cfds().len();
        let (mut stream, _) = ValidatorStream::new_validated(v, db);
        let interest = stream.db().schema().rel_id("interest").unwrap();
        let id0 = stream.tuple_id_at(interest, 0).unwrap();
        let new_cfds = normalize_cfds(&[cfd_fx::phi1(), cfd_fx::phi2()]);
        let new_cinds = normalize_cinds(&cind_fx::figure_2());
        let introduced = stream.add_dependencies(new_cfds.clone(), new_cinds.clone());
        // Newcomers report against their final (shifted) Σ indices.
        assert!(introduced.cfd.iter().all(|(i, _)| *i >= n_initial_cfds));
        assert_eq!(
            introduced.cind.len(),
            1,
            "ψ6's t10 violation: {introduced:?}"
        );
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        // Held ids survive the splice (nothing re-materialized).
        assert_eq!(stream.position_of(interest, id0), Some(0));
        // The grown stream is still a correct delta engine, including
        // for the freshly added members.
        let dirty = insert(
            &mut stream,
            interest,
            tuple!["GLA", "UK", "checking", "9.9%"],
        );
        assert!(!dirty.is_quiet());
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        let saving = stream.db().schema().rel_id("saving").unwrap();
        delete(
            &mut stream,
            saving,
            &tuple!["01", "J. Smith", "NYC, 19087", "212-5820844", "NYC"],
        );
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        // Adding nothing is free and quiet.
        assert!(stream.add_dependencies(vec![], vec![]).is_empty());
    }

    #[test]
    fn retire_representative_splits_covered_members() {
        // The wildcard row covers the constant row (same RHS): one
        // compiled member. Retiring the REPRESENTATIVE must re-seat the
        // covered row as its own member — probe pattern included —
        // because emission sites never re-check covers[0]'s pattern.
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        let rep = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let covered = NormalCfd::parse(&schema, "r", &["a"], prow!["k"], "b", PValue::Any).unwrap();
        let v = Validator::new(vec![rep, covered], vec![]);
        assert_eq!(v.compiled_cfd_members(), 1, "cover must merge the rows");
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["k", "v1"]).unwrap();
        db.insert_into("r", tuple!["k", "v2"]).unwrap();
        db.insert_into("r", tuple!["q", "w1"]).unwrap();
        db.insert_into("r", tuple!["q", "w2"]).unwrap();
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        // Both rows fire on the k-group, only the wildcard on q.
        assert_eq!(initial.cfd.len(), 3, "{initial:?}");
        let resolved = stream.retire_dependencies(&[0], &[]).unwrap();
        assert_eq!(resolved.cfd.len(), 2, "{resolved:?}");
        assert!(resolved.cfd.iter().all(|(i, _)| *i == 0));
        assert!(stream.validator().is_cfd_retired(0));
        assert!(!stream.validator().is_cfd_retired(1));
        assert_eq!(stream.violation_count(), 1);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        // The split-out member keeps firing on exactly its own pattern:
        // a new k-conflict reports, a new q-conflict stays quiet.
        let r = stream.db().schema().rel_id("r").unwrap();
        let noisy = insert(&mut stream, r, tuple!["k", "v3"]);
        assert_eq!(noisy.cfd.introduced.len(), 1, "{noisy:?}");
        assert!(noisy.cfd.introduced.iter().all(|(i, _)| *i == 1));
        let quiet = insert(&mut stream, r, tuple!["q", "w3"]);
        assert!(
            quiet.is_quiet(),
            "retired wildcard must not fire: {quiet:?}"
        );
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        // Retiring the survivor (now a sole member) empties the suite;
        // retiring twice is a no-op.
        let resolved = stream.retire_dependencies(&[1, 0], &[]).unwrap();
        assert!(resolved.cfd.iter().all(|(i, _)| *i == 1));
        assert_eq!(stream.violation_count(), 0);
        assert!(stream.retire_dependencies(&[0, 1], &[]).unwrap().is_empty());
        let calm = insert(&mut stream, r, tuple!["k", "v4"]);
        assert!(calm.is_quiet(), "{calm:?}");
    }

    #[test]
    fn retire_cind_promotes_covers_and_removes_members() {
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("a", Domain::string()), ("b", Domain::string())])
                .relation("dst", &[("c", Domain::string())])
                .finish(),
        );
        let c1 = condep_core::NormalCind::parse(&schema, "src", &["a"], &[], "dst", &["c"], &[])
            .unwrap();
        let c2 = c1.clone(); // payload-identical: the cover merges it
        let c3 = condep_core::NormalCind::parse(&schema, "src", &["b"], &[], "dst", &["c"], &[])
            .unwrap();
        let dst = schema.rel_id("dst").unwrap();
        let v = Validator::new(vec![], vec![c1, c2, c3]);
        assert_eq!(v.group_count(), 1, "one shared target group");
        let mut db = Database::empty(schema.clone());
        db.insert_into("src", tuple!["k", "k"]).unwrap();
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        // The orphan source violates all three CINDs.
        assert_eq!(initial.cind.len(), 3);
        // Retire the member identity (covers[0]): the duplicate is
        // promoted in place and keeps reporting.
        let resolved = stream.retire_dependencies(&[], &[0]).unwrap();
        assert!(resolved.cind.iter().all(|(i, _)| *i == 0));
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        assert_eq!(stream.violation_count(), 2);
        // Retire the promoted duplicate: the whole member goes, and the
        // per-member source indexes must stay aligned for c3.
        stream.retire_dependencies(&[], &[1]).unwrap();
        assert_eq!(stream.violation_count(), 1);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
        // c3 is still live through its (shifted) member: a partner
        // arrival resolves its orphan, a departure re-orphans it.
        let arrival = insert(&mut stream, dst, tuple!["k"]);
        assert_eq!(
            arrival.cind.resolved,
            vec![(2, arrival.cind.resolved[0].1.clone())]
        );
        assert_eq!(stream.violation_count(), 0);
        let gone = delete(&mut stream, dst, &tuple!["k"]);
        assert_eq!(gone.cind.introduced.len(), 1);
        assert!(gone.cind.introduced.iter().all(|(i, _)| *i == 2));
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn retiring_an_unknown_index_is_an_error_and_retires_nothing() {
        let v = bank_validator();
        let (n_cfds, n_cinds) = (v.cfds().len(), v.cinds().len());
        let (mut stream, initial) = ValidatorStream::new_validated(v, bank_database());
        assert!(!initial.cfd.is_empty() && !initial.cind.is_empty());
        // The valid index precedes the unknown one: it must not be
        // retired either.
        assert_eq!(
            stream.retire_dependencies(&[0, n_cfds + 7], &[]),
            Err(UnknownDependency::Cfd(n_cfds + 7))
        );
        assert_eq!(
            stream.retire_dependencies(&[0], &[0, n_cinds]),
            Err(UnknownDependency::Cind(n_cinds))
        );
        assert!((0..n_cfds).all(|i| !stream.validator().is_cfd_retired(i)));
        assert!((0..n_cinds).all(|i| !stream.validator().is_cind_retired(i)));
        assert_eq!(stream.current_report(), initial);
        // A valid retire afterwards still works.
        let ci = initial.cind[0].0;
        let resolved = stream.retire_dependencies(&[], &[ci]).unwrap();
        assert!(!resolved.is_empty() && resolved.cind.iter().all(|(i, _)| *i == ci));
        assert!(stream.validator().is_cind_retired(ci));
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db())
        );
    }

    #[test]
    fn add_after_retire_allocates_fresh_indices() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        let fd = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let r = schema.rel_id("r").unwrap();
        let v = Validator::new(vec![fd.clone()], vec![]);
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["k", "v1"]).unwrap();
        db.insert_into("r", tuple!["k", "v2"]).unwrap();
        let (mut stream, initial) = ValidatorStream::new_validated(v, db);
        assert_eq!(initial.cfd.len(), 1);
        stream.retire_dependencies(&[0], &[]).unwrap();
        assert_eq!(stream.violation_count(), 0);
        // Re-adding the same FD gets index 1 and finds the conflict
        // again; index 0 stays retired forever.
        let back = stream.add_dependencies(vec![fd], vec![]);
        assert_eq!(back.cfd.len(), 1);
        assert!(back.cfd.iter().all(|(i, _)| *i == 1));
        assert!(stream.validator().is_cfd_retired(0));
        assert!(!stream.validator().is_cfd_retired(1));
        let noisy = insert(&mut stream, r, tuple!["k", "v3"]);
        assert_eq!(noisy.cfd.introduced.len(), 1);
        assert_eq!(
            stream.current_report(),
            stream.validator().validate_sorted(stream.db()),
        );
    }

    #[test]
    fn parallel_sweep_agrees_with_reference_at_scale() {
        // A deterministic pseudo-random instance big enough to cross the
        // parallel threshold, with planted violations.
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
                        ("g", Domain::string()),
                        ("v", Domain::string()),
                    ],
                )
                .finish(),
        );
        let mut db = Database::empty(schema.clone());
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..6000u64 {
            let k = format!("k{}", next(&mut state) % 900);
            let g = format!("g{}", next(&mut state) % 7);
            let v = if i % 997 == 0 {
                "odd".to_string()
            } else {
                format!("v{}", next(&mut state) % 3)
            };
            db.insert_into("r", tuple![k.as_str(), g.as_str(), v.as_str()])
                .unwrap();
        }
        let cfds = vec![
            NormalCfd::parse(&schema, "r", &["k"], prow![_], "v", PValue::Any).unwrap(),
            NormalCfd::parse(&schema, "r", &["k"], prow!["k1"], "g", PValue::Any).unwrap(),
            NormalCfd::parse(
                &schema,
                "r",
                &["g"],
                prow!["g3"],
                "v",
                PValue::constant("v0"),
            )
            .unwrap(),
            NormalCfd::parse(&schema, "r", &["g", "k"], prow![_, _], "v", PValue::Any).unwrap(),
        ];
        let v = Validator::new(cfds, vec![]);
        assert!(db.total_tuples() >= 4096, "must exercise the parallel path");
        let report = v.validate_sorted(&db);
        let expected = reference_report(&v, &db);
        assert_eq!(report, expected);
        assert!(!report.is_empty(), "planted violations must surface");
    }
}
