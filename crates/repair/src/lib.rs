#![warn(missing_docs)]

//! # condep-repair
//!
//! A cost-based repair engine closing the paper's data-cleaning loop:
//! **detect** (the batched validator) → **explain** (violation reports
//! with witnesses) → **fix** (this crate). It takes a
//! [`condep_model::Database`] and a compiled
//! [`condep_validate::Validator`] Σ, and produces a repaired database
//! plus an auditable [`RepairReport`].
//!
//! ## How it works
//!
//! * **Cost model** ([`RepairCost`]) — per-cell edit weights (with
//!   per-attribute overrides), a tuple-deletion weight and an insertion
//!   weight; the default instance is uniform.
//! * **CFD violations** are settled per **equivalence class**: the
//!   conflicting cells (`(tuple, RHS attribute)` pairs sharing an LHS
//!   key group) are grouped with a union-find — classes sharing a cell
//!   merge, since one cell can only take one value. A constant-pattern
//!   RHS forces the constant; a variable RHS picks the majority value
//!   of the class (the cheapest resolving target under per-cell costs).
//!   Dissenting cells are edited toward the target, or their tuples
//!   deleted when that is cheaper (or when the edit provably cannot
//!   help).
//! * **CIND violations** are repaired by either **inserting the chased
//!   target tuple** — pattern instantiation reuses the chase machinery
//!   ([`condep_chase::ops::forced_target_template`]) — or **deleting
//!   the orphan source**, whichever is cheaper.
//! * **Every candidate fix is verified through the delta engine**: it
//!   is applied via [`condep_validate::ValidatorStream::apply`], its
//!   [`condep_validate::SigmaDelta`]s are inspected, and it is kept
//!   only when strictly net-negative (resolves more than it
//!   introduces); otherwise it is rolled back through
//!   [`condep_validate::ValidatorStream::revert`]. The violation count
//!   therefore decreases monotonically, and the fixpoint loop
//!   terminates within the cascade budget ([`RepairBudget`]).
//!
//! ## Non-optimality
//!
//! Finding a minimum-cost repair is NP-hard already for plain FDs
//! (Bohannon et al., "A cost-based model and effective heuristic for
//! repairing constraints by value modification", SIGMOD 2005) — this
//! crate ships a bounded greedy heuristic, not an optimum: per class it
//! commits to the locally cheapest resolving target, and the delta
//! check guarantees soundness (never a net-worse database), not
//! minimality.

mod cost;
mod engine;
mod log;

pub use condep_validate::{SigmaLint, UnsatSigma};
pub use cost::RepairCost;
pub use engine::{repair, RepairBudget};
pub use log::{AppliedFix, Fix, Motive, RepairLog, RepairReport};

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::fixtures as cfd_fx;
    use condep_cfd::normalize::normalize_all as normalize_cfds;
    use condep_core::fixtures as cind_fx;
    use condep_core::normalize::normalize_all as normalize_cinds;
    use condep_model::fixtures::bank_database;
    use condep_model::{prow, tuple, Database, Domain, PValue, Schema, Value};
    use condep_validate::Validator;
    use std::sync::Arc;

    fn bank_validator() -> Validator {
        Validator::new(
            normalize_cfds(&[cfd_fx::phi1(), cfd_fx::phi2(), cfd_fx::phi3()]),
            normalize_cinds(&cind_fx::figure_2()),
        )
    }

    fn run(validator: Validator, db: Database) -> (Database, RepairReport) {
        repair(
            validator,
            db,
            &RepairCost::uniform(),
            &RepairBudget::default(),
        )
        .expect("fixture sigmas are satisfiable")
    }

    #[test]
    fn bank_database_repairs_to_clean() {
        // Figure 1's dirty instance: t12 violates ϕ3 (10.5% where the
        // pattern forces 1.5%) and t10 violates ψ6 (no saving partner).
        let validator = bank_validator();
        let db = bank_database();
        assert_eq!(validator.validate(&db).len(), 2);
        let (repaired, report) = run(bank_validator(), db);
        assert!(report.is_clean(), "residual: {:?}", report.residual);
        assert!(bank_validator().validate(&repaired).is_empty());
        assert_eq!(report.initial_violations, 2);
        // The CFD fix is the paper's: t12's rate edited to the pattern
        // constant, not the tuple thrown away.
        let interest = repaired.schema().rel_id("interest").unwrap();
        assert!(repaired
            .relation(interest)
            .contains(&tuple!["EDI", "UK", "checking", "1.5%"]));
        assert!(!repaired
            .relation(interest)
            .contains(&tuple!["EDI", "UK", "checking", "10.5%"]));
        let edits = report
            .log
            .applied
            .iter()
            .filter(|a| matches!(a.fix, Fix::EditCells { .. }))
            .count();
        assert!(edits >= 1, "t12 must be repaired by a cell edit");
        // Every kept fix was proven net-negative by its deltas.
        for a in &report.log.applied {
            assert!(a.net_change() < 0, "non-net-negative fix kept: {a:?}");
        }
    }

    #[test]
    fn fix_targets_link_the_audit_log_to_ground_truth_ids() {
        // The dirt injector reports each injection's stable TupleId
        // (dense-seeding convention); the repair stream is seeded the
        // same way, so the audit log's `target` ids stay comparable to
        // the ground truth even after fixes swap-renumber positions.
        let clean = condep_model::fixtures::clean_bank_database();
        let cfds = normalize_cfds(&[cfd_fx::phi1(), cfd_fx::phi2(), cfd_fx::phi3()]);
        let cinds = normalize_cinds(&cind_fx::figure_2());
        let dirtied = condep_gen::dirtied_database(
            &clean,
            &cfds,
            &cinds,
            0.3,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11),
        );
        assert!(!dirtied.injected.is_empty());
        let (_, report) = run(Validator::new(cfds, cinds), dirtied.db.clone());
        // Every kept fix names the stable id of the tuple it acted on...
        for a in &report.log.applied {
            assert!(a.target.is_some(), "fix without a target id: {a:?}");
        }
        // ...and at least one of them is an injected tuple (the engine
        // may also settle class members the injection dragged in, but it
        // cannot repair the dirt without ever touching it).
        let injected: std::collections::HashSet<_> =
            dirtied.injected.iter().map(|d| (d.rel(), d.id())).collect();
        let touched = report
            .log
            .applied
            .iter()
            .filter_map(|a| {
                let rel = match &a.fix {
                    Fix::EditCells { rel, .. }
                    | Fix::DeleteTuple { rel, .. }
                    | Fix::InsertTuple { rel, .. } => *rel,
                };
                a.target.map(|id| (rel, id))
            })
            .filter(|key| injected.contains(key))
            .count();
        assert!(
            touched >= 1,
            "no kept fix targeted an injected tuple: {:?}",
            report.log.applied
        );
    }

    #[test]
    fn majority_wins_in_a_variable_rhs_class() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("k", Domain::string()), ("v", Domain::string())])
                .finish(),
        );
        let cfd =
            condep_cfd::NormalCfd::parse(&schema, "r", &["k"], prow![_], "v", PValue::Any).unwrap();
        let mut db = Database::empty(schema);
        db.insert_into("r", tuple!["a", "good"]).unwrap();
        db.insert_into("r", tuple!["a", "typo"]).unwrap();
        db.insert_into("r", tuple!["a", "good2"]).unwrap();
        let (repaired, report) = run(Validator::new(vec![cfd.clone()], vec![]), db);
        assert!(report.is_clean());
        let r = repaired.schema().rel_id("r").unwrap();
        // All tuples agree on v now; with set semantics they collapsed.
        let vals: std::collections::HashSet<&Value> = repaired
            .relation(r)
            .iter()
            .map(|t| &t[condep_model::AttrId(1)])
            .collect();
        assert_eq!(vals.len(), 1, "class must agree after repair");
    }

    #[test]
    fn constant_rhs_forces_the_pattern_constant() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("k", Domain::string()), ("v", Domain::string())])
                .finish(),
        );
        let cfd = condep_cfd::NormalCfd::parse(
            &schema,
            "r",
            &["k"],
            prow!["uk"],
            "v",
            PValue::constant("44"),
        )
        .unwrap();
        let mut db = Database::empty(schema);
        db.insert_into("r", tuple!["uk", "99"]).unwrap();
        db.insert_into("r", tuple!["uk", "98"]).unwrap();
        db.insert_into("r", tuple!["us", "1"]).unwrap();
        let (repaired, report) = run(Validator::new(vec![cfd], vec![]), db);
        assert!(report.is_clean());
        let r = repaired.schema().rel_id("r").unwrap();
        // Both uk tuples were forced to 44 (and merged by set
        // semantics); the us tuple is untouched.
        assert!(repaired.relation(r).contains(&tuple!["uk", "44"]));
        assert!(repaired.relation(r).contains(&tuple!["us", "1"]));
        assert!(!repaired.relation(r).contains(&tuple!["uk", "99"]));
        assert_eq!(report.tuples_deleted, 0);
    }

    #[test]
    fn cind_orphan_prefers_insertion_over_deletion_on_ties() {
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("x", Domain::string())])
                .relation(
                    "dst",
                    &[("y", Domain::string()), ("extra", Domain::string())],
                )
                .finish(),
        );
        let cind = condep_core::NormalCind::parse(&schema, "src", &["x"], &[], "dst", &["y"], &[])
            .unwrap();
        let mut db = Database::empty(schema);
        db.insert_into("src", tuple!["k1"]).unwrap();
        let (repaired, report) = run(Validator::new(vec![], vec![cind]), db);
        assert!(report.is_clean());
        assert_eq!(report.tuples_inserted, 1);
        assert_eq!(report.tuples_deleted, 0);
        let dst = repaired.schema().rel_id("dst").unwrap();
        let src = repaired.schema().rel_id("src").unwrap();
        assert!(
            repaired.relation(src).contains(&tuple!["k1"]),
            "orphan kept"
        );
        // The chased target copies the key; the free attribute got a
        // fresh filler.
        assert_eq!(repaired.relation(dst).len(), 1);
        let t = repaired.relation(dst).get(0).unwrap();
        assert_eq!(t[condep_model::AttrId(0)], Value::str("k1"));
    }

    #[test]
    fn cind_orphan_deletes_when_deletion_is_cheaper() {
        let schema = Arc::new(
            Schema::builder()
                .relation("src", &[("x", Domain::string())])
                .relation("dst", &[("y", Domain::string())])
                .finish(),
        );
        let cind = condep_core::NormalCind::parse(&schema, "src", &["x"], &[], "dst", &["y"], &[])
            .unwrap();
        let mut db = Database::empty(schema);
        db.insert_into("src", tuple!["k1"]).unwrap();
        let validator = Validator::new(vec![], vec![cind]);
        let cost = RepairCost {
            tuple_insert: 5.0,
            ..RepairCost::uniform()
        };
        let (repaired, report) = repair(validator, db, &cost, &RepairBudget::default()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.tuples_deleted, 1);
        assert_eq!(report.tuples_inserted, 0);
        let src = repaired.schema().rel_id("src").unwrap();
        assert!(repaired.relation(src).is_empty());
        assert_eq!(report.total_cost, 1.0);
    }

    #[test]
    fn cascade_budget_bounds_rounds() {
        let validator = bank_validator();
        let db = bank_database();
        let budget = RepairBudget {
            max_rounds: 0,
            max_fixes: usize::MAX,
        };
        let (repaired, report) = repair(validator, db, &RepairCost::uniform(), &budget).unwrap();
        assert!(report.budget_exhausted);
        assert_eq!(report.fixes_applied(), 0);
        assert_eq!(report.residual.len(), 2);
        // Nothing was touched.
        assert_eq!(repaired.total_tuples(), bank_database().total_tuples());
    }

    #[test]
    fn clean_database_is_a_no_op() {
        let validator = bank_validator();
        let db = condep_model::fixtures::clean_bank_database();
        let (repaired, report) = run(validator, db.clone());
        assert!(report.is_clean());
        assert_eq!(report.fixes_applied(), 0);
        assert_eq!(report.log.rounds, 0);
        assert_eq!(repaired.total_tuples(), db.total_tuples());
    }
}
