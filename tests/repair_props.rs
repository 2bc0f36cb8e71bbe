//! Property tests for the repair engine's soundness contract:
//!
//! * the repaired database always re-validates with **at most** the
//!   initial violation count (monotone improvement, never regression);
//! * the fixpoint loop terminates within the cascade budget;
//! * every kept fix's `SigmaDelta` evidence is strictly net-negative,
//!   and the arithmetic closes: initial + Σ net = residual;
//! * no fix ever touches a cell (or tuple) not named by the violation
//!   that motivated it — edits only hit the motivating CFD's RHS
//!   attribute, insertions only the motivating CIND's target relation,
//!   deletions only a motivating witness's relation.

use condep::gen::{
    dirtied_database, dirty_database, generate_sigma, random_schema, DirtyDataConfig,
    SchemaGenConfig, SigmaGenConfig,
};
use condep::prelude::*;
use condep::repair::{repair, Fix, Motive};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_schema(seed: u64) -> std::sync::Arc<Schema> {
    random_schema(
        &SchemaGenConfig {
            relations: 4,
            attrs_min: 3,
            attrs_max: 5,
            finite_ratio: 0.25,
            finite_dom_min: 2,
            finite_dom_max: 6,
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

proptest! {
    #[test]
    fn repair_is_sound_on_generated_dirt(seed in 0u64..10_000) {
        let schema = small_schema(seed);
        let (cfds, cinds, witness) = generate_sigma(
            &schema,
            &SigmaGenConfig {
                cardinality: 12,
                consistent: true,
                ..SigmaGenConfig::default()
            },
            &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9),
        );
        let Some(witness) = witness else {
            // Degenerate draw without a witness: nothing to test.
            return Ok(());
        };
        // A clean base satisfying Σ, then controlled dirt on top:
        // typos, orphaned CIND sources and duplicate-key conflicts.
        let clean = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &DirtyDataConfig {
                tuples_per_relation: 12,
                violations_per_relation: 0,
            },
            &mut StdRng::seed_from_u64(seed ^ 0x85a3_08d3),
        )
        .db;
        let dirtied = dirtied_database(
            &clean,
            &cfds,
            &cinds,
            0.15,
            &mut StdRng::seed_from_u64(seed ^ 0x1357_2468),
        );
        let validator = Validator::new(cfds.clone(), cinds.clone());
        let initial = validator.validate_sorted(&dirtied.db);
        let budget = RepairBudget::default();
        let (repaired, report) = repair(validator, dirtied.db, &RepairCost::uniform(), &budget)
            .expect("property sigmas are satisfiable by construction");
        // The engine seeds its own stream: its initial count must be the
        // batch sweep's.
        prop_assert_eq!(report.initial_violations, initial.len());

        // Soundness: never worse than the input, and the returned
        // residual is exactly what a fresh sweep finds.
        let fresh = Validator::new(cfds.clone(), cinds.clone());
        let revalidated = fresh.validate_sorted(&repaired);
        prop_assert_eq!(&revalidated, &report.residual);
        prop_assert!(
            revalidated.len() <= initial.len(),
            "repair regressed: {} -> {}",
            initial.len(),
            revalidated.len()
        );

        // Termination within the cascade budget.
        prop_assert!(report.log.rounds <= budget.max_rounds);

        // Delta bookkeeping closes: initial + Σ net(kept fixes) = residual.
        let net: isize = report.log.applied.iter().map(|a| a.net_change()).sum();
        prop_assert_eq!(
            initial.len() as isize + net,
            report.residual.len() as isize,
            "kept-fix deltas must account for every violation change"
        );

        // Every kept fix is net-negative, carries the stable id of the
        // tuple it acted on, and touches only what its motivating
        // violation names.
        for a in &report.log.applied {
            prop_assert!(a.net_change() < 0, "kept a non-net-negative fix: {a:?}");
            prop_assert!(
                a.target.is_some(),
                "every kept fix must record its target tuple id: {a:?}"
            );
            match (&a.fix, a.motive) {
                (Fix::EditCells { rel, attrs, old, new, .. }, Motive::Cfd(ci)) => {
                    prop_assert_eq!(*rel, cfds[ci].rel());
                    prop_assert_eq!(attrs.clone(), vec![cfds[ci].rhs()]);
                    // The edit changes exactly the named cells.
                    for i in 0..old.arity() {
                        let attr = condep::model::AttrId(i as u32);
                        if attrs.contains(&attr) {
                            prop_assert_ne!(&old[attr], &new[attr]);
                        } else {
                            prop_assert_eq!(&old[attr], &new[attr]);
                        }
                    }
                }
                (Fix::EditCells { .. }, Motive::Cind(_)) => {
                    return Err("CIND fixes never edit cells".to_string());
                }
                (Fix::DeleteTuple { rel, .. }, Motive::Cfd(ci)) => {
                    prop_assert_eq!(*rel, cfds[ci].rel());
                }
                (Fix::DeleteTuple { rel, .. }, Motive::Cind(ci)) => {
                    prop_assert_eq!(*rel, cinds[ci].lhs_rel());
                }
                (Fix::InsertTuple { rel, .. }, Motive::Cind(ci)) => {
                    prop_assert_eq!(*rel, cinds[ci].rhs_rel());
                }
                (Fix::InsertTuple { .. }, Motive::Cfd(_)) => {
                    return Err("CFD fixes never insert tuples".to_string());
                }
            }
        }
    }

    /// The generated workload is non-trivial: across a window of seeds,
    /// most draws inject detectable dirt and the engine applies fixes.
    /// (Guards the suite above against silently degenerating into
    /// all-clean inputs.)
    #[test]
    fn generated_workload_is_nontrivial(window in 0u64..4) {
        let base = window * 16;
        let mut dirty_cases = 0usize;
        let mut fixed_cases = 0usize;
        for seed in base..base + 16 {
            let schema = small_schema(seed);
            let (cfds, cinds, witness) = generate_sigma(
                &schema,
                &SigmaGenConfig {
                    cardinality: 12,
                    consistent: true,
                    ..SigmaGenConfig::default()
                },
                &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9),
            );
            let Some(witness) = witness else { continue };
            let clean = dirty_database(
                &schema,
                &cfds,
                &cinds,
                &witness,
                &DirtyDataConfig {
                    tuples_per_relation: 12,
                    violations_per_relation: 0,
                },
                &mut StdRng::seed_from_u64(seed ^ 0x85a3_08d3),
            )
            .db;
            let dirtied = dirtied_database(
                &clean,
                &cfds,
                &cinds,
                0.15,
                &mut StdRng::seed_from_u64(seed ^ 0x1357_2468),
            );
            let validator = Validator::new(cfds, cinds);
            let initial = validator.validate_sorted(&dirtied.db);
            if initial.is_empty() {
                continue;
            }
            dirty_cases += 1;
            let (_, report) = repair(
                validator,
                dirtied.db,
                &RepairCost::uniform(),
                &RepairBudget::default(),
            )
            .expect("property sigmas are satisfiable by construction");
            if report.fixes_applied() > 0 {
                fixed_cases += 1;
            }
        }
        prop_assert!(
            dirty_cases >= 8,
            "workload degenerated: only {dirty_cases}/16 dirty draws"
        );
        prop_assert!(
            fixed_cases >= dirty_cases / 2,
            "engine idle: {fixed_cases}/{dirty_cases} dirty cases saw fixes"
        );
    }

    /// Repairing an already-clean database is the identity.
    #[test]
    fn repair_of_clean_database_is_identity(seed in 0u64..10_000) {
        let schema = small_schema(seed);
        let (cfds, cinds, witness) = generate_sigma(
            &schema,
            &SigmaGenConfig {
                cardinality: 10,
                consistent: true,
                ..SigmaGenConfig::default()
            },
            &mut StdRng::seed_from_u64(seed + 1),
        );
        let Some(witness) = witness else { return Ok(()); };
        let clean = dirty_database(
            &schema,
            &cfds,
            &cinds,
            &witness,
            &DirtyDataConfig {
                tuples_per_relation: 8,
                violations_per_relation: 0,
            },
            &mut StdRng::seed_from_u64(seed + 2),
        )
        .db;
        let validator = Validator::new(cfds, cinds);
        let initial = validator.validate_sorted(&clean);
        prop_assert!(initial.is_empty());
        let total = clean.total_tuples();
        let (repaired, report) = repair(
            validator,
            clean,
            &RepairCost::uniform(),
            &RepairBudget::default(),
        )
        .expect("property sigmas are satisfiable by construction");
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.fixes_applied(), 0);
        prop_assert_eq!(repaired.total_tuples(), total);
    }
}
