//! Heuristic implication analysis for mixed CFD + CIND sets — the
//! Section 8 extension.
//!
//! "Thus it is practical to develop heuristic algorithms for checking
//! implication of CFDs and CINDs." The problem is undecidable
//! (Corollary 4.1), so no procedure can be both sound and complete in
//! both directions. This module provides a **sound refuter**: it hunts
//! for a counterexample database (one that satisfies Σ yet violates ψ)
//! with the same bounded chase `RandomChecking` uses. A returned
//! database *certifies* `Σ ̸|= ψ`; failure to find one is inconclusive.
//!
//! Together with the exact CIND-only procedures of `condep-core` (usable
//! whenever Σ contains no CFDs) this covers the practically useful
//! cases: pure-CIND implication exactly, mixed implication with
//! certified refutations.

use crate::sigma::ConstraintSet;
use condep_chase::ops::seed_tuple_with;
use condep_chase::{chase, ChaseConfig, ChaseOutcome, TemplateDb};
use condep_core::NormalCind;
use condep_model::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the refutation search.
#[derive(Clone, Debug)]
pub struct RefuteConfig {
    /// Number of chase runs to attempt.
    pub runs: usize,
    /// Chase parameters.
    pub chase: ChaseConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RefuteConfig {
    fn default() -> Self {
        RefuteConfig {
            runs: 20,
            chase: ChaseConfig::default(),
            seed: 0,
        }
    }
}

/// Searches for a certified counterexample to `Σ |= ψ` (ψ a CIND; Σ may
/// mix CFDs and CINDs).
///
/// Strategy: seed the chase with a tuple that *triggers* ψ (its `Xp`
/// constants pinned, everything else drawn from the pools), close it
/// under Σ, and materialize. The result satisfies Σ by Theorem 5.1's
/// certificate; if it happens to violate ψ, it is a counterexample and
/// `Σ ̸|= ψ` is proved. `None` is inconclusive — ψ may be implied, or
/// the budgets may simply have been too tight. A ψ over a relation
/// outside Σ's schema also yields `None`: no database of that schema
/// can violate it.
pub fn refute_implication(
    sigma: &ConstraintSet,
    psi: &NormalCind,
    config: &RefuteConfig,
) -> Option<Database> {
    let schema = sigma.schema();
    if schema.relation(psi.lhs_rel()).is_err() || schema.relation(psi.rhs_rel()).is_err() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..config.runs {
        let mut db = TemplateDb::empty(schema.clone());
        seed_tuple_with(&mut db, psi.lhs_rel(), psi.xp());
        match chase(db, sigma.cfds(), sigma.cinds(), &config.chase, &mut rng) {
            ChaseOutcome::Defined(template) => {
                let Some(witness) = template.instantiate_fresh(&sigma.all_constants()) else {
                    continue;
                };
                if sigma.satisfied_by(&witness)
                    && !condep_core::satisfy::satisfies_normal(&witness, psi)
                {
                    return Some(witness);
                }
            }
            ChaseOutcome::Undefined(_) => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::NormalCfd;
    use condep_core::fixtures;
    use condep_core::normalize::{normalize, normalize_all};
    use condep_model::{prow, PValue, Value};

    fn cfg() -> RefuteConfig {
        RefuteConfig {
            runs: 30,
            seed: 7,
            ..RefuteConfig::default()
        }
    }

    #[test]
    fn refutes_example_3_3_without_the_checking_branch() {
        // Σ' = {ψ1, ψ5} (saving side only) does not imply the
        // account→interest goal: a checking account is a counterexample.
        let schema = condep_model::fixtures::bank_schema();
        let sigma = ConstraintSet::new(
            schema.clone(),
            vec![],
            normalize_all(&[fixtures::psi1_edi(), fixtures::psi5()]),
        );
        let goal = normalize(&fixtures::example_3_3_goal()).remove(0);
        let counterexample = refute_implication(&sigma, &goal, &cfg()).expect("refutable");
        assert!(sigma.satisfied_by(&counterexample));
        assert!(!condep_core::satisfy::satisfies_normal(
            &counterexample,
            &goal
        ));
    }

    #[test]
    fn cannot_refute_the_full_example_3_3() {
        // With all four CINDs the goal *is* implied (Example 3.4): no
        // counterexample can exist, so the refuter must come up empty.
        let schema = condep_model::fixtures::bank_schema();
        let sigma = ConstraintSet::new(
            schema.clone(),
            vec![],
            normalize_all(&[
                fixtures::psi1_edi(),
                fixtures::psi2_edi(),
                fixtures::psi5(),
                fixtures::psi6(),
            ]),
        );
        let goal = normalize(&fixtures::example_3_3_goal()).remove(0);
        assert!(refute_implication(&sigma, &goal, &cfg()).is_none());
    }

    #[test]
    fn cfds_can_make_a_cind_implied_and_block_refutation() {
        // Σ: CFD (nil → b = v) on r, CIND r[nil] ⊆ s[nil; d = w].
        // ψ: (r[nil; b = v] ⊆ s[nil; d = w]) — implied: every r-tuple has
        // b = v anyway. The refuter cannot construct a counterexample.
        let schema = fixtures::example_5_1_schema(false);
        let force_b =
            NormalCfd::parse(&schema, "r1", &[], prow![], "f", PValue::constant("v")).unwrap();
        let base = NormalCind::parse(
            &schema,
            "r1",
            &[],
            &[],
            "r2",
            &[],
            &[("g", Value::str("w"))],
        )
        .unwrap();
        let psi = NormalCind::parse(
            &schema,
            "r1",
            &[],
            &[("f", Value::str("v"))],
            "r2",
            &[],
            &[("g", Value::str("w"))],
        )
        .unwrap();
        let sigma = ConstraintSet::new(schema.clone(), vec![force_b], vec![base]);
        assert!(refute_implication(&sigma, &psi, &cfg()).is_none());
        // Drop the CFD and the CIND: now ψ is refutable (an r-tuple with
        // f = v and an empty s).
        let empty_sigma = ConstraintSet::new(schema, vec![], vec![]);
        let counterexample = refute_implication(&empty_sigma, &psi, &cfg()).expect("refutable");
        assert!(!condep_core::satisfy::satisfies_normal(
            &counterexample,
            &psi
        ));
    }

    #[test]
    fn psi_outside_the_schema_finds_no_counterexample() {
        use condep_model::RelId;
        let schema = fixtures::example_5_1_schema(false);
        let sigma = ConstraintSet::new(schema, vec![], vec![]);
        let from_outside = NormalCind::new(RelId(99), RelId(0), vec![], vec![], vec![], vec![]);
        let into_outside = NormalCind::new(RelId(0), RelId(99), vec![], vec![], vec![], vec![]);
        assert!(refute_implication(&sigma, &from_outside, &cfg()).is_none());
        assert!(refute_implication(&sigma, &into_outside, &cfg()).is_none());
    }

    #[test]
    fn agrees_with_the_exact_cind_procedure_on_pure_cind_inputs() {
        use condep_core::implication::{implies, Implication, ImplicationConfig};
        // On CIND-only Σ the refuter must never contradict the exact
        // decision procedure.
        let schema = fixtures::example_5_4_schema();
        let cinds = fixtures::example_5_4_cinds(&schema);
        let sigma = ConstraintSet::new(schema.clone(), vec![], cinds.clone());
        for psi in &cinds {
            // Each member is trivially implied: refutation must fail.
            assert_eq!(
                implies(&schema, &cinds, psi, ImplicationConfig::default()),
                Implication::Implied
            );
            assert!(refute_implication(&sigma, psi, &cfg()).is_none());
        }
    }
}
