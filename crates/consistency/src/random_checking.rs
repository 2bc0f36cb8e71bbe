//! Algorithm `RandomChecking` — Figure 5, with the Section 5.2
//! improvement.
//!
//! Each run seeds a single fresh-variable tuple in a randomly chosen
//! relation, chases the CFDs first (which may pin some variables to
//! pattern constants), applies a random valuation `ρ` to the *remaining*
//! finite-domain variables, and then runs the instantiated chase
//! `chaseI(ρ(D), Σ)` with interleaved CFD fixpoints. A defined chase
//! yields a concrete witness database (fresh values for leftover
//! infinite-domain variables), which is verified against Σ — making the
//! `true` answer sound by construction (Theorem 5.1). Up to `K` runs are
//! attempted.

use crate::sigma::ConstraintSet;
use condep_chase::ops::seed_tuple;
use condep_chase::{chase, ChaseConfig, ChaseOutcome, TemplateDb};
use condep_model::{Database, RelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of `RandomChecking`.
#[derive(Clone, Debug)]
pub struct RandomCheckingConfig {
    /// `K` — the number of valuations/runs to attempt (20 in Section 6).
    pub k: usize,
    /// Chase parameters (`N`, `T`, `chaseI` instantiation).
    pub chase: ChaseConfig,
    /// RNG seed — runs are deterministic given the seed.
    pub seed: u64,
}

impl Default for RandomCheckingConfig {
    fn default() -> Self {
        RandomCheckingConfig {
            k: 20,
            chase: ChaseConfig::default(),
            seed: 0,
        }
    }
}

/// One chase run: seed `rel`, then run the improved `chaseI` (the engine
/// chases the CFDs first, instantiates the surviving finite-domain
/// variables constraint-aware — procedure `CFD_Checking` — and
/// interleaves the fixpoint after every IND step). Returns the witness
/// database if the chase is defined.
fn one_run(
    sigma: &ConstraintSet,
    rel: RelId,
    cfg: &ChaseConfig,
    rng: &mut StdRng,
) -> Option<Database> {
    let mut db = TemplateDb::empty(sigma.schema().clone());
    seed_tuple(&mut db, rel);
    match chase(db, sigma.cfds(), sigma.cinds(), cfg, rng) {
        ChaseOutcome::Defined(template) => {
            let witness = template.instantiate_fresh(&sigma.all_constants())?;
            // Theorem 5.1's certificate: a defined chase must produce a
            // satisfying instance; verify rather than trust.
            if !witness.is_empty() && sigma.satisfied_by(&witness) {
                Some(witness)
            } else {
                debug_assert!(false, "defined chase produced a non-witness — engine bug");
                None
            }
        }
        ChaseOutcome::Undefined(_) => None,
    }
}

/// Algorithm `RandomChecking`: returns a witness database if one of the
/// `K` runs produces a defined chase, `None` otherwise (which does *not*
/// prove inconsistency — the procedure is a sound heuristic).
///
/// `candidate_rels` restricts the randomly chosen seed relation —
/// `Checking` passes the relations of one connected component; `None`
/// means any relation of the schema. Candidates outside the schema are
/// skipped: there is no relation to seed.
pub fn random_checking(
    sigma: &ConstraintSet,
    config: &RandomCheckingConfig,
    candidate_rels: Option<&[RelId]>,
) -> Option<Database> {
    let schema = sigma.schema();
    let all: Vec<RelId> = match candidate_rels {
        Some(rels) => rels
            .iter()
            .copied()
            .filter(|r| schema.relation(*r).is_ok())
            .collect(),
        None => schema.iter().map(|(r, _)| r).collect(),
    };
    if all.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..config.k {
        let rel = all[rng.gen_range(0..all.len())];
        if let Some(witness) = one_run(sigma, rel, &config.chase, &mut rng) {
            return Some(witness);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::NormalCfd;
    use condep_core::fixtures::{example_5_1_cinds, example_5_1_schema};
    use condep_core::NormalCind;
    use condep_model::{prow, PValue};

    fn cfg(k: usize) -> RandomCheckingConfig {
        RandomCheckingConfig {
            k,
            seed: 99,
            ..RandomCheckingConfig::default()
        }
    }

    fn example_5_1_sigma(finite_h: bool) -> ConstraintSet {
        let schema = example_5_1_schema(finite_h);
        let cfds = vec![
            NormalCfd::parse(&schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap(),
            NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap(),
        ];
        let cinds = example_5_1_cinds(&schema);
        ConstraintSet::new(schema, cfds, cinds)
    }

    #[test]
    fn example_5_1_is_accepted() {
        // The paper's Example 5.1 Σ is consistent; the heuristic finds a
        // witness quickly.
        let sigma = example_5_1_sigma(false);
        let witness = random_checking(&sigma, &cfg(20), None).expect("consistent");
        assert!(!witness.is_empty());
        assert!(sigma.satisfied_by(&witness));
    }

    #[test]
    fn example_5_2_with_finite_h_is_accepted() {
        // With dom(H) = {0, 1} the valuations matter (Example 5.3 walks
        // ρ1); some run still succeeds.
        let sigma = example_5_1_sigma(true);
        let witness = random_checking(&sigma, &cfg(20), None).expect("consistent");
        assert!(sigma.satisfied_by(&witness));
    }

    #[test]
    fn example_4_2_conflict_is_rejected() {
        // φ = (R: A → B, (_ ‖ a)), ψ = (R ⊆ R[nil; B = b]): genuinely
        // inconsistent — every run's chase must be undefined.
        let (schema, cind) = condep_core::fixtures::example_4_2_cind();
        let phi =
            NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::constant("a")).unwrap();
        let sigma = ConstraintSet::new(schema, vec![phi], vec![cind]);
        assert!(random_checking(&sigma, &cfg(30), None).is_none());
    }

    #[test]
    fn candidate_restriction_controls_the_seed() {
        // Seeding only r5-like isolated relations cannot trip over the
        // rest of Σ.
        let sigma = example_5_1_sigma(false);
        let r1 = sigma.schema().rel_id("r1").unwrap();
        let witness = random_checking(&sigma, &cfg(10), Some(&[r1])).expect("seeded at r1");
        assert!(!witness.relation(r1).is_empty());
    }

    #[test]
    fn empty_candidates_fail_fast() {
        let sigma = example_5_1_sigma(false);
        assert!(random_checking(&sigma, &cfg(10), Some(&[])).is_none());
    }

    #[test]
    fn seeds_outside_the_schema_are_skipped() {
        let sigma = example_5_1_sigma(false);
        assert!(random_checking(&sigma, &cfg(10), Some(&[RelId(99)])).is_none());
        let r1 = sigma.schema().rel_id("r1").unwrap();
        let witness =
            random_checking(&sigma, &cfg(10), Some(&[RelId(99), r1])).expect("seeded at r1");
        assert!(sigma.satisfied_by(&witness));
    }

    #[test]
    fn k_zero_never_succeeds() {
        let sigma = example_5_1_sigma(false);
        assert!(random_checking(&sigma, &cfg(0), None).is_none());
    }

    #[test]
    fn tuple_cap_failure_is_survivable_across_runs() {
        // A cyclic CIND pair with a tiny cap: runs may fail on the cap
        // yet the set is consistent; a defined run must eventually
        // appear (the cycle closes within two tuples).
        let schema = example_5_1_schema(false);
        let forward = NormalCind::parse(&schema, "r1", &["e"], &[], "r2", &["g"], &[]).unwrap();
        let backward = NormalCind::parse(&schema, "r2", &["g"], &[], "r1", &["e"], &[]).unwrap();
        let sigma = ConstraintSet::new(schema, vec![], vec![forward, backward]);
        let config = RandomCheckingConfig {
            k: 10,
            seed: 3,
            chase: ChaseConfig {
                tuple_cap: 4,
                ..ChaseConfig::default()
            },
        };
        let witness = random_checking(&sigma, &config, None).expect("consistent");
        assert!(sigma.satisfied_by(&witness));
    }
}
