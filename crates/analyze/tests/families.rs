//! The seeded Σ families of `condep-gen` carry *exact* expected
//! outcomes; this suite holds the analyzer to them across many seeds.
//! The `sigma_lint` scoreboard scenario gates the same counters, so a
//! drift here fails fast in unit tests before it fails in CI's smoke
//! diff.

use condep_analyze::{analyze, SigmaVerdict};
use condep_gen::{sigma_families, ExpectedVerdict};
use condep_validate::Validator;

#[test]
fn every_family_meets_its_expectation_across_seeds() {
    for seed in 0..40u64 {
        for family in sigma_families(seed) {
            let analysis = analyze(&family.schema, &family.cfds, &family.cinds);
            let tag = format!("family {} seed {seed}", family.name);
            assert_eq!(
                analysis.lints.len(),
                family.expect.lints,
                "{tag}: lints {:?}",
                analysis.lints
            );
            match (family.expect.verdict, &analysis.verdict) {
                (ExpectedVerdict::Sat, SigmaVerdict::Sat(w)) => {
                    // The witness must re-validate through the standard
                    // validator, not just the analyzer's own checker.
                    let v = Validator::new(family.cfds.clone(), family.cinds.clone());
                    assert!(
                        v.validate(&w.db).is_empty(),
                        "{tag}: witness fails validation"
                    );
                }
                (ExpectedVerdict::Unsat, SigmaVerdict::Unsat(core)) => {
                    assert_eq!(
                        core.cfds.len(),
                        family.expect.core_size,
                        "{tag}: core {:?}",
                        core.cfds
                    );
                }
                (ExpectedVerdict::Unknown, SigmaVerdict::Unknown(_)) => {}
                (want, got) => panic!("{tag}: expected {want:?}, got {got:?}"),
            }
        }
    }
}
