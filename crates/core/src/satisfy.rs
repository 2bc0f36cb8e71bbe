//! Satisfaction checking for CINDs.
//!
//! Section 2: `(I1, I2) |= ψ` iff for each `t1 ∈ I1` and each pattern
//! tuple `tp ∈ Tp`, if `t1[X, Xp] ≍ tp[X, Xp]` then there exists
//! `t2 ∈ I2` with `t1[X] = t2[Y] ≍ tp[Y]` and `t2[Yp] ≍ tp[Yp]`.
//!
//! Two implementations are provided and cross-validated by property
//! tests: [`satisfies_normal`] (a hash semi-join over the normal form,
//! `O(|I1| + |I2|)`) and [`satisfies_general_direct`] (a literal
//! transcription of the definition, used as the test oracle).

use crate::normalize::normalize;
use crate::syntax::{Cind, NormalCind};
use condep_model::{Database, Value};
use std::collections::HashSet;

/// Does `db` satisfy the normal-form CIND? The borrowed `Y` projections
/// of the target tuples matching `tp[Yp]` go into a hash set, which
/// every triggered source tuple's `X` projection must hit.
pub fn satisfies_normal(db: &Database, cind: &NormalCind) -> bool {
    let source = db.relation(cind.lhs_rel());
    if source.is_empty() {
        return true;
    }
    let keys: HashSet<Vec<&Value>> = db
        .relation(cind.rhs_rel())
        .iter()
        .filter(|t2| cind.rhs_matches(t2))
        .map(|t2| cind.y().iter().map(|b| &t2[*b]).collect())
        .collect();
    let mut probe: Vec<&Value> = Vec::with_capacity(cind.x().len());
    source.iter().filter(|t1| cind.triggers(t1)).all(|t1| {
        probe.clear();
        probe.extend(cind.x().iter().map(|a| &t1[*a]));
        keys.contains(&probe)
    })
}

/// Does `db` satisfy the (general-form) CIND?
pub fn satisfies(db: &Database, cind: &Cind) -> bool {
    normalize(cind).iter().all(|n| satisfies_normal(db, n))
}

/// Does `db` satisfy every CIND in `set`?
pub fn satisfies_all<'a, I>(db: &Database, set: I) -> bool
where
    I: IntoIterator<Item = &'a NormalCind>,
{
    set.into_iter().all(|n| satisfies_normal(db, n))
}

/// Literal transcription of the Section 2 semantics over the general
/// form — quadratic, independent of [`normalize`], used as an oracle to
/// validate both the normal form (Prop. 3.1) and the indexed checker.
pub fn satisfies_general_direct(db: &Database, cind: &Cind) -> bool {
    let source = db.relation(cind.lhs_rel());
    let target = db.relation(cind.rhs_rel());
    for t1 in source {
        for row in cind.tableau() {
            let (x_pat, xp_pat, y_pat, yp_pat) = cind.split_row(row);
            let lhs_match = cind.x().iter().zip(x_pat).all(|(a, p)| p.matches(&t1[*a]))
                && cind
                    .xp()
                    .iter()
                    .zip(xp_pat)
                    .all(|(a, p)| p.matches(&t1[*a]));
            if !lhs_match {
                continue;
            }
            let witness_exists = target.iter().any(|t2| {
                cind.x()
                    .iter()
                    .zip(cind.y())
                    .all(|(xa, ya)| t1[*xa] == t2[*ya])
                    && cind.y().iter().zip(y_pat).all(|(a, p)| p.matches(&t2[*a]))
                    && cind
                        .yp()
                        .iter()
                        .zip(yp_pat)
                        .all(|(a, p)| p.matches(&t2[*a]))
            });
            if !witness_exists {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use condep_model::fixtures::{bank_database, clean_bank_database};
    use condep_model::tuple;

    #[test]
    fn figure_1_satisfies_psi1_to_psi5() {
        // Example 2.2: the database satisfies ψ1–ψ5 …
        let db = bank_database();
        for (name, psi) in [
            ("psi1_edi", fixtures::psi1_edi()),
            ("psi1_nyc", fixtures::psi1_nyc()),
            ("psi2_edi", fixtures::psi2_edi()),
            ("psi2_nyc", fixtures::psi2_nyc()),
            ("psi3", fixtures::psi3()),
            ("psi4", fixtures::psi4()),
            ("psi5", fixtures::psi5()),
        ] {
            assert!(satisfies(&db, &psi), "Fig 1 must satisfy {name}");
            assert!(
                satisfies_general_direct(&db, &psi),
                "direct semantics must agree on {name}"
            );
        }
    }

    #[test]
    fn figure_1_violates_psi6_via_t10() {
        // Example 2.2: "ψ6 is violated by the database. Indeed, for tuple
        // t10 … there is no tuple t in interest such that t[ab] = EDI,
        // t[at] = checking, t[ct] = UK and t[rt] = 1.5%."
        let db = bank_database();
        assert!(!satisfies(&db, &fixtures::psi6()));
        assert!(!satisfies_general_direct(&db, &fixtures::psi6()));
    }

    #[test]
    fn clean_instance_satisfies_all_of_figure_2() {
        let db = clean_bank_database();
        for psi in fixtures::figure_2() {
            assert!(satisfies(&db, &psi));
        }
    }

    #[test]
    fn embedded_ind_need_not_hold() {
        // Example 2.2: "while ψ1 is satisfied, the IND
        // account_edi[an,cn,ca,cp] ⊆ saving[an,cn,ca,cp] is not" —
        // checking accounts have no saving counterpart.
        let db = bank_database();
        let schema = db.schema();
        let embedded = Cind::parse(
            schema,
            "account_edi",
            &["an", "cn", "ca", "cp"],
            &[],
            "saving",
            &["an", "cn", "ca", "cp"],
            &[],
            vec![condep_model::PatternRow::all_any(8)],
        )
        .unwrap();
        assert!(!satisfies(&db, &embedded));
    }

    #[test]
    fn empty_source_satisfies_vacuously() {
        let db = condep_model::Database::empty(bank_database().schema().clone());
        for psi in fixtures::figure_2() {
            assert!(satisfies(&db, &psi));
        }
    }

    #[test]
    fn empty_target_with_triggered_source_violates() {
        let schema = bank_database().schema().clone();
        let mut db = condep_model::Database::empty(schema);
        db.insert_into("saving", tuple!["01", "x", "y", "z", "EDI"])
            .unwrap();
        // ψ3 requires the branch to appear in interest, which is empty.
        assert!(!satisfies(&db, &fixtures::psi3()));
    }

    #[test]
    fn normalized_agrees_with_direct_on_dirty_and_clean() {
        for db in [bank_database(), clean_bank_database()] {
            for psi in fixtures::figure_2() {
                assert_eq!(
                    satisfies(&db, &psi),
                    satisfies_general_direct(&db, &psi),
                    "normal form must preserve satisfaction (Prop 3.1)"
                );
            }
        }
    }

    #[test]
    fn self_inclusion_is_satisfied() {
        // R[X] ⊆ R[X] always holds (rule CIND1's soundness base case).
        let db = bank_database();
        let schema = db.schema();
        let saving = schema.rel_id("saving").unwrap();
        let rs = schema.relation(saving).unwrap();
        let refl = Cind::traditional(
            saving,
            saving,
            rs.attr_ids(&["an", "ab"]).unwrap(),
            rs.attr_ids(&["an", "ab"]).unwrap(),
        );
        assert!(satisfies(&db, &refl));
    }
}
