//! Satisfaction checking for CFDs.
//!
//! `D |= φ` iff for each pair of tuples `t1, t2` (not necessarily
//! distinct) and each pattern row `tp`: if `t1[X] = t2[X] ≍ tp[X]` then
//! `t1[Y] = t2[Y] ≍ tp[Y]` (paper, Section 4). Taking `t1 = t2` yields
//! the single-tuple reading: any tuple matching `tp[X]` must also match
//! `tp[Y]` on constant RHS cells.

use crate::normalize::normalize;
use crate::syntax::{Cfd, NormalCfd};
use condep_model::{Database, PValue, Value};
use std::collections::HashMap;

/// Does `db` satisfy the normal-form CFD?
///
/// Under a constant RHS every tuple matching `tp[X]` must carry
/// `tp[A]`. Under a wildcard RHS the matching tuples are grouped on
/// their borrowed `X` projection, and each group must agree on `A` —
/// `O(|I|)` with hashing.
pub fn satisfies_normal(db: &Database, cfd: &NormalCfd) -> bool {
    let a = cfd.rhs();
    let mut matching = db
        .relation(cfd.rel())
        .iter()
        .filter(|t| cfd.lhs_pat().matches_tuple(t, cfd.lhs()));
    match cfd.rhs_pat() {
        PValue::Const(c) => matching.all(|t| &t[a] == c),
        PValue::Any => {
            let mut a_of: HashMap<Vec<&Value>, &Value> = HashMap::new();
            matching.all(|t| {
                let x = cfd.lhs().iter().map(|b| &t[*b]).collect();
                *a_of.entry(x).or_insert(&t[a]) == &t[a]
            })
        }
    }
}

/// Does `db` satisfy the (general-form) CFD?
pub fn satisfies(db: &Database, cfd: &Cfd) -> bool {
    normalize(cfd).iter().all(|n| satisfies_normal(db, n))
}

/// Does `db` satisfy every CFD in `set`? One [`satisfies_normal`] pass
/// per CFD; batched validation of large instances is
/// `condep-validate`'s job.
pub fn satisfies_all<'a, I>(db: &Database, set: I) -> bool
where
    I: IntoIterator<Item = &'a NormalCfd>,
{
    set.into_iter().all(|n| satisfies_normal(db, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use condep_model::fixtures::{bank_database, clean_bank_database};
    use condep_model::{prow, tuple, Database, Domain, PValue, Schema};
    use std::sync::Arc;

    #[test]
    fn figure_1_satisfies_traditional_fds() {
        // "the instance of Fig. 1 satisfies standard FDs fd1-fd3" (Ex 4.1).
        let db = bank_database();
        for fd in [fixtures::fd1(), fixtures::fd2(), fixtures::fd3()] {
            assert!(satisfies(&db, &fd), "Fig 1 must satisfy {:?}", fd);
        }
    }

    #[test]
    fn figure_1_satisfies_phi1_phi2_but_not_phi3() {
        // "it satisfies ϕ1 and ϕ2, it does not satisfy ϕ3" (Ex 4.1).
        let db = bank_database();
        assert!(satisfies(&db, &fixtures::phi1()));
        assert!(satisfies(&db, &fixtures::phi2()));
        assert!(!satisfies(&db, &fixtures::phi3()));
    }

    #[test]
    fn clean_instance_satisfies_phi3() {
        let db = clean_bank_database();
        assert!(satisfies(&db, &fixtures::phi3()));
    }

    #[test]
    fn single_tuple_violation_of_constant_rhs() {
        // A single tuple violates a constant-RHS CFD (Ex 4.1's remark).
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["x", "wrong"]).unwrap();
        let cfd = NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow!["x"],
            "b",
            PValue::constant("right"),
        )
        .unwrap();
        assert!(!satisfies_normal(&db, &cfd));
        // A non-matching tuple does not violate.
        let mut db2 = Database::empty(schema.clone());
        db2.insert_into("r", tuple!["y", "wrong"]).unwrap();
        assert!(satisfies_normal(&db2, &cfd));
    }

    #[test]
    fn pair_violation_of_wildcard_rhs() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string()), ("b", Domain::string())])
                .finish(),
        );
        let cfd = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["k", "v1"]).unwrap();
        assert!(satisfies_normal(&db, &cfd));
        db.insert_into("r", tuple!["k", "v2"]).unwrap();
        assert!(!satisfies_normal(&db, &cfd));
        // Distinct keys are fine.
        let mut db2 = Database::empty(schema);
        db2.insert_into("r", tuple!["k1", "v1"]).unwrap();
        db2.insert_into("r", tuple!["k2", "v2"]).unwrap();
        assert!(satisfies_normal(&db2, &cfd));
    }

    #[test]
    fn empty_database_satisfies_everything() {
        let db = Database::empty(bank_database().schema().clone());
        for cfd in [fixtures::phi1(), fixtures::phi2(), fixtures::phi3()] {
            assert!(satisfies(&db, &cfd));
        }
    }

    #[test]
    fn batched_satisfies_all_agrees_with_per_cfd_checks() {
        use crate::normalize::normalize_all;
        let db = bank_database();
        let clean_set = normalize_all(&[fixtures::phi1(), fixtures::phi2()]);
        assert_eq!(
            satisfies_all(&db, &clean_set),
            clean_set.iter().all(|n| satisfies_normal(&db, n))
        );
        assert!(satisfies_all(&db, &clean_set));
        let full_set = normalize_all(&[fixtures::phi1(), fixtures::phi2(), fixtures::phi3()]);
        assert_eq!(
            satisfies_all(&db, &full_set),
            full_set.iter().all(|n| satisfies_normal(&db, n))
        );
        assert!(!satisfies_all(&db, &full_set));
        // Empty set and empty database are vacuously satisfied.
        assert!(satisfies_all(&db, &[]));
        let empty = Database::empty(db.schema().clone());
        assert!(satisfies_all(&empty, &full_set));
    }

    #[test]
    fn empty_lhs_cfd_forces_global_agreement() {
        // X = nil: every tuple is in one group; wildcard RHS forces a
        // single value for A relation-wide.
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string())])
                .finish(),
        );
        let cfd = NormalCfd::parse(&schema, "r", &[], prow![], "a", PValue::Any).unwrap();
        let mut db = Database::empty(schema);
        db.insert_into("r", tuple!["v"]).unwrap();
        assert!(satisfies_normal(&db, &cfd));
        db.insert_into("r", tuple!["w"]).unwrap();
        assert!(!satisfies_normal(&db, &cfd));
    }
}
