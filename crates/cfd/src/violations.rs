//! Violation detection for CFDs.
//!
//! Beyond the boolean check of [`crate::satisfy`], data cleaning needs
//! the offending tuples themselves (paper, Examples 1.2 and 4.1 — tuple
//! `t12` is the culprit). This module defines the violation types and
//! [`find_violations`], the definition-level reference detector: nested
//! loops straight from Section 4's semantics. Tests check the batched
//! engine (`condep-validate`'s `Validator`) against it.

use crate::syntax::NormalCfd;
use condep_model::{AttrId, Database, PValue, Tuple, Value};

/// A single CFD violation with its witnessing tuple positions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CfdViolation {
    /// One tuple matches `tp[X]` but its `A` value differs from the
    /// constant `tp[A]`.
    SingleTuple {
        /// Dense position of the offending tuple in its relation.
        tuple: usize,
        /// The value found.
        found: Value,
        /// The constant the pattern demands.
        expected: Value,
    },
    /// Two tuples agree on `X` (matching `tp[X]`) but disagree on `A`.
    Pair {
        /// Position of the first witness.
        left: usize,
        /// Position of the second witness.
        right: usize,
    },
}

impl CfdViolation {
    /// The canonical report-order key: single-tuple violations by
    /// position first, then pairs by witness positions. Every sorted
    /// surface (per-CFD detectors, `SigmaReport`, tests) orders through
    /// this one definition.
    pub fn sort_key(&self) -> (usize, usize, usize) {
        match self {
            CfdViolation::SingleTuple { tuple, .. } => (0, *tuple, 0),
            CfdViolation::Pair { left, right } => (1, *left, *right),
        }
    }

    /// The witnessing tuple positions.
    pub fn positions(&self) -> Vec<usize> {
        match self {
            CfdViolation::SingleTuple { tuple, .. } => vec![*tuple],
            CfdViolation::Pair { left, right } => vec![*left, *right],
        }
    }

    /// The **conflicting cells** of the violation, as `(position, attr)`
    /// pairs — the cells a repair tool may edit to resolve it. For a CFD
    /// the witnessing disagreement always lives in the RHS attribute
    /// `rhs` of the violating tuples; LHS cells are the class key, not
    /// the conflict.
    pub fn cells(&self, rhs: AttrId) -> Vec<(usize, AttrId)> {
        match self {
            CfdViolation::SingleTuple { tuple, .. } => vec![(*tuple, rhs)],
            CfdViolation::Pair { left, right } => vec![(*left, rhs), (*right, rhs)],
        }
    }
}

/// What one database mutation (insert / delete / update) did to the CFD
/// violations of a compiled suite, as `(constraint index, violation)`
/// pairs.
///
/// Produced by delta engines (`condep-validate`'s `ValidatorStream`) and
/// consumed by anything maintaining a materialized violation state — a
/// streamed quality monitor subtracts `resolved` and adds `introduced`
/// instead of re-validating the database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CfdDelta {
    /// Violations the mutation created (post-mutation tuple positions).
    pub introduced: Vec<(usize, CfdViolation)>,
    /// Violations the mutation removed (pre-mutation tuple positions).
    pub resolved: Vec<(usize, CfdViolation)>,
}

impl CfdDelta {
    /// Did the mutation change the violation set at all?
    pub fn is_quiet(&self) -> bool {
        self.introduced.is_empty() && self.resolved.is_empty()
    }
}

/// Finds every violation of a normal-form CFD in `db`, sorted into the
/// report order (single-tuple violations by position, then pairs by
/// witness positions).
///
/// The definition-level reference: nested loops over the relation
/// comparing [`Value`]s, with no index and no hash map, so `O(|I|²)`.
/// It is the oracle for tests and pinpoints violations in tiny examples;
/// validating real instances is `condep-validate`'s job.
///
/// A tuple matching `tp[X]` whose `A` differs from a constant `tp[A]` is
/// a single-tuple violation. Under a wildcard `tp[A]`, each matching
/// tuple `t_j` pairs with the lowest-positioned `t_i` sharing its `X`
/// value if their `A` values differ: one witness per conflicting tuple
/// (all `k·(k-1)/2` pairs of a group would be quadratic noise).
pub fn find_violations(db: &Database, cfd: &NormalCfd) -> Vec<CfdViolation> {
    let rel = db.relation(cfd.rel());
    let a = cfd.rhs();
    let same_x = |ti: &Tuple, tj: &Tuple| cfd.lhs().iter().all(|x| ti[*x] == tj[*x]);
    let mut out = Vec::new();
    for (j, tj) in rel.iter().enumerate() {
        if !cfd.lhs_pat().matches_tuple(tj, cfd.lhs()) {
            continue;
        }
        match cfd.rhs_pat() {
            PValue::Const(expected) => {
                if &tj[a] != expected {
                    out.push(CfdViolation::SingleTuple {
                        tuple: j,
                        found: tj[a].clone(),
                        expected: expected.clone(),
                    });
                }
            }
            PValue::Any => {
                let (i, ti) = rel
                    .iter()
                    .enumerate()
                    .find(|(_, ti)| same_x(ti, tj))
                    .expect("t_j shares its own X value");
                if ti[a] != tj[a] {
                    out.push(CfdViolation::Pair { left: i, right: j });
                }
            }
        }
    }
    out.sort_by_key(CfdViolation::sort_key);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::normalize::normalize;
    use condep_model::fixtures::bank_database;
    use condep_model::tuple;

    #[test]
    fn t12_is_the_only_phi3_violation() {
        // Example 4.1: tuple t12 violates the (UK, checking || 1.5%) row.
        let db = bank_database();
        let normal = normalize(&fixtures::phi3());
        let mut all = Vec::new();
        for n in &normal {
            all.extend(find_violations(&db, n));
        }
        assert_eq!(all.len(), 1);
        match &all[0] {
            CfdViolation::SingleTuple {
                tuple,
                found,
                expected,
            } => {
                let interest = db.schema().rel_id("interest").unwrap();
                let t = db.relation(interest).get(*tuple).unwrap();
                assert_eq!(t, &tuple!["EDI", "UK", "checking", "10.5%"]);
                assert_eq!(found, &Value::str("10.5%"));
                assert_eq!(expected, &Value::str("1.5%"));
            }
            other => panic!("expected single-tuple violation, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_pairs_witness_the_lowest_position_of_the_x_group() {
        use condep_model::{prow, Database, Domain, PValue, Schema};
        use std::sync::Arc;
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
        let n = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let mut db = Database::empty(schema);
        for [a, b, c] in [
            ["k", "v1", "x"],
            ["j", "v2", "x"],
            ["k", "v2", "x"],
            ["k", "v1", "y"],
            ["k", "v3", "x"],
        ] {
            db.insert_into("r", tuple![a, b, c]).unwrap();
        }
        // t3 agrees with t0 on b; t2 and t4 each pair with t0, the k
        // group's lowest position, not with each other.
        assert_eq!(
            find_violations(&db, &n),
            vec![
                CfdViolation::Pair { left: 0, right: 2 },
                CfdViolation::Pair { left: 0, right: 4 },
            ]
        );
    }

    #[test]
    fn cells_and_positions_name_the_rhs_witnesses() {
        let rhs = AttrId(3);
        let single = CfdViolation::SingleTuple {
            tuple: 7,
            found: Value::str("x"),
            expected: Value::str("y"),
        };
        assert_eq!(single.positions(), vec![7]);
        assert_eq!(single.cells(rhs), vec![(7, rhs)]);
        let pair = CfdViolation::Pair { left: 2, right: 9 };
        assert_eq!(pair.positions(), vec![2, 9]);
        assert_eq!(pair.cells(rhs), vec![(2, rhs), (9, rhs)]);
    }

    #[test]
    fn no_violations_on_satisfying_instance() {
        let db = condep_model::fixtures::clean_bank_database();
        for cfd in [fixtures::phi1(), fixtures::phi2(), fixtures::phi3()] {
            for n in normalize(&cfd) {
                assert!(find_violations(&db, &n).is_empty());
            }
        }
    }
}
