//! Violation detection for CINDs.
//!
//! Data cleaning needs the offending tuples, not just a boolean
//! (Example 1.2: `t10` is the dirty tuple ψ6 flags). This module defines
//! the violation types and [`find_violations`], the definition-level
//! reference detector: nested loops straight from Section 2's
//! semantics. Tests check the batched engine (`condep-validate`'s
//! `Validator`) against it.

use crate::syntax::NormalCind;
use condep_model::Database;

/// A CIND violation: a triggered source tuple with no matching target.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CindViolation {
    /// Dense position of the violating tuple in the source relation.
    pub tuple: usize,
    /// The values `t1[X]` that found no partner `t2[Y]`.
    pub key: Vec<condep_model::Value>,
}

impl CindViolation {
    /// The **conflicting cells** of the violation, as `(position, attr)`
    /// pairs over the source relation: the `X` cells of the orphaned
    /// tuple whose values found no partner `t2[Y]`. A repair tool that
    /// neither inserts the missing target nor deletes the orphan could
    /// edit these cells toward an existing target key.
    pub fn cells(&self, x: &[condep_model::AttrId]) -> Vec<(usize, condep_model::AttrId)> {
        x.iter().map(|a| (self.tuple, *a)).collect()
    }
}

/// What one database mutation (insert / delete / update) did to the CIND
/// violations of a compiled suite, as `(constraint index, violation)`
/// pairs — the CIND half of a streamed delta report. Unlike CFDs, an
/// **insert** can resolve CIND violations too: an arriving target tuple
/// supplies the partner every orphaned source tuple with its key was
/// missing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CindDelta {
    /// Violations the mutation created (post-mutation tuple positions).
    pub introduced: Vec<(usize, CindViolation)>,
    /// Violations the mutation removed (pre-mutation tuple positions).
    pub resolved: Vec<(usize, CindViolation)>,
}

impl CindDelta {
    /// Did the mutation change the violation set at all?
    pub fn is_quiet(&self) -> bool {
        self.introduced.is_empty() && self.resolved.is_empty()
    }
}

/// Finds every violation of a normal-form CIND in `db`, in source
/// position order: each tuple `t1` matching `tp[Xp]` for which no target
/// tuple `t2` matches `tp[Yp]` with `t1[X] = t2[Y]`.
///
/// The definition-level reference: nested loops over source and target
/// comparing values, with no index and no hash map, so `O(|I1|·|I2|)`.
/// It is the oracle for tests and pinpoints violations in tiny examples;
/// validating real instances is `condep-validate`'s job.
pub fn find_violations(db: &Database, cind: &NormalCind) -> Vec<CindViolation> {
    let source = db.relation(cind.lhs_rel());
    let target = db.relation(cind.rhs_rel());
    let mut out = Vec::new();
    for (pos, t1) in source.iter().enumerate() {
        if !cind.triggers(t1) {
            continue;
        }
        let partnered = target.iter().any(|t2| {
            cind.rhs_matches(t2) && cind.x().iter().zip(cind.y()).all(|(x, y)| t1[*x] == t2[*y])
        });
        if !partnered {
            out.push(CindViolation {
                tuple: pos,
                key: t1.project(cind.x()),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::normalize::normalize;
    use condep_model::fixtures::{bank_database, clean_bank_database};
    use condep_model::tuple;

    #[test]
    fn t10_is_the_psi6_violation() {
        let db = bank_database();
        let normal = normalize(&fixtures::psi6());
        // Row 0 is the EDI row of T6.
        let violations = find_violations(&db, &normal[0]);
        assert_eq!(violations.len(), 1);
        let checking = db.schema().rel_id("checking").unwrap();
        let t = db.relation(checking).get(violations[0].tuple).unwrap();
        assert_eq!(
            t,
            &tuple!["02", "I. Stark", "EDI, EH1 4FE", "131-6693423", "EDI"],
            "the violating tuple must be t10"
        );
        // The NYC row is satisfied.
        assert!(find_violations(&db, &normal[1]).is_empty());
    }

    #[test]
    fn clean_database_has_no_violations() {
        let db = clean_bank_database();
        for psi in fixtures::figure_2() {
            for n in normalize(&psi) {
                assert!(find_violations(&db, &n).is_empty());
            }
        }
    }

    #[test]
    fn cells_name_the_orphans_x_projection() {
        use condep_model::AttrId;
        let v = CindViolation {
            tuple: 4,
            key: vec![condep_model::Value::str("k")],
        };
        assert_eq!(
            v.cells(&[AttrId(1), AttrId(3)]),
            vec![(4, AttrId(1)), (4, AttrId(3))]
        );
    }

    #[test]
    fn violation_key_reports_the_missing_join_values() {
        let db = bank_database();
        let schema = db.schema();
        // An IND that cannot be satisfied: saving[an] ⊆ interest[ab].
        let n = crate::syntax::NormalCind::parse(
            schema,
            "saving",
            &["an"],
            &[],
            "interest",
            &["ab"],
            &[],
        )
        .unwrap();
        let vs = find_violations(&db, &n);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].key, vec![condep_model::Value::str("01")]);
    }
}
