//! Constraint sets Σ of CFDs and CINDs.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{Database, RelId, Schema, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A set Σ of normal-form CFDs and CINDs over one schema — the input of
/// every Section 5 algorithm.
#[derive(Clone, Debug)]
pub struct ConstraintSet {
    schema: Arc<Schema>,
    cfds: Vec<NormalCfd>,
    cinds: Vec<NormalCind>,
}

impl ConstraintSet {
    /// Creates a constraint set.
    pub fn new(schema: Arc<Schema>, cfds: Vec<NormalCfd>, cinds: Vec<NormalCind>) -> Self {
        ConstraintSet {
            schema,
            cfds,
            cinds,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All CFDs.
    pub fn cfds(&self) -> &[NormalCfd] {
        &self.cfds
    }

    /// All CINDs.
    pub fn cinds(&self) -> &[NormalCind] {
        &self.cinds
    }

    /// Total number of constraints (`card(Σ)`).
    pub fn len(&self) -> usize {
        self.cfds.len() + self.cinds.len()
    }

    /// Is Σ empty?
    pub fn is_empty(&self) -> bool {
        self.cfds.is_empty() && self.cinds.is_empty()
    }

    /// The CFDs defined on relation `rel` (`CFD(R)` in Section 5.3).
    pub fn cfds_on(&self, rel: RelId) -> Vec<NormalCfd> {
        self.cfds
            .iter()
            .filter(|c| c.rel() == rel)
            .cloned()
            .collect()
    }

    /// The CINDs whose source is `rel`.
    pub fn cinds_from(&self, rel: RelId) -> Vec<NormalCind> {
        self.cinds
            .iter()
            .filter(|c| c.lhs_rel() == rel)
            .cloned()
            .collect()
    }

    /// The CINDs from `ri` to `rj` (`CIND(Ri, Rj)` in Section 5.3).
    pub fn cinds_between(&self, ri: RelId, rj: RelId) -> Vec<NormalCind> {
        self.cinds
            .iter()
            .filter(|c| c.lhs_rel() == ri && c.rhs_rel() == rj)
            .cloned()
            .collect()
    }

    /// Every constant appearing in Σ (used to pick fresh values).
    pub fn all_constants(&self) -> Vec<Value> {
        let mut out: BTreeSet<Value> = BTreeSet::new();
        for c in &self.cfds {
            for (_, v) in c.pattern_constants() {
                out.insert(v);
            }
        }
        for c in &self.cinds {
            for (_, _, v) in c.constants() {
                out.insert(v.clone());
            }
        }
        out.into_iter().collect()
    }

    /// Restriction of Σ to the given relations (used by `Checking` to
    /// process one connected component at a time).
    pub fn restrict_to(&self, rels: &BTreeSet<RelId>) -> ConstraintSet {
        ConstraintSet::new(
            self.schema.clone(),
            self.cfds
                .iter()
                .filter(|c| rels.contains(&c.rel()))
                .cloned()
                .collect(),
            self.cinds
                .iter()
                .filter(|c| rels.contains(&c.lhs_rel()) && rels.contains(&c.rhs_rel()))
                .cloned()
                .collect(),
        )
    }

    /// Does `db` satisfy every constraint of Σ? This is the certificate
    /// check behind Theorem 5.1, at the definition level:
    /// [`condep_cfd::satisfy::satisfies_all`] and
    /// [`condep_core::satisfy::satisfies_all`], one hashed `O(|I|)` pass
    /// per dependency. That suits the few-tuple witnesses the Section 5
    /// algorithms certify; batched validation of large instances is
    /// `condep-validate`'s job.
    pub fn satisfied_by(&self, db: &Database) -> bool {
        condep_cfd::satisfy::satisfies_all(db, &self.cfds)
            && condep_core::satisfy::satisfies_all(db, &self.cinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_core::fixtures::{example_5_4_cinds, example_5_4_schema};
    use condep_model::{prow, PValue};

    fn example_5_4_set() -> ConstraintSet {
        let schema = example_5_4_schema();
        let cinds = example_5_4_cinds(&schema);
        let cfds = vec![
            NormalCfd::parse(&schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap(),
            NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c")).unwrap(),
            NormalCfd::parse(&schema, "r3", &["a"], prow!["c"], "b", PValue::Any).unwrap(),
            NormalCfd::parse(&schema, "r4", &["c"], prow![_], "d", PValue::constant("a")).unwrap(),
            NormalCfd::parse(&schema, "r4", &["c"], prow![_], "d", PValue::constant("b")).unwrap(),
            NormalCfd::parse(&schema, "r5", &["i"], prow![_], "j", PValue::constant("c")).unwrap(),
        ];
        ConstraintSet::new(schema, cfds, cinds)
    }

    #[test]
    fn per_relation_lookups() {
        let sigma = example_5_4_set();
        let schema = sigma.schema().clone();
        let r4 = schema.rel_id("r4").unwrap();
        assert_eq!(sigma.cfds_on(r4).len(), 2);
        let r1 = schema.rel_id("r1").unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        assert_eq!(sigma.cinds_from(r1).len(), 1);
        assert_eq!(sigma.cinds_between(r1, r2).len(), 1);
        assert_eq!(sigma.cinds_between(r2, r1).len(), 2);
        assert_eq!(sigma.len(), 11);
        assert!(!sigma.is_empty());
    }

    #[test]
    fn constants_are_collected_across_both_kinds() {
        let sigma = example_5_4_set();
        let consts = sigma.all_constants();
        // CFD constants: c, a, b; CIND constants: a, b, c, d, true, false.
        assert!(consts.contains(&Value::str("a")));
        assert!(consts.contains(&Value::str("d")));
        assert!(consts.contains(&Value::bool(true)));
    }

    #[test]
    fn restriction_drops_cross_component_cinds() {
        let sigma = example_5_4_set();
        let schema = sigma.schema().clone();
        let r1 = schema.rel_id("r1").unwrap();
        let r2 = schema.rel_id("r2").unwrap();
        let rels: BTreeSet<RelId> = [r1, r2].into_iter().collect();
        let restricted = sigma.restrict_to(&rels);
        // ψ1, ψ2, ψ3 stay (between r1 and r2); ψ4, ψ5 drop.
        assert_eq!(restricted.cinds().len(), 3);
        // CFDs on r1, r2 stay.
        assert_eq!(restricted.cfds().len(), 2);
    }

    #[test]
    fn satisfied_by_empty_database() {
        let sigma = example_5_4_set();
        let db = Database::empty(sigma.schema().clone());
        assert!(sigma.satisfied_by(&db));
    }
}
