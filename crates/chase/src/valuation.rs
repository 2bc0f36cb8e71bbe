//! Valuations of finite-domain variables (Section 5.2).
//!
//! "Let `V` be the set of all variables associated with attributes that
//! have finite domains. A valuation `ρ_V` w.r.t. `V` is a mapping from
//! `V` to constants in the respective domains of the variables." The set
//! of all valuations is exponential. `RandomChecking` does not sample
//! it: the instantiated chase ([`crate::engine::chase`]) gives each
//! variable a value that fires no conflicting premise. [`all_valuations`]
//! enumerates the space for tests over tiny domains, where it is the
//! ground truth.

use crate::template::{TemplateDb, TplValue, VarRef};
use condep_model::{Schema, Value};
use std::collections::HashMap;

/// A valuation `ρ`: finite-domain variables to domain constants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Valuation {
    assignments: HashMap<VarRef, Value>,
}

impl Valuation {
    /// The empty valuation (used when `V = ∅`, per the paper).
    pub fn empty() -> Self {
        Valuation::default()
    }

    /// Builds a valuation from explicit pairs.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (VarRef, Value)>,
    {
        Valuation {
            assignments: pairs.into_iter().collect(),
        }
    }

    /// The assigned value of `v`, if any.
    pub fn get(&self, v: VarRef) -> Option<&Value> {
        self.assignments.get(&v)
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Is the valuation empty?
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Applies `ρ` to the template (`ρ(D)` in the paper): every assigned
    /// variable is substituted by its constant. Variables with infinite
    /// domains are untouched.
    pub fn apply(&self, db: &mut TemplateDb) {
        for (v, c) in &self.assignments {
            db.substitute(*v, &TplValue::Const(c.clone()));
        }
    }
}

/// The domain values available to a finite-domain variable.
fn domain_of(schema: &Schema, v: VarRef) -> Option<Vec<Value>> {
    schema
        .relation(v.rel)
        .ok()?
        .attribute(v.attr)
        .ok()?
        .domain()
        .values()
        .map(<[Value]>::to_vec)
}

/// Enumerates all valuations (odometer order) — used when the space is
/// small enough to explore exhaustively, and by tests as ground truth.
pub fn all_valuations(schema: &Schema, vars: &[VarRef]) -> Vec<Valuation> {
    let doms: Vec<Vec<Value>> = vars
        .iter()
        .map(|v| domain_of(schema, *v).unwrap_or_default())
        .collect();
    if doms.iter().any(Vec::is_empty) && !vars.is_empty() {
        return vec![];
    }
    let mut out = Vec::new();
    let mut counters = vec![0usize; vars.len()];
    'outer: loop {
        out.push(Valuation::from_pairs(
            vars.iter()
                .enumerate()
                .map(|(i, v)| (*v, doms[i][counters[i]].clone())),
        ));
        let mut i = 0;
        loop {
            if i == counters.len() {
                break 'outer;
            }
            counters[i] += 1;
            if counters[i] < doms[i].len() {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::seed_tuple;
    use crate::template::TplTuple;
    use condep_core::fixtures::example_5_1_schema;
    use condep_model::{AttrId, RelId};

    fn vh() -> VarRef {
        VarRef {
            rel: RelId(1),
            attr: AttrId(1),
            idx: 0,
        }
    }

    #[test]
    fn empty_variable_set_has_one_empty_valuation() {
        // "If V = ∅, then we assume that V_finattr(R) consists of a
        // single empty mapping."
        let schema = example_5_1_schema(true);
        let vals = all_valuations(&schema, &[]);
        assert_eq!(vals, vec![Valuation::empty()]);
    }

    #[test]
    fn all_valuations_enumerate_the_product() {
        let schema = example_5_1_schema(true); // dom(H) = {0, 1}
        let vals = all_valuations(&schema, &[vh()]);
        assert_eq!(vals.len(), 2);
        let assigned: Vec<&Value> = vals.iter().map(|v| v.get(vh()).unwrap()).collect();
        assert!(assigned.contains(&&Value::str("0")));
        assert!(assigned.contains(&&Value::str("1")));
    }

    #[test]
    fn apply_substitutes_in_the_template() {
        let schema = example_5_1_schema(true);
        let mut db = TemplateDb::empty(schema.clone());
        let r2 = schema.rel_id("r2").unwrap();
        seed_tuple(&mut db, r2);
        let rho = Valuation::from_pairs([(vh(), Value::str("1"))]);
        rho.apply(&mut db);
        let t: &TplTuple = &db.relation(r2)[0];
        assert_eq!(t.get(AttrId(1)), &crate::ops::constant("1"));
        // The infinite-domain G variable is untouched.
        assert!(t.get(AttrId(0)).is_var());
        assert!(db.finite_variables().is_empty());
    }
}
