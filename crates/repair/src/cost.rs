//! The repair cost model.

use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, RelId};
use std::collections::HashMap;

/// Weights the repair engine minimizes (greedily — see the crate docs
/// for why not optimally): one weight per cell edit (overridable per
/// attribute), one per tuple deletion, one per tuple insertion.
///
/// The default instance is **uniform** (every weight `1.0`). Under
/// uniform weights the engine's deterministic tie-breaking prefers the
/// least destructive fix: a cell edit over a tuple deletion, and an
/// insertion over a deletion — repairs keep data unless the deltas prove
/// an edit cannot help.
///
/// The per-attribute override models the classic cost-based cleaning
/// setting where some columns are trusted (expensive to touch — raise
/// their weight) and others are known noisy (cheap to touch).
///
/// Candidates are ordered by [`f64::total_cmp`], so every weight has a
/// place in the order and none panics. A NaN weight with the sign bit
/// clear (as [`f64::NAN`]) ranks its action after every other weight;
/// one with the sign bit set ranks it before every other weight. A
/// kept fix reports its weight as its cost, so such a fix makes the
/// run's `total_cost` NaN. Among finite weights the order is the
/// numeric one, except that `-0.0` ranks before `+0.0`.
#[derive(Clone, Debug)]
pub struct RepairCost {
    /// Base weight of editing one cell.
    pub cell_edit: f64,
    /// Weight of deleting a whole tuple.
    pub tuple_delete: f64,
    /// Weight of inserting a new tuple.
    pub tuple_insert: f64,
    /// Per-attribute edit-weight overrides (replace `cell_edit`).
    pub attr_weights: HashMap<(RelId, AttrId), f64, FxBuildHasher>,
}

impl Default for RepairCost {
    fn default() -> Self {
        RepairCost::uniform()
    }
}

impl RepairCost {
    /// The uniform instance: every repair action costs `1.0`.
    pub fn uniform() -> Self {
        RepairCost {
            cell_edit: 1.0,
            tuple_delete: 1.0,
            tuple_insert: 1.0,
            attr_weights: HashMap::default(),
        }
    }

    /// Builder-style per-attribute edit-weight override.
    pub fn with_attr_weight(mut self, rel: RelId, attr: AttrId, weight: f64) -> Self {
        self.attr_weights.insert((rel, attr), weight);
        self
    }

    /// The cost of editing cell `(rel, attr)` of one tuple.
    pub fn edit_cost(&self, rel: RelId, attr: AttrId) -> f64 {
        self.attr_weights
            .get(&(rel, attr))
            .copied()
            .unwrap_or(self.cell_edit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_defaults_and_overrides() {
        let c = RepairCost::default();
        assert_eq!(c.edit_cost(RelId(0), AttrId(1)), 1.0);
        assert_eq!(c.tuple_delete, 1.0);
        assert_eq!(c.tuple_insert, 1.0);
        let c = c.with_attr_weight(RelId(0), AttrId(1), 7.5);
        assert_eq!(c.edit_cost(RelId(0), AttrId(1)), 7.5);
        assert_eq!(c.edit_cost(RelId(0), AttrId(2)), 1.0);
    }
}
