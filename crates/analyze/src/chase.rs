//! Budgeted chase for CFD + CIND interaction.
//!
//! Consistency of CFDs **with** CINDs is undecidable in general
//! (BravoFM07, Theorem 4.2), so this chase is a *sound, incomplete*
//! procedure: it either produces a concrete finite witness database
//! (verified against the full Σ before we claim anything) or gives up,
//! and giving up surfaces as [`crate::SigmaVerdict::Unknown`] — never a
//! wrong verdict.
//!
//! The search space is deliberately tiny: one tuple per relation. Start
//! from a relation whose CFD set is satisfiable, then close CIND
//! obligations — a triggered CIND pins the target tuple's `Y` cells to
//! the source's `X` projection plus the `Yp` constants, and the pinned
//! single-tuple SAT encoding of `condep_cfd::consistency` searches for
//! a target tuple satisfying the target relation's CFDs under those
//! pins. Any contradiction between two obligations on the same relation
//! (each relation holds one tuple) aborts the attempt.

use condep_cfd::consistency::{relation_consistency_pinned, RelationVerdict};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{AttrId, Database, RelId, Schema, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{CHASE_STEPS, MAX_CONFLICTS};

/// Try to close all CIND obligations starting from `(start, seed)`.
/// Returns a fully verified witness database, or `None` to signal
/// "give up" (the caller degrades to `Unknown`).
pub(crate) fn chase(
    schema: &Arc<Schema>,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
    start: RelId,
    seed: &Tuple,
    avoid: &BTreeMap<RelId, Vec<(AttrId, Value)>>,
) -> Option<Database> {
    let mut occupied: BTreeMap<RelId, Tuple> = BTreeMap::new();
    occupied.insert(start, seed.clone());

    let by_rel = |rel: RelId| -> Vec<(usize, &NormalCfd)> {
        cfds.iter()
            .enumerate()
            .filter(|(_, c)| c.rel() == rel)
            .collect()
    };
    let empty: Vec<(AttrId, Value)> = Vec::new();

    // Each productive pass occupies at least one new relation, so the
    // loop ends within |relations| passes; the step budget is a
    // belt-and-braces cap on top.
    for _ in 0..CHASE_STEPS {
        let mut progressed = false;
        for cind in cinds {
            let Some(t) = occupied.get(&cind.lhs_rel()) else {
                continue;
            };
            if !cind.triggers(t) {
                continue;
            }
            // Obligation: some target tuple u with u[Y] = t[X] and u
            // matching Yp.
            let mut pins: Vec<(AttrId, Value)> = cind
                .y()
                .iter()
                .zip(t.project(cind.x()))
                .map(|(&a, v)| (a, v))
                .collect();
            pins.extend(cind.yp().iter().cloned());

            if let Some(u) = occupied.get(&cind.rhs_rel()) {
                let met = pins.iter().all(|(a, v)| u.get(*a) == Some(v));
                if met {
                    continue;
                }
                // The single resident target tuple conflicts with this
                // obligation; a richer instance might resolve it, so
                // give up rather than conclude anything.
                return None;
            }

            // Conflicting pins on the same attr (e.g. Yp vs. carried X
            // values) can never be met by one tuple: give up.
            for (i, (a, v)) in pins.iter().enumerate() {
                if pins[i + 1..].iter().any(|(b, w)| a == b && v != w) {
                    return None;
                }
            }

            let group = by_rel(cind.rhs_rel());
            let avoid_rel = avoid.get(&cind.rhs_rel()).unwrap_or(&empty);
            match relation_consistency_pinned(
                schema,
                cind.rhs_rel(),
                &group,
                &pins,
                avoid_rel,
                MAX_CONFLICTS,
            ) {
                RelationVerdict::Sat(u) => {
                    occupied.insert(cind.rhs_rel(), u);
                    progressed = true;
                }
                // Unsat under pins only rules out *single-tuple*
                // targets; Unknown rules out nothing. Either way this
                // attempt cannot conclude.
                RelationVerdict::Unsat(_) | RelationVerdict::Unknown => return None,
            }
        }
        if !progressed {
            break; // fixpoint: every triggered obligation is met
        }
    }

    // Materialize and verify against the full Σ before claiming Sat.
    let mut db = Database::empty(Arc::clone(schema));
    for (rel, t) in occupied {
        if db.insert(rel, t).is_err() {
            return None;
        }
    }
    let ok = condep_cfd::satisfy::satisfies_all(&db, cfds)
        && condep_core::satisfy::satisfies_all(&db, cinds);
    ok.then_some(db)
}
