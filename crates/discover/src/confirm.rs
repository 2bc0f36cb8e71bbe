//! Exact confirmation of sample-mined candidates.
//!
//! One streaming full-data pass over the relations the keep-set
//! touches: each surviving candidate's `(support, confidence)` is
//! re-counted **exactly** — the sampled estimates (kept as
//! [`crate::EvidenceInterval`]s) only steered the search, the emitted
//! Σ′ carries true figures — and candidates whose exact figures fall
//! below the caller's original floors are dropped.
//!
//! Cost: one symbolization of the keep-set's columns (a
//! `SymTables::build_for` that skips every column no kept dependency
//! reads) plus one `SymIndex` per distinct `(relation, LHS)` group of
//! the keep-set — linear in the data and proportional to the *kept*
//! dependencies, not to the lattice the sampled walk explored.

use crate::config::DiscoveryConfig;
use crate::{DiscoveredCfd, DiscoveredCind};
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, Database, Interner, PValue, RelId, SymIndex, SymTables, SymValue};
use std::collections::HashMap;

/// Counters of one confirmation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ConfirmOutcome {
    /// Candidates exactly re-counted.
    pub checked: usize,
    /// Candidates dropped because their exact figures miss the floors.
    pub dropped: usize,
}

/// Translates a constant pattern cell to its full-data symbol. `None`
/// means the constant does not occur in the full instance at all.
fn const_sym(interner: &Interner, pv: &PValue) -> Option<SymValue> {
    match pv {
        PValue::Const(v) => interner.sym_value(v),
        PValue::Any => None,
    }
}

/// Exactly re-counts every candidate against `db`, updating
/// `support`/`confidence` in place and dropping candidates below the
/// configured floors.
pub(crate) fn confirm(
    db: &Database,
    config: &DiscoveryConfig,
    cfds: &mut Vec<DiscoveredCfd>,
    cinds: &mut Vec<DiscoveredCind>,
) -> ConfirmOutcome {
    let mut outcome = ConfirmOutcome::default();
    // Symbolize only the keep-set's columns.
    let mut attrs: Vec<Vec<AttrId>> = vec![Vec::new(); db.schema().len()];
    for d in cfds.iter() {
        let cols = &mut attrs[d.cfd.rel().index()];
        cols.extend_from_slice(d.cfd.lhs());
        cols.push(d.cfd.rhs());
    }
    for d in cinds.iter() {
        let source = &mut attrs[d.cind.lhs_rel().index()];
        source.extend_from_slice(d.cind.x());
        source.extend(d.cind.xp().iter().map(|(a, _)| *a));
        attrs[d.cind.rhs_rel().index()].extend_from_slice(d.cind.y());
    }
    let (interner, tables) = SymTables::build_for(db, &attrs);
    let support_floor = config.support_floor();
    let confidence_floor = config.confidence_floor();

    // One shared LHS index per (relation, LHS attribute list) group.
    let mut groups: HashMap<(RelId, Vec<AttrId>), Vec<usize>, FxBuildHasher> = HashMap::default();
    for (i, d) in cfds.iter().enumerate() {
        groups
            .entry((d.cfd.rel(), d.cfd.lhs().to_vec()))
            .or_default()
            .push(i);
    }
    let mut group_keys: Vec<&(RelId, Vec<AttrId>)> = groups.keys().collect();
    group_keys.sort(); // deterministic confirmation order
    let mut keep_cfd = vec![true; cfds.len()];
    let mut class_buf: Vec<SymValue> = Vec::new();
    for key in group_keys {
        let (rel, attrs) = key;
        let members = &groups[key];
        let rows = tables.rows(*rel);
        let cols: Vec<&[SymValue]> = attrs.iter().map(|a| tables.column(*rel, *a)).collect();
        let idx = SymIndex::build_from_columns(rows, &cols, |_| true);
        // Exact stripped-partition tallies per RHS, shared by every
        // variable candidate of the group.
        let mut variable: HashMap<AttrId, (usize, usize), FxBuildHasher> = HashMap::default();
        for &i in members {
            let cand = &mut cfds[i];
            outcome.checked += 1;
            let rhs_col = tables.column(*rel, cand.cfd.rhs());
            if cand.cfd.lhs_pat().is_all_any() && !cand.cfd.is_constant_rhs() {
                let (support, kept) = *variable.entry(cand.cfd.rhs()).or_insert_with(|| {
                    let mut support = 0usize;
                    let mut kept = 0usize;
                    for (_, positions) in idx.groups() {
                        class_buf.clear();
                        class_buf.extend(positions.iter().map(|&p| rhs_col[p as usize]));
                        if class_buf.len() < 2 {
                            continue; // stripped: singletons support nothing
                        }
                        support += class_buf.len();
                        class_buf.sort_unstable();
                        let mut max_run = 0usize;
                        let mut run = 0usize;
                        for w in 0..class_buf.len() {
                            if w > 0 && class_buf[w] == class_buf[w - 1] {
                                run += 1;
                            } else {
                                run = 1;
                            }
                            max_run = max_run.max(run);
                        }
                        kept += max_run;
                    }
                    (support, kept)
                });
                cand.support = support;
                cand.confidence = if support == 0 {
                    0.0
                } else {
                    kept as f64 / support as f64
                };
            } else {
                // Constant row: probe its class, count the emitted RHS.
                let key_syms: Option<Vec<SymValue>> = (0..attrs.len())
                    .map(|c| const_sym(&interner, cand.cfd.lhs_pat().cell(c)))
                    .collect();
                let rhs_sym = const_sym(&interner, cand.cfd.rhs_pat());
                let (support, agree) = match key_syms {
                    Some(key) => {
                        let mut support = 0usize;
                        let mut agree = 0usize;
                        for &p in idx.positions(&key) {
                            support += 1;
                            if Some(rhs_col[p as usize]) == rhs_sym {
                                agree += 1;
                            }
                        }
                        (support, agree)
                    }
                    None => (0, 0), // the pattern constant never occurs
                };
                cand.support = support;
                cand.confidence = if support == 0 {
                    0.0
                } else {
                    agree as f64 / support as f64
                };
            }
            if cand.support < support_floor || cand.confidence < confidence_floor {
                keep_cfd[i] = false;
                outcome.dropped += 1;
            }
        }
    }
    let mut it = keep_cfd.into_iter();
    cfds.retain(|_| it.next().expect("one verdict per candidate"));

    // CINDs: probe the full source column against the full target
    // distinct-value index (shared per target column).
    let mut target_indexes: HashMap<(RelId, AttrId), SymIndex, FxBuildHasher> = HashMap::default();
    let mut keep_cind = vec![true; cinds.len()];
    for (i, cand) in cinds.iter_mut().enumerate() {
        outcome.checked += 1;
        let (x, y) = (cand.cind.x(), cand.cind.y());
        debug_assert_eq!(x.len(), 1, "the miner emits unary CINDs");
        let src_col = tables.column(cand.cind.lhs_rel(), x[0]);
        let idx = target_indexes
            .entry((cand.cind.rhs_rel(), y[0]))
            .or_insert_with(|| {
                let col = tables.column(cand.cind.rhs_rel(), y[0]);
                SymIndex::build_from_columns(col.len(), &[col], |_| true)
            });
        let cond = cand.cind.xp().first().map(|(a, v)| {
            (
                tables.column(cand.cind.lhs_rel(), *a),
                interner.sym_value(v),
            )
        });
        let mut support = 0usize;
        let mut hits = 0usize;
        for (pos, sym) in src_col.iter().enumerate() {
            if let Some((cond_col, cond_sym)) = &cond {
                if Some(cond_col[pos]) != *cond_sym {
                    continue;
                }
            }
            support += 1;
            if idx.contains_key(std::slice::from_ref(sym)) {
                hits += 1;
            }
        }
        cand.support = support;
        cand.confidence = if support == 0 {
            0.0
        } else {
            hits as f64 / support as f64
        };
        if support < support_floor || cand.confidence < confidence_floor {
            keep_cind[i] = false;
            outcome.dropped += 1;
        }
    }
    let mut it = keep_cind.into_iter();
    cinds.retain(|_| it.next().expect("one verdict per candidate"));
    outcome
}
