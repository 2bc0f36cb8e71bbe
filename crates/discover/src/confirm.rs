//! Exact confirmation of sample-mined candidates.
//!
//! One streaming full-data pass over the relations the keep-set
//! touches: each surviving candidate's `(support, confidence)` is
//! re-counted **exactly** — the sampled estimates (kept as
//! [`crate::EvidenceInterval`]s) only steered the search, the emitted
//! Σ′ carries true figures — and candidates whose exact figures fall
//! below the caller's original floors are dropped.
//!
//! Cost: one symbolization of the keep-set's columns through a fresh
//! [`condep_model::Dict`] (a `SymTables::build_for` that skips every
//! column no kept dependency reads), then counting passes over symbols (see [`crate::partition`]):
//! per distinct `(relation, LHS)` group of the keep-set, the stripped
//! partition of the LHS and one tally of each class per RHS the group's
//! members name; per CIND target column, one set of its symbols. That
//! is linear in the data and proportional to the *kept* dependencies,
//! not to the lattice the sampled walk explored.

use crate::config::DiscoveryConfig;
use crate::partition::{tally_class, ClassTally, StrippedPartition, SymCounter, SymSet};
use crate::{DiscoveredCfd, DiscoveredCind};
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, Database, Dict, PValue, RelId, SymTables, SymValue};
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
fn const_sym(dict: &Dict, pv: &PValue) -> Option<SymValue> {
    match pv {
        PValue::Const(v) => dict.sym_value(v),
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
    let (dict, tables) = SymTables::build_for(db, &attrs);
    let support_floor = config.support_floor();
    let confidence_floor = config.confidence_floor();

    // One stripped partition per (relation, LHS attribute list) group.
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
    let mut counter = SymCounter::new(dict.id_bound());
    for key in group_keys {
        let (rel, attrs) = key;
        let members = &groups[key];
        let cols = tables.columns(*rel, attrs);
        let mut partition = StrippedPartition::from_column(cols[0], &mut counter);
        for col in &cols[1..] {
            partition = partition.refine(col, &mut counter);
        }
        let classes: Vec<&[u32]> = partition.classes().collect();
        let class_of = constant_classes(&dict, &cols, &classes, members.iter().map(|&i| &cfds[i]));
        // Exact per-class tallies, once per RHS the group names, shared
        // by its variable and constant members alike.
        let mut tallies: HashMap<AttrId, Vec<ClassTally>, FxBuildHasher> = HashMap::default();
        for &i in members {
            let cand = &mut cfds[i];
            outcome.checked += 1;
            let rhs_col = tables.column(*rel, cand.cfd.rhs());
            let rhs_tallies = tallies.entry(cand.cfd.rhs()).or_insert_with(|| {
                classes
                    .iter()
                    .map(|class| tally_class(class, rhs_col, &mut counter))
                    .collect()
            });
            let (support, agree) = if is_variable(cand) {
                let kept: usize = rhs_tallies.iter().map(|t| t.max_count).sum();
                (partition.support(), kept)
            } else {
                // Constant row: its class, and the members carrying the
                // emitted RHS. A constant whose class was stripped (or
                // that never occurs) supports nothing.
                let lhs_key = lhs_constants(&dict, cand);
                match lhs_key.and_then(|k| class_of.get(&k).copied().flatten()) {
                    Some(ci) => {
                        let tally = rhs_tallies[ci];
                        let agree = match const_sym(&dict, cand.cfd.rhs_pat()) {
                            Some(rhs) if rhs == tally.majority => tally.max_count,
                            Some(rhs) => classes[ci]
                                .iter()
                                .filter(|&&p| rhs_col[p as usize] == rhs)
                                .count(),
                            None => 0,
                        };
                        (tally.len, agree)
                    }
                    None => (0, 0),
                }
            };
            cand.support = support;
            cand.confidence = if support == 0 {
                0.0
            } else {
                agree as f64 / support as f64
            };
            if cand.support < support_floor || cand.confidence < confidence_floor {
                keep_cfd[i] = false;
                outcome.dropped += 1;
            }
        }
    }
    let mut it = keep_cfd.into_iter();
    cfds.retain(|_| it.next().expect("one verdict per candidate"));

    // CINDs: probe the full source column against the full target
    // column's symbol set (shared per target column).
    let mut targets: HashMap<(RelId, AttrId), SymSet, FxBuildHasher> = HashMap::default();
    let mut keep_cind = vec![true; cinds.len()];
    for (i, cand) in cinds.iter_mut().enumerate() {
        outcome.checked += 1;
        let (x, y) = (cand.cind.x(), cand.cind.y());
        debug_assert_eq!(x.len(), 1, "the miner emits unary CINDs");
        let src_col = tables.column(cand.cind.lhs_rel(), x[0]);
        let target = targets
            .entry((cand.cind.rhs_rel(), y[0]))
            .or_insert_with(|| {
                SymSet::of_column(tables.column(cand.cind.rhs_rel(), y[0]), dict.id_bound())
            });
        let cond = cand
            .cind
            .xp()
            .first()
            .map(|(a, v)| (tables.column(cand.cind.lhs_rel(), *a), dict.sym_value(v)));
        let mut support = 0usize;
        let mut hits = 0usize;
        for (pos, sym) in src_col.iter().enumerate() {
            if let Some((cond_col, cond_sym)) = &cond {
                if Some(cond_col[pos]) != *cond_sym {
                    continue;
                }
            }
            support += 1;
            if target.contains(*sym) {
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

/// A variable row: the plain FD, all-wildcard LHS and RHS.
fn is_variable(d: &DiscoveredCfd) -> bool {
    d.cfd.lhs_pat().is_all_any() && !d.cfd.is_constant_rhs()
}

/// A constant row's LHS constants as symbols; `None` when a cell is a
/// wildcard or a constant the full instance never holds.
fn lhs_constants(dict: &Dict, d: &DiscoveredCfd) -> Option<Vec<SymValue>> {
    (0..d.cfd.lhs().len())
        .map(|c| const_sym(dict, d.cfd.lhs_pat().cell(c)))
        .collect()
}

/// The class each constant member's LHS constants name: the class whose
/// first member carries them (`None` when no class does).
fn constant_classes<'a>(
    dict: &Dict,
    cols: &[&[SymValue]],
    classes: &[&[u32]],
    members: impl Iterator<Item = &'a DiscoveredCfd>,
) -> HashMap<Vec<SymValue>, Option<usize>, FxBuildHasher> {
    let mut class_of: HashMap<Vec<SymValue>, Option<usize>, FxBuildHasher> = members
        .filter(|d| !is_variable(d))
        .filter_map(|d| lhs_constants(dict, d))
        .map(|key| (key, None))
        .collect();
    if class_of.is_empty() {
        return class_of;
    }
    let mut key = Vec::with_capacity(cols.len());
    for (ci, class) in classes.iter().enumerate() {
        key.clear();
        key.extend(cols.iter().map(|col| col[class[0] as usize]));
        if let Some(slot) = class_of.get_mut(key.as_slice()) {
            *slot = Some(ci);
        }
    }
    class_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_cfd::NormalCfd;
    use condep_model::{tuple, Domain, PatternRow, Schema};
    use std::sync::Arc;

    /// A candidate `k = lhs → v = rhs` over `r(id, k, v)`.
    fn cfd(lhs: PValue, rhs: PValue) -> DiscoveredCfd {
        DiscoveredCfd {
            cfd: NormalCfd::new(
                RelId(0),
                vec![AttrId(1)],
                PatternRow::new(vec![lhs]),
                AttrId(2),
                rhs,
            ),
            support: 0,
            confidence: 0.0,
            interval: None,
        }
    }

    /// `k = a` on five rows whose `v` is `p, q, p, q, p`; `k = b` on one.
    #[test]
    fn constant_rows_count_their_own_rhs_and_stripped_classes_drop() {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("id", Domain::string()),
                        ("k", Domain::string()),
                        ("v", Domain::string()),
                    ],
                )
                .finish(),
        );
        let mut db = Database::empty(schema);
        for (id, k, v) in [
            ("0", "a", "p"),
            ("1", "a", "q"),
            ("2", "a", "p"),
            ("3", "a", "q"),
            ("4", "a", "p"),
            ("5", "b", "p"),
        ] {
            db.insert_into("r", tuple![id, k, v]).unwrap();
        }
        let config = DiscoveryConfig {
            min_support: 2,
            min_confidence: 0.0,
            ..DiscoveryConfig::default()
        };
        let mut cfds = vec![
            cfd(PValue::Any, PValue::Any),
            // `q` is not the class's majority: its own count decides.
            cfd(PValue::constant("a"), PValue::constant("q")),
            cfd(PValue::constant("a"), PValue::constant("p")),
            cfd(PValue::constant("a"), PValue::constant("absent")),
            // `b`'s class is a singleton, stripped: no support.
            cfd(PValue::constant("b"), PValue::constant("p")),
            cfd(PValue::constant("absent"), PValue::constant("p")),
        ];
        let outcome = confirm(&db, &config, &mut cfds, &mut Vec::new());
        assert_eq!(
            outcome,
            ConfirmOutcome {
                checked: 6,
                dropped: 2
            }
        );
        let figures: Vec<(usize, f64)> = cfds.iter().map(|d| (d.support, d.confidence)).collect();
        assert_eq!(figures, [(5, 0.6), (5, 0.4), (5, 0.6), (5, 0.0)]);
    }
}
