//! Level-wise CFD mining over stripped partitions.
//!
//! Per relation the miner walks the attribute-set lattice bottom-up:
//! level 1 holds the single-attribute partitions (one counting sort of
//! each pre-symbolized column), level `k + 1` refines level-`k`
//! partitions by one more column. At every node `X` and for every RHS
//! attribute `A ∉ X` the per-class tallies of `π_X` against `A`'s
//! column answer three questions at once:
//!
//! * does the **variable** CFD (the plain FD `X → A`, all-wildcard
//!   pattern row) hold — and with what support (`‖π_X‖`) and confidence
//!   (fraction of supported tuples outside each class's majority that
//!   would have to go)?
//! * which **constant** tableau rows `(X = x̄ ‖ A = a)` hold: each
//!   equivalence class of `π_X` is one candidate constant pattern, its
//!   size the support, its majority-`A` frequency the confidence;
//! * is the candidate worth keeping at all — trivial (`A ∈ X`), vacuous
//!   (key `X`), or non-minimal (`X' ⊊ X` already gives `X' → A`
//!   exactly) candidates are pruned during the walk, before ranking.
//!
//! The walk is exact TANE-style for the wildcard level and a
//! *specialization* pass (constants per class) rather than a full CTANE
//! pattern-lattice exploration: mixed wildcard/constant LHS patterns are
//! out of scope (see the crate docs for the non-goals).
//!
//! Partitions and tallies are counting passes over symbols through one
//! [`SymCounter`] per relation (see [`crate::partition`]).

use crate::config::DiscoveryConfig;
use crate::partition::{tally_class, ClassTally, StrippedPartition, SymCounter};
use crate::{DiscoveredCfd, DiscoveryStats};
use condep_cfd::NormalCfd;
use condep_model::{AttrId, Interner, PValue, PatternRow, RelId, SymTables, SymValue, Value};

/// Resolves an interned symbol back to its [`Value`].
pub(crate) fn value_of(interner: &Interner, sym: SymValue) -> Value {
    match sym {
        SymValue::Bool(b) => Value::bool(b),
        SymValue::Int(i) => Value::int(i),
        SymValue::Str(s) => Value::str(interner.resolve(s)),
    }
}

/// One lattice node: a sorted attribute set and its stripped partition.
struct Node {
    attrs: Vec<AttrId>,
    partition: StrippedPartition,
}

/// Exact FDs found so far, per RHS attribute — the minimality filter.
struct MinimalFds {
    /// `per_rhs[A] =` list of minimal exact LHS sets for `A`.
    per_rhs: Vec<Vec<Vec<AttrId>>>,
}

impl MinimalFds {
    fn new(arity: usize) -> Self {
        MinimalFds {
            per_rhs: vec![Vec::new(); arity],
        }
    }

    /// Is some already-found exact LHS for `rhs` a subset of `attrs`?
    fn covers(&self, rhs: AttrId, attrs: &[AttrId]) -> bool {
        self.per_rhs[rhs.index()]
            .iter()
            .any(|lhs| lhs.iter().all(|a| attrs.contains(a)))
    }

    fn record(&mut self, rhs: AttrId, attrs: &[AttrId]) {
        self.per_rhs[rhs.index()].push(attrs.to_vec());
    }
}

/// Mines every CFD candidate of one relation. Candidates arrive
/// unranked; the caller ranks, dedups against implication and caps.
pub(crate) fn mine_relation(
    rel: RelId,
    interner: &Interner,
    tables: &SymTables,
    config: &DiscoveryConfig,
    stats: &mut DiscoveryStats,
    out: &mut Vec<DiscoveredCfd>,
) {
    let cols = tables.rel_columns(rel);
    let arity = cols.len();
    let rows = tables.rows(rel);
    if arity < 2 || rows < 2 {
        return;
    }
    let min_support = config.support_floor();
    let min_confidence = config.confidence_floor();
    let mut minimal = MinimalFds::new(arity);
    let mut counter = SymCounter::new(interner.len());

    // Level 1: one partition per attribute.
    let mut level: Vec<Node> = (0..arity)
        .filter_map(|a| {
            stats.lattice_nodes += 1;
            let partition = StrippedPartition::from_column(&cols[a], &mut counter);
            // A key attribute supports nothing and refines to nothing.
            (!partition.is_key()).then(|| Node {
                attrs: vec![AttrId(a as u32)],
                partition,
            })
        })
        .collect();

    for depth in 1..=config.max_lhs {
        for node in &level {
            if node.partition.support() < min_support {
                continue;
            }
            for rhs in (0..arity).map(|a| AttrId(a as u32)) {
                if node.attrs.contains(&rhs) {
                    stats.pruned_trivial += 1;
                    continue;
                }
                if minimal.covers(rhs, &node.attrs) {
                    // X ⊇ X' with X' → A exact: everything this node
                    // could say about A specializes the minimal FD.
                    stats.pruned_nonminimal += 1;
                    continue;
                }
                emit_candidates(
                    rel,
                    node,
                    rhs,
                    cols,
                    interner,
                    config,
                    min_support,
                    min_confidence,
                    &mut minimal,
                    &mut counter,
                    stats,
                    out,
                );
            }
        }
        if depth == config.max_lhs {
            break;
        }
        // Extend each node by one attribute beyond its maximum — the
        // standard prefix-free candidate generation; refinement reuses
        // the parent partition. Stripped support is anti-monotone under
        // refinement, so a node already below the support floor can
        // never produce an emitting child and is not extended.
        let mut next: Vec<Node> = Vec::new();
        for node in &level {
            if node.partition.support() < min_support {
                continue;
            }
            let max = node.attrs.last().expect("nodes are non-empty").index();
            for (b, col) in cols.iter().enumerate().skip(max + 1) {
                stats.lattice_nodes += 1;
                let partition = node.partition.refine(col, &mut counter);
                if partition.is_key() {
                    continue;
                }
                let mut attrs = node.attrs.clone();
                attrs.push(AttrId(b as u32));
                next.push(Node { attrs, partition });
            }
        }
        level = next;
    }
}

/// Emits the variable row and the qualifying constant rows of one
/// `(X, A)` candidate, updating the minimality filter.
#[allow(clippy::too_many_arguments)]
fn emit_candidates(
    rel: RelId,
    node: &Node,
    rhs: AttrId,
    cols: &[Vec<SymValue>],
    interner: &Interner,
    config: &DiscoveryConfig,
    min_support: usize,
    min_confidence: f64,
    minimal: &mut MinimalFds,
    counter: &mut SymCounter,
    stats: &mut DiscoveryStats,
    out: &mut Vec<DiscoveredCfd>,
) {
    let rhs_col = &cols[rhs.index()];
    let support = node.partition.support();
    let mut kept_tuples = 0usize;
    // (class index, tally) for classes that qualify as constant rows.
    let mut constant_rows: Vec<(usize, ClassTally)> = Vec::new();
    for (ci, class) in node.partition.classes().enumerate() {
        let tally = tally_class(class, rhs_col, counter);
        kept_tuples += tally.max_count;
        let class_confidence = tally.max_count as f64 / tally.len as f64;
        if tally.len >= min_support && class_confidence >= min_confidence {
            constant_rows.push((ci, tally));
        }
    }
    stats.cfd_candidates += 1 + constant_rows.len();

    // Variable row: the plain FD X → A.
    let exact = kept_tuples == support;
    let confidence = kept_tuples as f64 / support as f64;
    if exact {
        minimal.record(rhs, &node.attrs);
    }
    if support >= min_support && confidence >= min_confidence {
        out.push(DiscoveredCfd {
            cfd: NormalCfd::new(
                rel,
                node.attrs.clone(),
                PatternRow::all_any(node.attrs.len()),
                rhs,
                PValue::Any,
            ),
            support,
            confidence,
            interval: None,
        });
    }

    // Constant rows: one per qualifying class, largest first (class
    // order breaks ties deterministically), capped per candidate.
    if constant_rows.len() > config.max_patterns_per_fd {
        stats.pruned_capped += constant_rows.len() - config.max_patterns_per_fd;
        constant_rows.sort_by(|(ai, a), (bi, b)| b.len.cmp(&a.len).then(ai.cmp(bi)));
        constant_rows.truncate(config.max_patterns_per_fd);
        constant_rows.sort_by_key(|&(ci, _)| ci);
    }
    let classes: Vec<&[u32]> = node.partition.classes().collect();
    for (ci, tally) in constant_rows {
        // Every class member agrees on X; the first (lowest) position
        // is the canonical witness for the constants.
        let witness = classes[ci][0] as usize;
        let cells: Vec<PValue> = node
            .attrs
            .iter()
            .map(|a| PValue::Const(value_of(interner, cols[a.index()][witness])))
            .collect();
        out.push(DiscoveredCfd {
            cfd: NormalCfd::new(
                rel,
                node.attrs.clone(),
                PatternRow::new(cells),
                rhs,
                PValue::Const(value_of(interner, tally.majority)),
            ),
            support: tally.len,
            confidence: tally.max_count as f64 / tally.len as f64,
            interval: None,
        });
    }
}
