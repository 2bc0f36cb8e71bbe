//! Inclusion mining: exact INDs and conditioned near-INDs.
//!
//! Candidates are single-column pairs `(R1.A, R2.B)` of matching base
//! type (the unary base case every inclusion miner starts from; wider
//! embedded INDs are a non-goal, see the crate docs). Because the whole
//! database is symbolized through **one** [`condep_model::Dict`], a
//! source cell probes the target column's set of symbols directly (a
//! bitmap over string ids, see [`crate::partition`]) — no value ever
//! re-hashes its string bytes.
//!
//! * **exact** — every source value appears in the target: emit the
//!   traditional IND `R1[A] ⊆ R2[B]` (empty `Xp`/`Yp`).
//! * **near** — coverage is below 1 but at least the confidence floor:
//!   optionally emit the approximate IND itself (when the floor is
//!   `< 1`), then hunt for the constant conditions that make it exact:
//!   a source attribute/value pair `(C, c)` qualifies when **no**
//!   uncovered tuple carries `C = c` while at least `min_support`
//!   covered tuples do. The highest-support conditions become
//!   `R1[A; C = c] ⊆ R2[B]` rows — conditioned CINDs that hold exactly.

use crate::cfd_miner::value_of;
use crate::config::DiscoveryConfig;
use crate::partition::SymSet;
use crate::{DiscoveredCind, DiscoveryStats};
use condep_core::NormalCind;
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, Database, Dict, RelId, SymTables, SymValue};
use std::collections::HashMap;

/// Mines every CIND candidate of the database. Candidates arrive
/// unranked; the caller ranks, prunes against implication and caps.
pub(crate) fn mine(
    db: &Database,
    dict: &Dict,
    tables: &SymTables,
    config: &DiscoveryConfig,
    stats: &mut DiscoveryStats,
    out: &mut Vec<DiscoveredCind>,
) {
    let schema = db.schema();
    let min_confidence = config.confidence_floor();
    let min_support = config.support_floor();

    // One set of symbols per column, built lazily (a column that is
    // never a viable target costs nothing); likewise one per-value
    // frequency map per condition column, shared across every target
    // its relation probes.
    let mut target_sets: HashMap<(RelId, AttrId), SymSet, FxBuildHasher> = HashMap::default();
    type Totals = HashMap<SymValue, usize, FxBuildHasher>;
    let mut totals_cache: HashMap<(RelId, AttrId), Totals, FxBuildHasher> = HashMap::default();

    let columns: Vec<(RelId, AttrId)> = schema
        .iter()
        .flat_map(|(rel, rs)| (0..rs.arity()).map(move |a| (rel, AttrId(a as u32))))
        .collect();

    for &(src_rel, src_attr) in &columns {
        let src_col = tables.column(src_rel, src_attr);
        if src_col.is_empty() {
            continue;
        }
        let src_type = base_type(schema, src_rel, src_attr);
        for &(dst_rel, dst_attr) in &columns {
            if (src_rel, src_attr) == (dst_rel, dst_attr)
                || base_type(schema, dst_rel, dst_attr) != src_type
                || tables.rows(dst_rel) == 0
            {
                continue;
            }
            stats.cind_candidates += 1;
            let target = target_sets.entry((dst_rel, dst_attr)).or_insert_with(|| {
                SymSet::of_column(tables.column(dst_rel, dst_attr), dict.id_bound())
            });

            // Coverage pass, bailing out once the pair is hopeless for
            // BOTH uses of the misses: the approximate IND (floor
            // `(1 - min_confidence) × n`) and the condition hunt, which
            // tolerates up to half the column missing regardless of the
            // confidence floor — relaxing the floor must never lose a
            // conditioned CIND strict mode would find.
            let approx_misses = ((1.0 - min_confidence) * src_col.len() as f64).floor() as usize;
            let allowed_misses = approx_misses.max(src_col.len() / 2);
            let mut misses: Vec<u32> = Vec::new();
            let mut hopeless = false;
            for (pos, sym) in src_col.iter().enumerate() {
                if !target.contains(*sym) {
                    misses.push(pos as u32);
                    if misses.len() > allowed_misses {
                        hopeless = true;
                        break;
                    }
                }
            }
            if hopeless {
                continue;
            }

            if misses.is_empty() {
                if src_col.len() >= min_support {
                    out.push(DiscoveredCind {
                        cind: NormalCind::new(
                            src_rel,
                            dst_rel,
                            vec![src_attr],
                            vec![dst_attr],
                            Vec::new(),
                            Vec::new(),
                        ),
                        support: src_col.len(),
                        confidence: 1.0,
                        interval: None,
                    });
                }
                continue;
            }

            // Approximate IND: only meaningful below a 1.0 floor.
            let coverage = (src_col.len() - misses.len()) as f64 / src_col.len() as f64;
            if min_confidence < 1.0 && coverage >= min_confidence && src_col.len() >= min_support {
                out.push(DiscoveredCind {
                    cind: NormalCind::new(
                        src_rel,
                        dst_rel,
                        vec![src_attr],
                        vec![dst_attr],
                        Vec::new(),
                        Vec::new(),
                    ),
                    support: src_col.len(),
                    confidence: coverage,
                    interval: None,
                });
            }

            // Condition hunt: for each other source attribute, a value
            // with zero dirty (miss-side) occurrences and enough total
            // support conditions the IND into an exact one. The
            // per-value totals depend only on the source column, so
            // they are computed once per column and reused across every
            // target this source probes; only the dirty counts are
            // per-pair.
            let src_cols = tables.rel_columns(src_rel);
            let mut conditions: Vec<(usize, AttrId, SymValue)> = Vec::new();
            let mut dirty: HashMap<SymValue, usize, FxBuildHasher> = HashMap::default();
            for (c, cond_col) in src_cols.iter().enumerate() {
                let cond_attr = AttrId(c as u32);
                if cond_attr == src_attr {
                    continue;
                }
                let totals = totals_cache.entry((src_rel, cond_attr)).or_insert_with(|| {
                    let mut t: HashMap<SymValue, usize, FxBuildHasher> = HashMap::default();
                    for sym in cond_col.iter() {
                        *t.entry(*sym).or_insert(0) += 1;
                    }
                    t
                });
                dirty.clear();
                for &pos in &misses {
                    *dirty.entry(cond_col[pos as usize]).or_insert(0) += 1;
                }
                // Deterministic harvest: sort candidates by (support
                // desc, symbol) rather than trusting map order.
                let mut clean: Vec<(usize, SymValue)> = totals
                    .iter()
                    .filter(|&(sym, &total)| total >= min_support && !dirty.contains_key(sym))
                    .map(|(&sym, &total)| (total, sym))
                    .collect();
                clean.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                stats.cind_candidates += clean.len();
                conditions.extend(
                    clean
                        .into_iter()
                        .map(|(total, sym)| (total, cond_attr, sym)),
                );
            }
            conditions.sort_unstable_by(|a, b| b.0.cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
            if conditions.len() > config.max_conditions_per_ind {
                stats.pruned_capped += conditions.len() - config.max_conditions_per_ind;
                conditions.truncate(config.max_conditions_per_ind);
            }
            for (support, cond_attr, sym) in conditions {
                out.push(DiscoveredCind {
                    cind: NormalCind::new(
                        src_rel,
                        dst_rel,
                        vec![src_attr],
                        vec![dst_attr],
                        vec![(cond_attr, value_of(dict, sym))],
                        Vec::new(),
                    ),
                    support,
                    confidence: 1.0,
                    interval: None,
                });
            }
        }
    }
}

fn base_type(schema: &condep_model::Schema, rel: RelId, attr: AttrId) -> condep_model::BaseType {
    schema
        .relation(rel)
        .expect("relation in range")
        .attribute(attr)
        .expect("attribute in range")
        .domain()
        .base_type()
}
