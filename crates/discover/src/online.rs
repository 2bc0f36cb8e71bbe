//! Incremental (online) dependency discovery from stream mutations.
//!
//! [`OnlineMiner`] maintains the **level-1** evidence the batch miner
//! derives from scratch — per-attribute-pair value sketches (the
//! class → RHS-tally view of a stripped partition restricted to one LHS
//! attribute) and per-column-pair inclusion miss counters — and updates
//! them in O(arity²) per effective mutation, never rescanning the
//! instance. [`OnlineMiner::proposals`] then replays the batch miner's
//! emission rules over the sketches, so on any snapshot the proposal
//! set is a **superset** of what [`crate::discover`] keeps at
//! `max_lhs = 1` with the condition hunt disabled (the batch caps,
//! implication pruning and cover pass only *remove* dependencies) —
//! the property the online-vs-batch oracle test pins down.
//!
//! Each class also carries its row count and its majority count, and
//! each attribute pair the sums of those over its classes of two or
//! more rows, plus the value-ordered set of classes at the support
//! floor. A mutation updates them in O(1) per pair — except deleting
//! a class's only value at the majority count, which recounts that
//! class's tally. So a poll costs O(pairs + large classes), not
//! O(classes), and the decay probes
//! ([`OnlineMiner::confidence_of_cfd`],
//! [`OnlineMiner::confidence_of_cind`]) cost O(1).
//!
//! The sketches are keyed by the miner's **own value dictionary**, a
//! refcounted [`Dict`]: each live value maps to a `u32` id, probed once
//! per cell of a mutation, and column counts, classes and tallies all
//! key on ids. One dictionary serves every column and relation, since an
//! inclusion candidate compares a source cell with another relation's
//! column. An id counts the live cells holding its value and is freed
//! with the last of them, for the next new value to reuse, so the
//! dictionary holds exactly the live distinct values. It shares no ids
//! with the stream's dictionary. A class keeps its RHS tally inline
//! until a second RHS value arrives, so the singleton classes of a
//! near-unique column allocate nothing.
//!
//! Feed the miner *effective* operations only (the workspace's
//! instances are sets; an insert of a present tuple or a delete of an
//! absent one must not reach [`OnlineMiner::observe_insert`] /
//! [`OnlineMiner::observe_delete`] — `condep::report::QualityMonitor`
//! filters on the stream's own no-op detection).

use crate::{DiscoveredCfd, DiscoveredCind};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, Database, Dict, PValue, PatternRow, RelId, Schema, Tuple, Value};
use condep_validate::Mutation;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Value id → count.
type IdCounts = HashMap<u32, u32, FxBuildHasher>;

/// Knobs of one [`OnlineMiner`].
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Minimum support a proposal needs (same meaning as
    /// [`crate::DiscoveryConfig::min_support`]).
    pub min_support: usize,
    /// Minimum confidence a proposal needs.
    pub min_confidence: f64,
    /// Confidence floor below which a previously-promoted dependency is
    /// retired by the monitor (hysteresis: propose at
    /// `min_confidence`, retire only when evidence decays below this).
    pub retire_confidence: f64,
    /// Effective mutations between monitor-driven proposal polls.
    pub window: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            min_support: 8,
            min_confidence: 1.0,
            retire_confidence: 0.9,
            window: 1_024,
        }
    }
}

/// Removes one occurrence of `id`, which must be counted, dropping the
/// entry at zero; returns the count before.
fn drop_one(counts: &mut IdCounts, id: u32) -> u32 {
    let c = counts.get_mut(&id).expect("delete of a counted value");
    let was = *c;
    *c -= 1;
    if *c == 0 {
        counts.remove(&id);
    }
    was
}

/// Per-relation level-1 sketches.
#[derive(Clone, Debug)]
struct RelSketch {
    /// Live rows.
    rows: usize,
    /// Per attribute: value id → occurrence count.
    cols: Vec<IdCounts>,
    /// Per ordered attribute pair `(x, y)`, flattened `x·arity + y`
    /// (diagonal unused).
    pairs: Vec<PairSketch>,
}

/// The rows of one ordered attribute pair `(x, y)`, grouped by their
/// `x` value: the class → RHS-tally view of a stripped partition.
#[derive(Clone, Debug, Default)]
struct PairSketch {
    /// LHS value id → its class.
    classes: HashMap<u32, Class, FxBuildHasher>,
    /// Σ `len` over classes of two or more rows: the variable FD's
    /// support (singleton classes support nothing).
    support: usize,
    /// Σ `top` over the same classes: the rows the variable FD keeps.
    kept: usize,
    /// Classes of at least the support floor, by LHS value (so constant
    /// rows come out in value order) → LHS id. Changes only when a
    /// class crosses the floor.
    large: BTreeMap<Value, u32>,
}

/// A class's RHS value ids, with counts.
#[derive(Clone, Debug)]
enum Tally {
    /// The class's only RHS value so far, inline: no allocation.
    One(u32, u32),
    /// Two or more RHS values seen.
    Many(IdCounts),
}

impl Tally {
    /// Adds one occurrence of `y`; returns its new count.
    fn bump(&mut self, y: u32) -> u32 {
        match self {
            Tally::One(v, n) if *v == y => {
                *n += 1;
                *n
            }
            Tally::One(v, n) => {
                let mut counts = IdCounts::default();
                counts.insert(*v, *n);
                counts.insert(y, 1);
                *self = Tally::Many(counts);
                1
            }
            Tally::Many(counts) => {
                let c = counts.entry(y).or_insert(0);
                *c += 1;
                *c
            }
        }
    }

    /// Removes one occurrence of `y`, which must be counted; returns
    /// its count before.
    fn drop_one(&mut self, y: u32) -> u32 {
        match self {
            Tally::One(v, n) => {
                assert!(*v == y, "delete of a counted value");
                *n -= 1;
                *n + 1
            }
            Tally::Many(counts) => drop_one(counts, y),
        }
    }

    /// The count of `y` (0 when absent).
    fn count(&self, y: u32) -> u32 {
        match self {
            Tally::One(v, n) if *v == y => *n,
            Tally::One(..) => 0,
            Tally::Many(counts) => counts.get(&y).copied().unwrap_or(0),
        }
    }

    /// `(value id, count)` entries.
    fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (one, many) = match self {
            Tally::One(v, n) => (Some((*v, *n)), None),
            Tally::Many(counts) => (None, Some(counts.iter().map(|(&v, &n)| (v, n)))),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// One LHS class: the RHS values of its rows, with counts.
#[derive(Clone, Debug)]
struct Class {
    /// RHS value id → count.
    tally: Tally,
    /// Rows in the class (the tally's sum).
    len: u32,
    /// The largest count in the tally.
    top: u32,
    /// Values counted `top` times.
    at_top: u32,
}

impl Class {
    /// A class of one row, with RHS value `y`.
    fn new(y: u32) -> Self {
        Class {
            tally: Tally::One(y, 1),
            len: 1,
            top: 1,
            at_top: 1,
        }
    }

    /// Counts one row with RHS value `y` in.
    fn insert(&mut self, y: u32) {
        let c = self.tally.bump(y);
        self.len += 1;
        if c > self.top {
            self.top = c;
            self.at_top = 1;
        } else if c == self.top {
            self.at_top += 1;
        }
    }

    /// Counts one row with RHS value `y` out.
    fn delete(&mut self, y: u32) {
        let was = self.tally.drop_one(y);
        self.len -= 1;
        if was == self.top {
            if self.at_top > 1 {
                self.at_top -= 1;
            } else {
                // The only value at `top` fell to `top - 1`, where
                // others may tie it: recount.
                self.top -= 1;
                self.at_top = self.tally.iter().filter(|&(_, c)| c == self.top).count() as u32;
            }
        }
    }

    /// The majority RHS value, read back through `dict`. Count ties
    /// break toward the smallest value: ids are the miner's own, handed
    /// out in arrival order and reused once freed, so they carry no
    /// value order (and share nothing with the stream's dictionary). The
    /// batch miner breaks ties toward the smallest batch symbol —
    /// identical on sorted-insert data, close enough for ranking
    /// everywhere else.
    fn majority<'d>(&self, dict: &'d Dict) -> &'d Value {
        self.tally
            .iter()
            .filter(|&(_, c)| c == self.top)
            .map(|(y, _)| dict.value(y))
            .min()
            .expect("classes are non-empty")
    }
}

impl PairSketch {
    /// Counts one row `(x, y)` in; `floor` is the support floor.
    fn insert(&mut self, x: u32, y: u32, floor: usize, dict: &Dict) {
        let (before, after) = match self.classes.entry(x) {
            Entry::Occupied(e) => {
                let class = e.into_mut();
                let before = (class.len, class.top);
                class.insert(y);
                (before, (class.len, class.top))
            }
            Entry::Vacant(e) => {
                e.insert(Class::new(y));
                ((0, 0), (1, 1))
            }
        };
        self.reweigh(x, before, after, floor, dict);
    }

    /// Counts one row `(x, y)` out; `floor` is the support floor.
    fn delete(&mut self, x: u32, y: u32, floor: usize, dict: &Dict) {
        let class = self.classes.get_mut(&x).expect("counted class");
        let before = (class.len, class.top);
        class.delete(y);
        let after = (class.len, class.top);
        if class.len == 0 {
            self.classes.remove(&x);
        }
        self.reweigh(x, before, after, floor, dict);
    }

    /// Moves class `x`'s share of the pair aggregates from its
    /// `before` to its `after` `(len, top)`.
    fn reweigh(
        &mut self,
        x: u32,
        before: (u32, u32),
        after: (u32, u32),
        floor: usize,
        dict: &Dict,
    ) {
        if before.0 >= 2 {
            self.support -= before.0 as usize;
            self.kept -= before.1 as usize;
        }
        if after.0 >= 2 {
            self.support += after.0 as usize;
            self.kept += after.1 as usize;
        }
        match (before.0 as usize >= floor, after.0 as usize >= floor) {
            (false, true) => {
                self.large.insert(dict.value(x).clone(), x);
            }
            (true, false) => {
                self.large.remove(dict.value(x));
            }
            _ => {}
        }
    }
}

/// One inclusion candidate `src[attr] ⊆ dst[attr]`, tracked by its
/// miss count (source rows whose value is absent from the target
/// column) so coverage is O(1) to read.
#[derive(Clone, Debug)]
struct CindPair {
    src_rel: RelId,
    src_attr: AttrId,
    dst_rel: RelId,
    dst_attr: AttrId,
    misses: usize,
}

/// The current proposal set of one [`OnlineMiner::proposals`] poll.
#[derive(Clone, Debug, Default)]
pub struct OnlineProposals {
    /// Proposed CFDs (variable FDs and constant rows), with evidence.
    pub cfds: Vec<DiscoveredCfd>,
    /// Proposed (unconditioned, unary) CINDs, with evidence.
    pub cinds: Vec<DiscoveredCind>,
}

impl OnlineProposals {
    /// Total proposed dependencies.
    pub fn len(&self) -> usize {
        self.cfds.len() + self.cinds.len()
    }

    /// Nothing proposed?
    pub fn is_empty(&self) -> bool {
        self.cfds.is_empty() && self.cinds.is_empty()
    }
}

/// Incremental level-1 dependency miner (see the module docs).
#[derive(Clone, Debug)]
pub struct OnlineMiner {
    schema: Arc<Schema>,
    config: OnlineConfig,
    dict: Dict,
    rels: Vec<RelSketch>,
    cinds: Vec<CindPair>,
    /// Pair indexes by source column, `[rel][attr]` — the per-mutation
    /// update walks only the pairs the mutated cells touch.
    src_of: Vec<Vec<Vec<usize>>>,
    /// Pair indexes by target column, `[rel][attr]`.
    dst_of: Vec<Vec<Vec<usize>>>,
    /// Pair index by full column pair (retirement lookups).
    pair_of: HashMap<(RelId, AttrId, RelId, AttrId), usize, FxBuildHasher>,
    /// The current mutation's cell ids (reused: no allocation per
    /// mutation).
    row: Vec<u32>,
    ops: u64,
}

impl OnlineMiner {
    /// An empty miner over `schema`; [`OnlineMiner::seed`] it with the
    /// current snapshot before streaming mutations.
    pub fn new(schema: Arc<Schema>, config: OnlineConfig) -> Self {
        let rels = schema
            .iter()
            .map(|(_, rs)| {
                let arity = rs.arity();
                RelSketch {
                    rows: 0,
                    cols: (0..arity).map(|_| IdCounts::default()).collect(),
                    pairs: (0..arity * arity).map(|_| PairSketch::default()).collect(),
                }
            })
            .collect();
        // The same candidate column pairs the batch CIND miner probes:
        // distinct columns of matching base type.
        let columns: Vec<(RelId, AttrId)> = schema
            .iter()
            .flat_map(|(rel, rs)| (0..rs.arity()).map(move |a| (rel, AttrId(a as u32))))
            .collect();
        let by_column: Vec<Vec<Vec<usize>>> = schema
            .iter()
            .map(|(_, rs)| vec![Vec::new(); rs.arity()])
            .collect();
        let (mut src_of, mut dst_of) = (by_column.clone(), by_column);
        let mut cinds = Vec::new();
        let mut pair_of = HashMap::default();
        for &(src_rel, src_attr) in &columns {
            for &(dst_rel, dst_attr) in &columns {
                if (src_rel, src_attr) == (dst_rel, dst_attr)
                    || base_type(&schema, src_rel, src_attr)
                        != base_type(&schema, dst_rel, dst_attr)
                {
                    continue;
                }
                let i = cinds.len();
                cinds.push(CindPair {
                    src_rel,
                    src_attr,
                    dst_rel,
                    dst_attr,
                    misses: 0,
                });
                src_of[src_rel.index()][src_attr.index()].push(i);
                dst_of[dst_rel.index()][dst_attr.index()].push(i);
                pair_of.insert((src_rel, src_attr, dst_rel, dst_attr), i);
            }
        }
        OnlineMiner {
            schema,
            config,
            dict: Dict::new(),
            rels,
            cinds,
            src_of,
            dst_of,
            pair_of,
            row: Vec::new(),
            ops: 0,
        }
    }

    /// The miner's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Effective mutations observed since the seed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The sketches' size as `(values, classes)`: the distinct values
    /// live tuples hold, and the classes summed over every attribute
    /// pair. Both shrink as tuples leave — an emptied class is dropped
    /// and a value's id freed with its last cell — so neither outgrows
    /// the live data.
    pub fn sketch_size(&self) -> (usize, usize) {
        let classes = self
            .rels
            .iter()
            .flat_map(|s| &s.pairs)
            .map(|p| p.classes.len())
            .sum();
        (self.dict.len(), classes)
    }

    /// Absorbs a full snapshot (each tuple once — instances are sets).
    /// Resets the [`OnlineMiner::ops`] counter: seeding is not stream
    /// traffic.
    pub fn seed(&mut self, db: &Database) {
        for (rel, relation) in db.iter() {
            for t in relation.iter() {
                self.observe_insert(rel, t);
            }
        }
        self.ops = 0;
    }

    /// Routes one *effective* mutation to the sketch updates. An
    /// `Update` is a delete of `old` plus an insert of `new`; when the
    /// update degenerated to a pure deletion (`new` already present),
    /// feed [`OnlineMiner::observe_delete`] directly instead.
    pub fn observe(&mut self, mutation: &Mutation) {
        match mutation {
            Mutation::Insert { rel, tuple } => self.observe_insert(*rel, tuple),
            Mutation::Delete { rel, tuple } => self.observe_delete(*rel, tuple),
            Mutation::Update { rel, old, new } => {
                self.observe_delete(*rel, old);
                self.observe_insert(*rel, new);
            }
        }
    }

    /// Absorbs one effective insert of `t` into `rel`.
    pub fn observe_insert(&mut self, rel: RelId, t: &Tuple) {
        self.ops += 1;
        let r = rel.index();
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        row.extend(t.values().iter().map(|v| self.dict.acquire(v)));
        // Target transitions (0 → 1) first, against pre-insert source
        // counts: exactly the rows that were missing stop missing. The
        // inserted tuple's own source cells are not yet counted, which
        // is right — they never missed.
        for (a, id) in row.iter().enumerate() {
            if self.rels[r].cols[a].contains_key(id) {
                continue;
            }
            for &i in &self.dst_of[r][a] {
                let pair = &self.cinds[i];
                let n = self.rels[pair.src_rel.index()].cols[pair.src_attr.index()]
                    .get(id)
                    .map_or(0, |&n| n as usize);
                self.cinds[i].misses -= n;
            }
        }
        // Commit the row into the column and pair sketches.
        {
            let floor = self.support_floor();
            let sketch = &mut self.rels[r];
            let arity = sketch.cols.len();
            sketch.rows += 1;
            for (a, &id) in row.iter().enumerate() {
                *sketch.cols[a].entry(id).or_insert(0) += 1;
            }
            for x in 0..arity {
                for y in 0..arity {
                    if x == y {
                        continue;
                    }
                    sketch.pairs[x * arity + y].insert(row[x], row[y], floor, &self.dict);
                }
            }
        }
        // New source cells, against post-insert target counts (a tuple
        // providing both sides of a pair counts itself as covered).
        for (a, id) in row.iter().enumerate() {
            for &i in &self.src_of[r][a] {
                let pair = &self.cinds[i];
                if !self.rels[pair.dst_rel.index()].cols[pair.dst_attr.index()].contains_key(id) {
                    self.cinds[i].misses += 1;
                }
            }
        }
        self.row = row;
    }

    /// Absorbs one effective delete of `t` from `rel`.
    pub fn observe_delete(&mut self, rel: RelId, t: &Tuple) {
        self.ops += 1;
        let r = rel.index();
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        row.extend(
            t.values()
                .iter()
                .map(|v| self.dict.get(v).expect("delete of a counted value")),
        );
        // Departing source cells first, against pre-delete target
        // counts: each was missing iff its value was absent then.
        for (a, id) in row.iter().enumerate() {
            for &i in &self.src_of[r][a] {
                let pair = &self.cinds[i];
                if !self.rels[pair.dst_rel.index()].cols[pair.dst_attr.index()].contains_key(id) {
                    self.cinds[i].misses -= 1;
                }
            }
        }
        // Retract the row from the column and pair sketches.
        {
            let floor = self.support_floor();
            let sketch = &mut self.rels[r];
            let arity = sketch.cols.len();
            sketch.rows -= 1;
            for (a, &id) in row.iter().enumerate() {
                drop_one(&mut sketch.cols[a], id);
            }
            for x in 0..arity {
                for y in 0..arity {
                    if x == y {
                        continue;
                    }
                    sketch.pairs[x * arity + y].delete(row[x], row[y], floor, &self.dict);
                }
            }
        }
        // Target transitions (1 → 0), against post-delete source
        // counts: every remaining source row with the vanished value
        // starts missing.
        for (a, id) in row.iter().enumerate() {
            if self.rels[r].cols[a].contains_key(id) {
                continue;
            }
            for &i in &self.dst_of[r][a] {
                let pair = &self.cinds[i];
                let n = self.rels[pair.src_rel.index()].cols[pair.src_attr.index()]
                    .get(id)
                    .map_or(0, |&n| n as usize);
                self.cinds[i].misses += n;
            }
        }
        // Release the ids last: a class that left `large` above still
        // read its value.
        for &id in &row {
            self.dict.release(id);
        }
        self.row = row;
    }

    /// The support a proposal needs: the configured floor, and at
    /// least two rows (a singleton class supports nothing).
    fn support_floor(&self) -> usize {
        self.config.min_support.max(2)
    }

    /// The dependencies the current sketches support at the configured
    /// floors, with evidence. Deterministic for a fixed tuple set:
    /// relations and attribute pairs stream in dense order, each pair's
    /// variable FD before its constant rows, constant rows in value
    /// order. Costs O(pairs + classes at the support floor): the
    /// variable FD reads its pair's running sums, and only classes at
    /// the floor can yield a constant row.
    pub fn proposals(&self) -> OnlineProposals {
        let mut out = OnlineProposals::default();
        let floor_c = self.config.min_confidence.clamp(0.0, 1.0);
        let floor_s = self.support_floor();
        for (rel, rs) in self.schema.iter() {
            let sketch = &self.rels[rel.index()];
            if sketch.rows == 0 {
                continue;
            }
            let arity = rs.arity();
            for x in 0..arity {
                for y in 0..arity {
                    if x == y {
                        continue;
                    }
                    let pair = &sketch.pairs[x * arity + y];
                    if pair.support >= floor_s {
                        let confidence = pair.kept as f64 / pair.support as f64;
                        if confidence >= floor_c {
                            let cfd = NormalCfd::new(
                                rel,
                                vec![AttrId(x as u32)],
                                PatternRow::all_any(1),
                                AttrId(y as u32),
                                PValue::Any,
                            );
                            if !cfd.is_trivial() {
                                out.cfds.push(DiscoveredCfd {
                                    cfd,
                                    support: pair.support,
                                    confidence,
                                    interval: None,
                                });
                            }
                        }
                    }
                    for (xv, x_id) in &pair.large {
                        let class = &pair.classes[x_id];
                        let confidence = class.top as f64 / class.len as f64;
                        if confidence < floor_c {
                            continue;
                        }
                        let cfd = NormalCfd::new(
                            rel,
                            vec![AttrId(x as u32)],
                            PatternRow::new(vec![PValue::Const(xv.clone())]),
                            AttrId(y as u32),
                            PValue::Const(class.majority(&self.dict).clone()),
                        );
                        if !cfd.is_trivial() {
                            out.cfds.push(DiscoveredCfd {
                                cfd,
                                support: class.len as usize,
                                confidence,
                                interval: None,
                            });
                        }
                    }
                }
            }
        }
        for pair in &self.cinds {
            let rows = self.rels[pair.src_rel.index()].rows;
            if rows < floor_s || self.rels[pair.dst_rel.index()].rows == 0 {
                continue;
            }
            let confidence = (rows - pair.misses) as f64 / rows as f64;
            if confidence < floor_c {
                continue;
            }
            let cind = NormalCind::new(
                pair.src_rel,
                pair.dst_rel,
                vec![pair.src_attr],
                vec![pair.dst_attr],
                Vec::new(),
                Vec::new(),
            );
            if !cind.is_trivial() {
                out.cinds.push(DiscoveredCind {
                    cind,
                    support: rows,
                    confidence,
                    interval: None,
                });
            }
        }
        out
    }

    /// Current `(support, confidence)` of a level-1 CFD — the
    /// retirement probe. `None` when the shape is outside the online
    /// fragment (multi-attribute LHS, mixed pattern); support 0 reads
    /// as vacuously satisfied.
    pub fn confidence_of_cfd(&self, cfd: &NormalCfd) -> Option<(usize, f64)> {
        if cfd.lhs().len() != 1 || cfd.rel().index() >= self.rels.len() {
            return None;
        }
        let (x, y) = (cfd.lhs()[0], cfd.rhs());
        if x == y {
            return None;
        }
        let arity = self.schema.relation(cfd.rel()).ok()?.arity();
        if x.index() >= arity || y.index() >= arity {
            return None;
        }
        let pair = &self.rels[cfd.rel().index()].pairs[x.index() * arity + y.index()];
        if cfd.lhs_pat().is_all_any() && !cfd.is_constant_rhs() {
            if pair.support == 0 {
                return Some((0, 1.0));
            }
            return Some((pair.support, pair.kept as f64 / pair.support as f64));
        }
        let xv = match cfd.lhs_pat().cell(0) {
            PValue::Const(v) => v,
            PValue::Any => return None,
        };
        let yv = match cfd.rhs_pat() {
            PValue::Const(v) => v,
            PValue::Any => return None,
        };
        // A value no live cell holds has no class and no tally entry.
        let Some(class) = self.dict.get(xv).and_then(|x| pair.classes.get(&x)) else {
            return Some((0, 1.0));
        };
        let agree = self.dict.get(yv).map_or(0, |y| class.tally.count(y));
        Some((class.len as usize, agree as f64 / class.len as f64))
    }

    /// Current `(support, confidence)` of an unconditioned unary CIND —
    /// the retirement probe. `None` outside the online fragment.
    pub fn confidence_of_cind(&self, cind: &NormalCind) -> Option<(usize, f64)> {
        if cind.x().len() != 1 || !cind.xp().is_empty() || !cind.yp().is_empty() {
            return None;
        }
        let i = *self
            .pair_of
            .get(&(cind.lhs_rel(), cind.x()[0], cind.rhs_rel(), cind.y()[0]))?;
        let rows = self.rels[cind.lhs_rel().index()].rows;
        if rows == 0 {
            return Some((0, 1.0));
        }
        Some((rows, (rows - self.cinds[i].misses) as f64 / rows as f64))
    }
}

fn base_type(schema: &Schema, rel: RelId, attr: AttrId) -> condep_model::BaseType {
    schema
        .relation(rel)
        .expect("relation in range")
        .attribute(attr)
        .expect("attribute in range")
        .domain()
        .base_type()
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{tuple, Domain};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "fact",
                    &[
                        ("city", Domain::string()),
                        ("country", Domain::string()),
                        ("zip", Domain::string()),
                    ],
                )
                .relation("cities", &[("name", Domain::string())])
                .finish(),
        )
    }

    fn city_db() -> Database {
        let mut db = Database::empty(schema());
        let rows = [
            ("EDI", "UK"),
            ("EDI", "UK"),
            ("EDI", "UK"),
            ("NYC", "US"),
            ("NYC", "US"),
            ("NYC", "US"),
            ("GLA", "UK"),
            ("GLA", "UK"),
        ];
        for (i, (city, country)) in rows.iter().enumerate() {
            db.insert_into("fact", tuple![*city, *country, format!("z{i}").as_str()])
                .unwrap();
        }
        for city in ["EDI", "NYC", "GLA"] {
            db.insert_into("cities", tuple![city]).unwrap();
        }
        db
    }

    fn config(min_support: usize) -> OnlineConfig {
        OnlineConfig {
            min_support,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn seeded_proposals_cover_the_planted_dependencies() {
        let db = city_db();
        let mut miner = OnlineMiner::new(db.schema().clone(), config(2));
        miner.seed(&db);
        let props = miner.proposals();
        let schema = db.schema();
        let fact = schema.rel_id("fact").unwrap();
        let cities = schema.rel_id("cities").unwrap();
        let rs = schema.relation(fact).unwrap();
        let (city, country) = (rs.attr_id("city").unwrap(), rs.attr_id("country").unwrap());
        let fd = props
            .cfds
            .iter()
            .find(|d| {
                d.cfd.rel() == fact
                    && d.cfd.lhs() == [city]
                    && d.cfd.rhs() == country
                    && d.cfd.lhs_pat().is_all_any()
            })
            .expect("city → country proposed");
        assert_eq!(fd.support, 8);
        assert_eq!(fd.confidence, 1.0);
        assert!(props
            .cfds
            .iter()
            .any(|d| d.cfd.lhs_pat().cell(0) == &PValue::constant("EDI")
                && d.cfd.rhs_pat() == &PValue::constant("UK")
                && d.support == 3));
        assert!(props.cinds.iter().any(|d| d.cind.lhs_rel() == fact
            && d.cind.rhs_rel() == cities
            && d.confidence == 1.0));
        // Soundness of exact proposals on the snapshot.
        for d in &props.cfds {
            assert!(condep_cfd::satisfy::satisfies_normal(&db, &d.cfd));
        }
        for d in &props.cinds {
            assert!(condep_core::satisfy::satisfies_normal(&db, &d.cind));
        }
    }

    /// The sketches are a pure function of the live tuple set: any
    /// insert/delete path reaching a set must equal seeding that set.
    #[test]
    fn incremental_path_equals_reseeding() {
        let db = city_db();
        let fact = db.schema().rel_id("fact").unwrap();
        let mut streamed = OnlineMiner::new(db.schema().clone(), config(2));
        streamed.seed(&db);
        // Churn: orphan city arrives (breaks the CIND), is updated to a
        // known city, then a fresh EDI row lands.
        streamed.observe(&Mutation::Insert {
            rel: fact,
            tuple: tuple!["ABD", "UK", "z8"],
        });
        streamed.observe(&Mutation::Update {
            rel: fact,
            old: tuple!["ABD", "UK", "z8"],
            new: tuple!["GLA", "UK", "z8"],
        });
        streamed.observe(&Mutation::Insert {
            rel: fact,
            tuple: tuple!["EDI", "UK", "z9"],
        });
        streamed.observe(&Mutation::Delete {
            rel: fact,
            tuple: tuple!["GLA", "UK", "z6"],
        });
        assert_eq!(streamed.ops(), 5, "update counts as delete + insert");

        let mut end_state = city_db();
        end_state
            .insert_into("fact", tuple!["GLA", "UK", "z8"])
            .unwrap();
        end_state
            .insert_into("fact", tuple!["EDI", "UK", "z9"])
            .unwrap();
        end_state
            .remove(fact, &tuple!["GLA", "UK", "z6"])
            .expect("the churned-out tuple is present");
        let mut reseeded = OnlineMiner::new(end_state.schema().clone(), config(2));
        reseeded.seed(&end_state);

        assert_same_proposals(&streamed.proposals(), &reseeded.proposals());
    }

    /// Same dependencies, evidence and order.
    fn assert_same_proposals(a: &OnlineProposals, b: &OnlineProposals) {
        assert_eq!(a.cfds.len(), b.cfds.len());
        assert_eq!(a.cinds.len(), b.cinds.len());
        for (x, y) in a.cfds.iter().zip(&b.cfds) {
            assert_eq!(x.cfd, y.cfd);
            assert_eq!(x.support, y.support);
            assert_eq!(x.confidence, y.confidence);
        }
        for (x, y) in a.cinds.iter().zip(&b.cinds) {
            assert_eq!(x.cind, y.cind);
            assert_eq!((x.support, x.confidence), (y.support, y.confidence));
        }
    }

    /// Recounts every class's `len`/`top`/`at_top` and every pair's
    /// `support`/`kept`/large-class set from the tallies.
    fn assert_aggregates_match_tallies(miner: &OnlineMiner) {
        let floor = miner.support_floor();
        for sketch in &miner.rels {
            for pair in &sketch.pairs {
                let (mut support, mut kept) = (0, 0);
                let mut large = BTreeMap::new();
                for (&x, class) in &pair.classes {
                    let xv = miner.dict.value(x);
                    let counts: Vec<u32> = class.tally.iter().map(|(_, c)| c).collect();
                    let len: u32 = counts.iter().sum();
                    let top = counts.iter().copied().max().unwrap_or(0);
                    let at_top = counts.iter().filter(|&&c| c == top).count() as u32;
                    assert!(len > 0, "class {xv:?} is empty but kept");
                    assert!(!counts.contains(&0), "class {xv:?} tallies a zero");
                    assert_eq!(
                        (class.len, class.top, class.at_top),
                        (len, top, at_top),
                        "class {xv:?}: (len, top, at_top)"
                    );
                    if len >= 2 {
                        support += len as usize;
                        kept += top as usize;
                    }
                    if len as usize >= floor {
                        large.insert(xv.clone(), x);
                    }
                }
                assert_eq!((pair.support, pair.kept), (support, kept));
                assert_eq!(pair.large, large);
            }
        }
    }

    /// The dictionary holds exactly the values of the `live` tuples'
    /// cells, each id counting the cells that hold its value.
    fn assert_dict_matches<'a>(miner: &OnlineMiner, live: impl IntoIterator<Item = &'a Tuple>) {
        let mut cells: HashMap<&Value, u32> = HashMap::new();
        for t in live {
            for v in t.values() {
                *cells.entry(v).or_insert(0) += 1;
            }
        }
        let dict = &miner.dict;
        assert_eq!(
            miner.sketch_size().0,
            cells.len(),
            "live ids = distinct live values"
        );
        for (&v, &n) in &cells {
            let id = dict.get(v).expect("a live value has an id");
            assert_eq!((dict.value(id), dict.holders(id)), (v, n));
        }
        assert_eq!(dict.len(), cells.len());
    }

    /// Seeded insert/delete walks over a 4-attribute relation whose
    /// domains hold 2–3 values, so majority ties and deletes of a
    /// class's only top value are frequent. After every step the running
    /// aggregates equal a recount, and the proposals and decay probes
    /// equal those of a miner freshly seeded with the same tuple set.
    #[test]
    fn aggregates_equal_a_recount_over_random_walks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let domains: [&[&str]; 4] = [&["a", "b"], &["p", "q", "r"], &["u", "v", "w"], &["x", "y"]];
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("c0", Domain::string()),
                        ("c1", Domain::string()),
                        ("c2", Domain::string()),
                        ("c3", Domain::string()),
                    ],
                )
                .finish(),
        );
        let r = schema.rel_id("r").unwrap();
        // Every level-1 shape the decay pass can probe on this schema.
        let mut probes = Vec::new();
        for x in 0..4 {
            for y in (0..4).filter(|&y| y != x) {
                let (lhs, rhs) = (vec![AttrId(x as u32)], AttrId(y as u32));
                probes.push(NormalCfd::new(
                    r,
                    lhs.clone(),
                    PatternRow::all_any(1),
                    rhs,
                    PValue::Any,
                ));
                for xv in domains[x] {
                    for yv in domains[y] {
                        probes.push(NormalCfd::new(
                            r,
                            lhs.clone(),
                            PatternRow::new(vec![PValue::constant(*xv)]),
                            rhs,
                            PValue::constant(*yv),
                        ));
                    }
                }
            }
        }
        let mut sole_top_deletes = 0;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = OnlineConfig {
                min_support: 2 + seed as usize % 4,
                min_confidence: 0.5,
                ..OnlineConfig::default()
            };
            let mut miner = OnlineMiner::new(schema.clone(), config);
            let mut live: Vec<Tuple> = Vec::new();
            for _ in 0..120 {
                let t: Tuple = domains
                    .iter()
                    .map(|d| Value::str(d[rng.gen_range(0..d.len())]))
                    .collect();
                match live.iter().position(|u| *u == t) {
                    Some(i) => {
                        // Count the deletes that take the recount path
                        // on pair (c0, c1), flattened index 0·4 + 1.
                        let id = |v| miner.dict.get(v).expect("live value");
                        let (x, y) = (id(&t.values()[0]), id(&t.values()[1]));
                        let class = &miner.rels[r.index()].pairs[1].classes[&x];
                        if class.tally.count(y) == class.top && class.at_top == 1 && class.len > 1 {
                            sole_top_deletes += 1;
                        }
                        live.swap_remove(i);
                        miner.observe_delete(r, &t);
                    }
                    None => {
                        live.push(t.clone());
                        miner.observe_insert(r, &t);
                    }
                }
                assert_aggregates_match_tallies(&miner);
                assert_dict_matches(&miner, &live);
                let mut db = Database::empty(schema.clone());
                for t in &live {
                    db.insert(r, t.clone()).unwrap();
                }
                let mut fresh = OnlineMiner::new(schema.clone(), config);
                fresh.seed(&db);
                assert_same_proposals(&miner.proposals(), &fresh.proposals());
                for cfd in &probes {
                    assert_eq!(miner.confidence_of_cfd(cfd), fresh.confidence_of_cfd(cfd));
                }
            }
        }
        assert!(
            sole_top_deletes > 100,
            "the walks must exercise the recount: {sole_top_deletes}"
        );
    }

    /// A walk that grows, churns and then deletes every tuple, over a
    /// near-unique column, small-domain columns and a second relation
    /// sharing values (so inclusion candidates move too). Ids are
    /// reused: the id vector never outgrows the walk's peak count of
    /// distinct live values, though the walk sees many more values in
    /// all. At the end the dictionary, the sketches and every miss
    /// count are empty.
    #[test]
    fn deleting_every_tuple_frees_every_id_and_class() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("id", Domain::string()),
                        ("k", Domain::string()),
                        ("d", Domain::string()),
                    ],
                )
                .relation("s", &[("k", Domain::string())])
                .finish(),
        );
        let (r, s) = (schema.rel_id("r").unwrap(), schema.rel_id("s").unwrap());
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = OnlineConfig {
                min_support: 2,
                min_confidence: 0.5,
                ..OnlineConfig::default()
            };
            let mut miner = OnlineMiner::new(schema.clone(), config);
            let mut live: Vec<(RelId, Tuple)> = Vec::new();
            let (mut peak, mut seen) = (0, HashSet::new());
            let mut check = |miner: &OnlineMiner, live: &[(RelId, Tuple)]| {
                assert_aggregates_match_tallies(miner);
                assert_dict_matches(miner, live.iter().map(|(_, t)| t));
                peak = peak.max(miner.sketch_size().0);
                assert!(miner.dict.id_bound() <= peak, "ids are reused");
            };
            for step in 0..400 {
                // Grow for the first half, then churn at a steady size.
                let grow = if step < 200 { 3 } else { 2 };
                if live.is_empty() || rng.gen_range(0..4) < grow {
                    let k = Value::str(format!("k{}", rng.gen_range(0..6)));
                    let (rel, t) = if rng.gen_range(0..4) == 0 {
                        (s, Tuple::new(vec![k]))
                    } else {
                        let id = Value::str(format!("t{step}"));
                        let d = Value::str(format!("d{}", rng.gen_range(0..3)));
                        (r, Tuple::new(vec![id, k, d]))
                    };
                    if live.contains(&(rel, t.clone())) {
                        continue;
                    }
                    seen.extend(t.values().iter().cloned());
                    miner.observe_insert(rel, &t);
                    live.push((rel, t));
                } else {
                    let (rel, t) = live.swap_remove(rng.gen_range(0..live.len()));
                    miner.observe_delete(rel, &t);
                }
                check(&miner, &live);
            }
            while !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.gen_range(0..live.len()));
                miner.observe_delete(rel, &t);
                check(&miner, &live);
            }
            assert_eq!(miner.sketch_size(), (0, 0), "nothing outlives its tuples");
            assert!(miner.dict.is_empty() && miner.dict.id_bound() == peak);
            assert!(miner.rels.iter().all(|s| s.rows == 0));
            assert!(miner.cinds.iter().all(|p| p.misses == 0));
            assert!(
                seen.len() > 2 * peak,
                "the walk must reuse ids: {} values seen, peak {peak}",
                seen.len()
            );
        }
    }

    #[test]
    fn confidence_decays_and_recovers_through_the_probe() {
        let db = city_db();
        let fact = db.schema().rel_id("fact").unwrap();
        let rs = db.schema().relation(fact).unwrap();
        let fd = NormalCfd::new(
            fact,
            vec![rs.attr_id("city").unwrap()],
            PatternRow::all_any(1),
            rs.attr_id("country").unwrap(),
            PValue::Any,
        );
        let mut miner = OnlineMiner::new(db.schema().clone(), config(2));
        miner.seed(&db);
        assert_eq!(miner.confidence_of_cfd(&fd), Some((8, 1.0)));
        // A dissenting country for EDI drops confidence below 1.
        let dissent = tuple!["EDI", "FR", "z9"];
        miner.observe_insert(fact, &dissent);
        let (support, confidence) = miner.confidence_of_cfd(&fd).unwrap();
        assert_eq!(support, 9);
        assert!((confidence - 8.0 / 9.0).abs() < 1e-9);
        miner.observe_delete(fact, &dissent);
        assert_eq!(miner.confidence_of_cfd(&fd), Some((8, 1.0)));
        // CIND probe: an orphan city breaks coverage.
        let cities = db.schema().rel_id("cities").unwrap();
        let ind = NormalCind::new(
            fact,
            cities,
            vec![rs.attr_id("city").unwrap()],
            vec![AttrId(0)],
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(miner.confidence_of_cind(&ind), Some((8, 1.0)));
        miner.observe_insert(fact, &tuple!["ABD", "UK", "z9"]);
        let (support, confidence) = miner.confidence_of_cind(&ind).unwrap();
        assert_eq!(support, 9);
        assert!((confidence - 8.0 / 9.0).abs() < 1e-9);
        // Outside the online fragment: conditioned CINDs read None.
        let conditioned = NormalCind::new(
            fact,
            cities,
            vec![rs.attr_id("city").unwrap()],
            vec![AttrId(0)],
            vec![(rs.attr_id("country").unwrap(), Value::str("UK"))],
            Vec::new(),
        );
        assert_eq!(miner.confidence_of_cind(&conditioned), None);
    }
}
