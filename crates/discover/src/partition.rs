//! Stripped partitions — the TANE-family workhorse.
//!
//! The partition `π_X` of a relation under an attribute set `X` groups
//! tuple positions by their `X`-projection; an FD `X → A` holds iff
//! every group is constant on `A`. A **stripped** partition drops the
//! singleton groups (they can never witness a violation and typically
//! dominate the tail of the distribution), so `‖π_X‖` — the number of
//! positions kept — is exactly the number of tuples that share their
//! `X`-value with at least one other tuple: the *support* a dependency
//! over `X` can claim.
//!
//! Every partition and tally here is one counting pass over symbols,
//! driven by a reusable [`SymCounter`]: a dictionary string buckets
//! through an array indexed by its [`condep_model::Sym`] id, an `Int`
//! or `Bool` value through a side map. No comparison sort runs over
//! positions and no string is hashed:
//!
//! * [`StrippedPartition::from_column`] is a counting sort of one
//!   pre-symbolized column (of a [`condep_model::SymTables`], whose
//!   dictionary numbers strings in first-seen order), classes in the
//!   order their values first occur;
//! * [`StrippedPartition::refine`] splits each class on one more
//!   column, sub-classes in ascending [`SymValue`] order — the only
//!   sort is of each class's distinct values;
//! * [`tally_class`] counts one class's RHS values and picks the most
//!   frequent, the smallest on ties.
//!
//! Positions stay ascending inside every class. [`SymSet`], the same
//! layout as a set, answers inclusion probes against a whole column.

use condep_model::fxhash::FxBuildHasher;
use condep_model::SymValue;
use std::collections::{HashMap, HashSet};

/// Marks a symbol that has no bucket in the current pass, and a bucket
/// too small to survive stripping.
const NONE: u32 = u32::MAX;

/// A reusable counter over the symbols of one [`condep_model::Dict`].
///
/// Each pass buckets values in the order they first occur: a string
/// through an array indexed by its `Sym` id (sized by the dictionary's
/// `id_bound()`, so every symbol it issued fits), an `Int` or `Bool`
/// value through a side map. A pass ends by forgetting exactly the
/// buckets it made, so its cost is linear in the positions it read,
/// whatever the dictionary's size.
#[derive(Clone, Debug, Default)]
pub struct SymCounter {
    /// Per string id: its bucket in the current pass, or `NONE`.
    str_bucket: Vec<u32>,
    /// `Int` and `Bool` values' buckets in the current pass.
    other_bucket: HashMap<SymValue, u32, FxBuildHasher>,
    /// The pass's distinct values, indexed by bucket.
    values: Vec<SymValue>,
    /// Per bucket: occurrences counted so far; a split turns it into
    /// the bucket's write offset.
    counts: Vec<u32>,
    /// Per position of a split: its bucket.
    ids: Vec<u32>,
    /// A split's buckets in output order.
    order: Vec<u32>,
}

impl SymCounter {
    /// A counter for string ids below `symbols` (a dictionary's
    /// `Dict::id_bound`).
    pub fn new(symbols: usize) -> SymCounter {
        SymCounter {
            str_bucket: vec![NONE; symbols],
            ..SymCounter::default()
        }
    }

    /// Counts one occurrence of `v` and returns its bucket.
    #[inline]
    fn count(&mut self, v: SymValue) -> u32 {
        let slot = match v {
            SymValue::Str(s) => &mut self.str_bucket[s.0 as usize],
            other => self.other_bucket.entry(other).or_insert(NONE),
        };
        if *slot == NONE {
            *slot = self.values.len() as u32;
            self.values.push(v);
            self.counts.push(0);
        }
        let bucket = *slot;
        self.counts[bucket as usize] += 1;
        bucket
    }

    /// Ends the pass: forgets the buckets it made.
    fn reset(&mut self) {
        for v in self.values.drain(..) {
            match v {
                SymValue::Str(s) => self.str_bucket[s.0 as usize] = NONE,
                other => {
                    self.other_bucket.remove(&other);
                }
            }
        }
        self.counts.clear();
    }

    /// Splits `positions` (ascending) on their `col` symbols and appends
    /// the classes of two or more to `out`: in first-seen value order,
    /// or in ascending value order when `ascending`.
    fn split_into<I>(
        &mut self,
        positions: I,
        col: &[SymValue],
        ascending: bool,
        out: &mut StrippedPartition,
    ) where
        I: Iterator<Item = u32> + Clone,
    {
        self.ids.clear();
        for p in positions.clone() {
            let bucket = self.count(col[p as usize]);
            self.ids.push(bucket);
        }
        self.order.clear();
        self.order.extend(0..self.values.len() as u32);
        if ascending {
            let values = &self.values;
            self.order.sort_unstable_by_key(|&b| values[b as usize]);
        }
        // Each surviving bucket's count becomes its write offset.
        let mut end = out.elems.len();
        for &b in &self.order {
            let slot = &mut self.counts[b as usize];
            if *slot >= 2 {
                let start = end;
                end += *slot as usize;
                *slot = start as u32;
                out.starts.push(end as u32);
            } else {
                *slot = NONE;
            }
        }
        out.elems.resize(end, 0);
        for (p, &b) in positions.zip(&self.ids) {
            let at = &mut self.counts[b as usize];
            if *at != NONE {
                out.elems[*at as usize] = p;
                *at += 1;
            }
        }
        self.reset();
    }
}

/// A stripped partition in CSR form: class `c` is
/// `elems[starts[c] .. starts[c + 1]]`, each class position-ascending
/// and of size ≥ 2.
#[derive(Clone, Debug, Default)]
pub struct StrippedPartition {
    elems: Vec<u32>,
    /// Class boundaries; `starts.len() == class_count() + 1`.
    starts: Vec<u32>,
}

impl StrippedPartition {
    /// An empty partition with room for `capacity` positions.
    fn with_capacity(capacity: usize) -> StrippedPartition {
        StrippedPartition {
            elems: Vec::with_capacity(capacity),
            starts: vec![0],
        }
    }

    /// The partition of one symbolized column: a counting sort whose
    /// classes come in the order their values first occur.
    pub fn from_column(col: &[SymValue], counter: &mut SymCounter) -> StrippedPartition {
        let mut p = StrippedPartition::with_capacity(col.len());
        counter.split_into(0..col.len() as u32, col, false, &mut p);
        p
    }

    /// The partition `π_{X ∪ {B}}` from `π_X` and `B`'s column: each
    /// class is split on the column's symbols into sub-classes in
    /// ascending symbol order, and singleton shards are stripped.
    pub fn refine(&self, col: &[SymValue], counter: &mut SymCounter) -> StrippedPartition {
        let mut out = StrippedPartition::with_capacity(self.elems.len());
        for class in self.classes() {
            counter.split_into(class.iter().copied(), col, true, &mut out);
        }
        out
    }

    /// Iterator over the classes (position-ascending slices of size ≥ 2).
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> {
        self.starts
            .windows(2)
            .map(|w| &self.elems[w[0] as usize..w[1] as usize])
    }

    /// Number of (stripped) classes.
    pub fn class_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// `‖π‖`: total positions across all stripped classes — the support
    /// an FD over this attribute set can claim.
    pub fn support(&self) -> usize {
        self.elems.len()
    }

    /// No class survived stripping: the attribute set is a (super)key.
    pub fn is_key(&self) -> bool {
        self.elems.is_empty()
    }
}

/// Per-class RHS tally: how one class of `π_X` distributes over an `A`
/// column. `max_count == len` means the class is pure — `X → A` holds on
/// it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassTally {
    /// Class size.
    pub len: usize,
    /// Frequency of the most common `A` symbol in the class.
    pub max_count: usize,
    /// The most common `A` symbol (smallest symbol on ties, for
    /// determinism).
    pub majority: SymValue,
}

/// Tallies one class against an RHS column in one counting pass.
/// `class` is never empty.
pub fn tally_class(class: &[u32], rhs_col: &[SymValue], counter: &mut SymCounter) -> ClassTally {
    for &p in class {
        counter.count(rhs_col[p as usize]);
    }
    let (values, counts) = (&counter.values, &counter.counts);
    let mut best = 0;
    for b in 1..values.len() {
        if counts[b] > counts[best] || (counts[b] == counts[best] && values[b] < values[best]) {
            best = b;
        }
    }
    let tally = ClassTally {
        len: class.len(),
        max_count: counts[best] as usize,
        majority: values[best],
    };
    counter.reset();
    tally
}

/// The distinct symbols of one column, for inclusion probes: a bitmap
/// over `Sym` ids for strings, a hash set for `Int` and `Bool` values.
#[derive(Clone, Debug)]
pub(crate) struct SymSet {
    strs: Vec<u64>,
    others: HashSet<SymValue, FxBuildHasher>,
}

impl SymSet {
    /// The symbols of `col`, whose string ids lie below `symbols` (a
    /// dictionary's `Dict::id_bound`).
    pub(crate) fn of_column(col: &[SymValue], symbols: usize) -> SymSet {
        let mut set = SymSet {
            strs: vec![0; symbols.div_ceil(64)],
            others: HashSet::default(),
        };
        for &v in col {
            match v {
                SymValue::Str(s) => set.strs[s.0 as usize / 64] |= 1 << (s.0 % 64),
                other => {
                    set.others.insert(other);
                }
            }
        }
        set
    }

    /// Does the column hold `v`?
    #[inline]
    pub(crate) fn contains(&self, v: SymValue) -> bool {
        match v {
            SymValue::Str(s) => self.strs[s.0 as usize / 64] >> (s.0 % 64) & 1 == 1,
            other => self.others.contains(&other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{tuple, AttrId, RelId, Sym, SymIndex};
    use condep_model::{Database, Domain, Schema, SymTables};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::sync::Arc;

    fn db() -> Database {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::string()),
                        ("b", Domain::string()),
                        ("c", Domain::string()),
                    ],
                )
                .finish(),
        );
        let mut db = Database::empty(schema);
        for (a, b, c) in [
            ("x", "1", "p"), // 0
            ("x", "1", "q"), // 1
            ("y", "2", "p"), // 2
            ("x", "2", "r"), // 3
            ("z", "3", "s"), // 4
            ("y", "2", "t"), // 5
        ] {
            db.insert_into("r", tuple![a, b, c]).unwrap();
        }
        db
    }

    #[test]
    fn from_column_strips_singletons_and_sorts_positions() {
        let db = db();
        let (dict, tables) = SymTables::build(&db);
        let mut counter = SymCounter::new(dict.id_bound());
        let p = StrippedPartition::from_column(tables.column(RelId(0), AttrId(0)), &mut counter);
        // x → {0,1,3}, y → {2,5}; z is a singleton and is stripped.
        let classes: Vec<&[u32]> = p.classes().collect();
        assert_eq!(classes, vec![&[0u32, 1, 3][..], &[2, 5]]);
        assert_eq!(p.support(), 5);
        assert_eq!(p.class_count(), 2);
        assert!(!p.is_key());
    }

    #[test]
    fn refine_splits_classes_on_the_new_column() {
        let db = db();
        let (dict, tables) = SymTables::build(&db);
        let mut counter = SymCounter::new(dict.id_bound());
        let rel = RelId(0);
        let pa = StrippedPartition::from_column(tables.column(rel, AttrId(0)), &mut counter);
        let pab = pa.refine(tables.column(rel, AttrId(1)), &mut counter);
        // {0,1,3} splits into {0,1} (b=1) and singleton {3} (stripped);
        // {2,5} stays together (both b=2).
        let classes: Vec<&[u32]> = pab.classes().collect();
        assert_eq!(classes, vec![&[0u32, 1][..], &[2, 5]]);
        // Refining by c (all distinct within classes) yields a key.
        let pabc = pab.refine(tables.column(rel, AttrId(2)), &mut counter);
        assert!(pabc.is_key());
        assert_eq!(pabc.support(), 0);
    }

    #[test]
    fn tally_reports_majority_and_purity() {
        let db = db();
        let (dict, tables) = SymTables::build(&db);
        let mut counter = SymCounter::new(dict.id_bound());
        let rel = RelId(0);
        let pa = StrippedPartition::from_column(tables.column(rel, AttrId(0)), &mut counter);
        let b_col = tables.column(rel, AttrId(1));
        let tallies: Vec<ClassTally> = pa
            .classes()
            .map(|c| tally_class(c, b_col, &mut counter))
            .collect();
        // x-class {0,1,3}: b values {1,1,2} → majority "1" with count 2.
        assert_eq!(tallies[0].len, 3);
        assert_eq!(tallies[0].max_count, 2);
        assert_eq!(
            tallies[0].majority,
            dict.sym_value(&condep_model::Value::str("1")).unwrap()
        );
        // y-class {2,5}: pure on b.
        assert_eq!(tallies[1].max_count, tallies[1].len);
    }

    #[test]
    fn sym_set_holds_exactly_the_column_symbols() {
        let col = [
            SymValue::Str(Sym(3)),
            SymValue::Int(-7),
            SymValue::Bool(false),
            SymValue::Str(Sym(64)),
            SymValue::Str(Sym(3)),
        ];
        let set = SymSet::of_column(&col, 65);
        for v in col {
            assert!(set.contains(v), "{v:?}");
        }
        for v in [
            SymValue::Str(Sym(0)),
            SymValue::Str(Sym(63)),
            SymValue::Int(7),
            SymValue::Bool(true),
        ] {
            assert!(!set.contains(v), "{v:?}");
        }
    }

    /// The sort-based partitions the counting passes replaced: the
    /// level-1 partition from a [`SymIndex`] bulk build (groups in
    /// first-seen key order), a refinement that sorts each class by
    /// `(symbol, position)`, and a tally that sorts the class's RHS
    /// symbols and keeps the first longest run.
    mod oracle {
        use super::*;

        pub fn from_column(col: &[SymValue]) -> Vec<Vec<u32>> {
            let idx = SymIndex::build_with(col.len(), 1, |pos, buf| {
                buf.push(col[pos]);
                true
            });
            idx.groups()
                .map(|(_, positions)| positions.to_vec())
                .filter(|class| class.len() >= 2)
                .collect()
        }

        pub fn refine(classes: &[Vec<u32>], col: &[SymValue]) -> Vec<Vec<u32>> {
            let mut out = Vec::new();
            for class in classes {
                let mut buf: Vec<(SymValue, u32)> =
                    class.iter().map(|&p| (col[p as usize], p)).collect();
                buf.sort_unstable();
                for run in buf.chunk_by(|a, b| a.0 == b.0) {
                    if run.len() >= 2 {
                        out.push(run.iter().map(|&(_, p)| p).collect());
                    }
                }
            }
            out
        }

        pub fn tally_class(class: &[u32], rhs_col: &[SymValue]) -> ClassTally {
            let mut buf: Vec<SymValue> = class.iter().map(|&p| rhs_col[p as usize]).collect();
            buf.sort_unstable();
            let mut majority = buf[0];
            let mut max_count = 0usize;
            for run in buf.chunk_by(|a, b| a == b) {
                if run.len() > max_count {
                    max_count = run.len();
                    majority = run[0];
                }
            }
            ClassTally {
                len: class.len(),
                max_count,
                majority,
            }
        }
    }

    /// Interned strings the random columns draw from.
    const STRINGS: u32 = 6;

    /// A symbol of any kind from a small pool, so columns repeat values.
    fn symbol() -> impl Strategy<Value = SymValue> {
        prop_oneof![
            any::<bool>().prop_map(SymValue::Bool),
            (-3i64..3).prop_map(SymValue::Int),
            (0..STRINGS).prop_map(|s| SymValue::Str(Sym(s))),
        ]
    }

    fn classes(p: &StrippedPartition) -> Vec<Vec<u32>> {
        p.classes().map(<[u32]>::to_vec).collect()
    }

    /// Builds both partitions of `cols[0]`, refines both by every later
    /// column and tallies every class of each level against every
    /// column, asserting the counting passes equal the oracle, class
    /// order included.
    fn assert_agrees_with_oracle(cols: &[Vec<SymValue>], counter: &mut SymCounter) {
        let mut got = StrippedPartition::from_column(&cols[0], counter);
        let mut want = oracle::from_column(&cols[0]);
        for depth in 0..cols.len() {
            assert_eq!(classes(&got), want, "level {} of {cols:?}", depth + 1);
            for rhs in cols {
                for (class, expected) in got.classes().zip(&want) {
                    assert_eq!(
                        tally_class(class, rhs, counter),
                        oracle::tally_class(expected, rhs),
                        "class {expected:?} of {cols:?}"
                    );
                }
            }
            if let Some(next) = cols.get(depth + 1) {
                got = got.refine(next, counter);
                want = oracle::refine(&want, next);
            }
        }
    }

    #[test]
    fn counting_partitions_agree_with_the_sort_based_oracle() {
        let columns = (1usize..40).prop_flat_map(|rows| {
            proptest::collection::vec(proptest::collection::vec(symbol(), rows), 3)
        });
        // One counter across every case: each pass must leave it clean.
        let mut counter = SymCounter::new(STRINGS as usize);
        for case in 0..256 {
            let mut rng = TestRng::for_case("counting_partitions_agree", case);
            assert_agrees_with_oracle(&columns.generate(&mut rng), &mut counter);
        }
    }

    #[test]
    fn counting_partitions_agree_on_degenerate_columns() {
        let mut counter = SymCounter::new(STRINGS as usize);
        let distinct: Vec<SymValue> = (0..STRINGS)
            .map(|s| SymValue::Str(Sym(s)))
            .chain((-3..3).map(SymValue::Int))
            .chain([SymValue::Bool(false), SymValue::Bool(true)])
            .collect();
        let equal = vec![SymValue::Int(-1); distinct.len()];
        let mut reversed = distinct.clone();
        reversed.reverse();
        assert_agrees_with_oracle(&[Vec::new()], &mut counter);
        assert_agrees_with_oracle(&[equal.clone(), distinct.clone()], &mut counter);
        assert_agrees_with_oracle(&[distinct.clone(), equal.clone()], &mut counter);
        assert_agrees_with_oracle(&[equal.clone(), equal, reversed], &mut counter);
        assert!(StrippedPartition::from_column(&distinct, &mut counter).is_key());
    }
}
