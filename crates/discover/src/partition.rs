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
//! Level-1 partitions come straight out of a [`SymIndex`] counting-sort
//! CSR bulk build over one pre-symbolized [`condep_model::SymTables`]
//! column — no string is hashed anywhere in the mining hot path. Deeper
//! lattice levels are produced by [`StrippedPartition::refine`], which
//! splits each class on one more interned column.

use condep_model::{SymIndex, SymValue};

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
    /// The partition of one symbolized column, built through the
    /// [`SymIndex`] counting-sort CSR bulk path (groups come back
    /// contiguous and position-ascending).
    pub fn from_column(col: &[SymValue]) -> StrippedPartition {
        let idx = SymIndex::build_from_columns(col.len(), &[col], |_| true);
        let mut p = StrippedPartition {
            elems: Vec::with_capacity(col.len()),
            starts: vec![0],
        };
        for (_, positions) in idx.groups() {
            p.push_class(positions.iter().copied());
        }
        p
    }

    /// Appends the positions as one class if it survives stripping.
    fn push_class(&mut self, positions: impl Iterator<Item = u32>) {
        let start = self.elems.len();
        self.elems.extend(positions);
        if self.elems.len() - start < 2 {
            self.elems.truncate(start);
        } else {
            self.starts.push(self.elems.len() as u32);
        }
    }

    /// The partition `π_{X ∪ {B}}` from `π_X` and `B`'s column: each
    /// class is split on the column's symbols (sort-based, so the result
    /// is deterministic and position-ascending), singleton shards are
    /// stripped.
    pub fn refine(&self, col: &[SymValue]) -> StrippedPartition {
        let mut out = StrippedPartition {
            elems: Vec::with_capacity(self.elems.len()),
            starts: vec![0],
        };
        let mut buf: Vec<(SymValue, u32)> = Vec::new();
        for class in self.classes() {
            buf.clear();
            buf.extend(class.iter().map(|&p| (col[p as usize], p)));
            buf.sort_unstable();
            let mut i = 0;
            while i < buf.len() {
                let mut j = i + 1;
                while j < buf.len() && buf[j].0 == buf[i].0 {
                    j += 1;
                }
                out.push_class(buf[i..j].iter().map(|&(_, p)| p));
                i = j;
            }
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
#[derive(Clone, Copy, Debug)]
pub struct ClassTally {
    /// Class size.
    pub len: usize,
    /// Frequency of the most common `A` symbol in the class.
    pub max_count: usize,
    /// The most common `A` symbol (smallest symbol on ties, for
    /// determinism).
    pub majority: SymValue,
}

/// Tallies one class against an RHS column. `class` is never empty.
pub fn tally_class(class: &[u32], rhs_col: &[SymValue], buf: &mut Vec<SymValue>) -> ClassTally {
    buf.clear();
    buf.extend(class.iter().map(|&p| rhs_col[p as usize]));
    buf.sort_unstable();
    let mut majority = buf[0];
    let mut max_count = 0usize;
    let mut i = 0;
    while i < buf.len() {
        let mut j = i + 1;
        while j < buf.len() && buf[j] == buf[i] {
            j += 1;
        }
        if j - i > max_count {
            max_count = j - i;
            majority = buf[i];
        }
        i = j;
    }
    ClassTally {
        len: class.len(),
        max_count,
        majority,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{tuple, AttrId, RelId};
    use condep_model::{Database, Domain, Schema, SymTables};
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
        let (_, tables) = SymTables::build(&db);
        let p = StrippedPartition::from_column(tables.column(RelId(0), AttrId(0)));
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
        let (_, tables) = SymTables::build(&db);
        let rel = RelId(0);
        let pa = StrippedPartition::from_column(tables.column(rel, AttrId(0)));
        let pab = pa.refine(tables.column(rel, AttrId(1)));
        // {0,1,3} splits into {0,1} (b=1) and singleton {3} (stripped);
        // {2,5} stays together (both b=2).
        let classes: Vec<&[u32]> = pab.classes().collect();
        assert_eq!(classes, vec![&[0u32, 1][..], &[2, 5]]);
        // Refining by c (all distinct within classes) yields a key.
        let pabc = pab.refine(tables.column(rel, AttrId(2)));
        assert!(pabc.is_key());
        assert_eq!(pabc.support(), 0);
    }

    #[test]
    fn tally_reports_majority_and_purity() {
        let db = db();
        let (interner, tables) = SymTables::build(&db);
        let rel = RelId(0);
        let pa = StrippedPartition::from_column(tables.column(rel, AttrId(0)));
        let b_col = tables.column(rel, AttrId(1));
        let mut buf = Vec::new();
        let tallies: Vec<ClassTally> = pa
            .classes()
            .map(|c| tally_class(c, b_col, &mut buf))
            .collect();
        // x-class {0,1,3}: b values {1,1,2} → majority "1" with count 2.
        assert_eq!(tallies[0].len, 3);
        assert_eq!(tallies[0].max_count, 2);
        assert_eq!(
            tallies[0].majority,
            interner.sym_value(&condep_model::Value::str("1")).unwrap()
        );
        // y-class {2,5}: pure on b.
        assert_eq!(tallies[1].max_count, tallies[1].len);
    }
}
