//! Compact value symbols and the batch symbolization.
//!
//! The batched engines probe hash tables with tuple projections.
//! Hashing `Value::Str(Arc<str>)` keys means chasing a pointer and
//! hashing every byte on each probe; a [`Dict`] maps each distinct
//! string to a dense `u32` [`Sym`] once, after which keys become
//! word-sized [`SymValue`]s — `Copy`, cheap to hash, and comparable
//! without dereferencing. [`SymTables`] is the column-major symbolized
//! copy of a database that discovery's miners read.

use crate::database::Database;
use crate::dict::Dict;
use crate::relation::Relation;
use crate::schema::{AttrId, RelId};

/// A dense string handle: the id a [`Dict`] gave the string, valid for
/// that dictionary while some holder keeps the string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Sym(pub u32);

/// A compact, `Copy` rendering of a [`crate::Value`] under some
/// [`Dict`]: strings become symbols, numbers and booleans stay inline.
/// Two `SymValue`s from the same dictionary are equal iff the
/// underlying values are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum SymValue {
    /// An inline boolean.
    Bool(bool),
    /// An inline integer.
    Int(i64),
    /// A dictionary string.
    Str(Sym),
}

/// A column-major symbolized copy of a database: for each relation, one
/// `Vec<SymValue>` per attribute, indexed by dense tuple position.
///
/// Built once per discovery pass via [`SymTables::build_for`];
/// afterwards every partition and tally over any attribute list reads
/// plain `Copy` columns — no string hashing in the per-node work.
#[derive(Clone, Debug)]
pub struct SymTables {
    /// `tables[rel][attr][pos]`; columns left out of the build are empty.
    tables: Vec<Vec<Vec<SymValue>>>,
    /// Tuples per relation, symbolized or not.
    rows: Vec<usize>,
}

impl SymTables {
    /// Symbolizes every value of `db`, returning the tables plus the
    /// dictionary that resolves them.
    pub fn build(db: &Database) -> (Dict, SymTables) {
        let all: Vec<Vec<AttrId>> = db
            .iter()
            .map(|(rel_id, rel)| {
                (0..arity_of(db, rel_id, rel))
                    .map(|a| AttrId(a as u32))
                    .collect()
            })
            .collect();
        SymTables::build_for(db, &all)
    }

    /// Like [`SymTables::build`], but symbolizes only the attributes
    /// `attrs[rel]` lists for each relation (duplicates are ignored, a
    /// missing entry lists nothing) — confirmation passes the columns
    /// its kept dependencies read, so a column none mentions costs
    /// nothing and its strings stay out of the dictionary. Unlisted
    /// columns are empty and must not be read; [`SymTables::rows`]
    /// still counts every tuple.
    ///
    /// A batch build releases nothing, so the dictionary numbers
    /// strings 0, 1, 2, … in row-major first-seen order (the discovery
    /// miners' symbol tie-breaks depend on it), each string held once
    /// per cell that carries it, and its `id_bound()` equals its
    /// `len()`.
    pub fn build_for(db: &Database, attrs: &[Vec<AttrId>]) -> (Dict, SymTables) {
        let mut dict = Dict::new();
        let mut tables = Vec::new();
        let mut rows = Vec::new();
        for (rel_id, rel) in db.iter() {
            let arity = arity_of(db, rel_id, rel);
            let mut wanted = vec![false; arity];
            for a in attrs.get(rel_id.index()).into_iter().flatten() {
                wanted[a.index()] = true;
            }
            let wanted: Vec<usize> = (0..arity).filter(|&a| wanted[a]).collect();
            let mut cols: Vec<Vec<SymValue>> = (0..arity).map(|_| Vec::new()).collect();
            for &a in &wanted {
                cols[a].reserve_exact(rel.len());
            }
            for t in rel.iter() {
                for &a in &wanted {
                    cols[a].push(dict.acquire_sym(&t.values()[a]));
                }
            }
            tables.push(cols);
            rows.push(rel.len());
        }
        (dict, SymTables { tables, rows })
    }

    /// The symbolized column of `attr` in `rel` (dense position order).
    pub fn column(&self, rel: RelId, attr: AttrId) -> &[SymValue] {
        &self.tables[rel.index()][attr.index()]
    }

    /// The columns of `rel` for an attribute list, in list order.
    pub fn columns(&self, rel: RelId, attrs: &[AttrId]) -> Vec<&[SymValue]> {
        attrs.iter().map(|a| self.column(rel, *a)).collect()
    }

    /// Number of tuples of `rel`, whether or not the build listed any of
    /// its columns.
    pub fn rows(&self, rel: RelId) -> usize {
        self.rows[rel.index()]
    }

    /// Every column of `rel`, in attribute order — what a profiling pass
    /// sweeping all attributes of a relation wants (columns the build
    /// did not list are empty).
    pub fn rel_columns(&self, rel: RelId) -> &[Vec<SymValue>] {
        &self.tables[rel.index()]
    }
}

/// Arity from the schema, so empty relations still expose their (empty)
/// columns.
fn arity_of(db: &Database, rel_id: RelId, rel: &Relation) -> usize {
    db.schema()
        .relation(rel_id)
        .map(|rs| rs.arity())
        .unwrap_or_else(|_| rel.iter().next().map_or(0, |t| t.arity()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::fixtures::bank_database;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::Value;
    use std::sync::Arc;

    #[test]
    fn sym_tables_mirror_the_database() {
        let db = bank_database();
        let (dict, tables) = SymTables::build(&db);
        for (rel, inst) in db.iter() {
            assert_eq!(tables.rows(rel), inst.len());
            for (pos, t) in inst.iter().enumerate() {
                for (i, v) in t.values().iter().enumerate() {
                    let attr = AttrId(i as u32);
                    assert_eq!(
                        tables.column(rel, attr)[pos],
                        dict.sym_value(v).expect("symbolized"),
                    );
                }
            }
        }
    }

    #[test]
    fn build_for_skips_unlisted_columns_but_counts_their_rows() {
        let schema = Schema::builder()
            .relation("r", &[("id", Domain::string()), ("city", Domain::string())])
            .relation("s", &[("v", Domain::string())])
            .finish();
        let mut db = Database::empty(Arc::new(schema));
        for i in 0..5 {
            db.insert_into("r", tuple![format!("id{i}").as_str(), "EDI"])
                .unwrap();
        }
        db.insert_into("s", tuple!["x"]).unwrap();
        let (r, s) = (RelId(0), RelId(1));
        // Attribute 0 of `r` is skipped; `s` has no entry at all.
        let (dict, tables) = SymTables::build_for(&db, &[vec![AttrId(1), AttrId(1)]]);
        assert_eq!(tables.rows(r), 5);
        assert_eq!(tables.rows(s), 1);
        assert!(tables.column(r, AttrId(0)).is_empty());
        assert!(tables.column(s, AttrId(0)).is_empty());
        let edi = dict
            .sym_value(&Value::str("EDI"))
            .expect("listed column symbolized");
        assert_eq!(tables.column(r, AttrId(1)), [edi; 5]);
        assert_eq!(dict.len(), 1);
        assert_eq!(dict.get(&Value::str("id0")), None);
        assert_eq!(dict.get(&Value::str("x")), None);
    }

    #[test]
    fn build_for_numbers_strings_row_major_in_first_seen_order() {
        let schema = Schema::builder()
            .relation(
                "r",
                &[
                    ("a", Domain::string()),
                    ("n", Domain::integer()),
                    ("c", Domain::string()),
                    ("b", Domain::boolean()),
                    ("skip", Domain::string()),
                ],
            )
            .relation("s", &[("v", Domain::string())])
            .finish();
        let mut db = Database::empty(Arc::new(schema));
        for t in [
            tuple!["p", 1i64, "q", true, "skip0"],
            tuple!["q", 2i64, "r", false, "skip1"],
            tuple!["s", 1i64, "p", true, "skip2"],
        ] {
            db.insert_into("r", t).unwrap();
        }
        db.insert_into("s", tuple!["q"]).unwrap();
        db.insert_into("s", tuple!["t"]).unwrap();
        let listed = [(0..4).map(AttrId).collect(), vec![AttrId(0)]];
        let (dict, tables) = SymTables::build_for(&db, &listed);
        // Row by row, listed columns left to right: a column-major walk
        // would number `s` before `r`.
        let str_at = |id: u32| SymValue::Str(Sym(id));
        let (r, s) = (RelId(0), RelId(1));
        let (p, q, rr, ss, t) = (str_at(0), str_at(1), str_at(2), str_at(3), str_at(4));
        assert_eq!(tables.column(r, AttrId(0)), [p, q, ss]);
        assert_eq!(tables.column(r, AttrId(2)), [q, rr, p]);
        assert_eq!(tables.column(s, AttrId(0)), [q, t]);
        for (id, v) in ["p", "q", "r", "s", "t"].into_iter().enumerate() {
            assert_eq!(dict.value(id as u32), &Value::str(v));
        }
        // Numbers and booleans stay inline and hold nothing.
        let ints = [1, 2, 1].map(SymValue::Int);
        assert_eq!(tables.column(r, AttrId(1)), ints);
        let bools = [true, false, true].map(SymValue::Bool);
        assert_eq!(tables.column(r, AttrId(3)), bools);
        // The unlisted column's strings never enter.
        assert_eq!(dict.get(&Value::str("skip0")), None);
        // Each string is held once per cell that carries it.
        let cells = [2, 3, 1, 1, 1];
        for (id, n) in cells.into_iter().enumerate() {
            assert_eq!(dict.holders(id as u32), n);
        }
        assert_eq!((dict.len(), dict.id_bound()), (5, 5));
    }

    #[test]
    fn sym_values_preserve_equality() {
        let mut d = Dict::new();
        let mut sym = |t: &crate::Tuple| -> Vec<SymValue> {
            t.values().iter().map(|v| d.acquire_sym(v)).collect()
        };
        let s1 = sym(&tuple!["a", 1i64, true]);
        let s2 = sym(&tuple!["a", 1i64, true]);
        assert_eq!(s1, s2);
        let s3 = sym(&tuple!["b", 1i64, true]);
        assert_ne!(s1, s3);
    }
}
