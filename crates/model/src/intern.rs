//! String interning and compact value symbols.
//!
//! The batched Σ-validation engine probes hash tables with tuple
//! projections. Hashing `Value::Str(Arc<str>)` keys means chasing a
//! pointer and hashing every byte on each probe; an [`Interner`] maps
//! each distinct string of a [`Database`] to a dense `u32` [`Sym`] once,
//! after which keys become word-sized [`SymValue`]s — `Copy`, cheap to
//! hash, and comparable without dereferencing.

use crate::database::Database;
use crate::fxhash::FxBuildHasher;
use crate::relation::Relation;
use crate::schema::{AttrId, RelId};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A dense interned-string handle, valid for the [`Interner`] that
/// produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Sym(pub u32);

/// A compact, `Copy` rendering of a [`Value`] under some [`Interner`]:
/// strings become symbols, numbers and booleans stay inline. Two
/// `SymValue`s from the same interner are equal iff the underlying
/// values are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum SymValue {
    /// An inline boolean.
    Bool(bool),
    /// An inline integer.
    Int(i64),
    /// An interned string.
    Str(Sym),
}

/// An append-only per-database string interner.
///
/// [`SymTables::build_for`] returns one holding exactly the strings of
/// the columns it symbolized. Translate values with
/// [`Interner::sym_value`] for read-only probing, or with
/// [`Interner::intern_value`] while symbolizing. A symbol store that
/// outlives mutations, where strings must die with their last cell, is
/// a [`crate::Dict`].
#[derive(Clone, Default, Debug)]
pub struct Interner {
    map: HashMap<Arc<str>, u32, FxBuildHasher>,
    strs: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its (possibly new) symbol.
    pub fn intern(&mut self, s: &Arc<str>) -> Sym {
        if let Some(&id) = self.map.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(self.strs.len()).expect("interner capacity exceeded");
        self.map.insert(s.clone(), id);
        self.strs.push(s.clone());
        Sym(id)
    }

    /// The symbol of an already-interned string, if any.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.map.get(s).map(|&id| Sym(id))
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strs[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// Translates a value, interning new strings as needed.
    pub fn intern_value(&mut self, v: &Value) -> SymValue {
        match v {
            Value::Bool(b) => SymValue::Bool(*b),
            Value::Int(i) => SymValue::Int(*i),
            Value::Str(s) => SymValue::Str(self.intern(s)),
        }
    }

    /// Read-only translation: `None` when `v` is a string this interner
    /// has never seen — which, for an interner holding every cell it
    /// symbolized (one from [`SymTables::build_for`]), means **no
    /// symbolized cell can equal `v`**. Callers use that to skip entire
    /// constraint groups.
    pub fn sym_value(&self, v: &Value) -> Option<SymValue> {
        match v {
            Value::Bool(b) => Some(SymValue::Bool(*b)),
            Value::Int(i) => Some(SymValue::Int(*i)),
            Value::Str(s) => self.lookup(s).map(SymValue::Str),
        }
    }
}

/// Read-only value → symbol translation, shared by the symbol stores:
/// the batch [`Interner`] and the refcounted [`crate::Dict`]. `None`
/// means `v` is a string no cell of the store carries, so no symbolized
/// cell can equal it.
pub trait SymLookup {
    /// The symbol of `v` (see the trait docs).
    fn sym_value(&self, v: &Value) -> Option<SymValue>;
}

impl SymLookup for Interner {
    fn sym_value(&self, v: &Value) -> Option<SymValue> {
        Interner::sym_value(self, v)
    }
}

/// A column-major symbolized copy of a database: for each relation, one
/// `Vec<SymValue>` per attribute, indexed by dense tuple position.
///
/// Built once per validation sweep via [`SymTables::build_for`];
/// afterwards every group-by index over any attribute list reads plain
/// `Copy` columns — no string hashing anywhere in the per-group work, no
/// matter how many constraint groups share the relation.
#[derive(Clone, Debug)]
pub struct SymTables {
    /// `tables[rel][attr][pos]`; columns left out of the build are empty.
    tables: Vec<Vec<Vec<SymValue>>>,
    /// Tuples per relation, symbolized or not.
    rows: Vec<usize>,
}

impl SymTables {
    /// Symbolizes every value of `db`, returning the tables plus the
    /// interner that resolves them.
    pub fn build(db: &Database) -> (Interner, SymTables) {
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
    /// missing entry lists nothing) — a validation sweep passes the
    /// columns its constraint groups read, so a column no dependency
    /// mentions costs nothing and its strings stay out of the interner.
    /// Unlisted columns are empty and must not be read; [`SymTables::rows`]
    /// still counts every tuple.
    pub fn build_for(db: &Database, attrs: &[Vec<AttrId>]) -> (Interner, SymTables) {
        let mut interner = Interner::new();
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
            // Row-major: symbols number strings in tuple order, which
            // the discovery miners' symbol tie-breaks depend on.
            for t in rel.iter() {
                for &a in &wanted {
                    cols[a].push(interner.intern_value(&t.values()[a]));
                }
            }
            tables.push(cols);
            rows.push(rel.len());
        }
        (interner, SymTables { tables, rows })
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
    use crate::fixtures::bank_database;
    use crate::tuple;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern(&Arc::from("EDI"));
        let b = i.intern(&Arc::from("EDI"));
        let c = i.intern(&Arc::from("NYC"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "EDI");
        assert_eq!(i.resolve(c), "NYC");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn sym_value_distinguishes_known_from_unknown() {
        let mut i = Interner::new();
        i.intern(&Arc::from("known"));
        assert!(i.sym_value(&Value::str("known")).is_some());
        assert_eq!(i.sym_value(&Value::str("unknown")), None);
        assert_eq!(i.sym_value(&Value::int(3)), Some(SymValue::Int(3)));
        assert_eq!(i.sym_value(&Value::bool(true)), Some(SymValue::Bool(true)));
    }

    #[test]
    fn sym_tables_mirror_the_database() {
        let db = bank_database();
        let (interner, tables) = SymTables::build(&db);
        for (rel, inst) in db.iter() {
            assert_eq!(tables.rows(rel), inst.len());
            for (pos, t) in inst.iter().enumerate() {
                for (i, v) in t.values().iter().enumerate() {
                    let attr = crate::schema::AttrId(i as u32);
                    assert_eq!(
                        tables.column(rel, attr)[pos],
                        interner.sym_value(v).expect("interned"),
                    );
                }
            }
        }
    }

    #[test]
    fn build_for_skips_unlisted_columns_but_counts_their_rows() {
        let schema = crate::schema::Schema::builder()
            .relation(
                "r",
                &[
                    ("id", crate::domain::Domain::string()),
                    ("city", crate::domain::Domain::string()),
                ],
            )
            .relation("s", &[("v", crate::domain::Domain::string())])
            .finish();
        let mut db = Database::empty(Arc::new(schema));
        for i in 0..5 {
            db.insert_into("r", tuple![format!("id{i}").as_str(), "EDI"])
                .unwrap();
        }
        db.insert_into("s", tuple!["x"]).unwrap();
        let (r, s) = (RelId(0), RelId(1));
        // Attribute 0 of `r` is skipped; `s` has no entry at all.
        let (interner, tables) = SymTables::build_for(&db, &[vec![AttrId(1), AttrId(1)]]);
        assert_eq!(tables.rows(r), 5);
        assert_eq!(tables.rows(s), 1);
        assert!(tables.column(r, AttrId(0)).is_empty());
        assert!(tables.column(s, AttrId(0)).is_empty());
        let edi = SymValue::Str(interner.lookup("EDI").expect("listed column interned"));
        assert_eq!(tables.column(r, AttrId(1)), [edi; 5]);
        assert_eq!(interner.len(), 1);
        assert_eq!(interner.lookup("id0"), None);
        assert_eq!(interner.lookup("x"), None);
    }

    #[test]
    fn sym_values_preserve_equality() {
        let mut i = Interner::new();
        let t1 = tuple!["a", 1i64, true];
        let t2 = tuple!["a", 1i64, true];
        let s1: Vec<SymValue> = t1.values().iter().map(|v| i.intern_value(v)).collect();
        let s2: Vec<SymValue> = t2.values().iter().map(|v| i.intern_value(v)).collect();
        assert_eq!(s1, s2);
        let t3 = tuple!["b", 1i64, true];
        let s3: Vec<SymValue> = t3.values().iter().map(|v| i.intern_value(v)).collect();
        assert_ne!(s1, s3);
    }
}
