#![warn(missing_docs)]

//! # condep-model
//!
//! The relational data-model substrate underlying the `condep` workspace,
//! a reproduction of *Bravo, Fan & Ma: Extending Dependencies with
//! Conditions* (VLDB 2007).
//!
//! Section 2 of the paper fixes the following preliminaries, all of which
//! are implemented here from scratch:
//!
//! * a database schema `R` is a collection of relation schemas
//!   `(R1, ..., Rn)` ([`Schema`]);
//! * each relation schema is defined over a fixed set of attributes
//!   ([`RelationSchema`], [`Attribute`]);
//! * each attribute has an associated domain which is *finite or infinite*
//!   ([`Domain`]) — the finite/infinite distinction drives most of the
//!   complexity results in the paper;
//! * an instance is a **set** of tuples ([`Relation`], [`Tuple`]), and a
//!   database instance is a collection of relations ([`Database`]);
//! * pattern tuples rank data values against the unnamed variable `_`
//!   via the match order `≍` ([`pattern::PValue`], [`pattern::PatternRow`]).
//!
//! Validation, the delta engine and discovery all build on three pieces
//! that live here too: the append-only [`Interner`] that turns cell
//! values into word-sized [`SymValue`]s for batch builds, the
//! refcounted [`Dict`] that does the same for long-lived consumers and
//! frees a value with its last holder, and [`SymIndex`], the group-by
//! index from keys of those symbols to the positions of the tuples
//! carrying them.
//!
//! The [`fixtures`] module reconstructs the running example of the paper
//! (Figure 1: the bank's `account`/`saving`/`checking`/`interest`
//! instances) so that every worked claim in the paper can be asserted in
//! tests.

pub mod database;
pub mod dict;
pub mod domain;
pub mod error;
pub mod fixtures;
pub mod fxhash;
pub mod implication;
pub mod intern;
pub mod pattern;
pub mod relation;
pub mod schema;
pub mod sym_index;
pub mod tuple;
pub mod value;

pub use database::Database;
pub use dict::Dict;
pub use domain::{BaseType, Domain};
pub use error::ModelError;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use implication::{Implication, ImplicationConfig};
pub use intern::{Interner, Sym, SymLookup, SymTables, SymValue};
pub use pattern::{PValue, PatternRow};
pub use relation::{PosList, Relation, Removed, TupleId, TupleIdMap};
pub use schema::{AttrId, Attribute, RelId, RelationSchema, Schema, SchemaBuilder};
pub use sym_index::SymIndex;
pub use tuple::Tuple;
pub use value::Value;

/// Convenient `Result` alias for fallible model operations.
pub type Result<T, E = ModelError> = std::result::Result<T, E>;
