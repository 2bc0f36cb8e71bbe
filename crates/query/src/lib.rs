#![warn(missing_docs)]

//! # condep-query
//!
//! The compact-key group-by index every engine layer builds on.
//!
//! [`SymIndex`] maps keys of interned [`condep_model::SymValue`] cells to
//! the dense positions of the tuples carrying them. The batched
//! Σ-validator builds one per constraint group, its delta engine keeps
//! them live through inserts, swap-deletes and renumbers, and discovery
//! partitions columns with them. Violation detection itself lives with
//! the engines (`condep-validate`); the per-dependency reference
//! detectors in `condep-cfd` and `condep-core` are plain nested loops.

pub mod sym_index;

pub use sym_index::{PosIter, SymIndex};
