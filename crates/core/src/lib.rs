#![warn(missing_docs)]

//! # condep-core
//!
//! Conditional inclusion dependencies (CINDs) — the primary contribution
//! of *Bravo, Fan & Ma: Extending Dependencies with Conditions*
//! (VLDB 2007).
//!
//! A CIND `ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp)` embeds a standard IND
//! `R1[X] ⊆ R2[Y]` in a pattern tableau: the inclusion applies only to
//! the `R1` tuples matching `tp[X, Xp]`, and the matching `R2` tuple must
//! additionally match `tp[Yp]`. Traditional INDs are the special case
//! with empty `Xp`/`Yp` and an all-wildcard tableau.
//!
//! This crate gives the full static analysis the paper develops:
//!
//! | Paper result | Module |
//! |---|---|
//! | Syntax & semantics (§2) | [`syntax`], [`satisfy`] |
//! | Normal form, Prop. 3.1 | [`normalize`](mod@normalize) |
//! | Consistency, Thm. 3.2 (always consistent, constructive witness) | [`witness`] |
//! | Inference system `I` (CIND1–CIND8, Fig. 3), Thm. 3.3 | [`inference`] |
//! | Implication, Thms. 3.4/3.5 (EXPTIME / PSPACE) | [`implication`] |
//! | Violation detection (data cleaning; §8 "SQL-based techniques") | [`violations`] |
//! | Minimal cover (§8 future work) | [`cover`] |
//! | Fig. 2 fixtures ψ1–ψ6 and the running examples | [`fixtures`] |
//!
//! The interaction with CFDs (§§4–5: undecidability, heuristic
//! consistency checking) lives in `condep-chase` and
//! `condep-consistency`.

pub mod cover;
pub mod fixtures;
pub mod implication;
pub mod inference;
pub mod normalize;
pub mod satisfy;
pub mod syntax;
pub mod violations;
pub mod witness;

pub use normalize::normalize;
pub use syntax::{Cind, NormalCind};
pub use violations::{find_violations, CindDelta, CindViolation};
pub use witness::build_witness;
