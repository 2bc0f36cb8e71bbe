#![warn(missing_docs)]

//! # condep-consistency
//!
//! Heuristic consistency analysis for CFDs + CINDs — Section 5 of the
//! paper.
//!
//! The consistency problem for CFDs and CINDs *together* is undecidable
//! (Theorem 4.2), so any polynomial procedure is necessarily heuristic:
//! **sound** when it answers `true` (a witness database was actually
//! built — Theorem 5.1) but not necessarily complete. This crate
//! implements the paper's algorithm stack:
//!
//! * [`sigma::ConstraintSet`] — a set Σ of normal-form CFDs and CINDs
//!   over one schema;
//! * [`cfd_checking`] — procedure `CFD_Checking` in both variants of
//!   Section 5.2: chase-based (with the `K_CFD` valuation budget of
//!   Figure 10(b)) and SAT-based (the `condep-cfd` SAT decider, on
//!   `condep-sat` standing in for SAT4j);
//! * [`graph`] — the dependency graph `G[Σ]` of Section 5.3 (one vertex
//!   per relation with `CFD(R)` and a tuple template `τ(R)`, one edge
//!   per CIND direction) plus Tarjan SCCs and the targets-first
//!   topological order;
//! * [`preprocessing`] — algorithm `preProcessing` (Figure 7): local CFD
//!   consistency per relation, non-triggering CFDs `CIND(Rj, R)⊥`, node
//!   deletion, and the 1 / 0 / −1 verdict;
//! * [`random_checking`](mod@random_checking) — algorithm `RandomChecking` (Figure 5) with
//!   the Section 5.2 improvement (interleaved `CFD_Checking`);
//! * [`checking`](mod@checking) — algorithm `Checking` (Figure 9), the combination.
//!
//! ## Relationship to `condep-analyze` and `condep-cfd`
//!
//! This crate keeps the *paper-faithful* algorithm stack used by the
//! figure benchmarks. For everyday Σ triage prefer
//! `condep_analyze::analyze` — the SAT-backed static-analysis pass with
//! verdicts, **minimal unsat cores**, and lints — which `Validator`,
//! `repair`, and discovery already call. Both sit on one CFD decider:
//! [`SatCfdChecker`] calls `condep_cfd::consistency::relation_consistency`
//! directly, as the analyzer does. The remaining modules here (chase
//! checker, `G[Σ]` graph, preprocessing, random checking) stay because
//! the paper's Figures 9–11 measure them; treat them as the
//! reproduction surface, not the API of record.
//!
//! Every witness this crate returns is certified by
//! [`ConstraintSet::satisfied_by`], the definition-level check of
//! `condep-cfd` and `condep-core` (`satisfy::satisfies_all`), not by
//! the batched `condep-validate` engine. The stack stands on the model,
//! the CFD and CIND crates, the chase and the SAT solver alone.

pub mod cfd_checking;
pub mod checking;
pub mod graph;
pub mod implication;
pub mod preprocessing;
pub mod random_checking;
pub mod sigma;

pub use cfd_checking::{CfdChecker, ChaseCfdChecker, SatCfdChecker};
pub use checking::{checking, CheckingConfig};
pub use implication::{refute_implication, RefuteConfig};
pub use preprocessing::{pre_processing, PreVerdict};
pub use random_checking::{random_checking, RandomCheckingConfig};
pub use sigma::ConstraintSet;
