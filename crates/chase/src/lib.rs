#![warn(missing_docs)]

//! # condep-chase
//!
//! The extended chase of Section 5.1 of the paper.
//!
//! Classical chasing with INDs can run forever; the paper bounds it by
//! drawing the unknown fields of newly created tuples from **predefined
//! finite variable pools** `var[A]` (size `N`, default 2 as in the
//! experiments) and capping relation sizes at `T` tuples. The chase then
//! operates on *database templates* — databases whose cells are
//! constants or pool variables ([`template::TemplateDb`]) — with two
//! operations:
//!
//! * `IND(ψ)` ([`ops::ind_step`]): a tuple matching `tp[Xp]` without a
//!   target witness forces a new target tuple (`Y` copied, `Yp` set to
//!   the pattern constants, the rest drawn from the pools);
//! * `FD(φ)` ([`ops::fd_step`]): tuples agreeing on `X` and matching
//!   `tp[X]` must agree on `A` (and match a constant `tp[A]`); variables
//!   are substituted away, and two distinct constants make the chase
//!   **undefined** — the failure signal the consistency algorithms use.
//!
//! The *instantiated chase* `chaseI` ([`engine::chase`] with
//! [`config::ChaseConfig::instantiate_finite`]) additionally replaces
//! finite-domain variables by domain constants after each CFD fixpoint,
//! skipping any value that fires a conflicting CFD premise
//! ([`engine::candidate_conflicts`]). That is what makes the heuristics
//! of Section 5.2 sensitive to finite domains.

pub mod config;
pub mod engine;
pub mod ops;
pub mod template;
pub mod valuation;

pub use config::ChaseConfig;
pub use engine::{chase, ChaseOutcome, UndefinedReason};
pub use template::{TemplateDb, TplTuple, TplValue, VarRef};
