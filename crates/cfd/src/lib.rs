#![warn(missing_docs)]

//! # condep-cfd
//!
//! Conditional functional dependencies (CFDs), the companion formalism
//! the paper builds on (introduced by Bohannon, Fan, Geerts, Jia &
//! Kementsietsidis, ICDE 2007, and reviewed in Section 4 of our target
//! paper).
//!
//! A CFD `φ = (R: X → Y, Tp)` pairs a standard FD with a pattern tableau;
//! it constrains only the tuples matching a pattern row, and can force
//! constants (`t[Y] ≍ tp[Y]`). Unlike traditional FDs:
//!
//! * a *single* tuple can violate a CFD (Example 4.1);
//! * a set of CFDs can be **inconsistent** (Example 3.2) — deciding
//!   consistency is NP-complete in general and O(n²) without
//!   finite-domain attributes;
//! * implication is coNP-complete in general, O(n²) without finite
//!   domains.
//!
//! This crate provides the full substrate: syntax ([`syntax`]), normal
//! form ([`normalize`](mod@normalize)), satisfaction & violation detection
//! ([`satisfy`], [`violations`]), exact consistency analysis
//! ([`consistency`]), exact implication analysis ([`implication`]), and
//! the paper's CFD fixtures ([`fixtures`]). The *heuristic* consistency
//! procedures of Section 5 (which interleave CFDs with CINDs) live in
//! `condep-consistency`.

pub mod consistency;
pub mod fixtures;
pub mod implication;
pub mod normalize;
pub mod satisfy;
pub mod syntax;
pub mod violations;

pub use normalize::normalize;
pub use syntax::{Cfd, NormalCfd};
pub use violations::{find_violations, find_violations_unordered, CfdDelta, CfdViolation};
