#![warn(missing_docs)]

//! # condep — conditional dependencies for data quality
//!
//! A from-scratch Rust implementation of **conditional inclusion
//! dependencies (CINDs)** and their interaction with **conditional
//! functional dependencies (CFDs)**, reproducing
//!
//! > Loreto Bravo, Wenfei Fan, Shuai Ma.
//! > *Extending Dependencies with Conditions.* VLDB 2007.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`model`] | relational substrate: values, finite/infinite domains, schemas, tuples, databases, pattern rows and the match order `≍`; symbolization through one refcounted `Dict`, the value → symbol map every engine shares (batch builds number strings in first-seen order, long-lived ones free a string with its last holder), and `SymIndex`, the group-by index over symbol keys, each stored once in a slab, that validation and the delta engine build on |
//! | [`sat`] | DPLL SAT solver (stands in for SAT4j) |
//! | [`analyze`] | **static analysis of Σ**: per-relation verdicts from the `cfd` SAT decider (`Sat` + witness database, `Unsat` + minimal core in Σ indices, `Unknown` on budget), a budgeted CFD+CIND chase, and the advisory `SigmaLint` catalogue — the pre-flight gate behind `Validator::strict` and `repair()` |
//! | [`cfd`] | CFDs: syntax, normal form, satisfaction, violations, and the one SAT decider for consistency (one symbolic tuple) and implication (two) |
//! | [`cind`] | **the paper's contribution** — CINDs: syntax, semantics, normal form (Prop 3.1), consistency witness (Thm 3.2), inference system `I` (Fig 3), implication (Thms 3.4/3.5), minimal cover |
//! | [`chase`] | the bounded-pool chase of Section 5.1 (`IND(ψ)`/`FD(φ)`, `chaseI`, valuations) |
//! | [`consistency`] | the Section 5 heuristics: `CFD_Checking` (chase & SAT), dependency graph, `preProcessing`, `RandomChecking`, `Checking` |
//! | [`gen`] | seeded workload generators matching the Section 6 experimental setting, incl. the planted-Σ discovery ground truth (`clean_database_with_hidden_sigma`) |
//! | [`discover`] | **dependency discovery**: level-wise CFD mining over stripped partitions (counting passes over symbolized columns), constant-pattern specialization per equivalence class, unary CIND inclusion mining with exact-making constant conditions, `(support, confidence)` ranking with trivial/implied pruning |
//! | [`validate`] | **batched Σ-validation engine**: Σ grouped by `(relation, LHS set)`, one shared group-by index per group over symbol keys read from one row cache, parallel sweep; `ValidatorStream` delta engine (value-level `Mutation` windows through one `apply_deltas` entry, insert/delete/update with violation retraction; `apply`/`revert` are windows of one) hardened for whole-life monitoring: position-stable `TupleId` handles, key groups freed with their last tuple and a refcounted string dictionary, so memory follows the live data with no maintenance call |
//! | [`repair`] | **cost-based repair engine**: greedy equivalence-class CFD repair (union-find over conflicting cells, majority/constant targets), CIND orphans chased into inserted targets or deleted, every fix verified net-negative through the delta engine and rolled back otherwise |
//! | [`report`] | high-level data-quality façade: compiles Σ into a batched validator, runs it against a database and aggregates violations; `QualityMonitor` reads the stream's live violation set (O(1) summary, sorted report on demand); `QualitySuite::repair` cleans a database through the repair engine |
//! | [`telemetry`] | **unified observability core** (dependency-free): per-owner counter/gauge registries with a runtime kill switch, log2-bucket µs histograms with deterministic p50/p90/p99, RAII span timers, a bounded event journal, the metric-naming rule and a hand-rolled JSON writer and parser |
//!
//! ## Observability
//!
//! Every layer reports through [`telemetry`]: a `ValidatorStream` owns
//! a private registry + journal (probe counts, mutation/window latency,
//! index and dictionary sizes — see `condep_validate::StreamTelemetry`),
//! `Validator::new` and `discover::discover` time their phases into the
//! stats they return (`Validator::compile_stats`,
//! `DiscoveredSigma::timings`), a repair run returns its round metrics
//! on `RepairReport::metrics`, and [`report::QualityMonitor::health`]
//! returns the journal tail beside one metric snapshot holding the
//! live state — violation counts, window latency percentiles, the
//! journal's lifetime event count, online-miner activity — as one
//! JSON-serializable [`report::HealthSnapshot`]. Each of these exports
//! through [`telemetry::Export`] into a [`telemetry::MetricsSnapshot`],
//! whose keys follow the naming table [`telemetry::misnamed_keys`]
//! checks. The scoreboard (`condep-bench`) carries each scenario's
//! figures in exactly one such snapshot and gates every leaf of it.
//!
//! ## Quickstart
//!
//! ```
//! use condep::model::fixtures::bank_database;
//! use condep::cind::{fixtures, normalize};
//!
//! // The dirty instance of Figure 1 violates ψ6 through tuple t10 …
//! let db = bank_database();
//! let psi6 = normalize::normalize(&fixtures::psi6());
//! let violations = condep::cind::find_violations(&db, &psi6[0]);
//! assert_eq!(violations.len(), 1);
//! ```

pub use condep_analyze as analyze;
pub use condep_cfd as cfd;
pub use condep_chase as chase;
pub use condep_consistency as consistency;
pub use condep_core as cind;
pub use condep_discover as discover;
pub use condep_dsl as dsl;
pub use condep_gen as gen;
pub use condep_model as model;
pub use condep_repair as repair;
pub use condep_sat as sat;
pub use condep_telemetry as telemetry;
pub use condep_validate as validate;

pub mod report;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::cfd::{Cfd, NormalCfd};
    pub use crate::chase::{ChaseConfig, TemplateDb};
    pub use crate::cind::{Cind, NormalCind};
    pub use crate::consistency::{checking, CheckingConfig, ConstraintSet};
    pub use crate::discover::online::{OnlineConfig, OnlineMiner};
    pub use crate::discover::{DiscoveredSigma, DiscoveryConfig, SampleConfig};
    pub use crate::model::{
        AttrId, Database, Domain, PValue, PatternRow, RelId, Schema, Tuple, TupleId, Value,
    };
    pub use crate::repair::{RepairBudget, RepairCost, RepairReport};
    pub use crate::report::{HealthSnapshot, QualityMonitor, QualityReport, ViolationSummary};
    pub use crate::telemetry::{Export, MetricsSnapshot};
    pub use crate::validate::{Mutation, SigmaDelta, SigmaReport, Validator, ValidatorStream};
}
