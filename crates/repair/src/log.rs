//! The auditable trail a repair run leaves behind.

use condep_model::{AttrId, RelId, Tuple, TupleId};
use condep_telemetry::MetricsSnapshot;
use condep_validate::{SigmaLint, SigmaReport};
use std::fmt;

/// Which constraint motivated a fix (index into the compiled suite's
/// `cfds()` / `cinds()`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Motive {
    /// The fix settles an equivalence class of CFD violations.
    Cfd(usize),
    /// The fix resolves a CIND orphan.
    Cind(usize),
}

/// One candidate repair action, expressed at the **value level** (never
/// by dense position) so it stays meaningful across the swap renumbering
/// earlier fixes cause.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fix {
    /// Replace `old` by `new` (they differ exactly on `attrs`).
    EditCells {
        /// The relation edited in.
        rel: RelId,
        /// The tuple before the edit.
        old: Tuple,
        /// The tuple after the edit.
        new: Tuple,
        /// The edited attributes.
        attrs: Vec<AttrId>,
    },
    /// Delete a tuple outright.
    DeleteTuple {
        /// The relation deleted from.
        rel: RelId,
        /// The deleted tuple.
        tuple: Tuple,
    },
    /// Insert a new tuple (a chased CIND target).
    InsertTuple {
        /// The relation inserted into.
        rel: RelId,
        /// The inserted tuple.
        tuple: Tuple,
    },
}

/// One fix the engine kept, with the delta evidence that justified it.
#[derive(Clone, Debug)]
pub struct AppliedFix {
    /// The action taken.
    pub fix: Fix,
    /// The constraint that motivated it.
    pub motive: Motive,
    /// Its cost under the run's [`crate::RepairCost`].
    pub cost: f64,
    /// Violations the fix's `SigmaDelta`s resolved.
    pub resolved: usize,
    /// Violations the fix's `SigmaDelta`s introduced.
    pub introduced: usize,
    /// The **stable id** of the tuple the fix acted on: the edited /
    /// deleted tuple's id (retired by the mutation), or the id born for
    /// an inserted tuple. Because the repair stream is seeded with the
    /// dense-seeding convention, this links the audit log to external
    /// ground truth (e.g. `condep-gen`'s `InjectedDirt::id`) even after
    /// earlier fixes have swap-renumbered every dense position.
    pub target: Option<TupleId>,
}

impl AppliedFix {
    /// `introduced − resolved`; the engine only keeps fixes where this
    /// is strictly negative, so over a whole log every entry is `< 0`.
    pub fn net_change(&self) -> isize {
        self.introduced as isize - self.resolved as isize
    }
}

/// Everything a repair run did, fix by fix.
#[derive(Clone, Debug, Default)]
pub struct RepairLog {
    /// The fixes kept, in application order.
    pub applied: Vec<AppliedFix>,
    /// Candidate fixes applied, found non-net-negative, and rolled back.
    pub rejected: usize,
    /// Planned fixes skipped because an earlier fix had already removed
    /// or rewritten their target tuple (replanned next round).
    pub stale: usize,
    /// Fixpoint rounds run.
    pub rounds: usize,
}

/// The summary a repair run returns next to the repaired database.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The fix-by-fix audit trail.
    pub log: RepairLog,
    /// Violations in the database the run started from.
    pub initial_violations: usize,
    /// Violations that survived the run (empty on a full repair).
    pub residual: SigmaReport,
    /// Cells edited across all kept fixes.
    pub cells_edited: usize,
    /// Tuples deleted across all kept fixes.
    pub tuples_deleted: usize,
    /// Tuples inserted across all kept fixes.
    pub tuples_inserted: usize,
    /// Total cost of the kept fixes.
    pub total_cost: f64,
    /// Did the run stop on the cascade budget rather than at fixpoint?
    pub budget_exhausted: bool,
    /// The run's metrics under `repair.*` (rounds, accept/reject/stale
    /// counts, round-latency histogram, net cost) merged with the delta
    /// stream's own telemetry under `stream.*`. The plan layer has two:
    /// `repair.plan_us`, a histogram with one sample per round timing
    /// its planning step, and `repair.plan.class_reads`, the number of
    /// violation classes read (`ValidatorStream::cfd_violation_class`
    /// calls), at most one per `(CFD, witness)` per round.
    pub metrics: MetricsSnapshot,
    /// Advisory findings about the run itself — today
    /// [`SigmaLint::SuspectMajority`]: every accepted edit of one key
    /// class converged on a single value, the shape coordinated dirt
    /// takes when it outvotes the clean data. Detection only; the
    /// applied fixes are unchanged.
    pub lints: Vec<SigmaLint>,
}

impl RepairReport {
    /// Number of fixes kept.
    pub fn fixes_applied(&self) -> usize {
        self.log.applied.len()
    }

    /// Did the run end with zero outstanding violations?
    pub fn is_clean(&self) -> bool {
        self.residual.is_empty()
    }
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "repair: {} -> {} violation(s) in {} round(s); {} fix(es) \
             ({} cell edit(s), {} deletion(s), {} insertion(s)), cost {:.1}, \
             {} rejected, {} stale{}",
            self.initial_violations,
            self.residual.len(),
            self.log.rounds,
            self.fixes_applied(),
            self.cells_edited,
            self.tuples_deleted,
            self.tuples_inserted,
            self.total_cost,
            self.log.rejected,
            self.log.stale,
            if self.budget_exhausted {
                " (budget exhausted)"
            } else {
                ""
            },
        )
    }
}
