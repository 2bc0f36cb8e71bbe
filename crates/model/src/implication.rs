//! Shared vocabulary for the workspace's implication engines.
//!
//! Both implication procedures — the CFD checker in `condep-cfd` and the
//! CIND chase game in `condep-core` — are budgeted searches that can end
//! without a verdict. They historically each carried their own verdict
//! enum and budget struct; the types live here (the one crate both
//! depend on) so that callers mixing the two engines (cover computation,
//! discovery ranking) speak a single configuration language.

/// Verdict of an implication check.
///
/// Budget-limited procedures return [`Implication::Unknown`] when the
/// search space is exhausted before a verdict; soundness-critical
/// consumers (cover minimization, discovery dedup) must treat `Unknown`
/// as "keep the dependency".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Implication {
    /// `Σ |= φ`.
    Implied,
    /// A counterexample (construction) exists.
    NotImplied,
    /// Budget exhausted before a verdict.
    Unknown,
}

/// Unified budgets for the implication procedures.
///
/// One struct covers both engines; each reads only the fields relevant
/// to its search:
///
/// * `max_conflicts` — the CFD decider
///   (`condep_cfd::implication::implies`): the SAT conflict budget of
///   its two-tuple encoding. `None` means unbounded.
/// * `max_states` / `max_initial_assignments` — CIND chase game
///   (`condep_core::implication::implies`): caps on abstract tuples
///   explored per game and on initial finite-domain assignments.
#[derive(Clone, Copy, Debug)]
pub struct ImplicationConfig {
    /// SAT conflict budget of the CFD decider; `None` = unbounded.
    pub max_conflicts: Option<u64>,
    /// Cap on distinct abstract tuples explored per CIND chase game.
    pub max_states: usize,
    /// Cap on initial assignments of the CIND game's finite fields.
    pub max_initial_assignments: u64,
}

impl Default for ImplicationConfig {
    /// The CFD conflict budget matches the Σ analyzer's
    /// (`condep_analyze::MAX_CONFLICTS`).
    fn default() -> Self {
        ImplicationConfig {
            max_conflicts: Some(50_000),
            max_states: 200_000,
            max_initial_assignments: 4_096,
        }
    }
}

impl ImplicationConfig {
    /// No budget at all: every check runs to a definite verdict (or
    /// forever — callers must know their inputs terminate).
    pub fn unbounded() -> Self {
        ImplicationConfig {
            max_conflicts: None,
            max_states: usize::MAX,
            max_initial_assignments: u64::MAX,
        }
    }
}
