//! Static analysis of Σ: is a dependency set satisfiable *at all*, and
//! if not, exactly which dependencies conflict?
//!
//! BravoFM07's headline results are static analyses: consistency of a
//! CFD set is NP-complete over finite domains, and adding CINDs makes
//! it undecidable (Theorem 4.2). This crate turns those theorems into
//! an engineering contract:
//!
//! - **CFD-only Σ** is decided *exactly* by the SAT decider of
//!   `condep_cfd::consistency`, over a single hypothetical tuple per
//!   relation, with a satisfying witness database on `Sat` and a
//!   **minimal** unsat core (deletion-shrunk; every proper subset
//!   satisfiable) on `Unsat`.
//! - **CFD + CIND Σ** runs a budgeted chase that closes CIND
//!   obligations one tuple per relation; when the budget trips or the
//!   shape outgrows the search, the verdict is [`SigmaVerdict::Unknown`]
//!   — sound, never wrong.
//! - A [`SigmaLint`] catalogue reports advisory findings (conflicting
//!   rows on a key group, unreachable patterns, impossible CIND
//!   conditions) independent of the verdict.
//!
//! The analyzer is dependency-light (model + cfd + core only) so every
//! layer above — validate, discover, repair, bench — can gate on it
//! without cycles.

#![warn(missing_docs)]

mod chase;
mod lint;

pub use lint::SigmaLint;

use condep_cfd::consistency::{relation_consistency_pinned, RelationVerdict};
use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{AttrId, Database, RelId, Schema, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Conflict budget per SAT solve. It decides every tiny-domain Σ
/// exactly and keeps worst-case work bounded on adversarial input.
pub const MAX_CONFLICTS: Option<u64> = Some(50_000);

/// Maximum chase passes when CINDs are present.
const CHASE_STEPS: usize = 64;

/// Cap on pairwise row comparisons in the lint scan.
const LINT_PAIR_CAP: usize = 100_000;

/// A concrete database satisfying Σ (nonempty; one tuple per occupied
/// relation).
#[derive(Debug, Clone)]
pub struct Witness {
    /// The satisfying instance.
    pub db: Database,
}

/// The Σ indices (into the analyzed CFD slice) of a minimal
/// unsatisfiable subset: the named CFDs are jointly unsatisfiable and
/// dropping any one of them restores satisfiability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsatCore {
    /// Sorted CFD indices in conflict.
    pub cfds: Vec<usize>,
}

/// Why the analyzer could not decide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetTrip {
    /// Human-readable budget that tripped.
    pub reason: &'static str,
}

/// Three-valued consistency verdict for a Σ.
#[derive(Debug, Clone)]
pub enum SigmaVerdict {
    /// Σ is consistent; the witness satisfies every dependency.
    Sat(Witness),
    /// Σ is inconsistent; the core names a minimal conflict.
    Unsat(UnsatCore),
    /// Undecided within budget (only possible when CINDs are present
    /// or a conflict budget trips) — sound: never claims Sat or Unsat.
    Unknown(BudgetTrip),
}

impl SigmaVerdict {
    /// `true` for [`SigmaVerdict::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SigmaVerdict::Sat(_))
    }

    /// `true` for [`SigmaVerdict::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SigmaVerdict::Unsat(_))
    }

    /// The unsat core, when the verdict is `Unsat`.
    pub fn core(&self) -> Option<&UnsatCore> {
        match self {
            SigmaVerdict::Unsat(core) => Some(core),
            _ => None,
        }
    }
}

/// The result of a full Σ analysis: a verdict plus advisory lints.
#[derive(Debug, Clone)]
pub struct SigmaAnalysis {
    /// Consistency verdict.
    pub verdict: SigmaVerdict,
    /// Advisory findings (index-addressed into the analyzed slices).
    pub lints: Vec<SigmaLint>,
}

impl SigmaAnalysis {
    /// Translate every CFD/CIND index in the analysis through the
    /// given maps (`map[analyzed] = original`). Used when the analyzed
    /// slices were compacted (e.g. retired dependencies filtered out)
    /// so reports land in the caller's original Σ numbering.
    pub fn remap(mut self, cfd_map: &[usize], cind_map: &[usize]) -> SigmaAnalysis {
        if let SigmaVerdict::Unsat(core) = &mut self.verdict {
            for i in core.cfds.iter_mut() {
                *i = cfd_map[*i];
            }
            core.cfds.sort_unstable();
        }
        for lint in self.lints.iter_mut() {
            lint.remap(cfd_map, cind_map);
        }
        self
    }
}

/// Error returned by pre-flight gates (`Validator::strict`,
/// `repair()`): Σ itself is unsatisfiable, so validating or repairing
/// against it is meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsatSigma {
    /// Minimal unsat core in the caller's Σ numbering.
    pub core: Vec<usize>,
}

impl fmt::Display for UnsatSigma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sigma is unsatisfiable: no nonempty database can satisfy it (minimal conflicting \
             CFD indices: {:?})",
            self.core
        )
    }
}

impl std::error::Error for UnsatSigma {}

/// Analyze a Σ: decide consistency (exactly for CFD-only input, via a
/// budgeted chase when CINDs are present) and collect the lint
/// catalogue.
///
/// A Σ is *consistent* iff some **nonempty** database satisfies every
/// dependency; with CFDs only, iff some relation's CFDs pass
/// `condep_cfd::consistency::relation_consistency`. Verdict contract:
///
/// - `Sat(w)`: `w.db` is nonempty and satisfies every CFD and CIND
///   (verified before returning).
/// - `Unsat(core)`: **no** nonempty database satisfies Σ; `core` is a
///   minimal set of CFD indices that is already unsatisfiable on its
///   own.
/// - `Unknown`: the budget tripped or the CIND chase gave up; nothing
///   is claimed either way.
pub fn analyze(schema: &Arc<Schema>, cfds: &[NormalCfd], cinds: &[NormalCind]) -> SigmaAnalysis {
    let lints = lint::lint_sigma(schema, cfds, cinds);

    // Fresh witness values should dodge CIND source conditions where
    // possible, so a CFD witness doesn't trigger obligations it could
    // have avoided.
    let mut avoid: BTreeMap<RelId, Vec<(AttrId, Value)>> = BTreeMap::new();
    for cind in cinds {
        avoid
            .entry(cind.lhs_rel())
            .or_default()
            .extend(cind.xp().iter().cloned());
    }

    // Per-relation CFD consistency. A CFD set over one relation is
    // satisfiable iff a single tuple satisfies it (CFD satisfaction is
    // closed under subinstance), and Σ is satisfiable by a nonempty
    // database iff SOME relation admits a witness with every other
    // relation empty — modulo CIND obligations, handled by the chase.
    let empty: Vec<(AttrId, Value)> = Vec::new();
    let mut witnesses = Vec::new();
    let mut cores: Vec<usize> = Vec::new();
    let mut any_unknown = false;
    for (rel, _) in schema.iter() {
        let group: Vec<(usize, &NormalCfd)> = cfds
            .iter()
            .enumerate()
            .filter(|(_, c)| c.rel() == rel)
            .collect();
        let avoid_rel = avoid.get(&rel).unwrap_or(&empty);
        match relation_consistency_pinned(schema, rel, &group, &[], avoid_rel, MAX_CONFLICTS) {
            RelationVerdict::Sat(t) => witnesses.push((rel, t)),
            RelationVerdict::Unsat(core) => cores.extend(core),
            RelationVerdict::Unknown => any_unknown = true,
        }
    }

    if witnesses.is_empty() {
        // Every relation's CFD set is unsatisfiable even in isolation,
        // so no nonempty database exists regardless of CINDs (any
        // nonempty db has a nonempty relation, and CFD satisfaction is
        // closed under subinstance). The union of per-relation minimal
        // cores stays minimal: each CFD constrains exactly one
        // relation, so dropping any core member frees its relation.
        let verdict = if any_unknown {
            SigmaVerdict::Unknown(BudgetTrip {
                reason: "sat conflict budget exhausted",
            })
        } else {
            cores.sort_unstable();
            SigmaVerdict::Unsat(UnsatCore { cfds: cores })
        };
        return SigmaAnalysis { verdict, lints };
    }

    if cinds.is_empty() {
        // One witness tuple in one relation, everything else empty.
        let (rel, t) = witnesses.swap_remove(0);
        let mut db = Database::empty(Arc::clone(schema));
        db.insert(rel, t).expect("witness tuple conforms to schema");
        debug_assert!(condep_cfd::satisfy::satisfies_all(&db, cfds));
        return SigmaAnalysis {
            verdict: SigmaVerdict::Sat(Witness { db }),
            lints,
        };
    }

    // CINDs present: chase obligations from each CFD-satisfiable
    // relation until one attempt closes.
    for (rel, t) in &witnesses {
        if let Some(db) = chase::chase(schema, cfds, cinds, *rel, t, &avoid) {
            return SigmaAnalysis {
                verdict: SigmaVerdict::Sat(Witness { db }),
                lints,
            };
        }
    }
    SigmaAnalysis {
        verdict: SigmaVerdict::Unknown(BudgetTrip {
            reason: "cind chase gave up within budget",
        }),
        lints,
    }
}
