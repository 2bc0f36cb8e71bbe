//! The batched Σ-validator.

use crate::cover::{canonical_pattern, CoverRole, CoverStats, SigmaCover};
use condep_analyze::{SigmaAnalysis, SigmaVerdict, UnsatSigma};
use condep_cfd::{CfdViolation, NormalCfd};
use condep_core::{CindViolation, NormalCind};
use condep_model::fxhash::FxBuildHasher;
use condep_model::{
    AttrId, Database, Dict, RelId, Relation, Schema, SymIndex, SymValue, Tuple, Value,
};
use condep_telemetry::{Export, MetricsSnapshot, Stopwatch};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// One original CFD carried by a compiled member: its index in the
/// caller's Σ plus its own LHS pattern (aligned with the group's sorted
/// attribute order). The member's probe pattern subsumes every cover's
/// pattern, so a cover's violations are exactly the member's violations
/// restricted to key-groups matching the cover's pattern — the filter
/// every emission site re-evaluates on the key in hand.
#[derive(Clone, Debug)]
pub(crate) struct CfdCover {
    /// Index into [`Validator::cfds`].
    pub(crate) idx: usize,
    /// This original's own LHS pattern cells (`None` = wildcard).
    pub(crate) pattern: Vec<Option<Value>>,
}

/// One compiled tableau row of the suite, re-expressed against its
/// group's canonical (sorted) LHS attribute order. After cover
/// compilation a member may carry several original CFDs ([`CfdCover`]);
/// `covers[0]` is always the representative, whose pattern is the
/// member's probe: the most general LHS pattern among `covers`.
#[derive(Clone, Debug)]
pub(crate) struct CfdMember {
    /// The RHS attribute `A`.
    pub(crate) rhs: AttrId,
    /// The RHS pattern: `Some(c)` for a constant, `None` for `_`.
    pub(crate) rhs_const: Option<Value>,
    /// The original CFDs this member evaluates (representative first).
    pub(crate) covers: Vec<CfdCover>,
}

/// All CFDs sharing one `(relation, LHS attribute set)` — evaluable in a
/// single group-by pass over one shared index.
#[derive(Clone, Debug)]
pub(crate) struct CfdGroup {
    pub(crate) rel: RelId,
    /// Canonical (sorted) LHS attribute list; the shared index key.
    pub(crate) attrs: Vec<AttrId>,
    pub(crate) members: Vec<CfdMember>,
}

/// One CIND of the suite, re-expressed against its group's canonical
/// target key order.
#[derive(Clone, Debug)]
pub(crate) struct CindMember {
    /// Index into [`Validator::cinds`].
    pub(crate) idx: usize,
    /// Source attributes permuted in lock-step with the group's sorted
    /// `Y` (so `t1[x_perm]` probes the shared index directly).
    pub(crate) x_perm: Vec<AttrId>,
    /// Original CIND indices this member evaluates (self first; the
    /// rest are payload-identical duplicates merged by the cover pass —
    /// every violation fans out to all of them verbatim).
    pub(crate) covers: Vec<usize>,
}

/// All CINDs sharing one `(target relation, Y attribute set, Yp
/// pattern)` — they share a single filtered target index regardless of
/// which source relations probe it.
#[derive(Clone, Debug)]
pub(crate) struct CindGroup {
    pub(crate) rhs_rel: RelId,
    /// Canonical (sorted) target key attributes.
    pub(crate) y: Vec<AttrId>,
    /// The shared RHS pattern constants, sorted by attribute.
    pub(crate) yp: Vec<(AttrId, Value)>,
    pub(crate) members: Vec<CindMember>,
}

/// A CIND group's identity: `(target relation, sorted Y, sorted Yp)`.
type CindGroupKey = (RelId, Vec<AttrId>, Vec<(AttrId, Value)>);

impl CindGroup {
    fn new((rhs_rel, y, yp): CindGroupKey) -> Self {
        CindGroup {
            rhs_rel,
            y,
            yp,
            members: Vec::new(),
        }
    }
}

/// Compiles CFD `idx` of `cfds` into a member probing its own canonical
/// pattern (sorted LHS, pattern permuted in lock-step), with itself as
/// the representative cover followed by `covered`. Returns the group's
/// sorted LHS attributes alongside — the one member compile of
/// [`Validator::with_cover`] and [`Validator::add_dependencies`].
fn compile_cfd(cfds: &[NormalCfd], idx: usize, covered: &[usize]) -> (Vec<AttrId>, CfdMember) {
    let cfd = &cfds[idx];
    let (attrs, pattern) = canonical_pattern(cfd);
    let mut covers = Vec::with_capacity(1 + covered.len());
    covers.push(CfdCover { idx, pattern });
    for &c in covered {
        let (c_attrs, c_pattern) = canonical_pattern(&cfds[c]);
        debug_assert_eq!(c_attrs, attrs, "cover merged across LHS sets");
        debug_assert!(
            crate::cover::subsumes(&covers[0].pattern, &c_pattern),
            "representative pattern must subsume its covers"
        );
        covers.push(CfdCover {
            idx: c,
            pattern: c_pattern,
        });
    }
    let member = CfdMember {
        rhs: cfd.rhs(),
        rhs_const: cfd.rhs_pat().as_const().cloned(),
        covers,
    };
    (attrs, member)
}

/// Canonicalizes CIND `idx` on its target side — `Y` sorted, `X`
/// permuted in lock-step so probes align with the shared index, `Yp`
/// sorted by attribute — into its group key and a member evaluating
/// `covers` (itself first).
fn compile_cind(cind: &NormalCind, idx: usize, covers: Vec<usize>) -> (CindGroupKey, CindMember) {
    let mut cols: Vec<(AttrId, AttrId)> = cind
        .y()
        .iter()
        .copied()
        .zip(cind.x().iter().copied())
        .collect();
    cols.sort_by_key(|(y, _)| *y);
    let (y, x_perm): (Vec<AttrId>, Vec<AttrId>) = cols.into_iter().unzip();
    let mut yp = cind.yp().to_vec();
    yp.sort_by_key(|&(a, _)| a);
    let member = CindMember {
        idx,
        x_perm,
        covers,
    };
    ((cind.rhs_rel(), y, yp), member)
}

/// Everything the batched sweep found, tagged with constraint indices
/// (into [`Validator::cfds`] / [`Validator::cinds`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SigmaReport {
    /// CFD violations as `(cfd index, violation)`.
    pub cfd: Vec<(usize, CfdViolation)>,
    /// CIND violations as `(cind index, violation)`.
    pub cind: Vec<(usize, CindViolation)>,
}

impl SigmaReport {
    /// Total number of violations.
    pub fn len(&self) -> usize {
        self.cfd.len() + self.cind.len()
    }

    /// Whether the database was clean.
    pub fn is_empty(&self) -> bool {
        self.cfd.is_empty() && self.cind.is_empty()
    }

    /// Sorts violations into the canonical report order (by constraint,
    /// then by witness positions) — identical to running the per-CFD
    /// sorted detectors constraint by constraint.
    pub fn sort(&mut self) {
        self.cfd.sort_by_key(|(i, v)| (*i, v.sort_key()));
        self.cind.sort_by_key(|(i, v)| (*i, v.tuple));
    }
}

/// Structural bookkeeping of one [`Validator::retire_dependencies`]
/// call — everything a [`crate::ValidatorStream`] mirror needs to keep
/// its per-member side arrays aligned with the recompiled groups.
#[derive(Clone, Debug, Default)]
pub struct RetireLog {
    /// CFD indices actually retired by the call (deduplicated,
    /// ascending; already-retired indices are skipped).
    pub cfds: Vec<usize>,
    /// CIND indices actually retired (deduplicated, ascending).
    pub cinds: Vec<usize>,
    /// `(group slot, member slot)` of each CIND member removal, in the
    /// exact order performed — member slots shift with every removal,
    /// so mirrors must replay these in order.
    pub(crate) cind_members_removed: Vec<(usize, usize)>,
}

impl RetireLog {
    /// Did the call change anything?
    pub fn is_empty(&self) -> bool {
        self.cfds.is_empty() && self.cinds.is_empty()
    }
}

/// A retire call named an index the suite never assigned; the call
/// retired nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownDependency {
    /// No CFD carries this index.
    Cfd(usize),
    /// No CIND carries this index.
    Cind(usize),
}

impl fmt::Display for UnknownDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownDependency::Cfd(i) => write!(f, "no CFD has index {i}"),
            UnknownDependency::Cind(i) => write!(f, "no CIND has index {i}"),
        }
    }
}

impl std::error::Error for UnknownDependency {}

/// A compiled constraint suite: Σ grouped for batched evaluation.
///
/// Construction groups the CFDs by `(relation, LHS attribute set)` and
/// the CINDs by `(target relation, Y set, Yp pattern)`; validation then
/// builds **one** group-by index per group — instead of one per
/// constraint — and sweeps independent groups in parallel.
///
/// The suite is not frozen at compile time:
/// [`Validator::add_dependencies`] splices new constraints into their
/// `(relation, LHS)` / target groups and
/// [`Validator::retire_dependencies`] surgically removes constraints
/// from theirs — both recompile only the affected groups, never the
/// whole suite.
#[derive(Clone, Debug)]
pub struct Validator {
    cfds: Vec<NormalCfd>,
    cinds: Vec<NormalCind>,
    cfd_groups: Vec<CfdGroup>,
    cind_groups: Vec<CindGroup>,
    /// Per CFD index: its `(group slot, member slot, cover slot)` in
    /// `cfd_groups`. Dependencies dropped by a minimal-tier cover have
    /// no slot (all-`usize::MAX` sentinel), as do retired ones.
    cfd_slots: Vec<(usize, usize, usize)>,
    /// Per constraint: has it been retired? Retired constraints keep
    /// their index (violation indices stay stable) but no group member
    /// evaluates them any more.
    retired_cfds: Vec<bool>,
    retired_cinds: Vec<bool>,
    /// What the cover pass merged/dropped at compile time.
    cover_stats: CoverStats,
    /// How long compilation took and what it produced.
    compile_stats: CompileStats,
}

/// Wall-clock and shape facts of one suite compilation
/// ([`Validator::compile_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Σ-cover pass time, µs. Zero when the caller supplied the cover
    /// ([`Validator::with_cover`] / [`Validator::new_uncovered`]).
    pub cover_us: u64,
    /// Group-compilation time, µs (grouping, canonicalization, slots).
    pub compile_us: u64,
    /// Compiled `(relation, LHS)` CFD groups.
    pub cfd_groups: usize,
    /// Compiled `(target relation, Y, Yp)` CIND groups.
    pub cind_groups: usize,
    /// Compiled CFD tableau-row members across all groups.
    pub cfd_members: usize,
    /// Compiled CIND members across all groups.
    pub cind_members: usize,
}

impl Export for CompileStats {
    fn export(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("cover_us"), self.cover_us);
        out.counter(k("compile_us"), self.compile_us);
        out.counter(k("cfd_groups"), self.cfd_groups as u64);
        out.counter(k("cind_groups"), self.cind_groups as u64);
        out.counter(k("cfd_members"), self.cfd_members as u64);
        out.counter(k("cind_members"), self.cind_members as u64);
    }
}

/// Databases below this tuple count are validated on the calling thread;
/// spawning threads costs more than the sweep itself.
const PARALLEL_THRESHOLD: usize = 4096;

impl Validator {
    /// Compiles a suite from normal-form constraints, running the
    /// violation-exact Σ cover first: subsumable tableau rows and
    /// duplicate CINDs collapse into one compiled member each, and every
    /// emission site fans violations back out to the caller's original
    /// indices — reports are byte-identical to an uncovered compile.
    pub fn new(cfds: Vec<NormalCfd>, cinds: Vec<NormalCind>) -> Self {
        let clock = Stopwatch::start();
        let cover = SigmaCover::exact(&cfds, &cinds);
        let cover_us = clock.elapsed_us();
        let mut v = Validator::with_cover(cfds, cinds, &cover);
        v.compile_stats.cover_us = cover_us;
        v
    }

    /// Compiles the suite with **no** cover pass: one member per
    /// dependency, exactly as written. The reference compiler for
    /// cover-equivalence tests and benchmarks.
    pub fn new_uncovered(cfds: Vec<NormalCfd>, cinds: Vec<NormalCind>) -> Self {
        let cover = SigmaCover::identity(cfds.len(), cinds.len());
        Validator::with_cover(cfds, cinds, &cover)
    }

    /// Compiles the suite under a caller-supplied cover. Dependencies
    /// with [`CoverRole::Implied`] are dropped entirely (no violations
    /// will ever be reported for their indices) — only sound for
    /// satisfaction-style monitoring, which is why [`Validator::new`]
    /// sticks to the exact tier.
    pub fn with_cover(cfds: Vec<NormalCfd>, cinds: Vec<NormalCind>, cover: &SigmaCover) -> Self {
        let clock = Stopwatch::start();
        assert_eq!(cover.cfd.len(), cfds.len(), "cover/Σ length mismatch");
        assert_eq!(cover.cind.len(), cinds.len(), "cover/Σ length mismatch");
        let mut cfd_index: HashMap<(RelId, Vec<AttrId>), usize, FxBuildHasher> = HashMap::default();
        let mut cfd_groups: Vec<CfdGroup> = Vec::new();
        for (idx, cfd) in cfds.iter().enumerate() {
            let CoverRole::Keep { covered } = &cover.cfd[idx] else {
                continue;
            };
            let (attrs, member) = compile_cfd(&cfds, idx, covered);
            let slot = *cfd_index
                .entry((cfd.rel(), attrs.clone()))
                .or_insert_with(|| {
                    cfd_groups.push(CfdGroup {
                        rel: cfd.rel(),
                        attrs,
                        members: Vec::new(),
                    });
                    cfd_groups.len() - 1
                });
            cfd_groups[slot].members.push(member);
        }

        let mut cind_index: HashMap<CindGroupKey, usize, FxBuildHasher> = HashMap::default();
        let mut cind_groups: Vec<CindGroup> = Vec::new();
        for (idx, cind) in cinds.iter().enumerate() {
            let CoverRole::Keep { covered } = &cover.cind[idx] else {
                continue;
            };
            let covers = std::iter::once(idx)
                .chain(covered.iter().copied())
                .collect();
            let (key, member) = compile_cind(cind, idx, covers);
            let slot = *cind_index.entry(key.clone()).or_insert_with(|| {
                cind_groups.push(CindGroup::new(key));
                cind_groups.len() - 1
            });
            cind_groups[slot].members.push(member);
        }

        const NO_SLOT: (usize, usize, usize) = (usize::MAX, usize::MAX, usize::MAX);
        let mut cfd_slots = vec![NO_SLOT; cfds.len()];
        for (gi, g) in cfd_groups.iter().enumerate() {
            for (mi, m) in g.members.iter().enumerate() {
                for (ci, c) in m.covers.iter().enumerate() {
                    cfd_slots[c.idx] = (gi, mi, ci);
                }
            }
        }

        let retired_cfds = vec![false; cfds.len()];
        let retired_cinds = vec![false; cinds.len()];
        let compile_us = clock.elapsed_us();
        let compile_stats = CompileStats {
            cover_us: 0,
            compile_us,
            cfd_groups: cfd_groups.len(),
            cind_groups: cind_groups.len(),
            cfd_members: cfd_groups.iter().map(|g| g.members.len()).sum(),
            cind_members: cind_groups.iter().map(|g| g.members.len()).sum(),
        };
        Validator {
            cfds,
            cinds,
            cfd_groups,
            cind_groups,
            cfd_slots,
            retired_cfds,
            retired_cinds,
            cover_stats: cover.stats,
            compile_stats,
        }
    }

    /// Like [`Validator::new`], but runs the full static analyzer
    /// first and **refuses** an unsatisfiable Σ: validating or
    /// repairing against a Σ no nonempty database can satisfy is
    /// meaningless. The error carries a minimal unsat core in the
    /// caller's Σ numbering. `Unknown` verdicts (possible with CINDs)
    /// are admitted — the gate only rejects *proven* inconsistency.
    pub fn strict(
        schema: &Arc<Schema>,
        cfds: Vec<NormalCfd>,
        cinds: Vec<NormalCind>,
    ) -> Result<Validator, UnsatSigma> {
        let analysis = condep_analyze::analyze(schema, &cfds, &cinds);
        if let SigmaVerdict::Unsat(core) = analysis.verdict {
            return Err(UnsatSigma { core: core.cfds });
        }
        Ok(Validator::new(cfds, cinds))
    }

    /// Appends new constraints to the suite, splicing each into its
    /// existing `(relation, LHS)` / target group (or opening a fresh
    /// group) as an uncovered singleton member — no other group is
    /// touched and no cover pass re-runs, so prior indices, slots and
    /// reports all stay valid. Returns the index ranges assigned to the
    /// new CFDs and CINDs.
    ///
    /// New members compile exactly as [`Validator::new_uncovered`]
    /// would compile them, so their violations are byte-identical to an
    /// uncovered compile of the grown suite.
    pub fn add_dependencies(
        &mut self,
        cfds: Vec<NormalCfd>,
        cinds: Vec<NormalCind>,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let cfd_start = self.cfds.len();
        let cind_start = self.cinds.len();
        for cfd in cfds {
            let idx = self.cfds.len();
            self.cfds.push(cfd);
            let (attrs, member) = compile_cfd(&self.cfds, idx, &[]);
            let rel = self.cfds[idx].rel();
            let gi = self
                .cfd_groups
                .iter()
                .position(|g| g.rel == rel && g.attrs == attrs)
                .unwrap_or_else(|| {
                    self.cfd_groups.push(CfdGroup {
                        rel,
                        attrs,
                        members: Vec::new(),
                    });
                    self.cfd_groups.len() - 1
                });
            self.cfd_slots
                .push((gi, self.cfd_groups[gi].members.len(), 0));
            self.cfd_groups[gi].members.push(member);
            self.retired_cfds.push(false);
        }
        for cind in cinds {
            let idx = self.cinds.len();
            let (key, member) = compile_cind(&cind, idx, vec![idx]);
            let gi = self
                .cind_groups
                .iter()
                .position(|g| g.rhs_rel == key.0 && g.y == key.1 && g.yp == key.2)
                .unwrap_or_else(|| {
                    self.cind_groups.push(CindGroup::new(key));
                    self.cind_groups.len() - 1
                });
            self.cind_groups[gi].members.push(member);
            self.retired_cinds.push(false);
            self.cinds.push(cind);
        }
        (cfd_start..self.cfds.len(), cind_start..self.cinds.len())
    }

    /// Retires constraints in place: their indices stay allocated (so
    /// every historical report keeps meaning) but no member evaluates
    /// them any more, and future sweeps emit nothing for them. Only the
    /// groups that carried the retired constraints are recompiled.
    ///
    /// A retired CFD that was a cover **representative** is the delicate
    /// case: `covers[0]`'s pattern is the member's probe (the pattern a
    /// tuple must match for the member to read it at all), so the
    /// surviving covers cannot keep the retired one's probe — each is
    /// re-seated as its own singleton member instead, probing with its
    /// own pattern, which is exactly the uncovered compile of that
    /// constraint. Every emission site still filters each cover by its
    /// own pattern (`BoundCfdMember::covers_at`). Already-retired
    /// indices are skipped. An index the suite never assigned is an
    /// error, found before anything is retired.
    pub fn retire_dependencies(
        &mut self,
        cfd_idxs: &[usize],
        cind_idxs: &[usize],
    ) -> Result<RetireLog, UnknownDependency> {
        if let Some(&idx) = cfd_idxs.iter().find(|&&i| i >= self.cfds.len()) {
            return Err(UnknownDependency::Cfd(idx));
        }
        if let Some(&idx) = cind_idxs.iter().find(|&&i| i >= self.cinds.len()) {
            return Err(UnknownDependency::Cind(idx));
        }
        let mut log = RetireLog::default();
        let mut cfd_idxs = cfd_idxs.to_vec();
        cfd_idxs.sort_unstable();
        cfd_idxs.dedup();
        for idx in cfd_idxs {
            if self.retired_cfds[idx] {
                continue;
            }
            self.retired_cfds[idx] = true;
            log.cfds.push(idx);
            let (gi, mi, ci) = self.cfd_slots[idx];
            if gi == usize::MAX {
                // Cover-dropped at compile time: nothing is compiled for
                // this constraint, retiring it is pure bookkeeping.
                continue;
            }
            let group = &mut self.cfd_groups[gi];
            if ci > 0 {
                group.members[mi].covers.remove(ci);
            } else {
                let removed = group.members.remove(mi);
                for c in removed.covers.into_iter().skip(1) {
                    group.members.push(CfdMember {
                        rhs: removed.rhs,
                        rhs_const: removed.rhs_const.clone(),
                        covers: vec![c],
                    });
                }
            }
            // Slots moved for every constraint sharing the group (and
            // for re-seated covers); recompute before the next lookup.
            self.recompute_cfd_slots();
        }
        let mut cind_idxs = cind_idxs.to_vec();
        cind_idxs.sort_unstable();
        cind_idxs.dedup();
        for idx in cind_idxs {
            if self.retired_cinds[idx] {
                continue;
            }
            self.retired_cinds[idx] = true;
            log.cinds.push(idx);
            let mut found = None;
            'search: for (gi, g) in self.cind_groups.iter().enumerate() {
                for (mi, m) in g.members.iter().enumerate() {
                    if let Some(ci) = m.covers.iter().position(|&c| c == idx) {
                        found = Some((gi, mi, ci));
                        break 'search;
                    }
                }
            }
            let Some((gi, mi, ci)) = found else {
                // Cover-dropped at compile time.
                continue;
            };
            let remove_member = {
                let member = &mut self.cind_groups[gi].members[mi];
                member.covers.remove(ci);
                if member.covers.is_empty() {
                    true
                } else {
                    if ci == 0 {
                        // CIND covers are payload-identical duplicates:
                        // the next one takes over as member identity
                        // with unchanged trigger/probe behavior.
                        member.idx = member.covers[0];
                    }
                    false
                }
            };
            if remove_member {
                self.cind_groups[gi].members.remove(mi);
                log.cind_members_removed.push((gi, mi));
            }
        }
        Ok(log)
    }

    /// The active (non-retired) Σ plus maps from the compacted slices
    /// back to this suite's indices.
    fn active_sigma(&self) -> (Vec<NormalCfd>, Vec<usize>, Vec<NormalCind>, Vec<usize>) {
        let mut cfds = Vec::new();
        let mut cfd_map = Vec::new();
        for (i, cfd) in self.cfds.iter().enumerate() {
            if !self.retired_cfds[i] {
                cfds.push(cfd.clone());
                cfd_map.push(i);
            }
        }
        let mut cinds = Vec::new();
        let mut cind_map = Vec::new();
        for (i, cind) in self.cinds.iter().enumerate() {
            if !self.retired_cinds[i] {
                cinds.push(cind.clone());
                cind_map.push(i);
            }
        }
        (cfds, cfd_map, cinds, cind_map)
    }

    /// Full static analysis of the active Σ against `schema`:
    /// SAT-backed consistency with a witness or a minimal unsat core,
    /// a budgeted chase when CINDs are present, and the complete lint
    /// catalogue. Indices in the result are in this suite's Σ
    /// numbering (retired dependencies are excluded from analysis).
    pub fn analysis(&self, schema: &Arc<Schema>) -> SigmaAnalysis {
        let (cfds, cfd_map, cinds, cind_map) = self.active_sigma();
        condep_analyze::analyze(schema, &cfds, &cinds).remap(&cfd_map, &cind_map)
    }

    /// Rebuilds the per-CFD slot table from the compiled groups (the
    /// same triple loop construction runs).
    fn recompute_cfd_slots(&mut self) {
        const NO_SLOT: (usize, usize, usize) = (usize::MAX, usize::MAX, usize::MAX);
        self.cfd_slots.clear();
        self.cfd_slots.resize(self.cfds.len(), NO_SLOT);
        for (gi, g) in self.cfd_groups.iter().enumerate() {
            for (mi, m) in g.members.iter().enumerate() {
                for (ci, c) in m.covers.iter().enumerate() {
                    self.cfd_slots[c.idx] = (gi, mi, ci);
                }
            }
        }
    }

    /// Has this CFD been retired? An index the suite never assigned
    /// reads as `false`: no CFD under it was retired.
    pub fn is_cfd_retired(&self, idx: usize) -> bool {
        self.retired_cfds.get(idx) == Some(&true)
    }

    /// Has this CIND been retired? An index the suite never assigned
    /// reads as `false`: no CIND under it was retired.
    pub fn is_cind_retired(&self, idx: usize) -> bool {
        self.retired_cinds.get(idx) == Some(&true)
    }

    /// What the compile-time cover pass merged/dropped.
    pub fn cover_stats(&self) -> CoverStats {
        self.cover_stats
    }

    /// How long compilation took and what shape it produced.
    pub fn compile_stats(&self) -> CompileStats {
        self.compile_stats
    }

    /// Number of compiled CFD tableau-row members (≤ the number of CFDs
    /// whenever the cover pass merged anything).
    pub fn compiled_cfd_members(&self) -> usize {
        self.cfd_groups.iter().map(|g| g.members.len()).sum()
    }

    /// The compiled CFDs (violation indices refer to this order).
    pub fn cfds(&self) -> &[NormalCfd] {
        &self.cfds
    }

    /// The compiled CINDs (violation indices refer to this order).
    pub fn cinds(&self) -> &[NormalCind] {
        &self.cinds
    }

    /// Number of shared `(relation, LHS)` / target-index groups — the
    /// count of group-by passes a sweep performs.
    pub fn group_count(&self) -> usize {
        self.cfd_groups.len() + self.cind_groups.len()
    }

    pub(crate) fn cfd_groups(&self) -> &[CfdGroup] {
        &self.cfd_groups
    }

    /// The `(group slot, member slot, cover slot)` of one compiled CFD;
    /// `None` when no member evaluates it (cover-dropped, retired or
    /// never assigned).
    pub(crate) fn cfd_slot(&self, idx: usize) -> Option<(usize, usize, usize)> {
        self.cfd_slots
            .get(idx)
            .copied()
            .filter(|s| s.0 != usize::MAX)
    }

    pub(crate) fn cind_groups(&self) -> &[CindGroup] {
        &self.cind_groups
    }

    /// Per relation, the sorted attributes the compiled groups read:
    /// every group's key attributes, member RHS cells, CIND source and
    /// target columns and CIND Xp/Yp condition columns — the layout of
    /// the row cache ([`Validator::row_cache`]).
    pub(crate) fn sym_layout(&self, n_rels: usize) -> Vec<Vec<AttrId>> {
        let mut sets: Vec<BTreeSet<AttrId>> = (0..n_rels).map(|_| BTreeSet::new()).collect();
        for g in &self.cfd_groups {
            sets[g.rel.index()].extend(g.attrs.iter().copied());
            sets[g.rel.index()].extend(g.members.iter().map(|m| m.rhs));
        }
        for g in &self.cind_groups {
            sets[g.rhs_rel.index()].extend(g.y.iter().copied());
            sets[g.rhs_rel.index()].extend(g.yp.iter().map(|(a, _)| *a));
            for m in &g.members {
                let cind = &self.cinds[m.idx];
                let source = &mut sets[cind.lhs_rel().index()];
                source.extend(m.x_perm.iter().copied());
                source.extend(cind.xp().iter().map(|(a, _)| *a));
            }
        }
        sets.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// Finds every violation of Σ in `db` (unsorted; see
    /// [`SigmaReport::sort`] for the canonical order).
    pub fn validate(&self, db: &Database) -> SigmaReport {
        self.sweep(db)
    }

    /// [`Validator::validate`] followed by [`SigmaReport::sort`].
    pub fn validate_sorted(&self, db: &Database) -> SigmaReport {
        let mut report = self.validate(db);
        report.sort();
        report
    }

    /// Symbolizes the columns Σ reads ([`Validator::sym_layout`]) of
    /// every tuple of `db` through a fresh dictionary: the layout, the
    /// dictionary and the row cache ([`cache_rows`]) of a seed build,
    /// which the batch sweep drops and a stream keeps.
    pub(crate) fn row_cache(&self, db: &Database) -> (Vec<Vec<AttrId>>, Dict, Vec<Vec<SymValue>>) {
        let layout = self.sym_layout(db.schema().len());
        let mut dict = Dict::new();
        let rows = db
            .iter()
            .map(|(r, inst)| cache_rows(&mut dict, inst, &layout[r.index()]))
            .collect();
        (layout, dict, rows)
    }

    /// The batch sweep: the stream's seed build without keep. Runs every
    /// group task over a fresh row cache and Σ bound to it, and drops
    /// the indexes, the cache and its dictionary.
    fn sweep(&self, db: &Database) -> SigmaReport {
        let mut report = SigmaReport::default();
        if self.group_count() == 0 {
            return report;
        }
        let (layout, mut dict, rows) = self.row_cache(db);
        let sigma = BoundSigma::bind(self, &layout, &mut dict);
        let cells = Cells {
            rows: &rows,
            layout: &layout,
        };
        for group in self.build_groups(db, &cells, &sigma, false) {
            report.cfd.extend(group.cfd);
            report.cind.extend(group.cind);
        }
        report
    }

    /// Runs the group task of every compiled group (CFD groups first,
    /// then CIND groups) over symbolized `cells` and Σ bound to them,
    /// striped across threads when the instance is large enough to pay
    /// for them, and returns the results in group order. With `keep`,
    /// every task hands its indexes back.
    pub(crate) fn build_groups(
        &self,
        db: &Database,
        cells: &Cells<'_>,
        sigma: &BoundSigma,
        keep: bool,
    ) -> Vec<GroupBuild> {
        let n_tasks = self.group_count();
        let threads = if db.total_tuples() < PARALLEL_THRESHOLD {
            1
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(n_tasks.max(1))
        };
        let run_task = |task: usize| -> GroupBuild {
            match self.cfd_groups.get(task) {
                Some(g) => self.run_cfd_group(g, &sigma.cfd[task], db, cells, keep),
                None => {
                    let gi = task - self.cfd_groups.len();
                    let g = &self.cind_groups[gi];
                    self.run_cind_group(g, &sigma.cind[gi], db, cells, keep)
                }
            }
        };
        if threads <= 1 {
            return (0..n_tasks).map(run_task).collect();
        }
        // Worker `w` runs tasks `w, w + threads, …`; the calling thread
        // is worker 0.
        let stripe = |worker: usize| -> Vec<(usize, GroupBuild)> {
            (worker..n_tasks)
                .step_by(threads)
                .map(|task| (task, run_task(task)))
                .collect()
        };
        let mut ordered = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|worker| scope.spawn(move || stripe(worker)))
                .collect();
            let mut all = stripe(0);
            for h in handles {
                all.extend(h.join().expect("validation worker panicked"));
            }
            all
        });
        // Restore group order: the report is deterministic and a kept
        // index must land in its own group's slot.
        ordered.sort_by_key(|(task, _)| *task);
        ordered.into_iter().map(|(_, r)| r).collect()
    }

    /// The CFD group task: builds the group's index over the cached rows
    /// and reads every member's violations off it.
    fn run_cfd_group(
        &self,
        group: &CfdGroup,
        bound: &BoundCfdGroup,
        db: &Database,
        cells: &Cells<'_>,
        keep: bool,
    ) -> GroupBuild {
        let mut out = GroupBuild::default();
        let inst = db.relation(group.rel);
        if !keep && (inst.is_empty() || group.members.is_empty()) {
            return out;
        }
        let idx = cells.index(group.rel, inst.len(), &bound.key, |_| true);
        let rows = cells.of(group.rel);
        self.read_cfd_index(&bound.members, &idx, inst, rows, &mut out.cfd);
        if keep {
            out.index = Some(idx);
        }
        out
    }

    /// Reads `members`' violations off their group's index over `inst`,
    /// whose cached rows are `rows`, one key-group at a time — the one
    /// read path of the sweep, the seed build and the stream's splices.
    pub(crate) fn read_cfd_index(
        &self,
        members: &[BoundCfdMember],
        idx: &SymIndex,
        inst: &Relation,
        rows: Rows<'_>,
        out: &mut Vec<(usize, CfdViolation)>,
    ) {
        // Wildcard-RHS conflict witnesses per (key-group, RHS slot),
        // shared by every member asking about the same column.
        let mut pair_cache: HashMap<u32, Vec<(usize, usize)>, FxBuildHasher> = HashMap::default();
        for (key, positions) in idx.groups() {
            pair_cache.clear();
            for m in members {
                if !m.matches(key) {
                    continue;
                }
                if m.rhs_const.is_some() {
                    self.push_single_tuple_violations(m, key, positions, inst, rows, out);
                    continue;
                }
                let pairs = pair_cache
                    .entry(m.rhs)
                    .or_insert_with(|| wildcard_pairs(positions, rows, m.rhs));
                for cidx in m.covers_at(key) {
                    out.extend(
                        pairs
                            .iter()
                            .map(|&(left, right)| (cidx, CfdViolation::Pair { left, right })),
                    );
                }
            }
        }
    }

    /// Emits `SingleTuple` violations for a constant-RHS member over one
    /// key-group, fanned out to every cover whose own pattern matches
    /// the key.
    fn push_single_tuple_violations(
        &self,
        m: &BoundCfdMember,
        key: &[SymValue],
        positions: &[u32],
        inst: &Relation,
        rows: Rows<'_>,
        out: &mut Vec<(usize, CfdViolation)>,
    ) {
        for &pos in positions {
            if Some(rows.at(pos as usize, m.rhs)) != m.rhs_const {
                let t = inst.get(pos as usize).expect("indexed position valid");
                let violation = self.single_tuple(m, pos as usize, t);
                for cidx in m.covers_at(key) {
                    out.push((cidx, violation.clone()));
                }
            }
        }
    }

    /// The `SingleTuple` violation that constant-RHS member `m` reports
    /// for tuple `t` at position `pos`.
    pub(crate) fn single_tuple(&self, m: &BoundCfdMember, pos: usize, t: &Tuple) -> CfdViolation {
        let rep = &self.cfds[m.covers[0].0];
        CfdViolation::SingleTuple {
            tuple: pos,
            found: t[rep.rhs()].clone(),
            expected: rep.rhs_pat().as_const().expect("constant RHS").clone(),
        }
    }

    /// The CIND group task: builds the group's shared Yp-filtered target
    /// index over the cached rows and probes it with every triggered
    /// source tuple. A kept build also returns each member's
    /// triggered-source index, keyed by `x_perm`.
    fn run_cind_group(
        &self,
        group: &CindGroup,
        bound: &BoundCindGroup,
        db: &Database,
        cells: &Cells<'_>,
        keep: bool,
    ) -> GroupBuild {
        let mut out = GroupBuild::default();
        // A group whose members were all retired keeps its slot (stream
        // index tables stay aligned) but a sweep must not pay for a
        // target index build.
        if !keep && group.members.is_empty() {
            return out;
        }
        let idx = cind_target_index(group, bound, db, cells);
        for (m, bm) in group.members.iter().zip(&bound.members) {
            if keep {
                out.sources.push(self.cind_source_index(m, bm, db, cells));
            }
            self.read_cind_member(m, bm, db, cells, &idx, &mut out.cind);
        }
        if keep {
            out.index = Some(idx);
        }
        out
    }

    /// A CIND member's triggered source tuples, indexed by `x_perm` —
    /// the reverse index the stream keeps per member.
    pub(crate) fn cind_source_index(
        &self,
        m: &CindMember,
        bound: &BoundCindMember,
        db: &Database,
        cells: &Cells<'_>,
    ) -> SymIndex {
        let rel = self.cinds[m.idx].lhs_rel();
        let rows = db.relation(rel).len();
        cells.index(rel, rows, &bound.x, |row| holds(&bound.xp, row))
    }

    /// Probes a CIND group's target index with every source tuple the
    /// member triggers, pushing each miss to all of the member's covers.
    pub(crate) fn read_cind_member(
        &self,
        m: &CindMember,
        bound: &BoundCindMember,
        db: &Database,
        cells: &Cells<'_>,
        target: &SymIndex,
        out: &mut Vec<(usize, CindViolation)>,
    ) {
        let cind = &self.cinds[m.idx];
        let source = db.relation(cind.lhs_rel());
        let rows = cells.of(cind.lhs_rel());
        let mut key_buf: Vec<SymValue> = Vec::with_capacity(bound.x.len());
        for pos in 0..source.len() {
            let row = rows.row(pos);
            if !holds(&bound.xp, row) {
                continue;
            }
            key_from_slots(row, &bound.x, &mut key_buf);
            if !target.contains_key(&key_buf) {
                let t1 = source.get(pos).expect("position in range");
                let violation = CindViolation {
                    tuple: pos,
                    key: t1.project(cind.x()),
                };
                for &c in &m.covers {
                    out.push((c, violation.clone()));
                }
            }
        }
    }
}

/// A CIND group's Yp-filtered target index, keyed by the sorted `Y`. A
/// Yp constant no target tuple holds leaves the index empty (every
/// triggered source tuple then violates, as it must).
pub(crate) fn cind_target_index(
    group: &CindGroup,
    bound: &BoundCindGroup,
    db: &Database,
    cells: &Cells<'_>,
) -> SymIndex {
    let rows = db.relation(group.rhs_rel).len();
    cells.index(group.rhs_rel, rows, &bound.y, |row| holds(&bound.yp, row))
}

/// The compiled Σ bound to one row cache layout and its dictionary:
/// every slot and constant that a group task or a stream mutation
/// reads, translated once. Groups and members are parallel to the
/// validator's. Each string constant is pinned in the dictionary, so a
/// constant that no cached cell holds yet already has the symbol that a
/// later arrival will get, and every member, cover, constant-RHS and
/// condition check is a symbol compare on a cached row.
#[derive(Clone, Debug)]
pub(crate) struct BoundSigma {
    pub(crate) cfd: Vec<BoundCfdGroup>,
    pub(crate) cind: Vec<BoundCindGroup>,
}

/// A CFD group, bound.
#[derive(Clone, Debug)]
pub(crate) struct BoundCfdGroup {
    /// Each sorted key attribute's slot in its relation's cached row.
    pub(crate) key: Box<[u32]>,
    pub(crate) members: Vec<BoundCfdMember>,
}

/// A CFD member, bound.
#[derive(Clone, Debug)]
pub(crate) struct BoundCfdMember {
    /// The RHS attribute's slot.
    pub(crate) rhs: u32,
    /// The RHS constant's symbol; `None` for `_`.
    pub(crate) rhs_const: Option<SymValue>,
    /// Each cover's original index and its own pattern's symbols,
    /// aligned with the key (`None` = wildcard); `covers[0]`'s pattern
    /// is the member's probe.
    pub(crate) covers: Vec<(usize, Box<[Option<SymValue>]>)>,
}

impl BoundCfdMember {
    /// Does the member's probe pattern match a key group's key?
    pub(crate) fn matches(&self, key: &[SymValue]) -> bool {
        cover_key_matches(&self.covers[0].1, key)
    }

    /// The original-Σ indices that a matching member's violations in
    /// key group `key` fan out to: each cover whose own pattern matches
    /// the key. Patterns only constrain the key, so any tuple carrying
    /// the key decides this for the whole key group.
    pub(crate) fn covers_at<'a>(&'a self, key: &'a [SymValue]) -> impl Iterator<Item = usize> + 'a {
        self.covers
            .iter()
            .filter(move |(_, pattern)| cover_key_matches(pattern, key))
            .map(|(idx, _)| *idx)
    }
}

/// A CIND group, bound.
#[derive(Clone, Debug)]
pub(crate) struct BoundCindGroup {
    /// The sorted `Y` attributes' slots in the target relation's row.
    pub(crate) y: Box<[u32]>,
    /// The Yp tests: `(slot, symbol)` per condition cell.
    pub(crate) yp: Box<[(u32, SymValue)]>,
    pub(crate) members: Vec<BoundCindMember>,
}

/// A CIND member, bound.
#[derive(Clone, Debug)]
pub(crate) struct BoundCindMember {
    /// The `x_perm` attributes' slots in the source relation's row.
    pub(crate) x: Box<[u32]>,
    /// The Xp tests: `(slot, symbol)` per condition cell.
    pub(crate) xp: Box<[(u32, SymValue)]>,
}

impl BoundSigma {
    /// Binds `v`'s compiled groups to a row cache over `layout` (its
    /// [`Validator::sym_layout`] or a superset), pinning every string
    /// constant in `dict`.
    pub(crate) fn bind(v: &Validator, layout: &[Vec<AttrId>], dict: &mut Dict) -> Self {
        let slot = |rel: RelId, a: &AttrId| -> u32 {
            let slot = layout[rel.index()]
                .binary_search(a)
                .expect("every attribute a group reads is in the layout");
            slot as u32
        };
        let mut cfd = Vec::with_capacity(v.cfd_groups.len());
        for g in &v.cfd_groups {
            let mut members = Vec::with_capacity(g.members.len());
            for m in &g.members {
                let mut pin = |cell: &Option<Value>| cell.as_ref().map(|c| dict.acquire_sym(c));
                members.push(BoundCfdMember {
                    rhs: slot(g.rel, &m.rhs),
                    rhs_const: pin(&m.rhs_const),
                    covers: m
                        .covers
                        .iter()
                        .map(|c| (c.idx, c.pattern.iter().map(&mut pin).collect()))
                        .collect(),
                });
            }
            cfd.push(BoundCfdGroup {
                key: g.attrs.iter().map(|a| slot(g.rel, a)).collect(),
                members,
            });
        }
        let mut tests = |rel: RelId, cond: &[(AttrId, Value)]| -> Box<[(u32, SymValue)]> {
            cond.iter()
                .map(|(a, c)| (slot(rel, a), dict.acquire_sym(c)))
                .collect()
        };
        let mut cind = Vec::with_capacity(v.cind_groups.len());
        for g in &v.cind_groups {
            let mut members = Vec::with_capacity(g.members.len());
            for m in &g.members {
                let source = &v.cinds[m.idx];
                members.push(BoundCindMember {
                    x: m.x_perm.iter().map(|a| slot(source.lhs_rel(), a)).collect(),
                    xp: tests(source.lhs_rel(), source.xp()),
                });
            }
            cind.push(BoundCindGroup {
                y: g.y.iter().map(|a| slot(g.rhs_rel, a)).collect(),
                yp: tests(g.rhs_rel, &g.yp),
                members,
            });
        }
        BoundSigma { cfd, cind }
    }

    /// Releases every pin [`BoundSigma::bind`] took.
    pub(crate) fn release(self, dict: &mut Dict) {
        for m in self.cfd.iter().flat_map(|g| &g.members) {
            let patterns = m.covers.iter().flat_map(|(_, p)| p.iter().flatten());
            for &c in m.rhs_const.iter().chain(patterns) {
                dict.release_sym(c);
            }
        }
        for g in &self.cind {
            for &(_, c) in g.yp.iter().chain(g.members.iter().flat_map(|m| &*m.xp)) {
                dict.release_sym(c);
            }
        }
    }
}

/// Does one cover's own symbolized pattern match a key-group's key?
pub(crate) fn cover_key_matches(pattern: &[Option<SymValue>], key: &[SymValue]) -> bool {
    pattern
        .iter()
        .zip(key)
        .all(|(p, k)| p.is_none_or(|p| p == *k))
}

/// Does a cached row pass every `(slot, symbol)` test of a bound
/// condition?
pub(crate) fn holds(tests: &[(u32, SymValue)], row: &[SymValue]) -> bool {
    tests.iter().all(|&(slot, c)| row[slot as usize] == c)
}

/// Copies the cells at `slots` out of a cached row into `buf`.
pub(crate) fn key_from_slots(row: &[SymValue], slots: &[u32], buf: &mut Vec<SymValue>) {
    buf.clear();
    buf.extend(slots.iter().map(|&s| row[s as usize]));
}

/// The one definition of the wildcard-RHS pairing rule: every tuple of a
/// key-group whose RHS cell (slot `rhs` of its cached row) differs from
/// the group's **lowest position**'s is paired with that witness.
/// Positions may arrive in any order — a live index's groups lose their
/// ascending order to swap-removals and renumbering — so no read depends
/// on storage order. The sweep, the seed build and every stream pair
/// update read pairs through this one rule, which is what keeps the
/// stream/batch equivalence invariant from drifting.
pub(crate) fn wildcard_pairs(positions: &[u32], rows: Rows<'_>, rhs: u32) -> Vec<(usize, usize)> {
    let Some(&witness) = positions.iter().min() else {
        return Vec::new();
    };
    let expected = rows.at(witness as usize, rhs);
    positions
        .iter()
        .copied()
        .filter(|&pos| rows.at(pos as usize, rhs) != expected)
        .map(|pos| (witness as usize, pos as usize))
        .collect()
}

/// Symbolizes every tuple of `inst` over `attrs` into one row-major
/// block, each string cell holding its symbol — the row cache's layout.
pub(crate) fn cache_rows(dict: &mut Dict, inst: &Relation, attrs: &[AttrId]) -> Vec<SymValue> {
    let mut rows = Vec::with_capacity(inst.len() * attrs.len());
    for t in inst.iter() {
        rows.extend(attrs.iter().map(|a| dict.acquire_sym(&t[*a])));
    }
    rows
}

/// The symbolized cells group tasks read: a row cache built by
/// [`cache_rows`], per relation each tuple's cells row-major over
/// [`Validator::sym_layout`]'s columns.
pub(crate) struct Cells<'a> {
    pub(crate) rows: &'a [Vec<SymValue>],
    pub(crate) layout: &'a [Vec<AttrId>],
}

impl<'a> Cells<'a> {
    /// The cached rows of `rel`.
    pub(crate) fn of(&self, rel: RelId) -> Rows<'a> {
        Rows {
            cells: &self.rows[rel.index()],
            stride: self.layout[rel.index()].len(),
        }
    }

    /// Bulk-builds an index over the first `n` positions of `rel` whose
    /// cached row passes `filter`, keyed by the row's cells at `key`'s
    /// slots.
    pub(crate) fn index(
        &self,
        rel: RelId,
        n: usize,
        key: &[u32],
        filter: impl Fn(&[SymValue]) -> bool,
    ) -> SymIndex {
        let rows = self.of(rel);
        SymIndex::build_with(n, key.len(), |pos, buf| {
            let row = rows.row(pos);
            if !filter(row) {
                return false;
            }
            buf.extend(key.iter().map(|&s| row[s as usize]));
            true
        })
    }
}

/// One relation's cached rows: position `pos`'s row is
/// `cells[pos * stride..][..stride]`.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) cells: &'a [SymValue],
    pub(crate) stride: usize,
}

impl<'a> Rows<'a> {
    /// Position `pos`'s row.
    #[inline]
    pub(crate) fn row(self, pos: usize) -> &'a [SymValue] {
        &self.cells[pos * self.stride..][..self.stride]
    }

    /// Position `pos`'s cell at `slot`.
    #[inline]
    pub(crate) fn at(self, pos: usize, slot: u32) -> SymValue {
        self.cells[pos * self.stride + slot as usize]
    }
}

/// One group task's output: the violations it read, plus the indexes it
/// built when the caller keeps them.
#[derive(Default)]
pub(crate) struct GroupBuild {
    pub(crate) cfd: Vec<(usize, CfdViolation)>,
    pub(crate) cind: Vec<(usize, CindViolation)>,
    /// Kept builds only: a CFD group's full LHS index, or a CIND group's
    /// Yp-filtered target index keyed by the sorted `Y`.
    pub(crate) index: Option<SymIndex>,
    /// Kept builds only: a CIND group's per-member triggered-source
    /// indexes keyed by `x_perm`, in member order.
    pub(crate) sources: Vec<SymIndex>,
}
