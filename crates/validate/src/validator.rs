//! The batched Σ-validator.

use crate::cover::{canonical_pattern, CoverRole, CoverStats, SigmaCover};
use condep_analyze::{AnalyzeConfig, SigmaAnalysis, SigmaLint, SigmaVerdict, UnsatSigma};
use condep_cfd::{CfdViolation, NormalCfd};
use condep_core::{CindViolation, NormalCind};
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, Database, Interner, PValue, RelId, Schema, SymTables, SymValue, Value};
use condep_query::SymIndex;
use condep_telemetry::{Export, MetricsSnapshot, SpanKey, Stopwatch};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Static span keys: suite compilation happens in free constructors
/// with no registry in hand, so these record into the global registry
/// ([`condep_telemetry::global`]) through a once-resolved cached handle.
static COVER_SPAN: SpanKey = SpanKey::new("validator.cover_us");
static COMPILE_SPAN: SpanKey = SpanKey::new("validator.compile_us");

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
/// `covers[0]` is always the representative whose pattern equals the
/// member's probe pattern.
#[derive(Clone, Debug)]
pub(crate) struct CfdMember {
    /// Probe pattern: the most general LHS pattern among `covers`
    /// (`None` = wildcard), aligned with the group's sorted attributes.
    pub(crate) pattern: Vec<Option<Value>>,
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
    /// Advisory Σ lints from the analyzer's cheap tier (key-group row
    /// conflicts), refreshed on every add/retire. Indexed in this
    /// suite's Σ numbering.
    lints: Vec<SigmaLint>,
}

/// Wall-clock and shape facts of one suite compilation.
///
/// The timings also land in the global registry under
/// `validator.cover_us` / `validator.compile_us` (histograms across
/// every compile in the process); this struct is the per-suite view.
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
        COVER_SPAN.record_us(cover_us);
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
            // One shared canonicalization (sorted LHS, pattern permuted
            // in lock-step) with `cfd::satisfy::satisfies_all`.
            let (attrs, pattern) = canonical_pattern(cfd);
            let mut covers = Vec::with_capacity(1 + covered.len());
            covers.push(CfdCover {
                idx,
                pattern: pattern.clone(),
            });
            for &c in covered {
                let (c_attrs, c_pattern) = canonical_pattern(&cfds[c]);
                debug_assert_eq!(c_attrs, attrs, "cover merged across LHS sets");
                debug_assert!(
                    crate::cover::subsumes(&pattern, &c_pattern),
                    "representative pattern must subsume its covers"
                );
                covers.push(CfdCover {
                    idx: c,
                    pattern: c_pattern,
                });
            }
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
            cfd_groups[slot].members.push(CfdMember {
                pattern,
                rhs: cfd.rhs(),
                rhs_const: match cfd.rhs_pat() {
                    PValue::Const(v) => Some(v.clone()),
                    PValue::Any => None,
                },
                covers,
            });
        }

        type CindGroupKey = (RelId, Vec<AttrId>, Vec<(AttrId, Value)>);
        let mut cind_index: HashMap<CindGroupKey, usize, FxBuildHasher> = HashMap::default();
        let mut cind_groups: Vec<CindGroup> = Vec::new();
        for (idx, cind) in cinds.iter().enumerate() {
            let CoverRole::Keep { covered } = &cover.cind[idx] else {
                continue;
            };
            // Canonicalize on the target side: sort Y, permuting X in
            // lock-step so probes align with the shared index.
            let mut cols: Vec<(AttrId, AttrId)> = cind
                .y()
                .iter()
                .copied()
                .zip(cind.x().iter().copied())
                .collect();
            cols.sort_by_key(|(y, _)| *y);
            let y: Vec<AttrId> = cols.iter().map(|(y, _)| *y).collect();
            let x_perm: Vec<AttrId> = cols.into_iter().map(|(_, x)| x).collect();
            let mut yp = cind.yp().to_vec();
            yp.sort_by_key(|&(a, _)| a);
            let slot = *cind_index
                .entry((cind.rhs_rel(), y.clone(), yp.clone()))
                .or_insert_with(|| {
                    cind_groups.push(CindGroup {
                        rhs_rel: cind.rhs_rel(),
                        y,
                        yp,
                        members: Vec::new(),
                    });
                    cind_groups.len() - 1
                });
            let mut covers = Vec::with_capacity(1 + covered.len());
            covers.push(idx);
            covers.extend(covered.iter().copied());
            cind_groups[slot].members.push(CindMember {
                idx,
                x_perm,
                covers,
            });
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
        COMPILE_SPAN.record_us(compile_us);
        let compile_stats = CompileStats {
            cover_us: 0,
            compile_us,
            cfd_groups: cfd_groups.len(),
            cind_groups: cind_groups.len(),
            cfd_members: cfd_groups.iter().map(|g| g.members.len()).sum(),
            cind_members: cind_groups.iter().map(|g| g.members.len()).sum(),
        };
        // Cheap-tier static analysis: every construction surfaces
        // conflicting/redundant key-group rows without any solving.
        let lints = condep_analyze::row_lints(&cfds, &AnalyzeConfig::default());
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
            lints,
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
        let analysis = condep_analyze::analyze(schema, &cfds, &cinds, &AnalyzeConfig::default());
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
            let (attrs, pattern) = canonical_pattern(&cfd);
            let gi = self
                .cfd_groups
                .iter()
                .position(|g| g.rel == cfd.rel() && g.attrs == attrs)
                .unwrap_or_else(|| {
                    self.cfd_groups.push(CfdGroup {
                        rel: cfd.rel(),
                        attrs,
                        members: Vec::new(),
                    });
                    self.cfd_groups.len() - 1
                });
            let mi = self.cfd_groups[gi].members.len();
            self.cfd_groups[gi].members.push(CfdMember {
                pattern: pattern.clone(),
                rhs: cfd.rhs(),
                rhs_const: match cfd.rhs_pat() {
                    PValue::Const(v) => Some(v.clone()),
                    PValue::Any => None,
                },
                covers: vec![CfdCover { idx, pattern }],
            });
            self.cfd_slots.push((gi, mi, 0));
            self.retired_cfds.push(false);
            self.cfds.push(cfd);
        }
        for cind in cinds {
            let idx = self.cinds.len();
            let mut cols: Vec<(AttrId, AttrId)> = cind
                .y()
                .iter()
                .copied()
                .zip(cind.x().iter().copied())
                .collect();
            cols.sort_by_key(|(y, _)| *y);
            let y: Vec<AttrId> = cols.iter().map(|(y, _)| *y).collect();
            let x_perm: Vec<AttrId> = cols.into_iter().map(|(_, x)| x).collect();
            let mut yp = cind.yp().to_vec();
            yp.sort_by_key(|&(a, _)| a);
            let gi = self
                .cind_groups
                .iter()
                .position(|g| g.rhs_rel == cind.rhs_rel() && g.y == y && g.yp == yp)
                .unwrap_or_else(|| {
                    self.cind_groups.push(CindGroup {
                        rhs_rel: cind.rhs_rel(),
                        y,
                        yp,
                        members: Vec::new(),
                    });
                    self.cind_groups.len() - 1
                });
            self.cind_groups[gi].members.push(CindMember {
                idx,
                x_perm,
                covers: vec![idx],
            });
            self.retired_cinds.push(false);
            self.cinds.push(cind);
        }
        self.refresh_lints();
        (cfd_start..self.cfds.len(), cind_start..self.cinds.len())
    }

    /// Retires constraints in place: their indices stay allocated (so
    /// every historical report keeps meaning) but no member evaluates
    /// them any more, and future sweeps emit nothing for them. Only the
    /// groups that carried the retired constraints are recompiled.
    ///
    /// A retired CFD that was a cover **representative** is the delicate
    /// case: emission sites never re-check `covers[0]`'s pattern, so the
    /// surviving covers cannot simply inherit the old probe pattern —
    /// each one is re-seated as its own singleton member instead (its
    /// probe pattern becomes its own pattern, which is exactly the
    /// uncovered compile of that constraint). Out-of-range indices
    /// panic; already-retired indices are skipped.
    pub fn retire_dependencies(&mut self, cfd_idxs: &[usize], cind_idxs: &[usize]) -> RetireLog {
        let mut log = RetireLog::default();
        let mut cfd_idxs = cfd_idxs.to_vec();
        cfd_idxs.sort_unstable();
        cfd_idxs.dedup();
        for idx in cfd_idxs {
            assert!(idx < self.cfds.len(), "retired CFD index out of range");
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
                        pattern: c.pattern.clone(),
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
            assert!(idx < self.cinds.len(), "retired CIND index out of range");
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
        self.refresh_lints();
        log
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

    /// Re-runs the cheap lint tier over the active Σ (after
    /// add/retire), translating indices back into suite numbering.
    fn refresh_lints(&mut self) {
        let (cfds, cfd_map, _, _) = self.active_sigma();
        let mut lints = condep_analyze::row_lints(&cfds, &AnalyzeConfig::default());
        for lint in &mut lints {
            lint.remap(&cfd_map, &[]);
        }
        self.lints = lints;
    }

    /// Advisory Σ lints from the analyzer's cheap tier (conflicting or
    /// redundant constant rows on a key group), computed at
    /// construction and refreshed on every add/retire. Indices are in
    /// this suite's Σ numbering. The full verdict (SAT consistency,
    /// unsat cores, domain reachability) is [`Validator::analysis`].
    pub fn lints(&self) -> &[SigmaLint] {
        &self.lints
    }

    /// Full static analysis of the active Σ against `schema`:
    /// SAT-backed consistency with a witness or a minimal unsat core,
    /// a budgeted chase when CINDs are present, and the complete lint
    /// catalogue. Indices in the result are in this suite's Σ
    /// numbering (retired dependencies are excluded from analysis).
    pub fn analysis(&self, schema: &Arc<Schema>) -> SigmaAnalysis {
        let (cfds, cfd_map, cinds, cind_map) = self.active_sigma();
        condep_analyze::analyze(schema, &cfds, &cinds, &AnalyzeConfig::default())
            .remap(&cfd_map, &cind_map)
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

    /// Has this CFD been retired?
    pub fn is_cfd_retired(&self, idx: usize) -> bool {
        self.retired_cfds[idx]
    }

    /// Has this CIND been retired?
    pub fn is_cind_retired(&self, idx: usize) -> bool {
        self.retired_cinds[idx]
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

    /// The `(group slot, member slot, cover slot)` of one compiled CFD.
    pub(crate) fn cfd_slot(&self, idx: usize) -> (usize, usize, usize) {
        self.cfd_slots[idx]
    }

    pub(crate) fn cind_groups(&self) -> &[CindGroup] {
        &self.cind_groups
    }

    /// Per relation, the sorted attributes the compiled groups read:
    /// every group's key attributes, member RHS cells and CIND source
    /// and target columns. With `conditions`, also the CIND Xp/Yp
    /// condition columns, which the batch sweep filters on as symbols
    /// (the stream tests them on tuples instead).
    pub(crate) fn sym_layout(&self, n_rels: usize, conditions: bool) -> Vec<Vec<AttrId>> {
        let mut sets: Vec<BTreeSet<AttrId>> = (0..n_rels).map(|_| BTreeSet::new()).collect();
        for g in &self.cfd_groups {
            sets[g.rel.index()].extend(g.attrs.iter().copied());
            sets[g.rel.index()].extend(g.members.iter().map(|m| m.rhs));
        }
        for g in &self.cind_groups {
            sets[g.rhs_rel.index()].extend(g.y.iter().copied());
            if conditions {
                sets[g.rhs_rel.index()].extend(g.yp.iter().map(|(a, _)| *a));
            }
            for m in &g.members {
                let cind = &self.cinds[m.idx];
                let source = &mut sets[cind.lhs_rel().index()];
                source.extend(m.x_perm.iter().copied());
                if conditions {
                    source.extend(cind.xp().iter().map(|(a, _)| *a));
                }
            }
        }
        sets.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// Finds every violation of Σ in `db` (unsorted; see
    /// [`SigmaReport::sort`] for the canonical order).
    pub fn validate(&self, db: &Database) -> SigmaReport {
        let stop = AtomicBool::new(false);
        self.sweep(db, &stop, false)
    }

    /// [`Validator::validate`] followed by [`SigmaReport::sort`].
    pub fn validate_sorted(&self, db: &Database) -> SigmaReport {
        let mut report = self.validate(db);
        report.sort();
        report
    }

    /// Does `db` satisfy every constraint of Σ? Short-circuits on the
    /// first violation (also across parallel workers).
    pub fn satisfies(&self, db: &Database) -> bool {
        let stop = AtomicBool::new(false);
        self.sweep(db, &stop, true).is_empty()
    }

    /// The shared sweep: one task per group, striped across threads when
    /// the instance is large enough to pay for them.
    fn sweep(&self, db: &Database, stop: &AtomicBool, early_exit: bool) -> SigmaReport {
        let n_tasks = self.group_count();
        if n_tasks == 0 {
            return SigmaReport::default();
        }
        // Symbolize only the columns some group reads.
        let layout = self.sym_layout(db.schema().len(), true);
        let (interner, tables) = SymTables::build_for(db, &layout);
        let threads = if db.total_tuples() < PARALLEL_THRESHOLD {
            1
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(n_tasks.max(1))
        };

        let run_task = |task: usize| -> TaskResult {
            if early_exit && stop.load(Ordering::Relaxed) {
                return TaskResult::default();
            }
            let result = if task < self.cfd_groups.len() {
                TaskResult {
                    cfd: self.run_cfd_group(
                        &self.cfd_groups[task],
                        db,
                        &interner,
                        &tables,
                        early_exit,
                    ),
                    cind: Vec::new(),
                }
            } else {
                TaskResult {
                    cfd: Vec::new(),
                    cind: self.run_cind_group(
                        &self.cind_groups[task - self.cfd_groups.len()],
                        db,
                        &interner,
                        &tables,
                        early_exit,
                    ),
                }
            };
            if early_exit && !(result.cfd.is_empty() && result.cind.is_empty()) {
                stop.store(true, Ordering::Relaxed);
            }
            result
        };

        let mut per_task: Vec<TaskResult> = Vec::with_capacity(n_tasks);
        if threads <= 1 {
            for task in 0..n_tasks {
                let result = run_task(task);
                let found = !(result.cfd.is_empty() && result.cind.is_empty());
                per_task.push(result);
                if early_exit && found {
                    break;
                }
            }
        } else {
            let mut striped: Vec<Vec<(usize, TaskResult)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|worker| {
                        let run_task = &run_task;
                        scope.spawn(move || {
                            (worker..n_tasks)
                                .step_by(threads)
                                .map(|task| (task, run_task(task)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("validation worker panicked"))
                    .collect()
            });
            // Restore group order for a deterministic report.
            let mut ordered: Vec<(usize, TaskResult)> = striped.drain(..).flatten().collect();
            ordered.sort_by_key(|(task, _)| *task);
            per_task = ordered.into_iter().map(|(_, r)| r).collect();
        }

        let mut report = SigmaReport::default();
        for task in per_task {
            report.cfd.extend(task.cfd);
            report.cind.extend(task.cind);
        }
        report
    }

    /// Evaluates every member of a CFD group against each key-group of
    /// the group's single shared index, reading pre-symbolized columns.
    fn run_cfd_group(
        &self,
        group: &CfdGroup,
        db: &Database,
        interner: &Interner,
        tables: &SymTables,
        early_exit: bool,
    ) -> Vec<(usize, CfdViolation)> {
        let rel = db.relation(group.rel);
        if rel.is_empty() {
            return Vec::new();
        }
        // Translate each member's LHS patterns into symbols once. A
        // constant string the interner has never seen cannot match any
        // tuple: the probe pattern (the most general among the member's
        // covers) being unknown kills the whole member, an individual
        // cover's extra constants being unknown kills just that cover.
        // RHS constants translate to `Err(value)` when unknown — every
        // tuple of a matching key-group then mismatches by definition.
        struct ReadyMember<'a> {
            pattern: Vec<Option<SymValue>>,
            rhs: AttrId,
            /// `None` = wildcard; `Some(Ok(sym))` = known constant;
            /// `Some(Err(v))` = constant absent from the database.
            rhs_const: Option<Result<SymValue, &'a Value>>,
            /// Live covers: original index + its own symbolized pattern.
            covers: Vec<(usize, Vec<Option<SymValue>>)>,
        }
        let sym_pattern = |cells: &[Option<Value>]| -> Option<Vec<Option<SymValue>>> {
            let mut pattern = Vec::with_capacity(cells.len());
            for cell in cells {
                match cell {
                    None => pattern.push(None),
                    Some(v) => pattern.push(Some(interner.sym_value(v)?)),
                }
            }
            Some(pattern)
        };
        let members: Vec<ReadyMember<'_>> = group
            .members
            .iter()
            .filter_map(|m| {
                let pattern = sym_pattern(&m.pattern)?;
                let covers: Vec<(usize, Vec<Option<SymValue>>)> = m
                    .covers
                    .iter()
                    .filter_map(|c| Some((c.idx, sym_pattern(&c.pattern)?)))
                    .collect();
                if covers.is_empty() {
                    return None;
                }
                Some(ReadyMember {
                    pattern,
                    rhs: m.rhs,
                    rhs_const: m.rhs_const.as_ref().map(|v| interner.sym_value(v).ok_or(v)),
                    covers,
                })
            })
            .collect();
        if members.is_empty() {
            return Vec::new();
        }

        let key_cols = tables.columns(group.rel, &group.attrs);

        // Hybrid strategy. A shared full group-by pass costs one
        // `rows × width` index build and serves every member; a
        // per-member pass filters on the member's constant cells first
        // and only indexes survivors (the classic single-CFD plan).
        // Full-wildcard members need the full pass anyway, and enough
        // members amortize it; otherwise few constant-selective members
        // are cheaper served individually (a constant-filtered column
        // scan costs far less per member than a full index build).
        const SHARED_INDEX_MIN_MEMBERS: usize = 8;
        let any_full_wildcard = members
            .iter()
            .any(|m| m.pattern.iter().all(Option::is_none));
        let mut out = Vec::new();
        if any_full_wildcard || members.len() >= SHARED_INDEX_MIN_MEMBERS {
            let idx = SymIndex::build_from_columns(rel.len(), &key_cols, |_| true);
            // Wildcard-RHS conflict witnesses per (key-group, RHS
            // attribute), shared by every member asking about the same
            // column.
            let mut pair_cache: HashMap<AttrId, Vec<(usize, usize)>, FxBuildHasher> =
                HashMap::default();
            for (key, positions) in idx.groups() {
                pair_cache.clear();
                for m in &members {
                    let matches = m
                        .pattern
                        .iter()
                        .zip(key)
                        .all(|(p, k)| p.is_none_or(|p| p == *k));
                    if !matches {
                        continue;
                    }
                    let rhs_col = tables.column(group.rel, m.rhs);
                    match &m.rhs_const {
                        Some(expected) => self.push_single_tuple_violations(
                            &m.covers,
                            key,
                            expected,
                            positions.clone(),
                            rhs_col,
                            rel,
                            &mut out,
                        ),
                        None => {
                            let pairs = pair_cache
                                .entry(m.rhs)
                                .or_insert_with(|| wildcard_pairs(positions.clone(), rhs_col));
                            for (ci, (cidx, cpat)) in m.covers.iter().enumerate() {
                                if ci > 0 && !cover_key_matches(cpat, key) {
                                    continue;
                                }
                                out.extend(pairs.iter().map(|&(left, right)| {
                                    (*cidx, CfdViolation::Pair { left, right })
                                }));
                            }
                        }
                    }
                    if early_exit && !out.is_empty() {
                        return out;
                    }
                }
            }
        } else {
            for m in &members {
                let const_cells: Vec<(&[SymValue], SymValue)> = group
                    .attrs
                    .iter()
                    .zip(&m.pattern)
                    .filter_map(|(a, p)| p.map(|s| (tables.column(group.rel, *a), s)))
                    .collect();
                let idx = SymIndex::build_from_columns(rel.len(), &key_cols, |pos| {
                    const_cells.iter().all(|(col, s)| col[pos] == *s)
                });
                let rhs_col = tables.column(group.rel, m.rhs);
                for (key, positions) in idx.groups() {
                    // The filter already enforced the probe pattern:
                    // every surviving key-group matches this member
                    // (covers past the first re-check their own extra
                    // constants against the key at emission).
                    match &m.rhs_const {
                        Some(expected) => self.push_single_tuple_violations(
                            &m.covers, key, expected, positions, rhs_col, rel, &mut out,
                        ),
                        None => {
                            let pairs = wildcard_pairs(positions, rhs_col);
                            for (ci, (cidx, cpat)) in m.covers.iter().enumerate() {
                                if ci > 0 && !cover_key_matches(cpat, key) {
                                    continue;
                                }
                                out.extend(pairs.iter().map(|&(left, right)| {
                                    (*cidx, CfdViolation::Pair { left, right })
                                }));
                            }
                        }
                    }
                    if early_exit && !out.is_empty() {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Emits `SingleTuple` violations for a constant-RHS member over one
    /// key-group, fanned out to every cover whose own pattern matches
    /// the key (the representative, `covers[0]`, matches by
    /// construction — the key-group was selected by its pattern).
    #[allow(clippy::too_many_arguments)]
    fn push_single_tuple_violations(
        &self,
        covers: &[(usize, Vec<Option<SymValue>>)],
        key: &[SymValue],
        expected: &Result<SymValue, &Value>,
        positions: impl Iterator<Item = u32>,
        rhs_col: &[SymValue],
        rel: &condep_model::Relation,
        out: &mut Vec<(usize, CfdViolation)>,
    ) {
        let expected_sym = expected.ok();
        let rep = covers[0].0;
        for pos in positions {
            if Some(rhs_col[pos as usize]) != expected_sym {
                let t = rel.get(pos as usize).expect("indexed position valid");
                let rhs = self.cfds[rep].rhs();
                let expected_value = match expected {
                    Ok(_) => self.cfds[rep]
                        .rhs_pat()
                        .as_const()
                        .expect("constant RHS")
                        .clone(),
                    Err(v) => (*v).clone(),
                };
                let violation = CfdViolation::SingleTuple {
                    tuple: pos as usize,
                    found: t[rhs].clone(),
                    expected: expected_value,
                };
                for (ci, (cidx, cpat)) in covers.iter().enumerate() {
                    if ci > 0 && !cover_key_matches(cpat, key) {
                        continue;
                    }
                    out.push((*cidx, violation.clone()));
                }
            }
        }
    }

    /// Evaluates every member of a CIND group against the group's single
    /// shared (filtered) target index, reading pre-symbolized columns.
    fn run_cind_group(
        &self,
        group: &CindGroup,
        db: &Database,
        interner: &Interner,
        tables: &SymTables,
        early_exit: bool,
    ) -> Vec<(usize, CindViolation)> {
        // A group whose members were all retired keeps its slot (stream
        // index tables stay aligned) but must not pay for a target
        // index build.
        if group.members.is_empty() {
            return Vec::new();
        }
        let target = db.relation(group.rhs_rel);
        // Symbolize the shared Yp filter; an unknown constant matches no
        // target tuple, leaving the index empty (every triggered source
        // tuple then violates, as it must).
        let yp_syms: Option<Vec<(usize, SymValue)>> = group
            .yp
            .iter()
            .map(|(a, v)| interner.sym_value(v).map(|s| (a.index(), s)))
            .collect();
        let target_cols = tables.columns(group.rhs_rel, &group.y);
        let idx = match &yp_syms {
            Some(yp) => {
                let yp_cols: Vec<(&[SymValue], SymValue)> = yp
                    .iter()
                    .map(|(a, s)| (tables.column(group.rhs_rel, AttrId(*a as u32)), *s))
                    .collect();
                SymIndex::build_from_columns(target.len(), &target_cols, |pos| {
                    yp_cols.iter().all(|(col, s)| col[pos] == *s)
                })
            }
            None => SymIndex::new(group.y.len()),
        };
        let mut out = Vec::new();
        let mut key_buf: Vec<SymValue> = Vec::new();
        for m in &group.members {
            let cind = &self.cinds[m.idx];
            let lhs_rel = cind.lhs_rel();
            let source = db.relation(lhs_rel);
            if source.is_empty() {
                continue;
            }
            // Symbolize the member's Xp trigger; unknown constants mean
            // no source tuple triggers, so the member is trivially
            // satisfied.
            let Some(xp_syms) = cind
                .xp()
                .iter()
                .map(|(a, v)| interner.sym_value(v).map(|s| (a.index(), s)))
                .collect::<Option<Vec<_>>>()
            else {
                continue;
            };
            let xp_cols: Vec<(&[SymValue], SymValue)> = xp_syms
                .iter()
                .map(|(a, s)| (tables.column(lhs_rel, AttrId(*a as u32)), *s))
                .collect();
            let x_cols = tables.columns(lhs_rel, &m.x_perm);
            for pos in 0..source.len() {
                if !xp_cols.iter().all(|(col, s)| col[pos] == *s) {
                    continue;
                }
                key_buf.clear();
                key_buf.extend(x_cols.iter().map(|col| col[pos]));
                if !idx.contains_key(&key_buf) {
                    let t1 = source.get(pos).expect("position in range");
                    let violation = CindViolation {
                        tuple: pos,
                        key: t1.project(cind.x()),
                    };
                    for &c in &m.covers {
                        out.push((c, violation.clone()));
                    }
                    if early_exit {
                        return out;
                    }
                }
            }
        }
        out
    }
}

/// One conflict witness per tuple disagreeing with the key-group's
/// first RHS value — the wildcard-RHS violation set of a group.
///
/// `positions` must arrive position-ascending (bulk-built [`SymIndex`]
/// segments are; mutated groups must be sorted first) so the witness is
/// the group's lowest position, the canonical batch report order.
fn wildcard_pairs(
    positions: impl Iterator<Item = u32>,
    rhs_col: &[SymValue],
) -> Vec<(usize, usize)> {
    wildcard_pairs_by(positions, |pos| rhs_col[pos as usize])
}

/// Does one cover's own symbolized pattern match a key-group's key?
pub(crate) fn cover_key_matches(pattern: &[Option<SymValue>], key: &[SymValue]) -> bool {
    pattern
        .iter()
        .zip(key)
        .all(|(p, k)| p.is_none_or(|p| p == *k))
}

/// The one definition of the first-witness pairing rule, generic over
/// how a position's RHS value is read — the batch sweep reads
/// symbolized columns, the delta engine reads live tuples. Keeping a
/// single implementation is what guarantees the stream/batch
/// equivalence invariant cannot drift.
pub(crate) fn wildcard_pairs_by<V, F>(
    positions: impl Iterator<Item = u32>,
    value_at: F,
) -> Vec<(usize, usize)>
where
    V: PartialEq + Copy,
    F: Fn(u32) -> V,
{
    let mut pairs = Vec::new();
    let mut first: Option<(usize, V)> = None;
    for pos in positions {
        let v = value_at(pos);
        match first {
            None => first = Some((pos as usize, v)),
            Some((fp, fv)) => {
                if fv != v {
                    pairs.push((fp, pos as usize));
                }
            }
        }
    }
    pairs
}

/// Per-task result buffers (one task = one group).
#[derive(Default)]
struct TaskResult {
    cfd: Vec<(usize, CfdViolation)>,
    cind: Vec<(usize, CindViolation)>,
}
