//! Incremental (streaming) validation with deletions and retraction.
//!
//! A [`ValidatorStream`] owns a database plus the live group-by indexes
//! of a compiled [`Validator`] and maintains the **materialized
//! violation set** of the evolving database. Every mutation goes through
//! one entry, [`ValidatorStream::apply_deltas`], which applies a window
//! of value-level [`Mutation`]s and returns one [`SigmaDelta`] per
//! insert or delete (two per update): the violations it *introduced* and
//! the violations it *resolved* (retraction), in time proportional to
//! the constraint groups and key groups the mutated tuple touches, never
//! to the database. [`ValidatorStream::apply`] is a window of one that
//! also returns the mutation's inverse.
//!
//! ## Invariant
//!
//! After every mutation, [`ValidatorStream::current_report`] equals
//! [`Validator::validate_sorted`] on the current database — the
//! equivalence oracle property-tested at the workspace root over random
//! insert/delete/update sequences.
//!
//! ## Delta semantics
//!
//! Deletion is swap-based ([`condep_model::Relation::remove`]): the last
//! tuple of the relation moves into the vacated position, reported as
//! [`SigmaDelta::moved`]. A consumer maintaining its own violation state
//! applies a delta as
//!
//! ```text
//! after = renumber(before − resolved, moved) + introduced
//! ```
//!
//! i.e. `resolved` is labeled with **pre-move** positions and
//! `introduced` with **post-move** positions. Wildcard-RHS pair
//! witnesses are group-structural (each conflicting tuple is witnessed
//! against the group's lowest position), so deleting or moving a group
//! member can relabel a group's pairs: those relabelings appear as
//! resolved+introduced pairs in the delta, keeping the net state exactly
//! equal to a fresh batch validation.
//!
//! The stream oracle at the workspace root (`tests/props.rs`) keeps
//! such a consumer, `ShadowReport`, and checks it against
//! [`ValidatorStream::current_report`] after every step. A consumer
//! that only reads the live set needs no copy: it can read
//! [`ValidatorStream::violation_counts`] in O(1), or the sorted
//! [`ValidatorStream::current_report`].
//!
//! ## Complexity contract
//!
//! * insert: `O(Σ groups on the relation + touched key-group sizes)`;
//! * delete: the same, plus `O(affected key-group sizes)` for pair
//!   recomputation in the deleted (and moved) tuple's groups;
//! * no full-relation scan, ever — the cost tracks the delta, not the
//!   database.
//!
//! ## Hot path
//!
//! Per-mutation cost is dominated by hashing, so the engine is built to
//! hash as little as possible:
//!
//! * **Σ cover first** — compilation runs the violation-exact
//!   [`crate::SigmaCover`] pass, so subsumable tableau rows and
//!   duplicate CINDs never become hot-path members at all; violations
//!   still report against the caller's original Σ indices via the
//!   provenance fan-out.
//! * **one seed build** — [`ValidatorStream::new_validated`] symbolizes
//!   the columns Σ reads ([`Validator::sym_layout`]) once, straight into
//!   the resident row cache, then runs the group tasks in keep mode over
//!   those rows, striped across threads on large instances: each builds
//!   its group's live index from the cached symbols and reads the
//!   group's seed violations off it. The batch sweep is the same build
//!   without keep. No column copy is made, and the dictionary holds only
//!   strings of columns Σ reads.
//! * **resident row cache** — every resident tuple's layout cells
//!   (group keys, CFD member RHS attributes **and** CIND condition
//!   columns) are cached row-major per relation, mirrored through the
//!   same swap-remove discipline as the relation; an arriving tuple's
//!   cells are symbolized once. Deletes read their rows from the cache —
//!   a delete hashes no string, except to drop one whose last cell left
//!   — and [`ValidatorStream::add_dependencies`] keys the indexes
//!   it splices in from it and reads its newcomers' violations through
//!   it.
//! * **at most one probe per (mutation, group)** — on insert,
//!   [`SymIndex`] slot handles (`ensure_slot`) resolve the tuple's key
//!   group once; on delete, the index's per-position slot record
//!   (`slot_of_pos`) recovers the deleted *and* moved tuples' groups
//!   with **zero** hash probes. Either way the handle is shared across
//!   every member asking about that key: the witness read (`min_at`) is
//!   `O(1)`, a membership scan (`positions_at`) reads the group as one
//!   contiguous slice, and the final insert/remove/relabel
//!   (`insert_at`/`remove_at`/`replace_at`) is `O(1)` amortized, because
//!   each group edits its own segment of the index's storage in place.
//! * **symbol compares everywhere** — the stream keeps Σ bound to its
//!   row cache, the binding the seed build made: every group key slot,
//!   member RHS slot, pattern, RHS constant and CIND condition in symbol
//!   form. Member and cover matching, constant-RHS checks, CIND Xp/Yp
//!   tests and pair-witness RHS agreement are word compares between a
//!   cached row and those symbols ([`SymValue`]), never tuple-value
//!   compares; the database tuple is only touched to build violation
//!   payloads on emission.
//!
//! ## Long-lived streams
//!
//! Four pieces make the stream safe to keep open for the life of a
//! monitored database, holding memory in proportion to the live data
//! whatever came and went before:
//!
//! * **self-maintaining indexes** — a delete frees room in its key
//!   group's [`SymIndex`] segment that the group's next insert reuses,
//!   a group is freed with its last tuple (its slot goes to the next
//!   new key), and room that groups outgrow or release is repacked once
//!   it passes half of an index's storage. The cost of a mutation does
//!   not grow with the stream's age, and keys and stored entries stay
//!   bounded by the live positions;
//! * **a refcounted dictionary** — the stream's strings live in a
//!   [`Dict`]. A string lives while a resident cached cell holds it, or
//!   while the bound Σ pins it as a constant (a CFD pattern or RHS
//!   constant, a CIND Xp or Yp constant), and dies with the last of
//!   them, so the dictionary holds the live strings and Σ's constants
//!   only. A pinned constant keeps its symbol for as long as its
//!   dependency is compiled, so a constant that no tuple holds yet
//!   already has the symbol a later arrival gets, and the binding never
//!   goes stale. A window releases its departing cells when it ends, so
//!   a string that leaves and comes back within one window (an update
//!   that keeps it) keeps its symbol;
//! * **stable tuple ids** — every resident tuple carries a
//!   [`condep_model::TupleId`] ([`ValidatorStream::tuple_id_at`] /
//!   [`ValidatorStream::position_of`]), allocated once and maintained
//!   through every swap, so consumers can address violations and fixes
//!   without replaying [`MovedTuple`] renumbering (each delta's
//!   [`IdDelta`] reports what was born, retired and moved);
//! * **windows** — [`ValidatorStream::apply_deltas`] applies a whole
//!   window through the row-fed engine, translating keys per
//!   `(relation, LHS set)` group from each tuple's cached row, and lets
//!   the departed rows' strings go once, when the window ends.

use crate::telemetry::{Recorder, StorageGauges, StreamTelemetry};
use crate::validator::{
    cache_rows, cind_target_index, cover_key_matches, holds, key_from_slots, wildcard_pairs,
    BoundCfdGroup, BoundSigma, Cells, Rows, SigmaReport, UnknownDependency, Validator,
};
use condep_cfd::{CfdDelta, CfdViolation, NormalCfd};
use condep_core::{CindDelta, CindViolation, NormalCind};
use condep_model::fxhash::FxBuildHasher;
use condep_model::{
    AttrId, Database, Dict, ModelError, RelId, SymIndex, SymValue, Tuple, TupleId, TupleIdMap,
};
use condep_telemetry::Stopwatch;
use std::collections::HashSet;

/// One value-level database mutation, appliable through
/// [`ValidatorStream::apply`].
///
/// The value-level (rather than position-level) formulation is what a
/// repair engine wants: a planned fix stays valid across the swap
/// renumbering earlier fixes cause, and its inverse (see
/// [`Applied::revert`]) is again a `Mutation`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Insert a tuple (a no-op when it is already present).
    Insert {
        /// The relation to insert into.
        rel: RelId,
        /// The arriving tuple.
        tuple: Tuple,
    },
    /// Delete a tuple by value (a no-op when it is absent).
    Delete {
        /// The relation to delete from.
        rel: RelId,
        /// The departing tuple.
        tuple: Tuple,
    },
    /// Replace `old` by `new` (a no-op when `old` is absent). When `new`
    /// already resides in the relation the update degenerates to a
    /// deletion of `old` — instances are sets, so the two tuples merge.
    Update {
        /// The relation to update in.
        rel: RelId,
        /// The tuple to replace.
        old: Tuple,
        /// Its replacement.
        new: Tuple,
    },
}

/// What one [`ValidatorStream::apply`] call did: the streamed deltas in
/// application order, plus the inverse mutation that
/// [`ValidatorStream::revert`] replays to restore the pre-mutation tuple
/// set — the retraction primitive repair engines build their
/// apply → inspect delta → keep-or-roll-back loop on. `revert` is `None`
/// exactly when the mutation was a no-op.
///
/// Reverting restores the database as a *set of tuples* (and therefore
/// the violation set up to position labels); dense positions may come
/// back permuted by the swap-based deletions involved.
#[derive(Clone, Debug)]
pub struct Applied {
    /// The streamed deltas, in application order.
    pub deltas: Vec<SigmaDelta>,
    /// The inverse mutation (`None` for a no-op).
    pub revert: Option<Mutation>,
}

impl Applied {
    /// Did the mutation change nothing at all?
    pub fn is_noop(&self) -> bool {
        self.revert.is_none()
    }

    /// Introduced-minus-resolved violation count across all deltas.
    pub fn net_change(&self) -> isize {
        self.deltas.iter().map(SigmaDelta::net_change).sum()
    }

    /// Total violations resolved across all deltas.
    pub fn resolved_count(&self) -> usize {
        self.deltas
            .iter()
            .map(|d| d.cfd.resolved.len() + d.cind.resolved.len())
            .sum()
    }

    /// Total violations introduced across all deltas.
    pub fn introduced_count(&self) -> usize {
        self.deltas
            .iter()
            .map(|d| d.cfd.introduced.len() + d.cind.introduced.len())
            .sum()
    }
}

/// A swap-based deletion moved the relation's last tuple: every
/// position-keyed view of `rel` must renumber `from` to `to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MovedTuple {
    /// The relation the deletion happened in.
    pub rel: RelId,
    /// The moved tuple's old dense position (the previous `len() - 1`).
    pub from: usize,
    /// Its new dense position (the deleted tuple's old slot).
    pub to: usize,
}

/// The stable-id bookkeeping of one mutation: which [`TupleId`]s were
/// born, retired and renumbered.
///
/// This is what lets a consumer skip the [`MovedTuple`] renumber
/// entirely: key your state by `TupleId` instead of dense position.
/// Translate **introduced** violation positions through
/// [`ValidatorStream::tuple_id_at`] right after consuming the delta
/// (they are post-move labels, so the current map applies); match
/// **resolved** entries by id — the pre-move position of the deleted
/// tuple is `retired`, the pre-move position [`MovedTuple::from`] is
/// `moved`, and every other position still carries its current id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdDelta {
    /// Id allocated for the inserted tuple.
    pub born: Option<TupleId>,
    /// Id retired by the deletion (the tuple that left).
    pub retired: Option<TupleId>,
    /// The moved tuple's id when the deletion swapped one
    /// ([`SigmaDelta::moved`]) — the id itself is stable, only its
    /// dense position changed.
    pub moved: Option<TupleId>,
}

/// Everything one mutation did to the violation set: introduced and
/// resolved violations per constraint kind, plus the position renumber a
/// swap-based deletion causes. See the module docs for the consumer
/// rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SigmaDelta {
    /// The CFD half of the delta.
    pub cfd: CfdDelta,
    /// The CIND half of the delta.
    pub cind: CindDelta,
    /// Set when a swap-based deletion renumbered one tuple.
    pub moved: Option<MovedTuple>,
    /// Stable-id bookkeeping (does not affect [`SigmaDelta::is_quiet`]:
    /// a clean insert still allocates an id).
    pub ids: IdDelta,
}

impl SigmaDelta {
    /// Did the mutation leave the violation set untouched — including
    /// its position labels? A delta with no introduced/resolved entries
    /// but a [`SigmaDelta::moved`] renumber is **not** quiet: a consumer
    /// skipping it would keep violations labeled with a position that no
    /// longer exists.
    pub fn is_quiet(&self) -> bool {
        self.cfd.is_quiet() && self.cind.is_quiet() && self.moved.is_none()
    }

    /// The introduced violations as a sorted report.
    pub fn introduced(&self) -> SigmaReport {
        let mut r = SigmaReport {
            cfd: self.cfd.introduced.clone(),
            cind: self.cind.introduced.clone(),
        };
        r.sort();
        r
    }

    /// The resolved violations as a sorted report.
    pub fn resolved(&self) -> SigmaReport {
        let mut r = SigmaReport {
            cfd: self.cfd.resolved.clone(),
            cind: self.cind.resolved.clone(),
        };
        r.sort();
        r
    }

    /// Introduced-minus-resolved violation count change.
    pub fn net_change(&self) -> isize {
        (self.cfd.introduced.len() + self.cind.introduced.len()) as isize
            - (self.cfd.resolved.len() + self.cind.resolved.len()) as isize
    }
}

/// A validator with materialized state for one evolving database.
#[derive(Clone, Debug)]
pub struct ValidatorStream {
    validator: Validator,
    db: Database,
    /// The refcounted symbol store of every cached cell and pinned Σ
    /// constant.
    dict: Dict,
    /// One live index per CFD group (keyed by the group's sorted LHS).
    cfd_indexes: Vec<SymIndex>,
    /// One live filtered target index per CIND group (keyed by sorted Y).
    cind_targets: Vec<SymIndex>,
    /// Per CIND group, per member: the member's **triggered source
    /// tuples** keyed by `x_perm` — the reverse index that makes target
    /// deletions (orphaning) and target arrivals (resolution) delta-cost.
    cind_sources: Vec<Vec<SymIndex>>,
    /// The materialized violation set (== batch validation of `db`).
    live_cfd: HashSet<(usize, CfdViolation), FxBuildHasher>,
    live_cind: HashSet<(usize, CindViolation), FxBuildHasher>,
    /// Per relation: the id ⇄ position maps behind [`TupleId`] handles,
    /// seeded with the dense-seeding convention (`TupleId(p)` = seed
    /// position `p`) and maintained through every swap.
    ids: Vec<TupleIdMap>,
    /// Per relation: [`Validator::sym_layout`] — every attribute some
    /// group reads, the cells one batched symbolization pass covers.
    sym_attrs: Vec<Vec<AttrId>>,
    /// Per relation: every **resident** tuple's layout cells, row major
    /// with stride `sym_attrs[rel].len()` and mirrored through the same
    /// swap-remove discipline as the relation itself — the delete path
    /// reads its rows here instead of re-hashing strings through the
    /// dictionary. Each string cell holds its symbol once.
    sym_rows: Vec<Vec<SymValue>>,
    /// Σ bound to the row cache: every slot and constant the mutation
    /// path reads, with the constants pinned in `dict`.
    sigma: BoundSigma,
    /// The stream's instrument panel: latency histograms, hot-path
    /// counters and the bounded activity journal. Private per stream;
    /// cloning a stream starts fresh recording state.
    telemetry: Recorder,
}

/// The wildcard-RHS pairs of one live key group, reading RHS cells at
/// slot `rhs` of the cached rows; the positions are sorted first so
/// the pairs come out in position order.
fn group_pairs(rows: Rows<'_>, rhs: u32, mut positions: Vec<u32>) -> Vec<(usize, usize)> {
    positions.sort_unstable();
    wildcard_pairs(&positions, rows, rhs)
}

/// One scoped member of a [`PairScope`]: `(RHS slot, applicable
/// original-Σ indices, old pairs)`, computed from the pre-deletion
/// state. The cover fan-out is stashed alongside because applicability
/// is a key-group property and the scoped tuple may be gone by
/// recomputation time.
type ScopedMember = (u32, Vec<usize>, Vec<(usize, usize)>);

/// One affected `(group, key)` pair-recomputation scope of a deletion.
/// The key group is held as its [`SymIndex`] slot handle — stable across
/// the removals between stash and recomputation, since a scope is only
/// stashed for a group that keeps at least one tuple.
struct PairScope {
    group: usize,
    slot: u32,
    /// The wildcard members matching the key, with their old pairs.
    members: Vec<ScopedMember>,
}

/// Collects the wildcard members matching the scoped tuple's `key`
/// together with their current (pre-mutation) pair sets — the "before"
/// side of a witness-restructure scope. `None` when no member is
/// affected.
fn stash_scope(
    bound: &BoundCfdGroup,
    group: usize,
    idx: &SymIndex,
    slot: u32,
    rows: Rows<'_>,
    key: &[SymValue],
) -> Option<PairScope> {
    let mut members = Vec::new();
    for m in &bound.members {
        if m.rhs_const.is_some() || !m.matches(key) {
            continue;
        }
        let old = group_pairs(rows, m.rhs, idx.positions_at(slot).to_vec());
        members.push((m.rhs, m.covers_at(key).collect(), old));
    }
    (!members.is_empty()).then_some(PairScope {
        group,
        slot,
        members,
    })
}

/// Relabels each cover's live pair `(witness, from)` to `(witness, to)`:
/// a moved tuple's pair follows it. The consumer's renumber step covers
/// this, so it is not a delta entry.
fn relabel_pairs(
    live: &mut HashSet<(usize, CfdViolation), FxBuildHasher>,
    covers: impl Iterator<Item = usize>,
    witness: u32,
    from: usize,
    to: usize,
) {
    let left = witness as usize;
    for cidx in covers {
        let was_live = live.remove(&(cidx, CfdViolation::Pair { left, right: from }));
        debug_assert!(was_live, "relabeled pair must have been live");
        live.insert((cidx, CfdViolation::Pair { left, right: to }));
    }
}

impl ValidatorStream {
    /// Materializes the stream state over an initial database, returning
    /// the stream together with the initial violations, sorted — the
    /// report [`Validator::validate_sorted`] would produce, read off the
    /// very indexes the stream keeps (see [`ValidatorStream::with_report`]
    /// for what the build does).
    pub fn new_validated(validator: Validator, db: Database) -> (Self, SigmaReport) {
        ValidatorStream::materialize(validator, db)
    }

    /// Materializes the stream over a database whose violation report is
    /// **already known** (from a prior batch run, monitor or stream).
    /// Costs the same as [`ValidatorStream::new_validated`]: one
    /// symbolization of the columns Σ reads into the row cache, one
    /// index build per group (in parallel on large instances), with the
    /// violations read off the kept indexes — no separate batch sweep
    /// either way.
    ///
    /// `report` must be exactly [`Validator::validate_sorted`] of `db`;
    /// debug builds assert it equals the report the build read.
    pub fn with_report(validator: Validator, db: Database, report: SigmaReport) -> Self {
        let (stream, read) = ValidatorStream::materialize(validator, db);
        debug_assert_eq!(report, read, "seed report disagrees with the database");
        stream
    }

    /// The one seed build: symbolizes the columns Σ reads once, straight
    /// into the resident row cache, binds Σ to it, then runs every group
    /// task in keep mode over those rows (the batch sweep's tasks,
    /// striped across threads above its size threshold) to build each
    /// group's live index and read its violations.
    fn materialize(validator: Validator, db: Database) -> (Self, SigmaReport) {
        let build_clock = Stopwatch::start();
        let (sym_attrs, mut dict, sym_rows) = validator.row_cache(&db);
        let sigma = BoundSigma::bind(&validator, &sym_attrs, &mut dict);
        let cells = Cells {
            rows: &sym_rows,
            layout: &sym_attrs,
        };
        let mut report = SigmaReport::default();
        let (mut cfd_indexes, mut cind_sources) = (Vec::new(), Vec::new());
        for build in validator.build_groups(&db, &cells, &sigma, true) {
            report.cfd.extend(build.cfd);
            report.cind.extend(build.cind);
            cfd_indexes.push(build.index.expect("a kept build keeps its index"));
            cind_sources.push(build.sources);
        }
        // Group tasks run CFD groups first, then CIND groups.
        let cind_targets = cfd_indexes.split_off(validator.cfd_groups().len());
        let cind_sources = cind_sources.split_off(validator.cfd_groups().len());
        report.sort();
        let live_cfd = report.cfd.iter().cloned().collect();
        let live_cind = report.cind.iter().cloned().collect();

        // Dense-seeding convention: the tuple at seed position `p` gets
        // `TupleId(p)` — what lets external ground truth (e.g. the gen
        // dirt injector) hand out ids any stream over the same database
        // resolves.
        let ids = db
            .iter()
            .map(|(_, inst)| TupleIdMap::identity(inst.len()))
            .collect();

        let mut stream = ValidatorStream {
            validator,
            db,
            dict,
            cfd_indexes,
            cind_targets,
            cind_sources,
            live_cfd,
            live_cind,
            ids,
            sym_attrs,
            sym_rows,
            sigma,
            telemetry: Recorder::new(true),
        };
        stream
            .telemetry
            .record_materialize(build_clock.elapsed_us());
        (stream, report)
    }

    /// The stream's instrument panel: latency distributions, hot-path
    /// counters and the recent-activity journal. The storage gauges
    /// (`stream.index.*`, `stream.interner.strings`) are sampled here,
    /// once per read, so the mutation path never maintains them; with
    /// recording off they read zero like every other figure.
    pub fn telemetry(&self) -> StreamTelemetry<'_> {
        let mut storage = StorageGauges::default();
        if self.telemetry.is_enabled() {
            for idx in self
                .cfd_indexes
                .iter()
                .chain(self.cind_targets.iter())
                .chain(self.cind_sources.iter().flatten())
            {
                storage.index_live += idx.len();
                storage.index_stored += idx.stored();
                storage.index_keys += idx.distinct_keys();
            }
            storage.strings = self.dict.len();
        }
        StreamTelemetry::new(&self.telemetry, storage)
    }

    /// Turns recording on or off at runtime, **resetting** all recorded
    /// state either way (counters to zero, journal emptied). With
    /// recording off every instrumentation site costs one branch.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry = Recorder::new(enabled);
    }

    /// Rebinds Σ to the row cache after the compiled groups change,
    /// pinning the new binding's constants before the old binding lets
    /// go of its own (a constant both hold keeps its symbol).
    fn rebind(&mut self) {
        let fresh = BoundSigma::bind(&self.validator, &self.sym_attrs, &mut self.dict);
        std::mem::replace(&mut self.sigma, fresh).release(&mut self.dict);
    }

    /// Splices newly-promoted dependencies into the **live** suite,
    /// without re-materializing: held [`TupleId`]s, existing violations
    /// and all per-group state stay untouched. Only the affected groups
    /// recompile (see [`Validator::add_dependencies`]), only the
    /// relations whose symbolization layout grew re-cache their rows,
    /// and only the new members' indexes are built. The new constraints'
    /// violations are read off the live indexes through the group
    /// tasks' own read paths. They come back sorted, indexed by their
    /// final Σ indices, and already folded into
    /// [`ValidatorStream::current_report`] (a consumer keeping its own
    /// violation state should add them as introduced violations).
    pub fn add_dependencies(
        &mut self,
        cfds: Vec<NormalCfd>,
        cinds: Vec<NormalCind>,
    ) -> SigmaReport {
        if cfds.is_empty() && cinds.is_empty() {
            return SigmaReport::default();
        }
        let (n_cfds, n_cinds) = (cfds.len(), cinds.len());
        // Newcomers are appended to their groups' member lists: each
        // group's members from its old length on are the new ones.
        let old_cfd_members: Vec<usize> = self
            .validator
            .cfd_groups()
            .iter()
            .map(|g| g.members.len())
            .collect();
        let old_cind_members: Vec<usize> = self
            .validator
            .cind_groups()
            .iter()
            .map(|g| g.members.len())
            .collect();
        self.validator.add_dependencies(cfds, cinds);

        // Grow the symbolization layout, re-caching the rows of every
        // relation whose layout changed: the index builds and reads
        // below take their keys from the row cache. The new rows take
        // their holds before the old ones let go, so a string the live
        // indexes key on never loses its symbol.
        let new_sym_attrs = self.validator.sym_layout(self.db.schema().len());
        {
            let Self {
                db,
                dict,
                sym_rows,
                sym_attrs,
                ..
            } = self;
            for (rel, inst) in db.iter() {
                let r = rel.index();
                if new_sym_attrs[r] != sym_attrs[r] {
                    let old = std::mem::replace(
                        &mut sym_rows[r],
                        cache_rows(dict, inst, &new_sym_attrs[r]),
                    );
                    for cell in old {
                        dict.release_sym(cell);
                    }
                }
            }
        }
        self.sym_attrs = new_sym_attrs;
        self.rebind();

        // Build the live indexes of the spliced groups and members from
        // the stream's own cached symbols, and read the newcomers'
        // violations off the indexes the stream keeps.
        let mut report = SigmaReport::default();
        {
            let Self {
                validator,
                db,
                cfd_indexes,
                cind_targets,
                cind_sources,
                sym_attrs,
                sym_rows,
                sigma,
                ..
            } = self;
            let cells = Cells {
                rows: sym_rows,
                layout: sym_attrs,
            };
            for (gi, (g, bg)) in validator.cfd_groups().iter().zip(&sigma.cfd).enumerate() {
                let inst = db.relation(g.rel);
                if gi >= cfd_indexes.len() {
                    cfd_indexes.push(cells.index(g.rel, inst.len(), &bg.key, |_| true));
                }
                let start = old_cfd_members.get(gi).copied().unwrap_or(0);
                if start < g.members.len() {
                    let (idx, rows) = (&cfd_indexes[gi], cells.of(g.rel));
                    validator.read_cfd_index(
                        &bg.members[start..],
                        idx,
                        inst,
                        rows,
                        &mut report.cfd,
                    );
                }
            }
            for (gi, (g, bg)) in validator.cind_groups().iter().zip(&sigma.cind).enumerate() {
                if gi >= cind_targets.len() {
                    cind_targets.push(cind_target_index(g, bg, db, &cells));
                    cind_sources.push(Vec::new());
                }
                let start = old_cind_members.get(gi).copied().unwrap_or(0);
                for (m, bm) in g.members[start..].iter().zip(&bg.members[start..]) {
                    cind_sources[gi].push(validator.cind_source_index(m, bm, db, &cells));
                    let target = &cind_targets[gi];
                    validator.read_cind_member(m, bm, db, &cells, target, &mut report.cind);
                }
            }
        }
        report.sort();
        self.live_cfd.extend(report.cfd.iter().cloned());
        self.live_cind.extend(report.cind.iter().cloned());
        self.telemetry
            .record_promote(n_cfds, n_cinds, report.cfd.len() + report.cind.len());
        report
    }

    /// Retires dependencies from the live suite (see
    /// [`Validator::retire_dependencies`]): their violations leave the
    /// live state and are returned — sorted, as the resolutions a
    /// consumer keeping its own violation state should apply. Indices
    /// stay allocated; later [`ValidatorStream::add_dependencies`]
    /// calls append fresh ones. An index the suite never assigned is an
    /// error, and then nothing is retired.
    pub fn retire_dependencies(
        &mut self,
        cfd_idxs: &[usize],
        cind_idxs: &[usize],
    ) -> Result<SigmaReport, UnknownDependency> {
        let log = self.validator.retire_dependencies(cfd_idxs, cind_idxs)?;
        if log.is_empty() {
            return Ok(SigmaReport::default());
        }
        // Replay the member removals in order so the per-member source
        // indexes stay aligned with the recompiled groups.
        for &(gi, mi) in &log.cind_members_removed {
            self.cind_sources[gi].remove(mi);
        }
        // The symbolization layout stays a (possibly proper) superset of
        // what the surviving groups need — keeping it avoids re-caching
        // any rows, and the rebinding still resolves every attribute.
        self.rebind();

        let mut resolved = SigmaReport::default();
        let retired: HashSet<usize> = log.cfds.iter().copied().collect();
        self.live_cfd.retain(|v| {
            if retired.contains(&v.0) {
                resolved.cfd.push(v.clone());
                false
            } else {
                true
            }
        });
        let retired: HashSet<usize> = log.cinds.iter().copied().collect();
        self.live_cind.retain(|v| {
            if retired.contains(&v.0) {
                resolved.cind.push(v.clone());
                false
            } else {
                true
            }
        });
        resolved.sort();
        self.telemetry.record_retire(
            log.cfds.len(),
            log.cinds.len(),
            resolved.cfd.len() + resolved.cind.len(),
        );
        Ok(resolved)
    }

    /// The stable id of the tuple currently at dense position `pos` of
    /// `rel` — translate **post-mutation** violation positions through
    /// this to address them without replaying swap renumbers.
    /// `None` for a relation outside the schema.
    pub fn tuple_id_at(&self, rel: RelId, pos: usize) -> Option<TupleId> {
        self.ids.get(rel.index())?.id_at(pos)
    }

    /// The current dense position behind a stable id; `None` once the
    /// tuple is gone (deleted, or rewritten by an update), and for a
    /// relation outside the schema.
    pub fn position_of(&self, rel: RelId, id: TupleId) -> Option<usize> {
        self.ids.get(rel.index())?.pos_of(id)
    }

    /// The tuple behind a stable id, read through the live id ⇄ position
    /// map (`None` for a relation outside the schema).
    pub fn tuple_by_id(&self, rel: RelId, id: TupleId) -> Option<&Tuple> {
        self.position_of(rel, id)
            .and_then(|p| self.db.relation(rel).get(p))
    }

    /// The compiled suite.
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// The current database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Consumes the stream, returning the accumulated database.
    pub fn into_db(self) -> Database {
        self.db
    }

    /// The materialized violation set, sorted into the canonical report
    /// order — always equal to [`Validator::validate_sorted`] on
    /// [`ValidatorStream::db`], at delta cost instead of a sweep.
    pub fn current_report(&self) -> SigmaReport {
        let mut report = SigmaReport {
            cfd: self.live_cfd.iter().cloned().collect(),
            cind: self.live_cind.iter().cloned().collect(),
        };
        report.sort();
        report
    }

    /// Number of currently outstanding violations: the sum of
    /// [`ValidatorStream::violation_counts`].
    pub fn violation_count(&self) -> usize {
        let (cfd, cind) = self.violation_counts();
        cfd + cind
    }

    /// Outstanding `(CFD, CIND)` violation counts — what
    /// [`ValidatorStream::current_report`] would hold per kind, in O(1).
    pub fn violation_counts(&self) -> (usize, usize) {
        (self.live_cfd.len(), self.live_cind.len())
    }

    /// The insert engine: the violations an arriving tuple introduces
    /// **and** the violations it resolves (an arriving CIND target tuple
    /// supplies the partner its orphaned source tuples were missing). An
    /// already-present tuple is a no-op, the empty delta: instances are
    /// sets.
    ///
    /// Semantics per constraint kind:
    ///
    /// * constant-RHS CFD — the tuple itself mismatches: one
    ///   `SingleTuple` violation;
    /// * wildcard-RHS CFD — the tuple disagrees on `A` with its key
    ///   group: one `Pair` witness against the group's first (lowest
    ///   position) resident tuple;
    /// * CIND (source role) — the tuple is triggered but finds no
    ///   partner in the live target index;
    /// * CIND (target role) — never *creates* a violation; if the tuple
    ///   carries a key no target held before, every orphaned source
    ///   tuple with that key is **resolved**.
    ///
    /// The arriving tuple's layout cells are symbolized once, straight
    /// into the resident row cache, and that cached row serves every
    /// group: group keys are `Copy` slot reads, and member, cover,
    /// constant-RHS and condition checks are word compares against the
    /// bound Σ's pinned constants — no string is hashed per group. The
    /// caller has type-checked `t`.
    fn insert_inner(&mut self, rel: RelId, t: Tuple) -> SigmaDelta {
        let mut delta = SigmaDelta::default();
        if !self
            .db
            .insert(rel, t.clone())
            .expect("the window was type-checked")
        {
            return delta;
        }
        let pos = self.db.relation(rel).len() - 1;
        let Self {
            validator,
            db,
            dict,
            cfd_indexes,
            cind_targets,
            cind_sources,
            live_cfd,
            live_cind,
            ids,
            sym_attrs,
            sym_rows,
            sigma,
            telemetry,
        } = self;
        delta.ids.born = Some(ids[rel.index()].alloc(pos));
        let attrs = &sym_attrs[rel.index()];
        debug_assert_eq!(sym_rows[rel.index()].len(), pos * attrs.len());
        sym_rows[rel.index()].extend(attrs.iter().map(|a| dict.acquire_sym(&t[*a])));
        let rows = Cells {
            rows: sym_rows,
            layout: sym_attrs,
        }
        .of(rel);
        let row = rows.row(pos);
        let mut key_buf: Vec<SymValue> = Vec::new();
        // Hot-loop accounting stays in a local; one flush at the end.
        let mut hash_probes = 0u64;

        // Target-role updates first, so a self-referential CIND can be
        // satisfied by the arriving tuple itself (batch semantics allow
        // t2 = t1) — and so resolution sees the pre-arrival emptiness.
        for (gi, (g, bg)) in validator.cind_groups().iter().zip(&sigma.cind).enumerate() {
            if g.rhs_rel != rel || !holds(&bg.yp, row) {
                continue;
            }
            key_from_slots(row, &bg.y, &mut key_buf);
            // One hash probe for the whole target-role step: the slot
            // handle answers emptiness and takes the insert.
            hash_probes += 1;
            let slot = cind_targets[gi].ensure_slot(&key_buf);
            let was_absent = !cind_targets[gi].occupied_at(slot);
            cind_targets[gi].insert_at(slot, pos as u32);
            if !was_absent {
                continue;
            }
            // First target with this key: every triggered source tuple
            // carrying it had a violation — all resolved now.
            for (m, sidx) in g.members.iter().zip(&cind_sources[gi]) {
                let cind = &validator.cinds()[m.idx];
                let source = db.relation(cind.lhs_rel());
                for &src in sidx.positions(&key_buf) {
                    let t1 = source.get(src as usize).expect("indexed position valid");
                    let payload = t1.project(cind.x());
                    for &cidx in &m.covers {
                        let v = (
                            cidx,
                            CindViolation {
                                tuple: src as usize,
                                key: payload.clone(),
                            },
                        );
                        let was_live = live_cind.remove(&v);
                        debug_assert!(was_live, "orphaned source must have been live");
                        delta.cind.resolved.push(v);
                    }
                }
            }
        }

        // CFD groups over this relation: check members, then join the
        // tuple's key group.
        for ((g, bg), idx) in validator
            .cfd_groups()
            .iter()
            .zip(&sigma.cfd)
            .zip(cfd_indexes.iter_mut())
        {
            if g.rel != rel {
                continue;
            }
            key_from_slots(row, &bg.key, &mut key_buf);
            // One hash probe per (mutation, group): the slot handle makes
            // every witness read and the final insert O(1), shared
            // across all wildcard members asking about this key.
            hash_probes += 1;
            let slot = idx.ensure_slot(&key_buf);
            for bm in &bg.members {
                if !bm.matches(&key_buf) {
                    continue;
                }
                let rhs = row[bm.rhs as usize];
                let violation = match bm.rhs_const {
                    Some(c) if rhs != c => validator.single_tuple(bm, pos, &t),
                    // Exactly the batch `wildcard_pairs` delta: the
                    // arriving tuple has the highest position, so it adds
                    // one pair iff its RHS differs from the group's first
                    // (lowest position) tuple.
                    None => match idx.min_at(slot) {
                        Some(first) if rows.at(first as usize, bm.rhs) != rhs => {
                            CfdViolation::Pair {
                                left: first as usize,
                                right: pos,
                            }
                        }
                        _ => continue,
                    },
                    _ => continue,
                };
                for cidx in bm.covers_at(&key_buf) {
                    delta.cfd.introduced.push((cidx, violation.clone()));
                }
            }
            idx.insert_at(slot, pos as u32);
        }

        // CIND source role: the new tuple must find a partner, and joins
        // its members' source indexes.
        for (gi, (g, bg)) in validator.cind_groups().iter().zip(&sigma.cind).enumerate() {
            for ((m, bm), sidx) in g
                .members
                .iter()
                .zip(&bg.members)
                .zip(cind_sources[gi].iter_mut())
            {
                let cind = &validator.cinds()[m.idx];
                if cind.lhs_rel() != rel || !holds(&bm.xp, row) {
                    continue;
                }
                key_from_slots(row, &bm.x, &mut key_buf);
                hash_probes += 2;
                sidx.insert_key(pos as u32, &key_buf);
                if !cind_targets[gi].contains_key(&key_buf) {
                    let payload = t.project(cind.x());
                    for &cidx in &m.covers {
                        delta.cind.introduced.push((
                            cidx,
                            CindViolation {
                                tuple: pos,
                                key: payload.clone(),
                            },
                        ));
                    }
                }
            }
        }

        live_cfd.extend(delta.cfd.introduced.iter().cloned());
        live_cind.extend(delta.cind.introduced.iter().cloned());
        telemetry.record_probes(hash_probes, 0, 0, 0);
        delta
    }

    /// The delete engine: the violations that disappear with the tuple,
    /// the violations its absence introduces (orphaned CIND sources,
    /// relabeled pair witnesses), and the swap renumbering
    /// ([`SigmaDelta::moved`]). `None` when the tuple is not present.
    /// The tuple's (and the moved tuple's) pre-symbolized rows come
    /// straight out of the resident row cache, and every check compares
    /// them with the bound Σ's symbols — no string is hashed here. The
    /// departed row's string cells are pushed onto `departed` for the
    /// window to release when it ends.
    fn delete_inner(
        &mut self,
        rel: RelId,
        t: &Tuple,
        departed: &mut Vec<SymValue>,
    ) -> Option<SigmaDelta> {
        let pos = self.db.relation(rel).position(t)?;
        let last = self.db.relation(rel).len() - 1;
        let moved: Option<Tuple> = (pos != last).then(|| {
            self.db
                .relation(rel)
                .get(last)
                .expect("last position valid")
                .clone()
        });
        let mut delta = SigmaDelta::default();
        let Self {
            validator,
            db,
            cfd_indexes,
            cind_targets,
            cind_sources,
            live_cfd,
            live_cind,
            ids,
            sym_attrs,
            sym_rows,
            sigma,
            telemetry,
            ..
        } = self;
        // Hot-loop accounting stays in locals; one flush at the end.
        let mut hash_probes = 0u64;
        let mut slot_probes = 0u64;
        let mut pair_fast = 0u64;
        let mut pair_recompute = 0u64;
        // The deleted and moved tuples' cached rows, copied out so the
        // cache itself can be mutated at the end of the deletion.
        let stride = sym_attrs[rel.index()].len();
        let rows = Rows {
            cells: &sym_rows[rel.index()],
            stride,
        };
        let row: Vec<SymValue> = rows.row(pos).to_vec();
        let row_m: Option<Vec<SymValue>> = moved.as_ref().map(|_| rows.row(last).to_vec());
        let row: &[SymValue] = &row;
        let mut key_buf: Vec<SymValue> = Vec::new();
        // Renumber for positions emitted *after* the swap.
        let renum = |p: u32| -> usize {
            if p as usize == last {
                pos
            } else {
                p as usize
            }
        };

        // ---- CFD groups: resolve the tuple's own singles, then settle
        // the affected key groups' pair witnesses.
        //
        // Pair fast path: a group's pairs all witness against its first
        // (lowest position) tuple, so deleting a *non-witness* tuple can
        // only remove its own pair, and a moved tuple that stays above
        // the witness only relabels its pair — both `O(1)` cell reads
        // after one read of the group minimum. Only when the witness
        // itself is deleted (or the moved tuple becomes the new witness)
        // does the group's pair set restructure; those rare scopes are
        // stashed for a full before/after recomputation.
        let mut scopes: Vec<PairScope> = Vec::new();
        let mut key_t: Vec<SymValue> = Vec::new();
        let mut key_m_buf: Vec<SymValue> = Vec::new();
        for (gi, ((g, bg), idx)) in validator
            .cfd_groups()
            .iter()
            .zip(&sigma.cfd)
            .zip(cfd_indexes.iter_mut())
            .enumerate()
        {
            if g.rel != rel {
                continue;
            }
            key_from_slots(row, &bg.key, &mut key_t);
            // Zero hash probes per (mutation, group): the index's
            // per-position slot record recovers the deleted tuple's
            // group directly, and the handle serves the witness read,
            // the pair-scope scans and the final removal.
            slot_probes += 1;
            let slot_t = idx
                .slot_of_pos(pos as u32)
                .expect("deleted tuple is indexed in every group of its relation");
            for bm in &bg.members {
                if bm.rhs_const.is_none_or(|c| row[bm.rhs as usize] == c) || !bm.matches(&key_t) {
                    continue;
                }
                let single = validator.single_tuple(bm, pos, t);
                for cidx in bm.covers_at(&key_t) {
                    let v = (cidx, single.clone());
                    let was_live = live_cfd.remove(&v);
                    debug_assert!(was_live, "deleted single must have been live");
                    delta.cfd.resolved.push(v);
                }
            }
            let key_m: Option<&[SymValue]> = match &row_m {
                Some(row_m) => {
                    key_from_slots(row_m, &bg.key, &mut key_m_buf);
                    Some(&key_m_buf)
                }
                None => None,
            };
            // The moved tuple's group likewise comes from the slot
            // record; distinct keys own distinct slots, so handle
            // equality is key equality.
            let slot_m: Option<u32> = row_m.as_ref().map(|_| {
                slot_probes += 1;
                idx.slot_of_pos(last as u32)
                    .expect("moved tuple is indexed in every group of its relation")
            });
            let same_key = slot_m == Some(slot_t);

            // The deleted tuple's key group.
            let fmin = idx.min_at(slot_t).expect("deleted tuple is in its group");
            if fmin as usize != pos {
                pair_fast += 1;
                // `pos` was not the witness (fmin < pos survives, and a
                // same-key moved tuple renumbers *above* fmin, since
                // pos > fmin). Resolve the deleted tuple's own pair and
                // relabel the moved tuple's, per matching member.
                let first = rows.row(fmin as usize);
                for bm in &bg.members {
                    if bm.rhs_const.is_some() || !bm.matches(&key_t) {
                        continue;
                    }
                    let rslot = bm.rhs as usize;
                    if first[rslot] != row[rslot] {
                        for cidx in bm.covers_at(&key_t) {
                            let v = (
                                cidx,
                                CfdViolation::Pair {
                                    left: fmin as usize,
                                    right: pos,
                                },
                            );
                            let was_live = live_cfd.remove(&v);
                            debug_assert!(was_live, "deleted pair must have been live");
                            delta.cfd.resolved.push(v);
                        }
                    }
                    // `same_key`: the moved tuple carries the same key,
                    // so it matches and fans out to the same covers. A
                    // pair exists exactly when it disagrees with the
                    // witness.
                    if same_key {
                        let rm = row_m.as_deref().expect("same_key implies a move");
                        if first[rslot] != rm[rslot] {
                            relabel_pairs(live_cfd, bm.covers_at(&key_t), fmin, last, pos);
                        }
                    }
                }
            } else if idx.positions_at(slot_t).len() > 1 {
                // The witness itself goes: the group's pairs
                // restructure. Stash the old pairs for recomputation.
                // (A singleton group has no pairs on either side of the
                // deletion — nothing to stash.)
                pair_recompute += 1;
                scopes.extend(stash_scope(bg, gi, idx, slot_t, rows, &key_t));
            }

            // The moved tuple's key group, when it is a different one.
            if let (Some(km), Some(sm), false) = (key_m, slot_m, same_key) {
                let fmin_m = idx.min_at(sm).expect("moved tuple is in its group");
                if (fmin_m as usize) < pos {
                    // Witness unchanged: the moved tuple's pair (if any)
                    // just renumbers `last` → `pos`. As above, a pair
                    // exists exactly when the moved tuple disagrees with
                    // its witness.
                    let first_m = rows.row(fmin_m as usize);
                    let rm = row_m.as_deref().expect("moved tuple has a cached row");
                    for bm in &bg.members {
                        let rslot = bm.rhs as usize;
                        if bm.rhs_const.is_some() || first_m[rslot] == rm[rslot] || !bm.matches(km)
                        {
                            continue;
                        }
                        relabel_pairs(live_cfd, bm.covers_at(km), fmin_m, last, pos);
                    }
                } else if idx.positions_at(sm).len() > 1 {
                    // The moved tuple lands *below* the group's old
                    // witness and becomes the new one: restructure
                    // (skipped for a singleton group — no pairs).
                    pair_recompute += 1;
                    scopes.extend(stash_scope(bg, gi, idx, sm, rows, km));
                }
            }

            idx.remove_at(slot_t, pos as u32);
            if let Some(sm) = slot_m {
                idx.replace_at(sm, last as u32, pos as u32);
            }
        }

        // ---- CIND source role of the deleted tuple (before its target
        // role, so a self-partnered tuple is not counted as orphaned).
        for (gi, (g, bg)) in validator.cind_groups().iter().zip(&sigma.cind).enumerate() {
            for ((m, bm), sidx) in g
                .members
                .iter()
                .zip(&bg.members)
                .zip(cind_sources[gi].iter_mut())
            {
                let cind = &validator.cinds()[m.idx];
                if cind.lhs_rel() != rel || !holds(&bm.xp, row) {
                    continue;
                }
                key_from_slots(row, &bm.x, &mut key_buf);
                slot_probes += 1;
                hash_probes += 1;
                let slot = sidx
                    .slot_of_pos(pos as u32)
                    .expect("triggered source is indexed");
                sidx.remove_at(slot, pos as u32);
                if !cind_targets[gi].contains_key(&key_buf) {
                    let payload = t.project(cind.x());
                    for &cidx in &m.covers {
                        let v = (
                            cidx,
                            CindViolation {
                                tuple: pos,
                                key: payload.clone(),
                            },
                        );
                        let was_live = live_cind.remove(&v);
                        debug_assert!(was_live, "deleted orphan must have been live");
                        delta.cind.resolved.push(v);
                    }
                }
            }
        }

        // ---- CIND target role of the deleted tuple: removing the last
        // partner with a key orphans every triggered source carrying it.
        for (gi, (g, bg)) in validator.cind_groups().iter().zip(&sigma.cind).enumerate() {
            if g.rhs_rel != rel || !holds(&bg.yp, row) {
                continue;
            }
            // Probe-free: the slot record serves the removal and the
            // became-empty check; the key is only materialized on the
            // rare orphaning path below.
            slot_probes += 1;
            let slot = cind_targets[gi]
                .slot_of_pos(pos as u32)
                .expect("deleted target is indexed");
            cind_targets[gi].remove_at(slot, pos as u32);
            if cind_targets[gi].occupied_at(slot) {
                continue;
            }
            key_from_slots(row, &bg.y, &mut key_buf);
            for (m, sidx) in g.members.iter().zip(&cind_sources[gi]) {
                let cind = &validator.cinds()[m.idx];
                let source = db.relation(cind.lhs_rel());
                // The swap renumbering only concerns the deleted tuple's
                // relation — source positions elsewhere are stable.
                let same_rel = cind.lhs_rel() == rel;
                for &src in sidx.positions(&key_buf) {
                    let t1 = source.get(src as usize).expect("indexed position valid");
                    let tuple = if same_rel { renum(src) } else { src as usize };
                    let payload = t1.project(cind.x());
                    for &cidx in &m.covers {
                        let v = (
                            cidx,
                            CindViolation {
                                tuple,
                                key: payload.clone(),
                            },
                        );
                        live_cind.insert(v.clone());
                        delta.cind.introduced.push(v);
                    }
                }
            }
        }

        // ---- Renumber the moved tuple's per-tuple violations and its
        // index entries in the CIND tiers (CFD tiers were renumbered
        // above; pair relabeling happens in the recomputation below).
        if let Some(mt) = &moved {
            let row_m = row_m.as_deref().expect("moved tuple has a cached row");
            for (g, bg) in validator.cfd_groups().iter().zip(&sigma.cfd) {
                if g.rel != rel {
                    continue;
                }
                key_from_slots(row_m, &bg.key, &mut key_buf);
                for bm in &bg.members {
                    if bm.rhs_const.is_none_or(|c| row_m[bm.rhs as usize] == c)
                        || !bm.matches(&key_buf)
                    {
                        continue;
                    }
                    for cidx in bm.covers_at(&key_buf) {
                        if live_cfd.remove(&(cidx, validator.single_tuple(bm, last, mt))) {
                            live_cfd.insert((cidx, validator.single_tuple(bm, pos, mt)));
                        }
                    }
                }
            }
            for (gi, (g, bg)) in validator.cind_groups().iter().zip(&sigma.cind).enumerate() {
                for ((m, bm), sidx) in g
                    .members
                    .iter()
                    .zip(&bg.members)
                    .zip(cind_sources[gi].iter_mut())
                {
                    let cind = &validator.cinds()[m.idx];
                    if cind.lhs_rel() != rel || !holds(&bm.xp, row_m) {
                        continue;
                    }
                    slot_probes += 1;
                    let slot = sidx
                        .slot_of_pos(last as u32)
                        .expect("triggered source is indexed");
                    sidx.replace_at(slot, last as u32, pos as u32);
                    let payload = mt.project(cind.x());
                    for &cidx in &m.covers {
                        let old = (
                            cidx,
                            CindViolation {
                                tuple: last,
                                key: payload.clone(),
                            },
                        );
                        if live_cind.remove(&old) {
                            live_cind.insert((
                                cidx,
                                CindViolation {
                                    tuple: pos,
                                    key: payload.clone(),
                                },
                            ));
                        }
                    }
                }
                // `slot_of_pos` hits exactly when the moved tuple passed
                // the Yp filter at insert — no pattern re-scan needed.
                if g.rhs_rel == rel {
                    slot_probes += 1;
                    if let Some(slot) = cind_targets[gi].slot_of_pos(last as u32) {
                        cind_targets[gi].replace_at(slot, last as u32, pos as u32);
                    }
                }
            }
        }

        // ---- Remove from the database (the swap happens here); the id
        // map mirrors it.
        let removed = db.remove_at(rel, pos).expect("position was just resolved");
        debug_assert_eq!(removed.pos, pos);
        debug_assert_eq!(removed.moved_from, moved.as_ref().map(|_| last));
        // Mirror the swap into the resident row cache (`pos == last`
        // degenerates to a plain truncation).
        let srows = &mut sym_rows[rel.index()];
        for i in 0..stride {
            srows[pos * stride + i] = srows[last * stride + i];
        }
        srows.truncate(last * stride);
        departed.extend(row.iter().filter(|c| matches!(c, SymValue::Str(_))));
        let (retired, moved_id) = ids[rel.index()].remove_swap(pos);
        delta.ids.retired = Some(retired);
        delta.ids.moved = moved_id;

        // ---- Recompute the affected key groups' pairs against the
        // final state and swap them into the live set; only genuine
        // differences surface in the delta.
        let rows = Rows {
            cells: &sym_rows[rel.index()],
            stride,
        };
        for scope in scopes {
            let idx = &cfd_indexes[scope.group];
            debug_assert!(
                idx.occupied_at(scope.slot),
                "a stashed pair scope's group keeps a tuple"
            );
            for (rhs, covers, old) in scope.members {
                let new = group_pairs(rows, rhs, idx.positions_at(scope.slot).to_vec());
                let old_set: HashSet<(usize, usize), FxBuildHasher> = old.iter().copied().collect();
                let new_set: HashSet<(usize, usize), FxBuildHasher> = new.iter().copied().collect();
                for &(left, right) in &old {
                    for &cidx in &covers {
                        live_cfd.remove(&(cidx, CfdViolation::Pair { left, right }));
                        if !new_set.contains(&(left, right)) {
                            delta
                                .cfd
                                .resolved
                                .push((cidx, CfdViolation::Pair { left, right }));
                        }
                    }
                }
                for &(left, right) in &new {
                    for &cidx in &covers {
                        live_cfd.insert((cidx, CfdViolation::Pair { left, right }));
                        if !old_set.contains(&(left, right)) {
                            delta
                                .cfd
                                .introduced
                                .push((cidx, CfdViolation::Pair { left, right }));
                        }
                    }
                }
            }
        }

        delta.moved = moved.map(|_| MovedTuple {
            rel,
            from: last,
            to: pos,
        });
        telemetry.record_probes(hash_probes, slot_probes, pair_fast, pair_recompute);
        Some(delta)
    }

    /// Applies one value-level [`Mutation`] as a window of one
    /// ([`ValidatorStream::apply_deltas`]), returning its non-empty
    /// deltas **and** the inverse mutation ([`Applied::revert`]) that
    /// restores the pre-mutation tuple set, read off the deltas' ids. A
    /// no-op (inserting a resident tuple, deleting or updating an absent
    /// one, `old == new`) returns an empty [`Applied`] with
    /// `revert: None`.
    ///
    /// An update whose `new` tuple already resides in the relation
    /// degenerates to a deletion of `old` (set semantics merge the two);
    /// its revert is the re-insertion of `old`, **not** a deletion of the
    /// pre-existing `new`.
    pub fn apply(&mut self, m: Mutation) -> Result<Applied, ModelError> {
        let mut deltas = self.apply_deltas(std::slice::from_ref(&m))?;
        let revert = match m {
            Mutation::Insert { rel, tuple } => {
                deltas[0].ids.born.map(|_| Mutation::Delete { rel, tuple })
            }
            Mutation::Delete { rel, tuple } => deltas[0]
                .ids
                .retired
                .map(|_| Mutation::Insert { rel, tuple }),
            Mutation::Update { rel, old, new } => match (deltas[0].ids.retired, deltas[1].ids.born)
            {
                (None, _) => None,
                // Merged into the resident `new`, which predates the
                // mutation and must survive the revert.
                (Some(_), None) => Some(Mutation::Insert { rel, tuple: old }),
                (Some(_), Some(_)) => Some(Mutation::Update {
                    rel,
                    old: new,
                    new: old,
                }),
            },
        };
        deltas.retain(|d| d.ids != IdDelta::default());
        Ok(Applied { deltas, revert })
    }

    /// Replays the inverse mutation of an [`Applied`] — the retraction
    /// half of the apply → inspect delta → keep-or-roll-back loop. The
    /// returned deltas mirror the original's (resolved and introduced
    /// swap roles, modulo position relabeling) and must still be consumed
    /// by any delta-maintained state.
    pub fn revert(&mut self, revert: Mutation) -> Result<Applied, ModelError> {
        let applied = self.apply(revert)?;
        debug_assert!(
            !applied.is_noop(),
            "reverting an applied mutation cannot be a no-op"
        );
        Ok(applied)
    }

    /// Applies a window of value-level [`Mutation`]s in order — the
    /// stream's one mutation entry — so `current_report()` equals a fresh
    /// batch sweep after every window.
    ///
    /// The output has a fixed shape: one delta per insert or delete and
    /// two per update (its delete, then its insert), in mutation order,
    /// so `deltas.len()` is `muts.len()` plus the number of updates. A
    /// mutation that changed nothing (inserting a resident tuple,
    /// deleting an absent one, updating an absent one, `old == new`) gets
    /// `SigmaDelta::default()`, as does the insert half of an update
    /// whose `new` already resides (set semantics merge the two). A
    /// delta carries [`IdDelta::born`] iff its insert took effect and
    /// [`IdDelta::retired`] iff its delete did.
    ///
    /// What keeps a window cheap:
    ///
    /// * **one symbolization per arriving tuple** — its layout cells
    ///   are symbolized once, into the row cache, instead of once per
    ///   constraint group;
    /// * **grouped key translation** — per `(relation, LHS set)` group,
    ///   keys are `Copy` slot reads out of the cached row and member
    ///   matching is a word compare, with no string hashed anywhere in
    ///   the per-group work;
    /// * **at most one probe per touched key group** — the group's pair
    ///   witness is looked up once and shared across all its wildcard
    ///   members (deletes resolve their groups probe-free through the
    ///   index's per-position slot records).
    ///
    /// The whole window is type-checked first: every mutation must name
    /// a relation of the schema ([`ModelError::RelOutOfRange`] otherwise)
    /// and every arriving tuple must be well-typed for it. An ill-typed
    /// mutation returns the error with **nothing** applied.
    pub fn apply_deltas(&mut self, muts: &[Mutation]) -> Result<Vec<SigmaDelta>, ModelError> {
        self.check_mutations(muts)?;
        let window = self.telemetry.start_window();
        // Apply in order through the row-fed engine. Presence checks
        // happen here, against the evolving database, so intra-window
        // interactions (insert then delete, merging updates) resolve
        // exactly as they would one window at a time.
        let updates = muts
            .iter()
            .filter(|m| matches!(m, Mutation::Update { .. }))
            .count();
        let mut out = Vec::with_capacity(muts.len() + updates);
        let mut noops = 0;
        let mut departed: Vec<SymValue> = Vec::new();
        for m in muts {
            match m {
                Mutation::Insert { rel, tuple } => {
                    let d = self.insert_inner(*rel, tuple.clone());
                    noops += d.ids.born.is_none() as u64;
                    out.push(d);
                }
                Mutation::Delete { rel, tuple } => {
                    let d = self.delete_inner(*rel, tuple, &mut departed);
                    noops += d.is_none() as u64;
                    out.push(d.unwrap_or_default());
                }
                Mutation::Update { rel, old, new } => {
                    let deleted = if old == new {
                        None
                    } else {
                        self.delete_inner(*rel, old, &mut departed)
                    };
                    // The insert half runs only once the delete took
                    // effect; a resident `new` makes it the empty delta.
                    let inserted = match deleted {
                        Some(_) => self.insert_inner(*rel, new.clone()),
                        None => SigmaDelta::default(),
                    };
                    noops += deleted.is_none() as u64;
                    out.push(deleted.unwrap_or_default());
                    out.push(inserted);
                }
            }
        }
        // The departed rows let go of their strings last: one that came
        // back within the window kept its symbol throughout.
        for cell in departed {
            self.dict.release_sym(cell);
        }
        self.telemetry.record_window(window, &out, noops);
        Ok(out)
    }

    /// Type-checks a window without applying any of it — the pre-check
    /// [`ValidatorStream::apply_deltas`] runs before touching anything.
    fn check_mutations(&self, muts: &[Mutation]) -> Result<(), ModelError> {
        for m in muts {
            match m {
                Mutation::Insert { rel, tuple } => self.db.check_tuple(*rel, tuple)?,
                Mutation::Update { rel, new, .. } => self.db.check_tuple(*rel, new)?,
                Mutation::Delete { rel, .. } => {
                    self.db.schema().relation(*rel)?;
                }
            }
        }
        Ok(())
    }

    /// The **violation class** of compiled CFD `cfd_idx` around tuple `t`:
    /// the dense positions (ascending) of every resident tuple that
    /// matches the CFD's LHS pattern and agrees with `t` on the LHS
    /// attributes — the equivalence class over which a wildcard-RHS
    /// conflict must be settled, read from the live group index at
    /// key-group cost. Empty when `t` does not match the pattern or
    /// carries a key no resident tuple holds, when no compiled member
    /// evaluates the CFD (retired, cover-dropped, or an index the suite
    /// never assigned), and when `t`'s arity is not that of the CFD's
    /// relation.
    pub fn cfd_violation_class(&self, cfd_idx: usize, t: &Tuple) -> Vec<usize> {
        let Some((gi, mi, ci)) = self.validator.cfd_slot(cfd_idx) else {
            return Vec::new();
        };
        let g = &self.validator.cfd_groups()[gi];
        let schema = self.db.schema();
        if !schema.relation(g.rel).is_ok_and(|r| r.arity() == t.arity()) {
            return Vec::new();
        }
        let mut key = Vec::with_capacity(g.attrs.len());
        for a in &g.attrs {
            match self.dict.sym_value(&t[*a]) {
                Some(s) => key.push(s),
                None => return Vec::new(),
            }
        }
        // Match against this original's own pattern, not the member's
        // probe: a merged cover can be strictly more specific.
        if !cover_key_matches(&self.sigma.cfd[gi].members[mi].covers[ci].1, &key) {
            return Vec::new();
        }
        // Every resident under the key agrees with `t` on `g.attrs`, the
        // only attributes the pattern constrains: all of them match.
        let mut out: Vec<usize> = self.cfd_indexes[gi]
            .positions(&key)
            .iter()
            .map(|&p| p as usize)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{prow, tuple, Domain, PValue, Schema, Value};
    use std::sync::Arc;

    /// Promotions splice into live groups whose storage churn has left
    /// out of position order. The newcomers' violations must still be
    /// exactly the batch report's, every pair witnessed by its key
    /// group's lowest position rather than the first one stored.
    #[test]
    fn promotions_into_churned_groups_match_a_fresh_sweep() {
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::string()),
                        ("b", Domain::string()),
                        ("c", Domain::string()),
                    ],
                )
                .relation("s", &[("d", Domain::string())])
                .finish(),
        );
        let (r, s) = (schema.rel_id("r").unwrap(), schema.rel_id("s").unwrap());
        let a_to_c = NormalCfd::parse(&schema, "r", &["a"], prow![_], "c", PValue::Any).unwrap();
        let a_in_s = NormalCind::parse(&schema, "r", &["a"], &[], "s", &["d"], &[]).unwrap();
        let mut db = Database::empty(schema.clone());
        for [a, b, c] in [
            ["x", "b0", "c0"],
            ["y", "b0", "c0"],
            ["k", "b1", "c0"],
            ["k", "b2", "c0"],
            ["k", "b3", "c1"],
        ] {
            db.insert_into("r", tuple![a, b, c]).unwrap();
        }
        for d in ["k", "b1", "x"] {
            db.insert_into("s", tuple![d]).unwrap();
        }
        let v = Validator::new(vec![a_to_c], vec![a_in_s]);
        let (mut stream, _) = ValidatorStream::new_validated(v, db);

        // Swap-deleting position 0 renumbers the last tuple, (k, b3),
        // into it in place inside k's segment; the insert of (k, b4)
        // then grows that segment at the tail of the index's storage,
        // and y's full segment moves behind it for (y, b5). The target
        // group churns too.
        let ins = |rel, tuple| Mutation::Insert { rel, tuple };
        let del = |rel, tuple| Mutation::Delete { rel, tuple };
        stream
            .apply_deltas(&[
                del(r, tuple!["x", "b0", "c0"]),
                ins(r, tuple!["k", "b4", "c0"]),
                ins(r, tuple!["y", "b5", "c0"]),
                del(s, tuple!["k"]),
                ins(s, tuple!["b2"]),
                ins(s, tuple!["k"]),
            ])
            .unwrap();
        let k = [stream.dict.sym_value(&Value::str("k")).unwrap()];
        let stored = stream.cfd_indexes[0].positions(&k).to_vec();
        let lowest = *stored.iter().min().unwrap();
        assert_ne!(
            stored[0], lowest,
            "k's group must be out of order: {stored:?}"
        );

        // An `a → b` FD and a constant row on `a` join the `a` group; a
        // CIND joins the existing `s[d]` target group.
        let a_to_b = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        let k_to_b1 = NormalCfd::parse(
            &schema,
            "r",
            &["a"],
            prow!["k"],
            "b",
            PValue::constant("b1"),
        )
        .unwrap();
        let b_in_s = NormalCind::parse(&schema, "r", &["b"], &[], "s", &["d"], &[]).unwrap();
        let promoted = stream.add_dependencies(vec![a_to_b, k_to_b1], vec![b_in_s]);
        assert_eq!(stream.validator().cfd_groups().len(), 1);
        assert_eq!(stream.validator().cind_groups().len(), 1);

        let fresh = stream.validator().validate_sorted(stream.db());
        let newcomers = SigmaReport {
            cfd: fresh.cfd.iter().filter(|(i, _)| *i >= 1).cloned().collect(),
            cind: fresh
                .cind
                .iter()
                .filter(|(i, _)| *i >= 1)
                .cloned()
                .collect(),
        };
        assert_eq!(promoted, newcomers);
        assert_eq!(stream.current_report(), fresh);

        let rel = stream.db().relation(r);
        let a = AttrId(0);
        let mut pairs = 0;
        for (_, v) in &promoted.cfd {
            if let CfdViolation::Pair { left, right } = v {
                let key = &rel.get(*right).unwrap()[a];
                let group_min = (0..rel.len())
                    .find(|&p| &rel.get(p).unwrap()[a] == key)
                    .unwrap();
                assert_eq!(*left, group_min, "pair ({left}, {right})");
                pairs += 1;
            }
        }
        assert_eq!(pairs, 4, "{promoted:?}");
        assert!(promoted.cfd.contains(&(
            1,
            CfdViolation::Pair {
                left: lowest as usize,
                right: 2
            }
        )));
        assert_eq!(promoted.cind.len(), 4, "{promoted:?}");
    }

    /// The id lookups answer `None` for a relation outside the schema
    /// instead of indexing past the per-relation id maps.
    #[test]
    fn id_lookups_on_an_out_of_range_relation_return_none() {
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::string())])
                .finish(),
        );
        let mut db = Database::empty(schema.clone());
        db.insert_into("r", tuple!["x"]).unwrap();
        let (stream, _) = ValidatorStream::new_validated(Validator::new(vec![], vec![]), db);
        let r = schema.rel_id("r").unwrap();
        let id = stream.tuple_id_at(r, 0).expect("seeded tuple");
        assert_eq!(stream.tuple_by_id(r, id), Some(&tuple!["x"]));
        let missing = RelId(schema.len() as u32);
        assert_eq!(stream.tuple_id_at(missing, 0), None);
        assert_eq!(stream.position_of(missing, id), None);
        assert_eq!(stream.tuple_by_id(missing, id), None);
    }
}
