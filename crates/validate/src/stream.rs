//! Incremental (streaming) validation with deletions and retraction.
//!
//! A [`ValidatorStream`] owns a database plus the live group-by indexes
//! of a compiled [`Validator`] and maintains the **materialized
//! violation set** of the evolving database. Every mutation —
//! [`ValidatorStream::insert_tuple`], [`ValidatorStream::delete_tuple`],
//! [`ValidatorStream::update_tuple`] — returns a [`SigmaDelta`]: the
//! violations it *introduced* and the violations it *resolved*
//! (retraction), in time proportional to the constraint groups and key
//! groups the mutated tuple touches, never to the database.
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
//!   the resident row cache, then runs the batch sweep's own group
//!   tasks in keep mode over those rows, striped across threads on
//!   large instances: each builds its group's live index from the
//!   cached symbols and reads the group's seed violations off it. No
//!   column copy is made, and the interner holds only strings of
//!   columns Σ reads.
//! * **resident row cache** — every resident tuple's layout cells
//!   (group keys, CFD member RHS attributes **and** CIND condition
//!   columns) are cached row-major per relation, mirrored through the
//!   same swap-remove discipline as the relation; an arriving tuple's
//!   cells are interned once. Deletes read their rows from the cache —
//!   no string is hashed through the interner anywhere on the delete
//!   path — and [`ValidatorStream::add_dependencies`] keys the indexes
//!   it splices in from it.
//! * **at most one probe per (mutation, group)** — on insert,
//!   [`condep_query::SymIndex`] slot handles (`ensure_slot`) resolve
//!   the tuple's key group once; on delete, the index's per-position
//!   slot record (`slot_of_pos`) recovers the deleted *and* moved
//!   tuples' groups with **zero** hash probes. Either way the witness
//!   read (`min_at`), membership scans (`positions_at`) and the final
//!   insert/remove/relabel (`insert_at`/`remove_at`/`replace_at`) are
//!   all `O(1)` against the handle, shared across every member asking
//!   about that key.
//! * **symbol compares everywhere** — member-pattern matching and
//!   pair-witness RHS agreement are word compares between cached
//!   symbols ([`SymValue`]), never tuple-value compares; the database
//!   tuple is only touched to build violation payloads on emission.
//!
//! ## Long-lived streams
//!
//! Three pieces make the stream safe to keep open for the life of a
//! monitored database:
//!
//! * **stable tuple ids** — every resident tuple carries a
//!   [`condep_model::TupleId`] ([`ValidatorStream::tuple_id_at`] /
//!   [`ValidatorStream::position_of`]), allocated once and maintained
//!   through every swap, so consumers can address violations and fixes
//!   without replaying [`MovedTuple`] renumbering (each delta's
//!   [`IdDelta`] reports what was born, retired and moved);
//! * **batched mutations** — [`ValidatorStream::apply_deltas`]
//!   symbolizes a whole batch through one interner pass and translates
//!   keys per `(relation, LHS set)` group from pre-built rows,
//!   amortizing the dominant per-mutation delta cost;
//! * **full compaction** — [`ValidatorStream::compact`] drops emptied
//!   key groups and rebuilds the interner over live symbols only (the
//!   dead-strings leak is closed; see [`CompactionStats`] for what was
//!   reclaimed), all without disturbing live keys, violations or held
//!   ids.

use crate::telemetry::{MutKind, StreamTelemetry};
use crate::validator::{Cells, CfdGroup, CfdMember, SigmaReport, Validator};
use condep_cfd::{CfdDelta, CfdViolation, NormalCfd};
use condep_core::{CindDelta, CindViolation, NormalCind};
use condep_model::fxhash::FxBuildHasher;
use condep_model::{
    AttrId, Database, Interner, ModelError, RelId, Relation, Sym, SymValue, Tuple, TupleId,
    TupleIdMap, Value,
};
use condep_query::SymIndex;
use condep_telemetry::{SpanTimer, Stopwatch};
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

/// A CFD member's LHS pattern translated to interned symbols, aligned
/// with the group's sorted attribute list (`None` cell = wildcard). A
/// member whose pattern carries a string the interner has never seen is
/// stored as the outer `None`: no interned tuple can match it (yet).
type MemberSyms = Option<Box<[Option<SymValue>]>>;

/// A validator with materialized state for one evolving database.
#[derive(Clone, Debug)]
pub struct ValidatorStream {
    validator: Validator,
    db: Database,
    interner: Interner,
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
    /// interner.
    sym_rows: Vec<Vec<SymValue>>,
    /// Per CFD group: each key attribute's slot in its relation's
    /// symbolized row.
    cfd_group_slots: Vec<Vec<u32>>,
    /// Per CFD group, per member: the member's RHS attribute's slot in
    /// its relation's symbolized row — pair-witness agreement is a
    /// symbol compare between cached rows, never a tuple-value compare.
    cfd_rhs_slots: Vec<Vec<u32>>,
    /// Per CIND group: the `Y` attributes' slots in the target
    /// relation's row.
    cind_y_slots: Vec<Vec<u32>>,
    /// Per CIND group, per member: the `x_perm` attributes' slots in the
    /// source relation's row.
    cind_x_slots: Vec<Vec<Vec<u32>>>,
    /// Per CFD group, per member: the LHS pattern in interned-symbol
    /// form — the batch path's word-compare fast path for member
    /// matching.
    member_syms: Vec<Vec<MemberSyms>>,
    /// `interner.len()` when `member_syms` was last refreshed.
    member_syms_gen: usize,
    /// How many members are still untranslated (unknown constants).
    member_syms_pending: usize,
    /// The stream's instrument panel: latency histograms, hot-path
    /// counters and the bounded activity journal. Private per stream;
    /// cloning a stream starts fresh telemetry (see
    /// [`StreamTelemetry`]'s `Clone`).
    telemetry: StreamTelemetry,
}

/// Copies a group key out of a pre-symbolized row.
fn key_from_slots(row: &[SymValue], slots: &[u32], buf: &mut Vec<SymValue>) {
    buf.clear();
    buf.extend(slots.iter().map(|&s| row[s as usize]));
}

/// Symbolizes every tuple of `inst` over `attrs` into one row-major
/// block, interning new strings — the row cache's layout.
fn cache_rows(interner: &mut Interner, inst: &Relation, attrs: &[AttrId]) -> Vec<SymValue> {
    let mut rows = Vec::with_capacity(inst.len() * attrs.len());
    for t in inst.iter() {
        rows.extend(attrs.iter().map(|a| interner.intern_value(&t[*a])));
    }
    rows
}

/// Sym-space member matching: the pattern cells against the tuple's
/// already-built group key (member patterns only constrain the group's
/// key attributes, so the key projection is all that matters).
fn member_matches_sym(pat: &MemberSyms, key: &[SymValue]) -> bool {
    match pat {
        None => false,
        Some(cells) => cells
            .iter()
            .zip(key)
            .all(|(p, k)| p.is_none_or(|p| p == *k)),
    }
}

/// Translates one member's LHS pattern into symbols; `None` when a
/// pattern constant is a string the interner has never seen.
fn translate_member(interner: &Interner, m: &CfdMember) -> MemberSyms {
    m.pattern
        .iter()
        .map(|cell| match cell {
            None => Some(None),
            Some(v) => interner.sym_value(v).map(Some),
        })
        .collect::<Option<Vec<_>>>()
        .map(Vec::into_boxed_slice)
}

/// Batch `wildcard_pairs` over one live key group: sorts the positions
/// so the witness is the group's lowest position (the canonical batch
/// order), reading RHS values through the database.
fn group_pairs(rel_inst: &Relation, rhs: AttrId, mut positions: Vec<u32>) -> Vec<(usize, usize)> {
    positions.sort_unstable();
    crate::validator::wildcard_pairs_by(positions.iter().copied(), |p| {
        &rel_inst.get(p as usize).expect("indexed position valid")[rhs]
    })
}

/// Does an LHS pattern (aligned with `attrs`) match the tuple?
fn pattern_matches(attrs: &[AttrId], pat: &[Option<Value>], t: &Tuple) -> bool {
    attrs
        .iter()
        .zip(pat.iter())
        .all(|(a, p)| p.as_ref().is_none_or(|p| p == &t[*a]))
}

/// Does a compiled member's probe (most general) pattern match the
/// tuple?
fn member_matches(g: &CfdGroup, m: &CfdMember, t: &Tuple) -> bool {
    pattern_matches(&g.attrs, &m.pattern, t)
}

/// Collects into `buf` the original-Σ CFD indices a matched member's
/// violations fan out to, for the key group `t` belongs to. The
/// representative (`covers[0]`) always applies — its pattern is the
/// probe that just matched; a merged cover applies iff its own (more
/// specific) pattern also matches. Patterns only constrain the group's
/// key attributes, so any tuple carrying the key decides applicability
/// for the whole key group.
fn applicable_covers(g: &CfdGroup, m: &CfdMember, t: &Tuple, buf: &mut Vec<usize>) {
    buf.clear();
    buf.push(m.covers[0].idx);
    for c in &m.covers[1..] {
        if pattern_matches(&g.attrs, &c.pattern, t) {
            buf.push(c.idx);
        }
    }
}

/// Translates the projection of a tuple whose key cells are **already
/// interned** (every key projection is interned on insert; see
/// [`intern_key`]).
fn sym_key(interner: &Interner, t: &Tuple, attrs: &[AttrId], buf: &mut Vec<SymValue>) {
    buf.clear();
    buf.extend(attrs.iter().map(|a| {
        interner
            .sym_value(&t[*a])
            .expect("key projections of stream tuples are interned")
    }));
}

/// What one [`ValidatorStream::compact`] call reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Emptied `SymIndex` key groups dropped across every live index
    /// tier (CFD group indexes, CIND target indexes, reverse CIND
    /// source indexes).
    pub key_groups_dropped: usize,
    /// Key groups still live after compaction, summed over the same
    /// tiers.
    pub key_groups_live: usize,
    /// Distinct interned strings before the interner rebuild.
    pub interned_strings_before: usize,
    /// Distinct interned strings after — exactly the strings still
    /// reachable from some live index key.
    pub interned_strings_after: usize,
    /// String payload bytes held before the rebuild.
    pub interned_bytes_before: usize,
    /// String payload bytes still held after.
    pub interned_bytes_after: usize,
}

impl CompactionStats {
    /// Interned strings the rebuild dropped.
    pub fn interned_strings_dropped(&self) -> usize {
        self.interned_strings_before - self.interned_strings_after
    }

    /// String payload bytes the rebuild reclaimed.
    pub fn interned_bytes_reclaimed(&self) -> usize {
        self.interned_bytes_before - self.interned_bytes_after
    }
}

impl condep_telemetry::Export for CompactionStats {
    fn export(&self, prefix: &str, out: &mut condep_telemetry::MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("key_groups_dropped"), self.key_groups_dropped as u64);
        out.counter(k("key_groups_live"), self.key_groups_live as u64);
        out.counter(
            k("interned_strings_before"),
            self.interned_strings_before as u64,
        );
        out.counter(
            k("interned_strings_after"),
            self.interned_strings_after as u64,
        );
        out.counter(
            k("interned_bytes_before"),
            self.interned_bytes_before as u64,
        );
        out.counter(k("interned_bytes_after"), self.interned_bytes_after as u64);
        out.counter(
            k("interned_bytes_reclaimed"),
            self.interned_bytes_reclaimed() as u64,
        );
    }
}

/// One scoped member of a [`PairScope`]: `(member slot, applicable
/// original-Σ indices, old pairs)`, computed from the pre-deletion
/// state. The cover fan-out is stashed alongside because applicability
/// is a key-group property and the scoped tuple may be gone by
/// recomputation time.
type ScopedMember = (usize, Vec<usize>, Vec<(usize, usize)>);

/// One affected `(group, key)` pair-recomputation scope of a deletion.
/// The key group is held as its [`SymIndex`] slot handle — stable across
/// the removals between stash and recomputation.
struct PairScope {
    group: usize,
    slot: u32,
    /// The wildcard members matching the key, with their old pairs.
    members: Vec<ScopedMember>,
}

/// Collects the wildcard members matching the scoped tuple (through
/// `matches`, which sees each member's slot) together with their current
/// (pre-mutation) pair sets — the "before" side of a witness-restructure
/// scope. `None` when no member is affected.
fn stash_scope(
    g: &CfdGroup,
    group: usize,
    idx: &SymIndex,
    slot: u32,
    rel_inst: &Relation,
    scoped: &Tuple,
    matches: impl Fn(usize, &CfdMember) -> bool,
) -> Option<PairScope> {
    let mut members = Vec::new();
    let mut cov_buf: Vec<usize> = Vec::new();
    for (ms, m) in g.members.iter().enumerate() {
        if m.rhs_const.is_some() || !matches(ms, m) {
            continue;
        }
        applicable_covers(g, m, scoped, &mut cov_buf);
        let old = group_pairs(rel_inst, m.rhs, idx.positions_at(slot).collect());
        members.push((ms, cov_buf.clone(), old));
    }
    (!members.is_empty()).then_some(PairScope {
        group,
        slot,
        members,
    })
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
    /// into the resident row cache, then runs every group task in keep
    /// mode over those rows (the batch sweep's tasks, striped across
    /// threads above its size threshold) to build each group's live
    /// index and read its violations.
    fn materialize(validator: Validator, db: Database) -> (Self, SigmaReport) {
        let build_clock = Stopwatch::start();
        let sym_attrs = validator.sym_layout(db.schema().len());
        let mut interner = Interner::new();
        let sym_rows: Vec<Vec<SymValue>> = db
            .iter()
            .map(|(r, inst)| cache_rows(&mut interner, inst, &sym_attrs[r.index()]))
            .collect();
        let cells = Cells::Rows {
            rows: &sym_rows,
            layout: &sym_attrs,
        };
        let mut report = SigmaReport::default();
        let (mut cfd_indexes, mut cind_sources) = (Vec::new(), Vec::new());
        for build in validator.build_groups(&db, &interner, &cells, true, None) {
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
            interner,
            cfd_indexes,
            cind_targets,
            cind_sources,
            live_cfd,
            live_cind,
            ids,
            sym_attrs,
            sym_rows,
            cfd_group_slots: Vec::new(),
            cfd_rhs_slots: Vec::new(),
            cind_y_slots: Vec::new(),
            cind_x_slots: Vec::new(),
            member_syms: Vec::new(),
            member_syms_gen: 0,
            member_syms_pending: 0,
            telemetry: StreamTelemetry::new(),
        };
        stream.refresh_slots();
        stream
            .telemetry
            .materialize_us
            .record_us(build_clock.elapsed_us());
        (stream, report)
    }

    /// The stream's instrument panel: latency distributions, hot-path
    /// counters and the recent-activity journal.
    pub fn telemetry(&self) -> &StreamTelemetry {
        &self.telemetry
    }

    /// Rebounds the telemetry journal to keep the newest `capacity`
    /// events (min 1; default 256) — a long-running monitor can retain
    /// a full event tail instead of the last 256. Shrinking evicts the
    /// oldest retained events; totals and sequence numbers survive.
    pub fn set_journal_capacity(&mut self, capacity: usize) {
        self.telemetry.set_journal_capacity(capacity);
    }

    /// Turns recording on or off at runtime, **resetting** all recorded
    /// state either way (counters to zero, journal emptied). With
    /// recording off every instrumentation site costs one branch; the
    /// compile-time equivalent is building without the `telemetry`
    /// feature.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry = if enabled {
            StreamTelemetry::new()
        } else {
            StreamTelemetry::disabled()
        };
    }

    /// Recomputes each group's slots into its relation's symbolized-row
    /// layout and re-translates the member patterns — after the seed
    /// build and whenever the compiled groups change.
    fn refresh_slots(&mut self) {
        let Self {
            validator,
            sym_attrs,
            ..
        } = self;
        let slot_of = |rel: RelId, a: AttrId| -> u32 {
            sym_attrs[rel.index()]
                .iter()
                .position(|x| *x == a)
                .expect("every group key attribute is in its relation's layout") as u32
        };
        self.cfd_group_slots = validator
            .cfd_groups()
            .iter()
            .map(|g| g.attrs.iter().map(|a| slot_of(g.rel, *a)).collect())
            .collect();
        self.cfd_rhs_slots = validator
            .cfd_groups()
            .iter()
            .map(|g| g.members.iter().map(|m| slot_of(g.rel, m.rhs)).collect())
            .collect();
        self.cind_y_slots = validator
            .cind_groups()
            .iter()
            .map(|g| g.y.iter().map(|a| slot_of(g.rhs_rel, *a)).collect())
            .collect();
        self.cind_x_slots = validator
            .cind_groups()
            .iter()
            .map(|g| {
                g.members
                    .iter()
                    .map(|m| {
                        let cind = &validator.cinds()[m.idx];
                        m.x_perm
                            .iter()
                            .map(|a| slot_of(cind.lhs_rel(), *a))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        self.rebuild_member_syms();
    }

    /// Splices newly-promoted dependencies into the **live** suite,
    /// without re-materializing: held [`TupleId`]s, existing violations
    /// and all per-group state stay untouched. Only the affected groups
    /// recompile (see [`Validator::add_dependencies`]), only the
    /// relations whose symbolization layout grew re-cache their rows,
    /// and only the new members' indexes are built. Returns the new
    /// constraints' violations against the current database — sorted,
    /// indexed by their final Σ indices, and already folded into
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
        // The initial sweep for the newcomers, compiled exactly as the
        // spliced members are (uncovered singletons) so the violations
        // transfer index-shifted but otherwise verbatim.
        let sub = Validator::new_uncovered(cfds.clone(), cinds.clone());
        let old_cfd_groups = self.validator.cfd_groups().len();
        let old_cind_members: Vec<usize> = self
            .validator
            .cind_groups()
            .iter()
            .map(|g| g.members.len())
            .collect();
        let (cfd_range, cind_range) = self.validator.add_dependencies(cfds, cinds);

        // Grow the symbolization layout, re-caching the rows of every
        // relation whose layout changed: the index builds below read
        // their keys from the row cache.
        let new_sym_attrs = self.validator.sym_layout(self.db.schema().len());
        {
            let Self {
                db,
                interner,
                sym_rows,
                sym_attrs,
                ..
            } = self;
            for (rel, inst) in db.iter() {
                let r = rel.index();
                if new_sym_attrs[r] != sym_attrs[r] {
                    sym_rows[r] = cache_rows(interner, inst, &new_sym_attrs[r]);
                }
            }
        }
        self.sym_attrs = new_sym_attrs;
        self.refresh_slots();

        // Live indexes for the spliced groups and members, keyed from
        // the stream's own cached symbols.
        {
            let Self {
                validator,
                db,
                cfd_indexes,
                cind_targets,
                cind_sources,
                sym_attrs,
                sym_rows,
                ..
            } = self;
            let cells = Cells::Rows {
                rows: sym_rows,
                layout: sym_attrs,
            };
            for g in &validator.cfd_groups()[old_cfd_groups..] {
                let n = db.relation(g.rel).len();
                cfd_indexes.push(cells.index(g.rel, n, &g.attrs, |_| true));
            }
            for (gi, g) in validator.cind_groups().iter().enumerate() {
                if gi >= cind_targets.len() {
                    let target = db.relation(g.rhs_rel);
                    cind_targets.push(cells.index(g.rhs_rel, target.len(), &g.y, |pos| {
                        let t = target.get(pos).expect("position in range");
                        g.yp.iter().all(|(a, v)| &t[*a] == v)
                    }));
                    cind_sources.push(Vec::new());
                }
                let start = old_cind_members.get(gi).copied().unwrap_or(0);
                for m in &g.members[start..] {
                    let cind = &validator.cinds()[m.idx];
                    let source = db.relation(cind.lhs_rel());
                    cind_sources[gi].push(cells.index(
                        cind.lhs_rel(),
                        source.len(),
                        &m.x_perm,
                        |pos| cind.triggers(source.get(pos).expect("position in range")),
                    ));
                }
            }
        }

        let mut report = sub.validate_sorted(&self.db);
        for (i, _) in report.cfd.iter_mut() {
            *i += cfd_range.start;
        }
        for (i, _) in report.cind.iter_mut() {
            *i += cind_range.start;
        }
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
    /// calls append fresh ones.
    pub fn retire_dependencies(&mut self, cfd_idxs: &[usize], cind_idxs: &[usize]) -> SigmaReport {
        let log = self.validator.retire_dependencies(cfd_idxs, cind_idxs);
        if log.is_empty() {
            return SigmaReport::default();
        }
        // Replay the member removals in order so the per-member source
        // indexes stay aligned with the recompiled groups.
        for &(gi, mi) in &log.cind_members_removed {
            self.cind_sources[gi].remove(mi);
        }
        // The symbolization layout stays a (possibly proper) superset of
        // what the surviving groups need — keeping it avoids re-caching
        // any rows, and the slot tables still resolve every attribute.
        self.refresh_slots();

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
        resolved
    }

    /// Re-translates every member pattern against the current interner
    /// (after a seed build or an interner compaction).
    fn rebuild_member_syms(&mut self) {
        let Self {
            validator,
            interner,
            member_syms,
            member_syms_gen,
            member_syms_pending,
            ..
        } = self;
        *member_syms = validator
            .cfd_groups()
            .iter()
            .map(|g| {
                g.members
                    .iter()
                    .map(|m| translate_member(interner, m))
                    .collect()
            })
            .collect();
        *member_syms_pending = member_syms.iter().flatten().filter(|s| s.is_none()).count();
        *member_syms_gen = interner.len();
    }

    /// Retries the still-untranslated member patterns when the interner
    /// has grown since the last refresh (already-translated patterns
    /// stay valid — symbols are stable between compactions).
    fn refresh_member_syms(&mut self) {
        let Self {
            validator,
            interner,
            member_syms,
            member_syms_gen,
            member_syms_pending,
            ..
        } = self;
        if *member_syms_pending > 0 && interner.len() != *member_syms_gen {
            let mut pending = 0;
            for (g, syms) in validator.cfd_groups().iter().zip(member_syms.iter_mut()) {
                for (m, slot) in g.members.iter().zip(syms.iter_mut()) {
                    if slot.is_none() {
                        *slot = translate_member(interner, m);
                        if slot.is_none() {
                            pending += 1;
                        }
                    }
                }
            }
            *member_syms_pending = pending;
        }
        *member_syms_gen = interner.len();
    }

    /// Compacts the stream's long-lived state: drops every **emptied**
    /// key group from the live indexes (CFD group indexes, CIND target
    /// indexes and reverse CIND source indexes), rebuilds the
    /// [`Interner`] over the strings still reachable from live keys
    /// (remapping every stored key to the new numbering), and releases
    /// the excess capacity churn left in the [`TupleId`] maps (live ids
    /// are the only id storage). Returns what was reclaimed.
    ///
    /// Removals keep a group's slot — and its key's interned strings —
    /// forever, so a months-long monitor over high-key-churn data would
    /// otherwise grow with the distinct keys ever seen rather than with
    /// the live data (the ROADMAP's known leaks, both closed here).
    /// Compaction is `O(keys + live positions)` over each index plus
    /// `O(live strings)` for the interner rebuild, and preserves every
    /// live `(key, position)` pair **and every live [`TupleId`]**, so
    /// the violation state, all delta semantics and held id handles are
    /// untouched — call it whenever the reclaimable share is worth the
    /// rebuild (e.g. periodically, or when an index's distinct-key count
    /// far exceeds the relation's size).
    pub fn compact(&mut self) -> CompactionStats {
        let span = SpanTimer::start(&self.telemetry.compact_us);
        let mut stats = CompactionStats {
            interned_strings_before: self.interner.len(),
            interned_bytes_before: self.interner.str_bytes(),
            ..CompactionStats::default()
        };
        for idx in self
            .cfd_indexes
            .iter_mut()
            .chain(self.cind_targets.iter_mut())
            .chain(self.cind_sources.iter_mut().flatten())
        {
            stats.key_groups_dropped += idx.compact();
            stats.key_groups_live += idx.distinct_keys();
        }
        // Interner rebuild over live symbols only: every string still
        // reachable from some live index key or resident cached row is
        // re-interned (first-seen order across the tiers, so the result
        // is deterministic), everything else is dropped, and every
        // stored key and cached cell is remapped to the new numbering.
        let mut fresh = Interner::new();
        let mut remap: Vec<Option<Sym>> = vec![None; self.interner.len()];
        for idx in self
            .cfd_indexes
            .iter()
            .chain(self.cind_targets.iter())
            .chain(self.cind_sources.iter().flatten())
        {
            for (key, _) in idx.groups() {
                for cell in key {
                    if let SymValue::Str(sym) = cell {
                        let slot = &mut remap[sym.0 as usize];
                        if slot.is_none() {
                            *slot = Some(fresh.intern(self.interner.resolve_arc(*sym)));
                        }
                    }
                }
            }
        }
        // The resident row cache is the other liveness root: a cell a
        // tuple only carries through a CIND role it does not play is in
        // no index key, but the delete path will still read it. Re-root
        // and rewrite the cached rows in the same pass — retention is
        // still bounded by the live data.
        for rows in &mut self.sym_rows {
            for cell in rows.iter_mut() {
                if let SymValue::Str(sym) = cell {
                    let slot = &mut remap[sym.0 as usize];
                    if slot.is_none() {
                        *slot = Some(fresh.intern(self.interner.resolve_arc(*sym)));
                    }
                    *cell = SymValue::Str(slot.expect("just interned"));
                }
            }
        }
        let translate = |sv: SymValue| match sv {
            SymValue::Str(sym) => {
                SymValue::Str(remap[sym.0 as usize].expect("live key symbols are remapped"))
            }
            inline => inline,
        };
        for idx in self
            .cfd_indexes
            .iter_mut()
            .chain(self.cind_targets.iter_mut())
            .chain(self.cind_sources.iter_mut().flatten())
        {
            idx.remap_keys(translate);
        }
        self.interner = fresh;
        // The cached pattern translations used the old numbering.
        self.rebuild_member_syms();
        // Id maps only store live ids; just release churn's excess
        // capacity.
        for ids in &mut self.ids {
            ids.shrink();
        }
        stats.interned_strings_after = self.interner.len();
        stats.interned_bytes_after = self.interner.str_bytes();
        span.stop();
        self.telemetry.record_compaction(&stats);
        stats
    }

    /// The stable id of the tuple currently at dense position `pos` of
    /// `rel` — translate **post-mutation** violation positions through
    /// this to address them without replaying swap renumbers.
    pub fn tuple_id_at(&self, rel: RelId, pos: usize) -> Option<TupleId> {
        self.ids[rel.index()].id_at(pos)
    }

    /// The current dense position behind a stable id; `None` once the
    /// tuple is gone (deleted, or rewritten by an update).
    pub fn position_of(&self, rel: RelId, id: TupleId) -> Option<usize> {
        self.ids[rel.index()].pos_of(id)
    }

    /// The tuple behind a stable id, read through the live id ⇄ position
    /// map.
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

    /// Validates and inserts one tuple, returning the violations it
    /// introduces **and** the violations it resolves (an arriving CIND
    /// target tuple supplies the partner its orphaned source tuples were
    /// missing). An already-present tuple is a no-op: instances are sets.
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
    pub fn insert_tuple(&mut self, rel: RelId, t: Tuple) -> Result<SigmaDelta, ModelError> {
        let span = SpanTimer::start(&self.telemetry.mutation_us);
        let groups0 = self.telemetry.probes_total();
        self.db.check_tuple(rel, &t)?;
        let row = self.sym_row_intern(rel, &t);
        // Interning may have made a pending member pattern translatable;
        // matching below is sym-space, so refresh first (O(1) when
        // nothing is pending).
        self.refresh_member_syms();
        let delta = self.insert_inner(rel, t, &row)?;
        span.stop();
        // A resident tuple allocates no id: that is the no-op signal.
        let effective = delta.ids.born.is_some();
        self.telemetry
            .record_single(MutKind::Insert, effective.then_some(&delta), groups0);
        Ok(delta)
    }

    /// The insert engine. `row` is the tuple's pre-symbolized key-cell
    /// row ([`ValidatorStream::sym_row_intern`]): group keys are `Copy`
    /// slot reads and member matching is a word compare against the
    /// cached pattern symbols — no string is hashed per group.
    fn insert_inner(
        &mut self,
        rel: RelId,
        t: Tuple,
        row: &[SymValue],
    ) -> Result<SigmaDelta, ModelError> {
        let mut delta = SigmaDelta::default();
        if !self.db.insert(rel, t.clone())? {
            return Ok(delta);
        }
        let pos = self.db.relation(rel).len() - 1;
        let Self {
            validator,
            db,
            cfd_indexes,
            cind_targets,
            cind_sources,
            live_cfd,
            live_cind,
            ids,
            sym_rows,
            cfd_group_slots,
            cfd_rhs_slots,
            cind_y_slots,
            cind_x_slots,
            member_syms,
            telemetry,
            ..
        } = self;
        delta.ids.born = Some(ids[rel.index()].alloc(pos));
        debug_assert_eq!(sym_rows[rel.index()].len(), pos * row.len());
        sym_rows[rel.index()].extend_from_slice(row);
        let mut key_buf: Vec<SymValue> = Vec::new();
        let mut cov_buf: Vec<usize> = Vec::new();
        // Hot-loop accounting stays in a local; one flush at the end.
        let mut hash_probes = 0u64;

        // Target-role updates first, so a self-referential CIND can be
        // satisfied by the arriving tuple itself (batch semantics allow
        // t2 = t1) — and so resolution sees the pre-arrival emptiness.
        for (gi, g) in validator.cind_groups().iter().enumerate() {
            if g.rhs_rel != rel || !g.yp.iter().all(|(a, v)| &t[*a] == v) {
                continue;
            }
            key_from_slots(row, &cind_y_slots[gi], &mut key_buf);
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
                for src in sidx.positions(&key_buf) {
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
        for (gi, (g, idx)) in validator
            .cfd_groups()
            .iter()
            .zip(cfd_indexes.iter_mut())
            .enumerate()
        {
            if g.rel != rel {
                continue;
            }
            key_from_slots(row, &cfd_group_slots[gi], &mut key_buf);
            // One hash probe per (mutation, group): the slot handle makes
            // every witness read and the final insert O(1), shared
            // across all wildcard members asking about this key.
            hash_probes += 1;
            let slot = idx.ensure_slot(&key_buf);
            for (mi, m) in g.members.iter().enumerate() {
                if !member_matches_sym(&member_syms[gi][mi], &key_buf) {
                    continue;
                }
                match &m.rhs_const {
                    Some(expected) => {
                        let found = &t[m.rhs];
                        if found != expected {
                            applicable_covers(g, m, &t, &mut cov_buf);
                            for &cidx in &cov_buf {
                                delta.cfd.introduced.push((
                                    cidx,
                                    CfdViolation::SingleTuple {
                                        tuple: pos,
                                        found: found.clone(),
                                        expected: expected.clone(),
                                    },
                                ));
                            }
                        }
                    }
                    None => {
                        // Exactly the batch `wildcard_pairs` delta: the
                        // arriving tuple has the highest position, so it
                        // adds one pair iff its RHS differs from the
                        // group's first (lowest position) tuple.
                        let first = idx.min_at(slot);
                        if let Some(first) = first {
                            let rslot = cfd_rhs_slots[gi][mi] as usize;
                            let srows = &sym_rows[rel.index()];
                            if srows[first as usize * row.len() + rslot] != row[rslot] {
                                applicable_covers(g, m, &t, &mut cov_buf);
                                for &cidx in &cov_buf {
                                    delta.cfd.introduced.push((
                                        cidx,
                                        CfdViolation::Pair {
                                            left: first as usize,
                                            right: pos,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            idx.insert_at(slot, pos as u32);
        }

        // CIND source role: the new tuple must find a partner, and joins
        // its members' source indexes.
        for (gi, g) in validator.cind_groups().iter().enumerate() {
            for (mi, (m, sidx)) in g
                .members
                .iter()
                .zip(cind_sources[gi].iter_mut())
                .enumerate()
            {
                let cind = &validator.cinds()[m.idx];
                if cind.lhs_rel() != rel || !cind.triggers(&t) {
                    continue;
                }
                key_from_slots(row, &cind_x_slots[gi][mi], &mut key_buf);
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
        telemetry.hash_probes.add(hash_probes);
        Ok(delta)
    }

    /// Deletes one tuple by value, returning the violations that
    /// disappear with it, the violations its absence introduces
    /// (orphaned CIND sources, relabeled pair witnesses), and the swap
    /// renumbering ([`SigmaDelta::moved`]). `None` when the tuple is not
    /// present, or `rel` is not a relation of the schema.
    pub fn delete_tuple(&mut self, rel: RelId, t: &Tuple) -> Option<SigmaDelta> {
        let span = SpanTimer::start(&self.telemetry.mutation_us);
        let groups0 = self.telemetry.probes_total();
        let delta = self.delete_inner(rel, t);
        span.stop();
        self.telemetry
            .record_single(MutKind::Delete, delta.as_ref(), groups0);
        delta
    }

    /// The delete engine. The tuple's (and the moved tuple's)
    /// pre-symbolized key-cell rows come straight out of the resident
    /// row cache — no string is hashed through the interner anywhere on
    /// the delete path.
    fn delete_inner(&mut self, rel: RelId, t: &Tuple) -> Option<SigmaDelta> {
        self.db.schema().relation(rel).ok()?;
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
            cfd_group_slots,
            cfd_rhs_slots,
            cind_y_slots,
            cind_x_slots,
            member_syms,
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
        let srows = &sym_rows[rel.index()];
        let row: Vec<SymValue> = srows[pos * stride..(pos + 1) * stride].to_vec();
        let row_m: Option<Vec<SymValue>> = moved
            .as_ref()
            .map(|_| srows[last * stride..(last + 1) * stride].to_vec());
        let row: &[SymValue] = &row;
        let mut key_buf: Vec<SymValue> = Vec::new();
        let mut cov_buf: Vec<usize> = Vec::new();
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
        // the witness only relabels its pair — both `O(1)` tuple reads
        // after one integer scan for the group minimum. Only when the
        // witness itself is deleted (or the moved tuple becomes the new
        // witness) does the group's pair set restructure; those rare
        // scopes are stashed for a full before/after recomputation.
        let mut scopes: Vec<PairScope> = Vec::new();
        let mut key_t: Vec<SymValue> = Vec::new();
        let mut key_m_buf: Vec<SymValue> = Vec::new();
        for (gi, (g, idx)) in validator
            .cfd_groups()
            .iter()
            .zip(cfd_indexes.iter_mut())
            .enumerate()
        {
            if g.rel != rel {
                continue;
            }
            key_from_slots(row, &cfd_group_slots[gi], &mut key_t);
            // Zero hash probes per (mutation, group): the index's
            // per-position slot record recovers the deleted tuple's
            // group directly, and the handle serves the witness read,
            // the pair-scope scans and the final removal.
            slot_probes += 1;
            let slot_t = idx
                .slot_of_pos(pos as u32)
                .expect("deleted tuple is indexed in every group of its relation");
            // One member-match predicate per scoped tuple: a sym compare
            // against the cached pattern symbols. Matching only reads
            // the group-key projection, so the key stands in for the
            // tuple.
            let t_matches =
                |mi: usize, _m: &CfdMember| member_matches_sym(&member_syms[gi][mi], &key_t);
            for (mi, m) in g.members.iter().enumerate() {
                if !t_matches(mi, m) {
                    continue;
                }
                if let Some(expected) = &m.rhs_const {
                    let found = &t[m.rhs];
                    if found != expected {
                        applicable_covers(g, m, t, &mut cov_buf);
                        for &cidx in &cov_buf {
                            let v = (
                                cidx,
                                CfdViolation::SingleTuple {
                                    tuple: pos,
                                    found: found.clone(),
                                    expected: expected.clone(),
                                },
                            );
                            let was_live = live_cfd.remove(&v);
                            debug_assert!(was_live, "deleted single must have been live");
                            delta.cfd.resolved.push(v);
                        }
                    }
                }
            }
            let key_m: Option<&[SymValue]> = match &row_m {
                Some(row_m) => {
                    key_from_slots(row_m, &cfd_group_slots[gi], &mut key_m_buf);
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
            let m_matches = |mi: usize, _m: &CfdMember| match &key_m {
                Some(km) => member_matches_sym(&member_syms[gi][mi], km),
                None => false,
            };

            // The deleted tuple's key group.
            let fmin = idx.min_at(slot_t).expect("deleted tuple is in its group");
            if fmin as usize != pos {
                pair_fast += 1;
                // `pos` was not the witness (fmin < pos survives, and a
                // same-key moved tuple renumbers *above* fmin, since
                // pos > fmin). Resolve the deleted tuple's own pair and
                // relabel the moved tuple's, per matching member.
                let srows = &sym_rows[rel.index()];
                let first_row = &srows[fmin as usize * stride..(fmin as usize + 1) * stride];
                for (mi, m) in g.members.iter().enumerate() {
                    if m.rhs_const.is_some() || !t_matches(mi, m) {
                        continue;
                    }
                    // The fan-out is computed at most once per member —
                    // lazily, since the common case (RHS agrees with the
                    // witness) emits nothing — and shared between the two
                    // branches: `same_key` means the moved tuple carries
                    // the same key, and applicability is a key-group
                    // property.
                    let mut fanned = false;
                    let mut fan_out = |buf: &mut Vec<usize>| {
                        if !fanned {
                            applicable_covers(g, m, t, buf);
                            fanned = true;
                        }
                    };
                    let rslot = cfd_rhs_slots[gi][mi] as usize;
                    if first_row[rslot] != row[rslot] {
                        fan_out(&mut cov_buf);
                        for &cidx in &cov_buf {
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
                    if same_key {
                        // The moved tuple's pair relabels with it; the
                        // consumer's renumber step covers this, so it is
                        // not a delta entry. A pair exists exactly when
                        // the moved tuple disagrees with the witness, so
                        // the live set is only touched when there is one.
                        let rm = row_m.as_deref().expect("same_key implies a move");
                        if first_row[rslot] != rm[rslot] {
                            fan_out(&mut cov_buf);
                            for &cidx in &cov_buf {
                                let was_live = live_cfd.remove(&(
                                    cidx,
                                    CfdViolation::Pair {
                                        left: fmin as usize,
                                        right: last,
                                    },
                                ));
                                debug_assert!(was_live, "relabeled pair must have been live");
                                live_cfd.insert((
                                    cidx,
                                    CfdViolation::Pair {
                                        left: fmin as usize,
                                        right: pos,
                                    },
                                ));
                            }
                        }
                    }
                }
            } else if idx.positions_at(slot_t).nth(1).is_some() {
                // The witness itself goes: the group's pairs
                // restructure. Stash the old pairs for recomputation.
                // (A singleton group has no pairs on either side of the
                // deletion — nothing to stash.)
                pair_recompute += 1;
                scopes.extend(stash_scope(
                    g,
                    gi,
                    idx,
                    slot_t,
                    db.relation(rel),
                    t,
                    t_matches,
                ));
            }

            // The moved tuple's key group, when it is a different one.
            if let (Some(mt), Some(sm)) = (&moved, slot_m) {
                if !same_key {
                    let fmin_m = idx.min_at(sm).expect("moved tuple is in its group");
                    if (fmin_m as usize) < pos {
                        // Witness unchanged: the moved tuple's pair (if
                        // any) just renumbers `last` → `pos` — covered by
                        // the consumer's renumber step, no delta entry.
                        // As above, a pair exists exactly when the moved
                        // tuple disagrees with its witness.
                        let srows = &sym_rows[rel.index()];
                        let first_m_row =
                            &srows[fmin_m as usize * stride..(fmin_m as usize + 1) * stride];
                        let rm = row_m.as_deref().expect("moved tuple has a cached row");
                        for (mi, m) in g.members.iter().enumerate() {
                            let rslot = cfd_rhs_slots[gi][mi] as usize;
                            if m.rhs_const.is_some()
                                || first_m_row[rslot] == rm[rslot]
                                || !m_matches(mi, m)
                            {
                                continue;
                            }
                            applicable_covers(g, m, mt, &mut cov_buf);
                            for &cidx in &cov_buf {
                                let was_live = live_cfd.remove(&(
                                    cidx,
                                    CfdViolation::Pair {
                                        left: fmin_m as usize,
                                        right: last,
                                    },
                                ));
                                debug_assert!(was_live, "relabeled pair must have been live");
                                live_cfd.insert((
                                    cidx,
                                    CfdViolation::Pair {
                                        left: fmin_m as usize,
                                        right: pos,
                                    },
                                ));
                            }
                        }
                    } else if idx.positions_at(sm).nth(1).is_some() {
                        // The moved tuple lands *below* the group's old
                        // witness and becomes the new one: restructure
                        // (skipped for a singleton group — no pairs).
                        pair_recompute += 1;
                        scopes.extend(stash_scope(g, gi, idx, sm, db.relation(rel), mt, m_matches));
                    }
                }
            }

            idx.remove_at(slot_t, pos as u32);
            if let Some(sm) = slot_m {
                idx.replace_at(sm, last as u32, pos as u32);
            }
        }

        // ---- CIND source role of the deleted tuple (before its target
        // role, so a self-partnered tuple is not counted as orphaned).
        for (gi, g) in validator.cind_groups().iter().enumerate() {
            for (mi, (m, sidx)) in g
                .members
                .iter()
                .zip(cind_sources[gi].iter_mut())
                .enumerate()
            {
                let cind = &validator.cinds()[m.idx];
                if cind.lhs_rel() != rel || !cind.triggers(t) {
                    continue;
                }
                key_from_slots(row, &cind_x_slots[gi][mi], &mut key_buf);
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
        for (gi, g) in validator.cind_groups().iter().enumerate() {
            if g.rhs_rel != rel || !g.yp.iter().all(|(a, v)| &t[*a] == v) {
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
            key_from_slots(row, &cind_y_slots[gi], &mut key_buf);
            for (m, sidx) in g.members.iter().zip(&cind_sources[gi]) {
                let cind = &validator.cinds()[m.idx];
                let source = db.relation(cind.lhs_rel());
                // The swap renumbering only concerns the deleted tuple's
                // relation — source positions elsewhere are stable.
                let same_rel = cind.lhs_rel() == rel;
                for src in sidx.positions(&key_buf) {
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
            for (gi, g) in validator.cfd_groups().iter().enumerate() {
                if g.rel != rel {
                    continue;
                }
                key_from_slots(row_m, &cfd_group_slots[gi], &mut key_buf);
                for (mi, m) in g.members.iter().enumerate() {
                    if !member_matches_sym(&member_syms[gi][mi], &key_buf) {
                        continue;
                    }
                    if let Some(expected) = &m.rhs_const {
                        let found = &mt[m.rhs];
                        if found != expected {
                            applicable_covers(g, m, mt, &mut cov_buf);
                            for &cidx in &cov_buf {
                                let old = (
                                    cidx,
                                    CfdViolation::SingleTuple {
                                        tuple: last,
                                        found: found.clone(),
                                        expected: expected.clone(),
                                    },
                                );
                                if live_cfd.remove(&old) {
                                    live_cfd.insert((
                                        cidx,
                                        CfdViolation::SingleTuple {
                                            tuple: pos,
                                            found: found.clone(),
                                            expected: expected.clone(),
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            for (gi, g) in validator.cind_groups().iter().enumerate() {
                for (m, sidx) in g.members.iter().zip(cind_sources[gi].iter_mut()) {
                    let cind = &validator.cinds()[m.idx];
                    if cind.lhs_rel() != rel || !cind.triggers(mt) {
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
        let (retired, moved_id) = ids[rel.index()].remove_swap(pos);
        delta.ids.retired = Some(retired);
        delta.ids.moved = moved_id;

        // ---- Recompute the affected key groups' pairs against the
        // final state and swap them into the live set; only genuine
        // differences surface in the delta.
        for scope in scopes {
            let g = &validator.cfd_groups()[scope.group];
            let idx = &cfd_indexes[scope.group];
            for (ms, covers, old) in scope.members {
                let m = &g.members[ms];
                let new = group_pairs(
                    db.relation(rel),
                    m.rhs,
                    idx.positions_at(scope.slot).collect(),
                );
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
        telemetry.hash_probes.add(hash_probes);
        telemetry.slot_probes.add(slot_probes);
        telemetry.pair_fast.add(pair_fast);
        telemetry.pair_recompute.add(pair_recompute);
        Some(delta)
    }

    /// Replaces `old` by `new` in relation `rel`: a delete followed by an
    /// insert, returned as the two deltas in application order (see the
    /// module docs for how each applies). `Ok(None)` when `old` is not
    /// present; the replacement is type-checked **before** the delete, so
    /// an error leaves the stream untouched.
    pub fn update_tuple(
        &mut self,
        rel: RelId,
        old: &Tuple,
        new: Tuple,
    ) -> Result<Option<(SigmaDelta, SigmaDelta)>, ModelError> {
        self.db.check_tuple(rel, &new)?;
        if old == &new {
            // No-op replacement: skip the delete/insert churn (and its
            // mutually cancelling deltas) entirely.
            return Ok(self
                .db
                .relation(rel)
                .contains(old)
                .then(|| (SigmaDelta::default(), SigmaDelta::default())));
        }
        let Some(deleted) = self.delete_tuple(rel, old) else {
            return Ok(None);
        };
        let inserted = self.insert_tuple(rel, new)?;
        Ok(Some((deleted, inserted)))
    }

    /// Applies one value-level [`Mutation`], returning the streamed
    /// deltas **and** the inverse mutation ([`Applied::revert`]) that
    /// restores the pre-mutation tuple set. No-ops (inserting a resident
    /// tuple, deleting or updating an absent one, `old == new`) return an
    /// empty [`Applied`] with `revert: None`.
    ///
    /// An update whose `new` tuple already resides in the relation
    /// degenerates to a deletion of `old` (set semantics merge the two);
    /// its revert is the re-insertion of `old`, **not** a deletion of the
    /// pre-existing `new`.
    pub fn apply(&mut self, m: Mutation) -> Result<Applied, ModelError> {
        const NOOP: Applied = Applied {
            deltas: Vec::new(),
            revert: None,
        };
        match m {
            Mutation::Insert { rel, tuple } => {
                self.db.schema().relation(rel)?;
                if self.db.relation(rel).contains(&tuple) {
                    return Ok(NOOP);
                }
                let delta = self.insert_tuple(rel, tuple.clone())?;
                Ok(Applied {
                    deltas: vec![delta],
                    revert: Some(Mutation::Delete { rel, tuple }),
                })
            }
            Mutation::Delete { rel, tuple } => {
                self.db.schema().relation(rel)?;
                match self.delete_tuple(rel, &tuple) {
                    None => Ok(NOOP),
                    Some(delta) => Ok(Applied {
                        deltas: vec![delta],
                        revert: Some(Mutation::Insert { rel, tuple }),
                    }),
                }
            }
            Mutation::Update { rel, old, new } => {
                self.db.check_tuple(rel, &new)?;
                if old == new || !self.db.relation(rel).contains(&old) {
                    return Ok(NOOP);
                }
                if self.db.relation(rel).contains(&new) {
                    // Set semantics: the edit collapses `old` into the
                    // resident `new` — a pure deletion, reverted by
                    // re-inserting `old` (the resident tuple predates the
                    // mutation and must survive the revert).
                    let delta = self.delete_tuple(rel, &old).expect("presence just checked");
                    return Ok(Applied {
                        deltas: vec![delta],
                        revert: Some(Mutation::Insert { rel, tuple: old }),
                    });
                }
                let (d1, d2) = self
                    .update_tuple(rel, &old, new.clone())?
                    .expect("presence just checked");
                Ok(Applied {
                    deltas: vec![d1, d2],
                    revert: Some(Mutation::Update {
                        rel,
                        old: new,
                        new: old,
                    }),
                })
            }
        }
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

    /// Symbolizes a tuple's key-attribute cells in one pass, interning
    /// new strings — the insert-side row builder of the batch path.
    fn sym_row_intern(&mut self, rel: RelId, t: &Tuple) -> Vec<SymValue> {
        let Self {
            interner,
            sym_attrs,
            ..
        } = self;
        sym_attrs[rel.index()]
            .iter()
            .map(|a| interner.intern_value(&t[*a]))
            .collect()
    }

    /// Applies a whole batch of value-level [`Mutation`]s, returning the
    /// streamed deltas **in application order** — exactly the
    /// concatenation of what per-mutation [`ValidatorStream::apply`]
    /// calls would return (an update contributes its delete and insert
    /// deltas, a merge-degenerate update one delete delta, a no-op
    /// nothing), so `current_report()` still equals a fresh batch sweep
    /// after every batch.
    ///
    /// What makes it cheaper than the mutation-at-a-time loop:
    ///
    /// * **one interner pass** — every arriving tuple's key cells are
    ///   symbolized once up front (and the cached member-pattern symbol
    ///   translations refreshed once), instead of once per constraint
    ///   group per mutation;
    /// * **grouped key translation** — per `(relation, LHS set)` group,
    ///   keys are `Copy` slot reads out of the pre-built row and member
    ///   matching is a word compare, with no string hashed anywhere in
    ///   the per-group work;
    /// * **at most one probe per touched key group** — the group's pair
    ///   witness is looked up once and shared across all its wildcard
    ///   members (deletes resolve their groups probe-free through the
    ///   index's per-position slot records).
    ///
    /// The whole batch is type-checked first
    /// ([`ValidatorStream::check_mutations`]): an ill-typed mutation
    /// returns the error with **nothing** applied (unlike a sequential
    /// `apply` loop, which would stop half-way).
    pub fn apply_deltas(&mut self, muts: &[Mutation]) -> Result<Vec<SigmaDelta>, ModelError> {
        let span = SpanTimer::start(&self.telemetry.window_us);
        let groups0 = self.telemetry.probes_total();
        self.check_mutations(muts)?;
        // Phase 1: the one interner pass over every arriving tuple.
        let arriving: Vec<Option<Vec<SymValue>>> = muts
            .iter()
            .map(|m| match m {
                Mutation::Insert { rel, tuple }
                | Mutation::Update {
                    rel, new: tuple, ..
                } => Some(self.sym_row_intern(*rel, tuple)),
                Mutation::Delete { .. } => None,
            })
            .collect();
        self.refresh_member_syms();
        // Phase 2: apply in order through the row-fed engine. Presence
        // checks happen here, against the evolving database, so
        // intra-batch interactions (insert then delete, merging updates)
        // resolve exactly as they would sequentially.
        let mut out = Vec::with_capacity(muts.len());
        for (m, row) in muts.iter().zip(&arriving) {
            match m {
                Mutation::Insert { rel, tuple } => {
                    // No pre-membership probe: `insert_inner` detects the
                    // no-op itself (a resident tuple allocates no id).
                    let row = row.as_deref().expect("insert rows are pre-built");
                    let d = self.insert_inner(*rel, tuple.clone(), row)?;
                    if d.ids.born.is_some() {
                        out.push(d);
                    }
                }
                Mutation::Delete { rel, tuple } => {
                    if let Some(d) = self.delete_inner(*rel, tuple) {
                        out.push(d);
                    }
                }
                Mutation::Update { rel, old, new } => {
                    if old == new || !self.db.relation(*rel).contains(old) {
                        continue;
                    }
                    let merged = self.db.relation(*rel).contains(new);
                    out.push(self.delete_inner(*rel, old).expect("presence just checked"));
                    if !merged {
                        let row = row.as_deref().expect("update rows are pre-built");
                        out.push(self.insert_inner(*rel, new.clone(), row)?);
                    }
                }
            }
        }
        span.stop();
        self.telemetry.record_window(&out, groups0);
        Ok(out)
    }

    /// Type-checks a batch without applying any of it: every mutation
    /// must name a relation of the schema
    /// ([`ModelError::RelOutOfRange`] otherwise) and every arriving tuple
    /// must be well-typed for it — the pre-check
    /// [`ValidatorStream::apply_deltas`] runs before touching anything.
    pub fn check_mutations(&self, muts: &[Mutation]) -> Result<(), ModelError> {
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
    /// key-group cost. Empty when `t` does not match the pattern (or
    /// carries a key no resident tuple holds).
    pub fn cfd_violation_class(&self, cfd_idx: usize, t: &Tuple) -> Vec<usize> {
        let (gi, mi, ci) = self.validator.cfd_slot(cfd_idx);
        if gi == usize::MAX {
            // The CFD was dropped as implied by a minimal-tier cover
            // compilation: the validator holds no live structure for it.
            return Vec::new();
        }
        let g = &self.validator.cfd_groups()[gi];
        let m = &g.members[mi];
        // Match against this original's own pattern, not the member's
        // probe: a merged cover can be strictly more specific.
        let pat = &m.covers[ci].pattern;
        if !pattern_matches(&g.attrs, pat, t) {
            return Vec::new();
        }
        let mut key = Vec::with_capacity(g.attrs.len());
        for a in &g.attrs {
            match self.interner.sym_value(&t[*a]) {
                Some(s) => key.push(s),
                None => return Vec::new(),
            }
        }
        let rel_inst = self.db.relation(g.rel);
        let mut out: Vec<usize> = self.cfd_indexes[gi]
            .positions(&key)
            .filter(|&p| {
                let resident = rel_inst.get(p as usize).expect("indexed position valid");
                pattern_matches(&g.attrs, pat, resident)
            })
            .map(|p| p as usize)
            .collect();
        out.sort_unstable();
        out
    }

    /// Does `t` (a tuple currently in the stream's database) participate
    /// in a CFD conflict whose witnessing cells all satisfy `is_rigid`?
    ///
    /// This is the group-probe primitive the chase's candidate checking
    /// builds on: `is_rigid` distinguishes genuine constants from encoded
    /// chase variables, so a disagreement involving a variable (which an
    /// `FD(φ)` step would repair by substitution) is not a conflict,
    /// while two rigid constants disagreeing is. Costs
    /// `O(groups on the relation × the tuple's key-group sizes)` — never
    /// a relation scan. Ordinary consumers can pass `|_| true` to ask
    /// "is this tuple involved in any CFD violation right now".
    pub fn cfd_conflicts<F>(&self, rel: RelId, t: &Tuple, is_rigid: F) -> bool
    where
        F: Fn(&Value) -> bool,
    {
        let rel_inst = self.db.relation(rel);
        let Some(my_pos) = rel_inst.position(t) else {
            return false;
        };
        let mut key_buf: Vec<SymValue> = Vec::new();
        let mut group_buf: Vec<u32> = Vec::new();
        for (g, idx) in self.validator.cfd_groups().iter().zip(&self.cfd_indexes) {
            if g.rel != rel {
                continue;
            }
            sym_key(&self.interner, t, &g.attrs, &mut key_buf);
            group_buf.clear();
            group_buf.extend(idx.positions(&key_buf));
            for m in &g.members {
                if !member_matches(g, m, t) {
                    continue;
                }
                let mine = &t[m.rhs];
                // Single-tuple reading: a matched premise forcing a
                // different (rigid) constant.
                if let Some(expected) = &m.rhs_const {
                    if mine != expected && is_rigid(mine) {
                        return true;
                    }
                }
                // Pair reading: agreement on X forcing agreement on A,
                // checked against the tuple's own key group only.
                if !is_rigid(mine) {
                    continue;
                }
                for &p in &group_buf {
                    if p as usize == my_pos {
                        continue;
                    }
                    let other = &rel_inst.get(p as usize).expect("indexed position valid")[m.rhs];
                    if other != mine && is_rigid(other) {
                        return true;
                    }
                }
            }
        }
        false
    }
}
