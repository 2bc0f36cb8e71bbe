//! Compact-key group-by indexes over interned values.
//!
//! A [`SymIndex`] is a hash index from a key to the dense positions of
//! the tuples carrying it, built for the batched Σ-validation hot path:
//! keys are rows of `Copy` word-sized [`SymValue`] cells from a
//! [`crate::Dict`], so building and probing never touch string bytes or
//! bump `Arc` reference counts. Probes borrow (`&[SymValue]`).
//!
//! Every build reads cells that were symbolized beforehand through
//! [`SymIndex::build_with`] (the validator's group tasks, reading the
//! row-major row cache that the batch sweep builds and drops and a
//! stream keeps). No build interns or hashes a tuple's strings.
//!
//! ## Keys
//!
//! Each key group owns a **slot**, a dense `u32` handle. Every slot's
//! key lives once, in one slab: a single `Vec<SymValue>` with stride
//! `key_len`, so slot `s` owns cells `s·key_len..(s+1)·key_len`. A key
//! costs its cells and nothing else — no per-key allocation, no second
//! copy. Probes go through an open-addressing table of `u32` slots
//! (linear probing, at most half full) hashed over the slab.
//!
//! A group is freed the moment its last position leaves: its table
//! entry is removed (a backward shift, so no tombstone lingers), and
//! its slot goes on a free list that the next new key reuses. So
//! [`SymIndex::distinct_keys`] counts exactly the non-empty groups, and
//! never exceeds [`SymIndex::len`].
//!
//! ## Positions
//!
//! Position storage is one shared vector in which every key group owns
//! one segment, so a group is always one contiguous slice:
//!
//! * **Bulk builds** run a two-pass counting sort: pass one maps rows to
//!   key slots and counts them, pass two scatters positions into the
//!   shared vector, segments back to back with no spare room. No
//!   per-key `Vec` is ever allocated, and each segment comes out
//!   position-ascending — ideal for the sequential group sweep.
//! * **Mutations** edit a segment in place. A removal swaps the
//!   segment's last live entry into the hole, and the next insert into
//!   the group reuses the room that frees. A full segment grows in place
//!   when it ends at the vector's tail and otherwise moves there with
//!   twice its length as capacity. A segment that falls to a quarter
//!   full releases half its room, and a freed group releases all of it
//!   (left in place, so the next key to take the slot reuses it unless a
//!   repack came first). Once such dead room exceeds half the vector
//!   every segment is laid out again back to back. Each mutation is
//!   `O(1)` amortized.
//!
//! Storage therefore depends on the live data alone, whatever keys came
//! and went before: [`SymIndex::stored`] never exceeds
//! `8 · len() + 6 · distinct_keys()`, which is at most `14 · len()`
//! because every live key holds a position.
//!
//! [`SymIndex::remove_key`] / [`SymIndex::replace_pos`] give the
//! multiset-aware maintenance the `ValidatorStream` delta engine needs:
//! a removal is `O(1)` through a per-position back-pointer, and a
//! swap-removed relation position can be renumbered in place.

use crate::fxhash::FxHasher;
use crate::SymValue;
use std::hash::Hasher;
use std::ops::Range;

/// Sentinel for "no position", "no location" and "empty table entry".
const NONE: u32 = u32::MAX;

/// A full segment away from the vector's tail moves there with this
/// many times its live length as capacity.
const GROWTH: u32 = 2;

/// A segment at most `1 / SHRINK_FILL` full releases half its capacity…
const SHRINK_FILL: u32 = 4;

/// …once that capacity is at least this large.
const SHRINK_MIN_CAP: u32 = 4;

/// The vector is laid out again once its dead room exceeds
/// `1 / REPACK_DEAD` of it.
const REPACK_DEAD: usize = 2;

/// The probe table's length when the first key arrives.
const MIN_TABLE: usize = 8;

/// One key group's room in the shared position vector: entries
/// `start..start + cap` belong to the group, the first `len` are live.
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

impl Seg {
    /// The live entries' offsets.
    fn live(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Does the segment end at offset `end`?
    fn ends_at(self, end: usize) -> bool {
        self.start as usize + self.cap as usize == end
    }
}

/// A position's packed back-pointer: storage location + owning slot.
#[derive(Clone, Copy, Debug)]
struct PosRec {
    loc: u32,
    slot: u32,
}

/// "Position absent" sentinel record.
const ABSENT: PosRec = PosRec {
    loc: NONE,
    slot: NONE,
};

/// A vector offset as `u32`, which every stored location is.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("index capacity exceeded")
}

/// The fx hash of a key: one word per cell, the kind folded into the
/// high bits (a collision between kinds only costs a key compare).
fn hash_key(key: &[SymValue]) -> u64 {
    let mut h = FxHasher::default();
    for cell in key {
        h.write_u64(match *cell {
            SymValue::Bool(b) => u64::from(b) ^ (1 << 62),
            SymValue::Int(i) => i as u64,
            SymValue::Str(s) => u64::from(s.0) ^ (1 << 63),
        });
    }
    h.finish()
}

/// A group-by index keyed by interned projections.
///
/// Each dense position appears **at most once** per index (one tuple
/// projects to one key), which buys three O(1) upgrades over a plain
/// CSR: a packed per-position record holding the storage location (so
/// [`SymIndex::remove_key`] and [`SymIndex::replace_pos`] never scan a
/// key group) **and** the owning slot (so [`SymIndex::slot_of_pos`]
/// recovers a resident position's group without rehashing its key),
/// plus a cached per-slot minimum (so [`SymIndex::min_pos`] — the
/// delta engine's pair-witness probe — is a single lookup; only
/// removing the minimum itself rescans its group).
///
/// Keys live once, in a slab probed through a table of slots, and an
/// emptied group is freed at once (see the module docs). Mutations keep
/// every segment's capacity within `max(4 · live, 3)` and the vector's
/// dead room within half of it, so [`SymIndex::stored`] never exceeds
/// `8 · len() + 6 · distinct_keys()` — whatever sizes the groups
/// reached, and whatever keys came and went, in the past.
#[derive(Clone, Debug, Default)]
pub struct SymIndex {
    /// Every slot's key cells, back to back with stride `key_len`. A
    /// free slot's cells are stale until its next key overwrites them.
    keys: Vec<SymValue>,
    /// The probe table: linear probing over a power-of-two length, at
    /// most half full; each entry is a live slot or `NONE`.
    table: Vec<u32>,
    /// Slots whose group emptied, reused before the slot vectors grow.
    free: Vec<u32>,
    /// Shared position storage: every slot's segment, plus dead room
    /// no segment owns.
    store: Vec<u32>,
    /// Per slot: its segment of `store`. A free slot's segment is empty,
    /// and its room, until the next repack, is dead.
    segs: Vec<Seg>,
    /// Entries of `store` that no segment owns.
    dead: usize,
    /// Per dense position: its `store` offset and owning slot, packed in
    /// one 8-byte record so the delete path's two questions — "where is
    /// it stored?" and "which group owns it?" ([`SymIndex::
    /// slot_of_pos`]) — cost a single cache line (`NONE` = absent).
    at: Vec<PosRec>,
    /// Per slot: cached smallest live position (`NONE` when empty).
    min: Vec<u32>,
    /// Total live positions.
    len: usize,
    key_len: usize,
}

impl SymIndex {
    /// An empty index over keys of width `key_len`.
    pub fn new(key_len: usize) -> Self {
        SymIndex {
            key_len,
            ..SymIndex::default()
        }
    }

    /// Builds over positions `0..rows` from any pre-symbolized store:
    /// `key_at(pos, buf)` writes position `pos`'s `key_len` key cells
    /// into the cleared `buf` and returns whether `pos` is indexed (the
    /// cells of a skipped position are ignored). A two-pass counting-sort
    /// bulk build; key cells are `Copy` reads and no string is hashed.
    pub fn build_with<F>(rows: usize, key_len: usize, mut key_at: F) -> Self
    where
        F: FnMut(usize, &mut Vec<SymValue>) -> bool,
    {
        let mut idx = SymIndex::new(key_len);
        let mut buf: Vec<SymValue> = Vec::with_capacity(key_len);
        let mut pairs = Vec::with_capacity(rows);
        for pos in 0..rows {
            buf.clear();
            if key_at(pos, &mut buf) {
                pairs.push((pos as u32, idx.slot_of(&buf)));
            }
        }
        idx.scatter_bulk(&pairs);
        idx
    }

    /// The key cells of `slot`.
    fn key(&self, slot: u32) -> &[SymValue] {
        let start = slot as usize * self.key_len;
        &self.keys[start..start + self.key_len]
    }

    /// The table entry `key`'s probe stops at: the one holding its slot,
    /// or the empty entry where the key would go. The table must be
    /// non-empty.
    fn locate(&self, key: &[SymValue], hash: u64) -> (usize, u32) {
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.table[i];
            if slot == NONE || self.key(slot) == key {
                return (i, slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Puts `slot`, whose key hashes to `hash`, into the first empty
    /// entry of its probe sequence.
    fn place(&mut self, slot: u32, hash: u64) {
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        while self.table[i] != NONE {
            i = (i + 1) & mask;
        }
        self.table[i] = slot;
    }

    /// Doubles the probe table (or makes the first one) and re-places
    /// every live slot.
    fn grow_table(&mut self) {
        let old = std::mem::take(&mut self.table);
        self.table = vec![NONE; (old.len() * 2).max(MIN_TABLE)];
        for slot in old.into_iter().filter(|&s| s != NONE) {
            let hash = hash_key(self.key(slot));
            self.place(slot, hash);
        }
    }

    /// The slot handle of `key` when some indexed tuple carries it — one
    /// hash probe; every `*_at` method is then `O(1)` with **no**
    /// rehashing. A handle stays valid until its group empties: the
    /// removal of the group's last position frees the slot, and a later
    /// new key may reuse it.
    #[inline]
    pub fn probe_slot(&self, key: &[SymValue]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.key_len);
        if self.table.is_empty() {
            return None;
        }
        let (_, slot) = self.locate(key, hash_key(key));
        (slot != NONE).then_some(slot)
    }

    /// The slot handle of `key`, allocating an empty slot on first
    /// sight — the insert-side counterpart of [`SymIndex::probe_slot`].
    /// A new slot must receive its first position
    /// ([`SymIndex::insert_at`]) before the next removal; until then
    /// its group reads empty ([`SymIndex::occupied_at`] is false).
    #[inline]
    pub fn ensure_slot(&mut self, key: &[SymValue]) -> u32 {
        self.slot_of(key)
    }

    /// The slot of `key`, allocating a fresh (empty) one on first sight:
    /// a free slot when there is one, else a new slot at the end.
    fn slot_of(&mut self, key: &[SymValue]) -> u32 {
        debug_assert_eq!(key.len(), self.key_len);
        let hash = hash_key(key);
        if !self.table.is_empty() {
            let (i, slot) = self.locate(key, hash);
            if slot != NONE {
                return slot;
            }
            if (self.distinct_keys() + 1) * 2 <= self.table.len() {
                let slot = self.alloc_slot(key);
                self.table[i] = slot;
                return slot;
            }
        }
        self.grow_table();
        let slot = self.alloc_slot(key);
        self.place(slot, hash);
        slot
    }

    /// Writes `key` into a free slot, or a new one, and returns it. A
    /// free slot still owns its old room unless a repack has dropped it
    /// since; the new group takes that room back from the dead.
    fn alloc_slot(&mut self, key: &[SymValue]) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.dead -= self.segs[slot as usize].cap as usize;
                let start = slot as usize * self.key_len;
                self.keys[start..start + self.key_len].copy_from_slice(key);
                slot
            }
            None => {
                let slot = offset(self.segs.len());
                self.keys.extend_from_slice(key);
                self.segs.push(Seg::default());
                self.min.push(NONE);
                slot
            }
        }
    }

    /// Frees the emptied group of `slot`: its table entry goes (later
    /// entries of the probe run shift back over the hole, so no
    /// tombstone is left), its room turns dead and the slot joins the
    /// free list. The room stays where it is until a repack drops it, so
    /// a key that comes straight back (an update that keeps it) takes
    /// the slot and its room again without moving to the tail.
    fn free_slot(&mut self, slot: u32) {
        let mask = self.table.len() - 1;
        let mut hole = hash_key(self.key(slot)) as usize & mask;
        while self.table[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.table[j];
            if s == NONE {
                break;
            }
            // `s` may fill the hole unless its home lies after the hole
            // on the way to `j` (moving it would strand it before home).
            let home = hash_key(self.key(s)) as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.table[hole] = s;
                hole = j;
            }
        }
        self.table[hole] = NONE;
        let seg = self.segs[slot as usize];
        debug_assert_eq!(seg.len, 0, "only an emptied group is freed");
        self.dead += seg.cap as usize;
        self.free.push(slot);
        self.repack_if_sparse();
    }

    /// Records position `pos`'s storage location and owning slot.
    fn note(&mut self, pos: u32, loc: u32, slot: u32) {
        let pos = pos as usize;
        if pos >= self.at.len() {
            self.at.resize(pos + 1, ABSENT);
        }
        self.at[pos] = PosRec { loc, slot };
    }

    /// Recomputes a slot's cached minimum from its segment.
    fn rescan_min(&self, slot: usize) -> u32 {
        self.slot_positions(slot)
            .iter()
            .copied()
            .min()
            .unwrap_or(NONE)
    }

    /// Counting-sort scatter: lays `(pos, slot)` pairs out as back to
    /// back per-slot segments of one shared vector, each exactly full
    /// (pairs arrive in ascending position order, so segments end up
    /// ascending too), and seeds the per-position back-pointers and
    /// per-slot minima.
    fn scatter_bulk(&mut self, pairs: &[(u32, u32)]) {
        debug_assert!(self.store.is_empty(), "scatter_bulk is a bulk-build step");
        let mut max_pos = 0usize;
        for &(pos, slot) in pairs {
            self.segs[slot as usize].cap += 1;
            max_pos = max_pos.max(pos as usize + 1);
        }
        let mut start = 0u32;
        for seg in &mut self.segs {
            seg.start = start;
            start += seg.cap;
        }
        self.store.resize(pairs.len(), NONE);
        if max_pos > self.at.len() {
            self.at.resize(max_pos, ABSENT);
        }
        for &(pos, slot) in pairs {
            let seg = &mut self.segs[slot as usize];
            let loc = seg.start + seg.len;
            seg.len += 1;
            self.store[loc as usize] = pos;
            self.at[pos as usize] = PosRec { loc, slot };
            self.min[slot as usize] = self.min[slot as usize].min(pos);
        }
        self.len = pairs.len();
    }

    /// Appends `pos` under the already-translated `key`.
    pub fn insert_key(&mut self, pos: u32, key: &[SymValue]) {
        let slot = self.slot_of(key);
        self.insert_at(slot, pos);
    }

    /// [`SymIndex::insert_key`] minus the probe: appends `pos` under the
    /// group addressed by `slot` (from [`SymIndex::ensure_slot`]).
    /// Writes into the segment's spare room; a full segment first grows
    /// in place at the vector's tail or moves there.
    #[inline]
    pub fn insert_at(&mut self, slot: u32, pos: u32) {
        let s = slot as usize;
        let seg = self.segs[s];
        if seg.len == seg.cap {
            if seg.ends_at(self.store.len()) {
                self.store.push(NONE);
                self.segs[s].cap = offset(self.store.len()) - seg.start;
            } else {
                self.relocate(s);
            }
        }
        let seg = &mut self.segs[s];
        let loc = seg.start + seg.len;
        seg.len += 1;
        self.store[loc as usize] = pos;
        self.note(pos, loc, slot);
        self.min[s] = self.min[s].min(pos);
        self.len += 1;
    }

    /// Moves `slot`'s full segment to the vector's tail with room for
    /// [`GROWTH`] times its live entries, retargeting their
    /// back-pointers; the room it leaves turns dead.
    fn relocate(&mut self, slot: usize) {
        let seg = self.segs[slot];
        debug_assert_eq!(seg.len, seg.cap, "only a full segment moves");
        let start = offset(self.store.len());
        let cap = seg
            .len
            .checked_mul(GROWTH)
            .expect("index capacity exceeded")
            .max(1);
        let end = start.checked_add(cap).expect("index capacity exceeded");
        self.store.extend_from_within(seg.live());
        self.store.resize(end as usize, NONE);
        for (loc, &pos) in (start..).zip(&self.store[start as usize..][..seg.len as usize]) {
            self.at[pos as usize].loc = loc;
        }
        self.segs[slot] = Seg {
            start,
            len: seg.len,
            cap,
        };
        self.dead += seg.cap as usize;
        self.repack_if_sparse();
    }

    /// Once dead room exceeds [`REPACK_DEAD`]'s share of the vector, lays
    /// every segment out again back to back, capacities kept, and
    /// retargets every back-pointer; free slots keep no room. `O(vector)`,
    /// paid for by the moves and releases that made the room dead.
    fn repack_if_sparse(&mut self) {
        if self.dead * REPACK_DEAD <= self.store.len() {
            return;
        }
        for &slot in &self.free {
            self.segs[slot as usize] = Seg::default();
        }
        let mut store = Vec::with_capacity(self.store.len() - self.dead);
        for seg in &mut self.segs {
            let start = offset(store.len());
            let live = &self.store[seg.live()];
            for (loc, &pos) in (start..).zip(live) {
                self.at[pos as usize].loc = loc;
            }
            store.extend_from_slice(live);
            store.resize(start as usize + seg.cap as usize, NONE);
            seg.start = start;
        }
        self.store = store;
        self.dead = 0;
    }

    /// Removes one occurrence of `pos` under `key`; returns whether it
    /// was found. `O(1)` amortized through the position back-pointer
    /// (`O(group)` only when `pos` was the group's cached minimum and it
    /// must be rescanned). The segment's last live entry is swapped into
    /// the hole, so a group's order is no longer position-ascending
    /// after a removal — a consumer that needs the group's lowest
    /// position reads [`SymIndex::min_at`] or takes the minimum itself.
    /// Removing a group's last position frees the group.
    pub fn remove_key(&mut self, pos: u32, key: &[SymValue]) -> bool {
        match self.probe_slot(key) {
            Some(slot) => self.remove_at(slot, pos),
            None => false,
        }
    }

    /// [`SymIndex::remove_key`] minus the probe: removes one occurrence
    /// of `pos` from the group addressed by `slot`, freeing the group
    /// (and the handle) when it empties.
    pub fn remove_at(&mut self, slot: u32, pos: u32) -> bool {
        let rec = match self.at.get(pos as usize) {
            Some(rec) if rec.loc != NONE => *rec,
            _ => return false,
        };
        // The record carries the owning slot — a mismatch means `pos`
        // is indexed under a *different* key.
        if rec.slot != slot {
            return false;
        }
        let s = slot as usize;
        let seg = &mut self.segs[s];
        debug_assert!(
            seg.live().contains(&(rec.loc as usize)) && self.store[rec.loc as usize] == pos,
            "back-pointer must land on `pos` in its slot's live segment"
        );
        seg.len -= 1;
        let last = seg.start + seg.len;
        if rec.loc != last {
            // The entry swapped into the hole moved: retarget it.
            let moved = self.store[last as usize];
            self.store[rec.loc as usize] = moved;
            self.at[moved as usize].loc = rec.loc;
        }
        self.at[pos as usize] = ABSENT;
        self.len -= 1;
        if seg.len == 0 {
            self.min[s] = NONE;
            self.free_slot(slot);
            return true;
        }
        if seg.cap >= SHRINK_MIN_CAP && seg.len <= seg.cap / SHRINK_FILL {
            let kept = seg.cap / 2;
            self.dead += (seg.cap - kept) as usize;
            seg.cap = kept;
            self.repack_if_sparse();
        }
        if self.min[s] == pos {
            self.min[s] = self.rescan_min(s);
        }
        true
    }

    /// Renumbers one occurrence of `from` to `to` under `key` — the
    /// index-side companion of a swap-based relation deletion. Returns
    /// whether `from` was found. `O(1)` through the position
    /// back-pointer (plus a group rescan when `from` was the cached
    /// minimum).
    pub fn replace_pos(&mut self, from: u32, to: u32, key: &[SymValue]) -> bool {
        match self.probe_slot(key) {
            Some(slot) => self.replace_at(slot, from, to),
            None => false,
        }
    }

    /// [`SymIndex::replace_pos`] minus the probe: renumbers `from` to
    /// `to` within the group addressed by `slot`.
    pub fn replace_at(&mut self, slot: u32, from: u32, to: u32) -> bool {
        let rec = match self.at.get(from as usize) {
            Some(rec) if rec.loc != NONE => *rec,
            _ => return false,
        };
        if rec.slot != slot {
            return false;
        }
        let s = slot as usize;
        debug_assert!(
            self.segs[s].live().contains(&(rec.loc as usize))
                && self.store[rec.loc as usize] == from,
            "back-pointer must land on `from` in its slot's live segment"
        );
        self.store[rec.loc as usize] = to;
        self.at[from as usize] = ABSENT;
        self.note(to, rec.loc, slot);
        if self.min[s] == from {
            self.min[s] = self.rescan_min(s);
        } else {
            self.min[s] = self.min[s].min(to);
        }
        true
    }

    /// The positions of tuples whose key equals `key` (empty when none).
    pub fn positions(&self, key: &[SymValue]) -> &[u32] {
        match self.probe_slot(key) {
            Some(slot) => self.slot_positions(slot as usize),
            None => &[],
        }
    }

    fn slot_positions(&self, slot: usize) -> &[u32] {
        &self.store[self.segs[slot].live()]
    }

    /// Does any indexed tuple carry `key`?
    pub fn contains_key(&self, key: &[SymValue]) -> bool {
        !self.positions(key).is_empty()
    }

    /// The smallest position under `key` — the batch sweep's "first
    /// witness" of the key group, independent of mutation history.
    /// `O(1)`: reads the maintained per-slot minimum.
    pub fn min_pos(&self, key: &[SymValue]) -> Option<u32> {
        self.min_at(self.probe_slot(key)?)
    }

    /// [`SymIndex::min_pos`] minus the probe: the smallest live position
    /// of the group addressed by `slot` (`None` when empty).
    #[inline]
    pub fn min_at(&self, slot: u32) -> Option<u32> {
        let m = self.min[slot as usize];
        // O(1), so debug builds keep mutation costs flat: the cached
        // minimum is one of the group's live positions. The random-walk
        // test checks that it is the smallest after every step.
        debug_assert!(
            if m == NONE {
                self.slot_positions(slot as usize).is_empty()
            } else {
                self.slot_of_pos(m) == Some(slot)
            },
            "cached minimum diverged from the group contents"
        );
        (m != NONE).then_some(m)
    }

    /// [`SymIndex::positions`] minus the probe: the live positions of the
    /// group addressed by `slot`.
    #[inline]
    pub fn positions_at(&self, slot: u32) -> &[u32] {
        self.slot_positions(slot as usize)
    }

    /// Does the group addressed by `slot` hold any tuple? `O(1)` — reads
    /// the cached minimum, which is `NONE` exactly when the group is
    /// empty: freed by its last removal, or new from
    /// [`SymIndex::ensure_slot`] and not yet filled.
    #[inline]
    pub fn occupied_at(&self, slot: u32) -> bool {
        self.min[slot as usize] != NONE
    }

    /// The slot handle of the group holding dense position `pos`, if it
    /// is indexed — the probe-free inverse of [`SymIndex::positions_at`].
    /// `O(1)`: a direct read of the per-position slot record, so the
    /// delta engine's delete path never rehashes a resident tuple's key
    /// just to find its group.
    #[inline]
    pub fn slot_of_pos(&self, pos: u32) -> Option<u32> {
        match self.at.get(pos as usize) {
            Some(rec) if rec.loc != NONE => Some(rec.slot),
            _ => None,
        }
    }

    /// Iterator over the `(key, positions)` groups in slot order, which
    /// is first-seen key order for a bulk build (a new key takes the
    /// slot an emptied group freed, if any). Every group yielded holds
    /// at least one position.
    pub fn groups(&self) -> impl Iterator<Item = (&[SymValue], &[u32])> {
        (0..offset(self.segs.len()))
            .filter(|&slot| self.occupied_at(slot))
            .map(|slot| (self.key(slot), self.positions_at(slot)))
    }

    /// Number of key groups holding at least one position — never more
    /// than [`SymIndex::len`], since an emptied group is freed at once.
    pub fn distinct_keys(&self) -> usize {
        self.segs.len() - self.free.len()
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position entries held in storage: live ones, spare room in the
    /// segments and dead room between them. At most
    /// `8 · len() + 6 · distinct_keys()` (so at most `14 · len()`) after
    /// any mutation, and exactly `len()` after a bulk build.
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// The arity of keys in this index.
    pub fn key_len(&self) -> usize {
        self.key_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, AttrId, Dict, Relation, Tuple, Value};
    use std::collections::{BTreeSet, HashMap};

    /// `t`'s key cells, interning new strings.
    fn key_of(t: &Tuple, key_attrs: &[AttrId], dict: &mut Dict) -> Vec<SymValue> {
        key_attrs.iter().map(|a| dict.acquire_sym(&t[*a])).collect()
    }

    /// Symbolizes `rel`'s keys first, then bulk-builds over them.
    fn build(rel: &Relation, key_attrs: &[AttrId], dict: &mut Dict) -> SymIndex {
        let keys: Vec<Vec<SymValue>> = rel.iter().map(|t| key_of(t, key_attrs, dict)).collect();
        SymIndex::build_with(keys.len(), key_attrs.len(), |pos, buf| {
            buf.extend_from_slice(&keys[pos]);
            true
        })
    }

    /// Streams `t` in at `pos` under its (interned) key.
    fn insert(idx: &mut SymIndex, pos: u32, t: &Tuple, key_attrs: &[AttrId], dict: &mut Dict) {
        idx.insert_key(pos, &key_of(t, key_attrs, dict));
    }

    fn rel() -> Relation {
        [
            tuple!["EDI", "UK", 1i64],
            tuple!["EDI", "UK", 2i64],
            tuple!["NYC", "US", 1i64],
        ]
        .into_iter()
        .collect()
    }

    fn probe_vec(idx: &SymIndex, key: &[SymValue]) -> Vec<u32> {
        idx.positions(key).to_vec()
    }

    #[test]
    fn build_probe_and_groups_agree_with_hash_index() {
        let r = rel();
        let mut dict = Dict::new();
        let idx = build(&r, &[AttrId(0)], &mut dict);
        let edi = [dict.sym_value(&Value::str("EDI")).unwrap()];
        assert_eq!(probe_vec(&idx, &edi), vec![0, 1]);
        assert!(idx.contains_key(&edi));
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 3);
        // A std hash map over the raw values groups the same positions.
        let mut reference: HashMap<&Value, Vec<u32>> = Default::default();
        for (pos, t) in r.iter().enumerate() {
            reference.entry(&t[AttrId(0)]).or_default().push(pos as u32);
        }
        assert_eq!(idx.distinct_keys(), reference.len());
        for (value, positions) in &reference {
            let key = [dict.sym_value(value).unwrap()];
            assert_eq!(&probe_vec(&idx, &key), positions);
        }
        for (key, positions) in idx.groups() {
            assert_eq!(key.len(), 1);
            assert!(!positions.is_empty());
        }
    }

    #[test]
    fn mixed_type_composite_keys() {
        let r = rel();
        let mut dict = Dict::new();
        let idx = build(&r, &[AttrId(2), AttrId(1)], &mut dict);
        let key = [SymValue::Int(1), dict.sym_value(&Value::str("UK")).unwrap()];
        assert_eq!(probe_vec(&idx, &key), vec![0]);
    }

    #[test]
    fn incremental_insert_extends_groups() {
        let mut dict = Dict::new();
        let mut idx = SymIndex::new(1);
        let attrs = [AttrId(0)];
        insert(&mut idx, 0, &tuple!["a", "x"], &attrs, &mut dict);
        insert(&mut idx, 1, &tuple!["a", "y"], &attrs, &mut dict);
        insert(&mut idx, 2, &tuple!["b", "x"], &attrs, &mut dict);
        insert(&mut idx, 3, &tuple!["a", "z"], &attrs, &mut dict);
        let a = [dict.sym_value(&Value::str("a")).unwrap()];
        let mut got = probe_vec(&idx, &a);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 3]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.min_pos(&a), Some(0));
    }

    #[test]
    fn zero_width_keys_group_everything() {
        let r = rel();
        let mut dict = Dict::new();
        let idx = build(&r, &[], &mut dict);
        assert_eq!(probe_vec(&idx, &[]), vec![0, 1, 2]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    /// An empty-LHS CFD keys its group index on zero cells: one group
    /// holds every tuple. Emptying it frees its slot like any other
    /// group's, and the next insert takes the slot back.
    #[test]
    fn zero_width_group_empties_and_refills() {
        let mut idx = SymIndex::new(0);
        assert_eq!(idx.probe_slot(&[]), None);
        for pos in 0..5 {
            idx.insert_key(pos, &[]);
        }
        let slot = idx.probe_slot(&[]).unwrap();
        assert_eq!(idx.distinct_keys(), 1);
        for pos in (0..5).rev() {
            assert!(idx.remove_at(slot, pos));
            assert!(idx.distinct_keys() <= idx.len());
        }
        assert!(idx.is_empty());
        assert_eq!(idx.distinct_keys(), 0);
        assert_eq!(idx.probe_slot(&[]), None, "the emptied group is freed");
        assert!(!idx.contains_key(&[]));
        assert_eq!(idx.groups().count(), 0);
        assert!(idx.stored() <= 14 * idx.len());
        let again = idx.ensure_slot(&[]);
        assert_eq!(again, slot, "the freed slot is reused");
        assert!(!idx.occupied_at(again));
        idx.insert_at(again, 7);
        idx.insert_key(3, &[]);
        let mut got = probe_vec(&idx, &[]);
        got.sort_unstable();
        assert_eq!(got, vec![3, 7]);
        assert_eq!(idx.min_at(again), Some(3));
        assert_eq!(idx.slot_of_pos(7), Some(again));
        assert_eq!(idx.groups().count(), 1);
    }

    #[test]
    fn unknown_key_probes_empty() {
        let r = rel();
        let mut dict = Dict::new();
        let idx = build(&r, &[AttrId(0)], &mut dict);
        // A string the dictionary has never seen cannot even form a key;
        // sym_value signals that with None.
        assert_eq!(dict.sym_value(&Value::str("LON")), None);
        // A well-formed but absent key probes empty.
        assert!(probe_vec(&idx, &[SymValue::Int(99)]).is_empty());
        assert_eq!(idx.min_pos(&[SymValue::Int(99)]), None);
        assert_eq!(SymIndex::new(1).probe_slot(&[SymValue::Int(1)]), None);
    }

    #[test]
    fn bulk_build_segments_are_position_ascending() {
        // Interleave two keys so their rows alternate; the counting-sort
        // scatter must still emit each segment in ascending order.
        let r: Relation = (0..10i64)
            .map(|i| tuple![if i % 2 == 0 { "even" } else { "odd" }, i])
            .collect();
        let mut dict = Dict::new();
        let idx = build(&r, &[AttrId(0)], &mut dict);
        let even = [dict.sym_value(&Value::str("even")).unwrap()];
        let odd = [dict.sym_value(&Value::str("odd")).unwrap()];
        assert_eq!(probe_vec(&idx, &even), vec![0, 2, 4, 6, 8]);
        assert_eq!(probe_vec(&idx, &odd), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn remove_and_replace_maintain_the_multiset() {
        let mut dict = Dict::new();
        let mut idx = SymIndex::new(1);
        let attrs = [AttrId(0)];
        for (pos, t) in [
            tuple!["k", "a"],
            tuple!["k", "b"],
            tuple!["j", "c"],
            tuple!["k", "d"],
        ]
        .iter()
        .enumerate()
        {
            insert(&mut idx, pos as u32, t, &attrs, &mut dict);
        }
        let k = [dict.sym_value(&Value::str("k")).unwrap()];
        let j = [dict.sym_value(&Value::str("j")).unwrap()];
        assert!(idx.remove_key(1, &k));
        assert!(!idx.remove_key(1, &k), "already removed");
        let mut got = probe_vec(&idx, &k);
        got.sort_unstable();
        assert_eq!(got, vec![0, 3]);
        assert_eq!(idx.len(), 3);
        // Renumber 3 → 1 (a swap-removed relation position).
        assert!(idx.replace_pos(3, 1, &k));
        assert_eq!(idx.min_pos(&k), Some(0));
        let mut got = probe_vec(&idx, &k);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        // An emptied group is freed at once: it probes absent.
        let (slot_j, stored) = (idx.probe_slot(&j).unwrap(), idx.stored());
        assert!(idx.remove_key(2, &j));
        assert!(!idx.contains_key(&j));
        assert_eq!(idx.probe_slot(&j), None);
        assert_eq!(idx.distinct_keys(), 1);
        // The key comes back in the freed slot and its old room: nothing
        // moves to the tail of the storage.
        idx.insert_key(7, &j);
        assert_eq!(idx.probe_slot(&j), Some(slot_j));
        assert_eq!(idx.stored(), stored);
        assert_eq!(probe_vec(&idx, &j), vec![7]);
        assert_eq!(idx.distinct_keys(), 2);
        assert!(idx.remove_key(7, &j));
        assert!(!idx.replace_pos(9, 1, &j));
    }

    #[test]
    fn emptied_groups_are_freed_and_live_ones_preserved() {
        let mut dict = Dict::new();
        let mut idx = SymIndex::new(1);
        let attrs = [AttrId(0)];
        // Churn: 50 keys come and go, two stay.
        for i in 0..50u32 {
            insert(
                &mut idx,
                i,
                &tuple![format!("gone{i}").as_str(), "x"],
                &attrs,
                &mut dict,
            );
        }
        insert(&mut idx, 50, &tuple!["keep", "x"], &attrs, &mut dict);
        insert(&mut idx, 51, &tuple!["keep", "y"], &attrs, &mut dict);
        insert(&mut idx, 52, &tuple!["also", "z"], &attrs, &mut dict);
        for i in 0..50u32 {
            let key = [dict.sym_value(&Value::str(format!("gone{i}"))).unwrap()];
            assert!(idx.remove_key(i, &key));
            assert_eq!(idx.probe_slot(&key), None, "gone{i} is freed");
        }
        assert_eq!(idx.distinct_keys(), 2, "no emptied group lingers");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.groups().count(), 2);
        assert!(idx.stored() <= 8 * idx.len() + 6 * idx.distinct_keys());
        // Live groups survive and stay mutable.
        let keep = [dict.sym_value(&Value::str("keep")).unwrap()];
        let also = [dict.sym_value(&Value::str("also")).unwrap()];
        assert_eq!(probe_vec(&idx, &keep), vec![50, 51]);
        assert_eq!(idx.min_pos(&keep), Some(50));
        assert_eq!(probe_vec(&idx, &also), vec![52]);
        assert!(idx.remove_key(51, &keep));
        idx.insert_key(53, &also);
        let mut got = probe_vec(&idx, &also);
        got.sort_unstable();
        assert_eq!(got, vec![52, 53]);
        // Fifty new keys take the fifty freed slots: the slot vectors
        // do not grow.
        let slots = idx.segs.len();
        for i in 0..50u32 {
            let key = [SymValue::Int(i64::from(i))];
            idx.insert_key(60 + i, &key);
            assert_eq!(idx.key(idx.probe_slot(&key).unwrap()), key);
        }
        assert_eq!(idx.segs.len(), slots);
        assert_eq!(idx.distinct_keys(), 52);
    }

    #[test]
    fn slot_of_pos_tracks_every_mutation() {
        let r = rel();
        let mut dict = Dict::new();
        let mut idx = build(&r, &[AttrId(0)], &mut dict);
        let edi = [dict.sym_value(&Value::str("EDI")).unwrap()];
        let nyc = [dict.sym_value(&Value::str("NYC")).unwrap()];
        let se = idx.probe_slot(&edi).unwrap();
        let sn = idx.probe_slot(&nyc).unwrap();
        // Bulk-built positions resolve to their probed slots.
        assert_eq!(idx.slot_of_pos(0), Some(se));
        assert_eq!(idx.slot_of_pos(1), Some(se));
        assert_eq!(idx.slot_of_pos(2), Some(sn));
        assert_eq!(idx.slot_of_pos(3), None, "never-indexed position");
        // Streaming inserts land in either group; both are tracked.
        insert(
            &mut idx,
            3,
            &tuple!["EDI", "UK", 3i64],
            &[AttrId(0)],
            &mut dict,
        );
        insert(
            &mut idx,
            4,
            &tuple!["NYC", "US", 2i64],
            &[AttrId(0)],
            &mut dict,
        );
        assert_eq!(idx.slot_of_pos(3), Some(se));
        assert_eq!(idx.slot_of_pos(4), Some(sn));
        // Removal forgets the position; renumbering follows it.
        assert!(idx.remove_at(se, 1));
        assert_eq!(idx.slot_of_pos(1), None);
        assert!(idx.replace_at(sn, 4, 1));
        assert_eq!(idx.slot_of_pos(4), None);
        assert_eq!(idx.slot_of_pos(1), Some(sn));
        // Emptying NYC's group frees its slot; a new key takes it and
        // its positions resolve to it.
        assert!(idx.remove_at(sn, 1));
        assert!(idx.remove_at(sn, 2));
        assert_eq!(idx.probe_slot(&nyc), None);
        let lon = [SymValue::Int(7)];
        idx.insert_key(1, &lon);
        assert_eq!(idx.probe_slot(&lon), Some(sn), "the freed slot is reused");
        assert_eq!(idx.slot_of_pos(1), Some(sn));
        assert_eq!(idx.slot_of_pos(0), Some(se));
        assert_eq!(idx.slot_of_pos(3), Some(se));
    }

    #[test]
    fn streaming_inserts_after_bulk_build_move_or_grow_segments() {
        let r = rel();
        let mut dict = Dict::new();
        let mut idx = build(&r, &[AttrId(0)], &mut dict);
        // The bulk build leaves no spare room. "EDI"'s full segment is
        // not at the tail of the shared vector, so this insert moves it
        // there; "EDI" is then at the tail and "NYC" moves behind it.
        // Either way the group contents must be right.
        insert(
            &mut idx,
            3,
            &tuple!["EDI", "UK", 3i64],
            &[AttrId(0)],
            &mut dict,
        );
        insert(
            &mut idx,
            4,
            &tuple!["NYC", "US", 2i64],
            &[AttrId(0)],
            &mut dict,
        );
        let edi = [dict.sym_value(&Value::str("EDI")).unwrap()];
        let nyc = [dict.sym_value(&Value::str("NYC")).unwrap()];
        let mut e = probe_vec(&idx, &edi);
        e.sort_unstable();
        assert_eq!(e, vec![0, 1, 3]);
        let mut n = probe_vec(&idx, &nyc);
        n.sort_unstable();
        assert_eq!(n, vec![2, 4]);
        assert_eq!(idx.len(), 5);
        assert_eq!(
            idx.stored(),
            3 + 4 + 2,
            "the seed room plus two moved segments"
        );
        // Removal reaches moved segments; the freed room is reused.
        assert!(idx.remove_key(3, &edi));
        assert!(idx.remove_key(0, &edi));
        let mut e = probe_vec(&idx, &edi);
        e.sort_unstable();
        assert_eq!(e, vec![1]);
    }

    /// splitmix64: the random walk's seeded choices.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A key of the walk: `(kind, id)`.
    type WalkKey = (i64, i64);

    fn cells((kind, id): WalkKey) -> [SymValue; 2] {
        [SymValue::Int(kind), SymValue::Int(id)]
    }

    /// The index agrees with the model on `key`'s group.
    fn assert_group(idx: &SymIndex, model: &HashMap<WalkKey, BTreeSet<u32>>, key: WalkKey) {
        let want = model.get(&key).cloned().unwrap_or_default();
        let cells = cells(key);
        let mut got = idx.positions(&cells).to_vec();
        got.sort_unstable();
        assert!(got.iter().copied().eq(want.iter().copied()), "{key:?}");
        assert_eq!(idx.min_pos(&cells), want.first().copied(), "{key:?}");
        match idx.probe_slot(&cells) {
            Some(slot) => {
                assert!(!want.is_empty(), "{key:?}: an emptied group lingers");
                assert!(idx.occupied_at(slot), "{key:?}");
                assert_eq!(idx.key(slot), cells, "{key:?}");
                assert_eq!(idx.min_at(slot), want.first().copied(), "{key:?}");
            }
            None => assert!(want.is_empty(), "{key:?} lost its slot"),
        }
    }

    /// A seeded random walk of inserts, removes and swap-renumbers over
    /// a few hot keys, a few hundred warm keys and never-seen keys,
    /// against a `HashMap<key, BTreeSet<position>>` model that drops a
    /// key with its last position. Positions stay dense like a
    /// relation's: a remove renumbers the last position into the hole.
    /// Phases alternate between growth and shrinkage, so segments move,
    /// release room and repack, groups empty and slots are reused.
    /// After every step the index holds exactly the model's non-empty
    /// groups, a freed key probes absent, and a reused slot carries its
    /// new key.
    #[test]
    fn random_walk_matches_a_hash_map_model() {
        for seed in [1u64, 2] {
            let mut rng = Rng(seed);
            let mut idx = SymIndex::new(2);
            let mut model: HashMap<WalkKey, BTreeSet<u32>> = HashMap::new();
            let mut key_at: Vec<WalkKey> = Vec::new();
            let mut fresh = 0i64;
            // Slots freed so far, and how often one was taken again.
            let mut freed: BTreeSet<u32> = BTreeSet::new();
            let mut reused = 0usize;
            for step in 0..25_000u32 {
                let grow = (step / 2_500) % 2 == 0;
                let mut touched = Vec::new();
                if key_at.is_empty() || rng.below(100) < if grow { 65 } else { 35 } {
                    let key = match rng.below(10) {
                        0..=5 => (0, rng.below(4) as i64),
                        6..=8 => (1, rng.below(300) as i64),
                        _ => {
                            fresh += 1;
                            (2, fresh)
                        }
                    };
                    let pos = key_at.len() as u32;
                    let is_new = !model.contains_key(&key);
                    let slot = if step % 2 == 0 {
                        idx.insert_key(pos, &cells(key));
                        idx.probe_slot(&cells(key)).expect("just inserted")
                    } else {
                        let slot = idx.ensure_slot(&cells(key));
                        assert_eq!(idx.occupied_at(slot), !is_new, "{key:?}");
                        idx.insert_at(slot, pos);
                        slot
                    };
                    if is_new && freed.remove(&slot) {
                        reused += 1;
                        assert_eq!(
                            idx.key(slot),
                            cells(key),
                            "a reused slot carries its new key"
                        );
                        assert_eq!(idx.positions_at(slot), [pos]);
                    }
                    model.entry(key).or_default().insert(pos);
                    key_at.push(key);
                    touched.push(key);
                    assert_eq!(idx.slot_of_pos(pos), Some(slot));
                } else {
                    let pos = rng.below(key_at.len() as u64) as u32;
                    let key = key_at[pos as usize];
                    assert!(!idx.remove_key(pos, &cells((3, 0))), "absent key");
                    let slot = idx.slot_of_pos(pos).expect("indexed");
                    if step % 2 == 0 {
                        assert!(idx.remove_key(pos, &cells(key)));
                    } else {
                        assert!(idx.remove_at(slot, pos));
                    }
                    assert!(!idx.remove_key(pos, &cells(key)), "already removed");
                    let group = model.get_mut(&key).expect("modelled");
                    group.remove(&pos);
                    if group.is_empty() {
                        model.remove(&key);
                        freed.insert(slot);
                        assert_eq!(idx.probe_slot(&cells(key)), None, "{key:?} is freed");
                        assert!(!idx.occupied_at(slot));
                    }
                    touched.push(key);
                    let last = key_at.len() as u32 - 1;
                    if pos != last {
                        let moved = key_at[last as usize];
                        assert!(idx.replace_pos(last, pos, &cells(moved)));
                        let group = model.get_mut(&moved).expect("modelled");
                        group.remove(&last);
                        group.insert(pos);
                        touched.push(moved);
                    }
                    key_at.swap_remove(pos as usize);
                    assert!(!idx.replace_pos(last, pos, &cells(key)), "gone");
                    assert_eq!(idx.slot_of_pos(last), None);
                    if let Some(&now) = key_at.get(pos as usize) {
                        assert_eq!(idx.slot_of_pos(pos), idx.probe_slot(&cells(now)));
                    }
                }
                assert_eq!(idx.len(), key_at.len());
                assert_eq!(idx.distinct_keys(), model.len(), "step {step}");
                assert!(idx.distinct_keys() <= idx.len());
                assert!(
                    idx.stored() <= 8 * idx.len() + 6 * idx.distinct_keys(),
                    "step {step}: {} stored for {} live in {} keys",
                    idx.stored(),
                    idx.len(),
                    idx.distinct_keys()
                );
                for key in touched {
                    assert_group(&idx, &model, key);
                }
                if step % 1_000 == 0 {
                    for &key in model.keys() {
                        assert_group(&idx, &model, key);
                    }
                    for (pos, &key) in key_at.iter().enumerate() {
                        let slot = idx.probe_slot(&cells(key));
                        assert_eq!(idx.slot_of_pos(pos as u32), slot, "{key:?} at {pos}");
                    }
                    let groups: Vec<(&[SymValue], &[u32])> = idx.groups().collect();
                    assert_eq!(groups.len(), model.len());
                    assert!(groups.iter().all(|(_, positions)| !positions.is_empty()));
                }
            }
            assert!(reused > 1_000, "seed {seed}: only {reused} slots reused");
        }
    }
}
