//! Compact-key group-by indexes over interned values.
//!
//! A [`SymIndex`] is the [`crate::HashIndex`] idea rebuilt for the
//! batched Σ-validation hot path: keys are `Box<[SymValue]>` — `Copy`
//! word-sized cells from a [`condep_model::Interner`] — hashed with the
//! fx hasher, so building and probing never touch string bytes or bump
//! `Arc` reference counts. Probes borrow (`&[SymValue]`).
//!
//! Every build reads cells that were symbolized beforehand: contiguous
//! columns such as a [`condep_model::SymTables`]'s
//! ([`SymIndex::build_from_columns`], what discovery uses), or any other
//! symbol store through [`SymIndex::build_with`] (the validator's group
//! tasks, reading column-major tables or a stream's row-major row
//! cache). No build interns or hashes a tuple's strings.
//!
//! Storage is a two-tier layout tuned for both the batch sweep and the
//! delta engine:
//!
//! * **Bulk tier** — the whole-relation builds run a two-pass counting
//!   sort: pass one maps rows to key slots and counts them, pass two
//!   scatters positions into **one** shared CSR vector. No per-key `Vec`
//!   is ever allocated, and each slot's segment is contiguous and
//!   position-ascending — ideal for the sequential group sweep.
//! * **Overflow tier** — streaming [`SymIndex::insert_key`]s that cannot
//!   extend a slot's tail segment go to a shared arena of singly-linked
//!   nodes (with a free list fed by removals), so incremental growth is
//!   also allocation-amortized.
//!
//! [`SymIndex::remove_key`] / [`SymIndex::replace_pos`] give the
//! multiset-aware maintenance the `ValidatorStream` delta engine needs:
//! removal is `O(group)`, and a swap-removed relation position can be
//! renumbered in place.

use condep_model::fxhash::FxBuildHasher;
use condep_model::SymValue;
use std::collections::HashMap;

/// Sentinel for "no overflow node".
const NONE: u32 = u32::MAX;

/// High bit of a stored location: the location is an overflow node
/// index, not a `bulk` offset.
const OVER_BIT: u32 = 1 << 31;

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
#[derive(Clone, Debug, Default)]
pub struct SymIndex {
    /// Distinct keys → slot, probed with borrowed `&[SymValue]`.
    map: HashMap<Box<[SymValue]>, u32, FxBuildHasher>,
    /// Distinct keys in first-seen order, parallel to the slot vectors.
    keys: Vec<Box<[SymValue]>>,
    /// Shared CSR position storage for the bulk tier.
    bulk: Vec<u32>,
    /// Per slot: start of its segment in `bulk`.
    bulk_start: Vec<u32>,
    /// Per slot: live length of its segment.
    bulk_len: Vec<u32>,
    /// Overflow arena: `(position, next)` singly-linked per slot.
    over: Vec<(u32, u32)>,
    /// Per slot: head of its overflow chain (`NONE` when empty).
    over_head: Vec<u32>,
    /// Free list through the `next` fields of `over`.
    free_head: u32,
    /// Per dense position: its storage location and owning slot, packed
    /// in one 8-byte record so the delete path's two questions — "where
    /// is it stored?" and "which group owns it?" ([`SymIndex::
    /// slot_of_pos`]) — cost a single cache line. `loc` is a `bulk`
    /// offset, or an overflow node index tagged with [`OVER_BIT`]
    /// (`NONE` = absent).
    at: Vec<PosRec>,
    /// Per slot: cached smallest live position (`NONE` when emptied).
    min: Vec<u32>,
    /// Total live positions.
    len: usize,
    key_len: usize,
}

impl SymIndex {
    /// An empty index over keys of width `key_len`.
    pub fn new(key_len: usize) -> Self {
        SymIndex {
            map: HashMap::default(),
            keys: Vec::new(),
            bulk: Vec::new(),
            bulk_start: Vec::new(),
            bulk_len: Vec::new(),
            over: Vec::new(),
            over_head: Vec::new(),
            free_head: NONE,
            at: Vec::new(),
            min: Vec::new(),
            len: 0,
            key_len,
        }
    }

    /// Builds from pre-symbolized columns (see
    /// [`condep_model::SymTables`]): `key_cols` are the key attributes'
    /// columns in key order, all of length `rows`; only positions passing
    /// `filter` are indexed. This is the validation hot path — key cells
    /// are `Copy` reads, the counting-sort build allocates one shared
    /// position vector, and no string ever gets hashed.
    pub fn build_from_columns<F>(rows: usize, key_cols: &[&[SymValue]], filter: F) -> Self
    where
        F: Fn(usize) -> bool,
    {
        SymIndex::build_with(rows, key_cols.len(), |pos, buf| {
            if !filter(pos) {
                return false;
            }
            buf.extend(key_cols.iter().map(|col| col[pos]));
            true
        })
    }

    /// Builds over positions `0..rows` from any pre-symbolized store:
    /// `key_at(pos, buf)` writes position `pos`'s `key_len` key cells
    /// into the cleared `buf` and returns whether `pos` is indexed (the
    /// cells of a skipped position are ignored). The same counting-sort
    /// bulk build as [`SymIndex::build_from_columns`], for stores that
    /// are not column-major.
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

    /// The slot handle of `key`, if the key has ever been seen — one
    /// hash probe; every `*_at` method is then `O(1)` with **no**
    /// rehashing. Handles are stable across every mutation and only
    /// invalidated by [`SymIndex::compact`] / [`SymIndex::remap_keys`].
    /// An emptied group keeps its handle (probe [`SymIndex::occupied_at`]
    /// to distinguish "seen but empty" from "holds tuples").
    #[inline]
    pub fn probe_slot(&self, key: &[SymValue]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.key_len);
        self.map.get(key).copied()
    }

    /// The slot handle of `key`, allocating an empty slot on first
    /// sight — the insert-side counterpart of [`SymIndex::probe_slot`].
    #[inline]
    pub fn ensure_slot(&mut self, key: &[SymValue]) -> u32 {
        self.slot_of(key)
    }

    /// The slot of `key`, allocating a fresh (empty) one on first sight.
    fn slot_of(&mut self, key: &[SymValue]) -> u32 {
        debug_assert_eq!(key.len(), self.key_len);
        if let Some(&slot) = self.map.get(key) {
            return slot;
        }
        let slot = u32::try_from(self.keys.len()).expect("index capacity exceeded");
        let boxed: Box<[SymValue]> = key.into();
        self.map.insert(boxed.clone(), slot);
        self.keys.push(boxed);
        self.bulk_start.push(0);
        self.bulk_len.push(0);
        self.over_head.push(NONE);
        self.min.push(NONE);
        slot
    }

    /// Records position `pos`'s storage location and owning slot.
    fn note(&mut self, pos: u32, loc: u32, slot: u32) {
        let pos = pos as usize;
        if pos >= self.at.len() {
            self.at.resize(pos + 1, ABSENT);
        }
        self.at[pos] = PosRec { loc, slot };
    }

    /// Recomputes a slot's cached minimum from both tiers.
    fn rescan_min(&self, slot: usize) -> u32 {
        self.slot_positions(slot).min().unwrap_or(NONE)
    }

    /// Counting-sort scatter: lays `(pos, slot)` pairs out as contiguous
    /// per-slot CSR segments in one shared vector (pairs arrive in
    /// ascending position order, so segments end up ascending too), and
    /// seeds the per-position back-pointers and per-slot minima.
    fn scatter_bulk(&mut self, pairs: &[(u32, u32)]) {
        debug_assert!(self.bulk.is_empty(), "scatter_bulk is a bulk-build step");
        let mut counts = vec![0u32; self.keys.len()];
        let mut max_pos = 0usize;
        for &(pos, slot) in pairs {
            counts[slot as usize] += 1;
            max_pos = max_pos.max(pos as usize + 1);
        }
        let mut start = 0u32;
        for (slot, count) in counts.iter().enumerate() {
            self.bulk_start[slot] = start;
            start += count;
        }
        self.bulk.resize(pairs.len(), 0);
        if max_pos > self.at.len() {
            self.at.resize(max_pos, ABSENT);
        }
        for &(pos, slot) in pairs {
            let s = slot;
            let slot = slot as usize;
            let at = self.bulk_start[slot] + self.bulk_len[slot];
            self.bulk[at as usize] = pos;
            self.bulk_len[slot] += 1;
            self.at[pos as usize] = PosRec { loc: at, slot: s };
            self.min[slot] = self.min[slot].min(pos);
        }
        self.len = pairs.len();
    }

    /// Appends `pos` under the already-translated `key` (streaming
    /// tier). When the slot's bulk segment ends at the tail of the
    /// shared vector it is grown in place; otherwise the position goes
    /// to the overflow arena.
    pub fn insert_key(&mut self, pos: u32, key: &[SymValue]) {
        let slot = self.slot_of(key);
        self.insert_at(slot, pos);
    }

    /// [`SymIndex::insert_key`] minus the probe: appends `pos` under the
    /// group addressed by `slot` (from [`SymIndex::ensure_slot`]).
    #[inline]
    pub fn insert_at(&mut self, slot: u32, pos: u32) {
        let s = slot;
        let slot = slot as usize;
        let seg_end = self.bulk_start[slot] + self.bulk_len[slot];
        if seg_end as usize == self.bulk.len() {
            self.bulk.push(pos);
            self.bulk_len[slot] += 1;
            self.note(pos, seg_end, s);
        } else {
            let node = if self.free_head != NONE {
                let node = self.free_head;
                self.free_head = self.over[node as usize].1;
                self.over[node as usize] = (pos, self.over_head[slot]);
                node
            } else {
                let node = u32::try_from(self.over.len()).expect("overflow arena full");
                self.over.push((pos, self.over_head[slot]));
                node
            };
            self.over_head[slot] = node;
            self.note(pos, node | OVER_BIT, s);
        }
        self.min[slot] = self.min[slot].min(pos);
        self.len += 1;
    }

    /// Removes one occurrence of `pos` under `key`; returns whether it
    /// was found. `O(1)` through the position back-pointer (`O(chain)`
    /// in the overflow tier, `O(group)` only when `pos` was the group's
    /// cached minimum and it must be rescanned). Within the bulk segment
    /// the last live entry is swapped into the hole, so segment
    /// iteration order is no longer position-ascending after a removal —
    /// order-sensitive consumers must sort (see `wildcard_pairs`
    /// recomputation in `condep-validate`).
    pub fn remove_key(&mut self, pos: u32, key: &[SymValue]) -> bool {
        debug_assert_eq!(key.len(), self.key_len);
        match self.map.get(key) {
            Some(&slot) => self.remove_at(slot, pos),
            None => false,
        }
    }

    /// [`SymIndex::remove_key`] minus the probe: removes one occurrence
    /// of `pos` from the group addressed by `slot`.
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
        let loc = rec.loc;
        let slot = slot as usize;
        if loc & OVER_BIT == 0 {
            let loc = loc as usize;
            let (start, live) = (self.bulk_start[slot] as usize, self.bulk_len[slot] as usize);
            debug_assert!(
                loc >= start && loc < start + live && self.bulk[loc] == pos,
                "back-pointer must land on `pos` in its slot's live segment"
            );
            let tail = start + live - 1;
            self.bulk.swap(loc, tail);
            if loc != tail {
                // The entry swapped into the hole moved: retarget it.
                self.at[self.bulk[loc] as usize].loc = loc as u32;
            }
            self.bulk_len[slot] -= 1;
        } else {
            // Unlink from the overflow chain (singly linked, so walk for
            // the predecessor; chains are short streamed growth).
            let target = loc & !OVER_BIT;
            debug_assert_eq!(self.over[target as usize].0, pos);
            let mut prev = NONE;
            let mut node = self.over_head[slot];
            loop {
                if node == NONE {
                    return false;
                }
                if node == target {
                    break;
                }
                prev = node;
                node = self.over[node as usize].1;
            }
            let next = self.over[target as usize].1;
            if prev == NONE {
                self.over_head[slot] = next;
            } else {
                self.over[prev as usize].1 = next;
            }
            self.over[target as usize] = (0, self.free_head);
            self.free_head = target;
        }
        self.at[pos as usize] = ABSENT;
        self.len -= 1;
        if self.min[slot] == pos {
            self.min[slot] = self.rescan_min(slot);
        }
        true
    }

    /// Renumbers one occurrence of `from` to `to` under `key` — the
    /// index-side companion of a swap-based relation deletion. Returns
    /// whether `from` was found. `O(1)` through the position
    /// back-pointer (plus a group rescan when `from` was the cached
    /// minimum).
    pub fn replace_pos(&mut self, from: u32, to: u32, key: &[SymValue]) -> bool {
        debug_assert_eq!(key.len(), self.key_len);
        match self.map.get(key) {
            Some(&slot) => self.replace_at(slot, from, to),
            None => false,
        }
    }

    /// [`SymIndex::replace_pos`] minus the probe: renumbers `from` to
    /// `to` within the group addressed by `slot`.
    pub fn replace_at(&mut self, slot: u32, from: u32, to: u32) -> bool {
        let s = slot;
        let rec = match self.at.get(from as usize) {
            Some(rec) if rec.loc != NONE => *rec,
            _ => return false,
        };
        if rec.slot != s {
            return false;
        }
        let loc = rec.loc;
        let slot = slot as usize;
        if loc & OVER_BIT == 0 {
            let l = loc as usize;
            debug_assert!(
                {
                    let (start, live) =
                        (self.bulk_start[slot] as usize, self.bulk_len[slot] as usize);
                    l >= start && l < start + live && self.bulk[l] == from
                },
                "back-pointer must land on `from` in its slot's live segment"
            );
            self.bulk[l] = to;
        } else {
            let node = (loc & !OVER_BIT) as usize;
            debug_assert_eq!(self.over[node].0, from);
            debug_assert!(
                {
                    let mut n = self.over_head[slot];
                    let mut found = false;
                    while n != NONE {
                        if n as usize == node {
                            found = true;
                            break;
                        }
                        n = self.over[n as usize].1;
                    }
                    found
                },
                "renumbered node must live in the probed key's chain"
            );
            self.over[node].0 = to;
        }
        self.at[from as usize] = ABSENT;
        self.note(to, loc, s);
        if self.min[slot] == from {
            self.min[slot] = self.rescan_min(slot);
        } else {
            self.min[slot] = self.min[slot].min(to);
        }
        true
    }

    /// The positions of tuples whose key equals `key` (empty when none).
    pub fn positions(&self, key: &[SymValue]) -> PosIter<'_> {
        debug_assert_eq!(key.len(), self.key_len);
        match self.map.get(key) {
            Some(&slot) => self.slot_positions(slot as usize),
            None => PosIter {
                bulk: &[],
                over: &self.over,
                node: NONE,
            },
        }
    }

    fn slot_positions(&self, slot: usize) -> PosIter<'_> {
        let (start, live) = (self.bulk_start[slot] as usize, self.bulk_len[slot] as usize);
        PosIter {
            bulk: &self.bulk[start..start + live],
            over: &self.over,
            node: self.over_head[slot],
        }
    }

    /// Does any indexed tuple carry `key`?
    pub fn contains_key(&self, key: &[SymValue]) -> bool {
        self.positions(key).next().is_some()
    }

    /// The smallest position under `key` — the batch sweep's "first
    /// witness" of the key group, independent of mutation history.
    /// `O(1)`: reads the maintained per-slot minimum.
    pub fn min_pos(&self, key: &[SymValue]) -> Option<u32> {
        let &slot = self.map.get(key)?;
        self.min_at(slot)
    }

    /// [`SymIndex::min_pos`] minus the probe: the smallest live position
    /// of the group addressed by `slot` (`None` when emptied).
    #[inline]
    pub fn min_at(&self, slot: u32) -> Option<u32> {
        let m = self.min[slot as usize];
        debug_assert_eq!(
            (m != NONE).then_some(m),
            self.slot_positions(slot as usize).min(),
            "cached minimum diverged from the group contents"
        );
        (m != NONE).then_some(m)
    }

    /// [`SymIndex::positions`] minus the probe: the live positions of the
    /// group addressed by `slot`.
    #[inline]
    pub fn positions_at(&self, slot: u32) -> PosIter<'_> {
        self.slot_positions(slot as usize)
    }

    /// Does the group addressed by `slot` hold any tuple? `O(1)` — reads
    /// the cached minimum, which is `NONE` exactly when the group is
    /// empty.
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

    /// Iterator over `(key, positions)` groups in first-seen key order.
    /// Removals can leave a key with no positions; such groups are still
    /// yielded (their iterator is immediately empty).
    pub fn groups(&self) -> impl Iterator<Item = (&[SymValue], PosIter<'_>)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(slot, key)| (key.as_ref(), self.slot_positions(slot)))
    }

    /// Number of distinct keys ever seen (including emptied groups).
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The arity of keys in this index.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Rebuilds the index around its **live** key groups, dropping every
    /// emptied one, and returns how many groups were reclaimed.
    ///
    /// Removals never shrink the index: an emptied group keeps its map
    /// entry, key cells and slot bookkeeping forever, so a long-lived
    /// stream over high-key-churn data grows with the distinct keys ever
    /// seen, not with the live data. Compaction folds the overflow arena
    /// back into one freshly counting-sorted CSR (each surviving segment
    /// comes back position-ascending) and frees the dead slots.
    ///
    /// `O(keys + live positions)`; all live `(key, position)` pairs are
    /// preserved, so probes, removals and renumbers behave identically
    /// afterwards.
    pub fn compact(&mut self) -> usize {
        let seen = self.keys.len();
        let mut live: Vec<(Box<[SymValue]>, Vec<u32>)> = Vec::with_capacity(seen);
        for slot in 0..seen {
            let mut positions: Vec<u32> = self.slot_positions(slot).collect();
            if positions.is_empty() {
                continue;
            }
            positions.sort_unstable();
            live.push((std::mem::take(&mut self.keys[slot]), positions));
        }
        let key_len = self.key_len;
        *self = SymIndex::new(key_len);
        let mut pairs = Vec::new();
        for (key, positions) in live {
            let slot = self.slot_of(&key);
            pairs.extend(positions.into_iter().map(|p| (p, slot)));
        }
        self.scatter_bulk(&pairs);
        seen - self.keys.len()
    }

    /// Rewrites every key cell through `f` and rebuilds the probe map —
    /// the index-side half of an **interner compaction**: when the
    /// owning stream re-interns its live strings, the dense symbols
    /// change and every stored key must be translated to the new
    /// numbering. `f` must be injective on the cells actually stored
    /// (distinct keys stay distinct); position storage is untouched.
    pub fn remap_keys<F>(&mut self, f: F)
    where
        F: Fn(SymValue) -> SymValue,
    {
        self.map.clear();
        for (slot, key) in self.keys.iter_mut().enumerate() {
            for cell in key.iter_mut() {
                *cell = f(*cell);
            }
            self.map.insert(key.clone(), slot as u32);
        }
    }
}

/// Iterator over one key group's positions: the CSR bulk segment first,
/// then the overflow chain.
#[derive(Clone, Debug)]
pub struct PosIter<'a> {
    bulk: &'a [u32],
    over: &'a [(u32, u32)],
    node: u32,
}

impl Iterator for PosIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if let Some((&p, rest)) = self.bulk.split_first() {
            self.bulk = rest;
            return Some(p);
        }
        if self.node == NONE {
            return None;
        }
        let (p, next) = self.over[self.node as usize];
        self.node = next;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.bulk.len(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{tuple, AttrId, Interner, Relation, Sym, Tuple, Value};

    /// `t`'s key cells, interning new strings.
    fn key_of(t: &Tuple, key_attrs: &[AttrId], interner: &mut Interner) -> Vec<SymValue> {
        key_attrs
            .iter()
            .map(|a| interner.intern_value(&t[*a]))
            .collect()
    }

    /// Symbolizes `rel`'s keys first, then bulk-builds over them.
    fn build(rel: &Relation, key_attrs: &[AttrId], interner: &mut Interner) -> SymIndex {
        let keys: Vec<Vec<SymValue>> = rel.iter().map(|t| key_of(t, key_attrs, interner)).collect();
        SymIndex::build_with(keys.len(), key_attrs.len(), |pos, buf| {
            buf.extend_from_slice(&keys[pos]);
            true
        })
    }

    /// Streams `t` in at `pos` under its (interned) key.
    fn insert(
        idx: &mut SymIndex,
        pos: u32,
        t: &Tuple,
        key_attrs: &[AttrId],
        interner: &mut Interner,
    ) {
        idx.insert_key(pos, &key_of(t, key_attrs, interner));
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
        idx.positions(key).collect()
    }

    #[test]
    fn build_probe_and_groups_agree_with_hash_index() {
        let r = rel();
        let mut interner = Interner::new();
        let idx = build(&r, &[AttrId(0)], &mut interner);
        let edi = [interner.sym_value(&Value::str("EDI")).unwrap()];
        assert_eq!(probe_vec(&idx, &edi), vec![0, 1]);
        assert!(idx.contains_key(&edi));
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 3);
        let reference = crate::HashIndex::build(&r, &[AttrId(0)]);
        assert_eq!(idx.distinct_keys(), reference.distinct_keys());
        for (key, positions) in idx.groups() {
            assert_eq!(key.len(), 1);
            assert!(positions.count() > 0);
        }
    }

    #[test]
    fn mixed_type_composite_keys() {
        let r = rel();
        let mut interner = Interner::new();
        let idx = build(&r, &[AttrId(2), AttrId(1)], &mut interner);
        let key = [
            SymValue::Int(1),
            interner.sym_value(&Value::str("UK")).unwrap(),
        ];
        assert_eq!(probe_vec(&idx, &key), vec![0]);
    }

    #[test]
    fn incremental_insert_extends_groups() {
        let mut interner = Interner::new();
        let mut idx = SymIndex::new(1);
        let attrs = [AttrId(0)];
        insert(&mut idx, 0, &tuple!["a", "x"], &attrs, &mut interner);
        insert(&mut idx, 1, &tuple!["a", "y"], &attrs, &mut interner);
        insert(&mut idx, 2, &tuple!["b", "x"], &attrs, &mut interner);
        insert(&mut idx, 3, &tuple!["a", "z"], &attrs, &mut interner);
        let a = [interner.sym_value(&Value::str("a")).unwrap()];
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
        let mut interner = Interner::new();
        let idx = build(&r, &[], &mut interner);
        assert_eq!(probe_vec(&idx, &[]), vec![0, 1, 2]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn unknown_key_probes_empty() {
        let r = rel();
        let mut interner = Interner::new();
        let idx = build(&r, &[AttrId(0)], &mut interner);
        // A string the interner has never seen cannot even form a key;
        // sym_value signals that with None.
        assert_eq!(interner.sym_value(&Value::str("LON")), None);
        // A well-formed but absent key probes empty.
        assert!(probe_vec(&idx, &[SymValue::Int(99)]).is_empty());
        assert_eq!(idx.min_pos(&[SymValue::Int(99)]), None);
    }

    #[test]
    fn bulk_build_segments_are_position_ascending() {
        // Interleave two keys so their rows alternate; the counting-sort
        // scatter must still emit each segment in ascending order.
        let r: Relation = (0..10i64)
            .map(|i| tuple![if i % 2 == 0 { "even" } else { "odd" }, i])
            .collect();
        let mut interner = Interner::new();
        let idx = build(&r, &[AttrId(0)], &mut interner);
        let even = [interner.sym_value(&Value::str("even")).unwrap()];
        let odd = [interner.sym_value(&Value::str("odd")).unwrap()];
        assert_eq!(probe_vec(&idx, &even), vec![0, 2, 4, 6, 8]);
        assert_eq!(probe_vec(&idx, &odd), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn remove_and_replace_maintain_the_multiset() {
        let mut interner = Interner::new();
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
            insert(&mut idx, pos as u32, t, &attrs, &mut interner);
        }
        let k = [interner.sym_value(&Value::str("k")).unwrap()];
        let j = [interner.sym_value(&Value::str("j")).unwrap()];
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
        // Emptied groups stay probeable and report empty.
        assert!(idx.remove_key(2, &j));
        assert!(!idx.contains_key(&j));
        assert_eq!(idx.distinct_keys(), 2);
        // Free-listed overflow nodes are reused.
        idx.insert_key(7, &j);
        assert_eq!(probe_vec(&idx, &j), vec![7]);
        assert!(idx.remove_key(7, &j));
        assert!(!idx.replace_pos(9, 1, &j));
    }

    #[test]
    fn compact_drops_emptied_groups_and_preserves_live_ones() {
        let mut interner = Interner::new();
        let mut idx = SymIndex::new(1);
        let attrs = [AttrId(0)];
        // Churn: 50 keys come and go, two stay.
        for i in 0..50u32 {
            insert(
                &mut idx,
                i,
                &tuple![format!("gone{i}").as_str(), "x"],
                &attrs,
                &mut interner,
            );
        }
        insert(&mut idx, 50, &tuple!["keep", "x"], &attrs, &mut interner);
        insert(&mut idx, 51, &tuple!["keep", "y"], &attrs, &mut interner);
        insert(&mut idx, 52, &tuple!["also", "z"], &attrs, &mut interner);
        for i in 0..50u32 {
            let key = [interner.sym_value(&Value::str(format!("gone{i}"))).unwrap()];
            assert!(idx.remove_key(i, &key));
        }
        assert_eq!(idx.distinct_keys(), 52, "emptied groups linger");
        assert_eq!(idx.len(), 3);
        let dropped = idx.compact();
        assert_eq!(dropped, 50);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 3);
        // Live groups survive, position-ascending, and stay mutable.
        let keep = [interner.sym_value(&Value::str("keep")).unwrap()];
        let also = [interner.sym_value(&Value::str("also")).unwrap()];
        assert_eq!(probe_vec(&idx, &keep), vec![50, 51]);
        assert_eq!(idx.min_pos(&keep), Some(50));
        assert_eq!(probe_vec(&idx, &also), vec![52]);
        assert!(idx.remove_key(51, &keep));
        idx.insert_key(53, &also);
        let mut got = probe_vec(&idx, &also);
        got.sort_unstable();
        assert_eq!(got, vec![52, 53]);
        // Idempotent once nothing is dead.
        assert_eq!(idx.compact(), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn slot_of_pos_tracks_every_mutation() {
        let r = rel();
        let mut interner = Interner::new();
        let mut idx = build(&r, &[AttrId(0)], &mut interner);
        let edi = [interner.sym_value(&Value::str("EDI")).unwrap()];
        let nyc = [interner.sym_value(&Value::str("NYC")).unwrap()];
        let se = idx.probe_slot(&edi).unwrap();
        let sn = idx.probe_slot(&nyc).unwrap();
        // Bulk-built positions resolve to their probed slots.
        assert_eq!(idx.slot_of_pos(0), Some(se));
        assert_eq!(idx.slot_of_pos(1), Some(se));
        assert_eq!(idx.slot_of_pos(2), Some(sn));
        assert_eq!(idx.slot_of_pos(3), None, "never-indexed position");
        // Streaming inserts land in either tier; both are tracked.
        insert(
            &mut idx,
            3,
            &tuple!["EDI", "UK", 3i64],
            &[AttrId(0)],
            &mut interner,
        );
        insert(
            &mut idx,
            4,
            &tuple!["NYC", "US", 2i64],
            &[AttrId(0)],
            &mut interner,
        );
        assert_eq!(idx.slot_of_pos(3), Some(se));
        assert_eq!(idx.slot_of_pos(4), Some(sn));
        // Removal forgets the position; renumbering follows it.
        assert!(idx.remove_at(se, 1));
        assert_eq!(idx.slot_of_pos(1), None);
        assert!(idx.replace_at(sn, 4, 1));
        assert_eq!(idx.slot_of_pos(4), None);
        assert_eq!(idx.slot_of_pos(1), Some(sn));
        // Compaction renumbers slots but keeps the inverse consistent
        // with fresh probes.
        idx.compact();
        let se = idx.probe_slot(&edi).unwrap();
        let sn = idx.probe_slot(&nyc).unwrap();
        assert_eq!(idx.slot_of_pos(0), Some(se));
        assert_eq!(idx.slot_of_pos(3), Some(se));
        assert_eq!(idx.slot_of_pos(1), Some(sn));
        assert_eq!(idx.slot_of_pos(2), Some(sn));
    }

    #[test]
    fn remap_keys_translates_probes_to_the_new_numbering() {
        let r = rel();
        let mut old = Interner::new();
        let idx_src = build(&r, &[AttrId(0), AttrId(1)], &mut old);
        // Re-intern the live strings in reverse encounter order: every
        // symbol changes, the index must follow.
        let mut fresh = Interner::new();
        let mut remap = vec![None; old.len()];
        for sym in (0..old.len() as u32).rev().map(Sym) {
            remap[sym.0 as usize] = Some(fresh.intern(old.resolve_arc(sym)));
        }
        let mut idx = idx_src;
        idx.remap_keys(|sv| match sv {
            SymValue::Str(s) => SymValue::Str(remap[s.0 as usize].unwrap()),
            other => other,
        });
        let edi = [
            fresh.sym_value(&Value::str("EDI")).unwrap(),
            fresh.sym_value(&Value::str("UK")).unwrap(),
        ];
        assert_eq!(probe_vec(&idx, &edi), vec![0, 1]);
        assert_eq!(idx.min_pos(&edi), Some(0));
        // Old-numbering probes miss: the reversed re-intern changed
        // every symbol, so the stale key addresses different strings.
        let stale = [
            SymValue::Str(old.lookup("EDI").unwrap()),
            SymValue::Str(old.lookup("UK").unwrap()),
        ];
        assert!(!idx.contains_key(&stale));
        // Mutations keep working against the remapped keys.
        assert!(idx.remove_key(0, &edi));
        idx.insert_key(9, &edi);
        let mut got = probe_vec(&idx, &edi);
        got.sort_unstable();
        assert_eq!(got, vec![1, 9]);
    }

    #[test]
    fn streaming_inserts_after_bulk_build_land_in_overflow() {
        let r = rel();
        let mut interner = Interner::new();
        let mut idx = build(&r, &[AttrId(0)], &mut interner);
        // "EDI" segment is not at the tail of the CSR vector, so this
        // lands in the overflow arena; "NYC" is at the tail and grows in
        // place. Either way the group contents must be right.
        insert(
            &mut idx,
            3,
            &tuple!["EDI", "UK", 3i64],
            &[AttrId(0)],
            &mut interner,
        );
        insert(
            &mut idx,
            4,
            &tuple!["NYC", "US", 2i64],
            &[AttrId(0)],
            &mut interner,
        );
        let edi = [interner.sym_value(&Value::str("EDI")).unwrap()];
        let nyc = [interner.sym_value(&Value::str("NYC")).unwrap()];
        let mut e = probe_vec(&idx, &edi);
        e.sort_unstable();
        assert_eq!(e, vec![0, 1, 3]);
        let mut n = probe_vec(&idx, &nyc);
        n.sort_unstable();
        assert_eq!(n, vec![2, 4]);
        assert_eq!(idx.len(), 5);
        // Removal reaches both tiers.
        assert!(idx.remove_key(3, &edi));
        assert!(idx.remove_key(0, &edi));
        let mut e = probe_vec(&idx, &edi);
        e.sort_unstable();
        assert_eq!(e, vec![1]);
    }
}
