//! Relation instances.

use crate::fxhash::{fx_hash_one, FxBuildHasher};
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::fmt;

/// Positions (or slots) sharing one hash value. Collisions under a
/// 64-bit hash are vanishingly rare, so the common case stays inline
/// and allocation-free — the value type of [`Relation`]'s dedup map.
#[derive(Clone, Debug)]
pub enum PosList {
    /// The common case: exactly one value for this hash.
    One(u32),
    /// Hash collision: multiple values (spills to the heap).
    Many(Vec<u32>),
}

impl PosList {
    /// The stored values in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        match self {
            PosList::One(p) => std::slice::from_ref(p),
            PosList::Many(ps) => ps.as_slice(),
        }
        .iter()
        .copied()
    }

    /// Appends a value, spilling to `Many` on first collision.
    pub fn push(&mut self, p: u32) {
        match self {
            PosList::One(first) => *self = PosList::Many(vec![*first, p]),
            PosList::Many(ps) => ps.push(p),
        }
    }

    /// Removes one occurrence of `p`. Returns whether the list is now
    /// empty (the caller should drop the map entry).
    pub fn remove(&mut self, p: u32) -> bool {
        match self {
            PosList::One(q) => {
                debug_assert_eq!(*q, p, "removing a value the list never held");
                true
            }
            PosList::Many(ps) => {
                if let Some(i) = ps.iter().position(|&q| q == p) {
                    ps.swap_remove(i);
                }
                ps.is_empty()
            }
        }
    }

    /// Rewrites one occurrence of `from` to `to`.
    pub fn replace(&mut self, from: u32, to: u32) {
        match self {
            PosList::One(q) => {
                debug_assert_eq!(*q, from, "replacing a value the list never held");
                *q = to;
            }
            PosList::Many(ps) => {
                if let Some(i) = ps.iter().position(|&q| q == from) {
                    ps[i] = to;
                }
            }
        }
    }
}

/// A **position-stable** handle on one tuple of an evolving relation.
///
/// Dense positions are cheap but unstable: a swap-based
/// [`Relation::remove`] renumbers the previously-last tuple, so every
/// position-keyed view must replay the move. A `TupleId` is allocated
/// once (by a [`TupleIdMap`] owner such as a validator stream) and keeps
/// addressing the same logical tuple through arbitrary
/// insert/delete/update sequences; it dies with its tuple and
/// is never reused.
///
/// Ids are only meaningful for the map that allocated them. The
/// **dense-seeding convention**: an owner materialized over an existing
/// relation assigns `TupleId(p)` to the tuple at dense position `p`, so
/// ground-truth producers (e.g. `condep-gen`'s dirt injector) can report
/// ids that any later stream over the same database resolves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId(pub u32);

/// The id ⇄ dense-position maps of one relation, maintained in lock-step
/// with the relation's swap-based mutations by its owner.
///
/// * [`TupleIdMap::alloc`] on every append (insert);
/// * [`TupleIdMap::remove_swap`] on every swap-based removal — it retires
///   the vacated position's id and renumbers the moved tuple's id;
/// * ids are handed out by a **monotone counter and never reused**, and
///   only live ids are stored (the reverse map is keyed by id), so a
///   retired handle resolves to `None` forever, can never silently alias
///   a different tuple, and costs no memory once dead — the map's
///   footprint is `O(live tuples)` regardless of lifetime churn.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TupleIdMap {
    /// Per dense position: the resident tuple's id.
    pos_to_id: Vec<u32>,
    /// Live ids only → dense position.
    id_to_pos: HashMap<u32, u32, FxBuildHasher>,
    /// The next id to hand out; never decreases.
    next: u32,
}

impl TupleIdMap {
    /// An empty map.
    pub fn new() -> Self {
        TupleIdMap::default()
    }

    /// The dense-seeding map over an existing relation of `len` tuples:
    /// the tuple at position `p` gets `TupleId(p)`.
    pub fn identity(len: usize) -> Self {
        let n = u32::try_from(len).expect("relation capacity exceeded");
        TupleIdMap {
            pos_to_id: (0..n).collect(),
            id_to_pos: (0..n).map(|i| (i, i)).collect(),
            next: n,
        }
    }

    /// Number of live tuples tracked.
    pub fn len(&self) -> usize {
        self.pos_to_id.len()
    }

    /// Whether no live tuple is tracked.
    pub fn is_empty(&self) -> bool {
        self.pos_to_id.is_empty()
    }

    /// Number of ids ever handed out (live + retired).
    pub fn ids_allocated(&self) -> usize {
        self.next as usize
    }

    /// Registers the tuple just appended at dense position `pos`
    /// (which must equal [`TupleIdMap::len`]), returning its fresh id.
    pub fn alloc(&mut self, pos: usize) -> TupleId {
        debug_assert_eq!(pos, self.pos_to_id.len(), "ids are allocated on append");
        let id = self.next;
        self.next = id.checked_add(1).expect("tuple-id capacity exceeded");
        self.id_to_pos.insert(id, pos as u32);
        self.pos_to_id.push(id);
        TupleId(id)
    }

    /// Mirrors a swap-based removal at `pos`: retires that position's id
    /// and renumbers the last position's id into the hole. Returns the
    /// retired id and, when a swap happened, the moved tuple's (still
    /// live) id.
    pub fn remove_swap(&mut self, pos: usize) -> (TupleId, Option<TupleId>) {
        let last = self.pos_to_id.len() - 1;
        let retired = self.pos_to_id[pos];
        self.id_to_pos.remove(&retired);
        let moved = (pos != last).then(|| {
            let moved = self.pos_to_id[last];
            self.pos_to_id[pos] = moved;
            self.id_to_pos.insert(moved, pos as u32);
            TupleId(moved)
        });
        self.pos_to_id.pop();
        (TupleId(retired), moved)
    }

    /// The id of the tuple at dense position `pos`.
    pub fn id_at(&self, pos: usize) -> Option<TupleId> {
        self.pos_to_id.get(pos).map(|&id| TupleId(id))
    }

    /// The current dense position of `id` — `None` once the tuple is
    /// gone (deleted, or rewritten by an update).
    pub fn pos_of(&self, id: TupleId) -> Option<usize> {
        self.id_to_pos.get(&id.0).map(|&p| p as usize)
    }
}

/// What [`Relation::remove`] did: the position vacated, and whether the
/// previously-last tuple was swapped into it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Removed {
    /// Dense position the removed tuple occupied.
    pub pos: usize,
    /// When the removed tuple was not the last one, the old position of
    /// the tuple that moved into `pos` (always the previous `len() - 1`).
    pub moved_from: Option<usize>,
}

/// An instance of a relation schema: a **set** of tuples (paper,
/// Section 2) with deterministic (insertion-order) iteration.
///
/// Internally an insertion-ordered set: a dense tuple vector plus a map
/// from tuple *hash* to dense positions. Tuples are stored exactly once —
/// duplicate elimination and membership tests go hash → candidate
/// positions → compare against the dense vector, so memory per tuple is
/// the tuple itself plus a few words, not two full copies. Iteration
/// order is stable, which keeps the chase, the generators and every test
/// reproducible.
#[derive(Clone, Default, Debug)]
pub struct Relation {
    tuples: Vec<Tuple>,
    positions: HashMap<u64, PosList, FxBuildHasher>,
}

impl Relation {
    /// An empty instance.
    pub fn new() -> Self {
        Relation::default()
    }

    /// An empty instance with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Relation {
            tuples: Vec::with_capacity(n),
            positions: HashMap::with_capacity_and_hasher(n, FxBuildHasher::default()),
        }
    }

    /// Inserts a tuple; returns `true` if it was not already present
    /// (set semantics).
    pub fn insert(&mut self, t: Tuple) -> bool {
        let pos = u32::try_from(self.tuples.len()).expect("relation capacity exceeded");
        match self.positions.entry(fx_hash_one(&t)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().iter().any(|p| self.tuples[p as usize] == t) {
                    return false;
                }
                e.get_mut().push(pos);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(PosList::One(pos));
            }
        }
        self.tuples.push(t);
        true
    }

    /// Removes a tuple by value. The vacated position is filled by
    /// swapping the **last** tuple into it (`O(1)`, no shift), so dense
    /// positions of all other tuples stay stable; the returned
    /// [`Removed`] says which single position (if any) changed so
    /// position-keyed consumers (indexes, violation reports) can
    /// renumber.
    pub fn remove(&mut self, t: &Tuple) -> Option<Removed> {
        let pos = self.position(t)?;
        self.remove_at(pos)
    }

    /// Removes the tuple at dense position `pos` — [`Relation::remove`]
    /// minus the by-value lookup, for callers that already resolved the
    /// position. Same swap semantics; `None` when `pos` is out of range.
    pub fn remove_at(&mut self, pos: usize) -> Option<Removed> {
        if pos >= self.tuples.len() {
            return None;
        }
        let last = self.tuples.len() - 1;
        // Unlink the removed tuple from the hash map.
        let hash = fx_hash_one(&self.tuples[pos]);
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.positions.entry(hash) {
            if e.get_mut().remove(pos as u32) {
                e.remove();
            }
        }
        self.tuples.swap_remove(pos);
        if pos == last {
            return Some(Removed {
                pos,
                moved_from: None,
            });
        }
        // The old last tuple now sits at `pos`: rewrite its map entry.
        let moved_hash = fx_hash_one(&self.tuples[pos]);
        if let Some(list) = self.positions.get_mut(&moved_hash) {
            list.replace(last as u32, pos as u32);
        }
        Some(Removed {
            pos,
            moved_from: Some(last),
        })
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.position(t).is_some()
    }

    /// The dense position of `t`, if present.
    pub fn position(&self, t: &Tuple) -> Option<usize> {
        self.positions
            .get(&fx_hash_one(t))?
            .iter()
            .map(|p| p as usize)
            .find(|&p| &self.tuples[p] == t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterator over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The tuple at a dense index (insertion order).
    pub fn get(&self, i: usize) -> Option<&Tuple> {
        self.tuples.get(i)
    }

    /// Edits one cell of a resident tuple: removes `t` and re-inserts
    /// `t.with(attr, v)`. Returns `None` when `t` is absent; otherwise
    /// `Some((edited, merged))` where `merged` is `true` when the edited
    /// tuple collapsed into an already-resident equal tuple (set
    /// semantics — the relation shrinks by one). Positions shift exactly
    /// as the underlying [`Relation::remove`] + [`Relation::insert`]
    /// dictate; position-keyed consumers should route edits through a
    /// delta engine instead.
    pub fn edit_cell(
        &mut self,
        t: &Tuple,
        attr: crate::schema::AttrId,
        v: crate::value::Value,
    ) -> Option<(Tuple, bool)> {
        if !self.contains(t) {
            return None;
        }
        let edited = t.with(attr, v);
        if &edited == t {
            return Some((edited, false));
        }
        self.remove(t).expect("presence just checked");
        let fresh = self.insert(edited.clone());
        Some((edited, !fresh))
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.positions.clear();
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut r = Relation::new();
        for t in iter {
            r.insert(t);
        }
        r
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

impl PartialEq for Relation {
    /// Set equality: same tuples regardless of insertion order.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new();
        assert!(r.insert(tuple!["a", "b"]));
        assert!(!r.insert(tuple!["a", "b"]));
        assert!(r.insert(tuple!["a", "c"]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut r = Relation::new();
        r.insert(tuple!["z"]);
        r.insert(tuple!["a"]);
        r.insert(tuple!["m"]);
        let seen: Vec<String> = r.iter().map(|t| t.to_string()).collect();
        assert_eq!(seen, vec!["(z)", "(a)", "(m)"]);
        assert_eq!(r.get(1), Some(&tuple!["a"]));
    }

    #[test]
    fn set_equality_ignores_order() {
        let r1: Relation = [tuple!["a"], tuple!["b"]].into_iter().collect();
        let r2: Relation = [tuple!["b"], tuple!["a"]].into_iter().collect();
        assert_eq!(r1, r2);
        let r3: Relation = [tuple!["a"]].into_iter().collect();
        assert_ne!(r1, r3);
    }

    #[test]
    fn remove_last_tuple_moves_nothing() {
        let mut r: Relation = [tuple!["a"], tuple!["b"]].into_iter().collect();
        let removed = r.remove(&tuple!["b"]).unwrap();
        assert_eq!(
            removed,
            Removed {
                pos: 1,
                moved_from: None
            }
        );
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&tuple!["b"]));
        assert_eq!(r.position(&tuple!["a"]), Some(0));
    }

    #[test]
    fn remove_swaps_last_into_the_hole() {
        let mut r: Relation = [tuple!["a"], tuple!["b"], tuple!["c"]]
            .into_iter()
            .collect();
        let removed = r.remove(&tuple!["a"]).unwrap();
        assert_eq!(
            removed,
            Removed {
                pos: 0,
                moved_from: Some(2)
            }
        );
        assert_eq!(r.len(), 2);
        // `c` moved into position 0 and is still findable by hash.
        assert_eq!(r.position(&tuple!["c"]), Some(0));
        assert_eq!(r.position(&tuple!["b"]), Some(1));
        assert!(r.remove(&tuple!["a"]).is_none(), "already gone");
        // Re-inserting after removal works (map entries were unlinked).
        assert!(r.insert(tuple!["a"]));
        assert_eq!(r.position(&tuple!["a"]), Some(2));
    }

    #[test]
    fn remove_then_reinsert_round_trips_many_times() {
        let mut r = Relation::new();
        for i in 0..32i64 {
            r.insert(tuple![i]);
        }
        for i in (0..32i64).step_by(3) {
            assert!(r.remove(&tuple![i]).is_some());
        }
        for i in (0..32i64).step_by(3) {
            assert!(!r.contains(&tuple![i]));
            assert!(r.insert(tuple![i]));
        }
        assert_eq!(r.len(), 32);
        for i in 0..32i64 {
            let t = tuple![i];
            let pos = r.position(&t).unwrap();
            assert_eq!(r.get(pos), Some(&t));
        }
    }

    #[test]
    fn tuple_id_map_tracks_swaps_and_never_reuses_ids() {
        let mut m = TupleIdMap::identity(3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.id_at(2), Some(TupleId(2)));
        assert_eq!(m.pos_of(TupleId(0)), Some(0));
        // Remove position 0: id 0 dies, id 2 moves into the hole.
        let (retired, moved) = m.remove_swap(0);
        assert_eq!(retired, TupleId(0));
        assert_eq!(moved, Some(TupleId(2)));
        assert_eq!(m.pos_of(TupleId(0)), None);
        assert_eq!(m.pos_of(TupleId(2)), Some(0));
        assert_eq!(m.id_at(0), Some(TupleId(2)));
        // Append: a fresh id, never a recycled one.
        let id = m.alloc(2);
        assert_eq!(id, TupleId(3));
        assert_eq!(m.pos_of(id), Some(2));
        // Removing the last position moves nothing.
        let (retired, moved) = m.remove_swap(2);
        assert_eq!(retired, TupleId(3));
        assert_eq!(moved, None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.ids_allocated(), 4);
        assert_eq!(m.pos_of(TupleId(3)), None);
        assert_eq!(m.pos_of(TupleId(2)), Some(0));
        assert_eq!(m.pos_of(TupleId(1)), Some(1));
        // Allocation stays monotone across removals: a retired id
        // number is never handed out again.
        let id = m.alloc(2);
        assert_eq!(id, TupleId(4));
        assert_eq!(m.pos_of(TupleId(3)), None, "dead ids stay dead");
        assert_eq!(m.pos_of(id), Some(2));
    }

    #[test]
    fn contains_and_clear() {
        let mut r: Relation = [tuple!["a"]].into_iter().collect();
        assert!(r.contains(&tuple!["a"]));
        r.clear();
        assert!(r.is_empty());
        assert!(!r.contains(&tuple!["a"]));
    }
}
