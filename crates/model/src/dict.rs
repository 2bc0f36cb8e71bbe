//! The refcounted value dictionary.
//!
//! A [`Dict`] maps each live value to a dense `u32` id and counts the
//! holders of each id: the cells that carry the value, plus any pins a
//! consumer takes. The last release frees the id, and the next new value
//! reuses it, so the dictionary holds exactly the live distinct values
//! and never needs a rebuild.
//!
//! Two consumers share it. The online miner keys its sketches by ids of
//! every value it observes. A validator stream interns its cached cells
//! through one, strings only ([`Dict::acquire_sym`]): a string's id is
//! its [`Sym`], and numbers and booleans stay inline. The append-only
//! [`crate::Interner`] remains the symbol store of one-shot batch
//! builds.

use crate::fxhash::FxBuildHasher;
use crate::intern::{Sym, SymLookup, SymValue};
use crate::value::Value;
use std::collections::HashMap;

/// A refcounted value dictionary (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Dict {
    /// Live value → id.
    ids: HashMap<Value, u32, FxBuildHasher>,
    /// Id → value; `None` while the id is free.
    values: Vec<Option<Value>>,
    /// Id → holders of its value.
    holders: Vec<u32>,
    /// Freed ids, reused before `values` grows.
    free: Vec<u32>,
}

impl Dict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dict::default()
    }

    /// The id of `v`, counting one more holder. One probe for a known
    /// value; a new value is cloned in and takes a free id first.
    pub fn acquire(&mut self, v: &Value) -> u32 {
        if let Some(&id) = self.ids.get(v) {
            self.holders[id as usize] += 1;
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.values[id as usize] = Some(v.clone());
                self.holders[id as usize] = 1;
                id
            }
            None => {
                self.values.push(Some(v.clone()));
                self.holders.push(1);
                u32::try_from(self.values.len() - 1).expect("fewer than 2^32 live values")
            }
        };
        self.ids.insert(v.clone(), id);
        id
    }

    /// Counts one holder of `id` out; the last one frees the id.
    pub fn release(&mut self, id: u32) {
        let holders = &mut self.holders[id as usize];
        *holders -= 1;
        if *holders == 0 {
            let v = self.values[id as usize].take().expect("live id");
            self.ids.remove(&v);
            self.free.push(id);
        }
    }

    /// The id of `v`, when some holder keeps it live.
    pub fn get(&self, v: &Value) -> Option<u32> {
        self.ids.get(v).copied()
    }

    /// The value of a live id.
    pub fn value(&self, id: u32) -> &Value {
        self.values[id as usize].as_ref().expect("live id")
    }

    /// How many holders keep a live id's value.
    pub fn holders(&self, id: u32) -> u32 {
        debug_assert!(self.values[id as usize].is_some(), "live id");
        self.holders[id as usize]
    }

    /// [`Dict::acquire`] for symbolized cells: a string becomes the
    /// symbol of its id, held once more; a number or boolean stays
    /// inline and holds nothing.
    pub fn acquire_sym(&mut self, v: &Value) -> SymValue {
        match v {
            Value::Bool(b) => SymValue::Bool(*b),
            Value::Int(i) => SymValue::Int(*i),
            Value::Str(_) => SymValue::Str(Sym(self.acquire(v))),
        }
    }

    /// Read-only translation: a string becomes the symbol of its id,
    /// `None` when no holder keeps it (so no cell acquired through this
    /// dictionary equals it); numbers and booleans stay inline.
    pub fn sym_value(&self, v: &Value) -> Option<SymValue> {
        match v {
            Value::Bool(b) => Some(SymValue::Bool(*b)),
            Value::Int(i) => Some(SymValue::Int(*i)),
            Value::Str(_) => self.get(v).map(|id| SymValue::Str(Sym(id))),
        }
    }

    /// Releases a cell [`Dict::acquire_sym`] produced.
    pub fn release_sym(&mut self, cell: SymValue) {
        if let SymValue::Str(sym) = cell {
            self.release(sym.0);
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no value is live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// One past the largest id handed out so far: live ids plus free
    /// ones. Stays at the peak of [`Dict::len`], however many values
    /// came and went.
    pub fn id_bound(&self) -> usize {
        self.values.len()
    }
}

impl SymLookup for Dict {
    fn sym_value(&self, v: &Value) -> Option<SymValue> {
        Dict::sym_value(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_live_while_held_and_are_reused_once_freed() {
        let mut d = Dict::new();
        let (a, b) = (Value::str("a"), Value::str("b"));
        let ia = d.acquire(&a);
        assert_eq!(d.acquire(&a), ia);
        let ib = d.acquire(&b);
        assert_ne!(ia, ib);
        assert_eq!((d.holders(ia), d.holders(ib)), (2, 1));
        assert_eq!((d.len(), d.id_bound()), (2, 2));
        d.release(ia);
        assert_eq!(d.get(&a), Some(ia), "one holder left");
        d.release(ia);
        assert_eq!(d.get(&a), None, "the last release frees the id");
        assert_eq!(d.len(), 1);
        let c = Value::int(7);
        assert_eq!(d.acquire(&c), ia, "a new value takes the freed id");
        assert_eq!(d.value(ia), &c);
        assert_eq!(d.id_bound(), 2);
    }

    #[test]
    fn sym_cells_hold_strings_only() {
        let mut d = Dict::new();
        let s = d.acquire_sym(&Value::str("x"));
        assert_eq!(d.acquire_sym(&Value::int(3)), SymValue::Int(3));
        assert_eq!(d.acquire_sym(&Value::bool(true)), SymValue::Bool(true));
        assert_eq!(d.len(), 1, "only the string is held");
        assert_eq!(d.sym_value(&Value::str("x")), Some(s));
        assert_eq!(d.sym_value(&Value::int(4)), Some(SymValue::Int(4)));
        assert_eq!(d.sym_value(&Value::str("y")), None);
        d.release_sym(SymValue::Int(3));
        d.release_sym(s);
        assert!(d.is_empty());
        assert_eq!(d.sym_value(&Value::str("x")), None);
    }
}
