//! Backward pointers from a picture's objects to the tuples that point
//! at them — the table the forward direct search of §2.1 reads.
//!
//! Object ids are dense per picture (`0..len`), so the table is a flat
//! array indexed by object id. Each slot holds the object's single tuple
//! inline; an object with several tuples spills to a list. Pointer
//! values are not validated on insert, so a pointer at or past the
//! picture's object count goes to a small sparse side map instead: no
//! pointer value ever sizes the array beyond the picture.

use pictorial_relational::TupleId;
use std::collections::BTreeMap;

/// Slot value of an object with no tuples.
const EMPTY: u64 = u64::MAX;
/// Tag bit of a slot whose tuples live in `lists[slot & !SPILL]`. Tuple
/// ids with this bit set are never stored inline.
const SPILL: u64 = 1 << 63;

/// Object id → tuples, for one `(relation, loc column)` association.
#[derive(Debug, Clone, Default)]
pub(crate) struct Backlinks {
    /// One slot per object id below `dense.len()`: `EMPTY`, an inline
    /// tuple id, or `SPILL | list index`. Never longer than the
    /// picture's object count was when a tuple was last inserted.
    dense: Vec<TupleId>,
    /// Tuple lists of spilled slots, in insertion order. A slot that
    /// spilled keeps its list, even once emptied by deletes.
    lists: Vec<Vec<TupleId>>,
    /// Pointers at or past `dense.len()`; entries are never empty.
    sparse: BTreeMap<u64, Vec<TupleId>>,
}

impl Backlinks {
    /// Tuples pointing at `object`, in insertion order.
    pub(crate) fn get(&self, object: u64) -> &[TupleId] {
        match self.dense_slot(object) {
            Some(i) => {
                let slot = &self.dense[i];
                if slot.0 & SPILL == 0 {
                    std::slice::from_ref(slot)
                } else if slot.0 == EMPTY {
                    &[]
                } else {
                    &self.lists[(slot.0 & !SPILL) as usize]
                }
            }
            None => self.sparse.get(&object).map_or(&[], Vec::as_slice),
        }
    }

    /// Records that `tid` points at `object`. `objects` is the picture's
    /// current object count: only pointers below it are stored densely.
    pub(crate) fn insert(&mut self, object: u64, tid: TupleId, objects: usize) {
        match usize::try_from(object).ok().filter(|&i| i < objects) {
            Some(i) => {
                if i >= self.dense.len() {
                    self.grow(i + 1);
                }
                self.push_dense(i, tid);
            }
            None => self.sparse.entry(object).or_default().push(tid),
        }
    }

    /// Forgets that `tid` points at `object`.
    pub(crate) fn remove(&mut self, object: u64, tid: TupleId) {
        match self.dense_slot(object) {
            Some(i) => {
                let slot = self.dense[i];
                if slot.0 & SPILL == 0 {
                    if slot == tid {
                        self.dense[i] = TupleId(EMPTY);
                    }
                } else if slot.0 != EMPTY {
                    self.lists[(slot.0 & !SPILL) as usize].retain(|&t| t != tid);
                }
            }
            None => {
                if let Some(list) = self.sparse.get_mut(&object) {
                    list.retain(|&t| t != tid);
                    if list.is_empty() {
                        self.sparse.remove(&object);
                    }
                }
            }
        }
    }

    fn dense_slot(&self, object: u64) -> Option<usize> {
        usize::try_from(object)
            .ok()
            .filter(|&i| i < self.dense.len())
    }

    fn push_dense(&mut self, i: usize, tid: TupleId) {
        let slot = self.dense[i];
        if slot.0 == EMPTY && tid.0 & SPILL == 0 {
            self.dense[i] = tid;
        } else if slot.0 & SPILL == 0 || slot.0 == EMPTY {
            // First spill of this slot: start its list.
            let list = if slot.0 == EMPTY {
                vec![tid]
            } else {
                vec![slot, tid]
            };
            self.dense[i] = TupleId(SPILL | self.lists.len() as u64);
            self.lists.push(list);
        } else {
            self.lists[(slot.0 & !SPILL) as usize].push(tid);
        }
    }

    /// Extends the dense array to `len` slots, moving the sparse entries
    /// it now covers into it (their order within an object is kept).
    fn grow(&mut self, len: usize) {
        self.dense.resize(len, TupleId(EMPTY));
        if self.sparse.is_empty() {
            return;
        }
        let above = self.sparse.split_off(&(len as u64));
        for (object, tids) in std::mem::replace(&mut self.sparse, above) {
            for tid in tids {
                self.push_dense(object as usize, tid);
            }
        }
    }

    /// Slots in the dense array (for memory-bound tests).
    #[cfg(test)]
    pub(crate) fn dense_len(&self) -> usize {
        self.dense.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TupleId {
        TupleId(id)
    }

    #[test]
    fn zero_one_and_many_tuples_per_object() {
        let mut b = Backlinks::default();
        b.insert(1, t(10), 4);
        b.insert(2, t(20), 4);
        b.insert(2, t(21), 4);
        b.insert(2, t(22), 4);
        assert_eq!(b.get(0), &[] as &[TupleId]);
        assert_eq!(b.get(1), &[t(10)]);
        assert_eq!(b.get(2), &[t(20), t(21), t(22)]);
        assert_eq!(b.get(3), &[] as &[TupleId]);
        assert_eq!(b.dense_len(), 3);

        b.remove(2, t(21));
        assert_eq!(b.get(2), &[t(20), t(22)]);
        b.remove(1, t(99)); // not linked: no effect
        b.remove(1, t(10));
        assert!(b.get(1).is_empty());
        b.insert(1, t(11), 4);
        assert_eq!(b.get(1), &[t(11)]);
    }

    #[test]
    fn out_of_range_pointers_stay_sparse_until_the_picture_grows() {
        let mut b = Backlinks::default();
        b.insert(u64::MAX, t(1), 3);
        b.insert(7, t(2), 3);
        b.insert(7, t(3), 3);
        assert_eq!(b.dense_len(), 0, "no pointer sizes the dense array");
        assert_eq!(b.get(u64::MAX), &[t(1)]);
        assert_eq!(b.get(7), &[t(2), t(3)]);

        // The picture grows to 9 objects; a tuple for object 8 pulls
        // the dense array over object 7, whose earlier tuples move with
        // it and keep their order.
        b.insert(8, t(4), 9);
        assert_eq!(b.dense_len(), 9);
        b.insert(7, t(5), 9);
        assert_eq!(b.get(7), &[t(2), t(3), t(5)]);
        assert_eq!(b.get(8), &[t(4)]);
        assert_eq!(b.get(u64::MAX), &[t(1)]);

        b.remove(u64::MAX, t(1));
        assert!(b.get(u64::MAX).is_empty());
        assert!(b.sparse.is_empty());
    }

    #[test]
    fn tuple_ids_with_the_tag_bit_spill() {
        let mut b = Backlinks::default();
        let huge = t(SPILL | 5);
        b.insert(0, huge, 1);
        assert_eq!(b.get(0), &[huge]);
        b.remove(0, huge);
        assert!(b.get(0).is_empty());
    }
}
