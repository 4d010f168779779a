//! The shared priority-queue entry of every search in this crate.
//!
//! Dijkstra, A\* and the decremental repair layer all drive a
//! `BinaryHeap` keyed by a tentative f64 distance. They previously each
//! carried a private copy of the same entry struct; this module is the
//! one definition.
//!
//! The ordering is **total** and ties are broken by node id. Totality
//! matters beyond deduplication: with a distance-only comparison, the
//! pop order among equal-distance entries depends on the heap's internal
//! arrangement — i.e. on *which other entries happen to be present*. The
//! repair layer ([`crate::RepairTable`]) prunes provably-useless entries
//! out of searches, so entries present without pruning may be absent
//! with it; the node-id tie-break makes the surviving entries pop in the
//! same relative order either way, which is what keeps pruned and
//! unpruned searches byte-identical on the paths they return.

use std::cmp::Ordering;

/// Sentinel for "no parent edge" in parent-pointer arrays (shared by the
/// searchers and the repair layer).
pub const NO_EDGE: u32 = u32::MAX;

/// Min-heap entry: `BinaryHeap` is a max-heap, so the ordering is
/// reversed (smallest distance pops first, then smallest node id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapEntry {
    /// Tentative distance (the heap key; an A\* search stores `g + h`).
    pub dist: f64,
    /// Node index the entry refers to.
    pub node: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_cheapest_first_then_smallest_node() {
        let mut h = BinaryHeap::new();
        h.push(HeapEntry { dist: 2.0, node: 1 });
        h.push(HeapEntry { dist: 1.0, node: 9 });
        h.push(HeapEntry { dist: 1.0, node: 3 });
        h.push(HeapEntry { dist: 0.5, node: 7 });
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|e| e.node)).collect();
        assert_eq!(order, vec![7, 3, 9, 1]);
    }

    #[test]
    fn order_is_total_and_insertion_independent() {
        // The same multiset of entries pops identically regardless of
        // push order — the property the repair layer's byte-identity
        // argument leans on.
        let entries = [
            HeapEntry { dist: 1.0, node: 4 },
            HeapEntry { dist: 1.0, node: 2 },
            HeapEntry { dist: 3.0, node: 0 },
            HeapEntry {
                dist: f64::INFINITY,
                node: 5,
            },
            HeapEntry { dist: 0.0, node: 8 },
        ];
        let mut fwd = BinaryHeap::new();
        let mut rev = BinaryHeap::new();
        for e in entries {
            fwd.push(e);
        }
        for e in entries.iter().rev() {
            rev.push(*e);
        }
        loop {
            match (fwd.pop(), rev.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
