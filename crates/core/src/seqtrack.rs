//! Dense transaction-ID order (the global *durable ID* and the replay
//! order).
//!
//! Persist threads flush redo logs out of order (§3.3), so "transaction
//! `t` is durable" does not mean "all transactions before `t` are durable".
//! The paper defines the *durable ID* as the largest `D` such that every
//! transaction with ID ≤ `D` has been persisted, and Reproduce replays in
//! that same order. [`DenseReorder`] is the one structure that turns
//! completions in any order into that order: items are pushed with the ID
//! range they cover and popped only once nothing is missing in front of
//! them, so the last ID popped *is* the completed prefix.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reorders items covering disjoint ID ranges of a dense sequence
/// `start + 1, start + 2, …` into ascending, gap-free order.
///
/// # Example
///
/// ```
/// use dudetm::DenseReorder;
///
/// let mut order = DenseReorder::starting_at(0);
/// order.push(2, 3, "b");
/// assert_eq!(order.pop(), None); // 1 missing
/// order.push(1, 1, "a");
/// assert_eq!(order.pop(), Some((1, 1, "a")));
/// assert_eq!(order.pop(), Some((2, 3, "b")));
/// assert_eq!(order.complete(), 3);
/// ```
#[derive(Debug)]
pub struct DenseReorder<T> {
    /// Largest `D` with every ID in `start + 1..=D` popped.
    complete: u64,
    /// Pushed ranges not yet popped (min-heap on `first`).
    pending: BinaryHeap<Entry<T>>,
}

#[derive(Debug)]
struct Entry<T> {
    first: u64,
    last: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.first == other.first
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap becomes a min-heap on `first`.
        other.first.cmp(&self.first)
    }
}

impl<T> DenseReorder<T> {
    /// Creates a buffer whose prefix `..=start` is already complete (after
    /// recovery, `start` is the last recovered ID).
    pub fn starting_at(start: u64) -> Self {
        DenseReorder {
            complete: start,
            pending: BinaryHeap::new(),
        }
    }

    /// Adds `item`, covering the inclusive ID range `first..=last`. A range
    /// is one entry however many IDs it covers.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or starts at or below the completed
    /// prefix (pushed twice).
    pub fn push(&mut self, first: u64, last: u64, item: T) {
        assert!(first <= last, "empty range {first}..={last}");
        assert!(
            first > self.complete,
            "id {first} pushed twice (complete through {})",
            self.complete
        );
        self.pending.push(Entry { first, last, item });
    }

    /// Removes the item that continues the completed prefix — `None` while
    /// the next ID is still missing — and extends the prefix over its range.
    ///
    /// # Panics
    ///
    /// Panics if the smallest pending range overlaps the completed prefix
    /// (pushed twice).
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let next = self.pending.peek()?.first;
        assert!(
            next > self.complete,
            "id {next} pushed twice (complete through {})",
            self.complete
        );
        if next != self.complete + 1 {
            return None;
        }
        let Entry { first, last, item } = self.pending.pop()?;
        self.complete = last;
        Some((first, last, item))
    }

    /// Largest `D` such that every ID up to `D` has been popped.
    #[inline]
    pub fn complete(&self) -> u64 {
        self.complete
    }

    /// Number of pushed ranges not yet popped, for diagnostics.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything poppable, returning the ranges in pop order.
    fn drain<T>(order: &mut DenseReorder<T>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| order.pop())
            .map(|(first, last, _)| (first, last))
            .collect()
    }

    #[test]
    fn in_order_pushes_pop_immediately() {
        let mut t = DenseReorder::starting_at(0);
        for i in 1..=10 {
            t.push(i, i, i * 10);
            assert_eq!(t.pop(), Some((i, i, i * 10)));
            assert_eq!(t.complete(), i);
        }
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn out_of_order_pushes_wait_for_gap() {
        let mut t = DenseReorder::starting_at(0);
        t.push(3, 3, ());
        t.push(2, 2, ());
        assert_eq!(t.pop(), None);
        assert_eq!((t.complete(), t.pending_len()), (0, 2));
        t.push(1, 1, ());
        assert_eq!(drain(&mut t), [(1, 1), (2, 2), (3, 3)]);
        assert_eq!((t.complete(), t.pending_len()), (3, 0));
    }

    #[test]
    fn starting_at_seeds_prefix() {
        let mut t = DenseReorder::starting_at(100);
        assert_eq!(t.complete(), 100);
        t.push(101, 101, ());
        assert_eq!(drain(&mut t), [(101, 101)]);
        assert_eq!(t.complete(), 101);
    }

    #[test]
    fn a_range_is_one_entry() {
        let mut t = DenseReorder::starting_at(0);
        t.push(2, 5, ());
        assert_eq!(t.pop(), None);
        assert_eq!((t.complete(), t.pending_len()), (0, 1));
        t.push(1, 1, ());
        assert_eq!(drain(&mut t), [(1, 1), (2, 5)]);
        assert_eq!(t.complete(), 5);
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn double_push_below_the_prefix_panics() {
        let mut t = DenseReorder::starting_at(0);
        t.push(1, 1, ());
        t.pop();
        t.push(1, 1, ());
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn double_push_above_the_prefix_panics_at_pop() {
        let mut t = DenseReorder::starting_at(0);
        t.push(1, 2, ());
        t.push(2, 2, ());
        t.pop();
        t.pop();
    }
}
