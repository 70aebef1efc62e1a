//! Dense-sequence watermark tracking (the global *durable ID*).
//!
//! Persist threads flush redo logs out of order (§3.3), so "transaction
//! `t` is durable" does not mean "all transactions before `t` are durable".
//! The paper defines the *durable ID* as the largest `D` such that every
//! transaction with ID ≤ `D` has been persisted. [`SequenceTracker`] computes
//! exactly that: threads `mark` IDs as they complete, and `watermark` is the
//! length of the completed prefix.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Tracks completion of a dense ID sequence `1, 2, 3, …` and exposes the
/// completed-prefix watermark.
///
/// # Example
///
/// ```
/// use dudetm::SequenceTracker;
///
/// let t = SequenceTracker::new();
/// t.mark(2);
/// assert_eq!(t.watermark(), 0); // 1 missing
/// t.mark(1);
/// assert_eq!(t.watermark(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SequenceTracker {
    /// Largest `D` with all of `1..=D` marked.
    watermark: AtomicU64,
    /// Marked IDs above the watermark (min-heap via `Reverse`).
    pending: Mutex<BinaryHeap<std::cmp::Reverse<u64>>>,
}

impl SequenceTracker {
    /// Creates a tracker with an empty sequence (watermark 0).
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// Creates a tracker whose prefix `1..=start` is already complete
    /// (used after recovery, where `start` is the last recovered ID).
    pub fn starting_at(start: u64) -> Self {
        SequenceTracker {
            watermark: AtomicU64::new(start),
            pending: Mutex::new(BinaryHeap::new()),
        }
    }

    /// Marks `id` as complete and advances the watermark over any newly
    /// contiguous prefix.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already at or below the watermark (double mark).
    pub fn mark(&self, id: u64) {
        let mut pending = self.pending.lock();
        let mut wm = self.watermark.load(Ordering::Acquire);
        assert!(id > wm, "id {id} marked twice (watermark {wm})");
        pending.push(std::cmp::Reverse(id));
        while pending
            .peek()
            .is_some_and(|&std::cmp::Reverse(next)| next == wm + 1)
        {
            pending.pop();
            wm += 1;
        }
        self.watermark.store(wm, Ordering::Release);
    }

    /// Marks the whole inclusive range `lo..=hi` as complete.
    pub fn mark_range(&self, lo: u64, hi: u64) {
        for id in lo..=hi {
            self.mark(id);
        }
    }

    /// Largest `D` such that every ID in `1..=D` has been marked.
    #[inline]
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Number of IDs marked out of order (above the watermark), for
    /// diagnostics.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn in_order_marks_advance_immediately() {
        let t = SequenceTracker::new();
        for i in 1..=10 {
            t.mark(i);
            assert_eq!(t.watermark(), i);
        }
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn out_of_order_marks_wait_for_gap() {
        let t = SequenceTracker::new();
        t.mark(3);
        t.mark(2);
        assert_eq!(t.watermark(), 0);
        assert_eq!(t.pending_len(), 2);
        t.mark(1);
        assert_eq!(t.watermark(), 3);
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn starting_at_seeds_prefix() {
        let t = SequenceTracker::starting_at(100);
        assert_eq!(t.watermark(), 100);
        t.mark(101);
        assert_eq!(t.watermark(), 101);
    }

    #[test]
    fn mark_range_completes_block() {
        let t = SequenceTracker::new();
        t.mark_range(2, 5);
        assert_eq!(t.watermark(), 0);
        t.mark(1);
        assert_eq!(t.watermark(), 5);
    }

    #[test]
    #[should_panic(expected = "marked twice")]
    fn double_mark_panics() {
        let t = SequenceTracker::new();
        t.mark(1);
        t.mark(1);
    }

    #[test]
    fn concurrent_marks_reach_full_watermark() {
        let t = Arc::new(SequenceTracker::new());
        let n = 4000u64;
        let mut handles = Vec::new();
        for part in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                // Interleaved stripes: thread p marks p+1, p+5, p+9, …
                let mut id = part + 1;
                while id <= n {
                    t.mark(id);
                    id += 4;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.watermark(), n);
        assert_eq!(t.pending_len(), 0);
    }
}
