//! Conflict-aware sharding of the Reproduce stage: the address→shard
//! router and the per-shard completed-TID frontier.
//!
//! The serial Reproduce step replays batches strictly in global
//! transaction-ID order, so under write-heavy load it caps the pipeline's
//! drain rate. Sharding splits the persistent heap's address space into
//! `N` disjoint shards at cache-line granularity ([`shard_of`]); each
//! durable batch's writes are partitioned by shard ([`split_writes`]) and
//! replayed by `N` workers concurrently. Correctness rests on two
//! invariants:
//!
//! 1. **Partition** — every heap address belongs to exactly one shard, so
//!    per-address write order equals the global TID order restricted to
//!    that shard's channel. Replays never race on a word.
//! 2. **Frontier** — the durable `reproduced` watermark is the *minimum*
//!    completed TID across shards ([`ReproduceFrontier::min_completed`]).
//!    Checkpointing and log recycling key off that minimum, so a shard
//!    running ahead can never let a log record be recycled before every
//!    shard has applied (and fenced) the transactions it covers.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sharding granule in bytes. One cache line: replay locality within a
/// granule, and a line is never split across shard workers (so per-line
/// flushes stay single-writer).
pub const SHARD_GRAIN_BYTES: u64 = 64;

/// Maps a heap offset to its reproduce shard. Total and deterministic:
/// every address belongs to exactly one shard for a given `shards` count.
#[inline]
#[must_use]
pub fn shard_of(addr: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    ((addr / SHARD_GRAIN_BYTES) % shards as u64) as usize
}

/// Partitions a replay write-set by shard, preserving each shard's
/// relative write order. The concatenation of the returned vectors is a
/// permutation of `writes`, and shard `s` holds exactly the writes with
/// `shard_of(addr, shards) == s` — the partition invariant the sharded
/// Reproduce stage relies on (verified by proptest). `writes` is a slice,
/// or a record's slice of its redo ring.
#[must_use]
pub fn split_writes(
    writes: impl IntoIterator<Item: Borrow<(u64, u64)>>,
    shards: usize,
) -> Vec<Vec<(u64, u64)>> {
    let mut parts: Vec<Vec<(u64, u64)>> = (0..shards).map(|_| Vec::new()).collect();
    for pair in writes {
        let &(addr, val) = pair.borrow();
        parts[shard_of(addr, shards)].push((addr, val));
    }
    parts
}

/// Avoid false sharing between per-shard counters that different workers
/// update on every batch.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

/// The per-shard Reproduce progress frontier.
///
/// Each shard worker publishes the last transaction ID whose writes it has
/// applied *and made durable* (flushed and fenced) to its slot; the global
/// reproduced watermark is the minimum over all slots. With one shard this
/// degenerates to the serial reproduced counter.
#[derive(Debug)]
pub struct ReproduceFrontier {
    completed: Vec<PaddedU64>,
    words_applied: Vec<PaddedU64>,
}

impl ReproduceFrontier {
    /// Creates a frontier for `shards` workers, all starting at
    /// `start_tid` (the last transaction ID already reproduced — 0 on a
    /// fresh device, the recovery report's `last_tid` after a restart).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize, start_tid: u64) -> Self {
        assert!(shards >= 1, "a frontier needs at least one shard");
        ReproduceFrontier {
            completed: (0..shards)
                .map(|_| PaddedU64(AtomicU64::new(start_tid)))
                .collect(),
            words_applied: (0..shards).map(|_| PaddedU64(AtomicU64::new(0))).collect(),
        }
    }

    /// Number of shards tracked.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.completed.len()
    }

    /// Publishes shard `shard`'s completed TID. The caller must have made
    /// every heap write for transactions at or below `tid` in this shard
    /// durable (flushed *and* fenced) first — the frontier is what the
    /// checkpoint trusts.
    ///
    /// # Panics
    ///
    /// Debug-panics if `tid` moves the shard backwards (frontiers are
    /// monotonic).
    pub fn publish(&self, shard: usize, tid: u64) {
        debug_assert!(
            self.completed[shard].0.load(Ordering::Relaxed) <= tid,
            "shard {shard} frontier moved backwards"
        );
        self.completed[shard].0.store(tid, Ordering::Release);
    }

    /// Shard `shard`'s completed TID.
    #[must_use]
    pub fn completed(&self, shard: usize) -> u64 {
        self.completed[shard].0.load(Ordering::Acquire)
    }

    /// The global frontier: the minimum completed TID across shards. Every
    /// transaction at or below it has been applied by *every* shard, so it
    /// is the only value safe to checkpoint.
    #[must_use]
    pub fn min_completed(&self) -> u64 {
        self.completed
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .min()
            .expect("at least one shard")
    }

    /// Point-in-time copy of every shard's completed TID.
    #[must_use]
    pub fn snapshot_completed(&self) -> Vec<u64> {
        self.completed
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .collect()
    }

    /// Adds `words` to shard `shard`'s applied-word counter (stats).
    pub fn note_applied(&self, shard: usize, words: u64) {
        self.words_applied[shard]
            .0
            .fetch_add(words, Ordering::Relaxed);
    }

    /// Point-in-time copy of every shard's applied-word counter.
    #[must_use]
    pub fn snapshot_words_applied(&self) -> Vec<u64> {
        self.words_applied
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_total_and_stable() {
        for shards in 1..=8 {
            for addr in (0..4096u64).step_by(8) {
                let s = shard_of(addr, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(addr, shards), "deterministic");
            }
        }
    }

    #[test]
    fn addresses_on_one_line_share_a_shard() {
        for shards in 1..=8 {
            let line = 7 * SHARD_GRAIN_BYTES;
            let s = shard_of(line, shards);
            for w in 0..8 {
                assert_eq!(shard_of(line + w * 8, shards), s);
            }
        }
    }

    #[test]
    fn split_preserves_every_write_exactly_once() {
        let writes: Vec<(u64, u64)> = (0..200u64).map(|i| (i * 24, i)).collect();
        let parts = split_writes(&writes, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, writes.len());
        for (s, part) in parts.iter().enumerate() {
            for &(addr, _) in part {
                assert_eq!(shard_of(addr, 4), s);
            }
        }
    }

    #[test]
    fn split_preserves_per_shard_order() {
        // Two writes to the same address must stay ordered within a shard.
        let writes = vec![(64, 1), (128, 2), (64, 3), (128, 4)];
        let parts = split_writes(&writes, 2);
        for part in &parts {
            let same_addr: Vec<u64> = part.iter().filter(|w| w.0 == 64).map(|w| w.1).collect();
            if !same_addr.is_empty() {
                assert_eq!(same_addr, vec![1, 3]);
            }
        }
    }

    #[test]
    fn frontier_min_tracks_slowest_shard() {
        let f = ReproduceFrontier::new(3, 5);
        assert_eq!(f.min_completed(), 5);
        f.publish(0, 10);
        f.publish(2, 8);
        assert_eq!(f.min_completed(), 5, "shard 1 still at start");
        f.publish(1, 9);
        assert_eq!(f.min_completed(), 8);
        assert_eq!(f.snapshot_completed(), vec![10, 9, 8]);
    }

    #[test]
    fn applied_words_accumulate_per_shard() {
        let f = ReproduceFrontier::new(2, 0);
        f.note_applied(0, 7);
        f.note_applied(0, 3);
        f.note_applied(1, 1);
        assert_eq!(f.snapshot_words_applied(), vec![10, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ReproduceFrontier::new(0, 0);
    }
}
