//! Striped versioned locks (ownership records).
//!
//! Each transactional word maps to one lock word in a fixed-size table by
//! TinySTM's `LOCK_IDX`: the word number, masked to the table size. The
//! eight words of a 64-byte data line therefore share one 64-byte line of
//! the table, consecutive data lines use consecutive table lines, and two
//! words alias only if they are a multiple of `8 << lock_table_bits` bytes
//! apart (8 MiB under the default table). A lock word is either
//!
//! * **unlocked**: `version << 1` — the commit timestamp of the last writer
//!   of any address in the stripe, or
//! * **locked**: `(owner << 1) | 1` — held by the thread with that owner ID
//!   while it writes (write-through) or publishes (write-back).
//!
//! The emulated HTM's cache-line ownership table is a [`LockTable`] with the
//! same encoding, validated by the same [`reads_valid`] rule.

use std::sync::atomic::{AtomicU64, Ordering};

/// STM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmConfig {
    /// log2 of the number of lock stripes. The paper-scale default (2^20)
    /// keeps false conflicts rare for multi-hundred-MB heaps.
    pub lock_table_bits: u32,
    /// Conflict retries before the retry loop starts yielding the CPU to
    /// let the conflicting transaction finish (essential on few-core hosts).
    pub spin_retries: u32,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            lock_table_bits: 20,
            spin_retries: 8,
        }
    }
}

impl StmConfig {
    /// A small lock table for unit tests (forces stripe collisions).
    pub fn tiny() -> Self {
        StmConfig {
            lock_table_bits: 4,
            spin_retries: 2,
        }
    }
}

/// The striped lock table.
#[derive(Debug)]
pub struct LockTable {
    words: Box<[AtomicU64]>,
    mask: u64,
}

impl LockTable {
    /// Creates a table with `2^bits` stripes, all unlocked at version 0.
    pub fn new(bits: u32) -> Self {
        assert!((1..=28).contains(&bits), "unreasonable lock table size");
        let n = 1usize << bits;
        LockTable {
            words: dude_txapi::zeroed_words(n),
            mask: (n - 1) as u64,
        }
    }

    /// Stripe index for a byte address: its word number, masked to the
    /// table (TinySTM's `LOCK_IDX`, a shift and a mask).
    #[inline]
    pub fn stripe_of(&self, addr: u64) -> usize {
        ((addr >> 3) & self.mask) as usize
    }

    /// The lock word for a stripe index.
    #[inline]
    pub fn word(&self, stripe: usize) -> &AtomicU64 {
        &self.words[stripe]
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Always `false`; tables have at least two stripes.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// `true` if the lock word is held.
#[inline]
pub fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

/// Version of an unlocked word.
#[inline]
pub fn version_of(word: u64) -> u64 {
    debug_assert!(!is_locked(word));
    word >> 1
}

/// Encodes an unlocked word carrying `version`.
#[inline]
pub fn versioned(version: u64) -> u64 {
    version << 1
}

/// Encodes a locked word held by `owner`.
#[inline]
pub fn locked_by(owner: u64) -> u64 {
    (owner << 1) | 1
}

/// Owner ID of a locked word.
#[inline]
pub fn owner_of(word: u64) -> u64 {
    debug_assert!(is_locked(word));
    word >> 1
}

/// Tries to acquire `lock`, transitioning `expected_unlocked → locked_by(owner)`.
#[inline]
pub fn try_lock(lock: &AtomicU64, expected_unlocked: u64, owner: u64) -> bool {
    lock.compare_exchange(
        expected_unlocked,
        locked_by(owner),
        Ordering::Acquire,
        Ordering::Relaxed,
    )
    .is_ok()
}

/// The read-set validation rule, the one both STM modes and the HTM apply:
/// every `(index, version)` in `reads` is still consistent if its lock word
/// in `locks` either is unlocked at that version, or is held by `owner` and
/// held that version when `owner` locked it (`held` records each locked
/// index with its prior lock word). Indices are STM stripes or HTM lines.
pub fn reads_valid(
    locks: &LockTable,
    owner: u64,
    reads: &[(usize, u64)],
    held: &[(usize, u64)],
) -> bool {
    reads.iter().all(|&(index, version)| {
        let w = locks.word(index).load(Ordering::Acquire);
        if !is_locked(w) {
            return version_of(w) == version;
        }
        if owner_of(w) != owner {
            return false;
        }
        let prev = held
            .iter()
            .find(|&&(i, _)| i == index)
            .expect("an index locked by its owner must be recorded as held")
            .1;
        version_of(prev) == version
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        assert!(!is_locked(versioned(7)));
        assert_eq!(version_of(versioned(7)), 7);
        assert!(is_locked(locked_by(3)));
        assert_eq!(owner_of(locked_by(3)), 3);
    }

    #[test]
    fn stripes_cover_table() {
        let t = LockTable::new(8);
        assert_eq!(t.len(), 256);
        for addr in (0..4096u64).step_by(8) {
            assert!(t.stripe_of(addr) < t.len());
        }
    }

    #[test]
    fn same_word_same_stripe() {
        let t = LockTable::new(8);
        assert_eq!(t.stripe_of(64), t.stripe_of(64));
        // Bytes within one word share a stripe.
        assert_eq!(t.stripe_of(64), t.stripe_of(71));
    }

    #[test]
    fn try_lock_transitions() {
        let t = LockTable::new(4);
        let w = t.word(0);
        assert!(try_lock(w, versioned(0), 5));
        assert!(is_locked(w.load(Ordering::Relaxed)));
        assert_eq!(owner_of(w.load(Ordering::Relaxed)), 5);
        // Second acquisition fails.
        assert!(!try_lock(w, versioned(0), 6));
        w.store(versioned(9), Ordering::Release);
        assert_eq!(version_of(w.load(Ordering::Relaxed)), 9);
    }

    /// A lock-table line is eight consecutive stripes (64 bytes of lock
    /// words). The table itself starts wherever the allocator put it (16
    /// bytes past a cache line for a large glibc allocation), which
    /// measured the same lines per transaction as a 64-byte-aligned table.
    #[test]
    fn words_of_a_data_line_share_a_lock_line() {
        let t = LockTable::new(StmConfig::default().lock_table_bits);
        let lock_line = |addr: u64| t.stripe_of(addr) / 8;
        let lines = t.len() / 8;
        for line in [0, 1, 4095, lines - 1, lines, 3 * lines + 17] {
            let base = line as u64 * 64;
            // One stripe per word, all on one lock-table line…
            for w in 0..8 {
                assert_eq!(t.stripe_of(base + w * 8), t.stripe_of(base) + w as usize);
                assert_eq!(
                    lock_line(base + w * 8),
                    lock_line(base),
                    "line {line} word {w}"
                );
            }
            // …and the next data line on the next lock line, mod the table.
            assert_eq!(lock_line(base + 64), (lock_line(base) + 1) % lines);
        }
    }

    #[test]
    fn aliases_are_one_table_of_words_apart() {
        let bits = StmConfig::default().lock_table_bits;
        let t = LockTable::new(bits);
        let span = 8u64 << bits;
        assert_eq!(span, 8 << 20, "the default table aliases 8 MiB apart");
        for addr in [0u64, 8, 4096, span - 8] {
            assert_eq!(t.stripe_of(addr), t.stripe_of(addr + span));
            assert_eq!(t.stripe_of(addr), t.stripe_of(addr + 5 * span));
            assert_ne!(t.stripe_of(addr), t.stripe_of(addr + span / 2));
        }
    }
}
