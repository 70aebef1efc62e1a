//! Abstract word-addressable memory the STM executes over.

use std::sync::atomic::{AtomicU64, Ordering};

/// Word-addressable memory accessed by transactions.
///
/// Addresses are byte offsets and must be 8-byte aligned. Implementations
/// provide *raw* loads and stores; all concurrency control is the STM's
/// responsibility, so implementations only need individual word accesses to
/// be data-race free (e.g. relaxed atomics), not synchronized.
///
/// A `WordMemory` is used from a single thread per transaction but several
/// transactions on different threads target the same memory, hence the
/// `&self` signatures. Implementations that are shared across threads must
/// be `Sync`; per-transaction views (like DudeTM's paged shadow view, which
/// pins pages with interior mutability) need not be.
pub trait WordMemory {
    /// Raw load of the word at byte offset `addr`.
    fn load(&self, addr: u64) -> u64;

    /// Raw store of `val` at byte offset `addr`.
    fn store(&self, addr: u64, val: u64);
}

impl<M: WordMemory + ?Sized> WordMemory for &M {
    #[inline]
    fn load(&self, addr: u64) -> u64 {
        (**self).load(addr)
    }

    #[inline]
    fn store(&self, addr: u64, val: u64) {
        (**self).store(addr, val)
    }
}

/// A flat in-DRAM memory: the volatile substrate for tests and for the
/// Volatile-STM upper bound of the evaluation (§5.1).
#[derive(Debug)]
pub struct VecMemory {
    words: Box<[AtomicU64]>,
}

impl VecMemory {
    /// Creates a zero-filled memory of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of 8.
    pub fn new(bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "size must be a multiple of 8"
        );
        VecMemory {
            words: dude_txapi::zeroed_words(
                usize::try_from(bytes / 8).expect("memory larger than the address space"),
            ),
        }
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        assert!(addr.is_multiple_of(8), "unaligned word access at {addr}");
        let idx = (addr / 8) as usize;
        assert!(
            idx < self.words.len(),
            "address {addr} out of bounds ({} bytes)",
            self.size_bytes()
        );
        idx
    }
}

impl WordMemory for VecMemory {
    #[inline]
    fn load(&self, addr: u64) -> u64 {
        self.words[self.index(addr)].load(Ordering::Relaxed)
    }

    #[inline]
    fn store(&self, addr: u64, val: u64) {
        self.words[self.index(addr)].store(val, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_roundtrip() {
        let m = VecMemory::new(64);
        m.store(0, 1);
        m.store(56, 2);
        assert_eq!(m.load(0), 1);
        assert_eq!(m.load(56), 2);
        assert_eq!(m.size_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_rejected() {
        VecMemory::new(64).load(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_rejected() {
        VecMemory::new(64).store(64, 1);
    }

    #[test]
    fn reference_forwarding() {
        let m = VecMemory::new(64);
        let r: &VecMemory = &m;
        r.store(8, 5);
        assert_eq!(WordMemory::load(&r, 8), 5);
    }
}
