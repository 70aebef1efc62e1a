//! Uniform transaction API shared by every durable-transaction system in the
//! DudeTM reproduction.
//!
//! The paper's evaluation (§5) runs the same six workloads over DudeTM (in
//! several durability modes), the volatile TinySTM upper bound, a
//! Mnemosyne-like redo-logging system and an NVML-like undo-logging system.
//! To make that possible with a single workload implementation, all systems
//! implement the traits in this crate:
//!
//! * [`TxnSystem`] — a shared, thread-safe transaction runtime.
//! * [`TxnThread`] — a per-thread handle that runs transactions.
//! * [`Txn`] — the in-transaction view: word-granular reads and writes over a
//!   persistent address space ([`PAddr`]), mirroring the paper's
//!   `dtmRead`/`dtmWrite` API (Algorithm 1).
//!
//! Transactions are expressed as closures over `&mut dyn Txn`. Conflicts are
//! propagated with `Result` (no unwinding): a body uses `?` on every access
//! and the system's retry loop re-executes it on [`TxAbort::Conflict`].
//!
//! # Example
//!
//! ```
//! use dude_txapi::{PAddr, Txn, TxResult};
//!
//! /// Transfer one unit between two accounts (paper Algorithm 1).
//! fn transfer(tx: &mut dyn Txn, src: PAddr, dst: PAddr) -> TxResult<()> {
//!     let s = tx.read_word(src)?;
//!     if s == 0 {
//!         return Err(dude_txapi::TxAbort::User);
//!     }
//!     tx.write_word(src, s - 1)?;
//!     let d = tx.read_word(dst)?;
//!     tx.write_word(dst, d + 1)?;
//!     Ok(())
//! }
//! ```

#![deny(unsafe_code)]

mod paddr;
mod words;

pub use paddr::{PAddr, WORD_BYTES};
pub use words::zeroed_words;

/// Global transaction identifier.
///
/// Transaction IDs are the TM's commit timestamps: globally unique and
/// monotonically increasing (§3.2). `0` is reserved for "no ID" (read-only
/// transactions never obtain one).
pub type TxId = u64;

/// Reason a transaction body stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxAbort {
    /// The TM detected a conflict; the system's retry loop will re-execute
    /// the transaction body. Workload code should treat this as opaque and
    /// simply propagate it with `?`.
    Conflict,
    /// The application explicitly aborted (paper's `dtmAbort`); the
    /// transaction rolls back and [`TxnThread::run`] reports
    /// [`TxnOutcome::Aborted`].
    User,
}

impl core::fmt::Display for TxAbort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TxAbort::Conflict => f.write_str("transaction conflict"),
            TxAbort::User => f.write_str("transaction aborted by user"),
        }
    }
}

impl std::error::Error for TxAbort {}

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, TxAbort>;

/// Statistics describing how a committed transaction executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitInfo {
    /// Commit timestamp assigned by the TM. `None` for read-only
    /// transactions (they are trivially durable).
    pub tid: Option<TxId>,
    /// Number of conflict-induced re-executions before the commit.
    pub retries: u32,
}

/// Outcome of running a transaction body to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome<T> {
    /// The body returned `Ok` and the TM committed.
    Committed {
        /// Value returned by the transaction body.
        value: T,
        /// Commit metadata (transaction ID, retry count).
        info: CommitInfo,
    },
    /// The body returned [`TxAbort::User`]; all effects were rolled back.
    Aborted,
}

impl<T> TxnOutcome<T> {
    /// Returns the committed value.
    ///
    /// # Panics
    ///
    /// Panics if the transaction was aborted by the user.
    #[track_caller]
    pub fn expect_committed(self) -> T {
        match self {
            TxnOutcome::Committed { value, .. } => value,
            TxnOutcome::Aborted => panic!("transaction was aborted"),
        }
    }

    /// Commit metadata, or `None` if the transaction aborted.
    pub fn info(&self) -> Option<CommitInfo> {
        match self {
            TxnOutcome::Committed { info, .. } => Some(*info),
            TxnOutcome::Aborted => None,
        }
    }

    /// `true` if the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }
}

/// In-transaction view of the persistent address space.
///
/// All accesses are word-granular (`u64`), matching the word-based TinySTM
/// the paper builds on. Every method can report a conflict, which the caller
/// must propagate with `?`.
pub trait Txn {
    /// Transactionally read the word at `addr` (paper's `dtmRead`).
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort::Conflict`] if the TM detected a conflict; the body
    /// must propagate it so the retry loop can re-execute.
    fn read_word(&mut self, addr: PAddr) -> TxResult<u64>;

    /// Transactionally write `val` to the word at `addr` (paper's
    /// `dtmWrite`).
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort::Conflict`] if the TM detected a conflict.
    fn write_word(&mut self, addr: PAddr, val: u64) -> TxResult<()>;

    /// Declare that the `words`-long range at `addr` may be written by this
    /// transaction.
    ///
    /// Only *static-transaction* systems (the NVML-like baseline, §2.2) act
    /// on this: they undo-log the range up front. Dynamic-transaction
    /// systems (DudeTM, Mnemosyne, volatile STM) ignore it, so workloads can
    /// call it unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort::Conflict`] if logging the range conflicts.
    fn declare_write(&mut self, addr: PAddr, words: u64) -> TxResult<()> {
        let _ = (addr, words);
        Ok(())
    }

    /// Read `out.len()` consecutive words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the first conflict encountered.
    fn read_words(&mut self, addr: PAddr, out: &mut [u64]) -> TxResult<()> {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read_word(addr.add_words(i as u64))?;
        }
        Ok(())
    }

    /// Write the words in `vals` consecutively starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the first conflict encountered.
    fn write_words(&mut self, addr: PAddr, vals: &[u64]) -> TxResult<()> {
        for (i, v) in vals.iter().enumerate() {
            self.write_word(addr.add_words(i as u64), *v)?;
        }
        Ok(())
    }

    /// Reads `out.len()` bytes starting at the word-aligned `addr`
    /// (little-endian within each word). Byte-level layouts (strings,
    /// packed records) ride on the word-granular TM this way.
    ///
    /// # Errors
    ///
    /// Propagates the first conflict encountered.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    fn read_bytes(&mut self, addr: PAddr, out: &mut [u8]) -> TxResult<()> {
        assert!(addr.is_word_aligned(), "byte reads start word-aligned");
        for (i, chunk) in out.chunks_mut(8).enumerate() {
            let w = self.read_word(addr.add_words(i as u64))?;
            chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
        }
        Ok(())
    }

    /// Writes `bytes` starting at the word-aligned `addr`. A trailing
    /// partial word is read-modified-written, preserving its other bytes.
    ///
    /// # Errors
    ///
    /// Propagates the first conflict encountered.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    fn write_bytes(&mut self, addr: PAddr, bytes: &[u8]) -> TxResult<()> {
        assert!(addr.is_word_aligned(), "byte writes start word-aligned");
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let waddr = addr.add_words(i as u64);
            let w = if chunk.len() == 8 {
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
            } else {
                let mut b = self.read_word(waddr)?.to_le_bytes();
                b[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(b)
            };
            self.write_word(waddr, w)?;
        }
        Ok(())
    }
}

/// Per-thread handle for executing transactions on a [`TxnSystem`].
pub trait TxnThread {
    /// Execute `body` as one transaction, retrying on conflicts until it
    /// either commits or aborts via [`TxAbort::User`].
    fn run<T>(&mut self, body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<T>) -> TxnOutcome<T>;

    /// Block until the transaction with ID `tid` is durable.
    ///
    /// Volatile systems treat every committed transaction as durable, so the
    /// default is a no-op.
    fn wait_durable(&mut self, tid: TxId) {
        let _ = tid;
    }

    /// Largest transaction ID `D` such that every transaction with ID ≤ `D`
    /// is durable (the paper's global *durable ID*, §3.3).
    fn durable_watermark(&self) -> TxId {
        TxId::MAX
    }
}

/// A shared, thread-safe transaction runtime over a persistent heap.
pub trait TxnSystem: Sync {
    /// Per-thread transaction handle.
    type Thread<'a>: TxnThread + 'a
    where
        Self: 'a;

    /// Register the calling thread and return its transaction handle.
    fn register_thread(&self) -> Self::Thread<'_>;

    /// Human-readable system name used in benchmark tables
    /// (e.g. `"DudeTM"`, `"Mnemosyne"`).
    fn name(&self) -> &'static str;

    /// Size of the persistent heap, in words.
    fn heap_words(&self) -> u64;

    /// Wait until all committed transactions are durable *and* reproduced
    /// (pipeline drained). Used by the harness between load and measurement
    /// phases. Volatile systems return immediately.
    fn quiesce(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MapTxn(std::collections::HashMap<u64, u64>);

    impl Txn for MapTxn {
        fn read_word(&mut self, addr: PAddr) -> TxResult<u64> {
            Ok(*self.0.get(&addr.offset()).unwrap_or(&0))
        }
        fn write_word(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
            self.0.insert(addr.offset(), val);
            Ok(())
        }
    }

    #[test]
    fn multiword_helpers_roundtrip() {
        let mut tx = MapTxn(Default::default());
        let base = PAddr::new(64);
        tx.write_words(base, &[1, 2, 3]).unwrap();
        let mut out = [0u64; 3];
        tx.read_words(base, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn byte_helpers_roundtrip() {
        let mut tx = MapTxn(Default::default());
        let base = PAddr::new(128);
        tx.write_bytes(base, b"hello, persistent world").unwrap();
        let mut out = [0u8; 23];
        tx.read_bytes(base, &mut out).unwrap();
        assert_eq!(&out, b"hello, persistent world");
    }

    #[test]
    fn partial_word_write_preserves_neighbours() {
        let mut tx = MapTxn(Default::default());
        let base = PAddr::new(0);
        tx.write_word(base, u64::MAX).unwrap();
        tx.write_bytes(base, &[0xAA, 0xBB]).unwrap();
        let w = tx.read_word(base).unwrap();
        assert_eq!(
            w.to_le_bytes(),
            [0xAA, 0xBB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]
        );
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_byte_write_panics() {
        let mut tx = MapTxn(Default::default());
        let _ = tx.write_bytes(PAddr::new(3), &[1]);
    }

    #[test]
    fn declare_write_defaults_to_noop() {
        let mut tx = MapTxn(Default::default());
        tx.declare_write(PAddr::new(0), 10).unwrap();
    }

    #[test]
    fn outcome_accessors() {
        let c = TxnOutcome::Committed {
            value: 7,
            info: CommitInfo {
                tid: Some(3),
                retries: 1,
            },
        };
        assert!(c.is_committed());
        assert_eq!(c.info().unwrap().tid, Some(3));
        assert_eq!(c.expect_committed(), 7);
        let a: TxnOutcome<i32> = TxnOutcome::Aborted;
        assert!(!a.is_committed());
        assert!(a.info().is_none());
    }

    #[test]
    #[should_panic(expected = "aborted")]
    fn expect_committed_panics_on_abort() {
        TxnOutcome::<()>::Aborted.expect_committed();
    }

    #[test]
    fn abort_display() {
        assert_eq!(TxAbort::Conflict.to_string(), "transaction conflict");
        assert_eq!(TxAbort::User.to_string(), "transaction aborted by user");
    }
}
