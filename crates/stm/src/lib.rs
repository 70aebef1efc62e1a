//! A TinySTM-class software transactional memory.
//!
//! DudeTM's Perform step executes transactions with an *out-of-the-box* TM
//! (§3.1); the paper's implementation uses TinySTM [Felber et al.], a
//! word-based, time-based STM. This crate rebuilds that substrate:
//!
//! * a **global version clock** whose commit timestamps double as DudeTM's
//!   global transaction IDs (§3.2);
//! * a table of **striped versioned locks** (ownership records);
//! * **write-through** access (encounter-time locking with a volatile undo
//!   list, the mode DudeTM selects in §4.1 because it permits in-place
//!   update on shadow memory);
//! * **write-back** access (commit-time locking with a redo buffer — reads
//!   must look up the write set, the address-mapping cost the paper
//!   attributes to Mnemosyne-style redo logging);
//! * **timestamp extension** so a transaction whose snapshot is stale can
//!   revalidate instead of aborting.
//!
//! Transactions run over any [`WordMemory`] — a flat vector in tests, the
//! shadow DRAM mirror in DudeTM, or the NVM image itself in the baselines.
//! Conflicts are surfaced as [`TxAbort::Conflict`] through `Result`; the
//! one retry loop behind [`StmThread::run`] / [`StmThread::run_wb`]
//! re-executes the body (the reproduction's safe-Rust equivalent of
//! TinySTM's `longjmp`).
//!
//! Both modes share one snapshot core — the versioned read loop, timestamp
//! extension and the read-set rule [`reads_valid`] — and the emulated HTM
//! reuses that rule, the lock-word encoding and [`backoff`]. [`HeapTxn`] is
//! the one heap-checked [`Txn`] adapter every TM-backed system hands its
//! transaction bodies.
//!
//! # Example
//!
//! ```
//! use dude_stm::{NoHooks, Stm, StmConfig, VecMemory, WordMemory};
//!
//! let stm = Stm::new(StmConfig::default());
//! let mem = VecMemory::new(1024);
//! let mut thread = stm.register();
//! let outcome = thread.run(&mem, &mut NoHooks, |tx| {
//!     let v = tx.read(0)?;
//!     tx.write(0, v + 1)?;
//!     Ok(v)
//! });
//! assert!(outcome.is_committed());
//! assert_eq!(mem.load(0), 1);
//! ```

#![deny(unsafe_code)]

mod clock;
mod counts;
mod locks;
mod memory;
mod snapshot;
mod thread;
mod wb;
mod wt;

pub use clock::GlobalClock;
pub use counts::{PerThreadCounts, ThreadCounts};
pub use locks::{
    is_locked, locked_by, owner_of, reads_valid, try_lock, version_of, versioned, LockTable,
    StmConfig,
};
pub use memory::{VecMemory, WordMemory};
pub use thread::{backoff, Stm, StmStats, StmThread};
pub use wb::WriteBackTx;
pub use wt::StmTx;

use dude_txapi::{PAddr, TxResult, Txn};
pub use dude_txapi::{TxAbort, TxId, TxnOutcome};

/// Observation hooks invoked by the STM at well-defined points.
///
/// DudeTM implements `dtmWrite`/`dtmEnd`/`dtmAbort` (Algorithm 2) purely in
/// terms of these callbacks, which is what lets the TM remain an independent,
/// swappable component.
pub trait TxHooks {
    /// A transactional write of `val` to byte address `addr` succeeded.
    /// Called in program order; DudeTM appends a redo-log entry here.
    fn on_write(&mut self, addr: u64, val: u64) {
        let _ = (addr, val);
    }

    /// The current attempt aborted and was rolled back.
    ///
    /// `wasted_tid` is `Some(tid)` when the attempt had already consumed a
    /// commit timestamp (validation failed after the clock increment); the
    /// ID sequence has a hole that DudeTM fills with an abort marker so the
    /// global durable ID stays computable (§3.2).
    fn on_abort(&mut self, wasted_tid: Option<TxId>) {
        let _ = wasted_tid;
    }

    /// The transaction committed. `tid` is `None` for read-only
    /// transactions (no clock increment, nothing to persist).
    fn on_commit(&mut self, tid: Option<TxId>) {
        let _ = tid;
    }
}

impl<H: TxHooks + ?Sized> TxHooks for &mut H {
    fn on_write(&mut self, addr: u64, val: u64) {
        (**self).on_write(addr, val)
    }

    fn on_abort(&mut self, wasted_tid: Option<TxId>) {
        (**self).on_abort(wasted_tid)
    }

    fn on_commit(&mut self, tid: Option<TxId>) {
        (**self).on_commit(tid)
    }
}

/// A [`TxHooks`] implementation that observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl TxHooks for NoHooks {}

/// Object-safe word-level transactional access.
///
/// Both this crate's transaction types and the emulated-HTM transaction
/// types implement `TmAccess`, which is what lets DudeTM treat the TM as an
/// out-of-the-box, swappable component (§3.1): the Perform step only ever
/// sees `&mut dyn TmAccess`.
pub trait TmAccess {
    /// Transactionally reads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] on a TM conflict; propagate with `?`.
    fn tm_read(&mut self, addr: u64) -> TxResult<u64>;

    /// Transactionally writes `val` to byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] on a TM conflict; propagate with `?`.
    fn tm_write(&mut self, addr: u64, val: u64) -> TxResult<()>;
}

impl<M: WordMemory + ?Sized, H: TxHooks> TmAccess for StmTx<'_, M, H> {
    fn tm_read(&mut self, addr: u64) -> TxResult<u64> {
        self.read(addr)
    }

    fn tm_write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        self.write(addr, val)
    }
}

impl<M: WordMemory + ?Sized, H: TxHooks> TmAccess for WriteBackTx<'_, M, H> {
    fn tm_read(&mut self, addr: u64) -> TxResult<u64> {
        self.read(addr)
    }

    fn tm_write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        self.write(addr, val)
    }
}

/// The word-aligned, heap-bounded [`Txn`] over a TM's [`TmAccess`]: DudeTM's
/// `dtmRead`/`dtmWrite` and every TM-backed baseline's accesses, one adapter.
pub struct HeapTxn<'x> {
    inner: &'x mut dyn TmAccess,
    heap_bytes: u64,
}

impl<'x> HeapTxn<'x> {
    /// Wraps `inner` for a heap of `heap_bytes` bytes.
    pub fn new(inner: &'x mut dyn TmAccess, heap_bytes: u64) -> Self {
        HeapTxn { inner, heap_bytes }
    }

    #[inline]
    fn check(&self, addr: PAddr) {
        assert!(
            addr.is_word_aligned(),
            "transactional access must be word-aligned: {addr}"
        );
        assert!(
            addr.offset() + 8 <= self.heap_bytes,
            "address {addr} beyond heap of {} bytes",
            self.heap_bytes
        );
    }
}

impl Txn for HeapTxn<'_> {
    fn read_word(&mut self, addr: PAddr) -> TxResult<u64> {
        self.check(addr);
        self.inner.tm_read(addr.offset())
    }

    fn write_word(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
        self.check(addr);
        self.inner.tm_write(addr.offset(), val)
    }
}
