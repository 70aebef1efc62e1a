//! Write-through transactions (encounter-time locking + volatile undo).
//!
//! This is the access mode DudeTM selects (§4.1): writes lock their stripe
//! at encounter time and update memory **in place**, recording old values in
//! a volatile undo list. Reads of the latest value therefore need no address
//! mapping — the core advantage the decoupled design preserves. On abort the
//! undo list is replayed in reverse; because the memory being patched is
//! *volatile shadow memory*, this "undo logging" has no persist-ordering
//! cost (paper footnote 3).

use std::mem::take;
use std::sync::atomic::Ordering;

use dude_txapi::{TxAbort, TxId, TxResult};

use crate::clock::GlobalClock;
use crate::locks::{is_locked, owner_of, version_of, LockTable};
use crate::memory::WordMemory;
use crate::snapshot::{Buffers, Snapshot};
use crate::thread::Attempt;
use crate::TxHooks;

/// An in-flight write-through transaction.
///
/// Created by [`crate::StmThread::run`]; user code receives `&mut StmTx` and
/// calls [`StmTx::read`] / [`StmTx::write`], propagating conflicts with `?`.
#[derive(Debug)]
pub struct StmTx<'t, M: WordMemory + ?Sized, H: TxHooks> {
    snap: Snapshot<'t>,
    mem: &'t M,
    hooks: &'t mut H,
    /// `(addr, old value)` in write order; replayed in reverse on abort.
    undo: Vec<(u64, u64)>,
}

impl<'t, M: WordMemory + ?Sized, H: TxHooks> StmTx<'t, M, H> {
    /// Begins a transaction over the buffers of `bufs`; [`StmTx::end`]
    /// gives them back.
    pub(crate) fn begin(
        clock: &'t GlobalClock,
        locks: &'t LockTable,
        mem: &'t M,
        hooks: &'t mut H,
        owner: u64,
        bufs: &mut Buffers,
    ) -> Self {
        StmTx {
            snap: Snapshot::begin(clock, locks, owner, bufs),
            mem,
            hooks,
            undo: take(&mut bufs.writes),
        }
    }

    /// Ends the transaction, returning its buffers to `bufs`. A commit
    /// cleared the undo log and a rollback drained it.
    pub(crate) fn end(self, bufs: &mut Buffers) {
        debug_assert!(self.undo.is_empty(), "end with undo entries");
        bufs.writes = self.undo;
        self.snap.end(bufs);
    }

    /// Transactionally reads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if the stripe is locked by another transaction
    /// or the snapshot cannot be extended.
    pub fn read(&mut self, addr: u64) -> TxResult<u64> {
        self.snap.read(self.mem, addr)
    }

    /// Transactionally writes `val` to byte address `addr`, in place.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if the stripe is locked by another transaction
    /// or the snapshot cannot be extended.
    pub fn write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        let stripe = self.snap.locks.stripe_of(addr);
        loop {
            let l = self.snap.locks.word(stripe).load(Ordering::Acquire);
            if is_locked(l) {
                if owner_of(l) != self.snap.owner {
                    return Err(TxAbort::Conflict);
                }
            } else if version_of(l) > self.snap.rv {
                self.snap.extend()?;
                continue;
            } else if !self.snap.hold(stripe, l) {
                // CAS raced with another thread; re-inspect the lock word.
                continue;
            }
            self.undo.push((addr, self.mem.load(addr)));
            self.mem.store(addr, val);
            self.hooks.on_write(addr, val);
            return Ok(());
        }
    }

    /// Snapshot timestamp this transaction currently reads at.
    pub fn snapshot(&self) -> u64 {
        self.snap.rv
    }

    /// `true` if this transaction has written anything.
    pub fn is_update(&self) -> bool {
        !self.undo.is_empty()
    }

    /// Commits the transaction. Returns the commit timestamp (`None` for
    /// read-only transactions).
    pub(crate) fn commit(&mut self) -> Result<Option<TxId>, TxAbort> {
        if self.snap.held.is_empty() {
            // Read-only: every read was validated against `rv` at read time.
            return Ok(None);
        }
        let wv = self.snap.stamp()?;
        self.snap.release(Some(wv));
        self.undo.clear();
        Ok(Some(wv))
    }
}

impl<M: WordMemory + ?Sized, H: TxHooks> Attempt for StmTx<'_, M, H> {
    type Hooks = H;

    fn restart(&mut self) {
        self.snap.restart();
    }

    fn is_update(&self) -> bool {
        StmTx::is_update(self)
    }

    /// Rolls back in-place writes (reverse order) and releases stripes.
    fn rollback(&mut self) {
        for (addr, old) in self.undo.drain(..).rev() {
            self.mem.store(addr, old);
        }
        self.snap.release(None);
    }

    fn take_wasted(&mut self) -> Option<TxId> {
        self.snap.wasted.take()
    }

    fn hooks(&mut self) -> &mut H {
        self.hooks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHooks, StmConfig};

    struct Fixture {
        clock: GlobalClock,
        locks: LockTable,
        mem: crate::VecMemory,
    }

    fn fixture() -> Fixture {
        Fixture {
            clock: GlobalClock::new(),
            locks: LockTable::new(StmConfig::tiny().lock_table_bits),
            mem: crate::VecMemory::new(1024),
        }
    }

    impl Fixture {
        fn begin<'f>(
            &'f self,
            hooks: &'f mut NoHooks,
            owner: u64,
        ) -> StmTx<'f, crate::VecMemory, NoHooks> {
            StmTx::begin(
                &self.clock,
                &self.locks,
                &self.mem,
                hooks,
                owner,
                &mut Buffers::default(),
            )
        }
    }

    #[test]
    fn read_write_commit_in_place() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        assert_eq!(tx.read(0).unwrap(), 0);
        tx.write(0, 5).unwrap();
        assert_eq!(tx.read(0).unwrap(), 5); // reads own in-place write
        let tid = tx.commit().unwrap();
        assert_eq!(tid, Some(1));
        assert_eq!(f.mem.load(0), 5);
    }

    #[test]
    fn read_only_commit_gets_no_tid() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.read(0).unwrap();
        assert!(!tx.is_update());
        assert_eq!(tx.commit().unwrap(), None);
        assert_eq!(f.clock.now(), 0);
    }

    #[test]
    fn rollback_restores_values_in_reverse() {
        let f = fixture();
        f.mem.store(0, 10);
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.write(0, 11).unwrap();
        tx.write(0, 12).unwrap();
        assert_eq!(f.mem.load(0), 12);
        tx.rollback();
        assert_eq!(f.mem.load(0), 10);
        // Stripe is unlocked again at its old version.
        let w = f
            .locks
            .word(f.locks.stripe_of(0))
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(!is_locked(w));
    }

    #[test]
    fn conflicting_writer_aborts_reader() {
        let f = fixture();
        let mut h1 = NoHooks;
        let mut h2 = NoHooks;
        let mut t1 = f.begin(&mut h1, 1);
        t1.write(0, 1).unwrap();
        let mut t2 = f.begin(&mut h2, 2);
        assert_eq!(t2.read(0), Err(TxAbort::Conflict));
        t1.rollback();
        t2.rollback();
    }

    #[test]
    fn conflicting_writer_aborts_writer() {
        let f = fixture();
        let mut h1 = NoHooks;
        let mut h2 = NoHooks;
        let mut t1 = f.begin(&mut h1, 1);
        t1.write(0, 1).unwrap();
        let mut t2 = f.begin(&mut h2, 2);
        assert_eq!(t2.write(0, 2), Err(TxAbort::Conflict));
        t1.rollback();
        t2.rollback();
        assert_eq!(f.mem.load(0), 0);
    }

    #[test]
    fn stale_snapshot_extends_when_reads_unaffected() {
        let f = fixture();
        let mut h1 = NoHooks;
        // T1 begins at rv=0.
        let mut t1 = f.begin(&mut h1, 1);
        // Another transaction commits to word 512 (different stripe for most
        // hashes; pick a word in a distinct stripe).
        let other_addr = (0..1024u64)
            .step_by(8)
            .find(|&a| f.locks.stripe_of(a) != f.locks.stripe_of(0))
            .unwrap();
        let mut h2 = NoHooks;
        let mut t2 = f.begin(&mut h2, 2);
        t2.write(other_addr, 9).unwrap();
        t2.commit().unwrap();
        // T1 now reads a word whose stripe version (0) is fine, then writes
        // the *other* stripe whose version (1) exceeds rv=0 → extension.
        assert_eq!(t1.read(0).unwrap(), 0);
        t1.write(other_addr, 10).unwrap();
        assert!(t1.commit().unwrap().is_some());
        assert_eq!(f.mem.load(other_addr), 10);
    }

    #[test]
    fn validation_fails_if_read_stripe_changed_before_lock() {
        let f = fixture();
        let addr = 0u64;
        let mut h1 = NoHooks;
        let mut t1 = f.begin(&mut h1, 1);
        assert_eq!(t1.read(addr).unwrap(), 0);
        // T2 commits a write to the same word.
        let mut h2 = NoHooks;
        let mut t2 = f.begin(&mut h2, 2);
        t2.write(addr, 7).unwrap();
        t2.commit().unwrap();
        // T1 then writes the same word: version(1) > rv(0) forces an
        // extension, which must fail because the read is stale.
        assert_eq!(t1.write(addr, 8), Err(TxAbort::Conflict));
        t1.rollback();
        assert_eq!(f.mem.load(addr), 7);
    }

    #[test]
    fn wasted_tid_reported_on_commit_validation_failure() {
        let f = fixture();
        // Make stripes of addr_a and addr_b differ.
        let addr_a = 0u64;
        let addr_b = (8..1024u64)
            .step_by(8)
            .find(|&a| f.locks.stripe_of(a) != f.locks.stripe_of(addr_a))
            .unwrap();
        let mut h1 = NoHooks;
        let mut t1 = f.begin(&mut h1, 1);
        assert_eq!(t1.read(addr_a).unwrap(), 0);
        t1.write(addr_b, 1).unwrap();
        // T2 invalidates T1's read and bumps the clock so wv != rv+1.
        let mut h2 = NoHooks;
        let mut t2 = f.begin(&mut h2, 2);
        t2.write(addr_a, 9).unwrap();
        t2.commit().unwrap();
        assert!(t1.commit().is_err());
        let wasted = t1.take_wasted();
        assert_eq!(wasted, Some(2));
        t1.rollback();
        assert_eq!(f.mem.load(addr_b), 0);
    }

    #[test]
    fn false_sharing_same_stripe_is_handled() {
        // Two different words mapping to the same stripe: second write sees
        // "locked by me" and proceeds.
        let f = fixture();
        let addr_a = 0u64;
        let addr_b = (8..1024u64)
            .step_by(8)
            .find(|&a| f.locks.stripe_of(a) == f.locks.stripe_of(addr_a))
            .expect("tiny lock table must collide");
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.write(addr_a, 1).unwrap();
        tx.write(addr_b, 2).unwrap();
        assert_eq!(tx.read(addr_b).unwrap(), 2);
        tx.commit().unwrap();
        assert_eq!(f.mem.load(addr_a), 1);
        assert_eq!(f.mem.load(addr_b), 2);
    }
}
