//! Write-back transactions (commit-time locking + redo buffer).
//!
//! This is TinySTM's write-back access scheme — the one Mnemosyne uses
//! (§5.2.2). Writes are buffered in a per-transaction write set; **reads
//! must first look the address up in that buffer**, which is precisely the
//! update-redirection / address-mapping overhead the paper's decoupled
//! design eliminates (§2.2). At commit, all written stripes are locked, the
//! read set is validated, and the buffered values are published.
//!
//! [`WriteBackTx::commit_with`] exposes a pre-publish hook: the
//! Mnemosyne-like baseline persists its NVM redo log there, after the
//! transaction is certain to commit but before any in-place update becomes
//! visible.

use std::collections::HashMap;
use std::mem::take;
use std::sync::atomic::Ordering;

use dude_txapi::{TxAbort, TxId, TxResult};

use crate::clock::GlobalClock;
use crate::locks::{is_locked, version_of, LockTable};
use crate::memory::WordMemory;
use crate::snapshot::{Buffers, Snapshot};
use crate::thread::Attempt;
use crate::TxHooks;

/// An in-flight write-back transaction.
#[derive(Debug)]
pub struct WriteBackTx<'t, M: WordMemory + ?Sized, H: TxHooks> {
    snap: Snapshot<'t>,
    mem: &'t M,
    hooks: &'t mut H,
    /// Buffered writes in program order (duplicates allowed; later wins).
    writes: Vec<(u64, u64)>,
    /// Address → index of latest buffered write (the mapping table whose
    /// lookup cost redo logging pays on every read).
    write_index: HashMap<u64, usize>,
    /// The written stripes a commit locks, sorted and distinct.
    stripes: Vec<usize>,
}

impl<'t, M: WordMemory + ?Sized, H: TxHooks> WriteBackTx<'t, M, H> {
    /// Begins a transaction over the buffers of `bufs`;
    /// [`WriteBackTx::end`] gives them back.
    pub(crate) fn begin(
        clock: &'t GlobalClock,
        locks: &'t LockTable,
        mem: &'t M,
        hooks: &'t mut H,
        owner: u64,
        bufs: &mut Buffers,
    ) -> Self {
        WriteBackTx {
            snap: Snapshot::begin(clock, locks, owner, bufs),
            mem,
            hooks,
            writes: take(&mut bufs.writes),
            write_index: take(&mut bufs.write_index),
            stripes: take(&mut bufs.stripes),
        }
    }

    /// Ends the transaction, committed or rolled back, returning its
    /// buffers to `bufs` cleared.
    pub(crate) fn end(mut self, bufs: &mut Buffers) {
        self.writes.clear();
        self.write_index.clear();
        self.stripes.clear();
        bufs.writes = self.writes;
        bufs.write_index = self.write_index;
        bufs.stripes = self.stripes;
        self.snap.end(bufs);
    }

    /// Transactionally reads the word at `addr`, redirecting to the write
    /// buffer if this transaction already wrote the address.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] on lock contention or a failed extension.
    pub fn read(&mut self, addr: u64) -> TxResult<u64> {
        if let Some(&idx) = self.write_index.get(&addr) {
            return Ok(self.writes[idx].1);
        }
        // Write-back holds no stripe while executing, so any lock the read
        // meets belongs to a committing peer.
        self.snap.read(self.mem, addr)
    }

    /// Buffers a transactional write of `val` to `addr`.
    ///
    /// # Errors
    ///
    /// Never fails during execution (conflicts surface at commit), but keeps
    /// the fallible signature so workloads are mode-agnostic.
    pub fn write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        let idx = self.writes.len();
        self.writes.push((addr, val));
        self.write_index.insert(addr, idx);
        self.hooks.on_write(addr, val);
        Ok(())
    }

    /// `true` if this transaction has buffered writes.
    pub fn is_update(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Snapshot timestamp.
    pub fn snapshot(&self) -> u64 {
        self.snap.rv
    }

    /// Commits, invoking `pre_publish(write_set, tid)` after the commit is
    /// certain but before buffered values are stored — where a redo-logging
    /// durable system persists its log.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if stripe locking or validation fails.
    pub(crate) fn commit_with(
        &mut self,
        pre_publish: impl FnOnce(&[(u64, u64)], TxId),
    ) -> Result<Option<TxId>, TxAbort> {
        if self.writes.is_empty() {
            return Ok(None);
        }
        // Lock every written stripe (deduplicated); try-lock + abort avoids
        // deadlock without imposing a global order.
        let locks = self.snap.locks;
        self.stripes.clear();
        let stripes = self.writes.iter().map(|&(addr, _)| locks.stripe_of(addr));
        self.stripes.extend(stripes);
        self.stripes.sort_unstable();
        self.stripes.dedup();
        for &stripe in &self.stripes {
            let l = self.snap.locks.word(stripe).load(Ordering::Acquire);
            if is_locked(l) || version_of(l) > self.snap.rv || !self.snap.hold(stripe, l) {
                self.snap.release(None);
                return Err(TxAbort::Conflict);
            }
        }
        let wv = match self.snap.stamp() {
            Ok(wv) => wv,
            Err(e) => {
                self.snap.release(None);
                return Err(e);
            }
        };
        pre_publish(&self.writes, wv);
        for &(addr, val) in &self.writes {
            self.mem.store(addr, val);
        }
        self.snap.release(Some(wv));
        Ok(Some(wv))
    }
}

impl<M: WordMemory + ?Sized, H: TxHooks> Attempt for WriteBackTx<'_, M, H> {
    type Hooks = H;

    fn restart(&mut self) {
        self.snap.restart();
    }

    fn is_update(&self) -> bool {
        WriteBackTx::is_update(self)
    }

    fn rollback(&mut self) {
        self.snap.release(None);
        self.writes.clear();
        self.write_index.clear();
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
    use crate::locks::try_lock;
    use crate::{NoHooks, StmConfig, VecMemory};

    struct Fixture {
        clock: GlobalClock,
        locks: LockTable,
        mem: VecMemory,
    }

    fn fixture() -> Fixture {
        Fixture {
            clock: GlobalClock::new(),
            locks: LockTable::new(StmConfig::tiny().lock_table_bits),
            mem: VecMemory::new(1024),
        }
    }

    impl Fixture {
        fn begin<'f>(
            &'f self,
            hooks: &'f mut NoHooks,
            owner: u64,
        ) -> WriteBackTx<'f, VecMemory, NoHooks> {
            WriteBackTx::begin(
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
    fn writes_invisible_until_commit() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.write(0, 5).unwrap();
        assert_eq!(f.mem.load(0), 0, "write-back must not touch memory");
        assert_eq!(tx.read(0).unwrap(), 5, "read must redirect to write set");
        let tid = tx.commit_with(|_, _| {}).unwrap();
        assert_eq!(tid, Some(1));
        assert_eq!(f.mem.load(0), 5);
    }

    #[test]
    fn pre_publish_sees_write_set_before_memory_changes() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.write(0, 5).unwrap();
        tx.write(8, 6).unwrap();
        let mut observed = Vec::new();
        tx.commit_with(|ws, tid| {
            assert_eq!(tid, 1);
            assert_eq!(f.mem.load(0), 0, "hook must run before publish");
            observed = ws.to_vec();
        })
        .unwrap();
        assert_eq!(observed, vec![(0, 5), (8, 6)]);
    }

    /// The stripes a commit locks are collected into the thread's buffer:
    /// the ended transaction gives it back empty, with the capacity the
    /// commit grew it to, and the next transaction starts from it.
    #[test]
    fn a_commit_leaves_the_stripe_buffer_empty_with_its_capacity() {
        let f = fixture();
        let mut bufs = Buffers::default();
        let mut h = NoHooks;
        let mut tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1, &mut bufs);
        for i in 0..16 {
            tx.write(i * 8, i).unwrap();
        }
        tx.write(0, 16).unwrap();
        tx.commit_with(|_, _| {}).unwrap();
        let distinct = f.locks.len().min(16);
        assert_eq!(tx.stripes.len(), distinct, "sorted and distinct");
        let capacity = tx.stripes.capacity();
        tx.end(&mut bufs);
        assert!(bufs.stripes.is_empty());
        assert_eq!(bufs.stripes.capacity(), capacity);
        let tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1, &mut bufs);
        assert!(tx.stripes.is_empty());
        assert_eq!(tx.stripes.capacity(), capacity);
        assert_eq!(f.mem.load(0), 16);
    }

    #[test]
    fn rollback_discards_buffer() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.write(0, 5).unwrap();
        tx.rollback();
        assert_eq!(f.mem.load(0), 0);
    }

    #[test]
    fn duplicate_writes_last_wins() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.write(0, 1).unwrap();
        tx.write(0, 2).unwrap();
        assert_eq!(tx.read(0).unwrap(), 2);
        tx.commit_with(|_, _| {}).unwrap();
        assert_eq!(f.mem.load(0), 2);
    }

    #[test]
    fn stale_read_aborts_at_commit() {
        let f = fixture();
        let mut h1 = NoHooks;
        let mut t1 = f.begin(&mut h1, 1);
        assert_eq!(t1.read(0).unwrap(), 0);
        t1.write(8, 1).unwrap();
        // Interfering committed write to the read location.
        let mut h2 = NoHooks;
        let mut t2 = f.begin(&mut h2, 2);
        t2.write(0, 9).unwrap();
        t2.commit_with(|_, _| {}).unwrap();
        let r = t1.commit_with(|_, _| panic!("must not publish"));
        assert_eq!(r, Err(TxAbort::Conflict));
        t1.rollback();
        assert_eq!(f.mem.load(8), 0);
    }

    #[test]
    fn read_only_tx_commits_without_tid() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = f.begin(&mut h, 1);
        tx.read(0).unwrap();
        assert_eq!(tx.commit_with(|_, _| {}).unwrap(), None);
    }

    #[test]
    fn locked_stripe_blocks_concurrent_committer() {
        let f = fixture();
        // t1 locks stripe of addr 0 by entering commit… we emulate by
        // directly locking the stripe, then ensure t2 conflicts.
        let stripe = f.locks.stripe_of(0);
        assert!(try_lock(f.locks.word(stripe), 0, 7));
        let mut h = NoHooks;
        let mut t2 = f.begin(&mut h, 2);
        assert_eq!(t2.read(0), Err(TxAbort::Conflict));
        t2.rollback();
        let mut t3 = f.begin(&mut h, 3);
        t3.write(0, 4).unwrap();
        assert_eq!(t3.commit_with(|_, _| {}), Err(TxAbort::Conflict));
        t3.rollback();
    }
}
