//! The STM instance and per-thread retry loops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dude_txapi::{CommitInfo, TxAbort, TxId, TxResult, TxnOutcome};

use crate::clock::GlobalClock;
use crate::counts::{PerThreadCounts, ThreadCounts};
use crate::locks::{LockTable, StmConfig};
use crate::memory::WordMemory;
use crate::snapshot::Buffers;
use crate::wb::WriteBackTx;
use crate::wt::StmTx;
use crate::TxHooks;

/// One transaction object as the retry loop drives it, attempt after
/// attempt: implemented by [`StmTx`] and [`WriteBackTx`], whose loops differ
/// only in the commit step.
pub(crate) trait Attempt {
    /// The hooks the transaction reports to.
    type Hooks: TxHooks;

    /// Begins the next attempt on a fresh snapshot, reusing the buffers.
    fn restart(&mut self);

    /// `true` if this attempt has written anything.
    fn is_update(&self) -> bool;

    /// Undoes this attempt's effects and releases its stripes.
    fn rollback(&mut self);

    /// The commit timestamp a failed commit consumed, if any.
    fn take_wasted(&mut self) -> Option<TxId>;

    /// The hooks, for the commit and abort callbacks.
    fn hooks(&mut self) -> &mut Self::Hooks;
}

/// The kinds of [`StmStats`]' per-thread commit counts.
const UPDATE: usize = 0;
const READ_ONLY: usize = 1;

/// Aggregate STM statistics (relaxed counters).
#[derive(Debug, Default)]
pub struct StmStats {
    /// Update and read-only commits, counted per thread.
    commits: PerThreadCounts<2>,
    conflicts: AtomicU64,
    user_aborts: AtomicU64,
    wasted_tids: AtomicU64,
}

/// Point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StmStatsSnapshot {
    /// Committed update transactions.
    pub commits: u64,
    /// Committed read-only transactions.
    pub read_only_commits: u64,
    /// Conflict-induced aborts (each triggers a retry).
    pub conflicts: u64,
    /// Application aborts (`dtmAbort`).
    pub user_aborts: u64,
    /// Commit timestamps consumed by failed commits.
    pub wasted_tids: u64,
}

impl StmStats {
    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> StmStatsSnapshot {
        let commits = self.commits.sum();
        StmStatsSnapshot {
            commits: commits[UPDATE],
            read_only_commits: commits[READ_ONLY],
            conflicts: self.conflicts.load(Ordering::Relaxed),
            user_aborts: self.user_aborts.load(Ordering::Relaxed),
            wasted_tids: self.wasted_tids.load(Ordering::Relaxed),
        }
    }
}

/// A TinySTM-class software transactional memory instance.
///
/// See the [crate docs](crate) for an overview and example.
#[derive(Debug)]
pub struct Stm {
    clock: GlobalClock,
    locks: LockTable,
    config: StmConfig,
    next_owner: AtomicU64,
    stats: StmStats,
}

impl Stm {
    /// Creates an STM instance with the given configuration.
    pub fn new(config: StmConfig) -> Self {
        Self::with_initial_clock(config, 0)
    }

    /// Creates an STM whose commit timestamps continue from `start` (used
    /// after recovery so transaction IDs stay globally unique).
    pub fn with_initial_clock(config: StmConfig, start: u64) -> Self {
        Stm {
            clock: GlobalClock::starting_at(start),
            locks: LockTable::new(config.lock_table_bits),
            config,
            next_owner: AtomicU64::new(1),
            stats: StmStats::default(),
        }
    }

    /// Registers the calling thread, returning its transaction executor.
    pub fn register(&self) -> StmThread<'_> {
        StmThread {
            stm: self,
            owner: self.next_owner.fetch_add(1, Ordering::Relaxed),
            bufs: Buffers::default(),
            commits: self.stats.commits.join(),
        }
    }

    /// The global version clock (DudeTM reads it for durable-ID queries).
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StmStatsSnapshot {
        self.stats.snapshot()
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> StmConfig {
        self.config
    }
}

/// Per-thread transaction executor.
#[derive(Debug)]
pub struct StmThread<'s> {
    stm: &'s Stm,
    owner: u64,
    /// The read set, held stripes and write log, reused by each transaction.
    bufs: Buffers,
    commits: Arc<ThreadCounts<2>>,
}

impl Drop for StmThread<'_> {
    fn drop(&mut self) {
        self.stm.stats.commits.leave(&self.commits);
    }
}

impl<'s> StmThread<'s> {
    /// This thread's unique owner ID in the lock table.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Runs `body` as a **write-through** transaction (DudeTM's mode),
    /// retrying on conflicts until it commits or user-aborts.
    ///
    /// Hook invocation order per attempt: `on_write` per successful write;
    /// then exactly one of `on_commit(tid)` or `on_abort(wasted)`.
    pub fn run<M, H, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        body: impl FnMut(&mut StmTx<'_, M, H>) -> TxResult<R>,
    ) -> TxnOutcome<R>
    where
        M: WordMemory + ?Sized,
        H: TxHooks,
    {
        let stm = self.stm;
        let mut tx = StmTx::begin(
            &stm.clock,
            &stm.locks,
            mem,
            hooks,
            self.owner,
            &mut self.bufs,
        );
        let outcome = self.retry(&mut tx, body, StmTx::commit);
        tx.end(&mut self.bufs);
        outcome
    }

    /// Runs `body` as a **write-back** transaction (Mnemosyne's mode).
    ///
    /// `pre_publish` runs once per *successful* commit, after the commit is
    /// certain but before buffered writes reach memory — the point where a
    /// redo-logging durable system persists its log.
    pub fn run_wb<M, H, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        mut pre_publish: impl FnMut(&[(u64, u64)], TxId),
        body: impl FnMut(&mut WriteBackTx<'_, M, H>) -> TxResult<R>,
    ) -> TxnOutcome<R>
    where
        M: WordMemory + ?Sized,
        H: TxHooks,
    {
        let stm = self.stm;
        let mut tx = WriteBackTx::begin(
            &stm.clock,
            &stm.locks,
            mem,
            hooks,
            self.owner,
            &mut self.bufs,
        );
        let outcome = self.retry(&mut tx, body, |tx| tx.commit_with(&mut pre_publish));
        tx.end(&mut self.bufs);
        outcome
    }

    /// The retry loop both modes share: run `body` on `tx`, commit with
    /// `commit`, and on a conflict roll back, back off and restart.
    fn retry<T: Attempt, R>(
        &mut self,
        tx: &mut T,
        mut body: impl FnMut(&mut T) -> TxResult<R>,
        mut commit: impl FnMut(&mut T) -> TxResult<Option<TxId>>,
    ) -> TxnOutcome<R> {
        let mut retries = 0u32;
        loop {
            let result = body(tx).and_then(|value| {
                let read_only = !tx.is_update();
                commit(tx).map(|tid| (value, tid, read_only))
            });
            match result {
                Ok((value, tid, read_only)) => {
                    tx.hooks().on_commit(tid);
                    self.commits
                        .count(if read_only { READ_ONLY } else { UPDATE });
                    return TxnOutcome::Committed {
                        value,
                        info: CommitInfo { tid, retries },
                    };
                }
                Err(abort) => {
                    let wasted = tx.take_wasted();
                    tx.rollback();
                    tx.hooks().on_abort(wasted);
                    if abort == TxAbort::User {
                        self.stm.stats.user_aborts.fetch_add(1, Ordering::Relaxed);
                        return TxnOutcome::Aborted;
                    }
                    self.count_conflict(wasted.is_some());
                    retries += 1;
                    backoff(retries, self.stm.config.spin_retries);
                    tx.restart();
                }
            }
        }
    }

    fn count_conflict(&self, wasted: bool) {
        self.stm.stats.conflicts.fetch_add(1, Ordering::Relaxed);
        if wasted {
            self.stm.stats.wasted_tids.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Conflict backoff before retry `attempt`: a bounded exponential spin for
/// the first `spin_retries` attempts, then a yield — the conflicting
/// transaction needs the CPU to finish on few-core hosts (real RTM software
/// uses the same pattern in its abort handler).
pub fn backoff(attempt: u32, spin_retries: u32) {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        // Under the virtual scheduler the conflicting transaction only
        // runs if this task parks — spinning would monopolize the
        // token. Both backoff branches therefore park as event
        // waiters (lock words are raw atomics, so the wake comes
        // from the poll interval, not a lock-release event).
        dude_sim::block(dude_sim::YieldKind::Backoff);
        return;
    }
    if attempt <= spin_retries {
        for _ in 0..(1u32 << attempt.min(10)) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHooks, VecMemory};
    use std::sync::Arc;

    #[test]
    fn counter_increments_concurrently_conserve_count() {
        let stm = Arc::new(Stm::new(StmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(64));
        let threads = 4;
        let per_thread = 500;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let stm = Arc::clone(&stm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for _ in 0..per_thread {
                    t.run(&*mem, &mut NoHooks, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    })
                    .expect_committed();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.load(0), threads * per_thread);
        let stats = stm.stats();
        assert_eq!(stats.commits, threads * per_thread);
        assert_eq!(stats.read_only_commits, 0);
    }

    #[test]
    fn bank_transfers_conserve_total() {
        let stm = Arc::new(Stm::new(StmConfig::default()));
        let mem = Arc::new(VecMemory::new(8 * 64));
        // 64 accounts, 100 units each.
        for i in 0..64 {
            mem.store(i * 8, 100);
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let stm = Arc::clone(&stm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut th = stm.register();
                let mut seed = t + 1;
                for _ in 0..1000 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 33) % 64;
                    let b = (seed >> 13) % 64;
                    if a == b {
                        continue;
                    }
                    th.run(&*mem, &mut NoHooks, |tx| {
                        let va = tx.read(a * 8)?;
                        if va == 0 {
                            return Err(TxAbort::User);
                        }
                        tx.write(a * 8, va - 1)?;
                        let vb = tx.read(b * 8)?;
                        tx.write(b * 8, vb + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..64).map(|i| mem.load(i * 8)).sum();
        assert_eq!(total, 64 * 100);
    }

    #[test]
    fn user_abort_rolls_back_and_returns_aborted() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(0, 99)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!(mem.load(0), 0);
        assert_eq!(stm.stats().user_aborts, 1);
    }

    #[test]
    fn hooks_observe_writes_and_commit() {
        #[derive(Default)]
        struct Rec {
            writes: Vec<(u64, u64)>,
            committed: Option<Option<TxId>>,
        }
        impl TxHooks for Rec {
            fn on_write(&mut self, addr: u64, val: u64) {
                self.writes.push((addr, val));
            }
            fn on_commit(&mut self, tid: Option<TxId>) {
                self.committed = Some(tid);
            }
        }
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut rec = Rec::default();
        t.run(&mem, &mut rec, |tx| {
            tx.write(0, 1)?;
            tx.write(8, 2)
        })
        .expect_committed();
        assert_eq!(rec.writes, vec![(0, 1), (8, 2)]);
        assert_eq!(rec.committed, Some(Some(1)));
    }

    #[test]
    fn hooks_observe_abort_of_user_aborted_tx() {
        #[derive(Default)]
        struct Rec {
            aborts: u32,
        }
        impl TxHooks for Rec {
            fn on_abort(&mut self, _wasted: Option<TxId>) {
                self.aborts += 1;
            }
        }
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut rec = Rec::default();
        let out = t.run(&mem, &mut rec, |tx| {
            tx.write(0, 1)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!(rec.aborts, 1);
    }

    #[test]
    fn write_back_counter_concurrent() {
        let stm = Arc::new(Stm::new(StmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for _ in 0..300 {
                    t.run_wb(
                        &*mem,
                        &mut NoHooks,
                        |_, _| {},
                        |tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        },
                    )
                    .expect_committed();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.load(0), 4 * 300);
        assert_eq!(stm.stats().commits, 4 * 300);
    }

    #[test]
    fn tids_are_unique_and_dense_across_modes() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut tids = Vec::new();
        for i in 0..5u64 {
            let out = t.run(&mem, &mut NoHooks, |tx| tx.write(8, i));
            tids.push(out.info().unwrap().tid.unwrap());
        }
        for i in 0..5u64 {
            let out = t.run_wb(&mem, &mut NoHooks, |_, _| {}, |tx| tx.write(16, i));
            tids.push(out.info().unwrap().tid.unwrap());
        }
        assert_eq!(tids, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn read_only_txn_reports_no_tid() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| tx.read(0));
        assert_eq!(out.info().unwrap().tid, None);
        assert_eq!(stm.stats().read_only_commits, 1);
    }

    /// The retry loop reuses one transaction object across attempts, so a
    /// retry must start from an empty read set: attempt 2 never reads A,
    /// and a stale entry for A would fail its commit validation forever.
    #[test]
    fn retry_starts_from_an_empty_read_set() {
        use crate::locks::{try_lock, versioned};
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(1024);
        let locks = &stm.locks;
        // Four words on four distinct stripes.
        let mut words: Vec<u64> = Vec::new();
        for addr in (0..1024).step_by(8) {
            if words
                .iter()
                .all(|&w| locks.stripe_of(w) != locks.stripe_of(addr))
            {
                words.push(addr);
            }
        }
        let (a, b, c, d) = (words[0], words[1], words[2], words[3]);
        let mut t = stm.register();
        let mut peer = stm.register();
        let mut attempts = 0;
        let out = t.run(&mem, &mut NoHooks, |tx| {
            attempts += 1;
            match attempts {
                1 => {
                    tx.read(a)?;
                    // A peer holds C's stripe: the attempt conflicts on it.
                    let c_lock = locks.word(locks.stripe_of(c));
                    assert!(try_lock(c_lock, versioned(0), peer.owner()));
                    let conflict = tx.read(c);
                    c_lock.store(versioned(0), Ordering::Release);
                    // The peer then commits to A, which attempt 1 read.
                    peer.run(&mem, &mut NoHooks, |p| p.write(a, 1))
                        .expect_committed();
                    conflict.map(drop)
                }
                2 => {
                    // One more peer commit moves the clock past `rv + 1`, so
                    // this commit validates the read set.
                    peer.run(&mem, &mut NoHooks, |p| p.write(d, 1))
                        .expect_committed();
                    tx.write(b, 2)
                }
                // A stale read set conflicts on every attempt; stop here
                // instead of livelocking.
                _ => Err(TxAbort::User),
            }
        });
        assert_eq!(out.info().map(|i| i.retries), Some(1));
        assert_eq!(mem.load(b), 2);
    }

    /// Commit counts are per thread: a snapshot sums the live threads'
    /// counts while they commit, and a dropped thread's counts stay summed.
    #[test]
    fn commit_counts_are_exact_while_threads_run_and_after_they_leave() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let per_thread = 400u64;
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let (stm, mem) = (&stm, &mem);
                s.spawn(move || {
                    let mut th = stm.register();
                    for i in 0..per_thread {
                        if i % 4 == 0 {
                            th.run(mem, &mut NoHooks, |tx| tx.read(8 * t))
                                .expect_committed();
                        } else {
                            th.run(mem, &mut NoHooks, |tx| {
                                let v = tx.read(0)?;
                                tx.write(0, v + 1)
                            })
                            .expect_committed();
                        }
                    }
                });
            }
            // Snapshots taken while the threads commit and leave never
            // exceed the totals.
            for _ in 0..50 {
                let seen = stm.stats();
                assert!(seen.commits <= 3 * per_thread * 3 / 4);
                assert!(seen.read_only_commits <= 3 * per_thread / 4);
                std::thread::yield_now();
            }
        });
        let stats = stm.stats();
        assert_eq!(stats.commits, 3 * per_thread * 3 / 4);
        assert_eq!(stats.read_only_commits, 3 * per_thread / 4);
        assert_eq!(mem.load(0), stats.commits);
        // A live thread's counts join the retired ones.
        let mut t = stm.register();
        t.run(&mem, &mut NoHooks, |tx| tx.write(8, 1))
            .expect_committed();
        assert_eq!(stm.stats().commits, stats.commits + 1);
        drop(t);
        assert_eq!(stm.stats().commits, stats.commits + 1);
    }

    /// Under the default table, words one table of words apart share a
    /// stripe: a transaction that writes both holds the stripe once and
    /// commits.
    #[test]
    fn aliased_words_share_a_stripe_and_commit_together() {
        let stm = Stm::new(StmConfig::default());
        let alias = 8u64 << stm.config().lock_table_bits;
        let mem = VecMemory::new(alias + 64);
        let (a, b) = (16, 16 + alias);
        assert_eq!(stm.locks.stripe_of(a), stm.locks.stripe_of(b));
        let mut t = stm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(a, 1)?;
            let seen = tx.read(b)?;
            tx.write(b, seen + 2)?;
            Ok(tx.read(a)? + tx.read(b)?)
        });
        assert_eq!(out.info().map(|i| (i.tid, i.retries)), Some((Some(1), 0)));
        assert_eq!(out.expect_committed(), 3);
        assert_eq!((mem.load(a), mem.load(b)), (1, 2));
    }

    /// Two threads whose words differ but alias conflict on the shared
    /// stripe; both still finish with exact counts.
    #[test]
    fn threads_conflicting_only_through_an_alias_both_finish() {
        let stm = Stm::new(StmConfig::default());
        let alias = 8u64 << stm.config().lock_table_bits;
        let mem = VecMemory::new(alias + 64);
        let per_thread = 500;
        std::thread::scope(|s| {
            for addr in [24, 24 + alias] {
                let (stm, mem) = (&stm, &mem);
                s.spawn(move || {
                    let mut t = stm.register();
                    for _ in 0..per_thread {
                        t.run(mem, &mut NoHooks, |tx| {
                            let v = tx.read(addr)?;
                            tx.write(addr, v + 1)
                        })
                        .expect_committed();
                    }
                });
            }
        });
        assert_eq!(
            (mem.load(24), mem.load(24 + alias)),
            (per_thread, per_thread)
        );
        assert_eq!(stm.stats().commits, 2 * per_thread);
    }

    /// A thread's buffers carry their capacity, never their contents, into
    /// its next transaction: a read-only transaction right after a
    /// 1 000-write one takes no TID, in both modes.
    #[test]
    fn read_only_after_a_large_update_takes_no_tid() {
        let stm = Stm::new(StmConfig::default());
        let mem = VecMemory::new(8 * 1000);
        let mut t = stm.register();
        let big = t.run(&mem, &mut NoHooks, |tx| {
            (0..1000).try_for_each(|i| tx.write(i * 8, i + 1))
        });
        assert_eq!(big.info().and_then(|i| i.tid), Some(1));
        let out = t.run(&mem, &mut NoHooks, |tx| tx.read(8));
        assert_eq!(out.info().map(|i| i.tid), Some(None));
        let big_wb = t.run_wb(
            &mem,
            &mut NoHooks,
            |_, _| {},
            |tx| (0..1000).try_for_each(|i| tx.write(i * 8, i + 2)),
        );
        assert_eq!(big_wb.info().and_then(|i| i.tid), Some(2));
        let mut published = 0;
        let out = t.run_wb(&mem, &mut NoHooks, |_, _| published += 1, |tx| tx.read(8));
        assert_eq!(out.info().map(|i| i.tid), Some(None));
        assert_eq!(published, 0, "a read-only commit publishes nothing");
        assert_eq!(stm.clock().now(), 2);
        let stats = stm.stats();
        assert_eq!((stats.commits, stats.read_only_commits), (2, 2));
    }

    /// An ended transaction's undo entries and read set never reach the
    /// next one: a kept undo entry would make the next rollback restore a
    /// word a peer has since committed, and a kept read would fail the next
    /// commit's validation once a peer commits to the word it names.
    #[test]
    fn an_ended_transaction_leaves_nothing_to_the_next() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut peer = stm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(0, 1)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        t.run(&mem, &mut NoHooks, |tx| tx.write(8, 7))
            .expect_committed();
        peer.run(&mem, &mut NoHooks, |tx| {
            tx.write(0, 9)?;
            tx.write(8, 10)
        })
        .expect_committed();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(16, 3)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!((mem.load(0), mem.load(8), mem.load(16)), (9, 10, 0));
        t.run(&mem, &mut NoHooks, |tx| tx.read(24))
            .expect_committed();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(32, 1)?;
            // Moves the clock past `rv + 1`, so this commit validates.
            peer.run(&mem, &mut NoHooks, |p| p.write(24, 1))
                .expect_committed();
            Ok(())
        });
        assert_eq!(out.info().map(|i| i.retries), Some(0));
    }
}
