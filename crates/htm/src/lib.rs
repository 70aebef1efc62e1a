//! An emulated restricted hardware transactional memory (RTM-like).
//!
//! §4.2 of the paper shows DudeTM running on Intel RTM with one minor
//! hardware change: the HTM must *ignore conflicts on the transaction-ID
//! counter*, because incrementing a shared counter inside a stock HTM
//! transaction aborts every concurrent transaction. The paper evaluates this
//! by generating IDs with atomic operations outside conflict tracking
//! (§5.7); this emulator does exactly the same thing.
//!
//! The emulation models the properties of RTM that matter for Table 4:
//!
//! * **cache-line-granularity conflict detection** (64-byte lines), eager
//!   ("requester loses": touching a line a peer has locked aborts you);
//! * **bounded capacity** — a transaction whose write set exceeds the
//!   configured line budget takes a *capacity abort* and goes straight to
//!   the fallback path, which is why the paper cannot run TPC-C on Haswell
//!   RTM (footnote 7);
//! * **global-lock fallback** after `max_retries` conflict aborts, with
//!   lock subscription so speculative transactions abort when the fallback
//!   is taken;
//! * **no per-access bookkeeping beyond the line sets** — the reason HTM
//!   beats STM by up to 1.7× in Table 4.
//!
//! The line table is a [`dude_stm::LockTable`] in the STM's lock-word
//! encoding, read sets are validated by the STM's one rule
//! ([`dude_stm::reads_valid`]) and aborts back off through
//! [`dude_stm::backoff`]; the fallback-lock and capacity policy is this
//! crate's own.
//!
//! # Example
//!
//! ```
//! use dude_htm::{Htm, HtmConfig};
//! use dude_stm::{NoHooks, VecMemory, WordMemory};
//!
//! let htm = Htm::new(HtmConfig::default());
//! let mem = VecMemory::new(1024);
//! let mut thread = htm.register();
//! thread.run(&mem, &mut NoHooks, |tx| {
//!     let v = tx.read(0)?;
//!     tx.write(0, v + 1)
//! });
//! assert_eq!(mem.load(0), 1);
//! ```

#![deny(unsafe_code)]

use std::collections::HashMap;
use std::mem::take;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dude_stm::{
    backoff, is_locked, owner_of, reads_valid, try_lock, version_of, versioned, GlobalClock,
    LockTable, PerThreadCounts, ThreadCounts, TmAccess, TxHooks, WordMemory,
};
use dude_txapi::{CommitInfo, TxAbort, TxId, TxResult, TxnOutcome};
use parking_lot::RwLock;

/// Bytes per cache line (RTM conflict-detection granularity).
pub const LINE_BYTES: u64 = 64;

/// Configuration of the emulated HTM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// log2 of the line-ownership table size.
    pub line_table_bits: u32,
    /// Maximum distinct cache lines a transaction may write (L1-like write
    /// capacity; Haswell's is ~512 lines of L1D).
    pub max_write_lines: usize,
    /// Maximum distinct cache lines a transaction may read.
    pub max_read_lines: usize,
    /// Conflict aborts tolerated before falling back to the global lock
    /// (the paper uses five, §5.7).
    pub max_retries: u32,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            line_table_bits: 18,
            max_write_lines: 512,
            max_read_lines: 4096,
            max_retries: 5,
        }
    }
}

impl HtmConfig {
    /// A tiny configuration for tests (forces capacity aborts early).
    pub fn tiny() -> Self {
        HtmConfig {
            line_table_bits: 6,
            max_write_lines: 4,
            max_read_lines: 16,
            max_retries: 2,
        }
    }
}

/// Aggregate HTM statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HtmStatsSnapshot {
    /// Transactions committed speculatively (the HTM fast path).
    pub htm_commits: u64,
    /// Conflict aborts.
    pub conflicts: u64,
    /// Capacity aborts (write or read set exceeded the line budget).
    pub capacity_aborts: u64,
    /// Transactions committed under the global-lock fallback.
    pub fallback_commits: u64,
}

#[derive(Debug, Default)]
struct HtmStats {
    /// Speculative commits, counted per thread.
    htm_commits: PerThreadCounts<1>,
    conflicts: AtomicU64,
    capacity_aborts: AtomicU64,
    fallback_commits: AtomicU64,
}

/// The emulated HTM instance.
#[derive(Debug)]
pub struct Htm {
    clock: GlobalClock,
    /// Line-ownership words, encoded like the STM's versioned locks.
    lines: LockTable,
    /// Fallback lock word: generation counter, odd = held. Speculative
    /// transactions subscribe to it and abort when it changes.
    fallback: AtomicU64,
    /// Commit gate: speculative publishes take it shared; the fallback path
    /// takes it exclusive so it never races an in-flight publish.
    commit_gate: RwLock<()>,
    config: HtmConfig,
    stats: HtmStats,
    next_owner: AtomicU64,
}

impl Htm {
    /// Creates an emulated HTM with the given configuration.
    pub fn new(config: HtmConfig) -> Self {
        Self::with_initial_clock(config, 0)
    }

    /// Creates an HTM whose commit timestamps continue from `start` (used
    /// after recovery so transaction IDs stay globally unique).
    pub fn with_initial_clock(config: HtmConfig, start: u64) -> Self {
        Htm {
            clock: GlobalClock::starting_at(start),
            lines: LockTable::new(config.line_table_bits),
            fallback: AtomicU64::new(0),
            commit_gate: RwLock::new(()),
            config,
            stats: HtmStats::default(),
            next_owner: AtomicU64::new(1),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> HtmThread<'_> {
        HtmThread {
            htm: self,
            owner: self.next_owner.fetch_add(1, Ordering::Relaxed),
            bufs: Buffers::default(),
            commits: self.stats.htm_commits.join(),
        }
    }

    /// The global version clock (commit timestamps = DudeTM transaction IDs).
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Line-table index of `addr`'s cache line: the line number, masked to
    /// the table. The lock table's one map takes a word's byte address, so
    /// it is handed an address whose word number is the line's.
    fn line_of(&self, addr: u64) -> usize {
        self.lines.stripe_of(addr / LINE_BYTES * 8)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HtmStatsSnapshot {
        HtmStatsSnapshot {
            htm_commits: self.stats.htm_commits.sum()[0],
            conflicts: self.stats.conflicts.load(Ordering::Relaxed),
            capacity_aborts: self.stats.capacity_aborts.load(Ordering::Relaxed),
            fallback_commits: self.stats.fallback_commits.load(Ordering::Relaxed),
        }
    }
}

/// Why a speculative attempt aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortKind {
    Conflict,
    Capacity,
}

/// Abort retries that spin before [`backoff`] starts yielding.
const SPIN_RETRIES: u32 = 3;

/// Releases the processor while waiting on the fallback-lock word (a raw
/// atomic): parks on the virtual scheduler under sim, yields natively
/// otherwise.
fn fallback_wait() {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        dude_sim::block(dude_sim::YieldKind::Backoff);
        return;
    }
    std::thread::yield_now();
}

/// The sets a transaction fills, kept by its [`HtmThread`] between
/// attempts: an attempt takes them when it begins and gives them back
/// cleared when it ends, so the next one starts empty with the capacity the
/// last one grew them to.
#[derive(Debug, Default)]
struct Buffers {
    writes: HashMap<u64, u64>,
    written_lines: Vec<(usize, u64)>,
    read_lines: Vec<(usize, u64)>,
    undo: Vec<(u64, u64)>,
}

/// Per-thread HTM executor.
#[derive(Debug)]
pub struct HtmThread<'h> {
    htm: &'h Htm,
    owner: u64,
    bufs: Buffers,
    commits: Arc<ThreadCounts<1>>,
}

impl Drop for HtmThread<'_> {
    fn drop(&mut self) {
        self.htm.stats.htm_commits.leave(&self.commits);
    }
}

impl<'h> HtmThread<'h> {
    /// Runs `body` as a hardware transaction, retrying on conflicts and
    /// falling back to the global lock after repeated conflicts or a
    /// capacity abort — the paper's five-retries-then-lock policy (§5.7).
    pub fn run<M, H, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        mut body: impl FnMut(&mut HtmTx<'_, M, H>) -> TxResult<R>,
    ) -> TxnOutcome<R>
    where
        M: WordMemory + ?Sized,
        H: TxHooks,
    {
        let mut retries = 0u32;
        loop {
            // Subscribe to the fallback lock: wait while it is held.
            let fb = self.htm.fallback.load(Ordering::Acquire);
            if fb & 1 == 1 {
                fallback_wait();
                continue;
            }
            let mut tx = HtmTx::begin(self.htm, mem, hooks, self.owner, fb, &mut self.bufs);
            // `Ok` on a commit; the abort kind to retry on, or `None` on a
            // user abort.
            let attempt = match body(&mut tx) {
                Ok(value) => match tx.commit() {
                    Ok(tid) => {
                        tx.hooks.on_commit(tid);
                        Ok((value, tid))
                    }
                    Err(kind) => {
                        let wasted = tx.wasted.take();
                        tx.rollback();
                        tx.hooks.on_abort(wasted);
                        Err(Some(kind))
                    }
                },
                Err(TxAbort::User) => {
                    tx.rollback();
                    tx.hooks.on_abort(None);
                    Err(None)
                }
                Err(TxAbort::Conflict) => {
                    let kind = tx.abort_kind.take().unwrap_or(AbortKind::Conflict);
                    tx.rollback();
                    tx.hooks.on_abort(None);
                    Err(Some(kind))
                }
            };
            tx.end(&mut self.bufs);
            match attempt {
                Ok((value, tid)) => {
                    self.commits.count(0);
                    return TxnOutcome::Committed {
                        value,
                        info: CommitInfo { tid, retries },
                    };
                }
                Err(None) => return TxnOutcome::Aborted,
                Err(Some(kind)) => {
                    retries += 1;
                    if self.note_abort(kind, retries) {
                        return self.run_fallback(mem, hooks, &mut body, retries);
                    }
                    backoff(retries, SPIN_RETRIES);
                }
            }
        }
    }

    /// Records an abort; returns `true` if the fallback path should run.
    fn note_abort(&self, kind: AbortKind, retries: u32) -> bool {
        match kind {
            AbortKind::Capacity => {
                self.htm
                    .stats
                    .capacity_aborts
                    .fetch_add(1, Ordering::Relaxed);
                true // capacity aborts never succeed by retrying
            }
            AbortKind::Conflict => {
                self.htm.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                retries > self.htm.config.max_retries
            }
        }
    }

    /// The non-speculative global-lock path.
    fn run_fallback<M, H, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        body: &mut impl FnMut(&mut HtmTx<'_, M, H>) -> TxResult<R>,
        retries: u32,
    ) -> TxnOutcome<R>
    where
        M: WordMemory + ?Sized,
        H: TxHooks,
    {
        // Acquire the fallback lock (generation counter goes odd).
        loop {
            let fb = self.htm.fallback.load(Ordering::Acquire);
            if fb & 1 == 0
                && self
                    .htm
                    .fallback
                    .compare_exchange(fb, fb + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            fallback_wait();
        }
        // Exclude in-flight speculative publishes, then run alone.
        let gate = self.htm.commit_gate.write();
        let mut tx = HtmTx::begin(self.htm, mem, hooks, self.owner, 0, &mut self.bufs);
        tx.fallback = true;
        let result = body(&mut tx);
        let outcome = match result {
            Ok(value) => {
                let tid = tx.commit_fallback();
                tx.hooks.on_commit(tid);
                self.htm
                    .stats
                    .fallback_commits
                    .fetch_add(1, Ordering::Relaxed);
                TxnOutcome::Committed {
                    value,
                    info: CommitInfo { tid, retries },
                }
            }
            Err(_) => {
                // Only user aborts reach here (fallback cannot conflict).
                tx.rollback();
                tx.hooks.on_abort(None);
                TxnOutcome::Aborted
            }
        };
        tx.end(&mut self.bufs);
        drop(gate);
        // Release (generation goes even again).
        self.htm.fallback.fetch_add(1, Ordering::AcqRel);
        outcome
    }
}

/// An in-flight emulated hardware transaction.
#[derive(Debug)]
pub struct HtmTx<'t, M: WordMemory + ?Sized, H: TxHooks> {
    htm: &'t Htm,
    mem: &'t M,
    hooks: &'t mut H,
    owner: u64,
    /// Fallback-lock generation observed at begin (subscription).
    fallback_snapshot: u64,
    /// Speculative write buffer (addr → value), L1-modified-line stand-in.
    writes: HashMap<u64, u64>,
    /// Distinct lines written, with the previous ownership word.
    written_lines: Vec<(usize, u64)>,
    /// Distinct lines read, with the version observed.
    read_lines: Vec<(usize, u64)>,
    /// Running under the fallback lock: writes go in place.
    fallback: bool,
    /// Undo list for the fallback path (in-place writes).
    undo: Vec<(u64, u64)>,
    abort_kind: Option<AbortKind>,
    wasted: Option<TxId>,
}

impl<'t, M: WordMemory + ?Sized, H: TxHooks> HtmTx<'t, M, H> {
    /// Begins an attempt that subscribed to fallback generation `fb`, over
    /// the sets of `bufs`; [`HtmTx::end`] gives them back.
    fn begin(
        htm: &'t Htm,
        mem: &'t M,
        hooks: &'t mut H,
        owner: u64,
        fb: u64,
        bufs: &mut Buffers,
    ) -> Self {
        HtmTx {
            htm,
            mem,
            hooks,
            owner,
            fallback_snapshot: fb,
            writes: take(&mut bufs.writes),
            written_lines: take(&mut bufs.written_lines),
            read_lines: take(&mut bufs.read_lines),
            fallback: false,
            undo: take(&mut bufs.undo),
            abort_kind: None,
            wasted: None,
        }
    }

    /// Ends the attempt, committed or rolled back, returning its sets to
    /// `bufs` cleared. Every line it locked has been released.
    fn end(mut self, bufs: &mut Buffers) {
        debug_assert!(self.written_lines.is_empty(), "end with lines held");
        self.writes.clear();
        self.read_lines.clear();
        self.undo.clear();
        bufs.writes = self.writes;
        bufs.written_lines = self.written_lines;
        bufs.read_lines = self.read_lines;
        bufs.undo = self.undo;
    }

    fn conflict(&mut self, kind: AbortKind) -> TxAbort {
        self.abort_kind = Some(kind);
        TxAbort::Conflict
    }

    fn check_fallback(&mut self) -> TxResult<()> {
        if self.htm.fallback.load(Ordering::Acquire) != self.fallback_snapshot {
            return Err(self.conflict(AbortKind::Conflict));
        }
        Ok(())
    }

    /// Transactionally reads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] on a line conflict, capacity overflow, or
    /// fallback-lock acquisition by a peer.
    pub fn read(&mut self, addr: u64) -> TxResult<u64> {
        if self.fallback {
            return Ok(self.mem.load(addr));
        }
        self.check_fallback()?;
        if let Some(&v) = self.writes.get(&addr) {
            return Ok(v);
        }
        let idx = self.htm.line_of(addr);
        let w = self.htm.lines.word(idx).load(Ordering::Acquire);
        if is_locked(w) {
            if owner_of(w) != self.owner {
                return Err(self.conflict(AbortKind::Conflict));
            }
            return Ok(self.mem.load(addr));
        }
        if !self.read_lines.iter().any(|&(i, _)| i == idx) {
            if self.read_lines.len() >= self.htm.config.max_read_lines {
                return Err(self.conflict(AbortKind::Capacity));
            }
            self.read_lines.push((idx, version_of(w)));
        }
        Ok(self.mem.load(addr))
    }

    /// Transactionally writes `val` to byte address `addr` (buffered until
    /// commit, like a speculatively modified cache line).
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] on a line conflict, capacity overflow, or
    /// fallback-lock acquisition by a peer.
    pub fn write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        if self.fallback {
            self.undo.push((addr, self.mem.load(addr)));
            self.mem.store(addr, val);
            self.hooks.on_write(addr, val);
            return Ok(());
        }
        self.check_fallback()?;
        let idx = self.htm.line_of(addr);
        let slot = self.htm.lines.word(idx);
        let w = slot.load(Ordering::Acquire);
        if is_locked(w) {
            if owner_of(w) != self.owner {
                return Err(self.conflict(AbortKind::Conflict));
            }
        } else {
            if self.written_lines.len() >= self.htm.config.max_write_lines {
                return Err(self.conflict(AbortKind::Capacity));
            }
            if !try_lock(slot, w, self.owner) {
                return Err(self.conflict(AbortKind::Conflict));
            }
            self.written_lines.push((idx, w));
        }
        self.writes.insert(addr, val);
        self.hooks.on_write(addr, val);
        Ok(())
    }

    fn validate_reads(&self) -> Result<(), AbortKind> {
        if reads_valid(
            &self.htm.lines,
            self.owner,
            &self.read_lines,
            &self.written_lines,
        ) {
            Ok(())
        } else {
            Err(AbortKind::Conflict)
        }
    }

    fn commit(&mut self) -> Result<Option<TxId>, AbortKind> {
        if self.writes.is_empty() {
            // Read-only: the snapshot must still be intact.
            self.validate_reads()?;
            if self.htm.fallback.load(Ordering::Acquire) != self.fallback_snapshot {
                return Err(AbortKind::Conflict);
            }
            return Ok(None);
        }
        let gate = self.htm.commit_gate.read();
        if self.htm.fallback.load(Ordering::Acquire) != self.fallback_snapshot {
            return Err(AbortKind::Conflict);
        }
        // The ID counter lives outside conflict detection — the paper's
        // proposed hardware change (§4.2), emulated per §5.7.
        let tid = self.htm.clock.tick();
        if let Err(k) = self.validate_reads() {
            self.wasted = Some(tid);
            return Err(k);
        }
        for (&addr, &val) in &self.writes {
            self.mem.store(addr, val);
        }
        for (idx, _) in self.written_lines.drain(..) {
            self.htm
                .lines
                .word(idx)
                .store(versioned(tid), Ordering::Release);
        }
        drop(gate);
        self.writes.clear();
        Ok(Some(tid))
    }

    fn commit_fallback(&mut self) -> Option<TxId> {
        if self.undo.is_empty() {
            return None;
        }
        Some(self.htm.clock.tick())
    }

    fn rollback(&mut self) {
        if self.fallback {
            for (addr, old) in self.undo.drain(..).rev() {
                self.mem.store(addr, old);
            }
            return;
        }
        self.writes.clear();
        for (idx, prev) in self.written_lines.drain(..) {
            self.htm.lines.word(idx).store(prev, Ordering::Release);
        }
    }
}

impl<M: WordMemory + ?Sized, H: TxHooks> TmAccess for HtmTx<'_, M, H> {
    fn tm_read(&mut self, addr: u64) -> TxResult<u64> {
        self.read(addr)
    }

    fn tm_write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        self.write(addr, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dude_stm::{NoHooks, VecMemory};
    use std::sync::Arc;

    #[test]
    fn single_thread_read_write_commit() {
        let htm = Htm::new(HtmConfig::default());
        let mem = VecMemory::new(1024);
        let mut t = htm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 5)?;
            tx.read(0)
        });
        assert_eq!(out.expect_committed(), 5);
        assert_eq!(mem.load(0), 5);
        assert_eq!(htm.stats().htm_commits, 1);
    }

    #[test]
    fn writes_buffered_until_commit() {
        let htm = Htm::new(HtmConfig::default());
        let mem = VecMemory::new(1024);
        let mut t = htm.register();
        t.run(&mem, &mut NoHooks, |tx| {
            tx.write(0, 9)?;
            assert_eq!(mem.load(0), 0, "speculative write must stay buffered");
            Ok(())
        })
        .expect_committed();
        assert_eq!(mem.load(0), 9);
    }

    #[test]
    fn capacity_abort_falls_back_and_commits() {
        let htm = Htm::new(HtmConfig::tiny()); // 4-line write budget
        let mem = VecMemory::new(1 << 16);
        let mut t = htm.register();
        // Write 32 widely spread words → exceeds 4 lines → fallback.
        let out = t.run(&mem, &mut NoHooks, |tx| {
            for i in 0..32u64 {
                tx.write(i * 512, i)?;
            }
            Ok(())
        });
        assert!(out.is_committed());
        for i in 0..32u64 {
            assert_eq!(mem.load(i * 512), i);
        }
        let s = htm.stats();
        assert_eq!(s.capacity_aborts, 1);
        assert_eq!(s.fallback_commits, 1);
        assert_eq!(s.htm_commits, 0);
    }

    #[test]
    fn user_abort_rolls_back_speculation() {
        let htm = Htm::new(HtmConfig::default());
        let mem = VecMemory::new(1024);
        let mut t = htm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(0, 1)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!(mem.load(0), 0);
    }

    #[test]
    fn user_abort_in_fallback_rolls_back_in_place() {
        let htm = Htm::new(HtmConfig::tiny());
        let mem = VecMemory::new(1 << 16);
        let mut t = htm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            for i in 0..32u64 {
                tx.write(i * 512, 7)?; // forces fallback via capacity
            }
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        for i in 0..32u64 {
            assert_eq!(mem.load(i * 512), 0);
        }
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let mem = Arc::new(VecMemory::new(1024));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let htm = Arc::clone(&htm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut t = htm.register();
                for _ in 0..500 {
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
        assert_eq!(mem.load(0), 2000);
    }

    #[test]
    fn tids_unique_and_dense() {
        let htm = Htm::new(HtmConfig::default());
        let mem = VecMemory::new(1024);
        let mut t = htm.register();
        let mut tids = Vec::new();
        for i in 0..10u64 {
            let out = t.run(&mem, &mut NoHooks, |tx| tx.write(0, i));
            tids.push(out.info().unwrap().tid.unwrap());
        }
        assert_eq!(tids, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn read_only_commit_has_no_tid() {
        let htm = Htm::new(HtmConfig::default());
        let mem = VecMemory::new(1024);
        let mut t = htm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| tx.read(0));
        assert_eq!(out.info().unwrap().tid, None);
    }

    #[test]
    fn line_conflict_between_threads_is_resolved() {
        // Two threads hammering words on the same cache line must still
        // produce an exact sum.
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let mem = Arc::new(VecMemory::new(1024));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let htm = Arc::clone(&htm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut th = htm.register();
                for _ in 0..500 {
                    th.run(&*mem, &mut NoHooks, |tx| {
                        let addr = t * 8; // same 64-byte line
                        let v = tx.read(addr)?;
                        tx.write(addr, v + 1)
                    })
                    .expect_committed();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.load(0) + mem.load(8), 1000);
    }

    #[test]
    fn hooks_fire_on_speculative_and_fallback_paths() {
        #[derive(Default)]
        struct Rec {
            writes: usize,
            commits: usize,
            aborts: usize,
        }
        impl TxHooks for Rec {
            fn on_write(&mut self, _a: u64, _v: u64) {
                self.writes += 1;
            }
            fn on_commit(&mut self, _t: Option<TxId>) {
                self.commits += 1;
            }
            fn on_abort(&mut self, _w: Option<TxId>) {
                self.aborts += 1;
            }
        }
        let htm = Htm::new(HtmConfig::tiny());
        let mem = VecMemory::new(1 << 16);
        let mut t = htm.register();
        let mut rec = Rec::default();
        // Capacity abort → one abort + fallback commit; writes observed on
        // both attempts.
        t.run(&mem, &mut rec, |tx| {
            for i in 0..8u64 {
                tx.write(i * 512, i)?;
            }
            Ok(())
        })
        .expect_committed();
        assert_eq!(rec.commits, 1);
        assert_eq!(rec.aborts, 1);
        assert!(rec.writes >= 8, "writes on the fallback attempt observed");
    }

    #[test]
    fn fallback_blocks_speculative_commits() {
        // While one thread holds the fallback lock inside a long
        // transaction, a speculative thread's increments must wait/abort and
        // the final count stays exact.
        let htm = Arc::new(Htm::new(HtmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(1 << 16));
        let h1 = {
            let htm = Arc::clone(&htm);
            let mem = Arc::clone(&mem);
            std::thread::spawn(move || {
                let mut t = htm.register();
                // Capacity-overflowing body → runs in fallback.
                t.run(&*mem, &mut NoHooks, |tx| {
                    for i in 0..16u64 {
                        tx.write(4096 + i * 512, 1)?;
                    }
                    let v = tx.read(0)?;
                    tx.write(0, v + 100)
                })
                .expect_committed();
            })
        };
        let h2 = {
            let htm = Arc::clone(&htm);
            let mem = Arc::clone(&mem);
            std::thread::spawn(move || {
                let mut t = htm.register();
                for _ in 0..100 {
                    t.run(&*mem, &mut NoHooks, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    })
                    .expect_committed();
                }
            })
        };
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(mem.load(0), 200);
    }

    /// Speculative commit counts are per thread: a snapshot sums the live
    /// threads' counts while they commit, and a dropped thread's counts
    /// stay summed.
    #[test]
    fn commit_counts_are_exact_while_threads_run_and_after_they_leave() {
        let htm = Htm::new(HtmConfig::default());
        let mem = VecMemory::new(1024);
        let per_thread = 400u64;
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let (htm, mem) = (&htm, &mem);
                s.spawn(move || {
                    let mut th = htm.register();
                    for _ in 0..per_thread {
                        th.run(mem, &mut NoHooks, |tx| {
                            let v = tx.read(64 * t)?;
                            tx.write(64 * t, v + 1)
                        })
                        .expect_committed();
                    }
                });
            }
            for _ in 0..50 {
                let seen = htm.stats();
                assert!(seen.htm_commits + seen.fallback_commits <= 3 * per_thread);
                std::thread::yield_now();
            }
        });
        let stats = htm.stats();
        assert_eq!(stats.htm_commits + stats.fallback_commits, 3 * per_thread);
        assert_eq!(mem.load(0) + mem.load(64) + mem.load(128), 3 * per_thread);
        let mut t = htm.register();
        t.run(&mem, &mut NoHooks, |tx| tx.write(8, 1))
            .expect_committed();
        assert_eq!(htm.stats().htm_commits, stats.htm_commits + 1);
        drop(t);
        assert_eq!(htm.stats().htm_commits, stats.htm_commits + 1);
    }

    /// A thread's sets carry their capacity, never their contents, into
    /// its next attempt: after a speculative user abort and a fallback
    /// rollback, the next transaction neither sees a buffered write, nor
    /// validates a stale read (which would retry it), nor restores an
    /// undone word.
    #[test]
    fn an_ended_transaction_leaves_nothing_to_the_next() {
        let htm = Htm::new(HtmConfig::tiny());
        let mem = VecMemory::new(1 << 16);
        let mut t = htm.register();
        let mut peer = htm.register();
        // A user abort after a buffered write and a read.
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.read(128)?;
            tx.write(0, 1)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert!(t.bufs.writes.is_empty() && t.bufs.read_lines.is_empty());
        assert!(t.bufs.writes.capacity() > 0, "the capacity is kept");
        // The peer commits to the line read: the next transaction's reads
        // are its own.
        peer.run(&mem, &mut NoHooks, |tx| tx.write(128, 5))
            .expect_committed();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            assert_eq!(tx.read(0)?, 0, "no write buffered by the aborted one");
            tx.write(8, 7)
        });
        assert_eq!(out.info().map(|i| i.retries), Some(0));
        // A fallback attempt that rolls back in place leaves no undo entry:
        // the peer's later commit to word 4096 is not restored.
        let out = t.run(&mem, &mut NoHooks, |tx| {
            for i in 0..8u64 {
                tx.write(4096 + i * 512, 9)?; // over the 4-line budget
            }
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert!(t.bufs.undo.is_empty());
        peer.run(&mem, &mut NoHooks, |tx| tx.write(4096, 3))
            .expect_committed();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            for i in 0..8u64 {
                tx.write(8192 + i * 512, 1)?;
            }
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!(mem.load(4096), 3);
        assert_eq!(mem.load(8), 7);
        assert!(t.bufs.written_lines.is_empty());
    }

    /// The line table is the lock table's one map at line granularity:
    /// every word of a line shares an entry, consecutive lines take
    /// consecutive entries, and lines one table apart alias.
    #[test]
    fn consecutive_lines_take_consecutive_entries() {
        let htm = Htm::new(HtmConfig::default());
        let entries = htm.lines.len() as u64;
        for line in (0..64).chain(entries - 32..entries + 32) {
            let addr = line * LINE_BYTES;
            let idx = htm.line_of(addr);
            assert_eq!(idx as u64, line % entries);
            assert_eq!(htm.line_of(addr + LINE_BYTES - 8), idx);
            assert_eq!(htm.line_of(addr + LINE_BYTES), (idx + 1) % entries as usize);
        }
    }

    /// The one read-set rule, over an STM stripe table and this HTM's line
    /// table: a read stays valid while its word holds the version read, or
    /// while the reader holds it and held that version when it locked it.
    #[test]
    fn reads_valid_is_one_rule_over_stripes_and_lines() {
        use dude_stm::{locked_by, StmConfig};
        let stripes = LockTable::new(StmConfig::tiny().lock_table_bits);
        let htm = Htm::new(HtmConfig::tiny());
        let (me, peer) = (3, 4);
        for (locks, index) in [
            (&stripes, stripes.stripe_of(64)),
            (&htm.lines, htm.line_of(64)),
        ] {
            let word = locks.word(index);
            let reads = [(index, 5)];
            let case = |w: u64, prior: u64| {
                word.store(w, Ordering::Release);
                reads_valid(locks, me, &reads, &[(index, versioned(prior))])
            };
            assert!(case(versioned(5), 5), "unlocked at the version read");
            assert!(!case(versioned(6), 5), "unlocked at a newer version");
            assert!(case(locked_by(me), 5), "held by self, prior version read");
            assert!(!case(locked_by(me), 6), "held by self, newer prior");
            assert!(!case(locked_by(peer), 5), "held by another owner");
        }
    }
}
