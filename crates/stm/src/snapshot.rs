//! The snapshot both access modes share: read set, held stripes, and the
//! versioned read loop, extension and commit stamp over them.

use std::collections::HashMap;
use std::mem::take;
use std::sync::atomic::Ordering;

use dude_txapi::{TxAbort, TxId, TxResult};

use crate::clock::GlobalClock;
use crate::locks::{is_locked, owner_of, reads_valid, try_lock, version_of, versioned, LockTable};
use crate::memory::WordMemory;

/// The buffers a transaction fills, kept by its [`crate::StmThread`]
/// between transactions: a transaction takes the ones it uses when it
/// begins and gives them back cleared when it ends, so the next one starts
/// empty with the capacity the last one grew them to.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    reads: Vec<(usize, u64)>,
    held: Vec<(usize, u64)>,
    /// Write-through: the undo log. Write-back: the buffered writes.
    pub(crate) writes: Vec<(u64, u64)>,
    /// Write-back: address → index of its latest buffered write.
    pub(crate) write_index: HashMap<u64, usize>,
    /// Write-back: the stripes a commit locks.
    pub(crate) stripes: Vec<usize>,
}

/// One transaction's view of the lock table: the read version `rv`, the
/// stripes read (with the version seen) and held (with the lock word they
/// had before), and the commit timestamp a failed commit consumed.
#[derive(Debug)]
pub(crate) struct Snapshot<'t> {
    clock: &'t GlobalClock,
    pub(crate) locks: &'t LockTable,
    pub(crate) owner: u64,
    /// Snapshot timestamp (TL2/TinySTM "read version").
    pub(crate) rv: u64,
    /// `(stripe, version read)`.
    reads: Vec<(usize, u64)>,
    /// `(stripe, lock word before we acquired it)` — an unlocked word.
    pub(crate) held: Vec<(usize, u64)>,
    /// Commit timestamp consumed by a failed commit, if any.
    pub(crate) wasted: Option<TxId>,
}

impl<'t> Snapshot<'t> {
    /// Begins at the current clock, taking the read and held buffers of
    /// `bufs`.
    pub(crate) fn begin(
        clock: &'t GlobalClock,
        locks: &'t LockTable,
        owner: u64,
        bufs: &mut Buffers,
    ) -> Self {
        Snapshot {
            clock,
            locks,
            owner,
            rv: clock.now(),
            reads: take(&mut bufs.reads),
            held: take(&mut bufs.held),
            wasted: None,
        }
    }

    /// Ends the transaction, returning the read and held buffers to `bufs`
    /// cleared. Every stripe has been released.
    pub(crate) fn end(mut self, bufs: &mut Buffers) {
        debug_assert!(self.held.is_empty(), "end with stripes held");
        self.reads.clear();
        bufs.reads = self.reads;
        bufs.held = self.held;
    }

    /// Starts the next attempt at the current clock with an empty read set.
    /// The previous attempt has already released its stripes.
    pub(crate) fn restart(&mut self) {
        debug_assert!(self.held.is_empty(), "restart with stripes held");
        self.rv = self.clock.now();
        self.reads.clear();
    }

    /// The versioned read: a consistent `(lock, value, lock)` sample at a
    /// version no newer than `rv` (extending `rv` if needed), recorded in
    /// the read set. A stripe we hold reads in place.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if a peer holds the stripe, the sample keeps
    /// tearing, or the snapshot cannot be extended.
    pub(crate) fn read<M: WordMemory + ?Sized>(&mut self, mem: &M, addr: u64) -> TxResult<u64> {
        let stripe = self.locks.stripe_of(addr);
        let lockw = self.locks.word(stripe);
        let mut spins = 0u32;
        loop {
            let l1 = lockw.load(Ordering::Acquire);
            if is_locked(l1) {
                if owner_of(l1) == self.owner {
                    // In-place value written (or co-located) under my lock.
                    return Ok(mem.load(addr));
                }
                return Err(TxAbort::Conflict);
            }
            let val = mem.load(addr);
            let l2 = lockw.load(Ordering::Acquire);
            if l2 != l1 {
                spins += 1;
                if spins > 64 {
                    return Err(TxAbort::Conflict);
                }
                continue;
            }
            let ver = version_of(l1);
            if ver > self.rv {
                self.extend()?;
                continue;
            }
            self.reads.push((stripe, ver));
            return Ok(val);
        }
    }

    /// Advances `rv` to `clock.now()` after revalidating every read
    /// (TinySTM timestamp extension).
    pub(crate) fn extend(&mut self) -> TxResult<()> {
        let new_rv = self.clock.now();
        self.validate()?;
        self.rv = new_rv;
        Ok(())
    }

    fn validate(&self) -> TxResult<()> {
        if reads_valid(self.locks, self.owner, &self.reads, &self.held) {
            Ok(())
        } else {
            Err(TxAbort::Conflict)
        }
    }

    /// Locks `stripe`, expected at the unlocked word `unlocked`, and records
    /// it as held. `false` if the CAS lost.
    pub(crate) fn hold(&mut self, stripe: usize, unlocked: u64) -> bool {
        let won = try_lock(self.locks.word(stripe), unlocked, self.owner);
        if won {
            self.held.push((stripe, unlocked));
        }
        won
    }

    /// Draws the commit timestamp, validating the read set unless no other
    /// transaction committed since `rv`.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if validation fails; the timestamp is then
    /// consumed and kept as `wasted` (DudeTM fills the ID hole with an
    /// abort marker).
    pub(crate) fn stamp(&mut self) -> TxResult<TxId> {
        let wv = self.clock.tick();
        if wv != self.rv + 1 {
            if let Err(e) = self.validate() {
                self.wasted = Some(wv);
                return Err(e);
            }
        }
        Ok(wv)
    }

    /// Releases every held stripe: at version `commit` if given, else back
    /// to the word it had before we locked it.
    pub(crate) fn release(&mut self, commit: Option<TxId>) {
        for (stripe, prev) in self.held.drain(..) {
            let word = commit.map_or(prev, versioned);
            self.locks.word(stripe).store(word, Ordering::Release);
        }
    }
}
