//! `dude-check`: commit-order history recording and the
//! durable-linearizability oracle.
//!
//! Single-threaded crash sweeps can precompute the committed sequence and
//! compare recovered state against it. With concurrent Perform threads the
//! sequence is decided at run time — by the order commit timestamps are
//! drawn from the global clock — so checking *durable linearizability*
//! ("the recovered heap equals the replay of a contiguous TID-prefix of
//! the committed history", Izraelevitz et al.'s durable linearizability
//! specialized to DudeTM's total commit order) requires recording that
//! history as it happens.
//!
//! [`CommitHistory`] is that recorder: a lock-free append ring attached to
//! a running [`crate::DudeTm`] via [`crate::DudeTm::attach_history`]. Each
//! committed (or TID-wasting aborted) transaction claims a slot with one
//! `fetch_add` and publishes `{tid, timestamp, write set}` into it; the
//! timestamp comes from [`dude_nvm::monotonic_ns`], the same clock the
//! metrics frames are stamped with, so history entries and frames can be
//! correlated. Entries are appended in per-thread hook order, which
//! across threads is *not* TID order — the commit hook runs after the
//! committing transaction releases its write locks — so every entry
//! carries the TID drawn at assignment time and [`CommitHistory::entries`]
//! restores the global commit order by sorting. Recording costs the
//! pipeline one branch when detached and one `fetch_add` plus a `Vec`
//! clone when attached; production configurations simply never attach.
//!
//! [`check_prefix`] is the oracle: given the recorded history and the
//! recovered `last_tid`, it verifies that the history is *dense* over
//! `1..=last_tid` (every drawn TID is accounted for, as a commit or an
//! abort marker) and that every heap word any transaction ever wrote holds
//! exactly the value produced by replaying commits `1..=last_tid` — words
//! written only by transactions beyond the prefix must still hold their
//! prefix value, which catches future-leak bugs (a torn write from a
//! discarded suffix) as well as lost or misordered writes inside the
//! prefix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One recorded transaction: a commit with its write set, or an abort
/// marker for a wasted TID (empty write set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The global transaction ID drawn at commit time.
    pub tid: u64,
    /// Recording timestamp from [`dude_nvm::monotonic_ns`] — the metrics
    /// frames' clock, so history and frames share a timeline.
    pub ts_ns: u64,
    /// `true` for an abort marker (TID drawn, validation failed).
    pub aborted: bool,
    /// The committed write set, `(heap byte offset, value)` in program
    /// order; empty for abort markers.
    pub writes: Vec<(u64, u64)>,
}

/// A lock-free, fixed-capacity append ring of [`HistoryEntry`] values.
///
/// Writers claim a slot index with a single `fetch_add` and publish the
/// entry with a per-slot [`OnceLock`] store; slots are never contended
/// (each index is claimed by exactly one writer), so publication never
/// blocks. Appends past capacity are counted in [`CommitHistory::dropped`]
/// rather than wrapping — the checker needs the *complete* history, so a
/// sweep sizes the ring generously and treats any drop as a test error.
///
/// Readers ([`CommitHistory::entries`]) must run at quiescence (after the
/// recording threads have been joined); a slot claimed but not yet
/// published is skipped and surfaces as a density violation downstream.
#[derive(Debug)]
pub struct CommitHistory {
    slots: Box<[OnceLock<HistoryEntry>]>,
    next: AtomicU64,
    dropped: AtomicU64,
}

impl CommitHistory {
    /// Creates a ring with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, OnceLock::new);
        CommitHistory {
            slots: slots.into_boxed_slice(),
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one transaction. Called by the runtime's commit/abort hooks;
    /// safe from any number of threads concurrently.
    pub fn record(&self, tid: u64, aborted: bool, writes: &[(u64, u64)]) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(idx as usize) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let set = slot.set(HistoryEntry {
            tid,
            ts_ns: dude_nvm::monotonic_ns(),
            aborted,
            writes: writes.to_vec(),
        });
        debug_assert!(set.is_ok(), "history slot {idx} claimed twice");
    }

    /// Number of entries recorded (excluding drops).
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Acquire) as usize).min(self.slots.len())
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends that found the ring full and were discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Snapshots the recorded history in global commit (TID) order. Call at
    /// quiescence only; in-flight appends may be missed.
    pub fn entries(&self) -> Vec<HistoryEntry> {
        let mut out: Vec<HistoryEntry> = self
            .slots
            .iter()
            .take(self.len())
            .filter_map(|s| s.get().cloned())
            .collect();
        out.sort_by_key(|e| e.tid);
        out
    }
}

/// A durable-linearizability violation found by [`check_prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearizabilityError {
    /// The history ring overflowed during the run; the oracle cannot judge
    /// an incomplete history.
    HistoryIncomplete {
        /// Entries lost to ring overflow.
        dropped: u64,
    },
    /// Two history entries claim the same TID — the global clock handed
    /// out a duplicate, or a hook fired twice.
    DuplicateTid {
        /// The doubly-claimed TID.
        tid: u64,
    },
    /// A TID inside the recovered prefix has no history entry: the clock
    /// drew it but neither a commit nor an abort marker was recorded, so
    /// the "recovered prefix" contains a transaction that never happened.
    MissingTid {
        /// The unaccounted TID.
        tid: u64,
        /// The recovered prefix bound it falls inside.
        last_tid: u64,
    },
    /// A heap word differs from the prefix replay.
    HeapMismatch {
        /// Heap byte offset of the divergent word.
        addr: u64,
        /// Value the prefix replay produces.
        expected: u64,
        /// Value actually recovered.
        found: u64,
        /// The recovered prefix bound.
        last_tid: u64,
        /// TID of the last in-prefix writer of this word (0 if the word is
        /// only written beyond the prefix — a future leak).
        writer: u64,
    },
}

impl core::fmt::Display for LinearizabilityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinearizabilityError::HistoryIncomplete { dropped } => {
                write!(f, "history ring overflowed: {dropped} entries dropped")
            }
            LinearizabilityError::DuplicateTid { tid } => {
                write!(f, "history records tid {tid} twice")
            }
            LinearizabilityError::MissingTid { tid, last_tid } => write!(
                f,
                "tid {tid} inside recovered prefix 1..={last_tid} has no history entry"
            ),
            LinearizabilityError::HeapMismatch {
                addr,
                expected,
                found,
                last_tid,
                writer,
            } => write!(
                f,
                "heap word at offset {addr} is {found}, but replaying prefix \
                 1..={last_tid} gives {expected} (last in-prefix writer: tid {writer})"
            ),
        }
    }
}

impl std::error::Error for LinearizabilityError {}

/// What [`check_prefix`] verified, for sweep-level reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixReport {
    /// Commits replayed into the model (prefix commits).
    pub replayed_commits: u64,
    /// Abort markers inside the prefix.
    pub replayed_aborts: u64,
    /// Distinct heap words compared against the model.
    pub checked_words: u64,
}

/// The durable-linearizability oracle: verifies that the recovered heap
/// equals the replay of exactly the prefix `1..=last_tid` of the recorded
/// history.
///
/// `history` is the full recorded history (any order; typically
/// [`CommitHistory::entries`]), `dropped` is [`CommitHistory::dropped`],
/// and `read_word` reads a recovered heap word by byte offset (the same
/// offsets transactions write, i.e. relative to the heap region start).
///
/// Checks, in order:
/// 1. the history is complete (no ring overflow) and duplicate-free;
/// 2. every TID in `1..=last_tid` is accounted for (density — the prefix
///    cannot contain a transaction with no recorded fate);
/// 3. every word written by *any* recorded transaction — inside the prefix
///    or beyond it — holds the prefix-replay value. Unwritten words are
///    assumed zero-initialized (fresh device), so beyond-prefix writes
///    must have left no trace.
///
/// # Errors
///
/// The first [`LinearizabilityError`] found.
pub fn check_prefix(
    history: &[HistoryEntry],
    dropped: u64,
    last_tid: u64,
    read_word: impl Fn(u64) -> u64,
) -> Result<PrefixReport, LinearizabilityError> {
    if dropped > 0 {
        return Err(LinearizabilityError::HistoryIncomplete { dropped });
    }
    let mut by_tid: Vec<&HistoryEntry> = history.iter().collect();
    by_tid.sort_by_key(|e| e.tid);
    for pair in by_tid.windows(2) {
        if pair[0].tid == pair[1].tid {
            return Err(LinearizabilityError::DuplicateTid { tid: pair[0].tid });
        }
    }
    // Density over the prefix: walk the sorted TIDs alongside 1..=last_tid.
    let mut want = 1u64;
    for e in by_tid.iter().take_while(|e| e.tid <= last_tid) {
        if e.tid != want {
            return Err(LinearizabilityError::MissingTid {
                tid: want,
                last_tid,
            });
        }
        want += 1;
    }
    if want <= last_tid {
        return Err(LinearizabilityError::MissingTid {
            tid: want,
            last_tid,
        });
    }
    // Replay the prefix into a model: last in-prefix writer wins per word.
    let mut report = PrefixReport::default();
    let mut model: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
    let mut touched: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for e in &by_tid {
        for &(addr, val) in &e.writes {
            touched.insert(addr);
            if e.tid <= last_tid {
                model.insert(addr, (val, e.tid));
            }
        }
        if e.tid <= last_tid {
            if e.aborted {
                report.replayed_aborts += 1;
            } else {
                report.replayed_commits += 1;
            }
        }
    }
    for addr in touched {
        let (expected, writer) = model.get(&addr).copied().unwrap_or((0, 0));
        let found = read_word(addr);
        if found != expected {
            return Err(LinearizabilityError::HeapMismatch {
                addr,
                expected,
                found,
                last_tid,
                writer,
            });
        }
        report.checked_words += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn commit(tid: u64, writes: &[(u64, u64)]) -> HistoryEntry {
        HistoryEntry {
            tid,
            ts_ns: 0,
            aborted: false,
            writes: writes.to_vec(),
        }
    }

    fn abort(tid: u64) -> HistoryEntry {
        HistoryEntry {
            tid,
            ts_ns: 0,
            aborted: true,
            writes: Vec::new(),
        }
    }

    #[test]
    fn concurrent_records_land_in_tid_order() {
        let h = Arc::new(CommitHistory::new(4096));
        let base = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                let base = Arc::clone(&base);
                s.spawn(move || {
                    for _ in 0..256 {
                        let tid = base.fetch_add(1, Ordering::Relaxed) + 1;
                        h.record(tid, false, &[(8 * t, tid)]);
                    }
                });
            }
        });
        assert_eq!(h.len(), 1024);
        assert_eq!(h.dropped(), 0);
        let entries = h.entries();
        let tids: Vec<u64> = entries.iter().map(|e| e.tid).collect();
        assert_eq!(tids, (1..=1024).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_counts_drops_instead_of_wrapping() {
        let h = CommitHistory::new(2);
        h.record(1, false, &[]);
        h.record(2, false, &[]);
        h.record(3, false, &[]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.dropped(), 1);
        assert_eq!(
            check_prefix(&h.entries(), h.dropped(), 2, |_| 0),
            Err(LinearizabilityError::HistoryIncomplete { dropped: 1 })
        );
    }

    #[test]
    fn oracle_accepts_exact_prefix_replay() {
        let history = vec![
            commit(1, &[(0, 10), (8, 20)]),
            abort(2),
            commit(3, &[(0, 11)]),
            commit(4, &[(16, 40)]), // beyond the prefix
        ];
        let heap = |addr: u64| match addr {
            0 => 11,
            8 => 20,
            _ => 0,
        };
        let report = check_prefix(&history, 0, 3, heap).expect("valid prefix");
        assert_eq!(report.replayed_commits, 2);
        assert_eq!(report.replayed_aborts, 1);
        assert_eq!(report.checked_words, 3);
    }

    #[test]
    fn oracle_rejects_lost_prefix_write() {
        let history = vec![commit(1, &[(0, 10)])];
        assert_eq!(
            check_prefix(&history, 0, 1, |_| 0),
            Err(LinearizabilityError::HeapMismatch {
                addr: 0,
                expected: 10,
                found: 0,
                last_tid: 1,
                writer: 1,
            })
        );
    }

    #[test]
    fn oracle_rejects_future_leak() {
        // tid 2 is beyond the prefix; its write must not be visible.
        let history = vec![commit(1, &[(0, 10)]), commit(2, &[(8, 99)])];
        let heap = |addr: u64| match addr {
            0 => 10,
            8 => 99,
            _ => 0,
        };
        assert_eq!(
            check_prefix(&history, 0, 1, heap),
            Err(LinearizabilityError::HeapMismatch {
                addr: 8,
                expected: 0,
                found: 99,
                last_tid: 1,
                writer: 0,
            })
        );
    }

    #[test]
    fn oracle_rejects_tid_hole_in_prefix() {
        let history = vec![commit(1, &[]), commit(3, &[])];
        assert_eq!(
            check_prefix(&history, 0, 3, |_| 0),
            Err(LinearizabilityError::MissingTid {
                tid: 2,
                last_tid: 3
            })
        );
    }

    #[test]
    fn oracle_rejects_truncated_history() {
        // last_tid reaches past everything recorded.
        let history = vec![commit(1, &[])];
        assert_eq!(
            check_prefix(&history, 0, 2, |_| 0),
            Err(LinearizabilityError::MissingTid {
                tid: 2,
                last_tid: 2
            })
        );
    }
}
