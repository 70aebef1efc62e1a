//! The per-thread volatile redo log (§3.2, §3.4): one single-producer,
//! single-consumer word ring per Perform thread.
//!
//! A Perform thread appends each commit as `[tid, kind|len, addr, val, …]`
//! ([`RedoProducer::try_push`]) and publishes it with one `Release` store of
//! its record count: no lock, allocation, condvar or syscall per commit.
//! Its one consumer — the Persist worker that owns the ring, the grouped
//! input the Persist workers share, or under `Sync` the committing thread
//! itself — reads records
//! in place through its own cursor
//! ([`RedoCursor::try_pop`]). A popped record's slice ([`RedoSpan`]) belongs
//! to the Persist and Reproduce side until it is freed, and it is freed only
//! once the reproduced ID passes it (`Replay::advance` in
//! [`crate::pipeline`]): Reproduce applies straight from DRAM, and the free
//! *is* the §3.2 backpressure.
//!
//! Storage is a chain of segments. A record never straddles a segment end:
//! the producer writes a wrap marker (or fills the segment exactly) and moves
//! to a fresh segment — a retired one when one is big enough, else a new one
//! sized for the record — so a transaction of any size fits. The segment
//! left behind retires when the first record after it is freed: frees come
//! in ring order, so every record in it is free by then.
//!
//! `Async { buffer_txns: n }` caps a ring at `n` unfreed records; a producer
//! at the cap parks on the freed count ([`Watermark`]) until a quarter of
//! them are freed — one wake per park, however many records the freer
//! frees. `AsyncUnbounded` and `Sync` have no cap, so a push never blocks.
//! Under `--features sim` push, pop and park are `dude-sim` yield points.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::TryRecvError;
use parking_lot::Mutex;

use crate::config::DurabilityMode;
use crate::log::Combiner;
use crate::watermark::Watermark;

/// Word 0 of a wrap marker: no transaction ID is `u64::MAX`.
const WRAP: u64 = u64::MAX;
/// Record kinds, in the high half of word 1 (`kind << 32 | pairs`).
const KIND_COMMIT: u64 = 1;
const KIND_ABORT: u64 = 2;
/// Words in front of a record's write pairs: the TID and `kind|len`.
const HEAD: usize = 2;
/// Segment size bounds in words; `Async { buffer_txns: n }` sizes its
/// segments `2n` words between them, so a tiny buffer wraps every few
/// records and a large one every thousand.
const MIN_SEGMENT_WORDS: usize = 8;
const MAX_SEGMENT_WORDS: usize = 4096;

/// One stretch of ring storage, reused whole once every record in it is
/// freed.
///
/// Aligned so that in an `Arc<Segment>` the slice's pointer and length sit
/// on a line of their own, away from the reference counts: the producer
/// reads the slice on every push, while the consumer clones the `Arc` per
/// record and the freer drops it.
#[repr(align(128))]
#[derive(Debug)]
struct Segment {
    words: Box<[AtomicU64]>,
}

impl Segment {
    fn new(len: usize) -> Arc<Segment> {
        Arc::new(Segment {
            words: (0..len).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn len(&self) -> usize {
        self.words.len()
    }
}

/// What the producer publishes, on a cache line of its own: its record
/// count, which the consumer reads, and how many of those records were
/// commits and abort markers, which a stats snapshot sums.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Published {
    records: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// The state one Perform thread's ring shares between its producer, its
/// consumer and the freer. Exactly one [`RedoProducer`] and one
/// [`RedoCursor`] are made per ring (one per registered thread slot, one per
/// Persist input), which is what makes it single-producer,
/// single-consumer.
#[derive(Debug)]
pub(crate) struct RedoRing {
    /// Records published by the producer.
    published: Published,
    /// Records freed, in ring order: what a producer at the cap parks on.
    pub(crate) freed: Watermark,
    /// Set at shutdown, after the producer's last push.
    closed: AtomicBool,
    /// Most unfreed records the producer may hold (`u64::MAX`: no cap).
    cap: u64,
    segment_words: usize,
    segments: Mutex<Segments>,
}

/// Segment hand-offs, touched once per segment crossing.
#[derive(Debug, Default)]
struct Segments {
    /// Segments the producer moved to that the consumer has not reached,
    /// in ring order.
    ahead: VecDeque<Arc<Segment>>,
    /// Retired segments: every record in them was freed.
    pool: Vec<Arc<Segment>>,
}

impl RedoRing {
    /// An empty ring for `mode`: at most `buffer_txns` unfreed records
    /// under `Async`, no cap otherwise. Storage is allocated by the first
    /// push.
    ///
    /// # Panics
    ///
    /// Panics on `Async { buffer_txns: 0 }`.
    pub(crate) fn new(mode: DurabilityMode) -> RedoRing {
        let cap = match mode {
            DurabilityMode::Async { buffer_txns } => Some(buffer_txns),
            _ => None,
        };
        assert_ne!(cap, Some(0), "a redo ring needs room for one record");
        let segment_words = cap.map_or(MAX_SEGMENT_WORDS, |n| {
            n.saturating_mul(2)
                .min(MAX_SEGMENT_WORDS)
                .next_power_of_two()
                .max(MIN_SEGMENT_WORDS)
        });
        RedoRing {
            published: Published::default(),
            freed: Watermark::default(),
            closed: AtomicBool::new(false),
            cap: cap.map_or(u64::MAX, |n| n as u64),
            segment_words,
            segments: Mutex::new(Segments::default()),
        }
    }

    /// Commit records the producer has published.
    pub(crate) fn commits(&self) -> u64 {
        self.published.commits.load(Ordering::Relaxed)
    }

    /// Abort markers the producer has published.
    pub(crate) fn aborts(&self) -> u64 {
        self.published.aborts.load(Ordering::Relaxed)
    }

    /// Marks the ring closed: once drained, its cursor reads
    /// [`TryRecvError::Disconnected`]. Called at shutdown, after the
    /// producer's last push.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Frees `span`'s record, retiring the segment it left behind if any,
    /// and wakes a producer parked for this much space.
    ///
    /// # Panics
    ///
    /// Panics unless `span` is the oldest record not yet freed.
    pub(crate) fn free(&self, span: RedoSpan) {
        if let Some(seg) = span.retire {
            self.segments.lock().pool.push(seg);
        }
        let seq = self.freed.advance(span.seq + 1);
        assert_eq!(seq, span.seq, "redo records must be freed in ring order");
    }
}

/// A Perform thread's end of its ring.
#[derive(Debug)]
pub(crate) struct RedoProducer {
    ring: Arc<RedoRing>,
    seg: Option<Arc<Segment>>,
    /// Next free word in `seg`.
    off: usize,
    pushed: u64,
    /// Commit records among `pushed`; the rest are abort markers.
    commits: u64,
    /// The freed count last read: reloaded only when the cap looks reached.
    freed: u64,
    /// The TID of the last record pushed.
    newest: u64,
}

impl RedoProducer {
    pub(crate) fn new(ring: &Arc<RedoRing>) -> RedoProducer {
        RedoProducer {
            ring: Arc::clone(ring),
            seg: None,
            off: 0,
            pushed: 0,
            commits: 0,
            freed: 0,
            newest: 0,
        }
    }

    /// The TID of the last record pushed (0: none yet).
    pub(crate) fn newest(&self) -> u64 {
        self.newest
    }

    /// Appends the record for `tid` — its `writes`, or an abort marker —
    /// and publishes it; `false`, having written and counted nothing, when
    /// the ring already holds its cap of unfreed records.
    pub(crate) fn try_push(&mut self, tid: u64, abort: bool, writes: &[(u64, u64)]) -> bool {
        #[cfg(feature = "sim")]
        if dude_sim::on_sim_task() {
            dude_sim::yield_point(dude_sim::YieldKind::Chan);
        }
        if self.pushed - self.freed >= self.ring.cap {
            self.freed = self.ring.freed.get();
            if self.pushed - self.freed >= self.ring.cap {
                return false;
            }
        }
        let need = HEAD + 2 * writes.len();
        if self.seg.as_ref().is_none_or(|s| self.off + need > s.len()) {
            self.hop(need);
        }
        let seg = self.seg.as_deref().expect("a hop installs a segment");
        let words = &seg.words[self.off..self.off + need];
        let kind = if abort { KIND_ABORT } else { KIND_COMMIT };
        words[0].store(tid, Ordering::Relaxed);
        words[1].store(kind << 32 | writes.len() as u64, Ordering::Relaxed);
        for (pair, &(addr, val)) in words[HEAD..].chunks_exact(2).zip(writes) {
            pair[0].store(addr, Ordering::Relaxed);
            pair[1].store(val, Ordering::Relaxed);
        }
        self.off += need;
        self.pushed += 1;
        self.newest = tid;
        let counts = &self.ring.published;
        if abort {
            counts
                .aborts
                .store(self.pushed - self.commits, Ordering::Relaxed);
        } else {
            self.commits += 1;
            counts.commits.store(self.commits, Ordering::Relaxed);
        }
        counts.records.store(self.pushed, Ordering::Release);
        true
    }

    /// [`RedoProducer::try_push`], parking while the ring is at its cap
    /// until a quarter of the cap is free again (at least one record).
    pub(crate) fn push(&mut self, tid: u64, abort: bool, writes: &[(u64, u64)]) {
        while !self.try_push(tid, abort, writes) {
            let ring = &*self.ring;
            ring.freed
                .wait(self.pushed - ring.cap + (ring.cap / 4).max(1));
        }
    }

    /// Leaves the current segment — marking the wrap unless the segment is
    /// exactly full — for one with room for `need` words.
    fn hop(&mut self, need: usize) {
        if let Some(seg) = &self.seg {
            if self.off < seg.len() {
                seg.words[self.off].store(WRAP, Ordering::Relaxed);
            }
        }
        let mut segments = self.ring.segments.lock();
        let next = match segments.pool.iter().position(|s| s.len() >= need) {
            Some(i) => segments.pool.swap_remove(i),
            None => Segment::new(need.max(self.ring.segment_words)),
        };
        segments.ahead.push_back(Arc::clone(&next));
        self.seg = Some(next);
        self.off = 0;
    }
}

/// A consumer's read position in one ring.
#[derive(Debug)]
pub(crate) struct RedoCursor {
    ring: Arc<RedoRing>,
    /// The ring's index in `Shared::redo`, stamped on every span.
    idx: usize,
    seg: Option<Arc<Segment>>,
    off: usize,
    popped: u64,
    /// The published count last read: reloaded only once caught up.
    published: u64,
}

impl RedoCursor {
    pub(crate) fn new(idx: usize, ring: &Arc<RedoRing>) -> RedoCursor {
        RedoCursor {
            ring: Arc::clone(ring),
            idx,
            seg: None,
            off: 0,
            popped: 0,
            published: 0,
        }
    }

    /// The next record, read in place; [`TryRecvError::Empty`] when there
    /// is none yet, [`TryRecvError::Disconnected`] once the ring is closed
    /// and drained.
    pub(crate) fn try_pop(&mut self) -> Result<RedoRecord, TryRecvError> {
        #[cfg(feature = "sim")]
        if dude_sim::on_sim_task() {
            dude_sim::yield_point(dude_sim::YieldKind::Chan);
        }
        if self.popped == self.published {
            // `closed` first: it is set after the last publish.
            let closed = self.ring.closed.load(Ordering::Acquire);
            self.published = self.ring.published.records.load(Ordering::Acquire);
            if self.popped == self.published {
                return Err(if closed {
                    TryRecvError::Disconnected
                } else {
                    TryRecvError::Empty
                });
            }
        }
        let wrapped = self.seg.as_ref().is_none_or(|s| {
            self.off == s.len() || s.words[self.off].load(Ordering::Relaxed) == WRAP
        });
        let mut retire = None;
        if wrapped {
            let next = self.ring.segments.lock().ahead.pop_front();
            retire = std::mem::replace(&mut self.seg, next);
            self.off = 0;
        }
        let seg = self.seg.as_ref().expect("a published record has a segment");
        let tid = seg.words[self.off].load(Ordering::Relaxed);
        let kind_len = seg.words[self.off + 1].load(Ordering::Relaxed);
        let len = (kind_len & 0xFFFF_FFFF) as usize;
        let span = RedoSpan {
            ring: self.idx,
            seq: self.popped,
            seg: Arc::clone(seg),
            off: self.off + HEAD,
            len,
            retire,
        };
        self.off += HEAD + 2 * len;
        self.popped += 1;
        Ok(RedoRecord {
            tid,
            abort: kind_len >> 32 == KIND_ABORT,
            span,
        })
    }
}

/// A Persist unit's combined writes — empty for an abort marker — and the
/// records it holds until it is reproduced.
#[derive(Debug)]
pub(crate) enum Writes {
    /// One record, in place in its Perform thread's ring.
    Ring { span: RedoSpan, abort: bool },
    /// A group's combined copy, and the records it was combined from.
    Group(Vec<(u64, u64)>, Vec<RedoSpan>),
}

impl Writes {
    /// The unit's combined `(address, value)` pairs: distinct addresses.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (span, copy) = match self {
            Writes::Ring { span, .. } => (Some(span), &[][..]),
            Writes::Group(pairs, _) => (None, &pairs[..]),
        };
        span.into_iter()
            .flat_map(RedoSpan::pairs)
            .chain(copy.iter().copied())
    }

    /// Frees the records while the unit is only staged, so their thread can
    /// overwrite words Reproduce has not read — the bug the schedule
    /// fuzzer must catch (sim sabotage).
    #[cfg(feature = "sim")]
    pub(crate) fn free_now(&self, rings: &[Arc<RedoRing>]) {
        let spans = match self {
            Writes::Ring { span, .. } => std::slice::from_ref(span),
            Writes::Group(_, spans) => spans,
        };
        spans.iter().for_each(|s| rings[s.ring].free(s.clone()));
    }
}

/// Reproduced units' records awaiting their free, FIFO in TID order: the
/// one place redo-ring space is freed, on every path (the Reproduce step
/// holds it).
#[derive(Debug, Default)]
pub(crate) struct Unfreed(VecDeque<(u64, RedoSpan)>);

impl Unfreed {
    /// Holds the records of `writes` until the reproduced ID reaches `last`.
    pub(crate) fn hold(&mut self, last: u64, writes: Writes) {
        match writes {
            Writes::Ring { span, .. } => self.0.push_back((last, span)),
            Writes::Group(_, spans) => self.0.extend(spans.into_iter().map(|s| (last, s))),
        }
    }

    /// Frees, into their `rings`, the records the reproduced ID `f` passed.
    pub(crate) fn free_through(&mut self, rings: &[Arc<RedoRing>], f: u64) {
        while self.0.front().is_some_and(|&(last, _)| last <= f) {
            let (_, span) = self.0.pop_front().expect("front checked");
            // Freed when staged instead (sim sabotage).
            #[cfg(feature = "sim")]
            if crate::sabotage::free_ring_when_staged() {
                continue;
            }
            rings[span.ring].free(span);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One record popped from a ring.
#[derive(Debug)]
pub(crate) struct RedoRecord {
    pub(crate) tid: u64,
    /// An abort marker: a wasted TID with no writes.
    pub(crate) abort: bool,
    pub(crate) span: RedoSpan,
}

/// A popped record's write pairs, in place in its ring, and the right to
/// free them ([`RedoRing::free`]).
#[derive(Debug, Clone)]
pub(crate) struct RedoSpan {
    /// The ring's index in `Shared::redo`.
    pub(crate) ring: usize,
    /// The record's position in its ring's order.
    seq: u64,
    seg: Arc<Segment>,
    /// First word of the pairs.
    off: usize,
    /// Write pairs.
    len: usize,
    /// The segment the consumer left to reach this record, retired when
    /// this record is freed.
    retire: Option<Arc<Segment>>,
}

impl RedoSpan {
    /// Write pairs in the record.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The record's `(address, value)` pairs.
    pub(crate) fn pairs(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.seg.words[self.off..self.off + 2 * self.len]
            .chunks_exact(2)
            .map(|p| (p[0].load(Ordering::Relaxed), p[1].load(Ordering::Relaxed)))
    }

    /// Combines the record's writes in place, last writer wins: the slice
    /// keeps one pair per address, at its first position, with its last
    /// value.
    pub(crate) fn combine(&mut self, combiner: &mut Combiner) {
        if self.len < 2 {
            return;
        }
        let kept = combiner.dedup_copy(self.pairs());
        if kept.len() < self.len {
            let words = &self.seg.words[self.off..];
            for (pair, &(addr, val)) in words.chunks_exact(2).zip(kept) {
                pair[0].store(addr, Ordering::Relaxed);
                pair[1].store(val, Ordering::Relaxed);
            }
            self.len = kept.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogRecord;
    use proptest::prelude::*;

    impl RedoRing {
        /// Records pushed and not yet freed.
        pub(crate) fn unfreed(&self) -> u64 {
            let published = self.published.records.load(Ordering::Acquire);
            published - self.freed.get()
        }
    }

    impl RedoRecord {
        fn to_log_record(&self) -> LogRecord {
            if self.abort {
                LogRecord::Abort { tid: self.tid }
            } else {
                LogRecord::Commit {
                    tid: self.tid,
                    writes: self.span.pairs().collect(),
                }
            }
        }
    }

    fn ring(cap: Option<usize>) -> (Arc<RedoRing>, RedoProducer, RedoCursor) {
        let ring = Arc::new(RedoRing::new(match cap {
            Some(buffer_txns) => DurabilityMode::Async { buffer_txns },
            None => DurabilityMode::AsyncUnbounded,
        }));
        let producer = RedoProducer::new(&ring);
        let cursor = RedoCursor::new(3, &ring);
        (ring, producer, cursor)
    }

    fn writes(tid: u64, n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (8 * i, tid * 100 + i)).collect()
    }

    fn pop(cursor: &mut RedoCursor) -> RedoRecord {
        cursor.try_pop().expect("a record is published")
    }

    #[test]
    fn records_round_trip_in_order_across_wraps() {
        // Async{2}: 8-word segments. A one-write record is 4 words, so two
        // fill a segment exactly; a two-write record (6 words) leaves 2
        // words and a wrap marker.
        let (ring, mut producer, mut cursor) = ring(Some(2));
        assert_eq!(ring.segment_words, 8);
        let mut tid = 0;
        for n in [1, 1, 2, 1, 0, 2, 3] {
            tid += 1;
            assert!(producer.try_push(tid, false, &writes(tid, n)));
            let rec = pop(&mut cursor);
            assert_eq!((rec.tid, rec.abort, rec.span.ring), (tid, false, 3));
            assert_eq!(rec.span.pairs().collect::<Vec<_>>(), writes(tid, n));
            ring.free(rec.span);
        }
        assert_eq!(cursor.try_pop().unwrap_err(), TryRecvError::Empty);
        // Two segments live at a time, one at a time retired: reuse, no
        // growth past them.
        let segments = ring.segments.lock();
        assert!(segments.ahead.is_empty());
        assert!(segments.pool.len() <= 2, "{} pooled", segments.pool.len());
    }

    #[test]
    fn a_wrap_marker_sends_the_cursor_to_the_next_segment() {
        let (ring, mut producer, mut cursor) = ring(Some(4));
        assert_eq!(ring.segment_words, 8);
        assert!(producer.try_push(1, false, &writes(1, 2))); // words 0..6
        assert!(producer.try_push(2, false, &writes(2, 1))); // wraps at 6
        let first = producer.seg.clone().unwrap();
        let r1 = pop(&mut cursor);
        let r2 = pop(&mut cursor);
        assert!(!Arc::ptr_eq(&r1.span.seg, &r2.span.seg));
        assert!(
            r2.span.retire.is_some(),
            "the second record retires the first segment"
        );
        assert!(Arc::ptr_eq(&r2.span.seg, &first));
        assert_eq!(r2.span.pairs().collect::<Vec<_>>(), writes(2, 1));
        assert_eq!(r1.span.seg.words[6].load(Ordering::Relaxed), WRAP);
    }

    /// In an `Arc<Segment>` the slice's pointer and length never share a
    /// 64-byte line with the reference counts, wherever the allocator puts
    /// the block. `ArcInner` is `repr(C)`: the strong and weak counts (16
    /// bytes), then the value at its own alignment; the block is aligned
    /// like the value.
    #[test]
    fn segment_slice_and_arc_counts_are_on_different_lines() {
        let align = std::mem::align_of::<Segment>().max(8);
        let value = 16usize.next_multiple_of(align);
        let slice = std::mem::size_of::<Box<[AtomicU64]>>();
        for base in (0..128).step_by(align.min(128)) {
            let counts = base / 64..(base + 15) / 64;
            let words = (base + value) / 64..(base + value + slice - 1) / 64;
            assert!(
                counts.end < words.start,
                "block at {base} mod 128: counts on lines {counts:?}, slice on {words:?}"
            );
        }
        let seg = Segment::new(8);
        assert_eq!(Arc::as_ptr(&seg) as usize % align, 0);
    }

    #[test]
    fn abort_markers_carry_no_writes() {
        let (_ring, mut producer, mut cursor) = ring(None);
        assert!(producer.try_push(9, true, &[]));
        let rec = pop(&mut cursor);
        assert!(rec.abort);
        assert_eq!((rec.tid, rec.span.len()), (9, 0));
        assert_eq!(rec.to_log_record(), LogRecord::Abort { tid: 9 });
    }

    /// The cap counts records, not words: a ring of two holds two
    /// transactions of any size, and a refused push changes nothing.
    #[test]
    fn async_caps_unfreed_records_whatever_their_size_and_refusals_write_nothing() {
        for n in [0, 1, 40] {
            let (ring, mut producer, mut cursor) = ring(Some(2));
            assert!(producer.try_push(1, false, &writes(1, n)));
            assert!(producer.try_push(2, false, &writes(2, n)));
            let before = (producer.off, ring.published.records.load(Ordering::Relaxed));
            assert!(!producer.try_push(3, false, &writes(3, 1)));
            assert_eq!(
                (producer.off, ring.published.records.load(Ordering::Relaxed)),
                before
            );
            // Popping is not freeing: still full.
            let r1 = pop(&mut cursor);
            assert!(!producer.try_push(3, false, &writes(3, 1)));
            ring.free(r1.span);
            assert!(producer.try_push(3, false, &writes(3, 1)));
            assert_eq!(pop(&mut cursor).tid, 2);
            assert_eq!(pop(&mut cursor).tid, 3);
            assert_eq!(cursor.try_pop().unwrap_err(), TryRecvError::Empty);
        }
    }

    #[test]
    fn a_record_larger_than_the_segment_gets_one_of_its_own() {
        let (ring, mut producer, mut cursor) = ring(Some(1));
        assert_eq!(ring.segment_words, 8);
        let big = writes(1, 1000);
        assert!(producer.try_push(1, false, &big));
        let rec = pop(&mut cursor);
        assert_eq!(rec.span.seg.len(), HEAD + 2000);
        assert_eq!(rec.span.pairs().collect::<Vec<_>>(), big);
    }

    #[test]
    fn unbounded_never_refuses() {
        let (_ring, mut producer, mut cursor) = ring(None);
        for tid in 1..=20_000 {
            assert!(producer.try_push(tid, false, &writes(tid, tid % 3)));
        }
        for tid in 1..=20_000 {
            assert_eq!(pop(&mut cursor).tid, tid);
        }
    }

    #[test]
    fn close_reads_as_disconnected_only_once_drained() {
        let (ring, mut producer, mut cursor) = ring(Some(4));
        assert!(producer.try_push(1, false, &writes(1, 1)));
        assert!(producer.try_push(2, true, &[]));
        ring.close();
        assert_eq!(pop(&mut cursor).tid, 1);
        assert_eq!(pop(&mut cursor).tid, 2);
        assert_eq!(cursor.try_pop().unwrap_err(), TryRecvError::Disconnected);
    }

    #[test]
    #[should_panic(expected = "freed in ring order")]
    fn out_of_order_free_panics() {
        let (ring, mut producer, mut cursor) = ring(Some(4));
        assert!(producer.try_push(1, false, &[]));
        assert!(producer.try_push(2, false, &[]));
        let _first = pop(&mut cursor);
        ring.free(pop(&mut cursor).span);
    }

    #[test]
    fn combine_keeps_the_last_value_at_the_first_position_in_place() {
        let (_ring, mut producer, mut cursor) = ring(None);
        assert!(producer.try_push(1, false, &[(8, 1), (16, 2), (8, 3), (24, 4)]));
        let mut rec = pop(&mut cursor);
        rec.span.combine(&mut Combiner::default());
        assert_eq!(
            rec.span.pairs().collect::<Vec<_>>(),
            [(8, 3), (16, 2), (24, 4)]
        );
        assert_eq!(rec.to_log_record().writes(), [(8, 3), (16, 2), (24, 4)]);
    }

    /// A producer at the cap parks on the freed count, and the free that
    /// makes room wakes it.
    #[test]
    fn a_full_ring_parks_the_producer_until_a_free() {
        let (ring, mut producer, mut cursor) = ring(Some(1));
        assert!(producer.try_push(1, false, &writes(1, 1)));
        let pusher = std::thread::spawn(move || {
            producer.push(2, false, &writes(2, 1));
            producer
        });
        let first = pop(&mut cursor);
        while !ring.freed.has_waiters() {
            std::thread::yield_now();
        }
        assert_eq!(cursor.try_pop().unwrap_err(), TryRecvError::Empty);
        ring.free(first.span);
        pusher.join().unwrap();
        assert_eq!(pop(&mut cursor).tid, 2);
    }

    /// Sim twin of the park, plus wrap-around: a 1-record ring with
    /// 8-word segments, 40 pushes of 2-write records — every push parks on
    /// the previous record and every record wraps — against a consumer
    /// that frees in order, under the virtual scheduler.
    #[cfg(feature = "sim")]
    #[test]
    fn park_and_wrap_under_the_virtual_scheduler() {
        let seed = std::env::var("DUDE_SIM_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(7);
        let report = dude_sim::run(dude_sim::SimConfig::from_seed(seed), || {
            let (ring, mut producer, mut cursor) = ring(Some(1));
            let pusher = dude_sim::spawn("pusher", move || {
                for tid in 1..=40 {
                    producer.push(tid, false, &writes(tid, 2));
                }
            });
            let mut wraps = 0;
            for tid in 1..=40 {
                let rec = loop {
                    match cursor.try_pop() {
                        Ok(rec) => break rec,
                        Err(_) => dude_sim::sleep_ns(1_000),
                    }
                };
                assert_eq!(rec.tid, tid);
                assert_eq!(rec.span.pairs().collect::<Vec<_>>(), writes(tid, 2));
                wraps += usize::from(rec.span.retire.is_some());
                ring.free(rec.span);
            }
            pusher.join().unwrap();
            wraps
        });
        if let Some(p) = report.panic {
            eprintln!("DUDE_SIM_SEED={seed}");
            panic!("sim run failed under seed {seed}: {p}");
        }
        assert_eq!(
            report.result,
            Some(39),
            "every record after the first wraps"
        );
    }

    /// One step of the model test: `(selector, writes)`.
    type Op = (u8, Vec<(u64, u64)>);

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..4,
            proptest::collection::vec((0u64..64, any::<u64>()), 0..12),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes, pops and frees against a `VecDeque<LogRecord>` model:
        /// a push is refused exactly when the cap is held unfreed, pops
        /// return the model's records in order, and no popped record's
        /// words change until it is freed — across wraps, records larger
        /// than a segment and reused segments.
        #[test]
        fn ring_matches_a_queue_model(
            cap in 0usize..5,
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let cap = (cap > 0).then_some(cap);
            let (ring, mut producer, mut cursor) = ring(cap);
            let mut queued: VecDeque<LogRecord> = VecDeque::new();
            let mut held: VecDeque<(LogRecord, RedoSpan)> = VecDeque::new();
            let mut tid = 0;
            for (selector, pairs) in ops {
                match selector {
                    0 | 1 => {
                        tid += 1;
                        let rec = if selector == 1 {
                            LogRecord::Abort { tid }
                        } else {
                            LogRecord::Commit { tid, writes: pairs }
                        };
                        let full = cap.is_some_and(|c| queued.len() + held.len() == c);
                        let pushed = producer.try_push(tid, selector == 1, rec.writes());
                        prop_assert_eq!(pushed, !full);
                        if pushed {
                            queued.push_back(rec);
                        } else {
                            tid -= 1;
                        }
                    }
                    2 => match cursor.try_pop() {
                        Ok(got) => {
                            let want = queued.pop_front().expect("model has a record");
                            prop_assert_eq!(got.to_log_record(), want.clone());
                            held.push_back((want, got.span));
                        }
                        Err(e) => {
                            prop_assert_eq!(e, TryRecvError::Empty);
                            prop_assert!(queued.is_empty());
                        }
                    },
                    _ => {
                        if let Some((_, span)) = held.pop_front() {
                            ring.free(span);
                        }
                    }
                }
                for (rec, span) in &held {
                    prop_assert_eq!(span.pairs().collect::<Vec<_>>(), rec.writes().to_vec());
                }
            }
            ring.close();
            for want in queued {
                prop_assert_eq!(cursor.try_pop().map(|r| r.to_log_record()), Ok(want));
            }
            prop_assert_eq!(cursor.try_pop().unwrap_err(), TryRecvError::Disconnected);
        }
    }
}
