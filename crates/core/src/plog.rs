//! Persistent redo-log rings (Figure 1's "persistent log region").
//!
//! Each Perform thread owns one fixed-size ring in NVM. The Persist step
//! appends checked records — the commit records a sweep takes from one redo
//! ring as one frame, and each group as a record of its own — flushes what
//! it appended, and issues **one persist barrier per sweep**: a fence orders
//! every flush before it, so one covers however many frames (or groups)
//! the sweep staged (§2.2, §3.3), and a cache line shared by neighbouring
//! records is flushed once.
//! Space is recycled by the Reproduce step only after the covering
//! checkpoint is durable, so recovery can trust every unreleased record it
//! finds.
//!
//! Recovery does not rely on any volatile cursor: it scans the whole region
//! probing every word for a record header and validating checks
//! ([`scan_region`]), and expands each frame into its records. Released
//! (stale) records are filtered out by the reproduced-ID checkpoint, torn
//! records fail their check — a frame is checked whole, and no fence
//! covered any record of a torn one — and live records are found wherever
//! the ring wrapped them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dude_nvm::{Nvm, Region};
use parking_lot::Mutex;

use crate::log::{is_skip, parse_frame, skip_word, ParsedRecord};

/// Location of one appended record, in monotonic ring coordinates
/// (includes any wrap padding that preceded it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlogSpan {
    /// Monotonic word offset at which the span starts.
    pub start: u64,
    /// Words covered (padding + record).
    pub words: u64,
}

impl PlogSpan {
    /// Monotonic word offset one past the span.
    pub fn end(&self) -> u64 {
        self.start + self.words
    }
}

/// A single-writer, single-releaser persistent log ring.
#[derive(Debug)]
pub struct PlogRing {
    nvm: Arc<Nvm>,
    region: Region,
    capacity_words: u64,
    /// Monotonic count of released words.
    head: AtomicU64,
    /// Monotonic count of written words.
    tail: AtomicU64,
    /// Serializes appends (each ring has one logical writer; the lock makes
    /// that assumption safe rather than trusted).
    append_lock: Mutex<()>,
}

impl PlogRing {
    /// Creates an empty ring over `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region is not word-aligned or smaller than 64 words.
    pub fn new(nvm: Arc<Nvm>, region: Region) -> Self {
        assert!(region.start().is_multiple_of(8) && region.len().is_multiple_of(8));
        let capacity_words = region.len() / 8;
        assert!(capacity_words >= 64, "plog ring too small");
        PlogRing {
            nvm,
            region,
            capacity_words,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            append_lock: Mutex::new(()),
        }
    }

    /// Ring capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words
    }

    /// Words currently live (written but not released).
    pub fn used_words(&self) -> u64 {
        self.tail.load(Ordering::Acquire) - self.head.load(Ordering::Acquire)
    }

    /// Appends `record` and persists it with one barrier. Blocks (yielding)
    /// while the ring lacks space — the backpressure that ultimately blocks
    /// the Perform thread when logs outrun the Persist step (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if the record is larger than half the ring.
    pub fn append(&self, record: &[u64]) -> PlogSpan {
        let span = self.append_unfenced(record);
        self.nvm.fence();
        span
    }

    /// Appends and flushes `record` **without** the ordering fence. The
    /// caller must fence before treating the record as durable; the Persist
    /// step uses this to batch several transactions under one barrier,
    /// which the paper explicitly permits (§3.3 "persist redo logs in a
    /// batched manner").
    ///
    /// # Panics
    ///
    /// Panics if the record is larger than half the ring.
    pub fn append_unfenced(&self, record: &[u64]) -> PlogSpan {
        loop {
            if let Some(span) = self.try_append_unflushed(record) {
                self.flush_range(span.start, span.end());
                return span;
            }
            dude_nvm::thread::yield_now();
        }
    }

    /// Stores `record` at the tail **without flushing it**, or returns
    /// `None` when the ring currently lacks space. The caller covers the
    /// span with [`PlogRing::flush_range`] — once per sweep, over every
    /// span the sweep appended — and fences before treating any of it as
    /// durable. A Persist thread serving several rings must never *block*
    /// on one full ring — the blocked ring can only drain after Reproduce
    /// passes transactions that still sit in the other redo rings, so
    /// blocking would deadlock the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the record is larger than half the ring.
    pub fn try_append_unflushed(&self, record: &[u64]) -> Option<PlogSpan> {
        let len = record.len() as u64;
        assert!(
            len <= self.capacity_words / 2,
            "record of {len} words exceeds half the ring ({} words)",
            self.capacity_words
        );
        let _guard = self.append_lock.lock();
        let tail = self.tail.load(Ordering::Relaxed);
        let tail_mod = tail % self.capacity_words;
        let pad = if tail_mod + len > self.capacity_words {
            self.capacity_words - tail_mod
        } else {
            0
        };
        let total = pad + len;
        if tail + total - self.head.load(Ordering::Acquire) > self.capacity_words {
            return None;
        }
        if pad > 0 {
            // Tell sequential readers (none today; defensive) to wrap.
            let off = self.region.start() + tail_mod * 8;
            self.nvm.write_word(off, skip_word());
        }
        let write_mod = (tail + pad) % self.capacity_words;
        let off = self.region.start() + write_mod * 8;
        self.nvm.write_words(off, record);
        self.tail.store(tail + total, Ordering::Release);
        Some(PlogSpan {
            start: tail,
            words: total,
        })
    }

    /// Flushes the words `start..end` (monotonic ring coordinates, as in
    /// [`PlogSpan`]) — each cache line once, in two pieces when the range
    /// wraps.
    ///
    /// # Panics
    ///
    /// Panics if the range is longer than the ring.
    pub fn flush_range(&self, start: u64, end: u64) {
        let len = end - start;
        assert!(len <= self.capacity_words, "flush range exceeds the ring");
        let start_mod = start % self.capacity_words;
        let first = len.min(self.capacity_words - start_mod);
        let off = self.region.start() + start_mod * 8;
        self.nvm.flush(off, first * 8);
        self.nvm.flush(self.region.start(), (len - first) * 8);
    }

    /// Releases a span returned by [`PlogRing::append`]. Spans must be
    /// released in append order, and only after the reproduced-ID checkpoint
    /// covering them is durable.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order release.
    pub fn release(&self, span: PlogSpan) {
        let head = self.head.load(Ordering::Relaxed);
        assert_eq!(
            head, span.start,
            "plog spans must be released in append order"
        );
        self.head.store(head + span.words, Ordering::Release);
    }
}

/// Scans a log region for checksum-valid records, one per record of a
/// frame.
///
/// Probes every word offset for a record header. A false positive needs
/// the 4-bit magic, a valid kind and the 32-bit check to line up — and
/// recovery then ignores it unless its 64-bit transaction ID also falls in
/// the run spanning the checkpoint. Returns records in scan order (the
/// caller orders them by transaction ID).
pub fn scan_region(nvm: &Nvm, region: Region) -> Vec<ParsedRecord> {
    let words_len = (region.len() / 8) as usize;
    let mut words = vec![0u64; words_len];
    nvm.read_words(region.start(), &mut words);
    let mut found = Vec::new();
    for off in 0..words_len {
        if is_skip(words[off]) {
            continue;
        }
        parse_frame(&words[off..], &mut found);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{serialize_commit, serialize_frame, LogRecord};
    use dude_nvm::NvmConfig;

    /// An abort marker's record: a commit with no writes, 2 words.
    fn abort(tid: u64, buf: &mut Vec<u64>) {
        serialize_frame([&LogRecord::Abort { tid }], buf);
    }

    fn setup(region_words: u64) -> (Arc<Nvm>, PlogRing, Region) {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(region_words * 8)));
        let region = Region::new(0, region_words * 8);
        let ring = PlogRing::new(Arc::clone(&nvm), region);
        (nvm, ring, region)
    }

    #[test]
    fn append_then_scan_finds_record() {
        let (nvm, ring, region) = setup(256);
        let mut buf = Vec::new();
        serialize_commit(1, [(8, 42)], &mut buf);
        let span = ring.append(&buf);
        assert_eq!(span.start, 0);
        assert_eq!(span.words, buf.len() as u64);
        let recs = scan_region(&nvm, region);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].first_tid, 1);
        assert_eq!(recs[0].writes, vec![(8, 42)]);
    }

    /// A frame scans back as its records, the frame's words on the last;
    /// torn — its last word never written — it loses them all.
    #[test]
    fn a_frame_scans_back_record_by_record_and_tears_whole() {
        let (nvm, ring, region) = setup(256);
        let records = [
            LogRecord::Commit {
                tid: 3,
                writes: vec![(8, 0x1234)],
            },
            LogRecord::Abort { tid: 4 },
            LogRecord::Commit {
                tid: 9,
                writes: vec![(72, 1 << 40)],
            },
        ];
        let mut buf = Vec::new();
        serialize_frame(&records, &mut buf);
        ring.append(&buf);
        let recs = scan_region(&nvm, region);
        let got: Vec<_> = recs
            .iter()
            .map(|r| (r.first_tid, &r.writes[..], r.words))
            .collect();
        let last = buf.len();
        assert_eq!(
            got,
            [
                (3, &[(8, 0x1234)][..], 0),
                (4, &[][..], 0),
                (9, &[(72, 1 << 40)][..], last)
            ]
        );
        let at = region.start() + 64 * 8;
        nvm.write_words(at, &buf[..last - 1]);
        nvm.persist(at, 8 * last as u64);
        nvm.crash();
        assert_eq!(scan_region(&nvm, region).len(), 3, "only the fenced frame");
    }

    #[test]
    fn appended_records_survive_crash() {
        let (nvm, ring, region) = setup(256);
        let mut buf = Vec::new();
        serialize_commit(1, [(8, 42)], &mut buf);
        ring.append(&buf);
        nvm.crash();
        let recs = scan_region(&nvm, region);
        assert_eq!(recs.len(), 1, "persisted record must survive crash");
    }

    #[test]
    fn unpersisted_write_does_not_survive() {
        let (nvm, _ring, region) = setup(256);
        let mut buf = Vec::new();
        serialize_commit(1, [(8, 42)], &mut buf);
        // Write the record bytes but never flush/fence.
        nvm.write_words(region.start(), &buf);
        nvm.crash();
        assert!(scan_region(&nvm, region).is_empty());
    }

    #[test]
    fn wrap_around_with_release() {
        let (nvm, ring, region) = setup(64);
        let mut buf = Vec::new();
        let mut spans = Vec::new();
        // Each commit record with 2 one-byte writes on one line = 2 + 1
        // words; the ring holds 64.
        for tid in 1..=32u64 {
            serialize_commit(tid, [(8, tid), (16, tid)], &mut buf);
            // Release the oldest span when the ring gets tight.
            while ring.used_words() + buf.len() as u64 + 8 > ring.capacity_words() {
                let s: PlogSpan = spans.remove(0);
                ring.release(s);
            }
            spans.push(ring.append(&buf));
        }
        // The most recent records are still discoverable.
        let recs = scan_region(&nvm, region);
        let max_tid = recs.iter().map(|r| r.last_tid).max().unwrap();
        assert_eq!(max_tid, 32);
        // All surviving records are contiguous at the tail of the sequence.
        let mut tids: Vec<u64> = recs.iter().map(|r| r.first_tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let min_tid = tids[0];
        assert_eq!(
            tids,
            (min_tid..=32).collect::<Vec<_>>(),
            "live records must cover a contiguous tid suffix"
        );
    }

    #[test]
    #[should_panic(expected = "append order")]
    fn out_of_order_release_panics() {
        let (_nvm, ring, _region) = setup(256);
        let mut buf = Vec::new();
        abort(1, &mut buf);
        let s1 = ring.append(&buf);
        abort(2, &mut buf);
        let s2 = ring.append(&buf);
        let _ = s1;
        ring.release(s2);
    }

    #[test]
    fn scan_ignores_torn_record() {
        let (nvm, ring, region) = setup(256);
        let mut buf = Vec::new();
        serialize_commit(1, [(8, 1)], &mut buf);
        ring.append(&buf);
        // Simulate a torn append: valid-looking header, no valid checksum,
        // never fenced.
        serialize_commit(2, [(16, 2)], &mut buf);
        let torn = &buf[..buf.len() - 1];
        nvm.write_words(region.start() + 64 * 8, torn);
        nvm.crash();
        let recs = scan_region(&nvm, region);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].first_tid, 1);
    }

    /// The unflushed primitive really does not flush, and one range flush —
    /// in two pieces across the wrap, skip marker included — covers
    /// everything a sweep appended.
    #[test]
    fn one_range_flush_covers_a_sweep_across_the_wrap() {
        let (nvm, ring, region) = setup(64);
        let mut buf = Vec::new();
        // Seven rewrites of one word with 8-byte values are seven 11-byte
        // groups: 77 payload bytes, a 2 + 10 = 12-word record. Four of them
        // fill 48 of 64 words and are recycled.
        let writes = |tid: u64| [(8, u64::MAX - tid); 7];
        for tid in 1..=4u64 {
            serialize_commit(tid, writes(tid), &mut buf);
            let span = ring.append(&buf);
            ring.release(span);
        }
        let before = nvm.persistence_events().flushes;
        // The sweep: 12 words at 48..60, then 4 words of padding (a skip
        // marker) and 12 words at the ring start.
        let mut spans = Vec::new();
        for tid in 5..=6u64 {
            serialize_commit(tid, writes(tid), &mut buf);
            spans.push(ring.try_append_unflushed(&buf).expect("space"));
        }
        assert_eq!((spans[1].start, spans[1].words), (60, 16));
        assert_eq!(
            nvm.persistence_events().flushes,
            before,
            "append alone must not flush"
        );
        ring.flush_range(spans[0].start, spans[1].end());
        assert_eq!(nvm.persistence_events().flushes, before + 2);
        assert_eq!(nvm.read_word(region.start() + 60 * 8), skip_word());
        nvm.fence();
        nvm.crash();
        let mut tids: Vec<u64> = scan_region(&nvm, region)
            .iter()
            .map(|r| r.first_tid)
            .collect();
        tids.sort_unstable();
        assert_eq!(tids, [2, 3, 4, 5, 6], "tid 1 overwritten, sweep durable");
        assert_eq!(nvm.read_word(region.start() + 60 * 8), skip_word());

        // Without the range flush the same appends do not survive.
        serialize_commit(7, writes(7), &mut buf);
        ring.release(spans[0]);
        ring.release(spans[1]);
        ring.try_append_unflushed(&buf).expect("space");
        nvm.fence();
        nvm.crash();
        assert!(scan_region(&nvm, region).iter().all(|r| r.first_tid != 7));
    }

    #[test]
    fn used_words_tracks_live_data() {
        let (_nvm, ring, _region) = setup(256);
        assert_eq!(ring.used_words(), 0);
        let mut buf = Vec::new();
        abort(1, &mut buf);
        let s = ring.append(&buf);
        assert_eq!(ring.used_words(), 2);
        ring.release(s);
        assert_eq!(ring.used_words(), 0);
    }

    #[test]
    fn append_blocks_until_release() {
        // Fill the ring almost completely, then show append waits for a
        // release performed by another thread.
        let (_nvm, ring, _region) = setup(64);
        let ring = Arc::new(ring);
        // 19 rewrites of one word with 8-byte values: 19 × 11 = 209
        // payload bytes, 2 + 27 = 29 words.
        let writes = |tid: u64| [(8, u64::MAX - tid); 19];
        let mut buf = Vec::new();
        serialize_commit(1, writes(1), &mut buf);
        assert_eq!(buf.len(), 29);
        let s1 = ring.append(&buf);
        let mut buf2 = Vec::new();
        serialize_commit(2, writes(2), &mut buf2);
        let _s2 = ring.append(&buf2); // 58/64 used
        let r2 = Arc::clone(&ring);
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            r2.release(s1);
        });
        let mut buf3 = Vec::new();
        serialize_commit(3, writes(3), &mut buf3);
        let start = std::time::Instant::now();
        ring.append(&buf3); // must block until release
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
        releaser.join().unwrap();
    }
}
