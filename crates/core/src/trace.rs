//! The pipeline observability layer: stage-latency histograms, stall
//! accounting, and a lock-free event trace with JSON export.
//!
//! DudeTM's argument is about *where the time goes* — decoupling moves
//! persist barriers and replay off the critical path — so reproducing the
//! paper credibly needs per-stage visibility, not just aggregate counters.
//! This module provides three surfaces (see `DESIGN.md §Observability` for
//! the full field-by-field schema):
//!
//! * [`LatencyHistogram`] — log-scale (HDR-style power-of-two bucket)
//!   histograms for commit latency, persist-barrier duration, group-flush
//!   size, and per-shard replay-apply time. Fixed 64-bucket layout, no
//!   allocation on the record path, percentiles without storing samples.
//! * [`StallCounters`] — named counters for the five ways a stage can
//!   block: Perform on a full volatile log, Persist on a full persistent
//!   ring, the grouped-Persist sequencer on a TID gap, Reproduce starved
//!   of input, and the shutdown checkpoint waiting on the slowest shard.
//!   Declared in the metrics catalog ([`crate::stats`]) like every other
//!   scalar cell; [`Trace::histograms`] is the catalog's histogram half.
//! * [`TraceRing`] — a fixed-size, lock-free ring of
//!   `{timestamp, stage, event, tid, bytes, duration}` records stamped
//!   with the process-wide [`dude_nvm::monotonic_ns`] clock, exported as
//!   chrome://tracing-compatible JSON by [`Trace::to_json`].
//!
//! Everything is gated behind [`TraceConfig::enabled`]: with tracing off
//! (the default) no event is recorded, no stall is counted, and no
//! timestamp is taken — the pipeline's hot paths check one boolean and
//! move on, so disabled-mode behavior is byte-identical to the
//! pre-observability runtime (verified by `tests/trace_layer.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::StallCounters;

/// Number of power-of-two buckets in a [`LatencyHistogram`]. Bucket `b >= 1`
/// covers `[2^(b-1), 2^b - 1]`; bucket 0 holds exact zeros. 64 buckets cover
/// the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Configuration of the observability layer (a field of
/// [`crate::DudeTmConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When `false` (the default) the layer costs one
    /// branch per instrumentation point and records nothing.
    pub enabled: bool,
    /// Capacity of the event ring, in records. When the ring is full the
    /// oldest records are overwritten and counted as dropped.
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Tracing off — the default, and the configuration whose observable
    /// pipeline behavior is identical to the pre-observability runtime.
    #[must_use]
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: 0,
        }
    }

    /// Tracing on with an event ring of `ring_capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity` is zero.
    #[must_use]
    pub fn enabled(ring_capacity: usize) -> Self {
        assert!(ring_capacity > 0, "an enabled trace needs ring capacity");
        TraceConfig {
            enabled: true,
            ring_capacity,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The pipeline stage an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// The Perform step: application threads running transactions.
    Perform = 0,
    /// The Persist step: background log-flush workers.
    Persist = 1,
    /// The Reproduce step: replay workers (router and shards).
    Reproduce = 2,
    /// Checkpoint writes and recovery replay.
    Checkpoint = 3,
}

impl Stage {
    /// Stable display name (used in the JSON export's `pid` naming).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Perform => "perform",
            Stage::Persist => "persist",
            Stage::Reproduce => "reproduce",
            Stage::Checkpoint => "checkpoint",
        }
    }

    fn from_u8(v: u8) -> Stage {
        match v {
            0 => Stage::Perform,
            1 => Stage::Persist,
            2 => Stage::Reproduce,
            _ => Stage::Checkpoint,
        }
    }
}

/// What happened (the `name` of the exported trace event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A transaction committed on a Perform thread.
    Commit = 0,
    /// A Persist sweep's ordering barrier (a worker's, or a `Sync`
    /// client's inline one).
    PersistBarrier = 1,
    /// A combined group was serialized and appended to its log ring
    /// (grouping mode; `bytes` = stored payload; the covering fence is the
    /// sweep's `PersistBarrier`).
    GroupFlush = 2,
    /// A Reproduce worker applied a run of writes to the heap image.
    ReplayApply = 3,
    /// A durable reproduced-ID checkpoint.
    CheckpointWrite = 4,
    /// The Persist sequencer sealed a group and dispatched it to a
    /// worker (grouped mode; `bytes` = 8 × the group's log entries).
    GroupDispatch = 5,
}

impl TraceEventKind {
    /// Stable display name (the `name` field of the JSON export).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Commit => "commit",
            TraceEventKind::PersistBarrier => "persist_barrier",
            TraceEventKind::GroupFlush => "group_flush",
            TraceEventKind::ReplayApply => "replay_apply",
            TraceEventKind::CheckpointWrite => "checkpoint",
            TraceEventKind::GroupDispatch => "group_dispatch",
        }
    }

    fn from_u8(v: u8) -> TraceEventKind {
        match v {
            0 => TraceEventKind::Commit,
            1 => TraceEventKind::PersistBarrier,
            2 => TraceEventKind::GroupFlush,
            3 => TraceEventKind::ReplayApply,
            5 => TraceEventKind::GroupDispatch,
            _ => TraceEventKind::CheckpointWrite,
        }
    }
}

/// One decoded trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the process trace epoch
    /// ([`dude_nvm::monotonic_ns`]).
    pub ts_ns: u64,
    /// Pipeline stage that emitted the event.
    pub stage: Stage,
    /// Event kind.
    pub event: TraceEventKind,
    /// Transaction ID the event covers (the last TID for batched events;
    /// the shard index is carried in `tid` for `ReplayApply` worker events
    /// only when no TID applies — see the recording sites).
    pub tid: u64,
    /// Payload bytes the event moved (log bytes flushed, heap bytes
    /// applied, 8 × words written at commit).
    pub bytes: u64,
    /// Event duration in nanoseconds (0 for instantaneous events).
    pub dur_ns: u64,
}

const RECORD_WORDS: usize = 5;

/// A fixed-size, lock-free, multi-writer event ring.
///
/// Writers reserve a slot with one `fetch_add` and store the record's five
/// words with relaxed atomics — no locks, no allocation, wait-free. When
/// the ring wraps, the oldest records are overwritten and counted as
/// dropped. Two writers stamp and claim independently, so slot order is
/// not time order; the cold read path ([`TraceRing::records`]) sorts by
/// timestamp instead of making writers agree. Reading is intended for
/// quiescent moments (after `quiesce`/shutdown); a snapshot taken while
/// writers are active may contain individual torn records, which is
/// acceptable for an observability surface and documented here rather than
/// paid for with a lock on the hot path.
#[derive(Debug)]
pub struct TraceRing {
    /// Flat `capacity × RECORD_WORDS` storage:
    /// `[ts, stage|event packed, tid, bytes, dur]` per slot.
    words: Vec<AtomicU64>,
    capacity: usize,
    /// Monotonic count of records ever written.
    head: AtomicU64,
}

impl TraceRing {
    /// Creates a ring holding `capacity` records (0 = a ring that drops
    /// everything, used by the disabled configuration).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            words: (0..capacity * RECORD_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            capacity,
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity in records.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event (wait-free; overwrites the oldest record when
    /// full).
    pub fn record(&self, rec: TraceRecord) {
        if self.capacity == 0 {
            self.head.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.capacity as u64) as usize * RECORD_WORDS;
        let packed = ((rec.stage as u64) << 8) | rec.event as u64;
        self.words[slot].store(rec.ts_ns, Ordering::Relaxed);
        self.words[slot + 1].store(packed, Ordering::Relaxed);
        self.words[slot + 2].store(rec.tid, Ordering::Relaxed);
        self.words[slot + 3].store(rec.bytes, Ordering::Relaxed);
        self.words[slot + 4].store(rec.dur_ns, Ordering::Relaxed);
    }

    /// Total records ever recorded (including dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records lost to ring overflow (overwritten oldest-first) — the
    /// ring keeps the most recent `capacity` records.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity as u64)
    }

    /// Records currently held, stably sorted by `ts_ns` (slot order breaks
    /// ties). Take after quiescing the pipeline for a tear-free view.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let head = self.recorded();
        if self.capacity == 0 || head == 0 {
            return Vec::new();
        }
        let len = head.min(self.capacity as u64);
        let first = head - len;
        let mut records: Vec<TraceRecord> = (first..head)
            .map(|seq| {
                let slot = (seq % self.capacity as u64) as usize * RECORD_WORDS;
                let packed = self.words[slot + 1].load(Ordering::Relaxed);
                TraceRecord {
                    ts_ns: self.words[slot].load(Ordering::Relaxed),
                    stage: Stage::from_u8((packed >> 8) as u8),
                    event: TraceEventKind::from_u8(packed as u8),
                    tid: self.words[slot + 2].load(Ordering::Relaxed),
                    bytes: self.words[slot + 3].load(Ordering::Relaxed),
                    dur_ns: self.words[slot + 4].load(Ordering::Relaxed),
                }
            })
            .collect();
        records.sort_by_key(|r| r.ts_ns);
        records
    }
}

/// Index of the bucket value `v` lands in: 0 for 0, else
/// `64 - leading_zeros(v)` — so bucket `b >= 1` covers
/// `[2^(b-1), 2^b - 1]`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive value range `[low, high]` covered by bucket `b`.
#[must_use]
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (b - 1), (1 << b) - 1),
    }
}

/// A concurrent log-scale histogram: 64 power-of-two buckets plus exact
/// count/sum/max, all relaxed atomics. HDR-style in spirit — fixed memory,
/// O(1) record, percentile queries without retaining samples — with
/// one-bucket-per-octave resolution (quantization error < 2×, which is
/// enough to tell a 300 ns barrier from a 10 µs stall).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS + 1],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (wait-free).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_bounds`] for each bucket's range).
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (exact — from sum/count, not buckets).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), resolved to the upper bound of
    /// the bucket where the cumulative count crosses `q × count`, clamped
    /// to the exact observed maximum. 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Named percentile export (`p50`/`p95`/`p99`/`max`/`count`) for
    /// machine consumers such as the `dude-bench` JSON records.
    #[must_use]
    pub fn export(&self) -> [(&'static str, u64); 5] {
        [
            ("p50", self.p50()),
            ("p95", self.p95()),
            ("p99", self.p99()),
            ("max", self.max),
            ("count", self.count),
        ]
    }
}

/// One member of the histogram catalog, as [`Trace::histograms`] yields it.
#[derive(Debug)]
pub struct HistogramEntry<'a> {
    /// Family name (the Prometheus family is `dudetm_<family>`).
    pub family: &'static str,
    /// One-line meaning (the `# HELP` text).
    pub help: &'static str,
    /// `(label, index)` of a per-shard / per-worker member; `None` for a
    /// family of one.
    pub label: Option<(&'static str, usize)>,
    /// The live cells.
    pub cells: &'a LatencyHistogram,
}

impl HistogramEntry<'_> {
    /// The snapshot and exposition spelling: `family` alone, or
    /// `family{label="index"}`.
    #[must_use]
    pub fn name(&self) -> String {
        match self.label {
            Some((key, index)) => format!("{}{{{key}=\"{index}\"}}", self.family),
            None => self.family.to_string(),
        }
    }
}

/// The observability layer attached to one runtime instance: event ring,
/// stage histograms, and stall counters, all behind one `enabled` flag.
///
/// Obtain via [`crate::DudeTm::trace`]; export with [`Trace::to_json`].
#[derive(Debug)]
pub struct Trace {
    config: TraceConfig,
    ring: TraceRing,
    /// Wall time from transaction start to commit acknowledgement on the
    /// Perform thread (includes aborted attempts of the same transaction).
    pub commit_latency_ns: LatencyHistogram,
    /// Duration of each Persist-stage ordering barrier (the modeled NVM
    /// fence cost plus scheduling): one sample per sweep — a Persist
    /// worker's, or under `DurabilityMode::Sync` the committing thread's
    /// inline one.
    pub persist_barrier_ns: LatencyHistogram,
    /// Stored bytes of each combined group flush (grouping mode only).
    pub group_flush_bytes: LatencyHistogram,
    /// Per-shard wall time applying one replay run to the heap image
    /// (index = shard; one entry in serial mode).
    pub replay_apply_ns: Vec<LatencyHistogram>,
    /// Each Persist worker's share of `persist_barrier_ns`: its per-sweep
    /// fences (index = worker; all empty under `DurabilityMode::Sync`,
    /// which spawns no worker — its inline sweeps land in
    /// `persist_barrier_ns` only).
    pub flush_worker_ns: Vec<LatencyHistogram>,
    /// Stall counters (see [`StallCounters`]).
    pub stalls: StallCounters,
}

impl Trace {
    /// Creates the layer for `shards` Reproduce shards and
    /// `flush_workers` Persist workers.
    #[must_use]
    pub fn new(config: TraceConfig, shards: usize, flush_workers: usize) -> Self {
        if config.enabled {
            // Pin the shared epoch now so event timestamps start near 0.
            let _ = dude_nvm::monotonic_ns();
        }
        let family = |n: usize| (0..n.max(1)).map(|_| LatencyHistogram::new()).collect();
        Trace {
            config,
            ring: TraceRing::new(if config.enabled {
                config.ring_capacity
            } else {
                0
            }),
            commit_latency_ns: LatencyHistogram::new(),
            persist_barrier_ns: LatencyHistogram::new(),
            group_flush_bytes: LatencyHistogram::new(),
            replay_apply_ns: family(shards),
            flush_worker_ns: family(flush_workers),
            stalls: StallCounters::default(),
        }
    }

    /// Every histogram of the layer, in catalog order: the one enumeration
    /// the snapshot, the exposition and [`Trace::to_json`] all walk.
    pub fn histograms(&self) -> impl Iterator<Item = HistogramEntry<'_>> {
        use std::slice::from_ref;
        let families: [(_, _, Option<&'static str>, &[LatencyHistogram]); 5] = [
            (
                "commit_latency_ns",
                "Perform-side commit latency",
                None,
                from_ref(&self.commit_latency_ns),
            ),
            (
                "persist_barrier_ns",
                "Persist ordering-fence latency, one sample per sweep",
                None,
                from_ref(&self.persist_barrier_ns),
            ),
            (
                "group_flush_bytes",
                "bytes flushed per persist group",
                None,
                from_ref(&self.group_flush_bytes),
            ),
            (
                "replay_apply_ns",
                "Reproduce apply latency per shard",
                Some("shard"),
                &self.replay_apply_ns,
            ),
            (
                "flush_worker_ns",
                "Persist ordering-fence latency per worker",
                Some("worker"),
                &self.flush_worker_ns,
            ),
        ];
        families
            .into_iter()
            .flat_map(|(family, help, key, members)| {
                members
                    .iter()
                    .enumerate()
                    .map(move |(i, cells)| HistogramEntry {
                        family,
                        help,
                        label: key.map(|key| (key, i)),
                        cells,
                    })
            })
    }

    /// Whether recording is on. Instrumentation sites check this first and
    /// skip all clock reads and atomics when it is off.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Counts one tick of the stall `pick` selects (no-op when disabled:
    /// stall accounting is gated with the rest of the layer).
    #[inline]
    pub fn stall(&self, pick: impl FnOnce(&StallCounters) -> &AtomicU64) {
        if self.enabled() {
            pick(&self.stalls).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The configuration the layer was built with.
    #[must_use]
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// The event ring.
    #[must_use]
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Records one event stamped now (no-op when disabled).
    pub fn event(&self, stage: Stage, event: TraceEventKind, tid: u64, bytes: u64, dur_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.ring.record(TraceRecord {
            ts_ns: dude_nvm::monotonic_ns(),
            stage,
            event,
            tid,
            bytes,
            dur_ns,
        });
    }

    /// Serializes the whole layer as JSON. The object is directly loadable
    /// by `chrome://tracing` / Perfetto (they read the `traceEvents` key
    /// and ignore the rest); the extra keys carry the histograms, stall
    /// counters, and drop accounting. Schema documented field-by-field in
    /// `DESIGN.md §Observability`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
        let records = self.ring.records();
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Complete ("X") events for durations, instant ("i") otherwise.
            // chrome ts/dur are microseconds (fractional allowed).
            let ts_us = r.ts_ns as f64 / 1000.0;
            if r.dur_ns > 0 {
                out.push_str(&format!(
                    "\n    {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"{}\", \
                     \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"tid\": {}, \"bytes\": {}}}}}",
                    r.event.name(),
                    r.stage.name(),
                    ts_us,
                    r.dur_ns as f64 / 1000.0,
                    r.tid,
                    r.bytes
                ));
            } else {
                out.push_str(&format!(
                    "\n    {{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \
                     \"tid\": \"{}\", \"ts\": {:.3}, \"args\": {{\"tid\": {}, \"bytes\": {}}}}}",
                    r.event.name(),
                    r.stage.name(),
                    ts_us,
                    r.tid,
                    r.bytes
                ));
            }
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"droppedEvents\": {},\n  \"recordedEvents\": {},\n",
            self.ring.dropped(),
            self.ring.recorded()
        ));
        let stalls: Vec<String> = self
            .stalls
            .snapshot()
            .cells()
            .map(|(c, v)| format!("\"{}\": {v}", c.field))
            .collect();
        out.push_str(&format!("  \"stalls\": {{{}}},\n", stalls.join(", ")));
        // Per-member keys keep their historic spelling: `_shard<i>`, `_w<i>`.
        let hists: Vec<String> = self
            .histograms()
            .map(|h| {
                let s = h.cells.snapshot();
                let member = match h.label {
                    Some(("worker", i)) => format!("_w{i}"),
                    Some((key, i)) => format!("_{key}{i}"),
                    None => String::new(),
                };
                format!(
                    "    \"{}{member}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                     \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    h.family,
                    s.count,
                    s.sum,
                    s.max,
                    s.mean(),
                    s.p50(),
                    s.p95(),
                    s.p99(),
                )
            })
            .collect();
        out.push_str(&format!("  \"histograms\": {{\n{}\n", hists.join(",\n")));
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..=64usize {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b, "lower bound of bucket {b}");
            assert_eq!(bucket_of(hi), b, "upper bound of bucket {b}");
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.sum, 1_001_106);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[2], 2); // 2 and 3

        // p99 lands in the top bucket and clamps to the observed max.
        assert_eq!(s.p99(), 1_000_000);
        // The median of {0,1,2,3,100,1000,1M} is 3 → bucket 2, upper 3.
        assert_eq!(s.p50(), 3);
        assert_eq!(HistogramSnapshot::default().p50(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let ring = TraceRing::new(4);
        for i in 0..6u64 {
            ring.record(TraceRecord {
                ts_ns: i,
                stage: Stage::Persist,
                event: TraceEventKind::PersistBarrier,
                tid: i,
                bytes: 8 * i,
                dur_ns: 0,
            });
        }
        assert_eq!(ring.recorded(), 6);
        assert_eq!(ring.dropped(), 2);
        let recs = ring.records();
        assert_eq!(recs.len(), 4);
        // Oldest two (ts 0, 1) were overwritten; survivors in order.
        assert_eq!(
            recs.iter().map(|r| r.ts_ns).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(recs[0].stage, Stage::Persist);
        assert_eq!(recs[0].event, TraceEventKind::PersistBarrier);
        assert_eq!(recs[3].bytes, 40);
    }

    /// Writer A claims a slot, writer B claims the next and stamps first:
    /// slot order is then not time order, and the read path restores it.
    #[test]
    fn records_come_back_in_time_order_whatever_the_claim_order() {
        let ring = TraceRing::new(8);
        for (ts_ns, tid) in [(10, 1), (30, 2), (20, 3), (20, 4)] {
            ring.record(TraceRecord {
                ts_ns,
                stage: Stage::Perform,
                event: TraceEventKind::Commit,
                tid,
                bytes: 0,
                dur_ns: 0,
            });
        }
        let order: Vec<(u64, u64)> = ring.records().iter().map(|r| (r.ts_ns, r.tid)).collect();
        // Stable: equal stamps keep their slot order.
        assert_eq!(order, [(10, 1), (20, 3), (20, 4), (30, 2)]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(TraceConfig::disabled(), 1, 1);
        t.event(Stage::Perform, TraceEventKind::Commit, 1, 8, 100);
        assert_eq!(t.ring().recorded(), 0);
        assert!(!t.enabled());
    }

    #[test]
    fn json_is_chrome_shaped() {
        let t = Trace::new(TraceConfig::enabled(16), 2, 2);
        t.event(Stage::Perform, TraceEventKind::Commit, 7, 16, 120);
        t.event(Stage::Persist, TraceEventKind::PersistBarrier, 7, 64, 0);
        t.event(Stage::Persist, TraceEventKind::GroupDispatch, 8, 32, 0);
        t.commit_latency_ns.record(120);
        t.stalls.perform_log_full.fetch_add(1, Ordering::Relaxed);
        t.stalls.persist_seq_wait.fetch_add(2, Ordering::Relaxed);
        let json = t.to_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"commit\""), "{json}");
        assert!(json.contains("\"persist_barrier\""), "{json}");
        assert!(json.contains("\"group_dispatch\""), "{json}");
        assert!(json.contains("\"perform_log_full\": 1"), "{json}");
        assert!(json.contains("\"persist_seq_wait\": 2"), "{json}");
        assert!(json.contains("\"commit_latency_ns\""), "{json}");
        assert!(json.contains("replay_apply_ns_shard1"), "{json}");
        assert!(json.contains("flush_worker_ns_w1"), "{json}");
        // Balanced braces — structurally valid without a JSON parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn enabled_zero_capacity_rejected() {
        let _ = TraceConfig::enabled(0);
    }
}
