//! The pipeline observability layer: stage-latency histograms and stall
//! accounting.
//!
//! DudeTM's argument is about *where the time goes* — decoupling moves
//! persist barriers and replay off the critical path — so reproducing the
//! paper credibly needs per-stage visibility, not just aggregate counters.
//! This module provides two surfaces (see `DESIGN.md §Observability` for
//! the full field-by-field schema):
//!
//! * [`LatencyHistogram`] — log-scale (HDR-style power-of-two bucket)
//!   histograms for commit latency, persist-barrier duration, group-flush
//!   size, Reproduce's per-run apply time and each Persist worker's fences. Fixed 64-bucket layout, no
//!   allocation on the record path, percentiles without storing samples.
//! * [`StallCounters`] — named counters for the ways a stage can block:
//!   Perform on a full volatile log, Persist on a full persistent ring,
//!   grouped Persist workers whose shared input waits on a TID gap, and
//!   Reproduce starved of input (always 0: Reproduce is a step).
//!   Declared in the metrics catalog ([`crate::stats`]) like every other
//!   scalar cell; [`Trace::histograms`] is the catalog's histogram half.
//!
//! Both reach the outside only through the catalog walks:
//! [`crate::PipelineSnapshot`] and its `summary()`, the JSONL frames and
//! the Prometheus exposition ([`crate::MetricsRegistry`]).
//!
//! Everything is gated behind [`TraceConfig::enabled`]: with tracing off
//! (the default) no histogram sample is taken, no stall is counted, and no
//! timestamp is read — the pipeline's hot paths check one boolean and
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
}

impl TraceConfig {
    /// Tracing off — the default, and the configuration whose observable
    /// pipeline behavior is identical to the pre-observability runtime.
    #[must_use]
    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing on. The argument is accepted and ignored; the signature is
    /// kept for its callers, and ROADMAP item 3(a) may make it the size of
    /// a sampled-lifecycle table.
    #[must_use]
    pub fn enabled(_capacity: usize) -> Self {
        TraceConfig { enabled: true }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
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
/// enough to tell a 300 ns barrier from a 10 µs stall). Cache-line
/// aligned: the Perform thread's histogram and the Persist worker's sit
/// side by side in [`Trace`].
#[repr(align(64))]
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
}

/// One member of the histogram catalog, as [`Trace::histograms`] yields it.
#[derive(Debug)]
pub struct HistogramEntry<'a> {
    /// Family name (the Prometheus family is `dudetm_<family>`).
    pub family: &'static str,
    /// One-line meaning (the `# HELP` text).
    pub help: &'static str,
    /// `(label, index)` of a labelled member; `None` for an unlabelled
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

/// The observability layer attached to one runtime instance: stage
/// histograms and stall counters, behind one `enabled` flag.
///
/// Obtain via [`crate::DudeTm::trace`]; exported through the metrics
/// catalog ([`crate::DudeTm::metrics`]).
#[derive(Debug)]
pub struct Trace {
    config: TraceConfig,
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
    /// Wall time applying one replay run to the heap image, exported as
    /// the one member `replay_apply_ns{shard="0"}`.
    pub replay_apply_ns: LatencyHistogram,
    /// Each Persist worker's share of `persist_barrier_ns`: its per-sweep
    /// fences (index = worker; all empty under `DurabilityMode::Sync`,
    /// which spawns no worker — its inline sweeps land in
    /// `persist_barrier_ns` only).
    pub flush_worker_ns: Vec<LatencyHistogram>,
    /// Stall counters (see [`StallCounters`]).
    pub stalls: StallCounters,
}

impl Trace {
    /// Creates the layer for `flush_workers` Persist workers.
    #[must_use]
    pub fn new(config: TraceConfig, flush_workers: usize) -> Self {
        Trace {
            config,
            commit_latency_ns: LatencyHistogram::new(),
            persist_barrier_ns: LatencyHistogram::new(),
            group_flush_bytes: LatencyHistogram::new(),
            replay_apply_ns: LatencyHistogram::new(),
            flush_worker_ns: (0..flush_workers.max(1))
                .map(|_| LatencyHistogram::new())
                .collect(),
            stalls: StallCounters::default(),
        }
    }

    /// Every histogram of the layer, in catalog order: the one enumeration
    /// the snapshot and the exposition both walk.
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
                "Reproduce apply latency per run",
                Some("shard"),
                from_ref(&self.replay_apply_ns),
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
    fn disabled_trace_records_nothing() {
        let t = Trace::new(TraceConfig::disabled(), 1);
        t.stall(|s| &s.perform_log_full);
        assert_eq!(t.stalls.snapshot().perform_log_full, 0);
        assert!(!t.enabled());
    }
}
