//! Pipeline statistics and the pipeline-lag observability surface.
//!
//! Aggregate counters and watermarks live here; the richer per-event layer
//! (histograms, stall counters, the trace ring) lives in [`crate::trace`]
//! and its snapshot rides along in [`PipelineSnapshot::stalls`] and
//! [`PipelineSnapshot::histograms`]. See `DESIGN.md §Observability`.

use crate::metrics::Counter;
use crate::trace::{HistogramSnapshot, StallSnapshot};

/// Relaxed counters shared by the pipeline stages. The fields are
/// [`Counter`] handles, so the metrics registry shares the very cells the
/// stages increment — no double accounting, no extra hot-path write.
#[derive(Debug, Default)]
pub struct PipelineStats {
    pub(crate) commits: Counter,
    pub(crate) abort_markers: Counter,
    pub(crate) records_persisted: Counter,
    pub(crate) entries_logged: Counter,
    pub(crate) groups_persisted: Counter,
    pub(crate) entries_before_combine: Counter,
    pub(crate) entries_after_combine: Counter,
    pub(crate) group_bytes_raw: Counter,
    pub(crate) group_bytes_stored: Counter,
    pub(crate) txns_reproduced: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) log_bytes_flushed: Counter,
}

/// Point-in-time copy of [`PipelineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStatsSnapshot {
    /// Committed update transactions that entered the pipeline.
    pub commits: u64,
    /// Abort markers written to fill wasted-ID holes.
    pub abort_markers: u64,
    /// Individual records persisted (non-grouped mode).
    pub records_persisted: u64,
    /// Redo-log entries (one per transactional write) that reached the
    /// Persist step — the paper's "# writes" statistic (Table 1).
    pub entries_logged: u64,
    /// Groups persisted (combination mode).
    pub groups_persisted: u64,
    /// Log entries entering combination.
    pub entries_before_combine: u64,
    /// Log entries remaining after combination.
    pub entries_after_combine: u64,
    /// Group payload bytes before compression.
    pub group_bytes_raw: u64,
    /// Group payload bytes actually stored.
    pub group_bytes_stored: u64,
    /// Transactions replayed into NVM by Reproduce.
    pub txns_reproduced: u64,
    /// Durable checkpoints written by Reproduce.
    pub checkpoints: u64,
    /// Bytes appended to the persistent log rings (record framing
    /// included) — the flushed-log volume the `bytes flushed/s` telemetry
    /// rate derives from.
    pub log_bytes_flushed: u64,
}

impl PipelineStats {
    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> PipelineStatsSnapshot {
        PipelineStatsSnapshot {
            commits: self.commits.get(),
            abort_markers: self.abort_markers.get(),
            records_persisted: self.records_persisted.get(),
            entries_logged: self.entries_logged.get(),
            groups_persisted: self.groups_persisted.get(),
            entries_before_combine: self.entries_before_combine.get(),
            entries_after_combine: self.entries_after_combine.get(),
            group_bytes_raw: self.group_bytes_raw.get(),
            group_bytes_stored: self.group_bytes_stored.get(),
            txns_reproduced: self.txns_reproduced.get(),
            checkpoints: self.checkpoints.get(),
            log_bytes_flushed: self.log_bytes_flushed.get(),
        }
    }
}

impl PipelineStatsSnapshot {
    /// Counter deltas since an earlier snapshot (used to separate the
    /// measurement phase from the load phase).
    #[must_use]
    pub fn delta(&self, earlier: &PipelineStatsSnapshot) -> PipelineStatsSnapshot {
        PipelineStatsSnapshot {
            commits: self.commits - earlier.commits,
            abort_markers: self.abort_markers - earlier.abort_markers,
            records_persisted: self.records_persisted - earlier.records_persisted,
            entries_logged: self.entries_logged - earlier.entries_logged,
            groups_persisted: self.groups_persisted - earlier.groups_persisted,
            entries_before_combine: self.entries_before_combine - earlier.entries_before_combine,
            entries_after_combine: self.entries_after_combine - earlier.entries_after_combine,
            group_bytes_raw: self.group_bytes_raw - earlier.group_bytes_raw,
            group_bytes_stored: self.group_bytes_stored - earlier.group_bytes_stored,
            txns_reproduced: self.txns_reproduced - earlier.txns_reproduced,
            checkpoints: self.checkpoints - earlier.checkpoints,
            log_bytes_flushed: self.log_bytes_flushed - earlier.log_bytes_flushed,
        }
    }

    /// Fraction of log entries eliminated by combination (Figure 3's
    /// "saved NVM writes" series), 0.0 if nothing was combined.
    pub fn combine_savings(&self) -> f64 {
        if self.entries_before_combine == 0 {
            return 0.0;
        }
        1.0 - self.entries_after_combine as f64 / self.entries_before_combine as f64
    }

    /// Fraction of group payload bytes eliminated by compression.
    pub fn compression_savings(&self) -> f64 {
        if self.group_bytes_raw == 0 {
            return 0.0;
        }
        1.0 - self.group_bytes_stored as f64 / self.group_bytes_raw as f64
    }

    /// Named `(counter, value)` pairs in declaration order — the stable
    /// machine-readable export the `dude-bench` runner embeds in its
    /// `BENCH_<spec>.json` records. Keys match the field names (and the
    /// metrics-registry counter names).
    #[must_use]
    pub fn export(&self) -> [(&'static str, u64); 12] {
        [
            ("commits", self.commits),
            ("abort_markers", self.abort_markers),
            ("records_persisted", self.records_persisted),
            ("entries_logged", self.entries_logged),
            ("groups_persisted", self.groups_persisted),
            ("entries_before_combine", self.entries_before_combine),
            ("entries_after_combine", self.entries_after_combine),
            ("group_bytes_raw", self.group_bytes_raw),
            ("group_bytes_stored", self.group_bytes_stored),
            ("txns_reproduced", self.txns_reproduced),
            ("checkpoints", self.checkpoints),
            ("log_bytes_flushed", self.log_bytes_flushed),
        ]
    }
}

/// Point-in-time view of the whole decoupled pipeline: the cumulative
/// per-stage counters plus the three watermarks that define stage lag and
/// the occupancy of each persistent log ring.
///
/// The watermarks order as `reproduced <= durable <= committed`; the gaps
/// between them are how far Persist and Reproduce trail Perform (§3.2's
/// asynchrony made observable). Obtain via
/// [`DudeTm::stats_snapshot`](crate::DudeTm::stats_snapshot).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineSnapshot {
    /// Cumulative per-stage counters.
    pub counters: PipelineStatsSnapshot,
    /// Highest transaction ID the TM commit clock has handed out — the
    /// Perform stage's frontier.
    pub committed: u64,
    /// The durable watermark: every TID at or below it is persistent.
    pub durable: u64,
    /// The reproduced watermark: every TID at or below it is applied to
    /// the persistent heap image.
    pub reproduced: u64,
    /// Occupied words in each per-thread persistent log ring — the log
    /// space Reproduce has not yet recycled.
    pub ring_used_words: Vec<u64>,
    /// Per-shard completed-TID frontier of the Reproduce stage (one entry
    /// with `reproduce_threads = 1`; the serial worker mirrors its progress
    /// into slot 0). `reproduced` equals the minimum of these.
    pub shard_completed: Vec<u64>,
    /// Heap words applied by each Reproduce shard — how evenly the shard
    /// router spread the replay work.
    pub shard_words_applied: Vec<u64>,
    /// Stall counters from the observability layer (all zero when tracing
    /// is disabled — stall accounting is gated with the rest of the layer
    /// so the disabled pipeline takes no extra atomics).
    pub stalls: StallSnapshot,
    /// Every stage histogram, as `(name, snapshot)` in registry order —
    /// the three fixed histograms, then `replay_apply_ns{shard="s"}` per
    /// Reproduce shard, then `flush_worker_ns{worker="w"}` per Persist
    /// worker. Present (with zero counts) even when tracing is
    /// disabled, so [`PipelineSnapshot::summary`] always names the full
    /// catalog.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl PipelineSnapshot {
    /// Transactions committed but not yet durable (Perform → Persist lag).
    pub fn persist_lag(&self) -> u64 {
        self.committed.saturating_sub(self.durable)
    }

    /// Transactions durable but not yet reproduced (Persist → Reproduce
    /// lag); bounded log space forces this to stay finite.
    pub fn reproduce_lag(&self) -> u64 {
        self.durable.saturating_sub(self.reproduced)
    }

    /// Total occupied words across all log rings.
    pub fn ring_words_total(&self) -> u64 {
        self.ring_used_words.iter().sum()
    }

    /// The minimum per-shard completed TID — the Reproduce frontier the
    /// checkpoint keys off. 0 if no shard data was sampled.
    pub fn frontier_min(&self) -> u64 {
        self.shard_completed.iter().copied().min().unwrap_or(0)
    }

    /// Spread between the fastest and slowest Reproduce shard (0 when
    /// serial or perfectly balanced): large skew means one shard gates the
    /// watermark and log recycling.
    pub fn frontier_skew(&self) -> u64 {
        let max = self.shard_completed.iter().copied().max().unwrap_or(0);
        max - self.frontier_min()
    }

    /// Human-readable summary (bench-report friendly). Multi-line: the
    /// watermark/lag line, every stage counter (the same names as
    /// [`PipelineStatsSnapshot::export`] and the metrics registry), the
    /// shard frontier when sharded, all five stall counters, and one line
    /// per stage histogram — the summary names every pipeline metric the
    /// registry carries (asserted by `tests/metrics_layer.rs`).
    pub fn summary(&self) -> String {
        let c = &self.counters;
        let mut line = format!(
            "committed={} durable={} (lag {}) reproduced={} (lag {}) ring-words={}",
            self.committed,
            self.durable,
            self.persist_lag(),
            self.reproduced,
            self.reproduce_lag(),
            self.ring_words_total(),
        );
        line.push_str(&format!(
            "\ncounters[commits={} abort_markers={} records_persisted={} \
             entries_logged={} groups_persisted={} entries_before_combine={} \
             entries_after_combine={} group_bytes_raw={} group_bytes_stored={} \
             txns_reproduced={} checkpoints={} log_bytes_flushed={}]",
            c.commits,
            c.abort_markers,
            c.records_persisted,
            c.entries_logged,
            c.groups_persisted,
            c.entries_before_combine,
            c.entries_after_combine,
            c.group_bytes_raw,
            c.group_bytes_stored,
            c.txns_reproduced,
            c.checkpoints,
            c.log_bytes_flushed,
        ));
        if self.shard_completed.len() > 1 {
            line.push_str(&format!(
                " shards={} frontier-min={} frontier-skew={}",
                self.shard_completed.len(),
                self.frontier_min(),
                self.frontier_skew()
            ));
        }
        line.push_str(&format!(
            " stalls[log-full={} ring-full={} seq-wait={} starved={} ckpt-wait={}]",
            self.stalls.perform_log_full,
            self.stalls.persist_ring_full,
            self.stalls.persist_seq_wait,
            self.stalls.reproduce_starved,
            self.stalls.checkpoint_wait,
        ));
        for (name, h) in &self.histograms {
            line.push_str(&format!(
                "\nhist[{} count={} p50={} p95={} p99={} max={}]",
                name,
                h.count,
                h.p50(),
                h.p95(),
                h.p99(),
                h.max,
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_math() {
        let s = PipelineStatsSnapshot {
            entries_before_combine: 100,
            entries_after_combine: 25,
            group_bytes_raw: 1000,
            group_bytes_stored: 310,
            ..Default::default()
        };
        assert!((s.combine_savings() - 0.75).abs() < 1e-9);
        assert!((s.compression_savings() - 0.69).abs() < 1e-9);
        assert_eq!(PipelineStatsSnapshot::default().combine_savings(), 0.0);
        assert_eq!(PipelineStatsSnapshot::default().compression_savings(), 0.0);
    }

    #[test]
    fn snapshot_copies_counters() {
        use std::sync::atomic::Ordering;
        let s = PipelineStats::default();
        s.commits.store(5, Ordering::Relaxed);
        s.txns_reproduced.store(3, Ordering::Relaxed);
        s.log_bytes_flushed.store(64, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 5);
        assert_eq!(snap.txns_reproduced, 3);
        assert_eq!(snap.log_bytes_flushed, 64);
    }

    #[test]
    fn export_names_match_fields() {
        let snap = PipelineStatsSnapshot {
            commits: 1,
            log_bytes_flushed: 2,
            ..Default::default()
        };
        let export = snap.export();
        assert_eq!(export.len(), 12);
        assert_eq!(export[0], ("commits", 1));
        assert_eq!(export[11], ("log_bytes_flushed", 2));
    }

    #[test]
    fn pipeline_snapshot_lag_math() {
        let snap = PipelineSnapshot {
            committed: 100,
            durable: 90,
            reproduced: 70,
            ring_used_words: vec![12, 0, 8],
            ..Default::default()
        };
        assert_eq!(snap.persist_lag(), 10);
        assert_eq!(snap.reproduce_lag(), 20);
        assert_eq!(snap.ring_words_total(), 20);
        let line = snap.summary();
        assert!(line.contains("committed=100"), "{line}");
        assert!(line.contains("(lag 10)"), "{line}");
        assert!(line.contains("ring-words=20"), "{line}");
    }

    #[test]
    fn summary_prints_every_export_counter() {
        let snap = PipelineSnapshot::default();
        let line = snap.summary();
        for (name, _) in snap.counters.export() {
            assert!(line.contains(&format!("{name}=")), "{name} missing: {line}");
        }
    }

    #[test]
    fn summary_prints_histogram_lines() {
        let snap = PipelineSnapshot {
            histograms: vec![
                (
                    "commit_latency_ns".to_string(),
                    HistogramSnapshot::default(),
                ),
                (
                    "flush_worker_ns{worker=\"1\"}".to_string(),
                    HistogramSnapshot {
                        buckets: vec![0; 65],
                        count: 4,
                        sum: 40,
                        max: 17,
                    },
                ),
            ],
            ..Default::default()
        };
        let line = snap.summary();
        assert!(line.contains("hist[commit_latency_ns count=0"), "{line}");
        assert!(
            line.contains("hist[flush_worker_ns{worker=\"1\"} count=4"),
            "{line}"
        );
        assert!(line.contains("max=17]"), "{line}");
    }

    #[test]
    fn frontier_math_and_shard_summary() {
        let snap = PipelineSnapshot {
            reproduced: 70,
            shard_completed: vec![75, 70, 82, 71],
            shard_words_applied: vec![100, 90, 120, 95],
            ..Default::default()
        };
        assert_eq!(snap.frontier_min(), 70);
        assert_eq!(snap.frontier_skew(), 12);
        let line = snap.summary();
        assert!(line.contains("shards=4"), "{line}");
        assert!(line.contains("frontier-min=70"), "{line}");
        assert!(line.contains("frontier-skew=12"), "{line}");
        // Serial snapshots stay terse.
        let serial = PipelineSnapshot {
            shard_completed: vec![70],
            ..Default::default()
        };
        assert!(!serial.summary().contains("shards="));
        assert_eq!(serial.frontier_skew(), 0);
    }

    #[test]
    fn summary_always_prints_all_five_stall_counters() {
        let snap = PipelineSnapshot {
            stalls: StallSnapshot {
                perform_log_full: 3,
                persist_ring_full: 1,
                persist_seq_wait: 4,
                reproduce_starved: 7,
                checkpoint_wait: 2,
            },
            ..Default::default()
        };
        let line = snap.summary();
        assert!(line.contains("log-full=3"), "{line}");
        assert!(line.contains("ring-full=1"), "{line}");
        assert!(line.contains("seq-wait=4"), "{line}");
        assert!(line.contains("starved=7"), "{line}");
        assert!(line.contains("ckpt-wait=2"), "{line}");
        // Zero stalls still print (so readers can see nothing stalled).
        let quiet = PipelineSnapshot::default().summary();
        assert!(quiet.contains("log-full=0"), "{quiet}");
    }

    #[test]
    fn pipeline_snapshot_lag_saturates() {
        // Watermarks are sampled racily; a momentarily inverted pair must
        // not wrap around.
        let snap = PipelineSnapshot {
            committed: 5,
            durable: 7,
            reproduced: 9,
            ..Default::default()
        };
        assert_eq!(snap.persist_lag(), 0);
        assert_eq!(snap.reproduce_lag(), 0);
    }
}
