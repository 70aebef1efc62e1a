//! The metrics catalog: every counter, stall, gauge and recovery cell of
//! the pipeline, declared once.
//!
//! Each `cells!` block below is the single declaration of a group of
//! cells. It yields the live struct of relaxed atomics the stages
//! increment, the public snapshot struct with the same named fields, and an
//! ordered walk of `(definition, value)` pairs. One crate-private function,
//! `snapshot(&Shared, committed)`, gathers a [`PipelineSnapshot`];
//! `summary()`, the JSONL frames and the Prometheus exposition all render
//! by walking it, so a new cell is one line here plus its `fetch_add`. The histograms are enumerated the same way by
//! [`Trace::histograms`](crate::trace::Trace::histograms). The catalog
//! table is in `DESIGN.md §Observability`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::runtime::Shared;
use crate::trace::HistogramSnapshot;

/// Whether a cell only ever grows or reports a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing; `_total` in the exposition.
    Counter,
    /// A level that can fall.
    Gauge,
}

/// The static half of one catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDef {
    /// The struct field (what `summary()` prints).
    pub field: &'static str,
    /// Group prefix + field: the key in a JSONL frame.
    pub name: &'static str,
    /// Prometheus family stem, rendered as `dudetm_<metric>`; equals `name`
    /// except for the three watermark gauges, which carry a `_tid` suffix.
    pub metric: &'static str,
    /// One-line meaning: the field's doc string and the `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
}

/// Declares one group of cells. `live Name;` adds the struct of atomics
/// (with `snapshot()` and `delta()`); without it only the value struct is
/// generated, for cells computed at read time. In a live group, cells
/// listed under a leading `@derived { … }` get no atomic: they are counted
/// elsewhere, and the live `snapshot()` takes their values as arguments.
macro_rules! cells {
    (@metric $prefix:literal $field:ident) => { concat!($prefix, stringify!($field)) };
    (@metric $prefix:literal $field:ident $metric:literal) => { $metric };
    (
        $(#[$meta:meta])*
        snapshot $Snap:ident, prefix $prefix:literal {
            $( $kind:ident $field:ident $(as $metric:literal)? : $help:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $Snap {
            $( #[doc = $help] pub $field: u64, )*
        }

        impl $Snap {
            /// The cells of this group, in declaration order.
            pub const CELLS: &'static [CellDef] = &[
                $( CellDef {
                    field: stringify!($field),
                    name: concat!($prefix, stringify!($field)),
                    metric: cells!(@metric $prefix $field $($metric)?),
                    help: $help,
                    kind: Kind::$kind,
                }, )*
            ];

            /// Every cell's definition with its value, in declaration order.
            pub fn cells(&self) -> impl Iterator<Item = (&'static CellDef, u64)> {
                Self::CELLS.iter().zip([$( self.$field, )*])
            }

            /// Rebuilds the group from a lookup by [`CellDef::name`];
            /// `None` if any cell is missing.
            pub fn from_keys(get: impl Fn(&str) -> Option<u64>) -> Option<Self> {
                Some(Self { $( $field: get(concat!($prefix, stringify!($field)))?, )* })
            }
        }

        /// `field=value` for every cell, space-separated, zeros included.
        impl std::fmt::Display for $Snap {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let cells: Vec<String> =
                    self.cells().map(|(c, v)| format!("{}={v}", c.field)).collect();
                f.write_str(&cells.join(" "))
            }
        }
    };
    (
        $(#[$live_meta:meta])*
        live $Live:ident;
        $(#[$meta:meta])*
        snapshot $Snap:ident, prefix $prefix:literal {
            $( @derived { $( $dkind:ident $dfield:ident : $dhelp:literal, )* } )?
            $( $kind:ident $field:ident $(as $metric:literal)? : $help:literal, )*
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $( #[doc = $help] pub $field: AtomicU64, )*
        }

        impl $Live {
            /// The live cells, in declaration order.
            #[cfg(test)]
            pub(crate) fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
                [$( &self.$field, )*].into_iter()
            }

            /// Takes a point-in-time copy, with the derived cells' values.
            pub fn snapshot(&self $($(, $dfield: u64)*)?) -> $Snap {
                $Snap {
                    $($( $dfield, )*)?
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                }
            }
        }

        cells! {
            $(#[$meta])*
            snapshot $Snap, prefix $prefix {
                $($( $dkind $dfield : $dhelp, )*)?
                $( $kind $field $(as $metric)? : $help, )*
            }
        }

        impl $Snap {
            /// Growth since an earlier snapshot (used to separate the
            /// measurement phase from the load phase).
            #[must_use]
            pub fn delta(&self, earlier: &Self) -> Self {
                Self {
                    $($( $dfield: self.$dfield - earlier.$dfield, )*)?
                    $( $field: self.$field - earlier.$field, )*
                }
            }
        }
    };
}

cells! {
    /// Relaxed counters the Persist and Reproduce stages increment. The
    /// Perform side's two counts are not here: each redo ring's producer
    /// publishes its own and a snapshot sums them, so a commit takes no
    /// locked increment on a line the pipeline's threads write.
    live PipelineStats;
    /// Point-in-time copy of [`PipelineStats`].
    snapshot PipelineStatsSnapshot, prefix "" {
        @derived {
            Counter commits: "Committed update transactions that entered the pipeline.",
            Counter abort_markers: "Abort markers written to fill wasted-ID holes.",
        }
        Counter records_persisted: "Individual records persisted (ungrouped and sync modes).",
        Counter entries_logged: "Redo-log entries (one per transactional write, before combination) that reached Persist: the paper's '# writes' (Table 1).",
        Counter groups_persisted: "Groups persisted (combination mode).",
        Counter entries_after_combine: "Log entries remaining after combination (distinct words per unit), every unit counted.",
        Counter group_bytes_raw: "Group payload bytes before compression.",
        Counter group_bytes_stored: "Group payload bytes actually stored.",
        Counter txns_reproduced: "Transactions replayed into NVM by Reproduce.",
        Counter checkpoints: "Durable reproduced-ID checkpoints written by Reproduce.",
        Counter log_bytes_flushed: "Bytes appended to the persistent log rings, record framing included.",
    }
}

cells! {
    /// The ways a pipeline stage blocks, counted only when tracing is
    /// enabled (one branch otherwise).
    live StallCounters;
    /// Point-in-time copy of [`StallCounters`] (all zero when tracing is
    /// disabled).
    snapshot StallSnapshot, prefix "stall_" {
        Counter perform_log_full: "Commits that found their redo ring at its Async buffer_txns cap and parked until Reproduce freed space.",
        Counter persist_ring_full: "Units parked because a persistent log ring had no space Reproduce had recycled.",
        Counter persist_seq_wait: "Persist workers' parks on the grouped input with records stashed behind a transaction-ID gap (grouped mode).",
        Counter reproduce_starved: "Always 0: Reproduce is a step with no idle loop to starve (kept for the benchmark package).",
    }
}

cells! {
    /// Phase gauge and progress counters updated by
    /// [`crate::recover_device_observed`] while a recovery runs, so a long
    /// recovery is observable instead of silent. The recovery entry points
    /// on [`crate::DudeTm`] move the struct into the restarted runtime, so a
    /// post-recovery scrape shows what the recovery did.
    live RecoveryTelemetry;
    /// Point-in-time copy of [`RecoveryTelemetry`].
    snapshot RecoverySnapshot, prefix "recovery_" {
        Gauge phase: "Recovery phase (0 idle, 1 scan, 2 replay, 3 wipe, 4 done).",
        Counter records_scanned: "Intact log records found by the scan.",
        Counter bytes_scanned: "Log-region bytes scanned.",
        Counter txns_replayed: "Transaction IDs replayed into the heap image.",
        Counter bytes_replayed: "Heap bytes written by replay.",
        Counter records_discarded: "Transactions discarded beyond the first ID gap.",
        Counter stale_skipped: "Stale detached records skipped.",
        Counter bytes_wiped: "Log bytes wiped after replay.",
    }
}

cells! {
    /// The gauges: levels computed from a [`PipelineSnapshot`] when read
    /// ([`PipelineSnapshot::watermarks`]), never stored.
    snapshot Watermarks, prefix "" {
        Gauge committed as "committed_tid": "Highest transaction ID committed (the Perform frontier).",
        Gauge durable as "durable_tid": "Durable watermark: every ID at or below it is persistent.",
        Gauge reproduced as "reproduced_tid": "Reproduced watermark: every ID at or below it is applied to the heap image.",
        Gauge persist_lag: "Committed minus durable transaction IDs.",
        Gauge reproduce_lag: "Durable minus reproduced transaction IDs.",
        Gauge ring_used_words: "Occupied words across all persistent log rings.",
    }
}

impl PipelineStatsSnapshot {
    /// Fraction of log entries eliminated by combination (Figure 3's
    /// "saved NVM writes" series), 0.0 if nothing was combined. Every unit
    /// is combined (a lone commit is a group of one), so the entries going
    /// in are the ones logged.
    pub fn combine_savings(&self) -> f64 {
        if self.entries_logged == 0 {
            return 0.0;
        }
        1.0 - self.entries_after_combine as f64 / self.entries_logged as f64
    }

    /// Fraction of group payload bytes eliminated by compression.
    pub fn compression_savings(&self) -> f64 {
        if self.group_bytes_raw == 0 {
            return 0.0;
        }
        1.0 - self.group_bytes_stored as f64 / self.group_bytes_raw as f64
    }
}

/// Point-in-time view of the whole decoupled pipeline: every catalog cell
/// plus the per-ring detail the gauges are computed from.
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
    /// Stall counters (all zero when tracing is disabled — stall accounting
    /// is gated with the rest of the trace layer so the disabled pipeline
    /// takes no extra atomics).
    pub stalls: StallSnapshot,
    /// Every stage histogram, as `(name, snapshot)` in catalog order — the
    /// four fixed histograms, then `replay_apply_ns{shard="0"}`, then
    /// `flush_worker_ns{worker="w"}` per Persist
    /// worker. Present (with zero counts) even when tracing is disabled, so
    /// [`PipelineSnapshot::summary`] always names the full catalog.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// What the recovery that started this runtime did (all zero after a
    /// fresh format).
    pub recovery: RecoverySnapshot,
}

/// The counters, with `commits` and `abort_markers` summed over the redo
/// rings' producers. Each ring's counts only grow, so successive reads
/// never go backwards.
pub(crate) fn counters(shared: &Shared) -> PipelineStatsSnapshot {
    let (commits, aborts) = shared.redo.iter().fold((0, 0), |(c, a), ring| {
        (c + ring.commits(), a + ring.aborts())
    });
    shared.stats.snapshot(commits, aborts)
}

/// Gathers the one snapshot every reporting surface renders from.
/// `committed` is the Perform frontier as the caller knows it: the TM
/// commit clock for [`DudeTm::stats_snapshot`](crate::DudeTm::stats_snapshot),
/// the committed high-water cell for the sampler and the scrape endpoint.
/// The watermarks are read independently (racily) — exact after `quiesce`.
pub(crate) fn snapshot(shared: &Shared, committed: u64) -> PipelineSnapshot {
    PipelineSnapshot {
        counters: counters(shared),
        committed,
        durable: shared.durable.get(),
        reproduced: shared.reproduced.load(Ordering::SeqCst),
        ring_used_words: shared.rings.iter().map(|r| r.used_words()).collect(),
        stalls: shared.trace.stalls.snapshot(),
        histograms: shared
            .trace
            .histograms()
            .map(|h| (h.name(), h.cells.snapshot()))
            .collect(),
        recovery: shared.recovery.snapshot(),
    }
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

    /// The gauges, computed now from the fields above.
    pub fn watermarks(&self) -> Watermarks {
        Watermarks {
            committed: self.committed,
            durable: self.durable,
            reproduced: self.reproduced,
            persist_lag: self.persist_lag(),
            reproduce_lag: self.reproduce_lag(),
            ring_used_words: self.ring_words_total(),
        }
    }

    /// Human-readable summary (bench-report friendly). Multi-line: the
    /// watermark/lag line, every stage counter, every stall counter (zeros included, so readers can see
    /// nothing stalled), and one line per stage histogram. The counter and
    /// stall blocks print the catalog's field names.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "committed={} durable={} (lag {}) reproduced={} (lag {}) ring-words={}",
            self.committed,
            self.durable,
            self.persist_lag(),
            self.reproduced,
            self.reproduce_lag(),
            self.ring_words_total(),
        );
        line.push_str(&format!("\ncounters[{}]", self.counters));
        line.push_str(&format!(" stalls[{}]", self.stalls));
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
            entries_logged: 100,
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
        let s = PipelineStats::default();
        s.txns_reproduced.store(3, Ordering::Relaxed);
        s.log_bytes_flushed.store(64, Ordering::Relaxed);
        let snap = s.snapshot(5, 2);
        assert_eq!((snap.commits, snap.abort_markers), (5, 2));
        assert_eq!(snap.txns_reproduced, 3);
        assert_eq!(snap.log_bytes_flushed, 64);
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
    fn summary_always_prints_all_four_stall_counters() {
        let snap = PipelineSnapshot {
            stalls: StallSnapshot {
                perform_log_full: 3,
                persist_ring_full: 1,
                persist_seq_wait: 4,
                reproduce_starved: 7,
            },
            ..Default::default()
        };
        let line = snap.summary();
        assert!(line.contains("perform_log_full=3"), "{line}");
        assert!(line.contains("persist_ring_full=1"), "{line}");
        assert!(line.contains("persist_seq_wait=4"), "{line}");
        assert!(line.contains("reproduce_starved=7"), "{line}");
        // Zero stalls still print (so readers can see nothing stalled).
        let quiet = PipelineSnapshot::default().summary();
        assert!(quiet.contains("perform_log_full=0"), "{quiet}");
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
