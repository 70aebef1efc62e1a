//! Runtime configuration.

use crate::metrics::MetricsConfig;
use crate::shadow::ShadowConfig;
use crate::trace::TraceConfig;

/// How a committed transaction reaches durability (the evaluated system
/// variants of §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// The standard decoupled pipeline: each Perform thread appends its
    /// redo logs to its own volatile redo ring, which background Persist
    /// threads drain; Perform blocks only when the ring is full ("DudeTM").
    Async {
        /// Volatile redo-ring capacity, in transactions per thread (the
        /// paper uses one million log *entries*). A transaction's space is
        /// freed once it is reproduced, not when Persist takes it, so this
        /// bounds the transactions a thread may have committed but not yet
        /// reproduced — whatever their size.
        buffer_txns: usize,
    },
    /// As `Async` but with no cap on the redo ring, so Perform never blocks
    /// ("DudeTM-Inf").
    AsyncUnbounded,
    /// Perform flushes its own redo log and waits for durability before
    /// returning ("DudeTM-Sync": the first two steps merged).
    Sync,
}

/// A [`DudeTmConfig`] consistency violation, returned by
/// [`DudeTmConfig::try_validate`].
///
/// Each variant names the offending field(s); the [`std::fmt::Display`]
/// impl carries the full explanation, including the paper-section
/// references for the pipeline-shape rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `heap_bytes` is zero or not a multiple of the 4 KiB page size.
    HeapBytes {
        /// The rejected value.
        heap_bytes: u64,
    },
    /// `plog_bytes_per_thread` is below the 4 KiB minimum.
    PlogTooSmall {
        /// The rejected value.
        plog_bytes_per_thread: u64,
    },
    /// `max_threads` is outside `1..=256`.
    MaxThreads {
        /// The rejected value.
        max_threads: usize,
    },
    /// `persist_group` is zero.
    NoPersistGroup,
    /// `checkpoint_every` is zero.
    NoCheckpointCadence,
    /// `reproduce_threads` is not 1.
    ReproduceThreads {
        /// The rejected value.
        reproduce_threads: usize,
    },
    /// `compress_groups` set with `persist_group == 1` — a silent no-op.
    CompressionWithoutGrouping,
    /// `persist_group > 1` combined with [`DurabilityMode::Sync`].
    GroupingWithSync,
    /// `persist_flush_workers` is zero.
    NoFlushWorkers,
    /// `persist_flush_workers > 1` combined with [`DurabilityMode::Sync`].
    FlushWorkersWithSync,
    /// `persist_flush_workers` exceeds `max_threads` (there are only
    /// `max_threads` per-thread redo rings and log rings to hand out).
    FlushWorkersExceedMaxThreads {
        /// The rejected `persist_flush_workers` value.
        persist_flush_workers: usize,
        /// The ring-count limit it exceeded.
        max_threads: usize,
    },
    /// [`DurabilityMode::Async`] with a zero-capacity buffer.
    EmptyAsyncBuffer,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::HeapBytes { heap_bytes } => write!(
                f,
                "heap_bytes must be a positive multiple of 4096, got {heap_bytes}"
            ),
            ConfigError::PlogTooSmall {
                plog_bytes_per_thread,
            } => write!(
                f,
                "plog_bytes_per_thread must be at least 4096, got {plog_bytes_per_thread}"
            ),
            ConfigError::MaxThreads { max_threads } => {
                write!(f, "max_threads must be in 1..=256, got {max_threads}")
            }
            ConfigError::NoPersistGroup => f.write_str("persist_group must be at least 1"),
            ConfigError::NoCheckpointCadence => f.write_str("checkpoint_every must be at least 1"),
            ConfigError::ReproduceThreads { reproduce_threads } => write!(
                f,
                "reproduce_threads must be 1 (Reproduce is one step), got {reproduce_threads}"
            ),
            ConfigError::CompressionWithoutGrouping => f.write_str(
                "compress_groups has no effect without log combination: \
                 compression runs on combined groups only (§3.3), so \
                 persist_group must be > 1 when compress_groups is set \
                 (got persist_group = 1)",
            ),
            ConfigError::GroupingWithSync => {
                f.write_str("log combination requires the asynchronous pipeline (§3.3)")
            }
            ConfigError::NoFlushWorkers => f.write_str("persist_flush_workers must be at least 1"),
            ConfigError::FlushWorkersWithSync => {
                f.write_str("persist_flush_workers must be 1 under DurabilityMode::Sync")
            }
            ConfigError::FlushWorkersExceedMaxThreads {
                persist_flush_workers,
                max_threads,
            } => write!(
                f,
                "persist_flush_workers must not exceed max_threads: there are \
                 only {max_threads} per-thread redo rings and log rings to hand \
                 out, got {persist_flush_workers}"
            ),
            ConfigError::EmptyAsyncBuffer => {
                f.write_str("DurabilityMode::Async requires buffer_txns >= 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a [`crate::DudeTm`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DudeTmConfig {
    /// Persistent heap size in bytes (multiple of the 4 KiB page size).
    pub heap_bytes: u64,
    /// Persistent redo-log ring size per Perform thread, in bytes.
    pub plog_bytes_per_thread: u64,
    /// Maximum number of Perform threads (log regions are preallocated).
    pub max_threads: usize,
    /// Durability variant.
    pub durability: DurabilityMode,
    /// Cross-transaction log combination: group this many *consecutive*
    /// transactions and coalesce writes to the same address before flushing
    /// (§3.3). `1` disables grouping.
    pub persist_group: usize,
    /// Number of Persist workers (asynchronous modes; the paper finds one
    /// is typically enough, §3.3). Workers serialize, optionally compress,
    /// write, fence, and publish durability out of commit order. Ungrouped,
    /// the `max_threads` per-thread redo rings are partitioned across them;
    /// with `persist_group > 1` they share one input that cuts dense groups
    /// from every ring, each worker takes the next group, and worker `w`
    /// owns log ring `w`. Either way the value
    /// is capped by `max_threads`. Must be 1 under [`DurabilityMode::Sync`]:
    /// there each committing thread is its own redo ring's Persist worker,
    /// running the same pass right after its commit.
    pub persist_flush_workers: usize,
    /// Compress grouped logs with the LZ77 codec before flushing (§3.3).
    /// Only applies when `persist_group > 1`.
    pub compress_groups: bool,
    /// Reproduce checkpoints (and recycles log space) every this many
    /// replayed transactions.
    pub checkpoint_every: u64,
    /// Must be 1: each run is applied in place, in the Reproduce step of
    /// whichever thread closes a TID gap (no thread of its own), as the
    /// paper's one replayer (§3.4). Kept for the builder the benchmark
    /// package calls.
    pub reproduce_threads: usize,
    /// Shadow-memory configuration.
    pub shadow: ShadowConfig,
    /// Observability-layer configuration (stage histograms and stall
    /// counters — see [`crate::trace`]). Disabled by default; when disabled
    /// the pipeline's observable behavior is identical to a build without
    /// the layer.
    pub trace: TraceConfig,
    /// Continuous-telemetry configuration (background sampler, frame ring,
    /// Prometheus exposition — see [`crate::metrics`]). Disabled by
    /// default; when disabled no sampler thread is spawned and the hot
    /// paths pay one branch.
    pub metrics: MetricsConfig,
}

impl DudeTmConfig {
    /// A small configuration for functional tests: identity shadow, modest
    /// buffers, combination off.
    pub fn small(heap_bytes: u64) -> Self {
        DudeTmConfig {
            heap_bytes,
            plog_bytes_per_thread: 1 << 20,
            max_threads: 8,
            durability: DurabilityMode::Async { buffer_txns: 1024 },
            persist_group: 1,
            persist_flush_workers: 1,
            compress_groups: false,
            checkpoint_every: 16,
            reproduce_threads: 1,
            shadow: ShadowConfig::Identity,
            trace: TraceConfig::disabled(),
            metrics: MetricsConfig::disabled(),
        }
    }

    /// Switches the observability-layer configuration.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Switches the continuous-telemetry configuration.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets `reproduce_threads`, which validation requires to be 1.
    #[must_use]
    pub fn with_reproduce_threads(mut self, threads: usize) -> Self {
        self.reproduce_threads = threads;
        self
    }

    /// Switches the durability mode.
    #[must_use]
    pub fn with_durability(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        self
    }

    /// Enables log combination with the given group size, optionally with
    /// compression.
    #[must_use]
    pub fn with_grouping(mut self, group: usize, compress: bool) -> Self {
        self.persist_group = group;
        self.compress_groups = compress;
        self
    }

    /// Sets the number of Persist workers.
    #[must_use]
    pub fn with_flush_workers(mut self, workers: usize) -> Self {
        self.persist_flush_workers = workers;
        self
    }

    /// Switches the shadow configuration.
    #[must_use]
    pub fn with_shadow(mut self, shadow: ShadowConfig) -> Self {
        self.shadow = shadow;
        self
    }

    /// Validates internal consistency, returning a typed error instead of
    /// panicking — the entry point for drivers (benchmarks, examples) that
    /// want to report a bad configuration rather than abort.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, checked in field order and then
    /// combination order.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.heap_bytes == 0 || !self.heap_bytes.is_multiple_of(4096) {
            return Err(ConfigError::HeapBytes {
                heap_bytes: self.heap_bytes,
            });
        }
        if self.plog_bytes_per_thread < 4096 {
            return Err(ConfigError::PlogTooSmall {
                plog_bytes_per_thread: self.plog_bytes_per_thread,
            });
        }
        if !(1..=256).contains(&self.max_threads) {
            return Err(ConfigError::MaxThreads {
                max_threads: self.max_threads,
            });
        }
        if self.persist_group == 0 {
            return Err(ConfigError::NoPersistGroup);
        }
        if self.checkpoint_every == 0 {
            return Err(ConfigError::NoCheckpointCadence);
        }
        if self.reproduce_threads != 1 {
            return Err(ConfigError::ReproduceThreads {
                reproduce_threads: self.reproduce_threads,
            });
        }
        // Compression only ever runs on *combined groups* (§3.3). With
        // persist_group == 1 no unit is a group, so compress_groups would
        // be silently ignored — reject the no-op combination instead of
        // letting a benchmark believe it measured compression.
        if self.compress_groups && self.persist_group == 1 {
            return Err(ConfigError::CompressionWithoutGrouping);
        }
        if self.persist_group > 1 && matches!(self.durability, DurabilityMode::Sync) {
            return Err(ConfigError::GroupingWithSync);
        }
        if self.persist_flush_workers == 0 {
            return Err(ConfigError::NoFlushWorkers);
        }
        if self.persist_flush_workers > 1 && matches!(self.durability, DurabilityMode::Sync) {
            return Err(ConfigError::FlushWorkersWithSync);
        }
        // Ungrouped, a worker beyond the `max_threads` per-thread redo rings
        // would have no input; grouped, each worker appends to its own
        // preallocated log ring (so per-ring span release stays in append
        // order), and there are exactly `max_threads` rings.
        if self.persist_flush_workers > self.max_threads {
            return Err(ConfigError::FlushWorkersExceedMaxThreads {
                persist_flush_workers: self.persist_flush_workers,
                max_threads: self.max_threads,
            });
        }
        if matches!(self.durability, DurabilityMode::Async { buffer_txns: 0 }) {
            return Err(ConfigError::EmptyAsyncBuffer);
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on invalid combinations;
    /// [`DudeTmConfig::try_validate`] is the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid DudeTmConfig: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        DudeTmConfig::small(1 << 20).validate();
    }

    #[test]
    fn builders_compose() {
        let c = DudeTmConfig::small(1 << 20)
            .with_durability(DurabilityMode::AsyncUnbounded)
            .with_grouping(100, true);
        assert_eq!(c.durability, DurabilityMode::AsyncUnbounded);
        assert_eq!(c.persist_group, 100);
        assert!(c.compress_groups);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "asynchronous pipeline")]
    fn grouping_with_sync_rejected() {
        DudeTmConfig::small(1 << 20)
            .with_durability(DurabilityMode::Sync)
            .with_grouping(10, false)
            .validate();
    }

    #[test]
    fn flush_workers_builder_composes() {
        let c = DudeTmConfig::small(1 << 20)
            .with_grouping(8, true)
            .with_flush_workers(4);
        assert_eq!(c.persist_flush_workers, 4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "persist_flush_workers must be at least 1")]
    fn zero_flush_workers_rejected() {
        DudeTmConfig::small(1 << 20)
            .with_flush_workers(0)
            .validate();
    }

    #[test]
    #[should_panic(expected = "must not exceed max_threads")]
    fn flush_workers_beyond_ring_count_rejected() {
        let mut c = DudeTmConfig::small(1 << 20).with_grouping(8, false);
        c.max_threads = 2;
        c.persist_flush_workers = 3;
        c.validate();
    }

    #[test]
    fn reproduce_threads_builder_composes() {
        let c = DudeTmConfig::small(1 << 20)
            .with_reproduce_threads(1)
            .with_durability(DurabilityMode::AsyncUnbounded);
        assert_eq!(c.reproduce_threads, 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "reproduce_threads must be 1")]
    fn zero_reproduce_threads_rejected() {
        DudeTmConfig::small(1 << 20)
            .with_reproduce_threads(0)
            .validate();
    }

    #[test]
    #[should_panic(expected = "compress_groups has no effect without log combination")]
    fn compression_without_grouping_rejected() {
        let mut c = DudeTmConfig::small(1 << 20);
        c.compress_groups = true; // persist_group stays 1: a silent no-op
        c.validate();
    }

    #[test]
    fn trace_builder_composes() {
        let c = DudeTmConfig::small(1 << 20).with_trace(TraceConfig::enabled(4096));
        assert!(c.trace.enabled);
        c.validate();
    }

    #[test]
    fn metrics_builder_composes() {
        let c = DudeTmConfig::small(1 << 20).with_metrics(MetricsConfig::sampling(
            std::time::Duration::from_millis(10),
        ));
        assert!(c.metrics.enabled);
        assert_eq!(
            c.metrics.sample_interval,
            std::time::Duration::from_millis(10)
        );
        c.validate();
        assert!(!DudeTmConfig::small(1 << 20).metrics.enabled);
    }

    #[test]
    #[should_panic]
    fn unaligned_heap_rejected() {
        let mut c = DudeTmConfig::small(1 << 20);
        c.heap_bytes = 1000;
        c.validate();
    }

    #[test]
    fn try_validate_accepts_valid_config() {
        assert_eq!(DudeTmConfig::small(1 << 20).try_validate(), Ok(()));
    }

    #[test]
    fn try_validate_returns_typed_errors() {
        let mut c = DudeTmConfig::small(1 << 20);
        c.heap_bytes = 1000;
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::HeapBytes { heap_bytes: 1000 })
        );

        let mut c = DudeTmConfig::small(1 << 20);
        c.plog_bytes_per_thread = 8;
        assert!(matches!(
            c.try_validate(),
            Err(ConfigError::PlogTooSmall { .. })
        ));

        let c = DudeTmConfig::small(1 << 20)
            .with_durability(DurabilityMode::Sync)
            .with_grouping(8, false);
        assert_eq!(c.try_validate(), Err(ConfigError::GroupingWithSync));

        let mut c = DudeTmConfig::small(1 << 20).with_grouping(8, false);
        c.persist_flush_workers = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::NoFlushWorkers));

        let mut c = DudeTmConfig::small(1 << 20).with_grouping(8, false);
        c.max_threads = 4;
        c.persist_flush_workers = 5;
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::FlushWorkersExceedMaxThreads {
                persist_flush_workers: 5,
                max_threads: 4,
            })
        );

        let mut c = DudeTmConfig::small(1 << 20);
        c.compress_groups = true;
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::CompressionWithoutGrouping)
        );

        let c =
            DudeTmConfig::small(1 << 20).with_durability(DurabilityMode::Async { buffer_txns: 0 });
        assert_eq!(c.try_validate(), Err(ConfigError::EmptyAsyncBuffer));
    }

    #[test]
    fn config_error_display_carries_section_reference() {
        let msg = ConfigError::CompressionWithoutGrouping.to_string();
        assert!(msg.contains("§3.3"), "missing §-reference: {msg}");
    }
}
