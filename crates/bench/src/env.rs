//! Shared experiment parameters.

use dude_workloads::LatencyMode;
use dudetm::{DurabilityMode, MetricsConfig, ShadowConfig, TraceConfig};

/// Parameters shared by all experiments; per-experiment binaries override
/// individual fields.
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    /// Persistent heap size in bytes.
    pub heap_bytes: u64,
    /// Per-thread persistent log ring, in bytes.
    pub plog_bytes: u64,
    /// Worker threads (the paper's default measurement uses 4).
    pub threads: usize,
    /// Modeled NVM bandwidth in GB/s (Figure 2 sweeps 1–16).
    pub bandwidth_gb: u64,
    /// Modeled persist latency in cycles at 3.4 GHz (paper: 1000 / 3500).
    pub latency_cycles: u64,
    /// Volatile redo-log buffer, in transactions per thread.
    pub vlog_txns: usize,
    /// Total operations per cell (split evenly across threads).
    pub ops: u64,
    /// DudeTM durability mode for [`crate::SystemKind::Dude`].
    pub durability: DurabilityMode,
    /// Log-combination group size (1 = off).
    pub persist_group: usize,
    /// Compress combined groups.
    pub compress: bool,
    /// Shadow-memory configuration.
    pub shadow: ShadowConfig,
    /// Latency accounting.
    pub latency_mode: LatencyMode,
    /// RNG seed.
    pub seed: u64,
    /// Observability layer (histograms and stall counters).
    /// Disabled by default so measured throughput carries no recording
    /// overhead; `--trace-out` in the ablation binary enables it.
    pub trace: TraceConfig,
    /// Continuous metrics sampling. Disabled by default for the same
    /// reason as `trace`; `--metrics-out` on `dude-bench run` (and the
    /// `dude-top` live monitor) enable it.
    pub metrics: MetricsConfig,
}

impl BenchEnv {
    /// The paper's base configuration scaled to this container
    /// (1 GB/s NVM, 1000-cycle latency, 4 threads, 64 MiB heap).
    pub fn standard() -> Self {
        BenchEnv {
            heap_bytes: 64 << 20,
            plog_bytes: 4 << 20,
            threads: 4,
            bandwidth_gb: 1,
            latency_cycles: 1000,
            vlog_txns: 16_384,
            ops: 40_000,
            durability: DurabilityMode::Async {
                buffer_txns: 16_384,
            },
            persist_group: 1,
            compress: false,
            shadow: ShadowConfig::Identity,
            latency_mode: LatencyMode::Off,
            seed: 42,
            trace: TraceConfig::disabled(),
            metrics: MetricsConfig::disabled(),
        }
    }

    /// A fast smoke configuration (`--quick`).
    pub fn quick() -> Self {
        BenchEnv {
            heap_bytes: 32 << 20,
            ops: 4_000,
            ..Self::standard()
        }
    }

    /// Selects standard or quick based on the flag.
    pub fn from_quick(quick: bool) -> Self {
        if quick {
            Self::quick()
        } else {
            Self::standard()
        }
    }

    /// Operations per worker thread.
    pub fn ops_per_thread(&self) -> u64 {
        (self.ops / self.threads as u64).max(1)
    }

    /// Total device size needed for a DudeTM instance.
    pub fn device_bytes(&self) -> u64 {
        // meta + rings (threads + 2 spare slots) + heap + slack.
        self.heap_bytes + (self.threads as u64 + 4) * self.plog_bytes + (1 << 20)
    }

    /// Sets the bandwidth (Figure 2's x-axis).
    #[must_use]
    pub fn with_bandwidth(mut self, gb: u64) -> Self {
        self.bandwidth_gb = gb;
        self
    }

    /// Sets the per-cell operation count.
    #[must_use]
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops = ops;
        self
    }

    /// Sets the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let e = BenchEnv::standard()
            .with_bandwidth(8)
            .with_ops(100)
            .with_threads(2);
        assert_eq!(e.bandwidth_gb, 8);
        assert_eq!(e.ops_per_thread(), 50);
        assert!(e.device_bytes() > e.heap_bytes);
    }

    #[test]
    fn quick_selection() {
        assert!(BenchEnv::from_quick(true).ops < BenchEnv::from_quick(false).ops);
    }
}
