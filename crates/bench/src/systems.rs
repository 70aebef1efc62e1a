//! System construction and the `(system × workload)` dispatch.

use std::sync::Arc;

use dude_baselines::{BaselineConfig, Mnemosyne, NvmlLike, VolatileHtm, VolatileStm};
use dude_nvm::{Nvm, NvmConfig, TimingConfig};
use dude_workloads::driver::RunStats;
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode, PipelineStatsSnapshot, ShadowStats, TmEngine};

use crate::env::BenchEnv;
use crate::workloads::{run_on, run_on_with, WorkloadKind};

/// The evaluated systems (§5.1 plus the HTM variants of §5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// TinySTM on DRAM (no durability) — the upper bound.
    VolatileStm,
    /// Emulated RTM on DRAM (no durability).
    VolatileHtm,
    /// DudeTM with the durability mode from the environment (default:
    /// bounded asynchronous pipeline).
    Dude,
    /// DudeTM with an unbounded volatile log ("DudeTM-Inf").
    DudeInf,
    /// DudeTM flushing synchronously at commit ("DudeTM-Sync").
    DudeSync,
    /// DudeTM with the emulated-HTM Perform engine.
    DudeHtm,
    /// The Mnemosyne-like redo-logging baseline.
    Mnemosyne,
    /// The NVML-like undo-logging baseline (hash workloads only).
    Nvml,
}

impl SystemKind {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::VolatileStm => "Volatile-STM",
            SystemKind::VolatileHtm => "Volatile-HTM",
            SystemKind::Dude => "DudeTM",
            SystemKind::DudeInf => "DudeTM-Inf",
            SystemKind::DudeSync => "DudeTM-Sync",
            SystemKind::DudeHtm => "DudeTM-HTM",
            SystemKind::Mnemosyne => "Mnemosyne",
            SystemKind::Nvml => "NVML",
        }
    }
}

/// A cell result: run statistics plus system-internal counters.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload-level statistics.
    pub run: RunStats,
    /// DudeTM pipeline statistics, when the system is DudeTM.
    pub pipeline: Option<PipelineStatsSnapshot>,
    /// Shadow paging statistics, when the system is DudeTM.
    pub shadow: Option<ShadowStats>,
}

fn timing(env: &BenchEnv) -> TimingConfig {
    TimingConfig {
        latency_ns: TimingConfig::cycles_to_ns(env.latency_cycles),
        bandwidth_bytes_per_sec: env.bandwidth_gb << 30,
        enabled: true,
    }
}

/// An emulated NVM device sized and timed for `env` (public so
/// `dude-top` builds the same device the measurement loop does).
pub fn bench_nvm(env: &BenchEnv) -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_benchmark(
        env.device_bytes(),
        timing(env),
    )))
}

/// Validates a bench-constructed configuration through the typed
/// [`DudeTmConfig::try_validate`] path. The knobs come straight from
/// `DUDE_*` environment variables and CLI flags, so an impossible
/// combination (say `DUDE_PERSIST_GROUP=8` against the Sync system) is
/// operator error, not a bug: report it as a usage error and exit instead
/// of panicking from inside runtime construction.
pub fn checked(config: DudeTmConfig) -> DudeTmConfig {
    if let Err(e) = config.try_validate() {
        eprintln!("bench: invalid DudeTM configuration: {e}");
        std::process::exit(2);
    }
    config
}

/// The DudeTM configuration a bench cell runs with. Public so the
/// `dude-top` live monitor drives the same configuration the measurement
/// loop does. Metrics sampling is forced on when `--metrics-out` armed
/// the [`crate::metrics_out`] sink.
pub fn dude_config(env: &BenchEnv, durability: DurabilityMode) -> DudeTmConfig {
    checked(DudeTmConfig {
        heap_bytes: env.heap_bytes,
        plog_bytes_per_thread: env.plog_bytes,
        max_threads: env.threads + 4,
        durability,
        persist_group: env.persist_group,
        persist_flush_workers: 1,
        compress_groups: env.compress,
        checkpoint_every: 64,
        reproduce_threads: 1,
        shadow: env.shadow,
        trace: env.trace,
        metrics: crate::metrics_out::config_for(env.metrics),
    })
}

/// Shared measurement body for every DudeTM variant: run the workload,
/// quiesce, capture a final metrics frame at the drained state, hand the
/// frame series to the `--metrics-out` sink, and report the
/// warmup-corrected pipeline delta.
fn run_dude_cell<E: TmEngine>(
    sys: &DudeTm<E>,
    workload: WorkloadKind,
    env: &BenchEnv,
) -> CellResult {
    let baseline = std::cell::Cell::new(PipelineStatsSnapshot::default());
    let run = run_on_with(sys, workload, env, || baseline.set(sys.pipeline_stats()));
    sys.quiesce();
    sys.sample_metrics_now();
    crate::metrics_out::append(sys.metrics());
    CellResult {
        pipeline: Some(sys.pipeline_stats().delta(&baseline.get())),
        shadow: Some(sys.shadow_stats()),
        run,
    }
}

fn baseline_config(env: &BenchEnv) -> BaselineConfig {
    BaselineConfig {
        heap_bytes: env.heap_bytes,
        max_threads: env.threads + 4,
        log_bytes_per_thread: env.plog_bytes,
    }
}

/// Builds the system, runs the workload, returns the cell result.
///
/// # Panics
///
/// Panics if `kind` is [`SystemKind::Nvml`] and the workload is not
/// hash-based (the paper's NVML limitation).
pub fn run_combo(kind: SystemKind, workload: WorkloadKind, env: &BenchEnv) -> CellResult {
    match kind {
        SystemKind::VolatileStm => {
            let sys = VolatileStm::new(env.heap_bytes);
            CellResult {
                run: run_on(&sys, workload, env),
                pipeline: None,
                shadow: None,
            }
        }
        SystemKind::VolatileHtm => {
            let sys = VolatileHtm::new(env.heap_bytes);
            CellResult {
                run: run_on(&sys, workload, env),
                pipeline: None,
                shadow: None,
            }
        }
        SystemKind::Dude => {
            let sys = DudeTm::create_stm(bench_nvm(env), dude_config(env, env.durability));
            run_dude_cell(&sys, workload, env)
        }
        SystemKind::DudeInf => {
            let sys = DudeTm::create_stm(
                bench_nvm(env),
                dude_config(env, DurabilityMode::AsyncUnbounded),
            );
            run_dude_cell(&sys, workload, env)
        }
        SystemKind::DudeSync => {
            let sys = DudeTm::create_stm(bench_nvm(env), dude_config(env, DurabilityMode::Sync));
            run_dude_cell(&sys, workload, env)
        }
        SystemKind::DudeHtm => {
            let sys = DudeTm::create_htm(bench_nvm(env), dude_config(env, env.durability));
            run_dude_cell(&sys, workload, env)
        }
        SystemKind::Mnemosyne => {
            let sys = Mnemosyne::create(bench_nvm(env), baseline_config(env));
            CellResult {
                run: run_on(&sys, workload, env),
                pipeline: None,
                shadow: None,
            }
        }
        SystemKind::Nvml => {
            assert!(
                workload.nvml_compatible(),
                "NVML supports only static (hash-based) workloads; got {}",
                workload.label()
            );
            let sys = NvmlLike::create(bench_nvm(env), baseline_config(env));
            CellResult {
                run: run_on(&sys, workload, env),
                pipeline: None,
                shadow: None,
            }
        }
    }
}

/// Runs a cell `repeats` times and returns the run with the **median**
/// throughput — the single-CPU container's scheduler makes individual runs
/// noisy, and normalized comparisons (Figures 4/5, Table 4) need stability.
pub fn run_combo_median(
    kind: SystemKind,
    workload: WorkloadKind,
    env: &BenchEnv,
    repeats: usize,
) -> CellResult {
    assert!(repeats >= 1);
    let mut cells: Vec<CellResult> = (0..repeats)
        .map(|_| run_combo(kind, workload, env))
        .collect();
    cells.sort_by(|a, b| {
        a.run
            .throughput
            .partial_cmp(&b.run.throughput)
            .expect("throughput is finite")
    });
    cells.swap_remove(cells.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SystemKind::Dude.label(), "DudeTM");
        assert_eq!(SystemKind::DudeSync.label(), "DudeTM-Sync");
    }

    #[test]
    fn quick_cell_runs_end_to_end() {
        let mut env = BenchEnv::quick();
        env.ops = 200;
        env.threads = 2;
        let cell = run_combo(SystemKind::Dude, WorkloadKind::Bank, &env);
        assert!(cell.run.committed > 0);
        assert!(cell.pipeline.is_some());
    }

    #[test]
    #[should_panic(expected = "static")]
    fn nvml_rejects_btree() {
        let env = BenchEnv::quick();
        run_combo(SystemKind::Nvml, WorkloadKind::BTree, &env);
    }
}
