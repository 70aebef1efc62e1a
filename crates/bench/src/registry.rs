//! The experiment registry: every table, figure and ablation of the
//! evaluation as a named, declarative [`Spec`].
//!
//! Each runner is a `fn(&SpecCtx) -> SpecOutput` so one driver
//! (`dude-bench run`) owns the
//! whole measurement loop: tier selection, seeds, repeat policy, CSV/JSON
//! artifact naming and the report renderer all flow from this table.
//!
//! Conventions shared by every runner:
//!
//! * quick tier is the seconds-long CI sweep; full tier reproduces the
//!   recorded configuration in `EXPERIMENTS.md`;
//! * wall-clock-derived cells go through [`SpecCtx::tps`] /
//!   [`SpecCtx::walltime_cell`] so `--deterministic` runs render
//!   byte-identical tables;
//! * structural values that must hold across hosts (writes/tx, committed
//!   counts) become gated metrics; timings are recorded but not gated.

use std::sync::Arc;

use dudetm::{DudeTmConfig, DurabilityMode, PagingMode, ShadowConfig, TraceConfig, PAGE_BYTES};

use crate::env::BenchEnv;
use crate::report::{fmt_pct, fmt_tps, fmt_us, Table};
use crate::spec::{Better, Metric, Spec, SpecCtx, SpecOutput};
use crate::systems::{checked, run_combo, run_combo_median, SystemKind};
use crate::workloads::{build_workload, WorkloadKind};

/// All registered experiments, in `EXPERIMENTS.md` presentation order.
pub static SPECS: &[Spec] = &[
    Spec {
        name: "table2",
        title: "Table 2 — throughput (1 GB/s, 1000 cycles, 4 threads)",
        paper_ref: "Table 2",
        tables: &[(
            "main",
            "DudeTM vs DudeTM-Sync vs Mnemosyne vs NVML, six benchmarks",
        )],
        runner: run_table2,
    },
    Spec {
        name: "table1",
        title: "Table 1 — memory writes (DudeTM, 1 GB/s, 1000 cycles, 4 threads)",
        paper_ref: "Table 1",
        tables: &[(
            "main",
            "NVM write statistics per benchmark vs the paper's writes/tx",
        )],
        runner: run_table1,
    },
    Spec {
        name: "table3",
        title: "Table 3 — durable latency, TPC-C (hash)",
        paper_ref: "Table 3",
        tables: &[(
            "main",
            "durable-ack latency percentiles across four systems",
        )],
        runner: run_table3,
    },
    Spec {
        name: "fig2",
        title: "Figure 2 — throughput vs NVM bandwidth",
        paper_ref: "Figure 2",
        tables: &[
            ("hashtable", "HashTable throughput vs bandwidth"),
            ("btree", "B+-tree throughput vs bandwidth"),
            ("tpcc_btree", "TPC-C (B+-tree) throughput vs bandwidth"),
            ("tpcc_hash", "TPC-C (hash) throughput vs bandwidth"),
            ("tatp_btree", "TATP (B+-tree) throughput vs bandwidth"),
            ("tatp_hash", "TATP (hash) throughput vs bandwidth"),
            ("aux_sync_latency", "DudeTM-Sync at 3500-cycle PCM latency"),
        ],
        runner: run_fig2,
    },
    Spec {
        name: "fig3",
        title: "Figure 3 — log optimization vs group size (YCSB, zipf 0.99)",
        paper_ref: "Figure 3",
        tables: &[(
            "main",
            "combination/compression savings and throughput impact",
        )],
        runner: run_fig3,
    },
    Spec {
        name: "fig4",
        title: "Figure 4 — swap overhead (YCSB update-only)",
        paper_ref: "Figure 4",
        tables: &[
            ("zipf_0_99", "software vs hardware paging, zipf 0.99"),
            ("zipf_1_07", "software vs hardware paging, zipf 1.07"),
        ],
        runner: run_fig4,
    },
    Spec {
        name: "fig5",
        title: "Figure 5 — TPC-C (B+-tree) scaling, normalized to 1 thread",
        paper_ref: "Figure 5",
        tables: &[(
            "main",
            "thread scaling vs Volatile-STM plus the partitioned variant",
        )],
        runner: run_fig5,
    },
    Spec {
        name: "table4",
        title: "Table 4 — STM vs HTM engines (1 GB/s, 1000 cycles, 4 threads)",
        paper_ref: "Table 4",
        tables: &[("main", "volatile/durable slowdowns on both TM engines")],
        runner: run_table4,
    },
    Spec {
        name: "ablation_vlog",
        title: "Ablation — volatile log buffer size (TPC-C hash, DudeTM)",
        paper_ref: "extension (Finding 2 sensitivity)",
        tables: &[("main", "throughput vs volatile-log bound")],
        runner: run_ablation_vlog,
    },
    Spec {
        name: "ablation_persist_threads",
        title: "Ablation — persist threads (TPC-C hash, DudeTM)",
        paper_ref: "extension (§3.3 'one is enough')",
        tables: &[(
            "main",
            "throughput and latency percentiles vs persist threads",
        )],
        runner: run_ablation_persist_threads,
    },
    Spec {
        name: "ablation_checkpoint_cadence",
        title: "Ablation — reproduce checkpoint cadence (TPC-C hash, DudeTM)",
        paper_ref: "extension (log recycling)",
        tables: &[(
            "main",
            "throughput and latency percentiles vs checkpoint cadence",
        )],
        runner: run_ablation_checkpoint_cadence,
    },
    Spec {
        name: "ablation_flush_workers",
        title:
            "Ablation — persist flush workers (write-heavy drain, group=8, DudeTM-Inf, PCM latency)",
        paper_ref: "extension (parallel grouped Persist)",
        tables: &[(
            "main",
            "drain rate and barrier percentiles vs flush workers",
        )],
        runner: run_ablation_flush_workers,
    },
    Spec {
        name: "endurance",
        title: "Endurance — line wear vs log combination (YCSB, zipf 0.99)",
        paper_ref: "extension (§3.3 endurance motivation)",
        tables: &[("main", "hottest-line wear with combination off and on")],
        runner: run_endurance,
    },
];

/// Looks up a spec by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// All spec names, in presentation order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    SPECS.iter().map(|s| s.name).collect()
}

/// File-name slug for a workload (used in per-workload table slugs and
/// metric names).
fn workload_slug(w: WorkloadKind) -> &'static str {
    match w {
        WorkloadKind::HashTable => "hashtable",
        WorkloadKind::BTree => "btree",
        WorkloadKind::TpccBTree => "tpcc_btree",
        WorkloadKind::TpccHash => "tpcc_hash",
        WorkloadKind::TpccBTreePartitioned => "tpcc_btree_partitioned",
        WorkloadKind::TatpBTree => "tatp_btree",
        WorkloadKind::TatpHash => "tatp_hash",
        WorkloadKind::Ycsb { .. } => "ycsb",
        WorkloadKind::YcsbUpdate { .. } => "ycsb_update",
        WorkloadKind::Bank => "bank",
    }
}

/// The six paper benchmarks in Table 1/2 order.
const SIX: [WorkloadKind; 6] = [
    WorkloadKind::BTree,
    WorkloadKind::TpccBTree,
    WorkloadKind::TatpBTree,
    WorkloadKind::HashTable,
    WorkloadKind::TpccHash,
    WorkloadKind::TatpHash,
];

fn run_table2(ctx: &SpecCtx) -> SpecOutput {
    let env = ctx.env();
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Table 2 — throughput (1 GB/s, 1000 cycles, 4 threads)",
        &[
            "benchmark",
            "DudeTM",
            "DudeTM-Sync",
            "Mnemosyne",
            "NVML",
            "DudeTM/Mnem.",
        ],
    );
    let mut committed = 0.0;
    for workload in SIX {
        if !ctx.wants_workload(&workload.label()) {
            continue;
        }
        let slug = workload_slug(workload);
        let dude = run_combo(SystemKind::Dude, workload, &env);
        let sync = run_combo(SystemKind::DudeSync, workload, &env);
        let mnem = run_combo(SystemKind::Mnemosyne, workload, &env);
        let nvml = workload
            .nvml_compatible()
            .then(|| run_combo(SystemKind::Nvml, workload, &env));
        committed += dude.run.committed as f64;
        out.walltime_metric(
            format!("tps/{slug}/dude"),
            "tps",
            Better::Higher,
            dude.run.throughput,
        );
        out.walltime_metric(
            format!("tps/{slug}/sync"),
            "tps",
            Better::Higher,
            sync.run.throughput,
        );
        out.walltime_metric(
            format!("tps/{slug}/mnemosyne"),
            "tps",
            Better::Higher,
            mnem.run.throughput,
        );
        if let Some(n) = &nvml {
            out.walltime_metric(
                format!("tps/{slug}/nvml"),
                "tps",
                Better::Higher,
                n.run.throughput,
            );
        }
        table.push(vec![
            workload.label(),
            ctx.tps(dude.run.throughput),
            ctx.tps(sync.run.throughput),
            ctx.tps(mnem.run.throughput),
            nvml.map_or("-".into(), |c| ctx.tps(c.run.throughput)),
            ctx.walltime_cell(format!("{:.1}x", dude.run.throughput / mnem.run.throughput)),
        ]);
    }
    out.gated_metric("committed_txns", "txns", committed);
    out.table("main", table);
    out
}

fn run_table1(ctx: &SpecCtx) -> SpecOutput {
    let env = ctx.env();
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Table 1 — memory writes (DudeTM, 1 GB/s, 1000 cycles, 4 threads)",
        &[
            "benchmark",
            "# writes/s",
            "throughput",
            "# writes per tx",
            "paper writes/tx",
        ],
    );
    let paper = ["15.8", "183.5", "1.0", "3.0", "156.5", "1.0"];
    for (workload, paper_wtx) in SIX.into_iter().zip(paper) {
        if !ctx.wants_workload(&workload.label()) {
            continue;
        }
        let slug = workload_slug(workload);
        let cell = run_combo(SystemKind::Dude, workload, &env);
        let stats = cell.pipeline.expect("DudeTM exposes pipeline stats");
        let writes_per_sec = stats.entries_logged as f64 / cell.run.elapsed.as_secs_f64();
        let writes_per_tx = stats.entries_logged as f64 / stats.commits.max(1) as f64;
        // Structural: entry counts and commits are functions of the seeded
        // op stream, not of machine speed — these hold across hosts.
        out.gated_metric(format!("writes_per_tx/{slug}"), "writes/tx", writes_per_tx);
        out.gated_metric(format!("committed/{slug}"), "txns", stats.commits as f64);
        out.walltime_metric(
            format!("tps/{slug}"),
            "tps",
            Better::Higher,
            cell.run.throughput,
        );
        table.push(vec![
            workload.label(),
            ctx.walltime_cell(format!("{:.1} M/s", writes_per_sec / 1e6)),
            ctx.tps(cell.run.throughput),
            format!("{writes_per_tx:.1}"),
            paper_wtx.to_string(),
        ]);
    }
    out.table("main", table);
    out
}

fn run_table3(ctx: &SpecCtx) -> SpecOutput {
    let mut env = ctx.env();
    env.latency_mode = dude_workloads::LatencyMode::DurableAck { sample_every: 4 };
    // A bounded volatile log keeps the durable ID's lag bounded; on a
    // single-CPU host the Persist thread only runs when Perform threads
    // yield, so an over-large buffer would let the lag grow to the length
    // of the whole run (see EXPERIMENTS.md).
    env.durability = DurabilityMode::Async { buffer_txns: 64 };
    let workload = WorkloadKind::TpccHash;
    let systems = [
        (SystemKind::Dude, "dude"),
        (SystemKind::DudeSync, "sync"),
        (SystemKind::Mnemosyne, "mnemosyne"),
        (SystemKind::Nvml, "nvml"),
    ];
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Table 3 — durable latency, TPC-C (hash)",
        &["percentile", "DudeTM", "DudeTM-Sync", "Mnemosyne", "NVML"],
    );
    let mut cols = Vec::new();
    let mut sample_counts = Vec::new();
    for (system, slug) in systems {
        let cell = run_combo(system, workload, &env);
        let lat = cell.run.latency.expect("latency sampling enabled");
        out.walltime_metric(
            format!("p50_ns/{slug}"),
            "ns",
            Better::Lower,
            lat.p50 as f64,
        );
        out.walltime_metric(
            format!("p90_ns/{slug}"),
            "ns",
            Better::Lower,
            lat.p90 as f64,
        );
        out.walltime_metric(
            format!("p99_ns/{slug}"),
            "ns",
            Better::Lower,
            lat.p99 as f64,
        );
        sample_counts.push(lat.samples);
        cols.push(lat);
    }
    for (label, pick) in [("50%", 0usize), ("90%", 1), ("99%", 2)] {
        let mut row = vec![label.to_string()];
        for lat in &cols {
            let v = match pick {
                0 => lat.p50,
                1 => lat.p90,
                _ => lat.p99,
            };
            row.push(ctx.walltime_cell(fmt_us(v)));
        }
        table.push(row);
    }
    out.table("main", table);
    out.note(format!("samples per system: {sample_counts:?}"));
    out.note(
        "single-CPU host: DudeTM's lag reflects OS scheduling of the Persist \
         thread, not pipeline depth — see EXPERIMENTS.md",
    );
    out
}

fn run_fig2(ctx: &SpecCtx) -> SpecOutput {
    let base = ctx.env();
    let bandwidths: &[u64] = if ctx.is_quick() {
        &[1, 8]
    } else {
        &[1, 4, 8, 16]
    };
    let workloads = [
        WorkloadKind::HashTable,
        WorkloadKind::BTree,
        WorkloadKind::TpccBTree,
        WorkloadKind::TpccHash,
        WorkloadKind::TatpBTree,
        WorkloadKind::TatpHash,
    ];
    let systems = [
        (SystemKind::VolatileStm, "vstm"),
        (SystemKind::Dude, "dude"),
        (SystemKind::DudeInf, "dude_inf"),
        (SystemKind::DudeSync, "sync"),
    ];
    let mut out = SpecOutput::default();
    for workload in workloads {
        if !ctx.wants_workload(&workload.label()) {
            continue;
        }
        let wslug = workload_slug(workload);
        let mut table = Table::new(
            &format!(
                "Figure 2 — {} throughput vs NVM bandwidth",
                workload.label()
            ),
            &["system", "1 GB/s", "4 GB/s", "8 GB/s", "16 GB/s"],
        );
        for (system, sslug) in systems {
            let mut row = vec![system.label().to_string()];
            for &bw in &[1u64, 4, 8, 16] {
                if !bandwidths.contains(&bw) {
                    row.push("-".into());
                    continue;
                }
                // Volatile systems do not touch NVM; measure them once.
                if system == SystemKind::VolatileStm && bw != bandwidths[0] {
                    row.push("(same)".into());
                    continue;
                }
                let env = base.with_bandwidth(bw);
                let cell = run_combo(system, workload, &env);
                out.walltime_metric(
                    format!("tps/{wslug}/{sslug}/{bw}gb"),
                    "tps",
                    Better::Higher,
                    cell.run.throughput,
                );
                row.push(ctx.tps(cell.run.throughput));
            }
            table.push(row);
        }
        out.table(wslug, table);
    }
    // DudeTM-Sync at the paper's PCM-class 3500-cycle latency (the latency
    // sensitivity the paper highlights for short transactions). Runs with
    // the full workload set only — a workload filter skips it.
    if ctx.workload_filter.is_none() {
        let mut table = Table::new(
            "Figure 2 (aux) — DudeTM-Sync at 3500-cycle latency, 1 GB/s",
            &["benchmark", "sync @1000cyc", "sync @3500cyc"],
        );
        for workload in [WorkloadKind::TatpHash, WorkloadKind::TpccHash] {
            let wslug = workload_slug(workload);
            let fast = run_combo(SystemKind::DudeSync, workload, &base);
            let mut slow_env = base;
            slow_env.latency_cycles = 3500;
            let slow = run_combo(SystemKind::DudeSync, workload, &slow_env);
            out.walltime_metric(
                format!("tps/{wslug}/sync/3500cyc"),
                "tps",
                Better::Higher,
                slow.run.throughput,
            );
            table.push(vec![
                workload.label(),
                ctx.tps(fast.run.throughput),
                ctx.tps(slow.run.throughput),
            ]);
        }
        out.table("aux_sync_latency", table);
    }
    out
}

fn run_fig3(ctx: &SpecCtx) -> SpecOutput {
    let base = ctx.env();
    let groups: &[usize] = if ctx.is_quick() {
        &[10, 100, 1_000]
    } else {
        &[10, 100, 1_000, 10_000]
    };
    let workload = WorkloadKind::Ycsb { theta: 0.99 };
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Figure 3 — log optimization vs group size (YCSB, zipf 0.99)",
        &[
            "group size",
            "entries saved by combination",
            "payload saved by compression",
            "total NVM log bytes saved",
            "throughput impact vs group=1",
        ],
    );
    // Baseline: no grouping.
    let baseline = run_combo(SystemKind::Dude, workload, &base);
    let base_tps = baseline.run.throughput;
    for &group in groups {
        let mut env = base;
        env.persist_group = group;
        env.compress = true;
        // Make sure enough transactions flow to fill groups — unless the
        // caller pinned the op count (test-sized runs).
        if ctx.ops.is_none() && env.ops < group as u64 * 20 {
            env.ops = group as u64 * 20;
        }
        let cell = run_combo(SystemKind::Dude, workload, &env);
        let stats = cell.pipeline.expect("pipeline stats");
        let combine = stats.combine_savings();
        let compress = stats.compression_savings();
        // Total savings: entries dropped by combination, then bytes dropped
        // by compression of what remains.
        let total = 1.0 - (1.0 - combine) * (1.0 - compress);
        // Savings depend on where the flush timer seals partial groups, so
        // they are machine-speed-dependent: recorded, not gated.
        out.walltime_metric(
            format!("combine_savings/group_{group}"),
            "fraction",
            Better::Higher,
            combine,
        );
        out.walltime_metric(
            format!("compress_savings/group_{group}"),
            "fraction",
            Better::Higher,
            compress,
        );
        out.walltime_metric(
            format!("total_savings/group_{group}"),
            "fraction",
            Better::Higher,
            total,
        );
        table.push(vec![
            group.to_string(),
            ctx.walltime_cell(fmt_pct(combine)),
            ctx.walltime_cell(fmt_pct(compress)),
            ctx.walltime_cell(fmt_pct(total)),
            ctx.walltime_cell(format!(
                "{:+.1}%",
                (cell.run.throughput / base_tps - 1.0) * 100.0
            )),
        ]);
    }
    out.table("main", table);
    out
}

fn run_fig4(ctx: &SpecCtx) -> SpecOutput {
    let quick = ctx.is_quick();
    let mut base = ctx.env();
    // Large heap so the tree working set spans many pages; the shadow is
    // the small side of the experiment.
    base.heap_bytes = if quick { 64 << 20 } else { 128 << 20 };
    base.ops = ctx.ops.unwrap_or(if quick { 6_000 } else { 30_000 });
    // Working-set estimate: `build_workload` sizes the store at
    // heap_words/80 records; a ~5-fan-out B+-tree needs ~records/5 nodes of
    // 144 bytes plus metadata.
    let records = (base.heap_bytes / 8) / 80;
    let working_pages = (records / 5 * 144).div_ceil(PAGE_BYTES) + 8;
    let fractions: &[(f64, &str)] = if quick {
        &[(2.0, "2x working set"), (0.25, "1/4 working set")]
    } else {
        &[
            (2.0, "2x working set"),
            (1.0, "1x"),
            (0.5, "1/2"),
            (0.25, "1/4"),
            (0.125, "1/8"),
        ]
    };
    let mut out = SpecOutput::default();
    for theta in [0.99, 1.07] {
        let tslug = if theta == 0.99 {
            "zipf_0_99"
        } else {
            "zipf_1_07"
        };
        let mut table = Table::new(
            &format!("Figure 4 — swap overhead (YCSB update-only, zipf {theta})"),
            &[
                "shadow frames",
                "software paging",
                "sw swap-outs",
                "hardware paging",
                "hw swap-outs",
            ],
        );
        for &(frac, label) in fractions {
            let frames = ((working_pages as f64 * frac) as usize).max(64);
            let mut row = vec![format!("{label} ({frames})")];
            for (mode, mslug) in [(PagingMode::Software, "sw"), (PagingMode::Hardware, "hw")] {
                let mut env = base;
                env.shadow = ShadowConfig::Paged { frames, mode };
                let cell = run_combo_median(
                    SystemKind::Dude,
                    WorkloadKind::YcsbUpdate { theta },
                    &env,
                    ctx.reps(3),
                );
                let shadow = cell.shadow.expect("paged shadow stats");
                out.walltime_metric(
                    format!("tps/{tslug}/{mslug}/frames_{frames}"),
                    "tps",
                    Better::Higher,
                    cell.run.throughput,
                );
                // Swap-out counts drift with thread interleaving, so they
                // stay informational rather than gated.
                out.metrics.push(Metric {
                    name: format!("swap_outs/{tslug}/{mslug}/frames_{frames}"),
                    unit: "count",
                    value: shadow.swap_outs as f64,
                    samples: vec![shadow.swap_outs as f64],
                    gated: false,
                    better: Better::Lower,
                    walltime: false,
                });
                row.push(ctx.tps(cell.run.throughput));
                row.push(shadow.swap_outs.to_string());
            }
            table.push(row);
        }
        out.table(tslug, table);
    }
    out.note(format!(
        "working set ≈ {working_pages} pages of {PAGE_BYTES} bytes"
    ));
    out
}

fn run_fig5(ctx: &SpecCtx) -> SpecOutput {
    let base = ctx.env();
    let threads: &[usize] = if ctx.is_quick() {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    };
    let reps = ctx.reps(3);
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Figure 5 — TPC-C (B+-tree) scaling, normalized to 1 thread",
        &[
            "threads",
            "Volatile-STM",
            "DudeTM",
            "DudeTM partitioned",
            "DudeTM retries/tx",
            "partitioned retries/tx",
        ],
    );
    let mut base_tput: [f64; 3] = [0.0; 3];
    for &n in threads {
        let env = base.with_threads(n);
        let vol = run_combo_median(SystemKind::VolatileStm, WorkloadKind::TpccBTree, &env, reps);
        let dude = run_combo_median(SystemKind::Dude, WorkloadKind::TpccBTree, &env, reps);
        let part = run_combo_median(
            SystemKind::Dude,
            WorkloadKind::TpccBTreePartitioned,
            &env,
            reps,
        );
        if n == threads[0] {
            base_tput = [vol.run.throughput, dude.run.throughput, part.run.throughput];
        }
        out.walltime_metric(
            format!("scaling/vstm/threads_{n}"),
            "ratio",
            Better::Higher,
            vol.run.throughput / base_tput[0],
        );
        out.walltime_metric(
            format!("scaling/dude/threads_{n}"),
            "ratio",
            Better::Higher,
            dude.run.throughput / base_tput[1],
        );
        out.walltime_metric(
            format!("scaling/partitioned/threads_{n}"),
            "ratio",
            Better::Higher,
            part.run.throughput / base_tput[2],
        );
        table.push(vec![
            n.to_string(),
            ctx.walltime_cell(format!("{:.2}x", vol.run.throughput / base_tput[0])),
            ctx.walltime_cell(format!("{:.2}x", dude.run.throughput / base_tput[1])),
            ctx.walltime_cell(format!("{:.2}x", part.run.throughput / base_tput[2])),
            ctx.walltime_cell(format!("{:.3}", dude.run.retry_rate())),
            ctx.walltime_cell(format!("{:.3}", part.run.retry_rate())),
        ]);
    }
    out.table("main", table);
    out.note(
        "single-CPU container: compare DudeTM's curve against Volatile-STM's; \
         absolute multi-thread speedup is not observable here",
    );
    out
}

fn run_table4(ctx: &SpecCtx) -> SpecOutput {
    let env = ctx.env();
    let reps = ctx.reps(3);
    let workloads = [
        WorkloadKind::BTree,
        WorkloadKind::HashTable,
        WorkloadKind::TatpBTree,
    ];
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Table 4 — STM vs HTM engines (1 GB/s, 1000 cycles, 4 threads)",
        &[
            "benchmark",
            "Volatile-STM",
            "DudeTM-STM",
            "STM slowdown",
            "Volatile-HTM",
            "DudeTM-HTM",
            "HTM slowdown",
            "HTM/STM speedup",
        ],
    );
    for workload in workloads {
        if !ctx.wants_workload(&workload.label()) {
            continue;
        }
        let slug = workload_slug(workload);
        let vstm = run_combo_median(SystemKind::VolatileStm, workload, &env, reps);
        let dstm = run_combo_median(SystemKind::Dude, workload, &env, reps);
        let vhtm = run_combo_median(SystemKind::VolatileHtm, workload, &env, reps);
        let dhtm = run_combo_median(SystemKind::DudeHtm, workload, &env, reps);
        out.walltime_metric(
            format!("slowdown_stm/{slug}"),
            "fraction",
            Better::Lower,
            1.0 - dstm.run.throughput / vstm.run.throughput,
        );
        out.walltime_metric(
            format!("slowdown_htm/{slug}"),
            "fraction",
            Better::Lower,
            1.0 - dhtm.run.throughput / vhtm.run.throughput,
        );
        out.walltime_metric(
            format!("htm_speedup/{slug}"),
            "ratio",
            Better::Higher,
            dhtm.run.throughput / dstm.run.throughput,
        );
        table.push(vec![
            workload.label(),
            ctx.tps(vstm.run.throughput),
            ctx.tps(dstm.run.throughput),
            ctx.walltime_cell(fmt_pct(1.0 - dstm.run.throughput / vstm.run.throughput)),
            ctx.tps(vhtm.run.throughput),
            ctx.tps(dhtm.run.throughput),
            ctx.walltime_cell(fmt_pct(1.0 - dhtm.run.throughput / vhtm.run.throughput)),
            ctx.walltime_cell(format!("{:.2}x", dhtm.run.throughput / dstm.run.throughput)),
        ]);
    }
    out.table("main", table);
    out
}

/// Extra columns for the traced ablations: commit-latency and
/// persist-barrier percentiles in microseconds, or dashes when the layer is
/// off (so the CSV schema is stable across traced and untraced runs).
const LATENCY_HEADERS: [&str; 6] = [
    "commit p50 (us)",
    "commit p95 (us)",
    "commit p99 (us)",
    "barrier p50 (us)",
    "barrier p95 (us)",
    "barrier p99 (us)",
];

fn latency_cols(ctx: &SpecCtx, trace: &dudetm::Trace) -> Vec<String> {
    if !trace.enabled() {
        return vec!["-".to_string(); 6];
    }
    let us = |v: u64| ctx.walltime_cell(format!("{:.2}", v as f64 / 1000.0));
    let c = trace.commit_latency_ns.snapshot();
    let b = trace.persist_barrier_ns.snapshot();
    vec![
        us(c.p50()),
        us(c.p95()),
        us(c.p99()),
        us(b.p50()),
        us(b.p95()),
        us(b.p99()),
    ]
}

/// Trace configuration for an ablation run: enabled when `--trace-out` was
/// given (the exported run is the section's last traced configuration).
fn ablation_trace_cfg(ctx: &SpecCtx) -> TraceConfig {
    if ctx.trace_out.is_some() {
        TraceConfig::enabled(64 * 1024)
    } else {
        TraceConfig::disabled()
    }
}

/// Writes the last traced run's Prometheus exposition — every stall and
/// every histogram, per worker too — to `--trace-out`.
fn write_trace(ctx: &SpecCtx, last_exposition: Option<String>) {
    if let Some(path) = &ctx.trace_out {
        match last_exposition {
            Some(text) => match std::fs::write(path, text) {
                Ok(()) => println!("[trace] Prometheus exposition written to {path}"),
                Err(e) => eprintln!("[trace] failed to write {path}: {e}"),
            },
            None => eprintln!("[trace] no traced run produced output"),
        }
    }
}

fn run_ablation_vlog(ctx: &SpecCtx) -> SpecOutput {
    let base = ctx.env();
    let workload = WorkloadKind::TpccHash;
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Ablation — volatile log buffer size (TPC-C hash, DudeTM)",
        &["buffer (txns/thread)", "throughput"],
    );
    let sizes: &[usize] = if ctx.is_quick() {
        &[16, 16_384]
    } else {
        &[4, 64, 1_024, 16_384]
    };
    for &buffer in sizes {
        let mut env = base;
        env.durability = DurabilityMode::Async {
            buffer_txns: buffer,
        };
        let cell = run_combo(SystemKind::Dude, workload, &env);
        out.walltime_metric(
            format!("tps/buffer_{buffer}"),
            "tps",
            Better::Higher,
            cell.run.throughput,
        );
        table.push(vec![buffer.to_string(), ctx.tps(cell.run.throughput)]);
    }
    out.table("main", table);
    out
}

/// Builds a DudeTM instance directly (the ablations sweep knobs that
/// [`crate::systems::run_combo`] does not expose), runs the TPC-C hash
/// workload on it, and returns `(throughput, system)`.
fn ablation_cell(
    env: &BenchEnv,
    config: DudeTmConfig,
    workload: WorkloadKind,
) -> (f64, dudetm::DudeTm<dude_stm::Stm>) {
    use dude_workloads::driver::{load_workload, run_fixed_ops, RunConfig};
    let nvm = Arc::new(dude_nvm::Nvm::new(dude_nvm::NvmConfig::for_benchmark(
        env.device_bytes(),
        dude_nvm::TimingConfig::paper_default(),
    )));
    let sys = dudetm::DudeTm::create_stm(nvm, checked(config));
    let w = build_workload(workload, env);
    load_workload(&sys, w.as_ref());
    let stats = run_fixed_ops(
        &sys,
        w.as_ref(),
        RunConfig {
            threads: env.threads,
            seed: env.seed,
            latency: env.latency_mode,
        },
        env.ops_per_thread(),
    );
    sys.quiesce();
    (stats.throughput, sys)
}

fn ablation_base_config(env: &BenchEnv, trace: TraceConfig) -> DudeTmConfig {
    DudeTmConfig {
        heap_bytes: env.heap_bytes,
        plog_bytes_per_thread: env.plog_bytes,
        max_threads: env.threads + 4,
        durability: env.durability,
        persist_group: 1,
        persist_flush_workers: 1,
        compress_groups: false,
        checkpoint_every: 64,
        reproduce_threads: 1,
        shadow: ShadowConfig::Identity,
        trace,
        metrics: crate::metrics_out::config_for(env.metrics),
    }
}

fn run_ablation_persist_threads(ctx: &SpecCtx) -> SpecOutput {
    let env = ctx.env();
    let trace_cfg = ablation_trace_cfg(ctx);
    let mut out = SpecOutput::default();
    let mut headers = vec!["persist threads", "throughput"];
    headers.extend(LATENCY_HEADERS);
    let mut table = Table::new("Ablation — persist threads (TPC-C hash, DudeTM)", &headers);
    let mut last_exposition = None;
    // On a single-CPU host more persist threads can only add scheduling
    // overhead — the interesting direction is that one thread does NOT
    // become a bottleneck.
    for &threads in if ctx.is_quick() {
        &[1usize, 2][..]
    } else {
        &[1usize, 2, 4][..]
    } {
        let config = ablation_base_config(&env, trace_cfg).with_flush_workers(threads);
        let (tps, sys) = ablation_cell(&env, config, WorkloadKind::TpccHash);
        // The lag surface: after quiesce the three watermarks coincide and
        // the snapshot shows what the run put through each stage.
        println!(
            "  pipeline [{threads} persist threads]: {}",
            sys.stats_snapshot().summary()
        );
        out.walltime_metric(
            format!("tps/persist_threads_{threads}"),
            "tps",
            Better::Higher,
            tps,
        );
        let mut row = vec![threads.to_string(), ctx.tps(tps)];
        row.extend(latency_cols(ctx, sys.trace()));
        if trace_cfg.enabled {
            last_exposition = Some(sys.metrics().render_prometheus());
        }
        table.push(row);
    }
    out.table("main", table);
    write_trace(ctx, last_exposition);
    out
}

fn run_ablation_checkpoint_cadence(ctx: &SpecCtx) -> SpecOutput {
    let env = ctx.env();
    let trace_cfg = ablation_trace_cfg(ctx);
    let mut out = SpecOutput::default();
    let mut headers = vec!["checkpoint every (txns)", "throughput"];
    headers.extend(LATENCY_HEADERS);
    let mut table = Table::new(
        "Ablation — reproduce checkpoint cadence (TPC-C hash, DudeTM)",
        &headers,
    );
    let mut last_exposition = None;
    for &every in if ctx.is_quick() {
        &[8u64, 512][..]
    } else {
        &[1u64, 8, 64, 512][..]
    } {
        let config = DudeTmConfig {
            checkpoint_every: every,
            ..ablation_base_config(&env, trace_cfg)
        };
        let (tps, sys) = ablation_cell(&env, config, WorkloadKind::TpccHash);
        out.walltime_metric(
            format!("tps/checkpoint_{every}"),
            "tps",
            Better::Higher,
            tps,
        );
        let mut row = vec![every.to_string(), ctx.tps(tps)];
        row.extend(latency_cols(ctx, sys.trace()));
        if trace_cfg.enabled {
            last_exposition = Some(sys.metrics().render_prometheus());
        }
        table.push(row);
    }
    out.table("main", table);
    write_trace(ctx, last_exposition);
    out
}

fn run_ablation_flush_workers(ctx: &SpecCtx) -> SpecOutput {
    use dude_txapi::{PAddr, TxnSystem, TxnThread};
    let env = ctx.env();
    let trace_cfg = ablation_trace_cfg(ctx);
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Ablation — persist flush workers (write-heavy drain, group=8, DudeTM-Inf, PCM latency)",
        &[
            "flush workers",
            "compress",
            "throughput",
            "speedup",
            "barrier p50 (us)",
            "barrier p95 (us)",
            "barrier p99 (us)",
        ],
    );
    // The observability layer is always on here (uniform overhead across
    // rows) to report the per-group barrier percentiles that explain the
    // throughput column.
    let section_trace = TraceConfig::enabled(64 * 1024);
    let quick = ctx.is_quick();
    let ops: u64 = ctx.ops.unwrap_or(if quick { 2_000 } else { 8_000 });
    let workers: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let compress_axis: &[bool] = if quick { &[false] } else { &[false, true] };
    let repeats = ctx.reps(3);
    let mut last_exposition = None;
    for &compress in compress_axis {
        let mut serial_rate = None;
        for &fw in workers {
            // Median of `repeats` runs: a single shared core makes any one
            // drain noisy, and this cell is the section's claim.
            let mut runs: Vec<(f64, u64, u64, u64)> = Vec::new();
            for rep in 0..repeats {
                // Group size 8 with PCM-class barrier latency (3500 cycles)
                // and bandwidth scaled to 64 MB/s so the modeled medium —
                // not this container's core — gates the drain.
                let timing = dude_nvm::TimingConfig {
                    bandwidth_bytes_per_sec: 64 << 20,
                    ..dude_nvm::TimingConfig::paper_default().with_latency_cycles(3500)
                };
                let nvm = Arc::new(dude_nvm::Nvm::new(dude_nvm::NvmConfig::for_benchmark(
                    env.device_bytes(),
                    timing,
                )));
                let config = DudeTmConfig {
                    durability: DurabilityMode::AsyncUnbounded,
                    persist_group: 8,
                    persist_flush_workers: fw,
                    compress_groups: compress,
                    trace: section_trace,
                    ..ablation_base_config(&env, section_trace)
                };
                let sys = dudetm::DudeTm::create_stm(nvm, checked(config));
                let lines = env.heap_bytes / 64;
                // Four Perform threads: the volatile burst outruns every
                // Persist configuration, so each row's drain starts from a
                // near-identical backlog and the rates are comparable.
                std::thread::scope(|scope| {
                    for p in 0..4u64 {
                        let sys = &sys;
                        scope.spawn(move || {
                            let mut t = sys.register_thread();
                            let mut x = (env.seed | 1) ^ (p + rep as u64).wrapping_mul(0x9E37_79B9);
                            for _ in 0..ops / 4 {
                                t.run(&mut |tx| {
                                    // 32 scattered words, one per cache line.
                                    for _ in 0..32 {
                                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                        let line = (x >> 17) % lines;
                                        tx.write_word(PAddr::from_word_index(line * 8), x)?;
                                    }
                                    Ok(())
                                });
                            }
                        });
                    }
                });
                let committed = sys.stats_snapshot().committed;
                let backlog = committed - sys.reproduced_id();
                let start = std::time::Instant::now();
                sys.quiesce();
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                let rate = backlog as f64 / secs;
                println!(
                    "  drain [{fw} flush workers, lz={compress}, rep {rep}]: {backlog} of \
                     {committed} txns backlogged at burst end, drained in {:.1} ms; {}",
                    secs * 1e3,
                    sys.stats_snapshot().summary()
                );
                let b = sys.trace().persist_barrier_ns.snapshot();
                runs.push((rate, b.p50(), b.p95(), b.p99()));
                if trace_cfg.enabled {
                    last_exposition = Some(sys.metrics().render_prometheus());
                }
            }
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (rate, p50, p95, p99) = runs[runs.len() / 2];
            let speedup = match serial_rate {
                None => {
                    serial_rate = Some(rate);
                    "1.00x".to_string()
                }
                Some(base_rate) => format!("{:.2}x", rate / base_rate),
            };
            let lz = if compress { "lz" } else { "off" };
            out.walltime_samples(
                format!("drain_tps/workers_{fw}/{lz}"),
                "tps",
                runs.iter().map(|r| r.0).collect(),
            );
            let us = |v: u64| ctx.walltime_cell(format!("{:.2}", v as f64 / 1000.0));
            table.push(vec![
                fw.to_string(),
                lz.to_string(),
                ctx.walltime_cell(fmt_tps(rate)),
                ctx.walltime_cell(speedup),
                us(p50),
                us(p95),
                us(p99),
            ]);
        }
    }
    out.table("main", table);
    write_trace(ctx, last_exposition);
    out
}

fn run_endurance(ctx: &SpecCtx) -> SpecOutput {
    use dude_nvm::{Nvm, NvmConfig, TimingConfig};
    use dude_workloads::driver::{load_workload, run_fixed_ops, RunConfig};
    let env = ctx.env();
    let groups: &[usize] = if ctx.is_quick() {
        &[1, 100]
    } else {
        &[1, 10, 100, 1_000]
    };
    let mut out = SpecOutput::default();
    let mut table = Table::new(
        "Endurance — line wear vs log combination (YCSB, zipf 0.99)",
        &[
            "group size",
            "max line wear",
            "total line flushes",
            "lines touched",
            "throughput",
        ],
    );
    for &group in groups {
        let timing = TimingConfig {
            latency_ns: TimingConfig::cycles_to_ns(env.latency_cycles),
            bandwidth_bytes_per_sec: env.bandwidth_gb << 30,
            enabled: true,
        };
        let nvm = Arc::new(Nvm::new(
            NvmConfig::for_benchmark(env.device_bytes(), timing).with_wear_tracking(),
        ));
        let config = DudeTmConfig {
            persist_group: group,
            compress_groups: group > 1,
            ..ablation_base_config(&env, TraceConfig::disabled())
        };
        let sys = dudetm::DudeTm::create_stm(Arc::clone(&nvm), checked(config));
        let w = build_workload(WorkloadKind::Ycsb { theta: 0.99 }, &env);
        load_workload(&sys, w.as_ref());
        nvm.wear_reset();
        let stats = run_fixed_ops(
            &sys,
            w.as_ref(),
            RunConfig {
                threads: env.threads,
                seed: env.seed,
                latency: env.latency_mode,
            },
            env.ops_per_thread(),
        );
        sys.quiesce();
        let wear = nvm.wear_summary().expect("wear enabled");
        // Wear counters include watermark/metadata persists whose cadence
        // is timing-driven, so they stay informational rather than gated.
        out.metrics.push(Metric {
            name: format!("max_line_wear/group_{group}"),
            unit: "count",
            value: wear.max_line_writes as f64,
            samples: vec![wear.max_line_writes as f64],
            gated: false,
            better: Better::Lower,
            walltime: false,
        });
        out.walltime_metric(
            format!("tps/group_{group}"),
            "tps",
            Better::Higher,
            stats.throughput,
        );
        table.push(vec![
            if group == 1 {
                "1 (off)".into()
            } else {
                group.to_string()
            },
            wear.max_line_writes.to_string(),
            wear.total_line_writes.to_string(),
            wear.lines_touched.to_string(),
            ctx.tps(stats.throughput),
        ]);
    }
    out.table("main", table);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed() {
        assert_eq!(SPECS.len(), 13);
        let mut seen = std::collections::HashSet::new();
        for spec in SPECS {
            assert!(seen.insert(spec.name), "duplicate spec {}", spec.name);
            assert!(!spec.tables.is_empty(), "{} declares no tables", spec.name);
            assert!(
                spec.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad spec name {}",
                spec.name
            );
        }
        assert!(find("table2").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn tiny_spec_run_produces_declared_slug() {
        // table1 restricted to one cheap workload with a tiny op count:
        // exercises the runner → SpecOutput path end to end.
        let ctx = SpecCtx {
            ops: Some(64),
            threads: Some(1),
            deterministic: true,
            workload_filter: Some(vec!["HashTable".into()]),
            ..SpecCtx::quick()
        };
        let out = (find("table1").unwrap().runner)(&ctx);
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].slug, "main");
        assert_eq!(out.tables[0].table.rows.len(), 1);
        // Deterministic mode masks the wall-clock columns.
        assert_eq!(out.tables[0].table.rows[0][1], "-");
        assert_eq!(out.tables[0].table.rows[0][2], "-");
        // Structural metrics are gated.
        assert!(out
            .metrics
            .iter()
            .any(|m| m.gated && m.name.starts_with("writes_per_tx/")));
    }
}
