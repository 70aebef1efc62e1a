//! The traced (`--trace 1`) run: where a transaction's time goes, layer
//! by layer. Nothing here is gated; every number says which end-to-end
//! metric it should move (see `README.md`).
//!
//! Three phases at a quarter of the untraced length, then the replays:
//!
//! * **A** — an *untraced* DudeTM instance against the Volatile-STM
//!   reference, in alternating equal-op slices on this one driver thread
//!   and over the same operation stream. Absolute speeds drift with the
//!   host; the ratio of two neighbouring slices does not.
//! * **B** — a DudeTM instance with `TraceConfig` and `MetricsConfig`
//!   enabled, driven through the same slices: the repo's own histograms,
//!   stall counters and device counters, the pipelined durable-ack
//!   latency, and (against phase A) what the instrumentation costs.
//! * **C** — the crash phase, whose recorded history is then replayed
//!   through the log, compress and plog layers in isolation.

use std::collections::VecDeque;
use std::time::Instant;

use dude_baselines::VolatileStm;
use dude_txapi::{CommitInfo, TxnSystem, TxnThread};
use dude_workloads::driver::Workload;
use dude_workloads::rng::Rng;
use dudetm::{HistogramSnapshot, PipelineSnapshot};

use crate::crash::crash_phase;
use crate::layers;
use crate::run::{drive, first_touch, load, median, verify, warm_up, with_instance, Live};
use crate::spans::Spans;
use crate::spec::{Plan, Spec, PER_LAYER, SLICE_PAIRS, TRACED_DIVISOR};
use crate::sys::{process_cpu_ns, thread_cpu_ns};

/// Read-only slice pairs, and operations per read-only slice.
const RO_PAIRS: u64 = 10;
const RO_SLICE_OPS: u64 = 200_000;
/// Every this many commits one is sampled for durable-ack latency.
const ACK_SAMPLE_EVERY: u64 = 64;

/// Result of the traced run.
pub struct TracedOutcome {
    /// Operations attempted across the phases.
    pub attempted: u64,
    /// Operations that failed (see [`crate::run::Measured::failed`]).
    pub failed: u64,
    /// One value per [`PER_LAYER`] entry, in that order.
    pub values: Vec<f64>,
}

/// Metric values collected by name, so no phase depends on the order of
/// the catalogue.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        self.0.push((name, value));
    }

    fn in_catalogue_order(&self) -> Vec<f64> {
        PER_LAYER
            .iter()
            .map(|d| {
                self.0
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .unwrap_or_else(|| panic!("traced run never measured {}", d.name))
                    .1
            })
            .collect()
    }
}

/// One timed slice on the driver thread.
#[derive(Debug, Clone, Copy, Default)]
struct Slice {
    /// Wall time of the operations.
    ops_ns: u64,
    /// Driver-thread CPU time of the operations.
    cpu_ns: u64,
    /// Last commit until everything is durable.
    persist_drain_ns: u64,
    /// Everything durable until everything is reproduced.
    reproduce_drain_ns: u64,
}

impl Slice {
    /// Operations plus both drains: the sustained cost of the slice.
    fn total_ns(&self) -> u64 {
        self.ops_ns + self.persist_drain_ns + self.reproduce_drain_ns
    }
}

/// Pipelined durable-acknowledgement latency (paper §5.3): sampled
/// commits wait in a queue and are acknowledged, between transactions,
/// once the durable ID has passed them. Nobody stalls for an ack.
#[derive(Default)]
struct AckSampler {
    seen: u64,
    outstanding: VecDeque<(u64, Instant)>,
    samples_ns: Vec<u64>,
}

impl AckSampler {
    fn on_commit(&mut self, info: CommitInfo, durable_id: impl Fn() -> u64) {
        self.seen += 1;
        if !self.seen.is_multiple_of(ACK_SAMPLE_EVERY) {
            return;
        }
        let now = Instant::now();
        if let Some(tid) = info.tid {
            self.outstanding.push_back((tid, now));
        }
        self.acknowledge(durable_id(), now);
    }

    fn acknowledge(&mut self, watermark: u64, now: Instant) {
        while self
            .outstanding
            .front()
            .is_some_and(|&(tid, _)| tid <= watermark)
        {
            let (_, since) = self.outstanding.pop_front().expect("peeked");
            self.samples_ns.push((now - since).as_nanos() as u64);
        }
    }

    /// Nearest-rank quantile of the samples, in microseconds.
    fn quantile_us(&mut self, q: f64) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.sort_unstable();
        let rank = ((self.samples_ns.len() - 1) as f64 * q) as usize;
        self.samples_ns[rank] as f64 / 1000.0
    }
}

/// `n` operations on any system, timed; no drain.
fn plain_slice<T: TxnThread>(
    t: &mut T,
    workload: &dyn Workload,
    rng: &mut Rng,
    n: u64,
    writes: &mut Vec<(u64, u64)>,
    failed: &mut u64,
) -> Slice {
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    *failed += drive(t, workload, rng, n, writes, |_, _| {});
    Slice {
        ops_ns: t0.elapsed().as_nanos() as u64,
        cpu_ns: thread_cpu_ns() - cpu0,
        ..Slice::default()
    }
}

/// `n` update operations on the DudeTM instance, then `wait_durable` on
/// the last commit and `quiesce`, each timed. The model follows along, as
/// in the untraced run.
fn dude_slice(
    live: &mut Live<'_>,
    n: u64,
    mut acks: Option<&mut AckSampler>,
    spans: &mut Spans,
) -> Slice {
    let dude = live.dude;
    let model = &mut live.model;
    let mut last_tid = 0;
    let span = spans.enter("run");
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    live.failed += drive(
        &mut live.thread,
        live.built.update.as_ref(),
        &mut live.rng,
        n,
        &mut live.writes,
        |w, info| {
            model.apply(w);
            last_tid = info.tid.unwrap_or(last_tid);
            if let Some(acks) = acks.as_deref_mut() {
                acks.on_commit(info, || dude.durable_id());
            }
        },
    );
    let ops_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = thread_cpu_ns() - cpu0;
    spans.exit(span);

    let span = spans.enter("wait_durable");
    live.thread.wait_durable(last_tid);
    let persist_drain_ns = spans.exit(span);
    if let Some(acks) = acks {
        acks.acknowledge(dude.durable_id(), Instant::now());
    }
    let span = spans.enter("quiesce");
    dude.quiesce();
    let reproduce_drain_ns = spans.exit(span);
    Slice {
        ops_ns,
        cpu_ns,
        persist_drain_ns,
        reproduce_drain_ns,
    }
}

fn medians(pairs: impl Iterator<Item = f64>) -> f64 {
    median(&pairs.collect::<Vec<_>>())
}

/// How the traced phases cut their work.
#[derive(Debug, Clone, Copy)]
struct Slicing {
    /// Update slices per phase (pairs with the reference in phase A).
    pairs: u64,
    /// Operations per update slice.
    slice_ops: u64,
    /// Operations per read-only slice.
    ro_ops: u64,
}

/// Phase A: untraced DudeTM against the Volatile-STM reference. Returns
/// the median untraced DudeTM slice throughput for phase B to compare with.
fn phase_a(
    live: &mut Live<'_>,
    plan: &Plan,
    seed: u64,
    cut: Slicing,
    m: &mut Values,
    spans: &mut Spans,
) -> f64 {
    let Slicing {
        pairs,
        slice_ops,
        ro_ops,
    } = cut;
    // The reference gets the same treatment as the instance under test:
    // same heap size, first touch, load, and the same warm-up stream.
    let span = spans.enter("volatile_setup");
    let volatile = VolatileStm::new(live.built.heap_bytes);
    let mut vt = volatile.register_thread();
    let mut vwrites = Vec::with_capacity(256);
    let mut vrng = Rng::new(seed);
    let built = live.built;
    let update = built.update.as_ref();
    live.failed += first_touch(&mut vt, volatile.heap_words());
    live.failed += load(&mut vt, update, &mut vwrites, |_| {});
    live.failed += warm_up(
        &mut vt,
        update,
        &mut vrng,
        plan.warmup,
        &mut vwrites,
        |_| {},
    );
    spans.exit(span);

    let mut vol = Vec::new();
    let mut dud = Vec::new();
    for _ in 0..pairs {
        let span = spans.enter("volatile_run");
        vol.push(plain_slice(
            &mut vt,
            update,
            &mut vrng,
            slice_ops,
            &mut vwrites,
            &mut live.failed,
        ));
        spans.exit(span);
        dud.push(dude_slice(live, slice_ops, None, spans));
    }
    let n = slice_ops as f64;
    m.set(
        "stm.volatile_ns_per_tx",
        medians(vol.iter().map(|v| v.ops_ns as f64 / n)),
    );
    m.set(
        "runtime.vs_volatile",
        medians(
            vol.iter()
                .zip(&dud)
                .map(|(v, d)| v.ops_ns as f64 / d.total_ns() as f64),
        ),
    );
    m.set(
        "runtime.perform_cpu_ns_per_tx",
        medians(dud.iter().map(|d| d.cpu_ns as f64 / n)),
    );
    m.set(
        "runtime.fg_overhead_ns_per_tx",
        medians(
            vol.iter()
                .zip(&dud)
                .map(|(v, d)| (d.cpu_ns as f64 - v.cpu_ns as f64) / n),
        ),
    );

    // Read-only transactions never enter the pipeline: any gap to the
    // reference is TM instrumentation and the runtime's wrapper alone.
    let read_only = built.read_only.as_ref();
    let mut ro_rng_v = Rng::new(seed ^ 0x0D);
    let mut ro_rng_d = Rng::new(seed ^ 0x0D);
    let mut ratios = Vec::new();
    for _ in 0..RO_PAIRS {
        let span = spans.enter("volatile_read_only");
        let v = plain_slice(
            &mut vt,
            read_only,
            &mut ro_rng_v,
            ro_ops,
            &mut vwrites,
            &mut live.failed,
        );
        spans.exit(span);
        let span = spans.enter("read_only");
        let d = plain_slice(
            &mut live.thread,
            read_only,
            &mut ro_rng_d,
            ro_ops,
            &mut live.writes,
            &mut live.failed,
        );
        spans.exit(span);
        ratios.push(v.ops_ns as f64 / d.ops_ns as f64);
    }
    m.set("runtime.read_only_vs_volatile", median(&ratios));

    live.failed += verify(live);
    medians(dud.iter().map(|d| n * 1e9 / d.total_ns() as f64))
}

/// `after - before` of two snapshots of one histogram.
fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
    }
}

/// The named histogram's growth between two pipeline snapshots (empty if
/// the runtime has no such histogram).
fn histogram_between(
    after: &PipelineSnapshot,
    before: &PipelineSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let find = |snap: &PipelineSnapshot| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
    };
    match (find(after), find(before)) {
        (Some(a), Some(b)) => histogram_delta(&a, &b),
        _ => HistogramSnapshot::default(),
    }
}

/// Phase B: the traced instance through the same slices.
fn phase_b(
    live: &mut Live<'_>,
    cut: Slicing,
    untraced_tps: f64,
    m: &mut Values,
    spans: &mut Spans,
) {
    let Slicing {
        pairs, slice_ops, ..
    } = cut;
    let snap0 = live.dude.stats_snapshot();
    let nvm0 = live.nvm.stats();
    let wait0 = live.nvm.timing().total_delay_ns();
    let proc0 = process_cpu_ns();
    let thread0 = thread_cpu_ns();
    let mut acks = AckSampler::default();
    let slices: Vec<Slice> = (0..pairs)
        .map(|_| dude_slice(live, slice_ops, Some(&mut acks), spans))
        .collect();
    let bg_cpu_ns = (process_cpu_ns() - proc0).saturating_sub(thread_cpu_ns() - thread0);
    let snap1 = live.dude.stats_snapshot();
    let nvm = live.nvm.stats().delta(&nvm0);
    let wait_ns = live.nvm.timing().total_delay_ns() - wait0;
    let counters = snap1.counters.delta(&snap0.counters);

    let n = slice_ops as f64;
    let txs = (pairs * slice_ops) as f64;
    let traced_tps = medians(slices.iter().map(|s| n * 1e9 / s.total_ns() as f64));
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_tps / untraced_tps),
    );

    let commit = histogram_between(&snap1, &snap0, "commit_latency_ns");
    m.set("runtime.commit_p50_ns", commit.p50() as f64);
    m.set("runtime.commit_p99_ns", commit.p99() as f64);
    let stall = |f: fn(&PipelineSnapshot) -> u64| (f(&snap1) - f(&snap0)) as f64;
    m.set(
        "runtime.log_full_stalls",
        stall(|s| s.stalls.perform_log_full),
    );
    m.set(
        "pipeline.ring_full_stalls",
        stall(|s| s.stalls.persist_ring_full),
    );
    m.set(
        "pipeline.seq_wait_stalls",
        stall(|s| s.stalls.persist_seq_wait),
    );
    m.set(
        "pipeline.reproduce_starved",
        stall(|s| s.stalls.reproduce_starved),
    );

    m.set("pipeline.ack_p50_us", acks.quantile_us(0.50));
    m.set("pipeline.ack_p99_us", acks.quantile_us(0.99));
    m.set(
        "pipeline.persist_drain_ms",
        medians(slices.iter().map(|s| s.persist_drain_ns as f64 / 1e6)),
    );
    m.set(
        "pipeline.reproduce_drain_ms",
        medians(slices.iter().map(|s| s.reproduce_drain_ns as f64 / 1e6)),
    );
    m.set("pipeline.bg_cpu_ns_per_tx", bg_cpu_ns as f64 / txs);
    // Every fence that is not a checkpoint's is a Persist barrier.
    let persist_fences = nvm.fences.saturating_sub(counters.checkpoints).max(1);
    m.set(
        "pipeline.records_per_fence",
        (counters.commits + counters.abort_markers) as f64 / persist_fences as f64,
    );
    m.set(
        "pipeline.checkpoints_per_ktx",
        1000.0 * counters.checkpoints as f64 / txs,
    );
    for (metric, histogram) in [
        ("pipeline.persist_barrier_p50_ns", "persist_barrier_ns"),
        (
            "pipeline.flush_worker_p50_ns",
            "flush_worker_ns{worker=\"0\"}",
        ),
        (
            "pipeline.replay_apply_p50_ns",
            "replay_apply_ns{shard=\"0\"}",
        ),
    ] {
        m.set(
            metric,
            histogram_between(&snap1, &snap0, histogram).p50() as f64,
        );
    }

    m.set(
        "plog.log_bytes_per_tx",
        counters.log_bytes_flushed as f64 / txs,
    );
    m.set("nvm.words_written_per_tx", nvm.words_written as f64 / txs);
    m.set("nvm.bytes_flushed_per_tx", nvm.bytes_flushed as f64 / txs);
    m.set("nvm.fences_per_tx", nvm.fences as f64 / txs);
    m.set("nvm.modeled_wait_ns_per_tx", wait_ns as f64 / txs);

    live.failed += verify(live);
}

/// Runs the traced phases for `spec`; `plan` is the *untraced* plan.
pub fn run(spec: &Spec, plan: &Plan, seed: u64, spans: &mut Spans) -> TracedOutcome {
    let smoke = plan.smoke;
    let plan = Plan::new(plan.ops / TRACED_DIVISOR, plan.seconds, smoke);
    let pairs = SLICE_PAIRS.min(plan.ops);
    let cut = Slicing {
        pairs,
        slice_ops: plan.ops / pairs,
        ro_ops: if smoke {
            RO_SLICE_OPS / 1000
        } else {
            RO_SLICE_OPS
        },
    };
    let mut m = Values::default();

    let phase = spans.enter("phase_a_untraced_vs_volatile");
    let (_, (untraced_tps, failed_a)) =
        with_instance(spec, &plan, seed, false, spans, |live, spans| {
            let tps = phase_a(live, &plan, seed, cut, &mut m, spans);
            (tps, live.failed)
        });
    spans.exit(phase);

    let phase = spans.enter("phase_b_traced");
    let (_, failed_b) = with_instance(spec, &plan, seed, true, spans, |live, spans| {
        phase_b(live, cut, untraced_tps, &mut m, spans);
        live.failed
    });
    spans.exit(phase);

    let crash = crash_phase(spec, seed, smoke, spans);
    let span = spans.enter("layer_replay");
    // The history is in TID order and the load phase drew the first TIDs.
    let first_op = crash.history.partition_point(|e| e.tid <= crash.load_txns);
    let costs = layers::replay(&crash.history[first_op..]);
    spans.exit(span);
    m.set("log.serialize_ns_per_tx", costs.serialize_ns_per_tx);
    m.set("log.parse_ns_per_tx", costs.parse_ns_per_tx);
    m.set("log.words_per_tx", costs.words_per_tx);
    m.set("log.combine_ns_per_tx", costs.combine_ns_per_tx);
    m.set("log.combine_keep_ratio", costs.combine_keep_ratio);
    m.set("compress.ns_per_byte", costs.compress_ns_per_byte);
    m.set(
        "compress.decompress_ns_per_byte",
        costs.decompress_ns_per_byte,
    );
    m.set("compress.stored_ratio", costs.stored_ratio);
    m.set("plog.append_ns_per_tx", costs.plog_append_ns_per_tx);
    let report = crash.report;
    m.set("recovery.scan_ms", report.scan_ns as f64 / 1e6);
    m.set(
        "recovery.replay_us_per_tx",
        report.replay_ns as f64 / 1e3 / report.replayed.max(1) as f64,
    );
    m.set("recovery.wipe_ms", report.wipe_ns as f64 / 1e6);
    m.set("recovery.replayed", report.replayed as f64);

    // Both DudeTM phases run the update slices; phase A adds the
    // reference's share and the read-only slices on both systems.
    let attempted = 3 * cut.pairs * cut.slice_ops + 2 * RO_PAIRS * cut.ro_ops + crash.attempted;
    TracedOutcome {
        attempted,
        failed: failed_a + failed_b + crash.failed,
        values: m.in_catalogue_order(),
    }
}
