//! Deterministic tests of the observability layer: that enabling it
//! records what the pipeline actually did, and that disabling it leaves
//! the pipeline's observable behavior untouched.

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode, PipelineSnapshot, TmEngine, TraceConfig};
use std::time::Duration;

/// Each test runs for seconds at most, in debug; one still going after
/// this is hung. Each has a fixed seed and configuration, so the test
/// name the watchdog prints names both.
const HANG: Duration = Duration::from_secs(300);

fn test_nvm(bytes: u64) -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(bytes)))
}

fn config(trace: TraceConfig) -> DudeTmConfig {
    DudeTmConfig {
        plog_bytes_per_thread: 1 << 18,
        max_threads: 4,
        trace,
        ..DudeTmConfig::small(1 << 20)
    }
}

/// The value of the exposition sample `name` — `family_count{labels}` —
/// which must be present.
fn sample<E: TmEngine>(dude: &DudeTm<E>, name: &str) -> u64 {
    let prom = dude.metrics().render_prometheus();
    let value = prom
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    let value = value.unwrap_or_else(|| panic!("{name} missing:\n{prom}"));
    value.parse().expect("an integer sample")
}

/// Runs a fixed single-thread workload and returns the final snapshot plus
/// a copy of the heap words it wrote. The snapshot is taken after
/// `shutdown()`: its drain checkpoint recycles every log ring, whereas
/// right after `quiesce()` the records since the last cadence checkpoint
/// still hold their spans.
fn run_workload(cfg: DudeTmConfig) -> (PipelineSnapshot, Vec<u64>, Arc<Nvm>) {
    let nvm = test_nvm(8 << 20);
    let mut dude = DudeTm::create_stm(Arc::clone(&nvm), cfg);
    let heap = dude.heap_region();
    {
        let mut t = dude.register_thread();
        for i in 0..200u64 {
            t.run(&mut |tx| {
                tx.write_word(PAddr::from_word_index(i % 64), i)?;
                tx.write_word(PAddr::from_word_index(64 + i % 32), i * 3)
            })
            .expect_committed();
        }
    }
    dude.quiesce();
    dude.shutdown();
    let snap = dude.stats_snapshot();
    let words = (0..96)
        .map(|i| nvm.read_word(heap.start() + i * 8))
        .collect();
    drop(dude);
    (snap, words, nvm)
}

/// The zero-overhead contract, tested at the observable level: with
/// tracing disabled, the pipeline's snapshot and the final heap image are
/// identical to an enabled run of the same deterministic workload — i.e.
/// recording changes nothing the application can see. (The `checkpoints`
/// counter is timing-dependent — a full ring forces checkpoints whenever
/// it fills — so it is normalized out, as are the stall counters the disabled run by
/// definition keeps at zero.)
#[test]
fn disabled_trace_is_behavior_identical_to_enabled() {
    let _watchdog = Watchdog::arm("", HANG);
    let (mut snap_off, heap_off, _) = run_workload(config(TraceConfig::disabled()));
    let (mut snap_on, heap_on, _) = run_workload(config(TraceConfig::enabled(4096)));
    assert_eq!(heap_off, heap_on, "heap image must not depend on tracing");
    snap_off.counters.checkpoints = 0;
    snap_on.counters.checkpoints = 0;
    snap_on.stalls = Default::default();
    // Histogram counts are what tracing records — the disabled run keeps
    // them empty by contract, so they are not part of the equality.
    snap_off.histograms.clear();
    snap_on.histograms.clear();
    assert_eq!(
        snap_off, snap_on,
        "PipelineSnapshot must not depend on tracing"
    );
}

/// Sim twin of the zero-overhead contract: both runs execute under the
/// virtual clock (histogram timings come from `monotonic_ns`, which the
/// scheduler owns), so the comparison is reproducible — a divergence
/// replays exactly with the printed seed rather than vanishing on rerun.
#[cfg(feature = "sim")]
#[test]
fn disabled_trace_is_behavior_identical_to_enabled_sim() {
    let _watchdog = Watchdog::arm("", HANG);
    let seed = std::env::var("DUDE_SIM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7);
    let mut results = Vec::new();
    for trace in [TraceConfig::disabled(), TraceConfig::enabled(4096)] {
        let report = dude_sim::run(dude_sim::SimConfig::from_seed(seed), move || {
            run_workload(config(trace))
        });
        if let Some(p) = report.panic {
            eprintln!("DUDE_SIM_SEED={seed}");
            panic!("sim run failed under seed {seed}: {p}");
        }
        let (snap, heap, _nvm) = report.result.expect("no panic implies a result");
        results.push((snap, heap));
    }
    let (mut snap_off, heap_off) = results.remove(0);
    let (mut snap_on, heap_on) = results.remove(0);
    assert_eq!(
        heap_off, heap_on,
        "heap image must not depend on tracing (DUDE_SIM_SEED={seed})"
    );
    // Tracing adds virtual-clock yield points, so the two schedules are
    // not step-identical; normalize the schedule-dependent counters, as
    // the native test does.
    snap_off.counters.checkpoints = 0;
    snap_on.counters.checkpoints = 0;
    snap_off.stalls = Default::default();
    snap_on.stalls = Default::default();
    snap_off.histograms.clear();
    snap_on.histograms.clear();
    assert_eq!(
        snap_off, snap_on,
        "PipelineSnapshot must not depend on tracing (DUDE_SIM_SEED={seed})"
    );
}

#[test]
fn disabled_trace_records_and_counts_nothing() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(nvm, config(TraceConfig::disabled()));
    {
        let mut t = dude.register_thread();
        for i in 0..50u64 {
            t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    let trace = dude.trace();
    assert!(!trace.enabled());
    for h in trace.histograms() {
        assert_eq!(h.cells.snapshot().count, 0, "{}", h.name());
    }
    let stalls = dude.stats_snapshot().stalls;
    assert_eq!(stalls, Default::default());
}

/// An enabled trace sees every commit in the latency histogram, persist
/// barriers in theirs — the one worker's share is all of them — and replay
/// applies in theirs, and the exposition carries the same counts.
#[test]
fn enabled_trace_records_the_pipeline() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(nvm, config(TraceConfig::enabled(65536)));
    {
        let mut t = dude.register_thread();
        for i in 0..100u64 {
            t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i % 64), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    let trace = dude.trace();
    assert_eq!(trace.commit_latency_ns.snapshot().count, 100);
    let barriers = trace.persist_barrier_ns.snapshot().count;
    assert!(barriers > 0);
    assert_eq!(trace.flush_worker_ns[0].snapshot().count, barriers);
    let applies = trace.replay_apply_ns.snapshot().count;
    assert!(applies > 0);
    assert_eq!(sample(&dude, "dudetm_commit_latency_ns_count"), 100);
    assert_eq!(sample(&dude, "dudetm_persist_barrier_ns_count"), barriers);
    let worker = "dudetm_flush_worker_ns_count{worker=\"0\"}";
    assert_eq!(sample(&dude, worker), barriers);
    let shard = "dudetm_replay_apply_ns_count{shard=\"0\"}";
    assert_eq!(sample(&dude, shard), applies);
}

/// Shared body for the native stall test and its sim twin: a 1-txn
/// volatile buffer, 500 commits, returns the perform_log_full count. The
/// commit/replay counts it asserts are schedule-independent; whether
/// Perform observably blocked is not, so the callers judge the returned
/// stall count each in their own way.
fn tiny_buffer_body() -> u64 {
    let nvm = test_nvm(8 << 20);
    let mut cfg = config(TraceConfig::enabled(4096));
    cfg.durability = DurabilityMode::Async { buffer_txns: 1 };
    let dude = DudeTm::create_stm(nvm, cfg);
    {
        let mut t = dude.register_thread();
        for i in 0..500u64 {
            t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i % 128), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    let snap = dude.stats_snapshot();
    assert_eq!(snap.counters.commits, 500);
    assert_eq!(snap.counters.txns_reproduced, 500);
    snap.stalls.perform_log_full
}

/// Perform blocking on a tiny bounded volatile log shows up as the
/// perform_log_full stall (Finding 2's "rarely blocks" made measurable).
/// On the native scheduler a sufficiently fast Persist thread can drain
/// the 1-txn buffer between every commit, so the probe tolerates a
/// bounded number of stall-free runs instead of flaking; the sim twin
/// below asserts the stall outright under a fixed virtual schedule.
#[test]
fn tiny_buffer_counts_perform_log_full_stalls() {
    let _watchdog = Watchdog::arm("", HANG);
    for _ in 0..3 {
        if tiny_buffer_body() > 0 {
            return;
        }
        eprintln!("no perform_log_full stall this run; retrying");
    }
    panic!("a 1-txn buffer never observably blocked Perform in 3 runs");
}

/// Sim twin: under the virtual scheduler the schedule is a function of
/// the seed, so the stall either deterministically happens or the seed is
/// wrong — no retries, no tolerance.
#[cfg(feature = "sim")]
#[test]
fn tiny_buffer_counts_perform_log_full_stalls_sim() {
    let _watchdog = Watchdog::arm("", HANG);
    let seed = std::env::var("DUDE_SIM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7);
    let report = dude_sim::run(dude_sim::SimConfig::from_seed(seed), tiny_buffer_body);
    if let Some(p) = report.panic {
        eprintln!("DUDE_SIM_SEED={seed}");
        panic!("sim run failed under seed {seed}: {p}");
    }
    let stalls = report.result.expect("no panic implies a result");
    assert!(
        stalls > 0,
        "1-txn buffer never blocked Perform under the seed-{seed} schedule \
         (DUDE_SIM_SEED={seed})"
    );
}

/// DudeTM-Sync waiting for log space is a Persist ring-full stall like any
/// other. A 4 KiB ring holds 64 of the workload's records and the cadence
/// never fires, so space only comes back through the checkpoint the
/// client forces while it waits on the full ring.
#[test]
fn sync_ring_full_waits_are_counted() {
    let _watchdog = Watchdog::arm("", HANG);
    let sync = |trace| {
        DudeTmConfig {
            plog_bytes_per_thread: 4096,
            checkpoint_every: u64::MAX / 2,
            ..config(trace)
        }
        .with_durability(DurabilityMode::Sync)
    };
    let (on, heap_on, _) = run_workload(sync(TraceConfig::enabled(4096)));
    let (off, heap_off, _) = run_workload(sync(TraceConfig::disabled()));
    assert!(on.stalls.persist_ring_full > 0, "{}", on.summary());
    assert_eq!(off.stalls, Default::default());
    assert_eq!(heap_on, heap_off, "heap image must not depend on tracing");
    assert_eq!(
        (on.committed, on.durable, on.reproduced),
        (off.committed, off.durable, off.reproduced)
    );
}

/// A `Sync` commit's inline Persist step is a sweep like a worker's: its
/// fence is timed, once per transaction. No worker exists, so no
/// `flush_worker_ns` series takes a sample.
#[test]
fn sync_sweeps_are_timed_and_traced() {
    let _watchdog = Watchdog::arm("", HANG);
    const COMMITS: u64 = 100;
    let nvm = test_nvm(8 << 20);
    let cfg = config(TraceConfig::enabled(65536)).with_durability(DurabilityMode::Sync);
    let dude = DudeTm::create_stm(nvm, cfg);
    {
        let mut t = dude.register_thread();
        for i in 0..COMMITS {
            t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i % 64), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    let trace = dude.trace();
    assert_eq!(trace.persist_barrier_ns.snapshot().count, COMMITS);
    assert_eq!(sample(&dude, "dudetm_persist_barrier_ns_count"), COMMITS);
    for (worker, h) in trace.flush_worker_ns.iter().enumerate() {
        assert_eq!(h.snapshot().count, 0);
        let name = format!("dudetm_flush_worker_ns_count{{worker=\"{worker}\"}}");
        assert_eq!(sample(&dude, &name), 0);
    }
}

/// The summary line always carries the four stall counters, and the trace
/// accessor works across engine types (API-surface check).
#[test]
fn summary_and_accessor_surface_the_layer() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(nvm, config(TraceConfig::enabled(1024)));
    {
        let mut t = dude.register_thread();
        t.run(&mut |tx| tx.write_word(PAddr::from_word_index(0), 1))
            .expect_committed();
    }
    dude.quiesce();
    let line = dude.stats_snapshot().summary();
    for key in [
        "perform_log_full=",
        "persist_ring_full=",
        "persist_seq_wait=",
        "reproduce_starved=",
    ] {
        assert!(line.contains(key), "summary missing {key}: {line}");
    }
    assert!(dude.trace().config().enabled);
}
