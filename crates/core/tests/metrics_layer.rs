//! Behavioral tests of the continuous-metrics layer: the disabled fast
//! path changes nothing observable, the sampled frame series reconciles
//! exactly with the final pipeline snapshot, and recovery progress flows
//! through the telemetry cells.

use std::sync::Arc;
use std::time::Duration;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{
    log, recover_device, recover_device_observed, DudeTm, DudeTmConfig, MetricsConfig,
    PipelineSnapshot, RecoveryPhase, RecoveryTelemetry,
};

/// Each test runs for seconds at most, in debug; one still going after
/// this is hung. Each has a fixed seed and configuration, so the test
/// name the watchdog prints names both.
const HANG: Duration = Duration::from_secs(300);

fn test_nvm(bytes: u64) -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(bytes)))
}

fn config(metrics: MetricsConfig) -> DudeTmConfig {
    DudeTmConfig {
        plog_bytes_per_thread: 1 << 18,
        max_threads: 4,
        metrics,
        ..DudeTmConfig::small(1 << 20)
    }
}

/// Runs a fixed single-thread workload and returns the final snapshot plus
/// a copy of the heap words it wrote (the trace-layer behavior-equality
/// fixture, reused against the metrics switch). The snapshot is taken after
/// `shutdown()`: its drain checkpoint recycles every log ring, whereas
/// right after `quiesce()` the records since the last cadence checkpoint
/// still hold their spans.
fn run_workload(cfg: DudeTmConfig) -> (PipelineSnapshot, Vec<u64>, u64) {
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
    dude.sample_metrics_now(); // no-op when disabled; guarantees >=1 frame
    dude.shutdown();
    let snap = dude.stats_snapshot();
    let frames = dude.metrics().frames_recorded();
    let words = (0..96)
        .map(|i| nvm.read_word(heap.start() + i * 8))
        .collect();
    drop(dude);
    (snap, words, frames)
}

/// The disabled fast path at the observable level: with metrics disabled
/// (the default), the pipeline's snapshot and the final heap image are
/// identical to a run with a 1 ms sampler attached — i.e. continuous
/// sampling changes nothing the application (or the differential replay
/// oracle, which compares heap bytes) can see. Timing-dependent counters
/// are normalized as in the trace-layer twin of this test.
#[test]
fn disabled_metrics_is_behavior_identical_to_enabled() {
    let _watchdog = Watchdog::arm("", HANG);
    let (mut snap_off, heap_off, frames_off) = run_workload(config(MetricsConfig::disabled()));
    let (mut snap_on, heap_on, frames_on) =
        run_workload(config(MetricsConfig::sampling(Duration::from_millis(1))));
    assert_eq!(heap_off, heap_on, "heap image must not depend on metrics");
    assert_eq!(frames_off, 0, "disabled metrics must record no frames");
    assert!(frames_on > 0, "enabled sampler must have captured frames");
    snap_off.counters.checkpoints = 0;
    snap_on.counters.checkpoints = 0;
    snap_off.stalls = Default::default();
    snap_on.stalls = Default::default();
    assert_eq!(
        snap_off, snap_on,
        "PipelineSnapshot must not depend on metrics"
    );
}

/// Sim twin: both runs execute under the virtual clock (the sampler's
/// `recv_timeout` cadence comes from the scheduler), so a divergence
/// replays exactly with the printed seed.
#[cfg(feature = "sim")]
#[test]
fn disabled_metrics_is_behavior_identical_to_enabled_sim() {
    let _watchdog = Watchdog::arm("", HANG);
    let seed = std::env::var("DUDE_SIM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7);
    let mut results = Vec::new();
    for metrics in [
        MetricsConfig::disabled(),
        MetricsConfig::sampling(Duration::from_millis(1)),
    ] {
        let report = dude_sim::run(dude_sim::SimConfig::from_seed(seed), move || {
            run_workload(config(metrics))
        });
        if let Some(p) = report.panic {
            eprintln!("DUDE_SIM_SEED={seed}");
            panic!("sim run failed under seed {seed}: {p}");
        }
        results.push(report.result.expect("no panic implies a result"));
    }
    let (mut snap_off, heap_off, frames_off) = results.remove(0);
    let (mut snap_on, heap_on, frames_on) = results.remove(0);
    assert_eq!(
        heap_off, heap_on,
        "heap image must not depend on metrics (DUDE_SIM_SEED={seed})"
    );
    assert_eq!(frames_off, 0);
    assert!(
        frames_on > 0,
        "virtual-clock sampler must fire (seed {seed})"
    );
    snap_off.counters.checkpoints = 0;
    snap_on.counters.checkpoints = 0;
    snap_off.stalls = Default::default();
    snap_on.stalls = Default::default();
    assert_eq!(
        snap_off, snap_on,
        "PipelineSnapshot must not depend on metrics (DUDE_SIM_SEED={seed})"
    );
}

/// Disabled metrics spawn no sampler and make the explicit sampling entry
/// point a no-op — the frame ring stays empty forever.
#[test]
fn disabled_metrics_records_no_frames() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(nvm, config(MetricsConfig::disabled()));
    {
        let mut t = dude.register_thread();
        for i in 0..50u64 {
            t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    dude.sample_metrics_now();
    let reg = dude.metrics();
    assert!(!reg.enabled());
    assert_eq!(reg.frames_recorded(), 0);
    assert!(reg.frames().is_empty());
    assert!(reg.latest_frame().is_none());
    // The registry itself still works — a snapshot reads the live cells.
    assert_eq!(reg.snapshot().counters.commits, 50);
}

/// The acceptance reconciliation: a seeded 4-thread workload sampled at
/// 10 ms produces a frame series whose last frame — the one the sampler
/// captures at shutdown, after the pipeline workers have drained — equals
/// the final `PipelineSnapshot` cell for cell: every counter, gauge and
/// stall the catalog carries.
#[test]
fn four_thread_frames_reconcile_with_final_snapshot() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let mut dude = DudeTm::create_stm(
        nvm,
        config(MetricsConfig::sampling(Duration::from_millis(10))),
    );
    std::thread::scope(|s| {
        let dude = &dude;
        for t in 0..4u64 {
            s.spawn(move || {
                let mut th = dude.register_thread();
                for i in 0..300u64 {
                    let slot = (t * 301 + i * 7) % 2048;
                    th.run(&mut |tx| tx.write_word(PAddr::from_word_index(slot), t * 1000 + i))
                        .expect_committed();
                }
            });
        }
    });
    dude.shutdown();
    let frame = dude.metrics().latest_frame().expect("final frame");
    let snap = dude.stats_snapshot();
    assert_eq!(frame.counters, snap.counters);
    assert_eq!(frame.watermarks, snap.watermarks());
    assert_eq!(frame.stalls, snap.stalls);
    assert_eq!(
        frame.counters.commits, 1200,
        "4 threads x 300 committed txns"
    );
    assert!(
        frame.counters.log_bytes_flushed > 0,
        "flushed bytes must be counted"
    );
    assert_eq!(
        frame.watermarks.committed,
        1200 + snap.counters.abort_markers
    );
    assert_eq!(
        frame.watermarks.persist_lag, 0,
        "drained pipeline has no lag"
    );
    assert_eq!(frame.watermarks.reproduce_lag, 0);
    assert_eq!(frame.watermarks.ring_used_words, 0, "every span recycled");
}

/// Recovery observability: scanning, replaying, discarding, and wiping a
/// crafted crashed device all land in the telemetry cells, and the phase
/// gauge finishes at `Done`.
#[test]
fn recovery_telemetry_reports_scan_replay_wipe() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(1 << 16)));
    let cfg = DudeTmConfig {
        plog_bytes_per_thread: 4096,
        max_threads: 2,
        ..DudeTmConfig::small(4096)
    };
    // Format via a throwaway runtime, then plant records directly: tid 1
    // intact and replayable; tids 3..=4 beyond the durable gap
    // (discarded, two transactions).
    drop(DudeTm::create_stm(Arc::clone(&nvm), cfg));
    let (layout, clean) = recover_device(&nvm, &cfg).expect("clean device recovers");
    assert_eq!(clean.replayed, 0);
    let mut buf = Vec::new();
    log::serialize_commit(1, [(0, 11), (8, 22)], &mut buf);
    nvm.write_words(layout.plogs[0].start(), &buf);
    nvm.persist(layout.plogs[0].start(), buf.len() as u64 * 8);
    log::serialize_group(3, 4, &[(16, 33)], false, &mut buf);
    nvm.write_words(layout.plogs[1].start(), &buf);
    nvm.persist(layout.plogs[1].start(), buf.len() as u64 * 8);

    let telemetry = RecoveryTelemetry::default();
    let (_, report) =
        recover_device_observed(&nvm, &cfg, &telemetry).expect("crafted device recovers");
    assert_eq!(report.replayed, 1);
    assert_eq!(report.discarded, 2);
    let seen = telemetry.snapshot();
    assert_eq!(seen.phase, RecoveryPhase::Done.as_u64());
    assert_eq!(seen.records_scanned, 2, "one record per ring");
    assert_eq!(
        seen.bytes_scanned,
        2 * 4096,
        "both log regions scanned in full"
    );
    assert_eq!(seen.txns_replayed, 1);
    assert_eq!(seen.bytes_replayed, 16, "two replayed words");
    assert_eq!(seen.records_discarded, 2);
    assert_eq!(seen.stale_skipped, 0);
    assert!(seen.bytes_wiped >= 16, "planted records must be wiped");
}
