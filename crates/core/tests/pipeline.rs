//! End-to-end tests of the decoupled pipeline: Perform → Persist →
//! Reproduce, durability acknowledgement, crash recovery, log combination,
//! and paging.

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxAbort, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode, PagingMode, ShadowConfig, TraceConfig};
use std::time::Duration;

/// Each test runs for seconds at most, in debug; one still going after
/// this is hung. Each has a fixed seed and configuration, so the test
/// name the watchdog prints names both.
const HANG: Duration = Duration::from_secs(300);

fn test_nvm(bytes: u64) -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(bytes)))
}

fn small_config() -> DudeTmConfig {
    DudeTmConfig {
        plog_bytes_per_thread: 1 << 18,
        max_threads: 4,
        ..DudeTmConfig::small(1 << 20)
    }
}

/// Word address of heap slot `i`.
fn slot(i: u64) -> PAddr {
    PAddr::from_word_index(i)
}

#[test]
fn committed_transactions_reach_nvm() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), small_config());
    let heap = dude.heap_region();
    {
        let mut t = dude.register_thread();
        for i in 0..100u64 {
            t.run(&mut |tx| tx.write_word(slot(i), i * 10))
                .expect_committed();
        }
    }
    dude.quiesce();
    for i in 0..100u64 {
        assert_eq!(nvm.read_word(heap.start() + i * 8), i * 10);
    }
    let stats = dude.pipeline_stats();
    assert_eq!(stats.commits, 100);
    assert_eq!(stats.txns_reproduced, 100);
}

#[test]
fn durable_id_advances_and_wait_durable_works() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(nvm, small_config());
    let mut t = dude.register_thread();
    let out = t.run(&mut |tx| tx.write_word(slot(0), 7));
    let tid = out.info().unwrap().tid.unwrap();
    t.wait_durable(tid);
    assert!(t.durable_watermark() >= tid);
}

#[test]
fn user_abort_leaves_no_trace() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), small_config());
    let heap = dude.heap_region();
    {
        let mut t = dude.register_thread();
        t.run(&mut |tx| tx.write_word(slot(0), 1))
            .expect_committed();
        let out = t.run(&mut |tx| {
            tx.write_word(slot(0), 99)?;
            Err::<(), _>(TxAbort::User)
        });
        assert!(!out.is_committed());
        // Shadow must still hold the committed value.
        assert_eq!(t.run(&mut |tx| tx.read_word(slot(0))).expect_committed(), 1);
    }
    dude.quiesce();
    assert_eq!(nvm.read_word(heap.start()), 1);
}

#[test]
fn concurrent_transfers_conserve_money_end_to_end() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = Arc::new(DudeTm::create_stm(Arc::clone(&nvm), small_config()));
    let heap = dude.heap_region();
    const ACCOUNTS: u64 = 32;
    {
        let mut t = dude.register_thread();
        t.run(&mut |tx| {
            for i in 0..ACCOUNTS {
                tx.write_word(slot(i), 100)?;
            }
            Ok(())
        })
        .expect_committed();
    }
    std::thread::scope(|s| {
        for seed0 in 0..3u64 {
            let dude = Arc::clone(&dude);
            s.spawn(move || {
                let mut t = dude.register_thread();
                let mut seed = seed0 + 1;
                for _ in 0..400 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 33) % ACCOUNTS;
                    let b = (seed >> 13) % ACCOUNTS;
                    if a == b {
                        continue;
                    }
                    t.run(&mut |tx| {
                        let va = tx.read_word(slot(a))?;
                        if va == 0 {
                            return Err(TxAbort::User);
                        }
                        tx.write_word(slot(a), va - 1)?;
                        let vb = tx.read_word(slot(b))?;
                        tx.write_word(slot(b), vb + 1)
                    });
                }
            });
        }
    });
    dude.quiesce();
    let total: u64 = (0..ACCOUNTS)
        .map(|i| nvm.read_word(heap.start() + i * 8))
        .sum();
    assert_eq!(total, ACCOUNTS * 100, "NVM image must conserve total");
}

#[test]
fn crash_before_persist_loses_nothing_acknowledged() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config();
    let mut durable_values = Vec::new();
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        for i in 0..50u64 {
            let out = t.run(&mut |tx| tx.write_word(slot(i), i + 1));
            let tid = out.info().unwrap().tid.unwrap();
            t.wait_durable(tid);
            durable_values.push((i, i + 1));
        }
        drop(t);
        // Crash with the pipeline mid-flight (no quiesce, no clean drop):
        // simulate by crashing the device *now*.
        nvm.crash();
        // Tear down the runtime afterwards; its final checkpoint writes are
        // post-crash and harmless for this test's purposes — recovery below
        // uses a fresh copy of the device state? No: we recover in-place,
        // so drop must not be allowed to keep flushing. We therefore leak
        // the runtime instead of dropping it.
        std::mem::forget(dude);
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    assert!(report.last_tid >= 50, "all acknowledged txns recovered");
    let heap = dude2.heap_region();
    for (i, v) in durable_values {
        assert_eq!(
            nvm.read_word(heap.start() + i * 8),
            v,
            "acknowledged write to slot {i} lost"
        );
    }
}

#[test]
fn recovery_discards_unpersisted_tail_consistently() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config();
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        // Transaction writing two slots atomically, many times.
        for i in 0..200u64 {
            t.run(&mut |tx| {
                tx.write_word(slot(0), i)?;
                tx.write_word(slot(1), i)
            })
            .expect_committed();
        }
        drop(t);
        nvm.crash();
        std::mem::forget(dude);
    }
    let (dude2, _) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    let heap = dude2.heap_region();
    // Atomicity across the crash: both slots hold the same value.
    let a = nvm.read_word(heap.start());
    let b = nvm.read_word(heap.start() + 8);
    assert_eq!(a, b, "crash broke transaction atomicity: {a} vs {b}");
}

#[test]
fn recovered_runtime_continues_transaction_ids() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config();
    let last;
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        for i in 0..10u64 {
            t.run(&mut |tx| tx.write_word(slot(i), 1))
                .expect_committed();
        }
        drop(t);
        dude.quiesce();
        last = dude.reproduced_id();
        // Clean shutdown (Drop drains the pipeline and checkpoints).
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    assert_eq!(report.checkpoint, last, "clean shutdown checkpointed all");
    assert_eq!(report.replayed, 0);
    let mut t = dude2.register_thread();
    let out = t.run(&mut |tx| tx.write_word(slot(0), 2));
    assert_eq!(out.info().unwrap().tid.unwrap(), last + 1);
}

#[test]
fn recover_unformatted_device_fails() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let err = DudeTm::recover_stm(nvm, small_config()).unwrap_err();
    assert_eq!(err, dudetm::RecoverError::NotFormatted);
}

#[test]
fn sync_mode_is_durable_at_return() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config().with_durability(DurabilityMode::Sync);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
    let mut t = dude.register_thread();
    let out = t.run(&mut |tx| tx.write_word(slot(3), 33));
    let tid = out.info().unwrap().tid.unwrap();
    // DudeTM-Sync: durable before run() returns, no waiting.
    assert!(dude.durable_id() >= tid);
    drop(t);
    dude.quiesce();
    assert_eq!(nvm.read_word(dude.heap_region().start() + 24), 33);
}

#[test]
fn sync_mode_survives_immediate_crash() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config().with_durability(DurabilityMode::Sync);
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        t.run(&mut |tx| tx.write_word(slot(7), 77))
            .expect_committed();
        drop(t);
        nvm.crash();
        std::mem::forget(dude);
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    assert_eq!(report.last_tid, 1);
    assert_eq!(nvm.read_word(dude2.heap_region().start() + 56), 77);
}

#[test]
fn unbounded_mode_works() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config().with_durability(DurabilityMode::AsyncUnbounded);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
    assert_eq!(TxnSystem::name(&dude), "DudeTM-Inf");
    {
        let mut t = dude.register_thread();
        for i in 0..500u64 {
            t.run(&mut |tx| tx.write_word(slot(i % 64), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    assert_eq!(dude.pipeline_stats().txns_reproduced, 500);
}

#[test]
fn grouped_persist_combines_and_reproduces_correctly() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config().with_grouping(10, false);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
    let heap = dude.heap_region();
    {
        let mut t = dude.register_thread();
        // 100 transactions all hammering the same 4 slots: combination
        // should crush the entry count.
        for i in 0..100u64 {
            t.run(&mut |tx| tx.write_word(slot(i % 4), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    // Final values: the last write to each slot wins (tid order).
    for s in 0..4u64 {
        let expect = (0..100u64).filter(|i| i % 4 == s).max().unwrap();
        assert_eq!(nvm.read_word(heap.start() + s * 8), expect);
    }
    let stats = dude.pipeline_stats();
    assert!(stats.groups_persisted >= 10);
    assert!(
        stats.combine_savings() > 0.5,
        "expected >50% entries saved, got {:.2}",
        stats.combine_savings()
    );
}

#[test]
fn grouped_and_compressed_survives_crash() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config().with_grouping(8, true);
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        for i in 0..64u64 {
            let out = t.run(&mut |tx| tx.write_word(slot(i), i + 1));
            let tid = out.info().unwrap().tid.unwrap();
            t.wait_durable(tid);
        }
        drop(t);
        nvm.crash();
        std::mem::forget(dude);
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    assert_eq!(report.last_tid, 64);
    let heap = dude2.heap_region();
    for i in 0..64u64 {
        assert_eq!(nvm.read_word(heap.start() + i * 8), i + 1);
    }
}

#[test]
fn paged_shadow_end_to_end() {
    let _watchdog = Watchdog::arm("", HANG);
    for mode in [PagingMode::Software, PagingMode::Hardware] {
        let nvm = test_nvm(8 << 20);
        // 1 MiB heap = 256 pages, but only 8 shadow frames.
        let config = small_config().with_shadow(ShadowConfig::Paged { frames: 8, mode });
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let heap = dude.heap_region();
        {
            let mut t = dude.register_thread();
            // Write one word on each of 64 pages: forces heavy swapping.
            for page in 0..64u64 {
                let addr = PAddr::new(page * dudetm::PAGE_BYTES);
                t.run(&mut |tx| tx.write_word(addr, page + 1))
                    .expect_committed();
            }
            // Read them all back (re-faults evicted pages; values must come
            // back via NVM after reproduction).
            for page in 0..64u64 {
                let addr = PAddr::new(page * dudetm::PAGE_BYTES);
                let v = t.run(&mut |tx| tx.read_word(addr)).expect_committed();
                assert_eq!(v, page + 1, "page {page} mode {mode:?}");
            }
        }
        dude.quiesce();
        for page in 0..64u64 {
            assert_eq!(
                nvm.read_word(heap.start() + page * dudetm::PAGE_BYTES),
                page + 1
            );
        }
        let s = dude.shadow_stats();
        assert!(s.swap_ins >= 64, "mode {mode:?}: {s:?}");
        assert!(s.swap_outs > 0);
    }
}

#[test]
fn htm_engine_end_to_end() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_htm(Arc::clone(&nvm), small_config());
    let heap = dude.heap_region();
    {
        let mut t = dude.register_thread();
        for i in 0..50u64 {
            t.run(&mut |tx| {
                let v = tx.read_word(slot(0))?;
                tx.write_word(slot(0), v + i)
            })
            .expect_committed();
        }
    }
    dude.quiesce();
    assert_eq!(nvm.read_word(heap.start()), (0..50u64).sum());
}

#[test]
fn htm_crash_recovery() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config();
    {
        let dude = DudeTm::create_htm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        for i in 0..20u64 {
            let out = t.run(&mut |tx| tx.write_word(slot(i), i));
            let tid = out.info().unwrap().tid.unwrap();
            t.wait_durable(tid);
        }
        drop(t);
        nvm.crash();
        std::mem::forget(dude);
    }
    let (dude2, report) = DudeTm::recover_htm(Arc::clone(&nvm), config).unwrap();
    assert_eq!(report.last_tid, 20);
    let heap = dude2.heap_region();
    for i in 0..20u64 {
        assert_eq!(nvm.read_word(heap.start() + i * 8), i);
    }
}

#[test]
fn multi_thread_multi_persist_pipeline() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let config = small_config().with_flush_workers(2);
    let dude = Arc::new(DudeTm::create_stm(Arc::clone(&nvm), config));
    std::thread::scope(|s| {
        for t0 in 0..4u64 {
            let dude = Arc::clone(&dude);
            s.spawn(move || {
                let mut t = dude.register_thread();
                for i in 0..250u64 {
                    t.run(&mut |tx| tx.write_word(slot(t0 * 64 + (i % 64)), i))
                        .expect_committed();
                }
            });
        }
    });
    dude.quiesce();
    assert_eq!(dude.pipeline_stats().txns_reproduced, 1000);
    assert_eq!(dude.durable_id(), 1000);
}

#[test]
fn stats_snapshot_watermarks_and_occupancy() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), small_config());
    {
        let mut t = dude.register_thread();
        for i in 0..100u64 {
            t.run(&mut |tx| tx.write_word(slot(i % 16), i))
                .expect_committed();
        }
    }
    dude.quiesce();
    let snap = dude.stats_snapshot();
    // After quiesce the three watermarks coincide at the last commit.
    assert_eq!(snap.committed, 100);
    assert_eq!(snap.durable, 100);
    assert_eq!(snap.reproduced, 100);
    assert_eq!(snap.persist_lag(), 0);
    assert_eq!(snap.reproduce_lag(), 0);
    // Stage counters ride along in the same snapshot.
    assert_eq!(snap.counters.commits, 100);
    assert_eq!(snap.counters.txns_reproduced, 100);
    // One occupancy gauge per log ring; everything reproduced under a
    // small checkpoint cadence means at most the un-checkpointed tail
    // remains, never more than the rings can hold.
    assert_eq!(snap.ring_used_words.len(), small_config().max_threads);
    assert!(snap.ring_words_total() <= small_config().plog_bytes_per_thread / 8 * 4);
    let line = snap.summary();
    assert!(line.contains("committed=100"), "{line}");
}

/// Starvation/livelock regression for the Persist parked-record path
/// (`Sweep::stage` giving the unit back when the NVM log ring is full, and
/// the drain loop retrying it each sweep).
///
/// The adversarial setup: the smallest legal per-thread log ring (4 KiB),
/// a checkpoint cadence so large it never fires on count — so spans come
/// back only through the forced checkpoint a parked Persist worker takes —
/// and a 4-deep bounded Perform→Persist
/// buffer, so a wedged Persist propagates backpressure into `t.run()`.
/// Each worker pushes enough 8-word transactions to wrap its ring dozens
/// of times. The liveness chain under test: ring full → record parked →
/// the worker's sweep publishes (and so reproduces) what it staged → its
/// forced checkpoint releases the covered spans → the parked record
/// restages on the next Persist sweep. A livelock or lost parked record
/// shows up as this test hanging (or the final heap/image counts coming
/// up short); the stall-counter assertion proves the full-ring path
/// actually ran rather than the test passing vacuously.
/// Shared body for the native test and its fixed-seed sim twin: runs the
/// full-ring workload, asserts every deterministic invariant (commit and
/// replay counts, final heap image), and returns the ring-full stall
/// count — the one schedule-dependent observable — for the caller to
/// judge. Workers spawn through `dude_nvm::thread` so the same code runs
/// on OS threads natively and as virtual-scheduler tasks under sim.
fn full_ring_body(threads: u64, txns: u64) -> u64 {
    const WORDS_PER_TXN: u64 = 8;
    let nvm = test_nvm(8 << 20);
    let config = DudeTmConfig {
        plog_bytes_per_thread: 4096,
        checkpoint_every: u64::MAX / 2,
        durability: DurabilityMode::Async { buffer_txns: 4 },
        ..small_config()
    }
    .with_trace(TraceConfig::enabled(1024));
    let dude = Arc::new(DudeTm::create_stm(Arc::clone(&nvm), config));
    let heap = dude.heap_region();
    let mut handles = Vec::new();
    for t0 in 0..threads {
        let dude = Arc::clone(&dude);
        handles.push(dude_nvm::thread::spawn_named(
            &format!("ring-writer-{t0}"),
            move || {
                let mut t = dude.register_thread();
                let mut last = None;
                for i in 0..txns {
                    let out = t.run(&mut |tx| {
                        for w in 0..WORDS_PER_TXN {
                            tx.write_word(slot(t0 * WORDS_PER_TXN + w), i + w)?;
                        }
                        Ok(())
                    });
                    last = out.info().unwrap().tid;
                }
                // Durability must stay reachable even with the ring at
                // capacity; a starved parked record would hang us here.
                t.wait_durable(last.unwrap());
            },
        ));
    }
    for h in handles {
        h.join().expect("ring writer panicked");
    }
    dude.quiesce();
    let snap = dude.stats_snapshot();
    assert_eq!(snap.counters.commits, threads * txns);
    assert_eq!(snap.counters.txns_reproduced, threads * txns);
    // Every thread's final transaction reached the heap image.
    for t0 in 0..threads {
        for w in 0..WORDS_PER_TXN {
            assert_eq!(
                nvm.read_word(heap.start() + (t0 * WORDS_PER_TXN + w) * 8),
                txns - 1 + w
            );
        }
    }
    snap.stalls.persist_ring_full
}

/// The liveness chain under test: ring full → record parked → forced
/// checkpoint releases the reproduced spans → the parked record restages
/// on the next Persist sweep. A livelock or lost parked record shows up as
/// this test hanging (or the final heap/image counts coming up short).
///
/// Whether the ring *observably* fills depends on how the OS schedules
/// Persist against the Perform threads, so the stall probe tolerates a bounded
/// number of quiet runs instead of flaking on a loaded machine; the
/// deterministic invariants inside `full_ring_body` are asserted on every
/// attempt, and the sim twin below pins the stall itself under a fixed
/// virtual schedule.
#[test]
fn full_ring_parks_records_without_losing_progress() {
    let _watchdog = Watchdog::arm("", HANG);
    for _ in 0..3 {
        if full_ring_body(2, 400) > 0 {
            return;
        }
        eprintln!("ring never filled this run; retrying under fresh scheduling");
    }
    panic!("ring never filled in 3 runs — the parked path was not exercised");
}

/// Sim twin: the same body under the virtual scheduler, where the seed
/// fixes the schedule and the ring-full stall is a deterministic fact of
/// it, not a race we hope to win.
#[cfg(feature = "sim")]
#[test]
fn full_ring_parks_records_without_losing_progress_sim() {
    let _watchdog = Watchdog::arm("", HANG);
    let seed = std::env::var("DUDE_SIM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7);
    let report = dude_sim::run(dude_sim::SimConfig::from_seed(seed), move || {
        full_ring_body(2, 400)
    });
    if let Some(p) = report.panic {
        eprintln!("DUDE_SIM_SEED={seed}");
        panic!("sim run failed under seed {seed}: {p}");
    }
    let stalls = report.result.expect("no panic implies a result");
    assert!(
        stalls > 0,
        "ring never filled under the seed-{seed} schedule (DUDE_SIM_SEED={seed})"
    );
}

#[test]
fn bounds_violation_panics() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm(8 << 20);
    let dude = DudeTm::create_stm(nvm, small_config());
    let mut t = dude.register_thread();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        t.run(&mut |tx| tx.read_word(PAddr::new(1 << 20)))
    }));
    assert!(result.is_err(), "out-of-heap access must panic");
}
