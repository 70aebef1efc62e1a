//! Multi-threaded crash-point sweep with the durable-linearizability
//! oracle (`dude-check`).
//!
//! `tests/crash_sweep.rs` enumerates crash points under a single Perform
//! thread, where the committed sequence is predetermined. This suite runs
//! *concurrent* Perform threads, so the commit order is decided at run time
//! by the global clock; the property under test is **durable
//! linearizability**: after a crash at any persistence event, the recovered
//! heap must equal the replay of exactly a contiguous TID-prefix of the
//! history that actually happened.
//!
//! Mechanics per round:
//! 1. attach a [`dudetm::CommitHistory`] recorder to a fresh runtime;
//! 2. run a seeded workload on 2–8 threads (bank transfers — conflicting,
//!    abort-marker-producing — or per-thread counters — conflict-free,
//!    maximally interleaved TIDs), arming a [`CrashPlan`] at the n-th
//!    flush/fence/store;
//! 3. freeze the crash image, recover with [`recover_device`], and hand
//!    the recorded history plus the recovered heap to
//!    [`dudetm::check_prefix`];
//! 4. check the workload's own invariant (conserved bank sum, monotone
//!    counters bounded by acknowledged progress) as an independent second
//!    oracle.
//!
//! The config matrix covers `persist_flush_workers ∈ {1,2}` ungrouped and
//! `{1,2,4}` grouped, `persist_group ∈ {1,8}` with and without
//! `compress_groups`, identity and paged shadow memory, and Async/AsyncUnbounded/Sync durability, grouped
//! `Sync` included. Every returned `Sync` commit is acknowledged, and checked
//! durable as it returns. With the default seed set the sweeps
//! below enumerate well over 500 `(seed × crash point × config)` cases;
//! set `DUDE_SWEEP_SEEDS=7,1337,424242` (comma-separated) to rerun the
//! same matrix under other interleavings, as CI does in release mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dude_nvm::{CrashEventKind, CrashPlan, Nvm, NvmConfig, StageFilter};
use dude_txapi::{PAddr, TxAbort, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{
    check_prefix, recover_device, CommitHistory, DudeTm, DudeTmConfig, DurabilityMode, PagingMode,
    ShadowConfig,
};

const ACCOUNTS: u64 = 16;
const INITIAL: u64 = 100;
/// A run takes well under a second in release and a few in debug; one
/// still going after this is hung.
const HANG: Duration = Duration::from_secs(120);

fn slot(i: u64) -> PAddr {
    PAddr::from_word_index(8 + 8 * i)
}

/// Word `w` of the bank's cold row, the line after the last account's: the
/// seed transaction writes `wide(w, w + 1)` to each of its eight words and
/// no transfer touches it again, so once a log ring has wrapped over a
/// record of the seed's run, recovery skips the seed's record as stale and
/// only the heap holds the row.
fn cold(w: u64) -> PAddr {
    PAddr::from_word_index(8 + 8 * ACCOUNTS + w)
}

/// The word stored for `v` in word `i` of the accounts or the cold row: `v`
/// (under 256 for a cold word; a balance stays above 0) over an offset of
/// 2–8 significant bytes, by `i`. Every bank value logged is then
/// multi-byte, and the records of a frame end at varied bytes of its
/// payload.
fn wide(i: u64, v: u64) -> u64 {
    (0x0101 << (8 * (i % 7))) + v
}

/// Seeds for the sweep: `DUDE_SWEEP_SEEDS=a,b,c` overrides the default
/// pair (CI passes three).
fn seeds() -> Vec<u64> {
    match std::env::var("DUDE_SWEEP_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad DUDE_SWEEP_SEEDS entry {t:?}"))
            })
            .collect(),
        Err(_) => vec![7, 1337],
    }
}

fn cfg(
    mode: DurabilityMode,
    persist_workers: usize,
    persist_group: usize,
    compress: bool,
) -> DudeTmConfig {
    let c = DudeTmConfig {
        max_threads: 10,
        plog_bytes_per_thread: 1 << 16,
        checkpoint_every: 8,
        persist_flush_workers: persist_workers,
        persist_group,
        compress_groups: compress,
        ..DudeTmConfig::small(1 << 16)
    }
    .with_durability(mode);
    c.try_validate().expect("sweep matrix combo must be valid");
    c
}

fn fresh_nvm() -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(1 << 20)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Random transfers between shared accounts: conflicting read-write
    /// sets, commit-time aborts (wasted TIDs → abort markers).
    Bank,
    /// Each thread increments its own counter word, `stride` words after
    /// the previous thread's: conflict-free, so the TID sequence
    /// interleaves all threads densely.
    Counters { stride: u64 },
}

/// Thread `w`'s counter word.
fn counter(stride: u64, w: usize) -> PAddr {
    PAddr::from_word_index(8 + stride * w as u64)
}

const COUNTERS: Workload = Workload::Counters { stride: 8 };

struct MtRun {
    /// Highest TID acknowledged durable strictly before the crash instant.
    acked_tid: u64,
    /// Per-worker count of increments acknowledged durable before the
    /// crash instant (Counters only).
    acked_incr: Vec<u64>,
    history: Arc<CommitHistory>,
    /// Bytes appended to the log rings before the runtime shut down.
    log_bytes: u64,
}

/// Runs `threads` workers × `ops` transactions each to clean shutdown,
/// recording the commit history. With a plan armed the crash image freezes
/// mid-run while live threads keep going (the emulator never wedges the
/// pipeline); acknowledgements observed after the trip belong to the
/// post-crash timeline and are excluded.
fn run_mt(
    nvm: &Arc<Nvm>,
    cfg: DudeTmConfig,
    workload: Workload,
    threads: usize,
    ops: u64,
    seed: u64,
    plan: Option<CrashPlan>,
) -> MtRun {
    let _watchdog = Watchdog::arm(
        format!(
            "seed {seed} {workload:?} threads={threads} ops={ops} plan {plan:?} config {cfg:?}"
        ),
        HANG,
    );
    let dude = Arc::new(DudeTm::create_stm(Arc::clone(nvm), cfg));
    let history = Arc::new(CommitHistory::new(64 + 16 * threads * ops as usize));
    dude.attach_history(Arc::clone(&history));
    match plan {
        Some(p) => nvm.arm_crash_plan(p),
        // Counting pass: exclude formatting, like the armed runs do.
        None => nvm.reset_persistence_events(),
    }
    if workload == Workload::Bank {
        // Seed balances before any worker runs, so the seeding commit is
        // always tid 1 and the conserved-sum invariant covers every prefix
        // with last_tid >= 1.
        let mut t = dude.register_thread();
        t.run(&mut |tx| {
            for i in 0..ACCOUNTS {
                tx.write_word(slot(i), wide(i, INITIAL))?;
            }
            (0..8).try_for_each(|w| tx.write_word(cold(w), wide(w, w + 1)))
        })
        .expect_committed();
    }
    let acked_tid = AtomicU64::new(0);
    let acked_incr: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let sync = cfg.durability == DurabilityMode::Sync;
    std::thread::scope(|s| {
        for w in 0..threads {
            let dude = Arc::clone(&dude);
            let nvm = Arc::clone(nvm);
            let acked_tid = &acked_tid;
            let acked_incr = &acked_incr;
            s.spawn(move || {
                let mut t = dude.register_thread();
                let mut x = seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for op in 0..ops {
                    let committed = match workload {
                        Workload::Bank => {
                            let (a, b) = loop {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                let a = (x >> 33) % ACCOUNTS;
                                let b = (x >> 13) % ACCOUNTS;
                                if a != b {
                                    break (a, b);
                                }
                            };
                            let out = t.run(&mut |tx| {
                                let va = tx.read_word(slot(a))?;
                                if va == wide(a, 0) {
                                    return Err(TxAbort::User);
                                }
                                tx.write_word(slot(a), va - 1)?;
                                let vb = tx.read_word(slot(b))?;
                                tx.write_word(slot(b), vb + 1)
                            });
                            out.info().and_then(|i| i.tid)
                        }
                        Workload::Counters { stride } => {
                            let out = t.run(&mut |tx| {
                                let v = tx.read_word(counter(stride, w))?;
                                tx.write_word(counter(stride, w), v + 1)
                            });
                            Some(out.info().expect("counter tx commits").tid.unwrap())
                        }
                    };
                    if let Some(tid) = committed {
                        // A `Sync` commit returns durable; every fourth
                        // asynchronous one waits to be.
                        if sync {
                            let durable = dude.durable_id();
                            assert!(durable >= tid, "Sync tid {tid} returned at {durable}");
                        } else if op % 4 == 3 {
                            t.wait_durable(tid);
                        }
                        // The commit or `wait_durable` returned before the
                        // trip was observed, so the covering fence completed
                        // before the crash instant.
                        if (sync || op % 4 == 3) && !nvm.crash_plan_tripped() {
                            acked_tid.fetch_max(tid, Ordering::Relaxed);
                            acked_incr[w].fetch_max(op + 1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let log_bytes = dude.pipeline_stats().log_bytes_flushed;
    drop(
        Arc::try_unwrap(dude)
            .unwrap_or_else(|_| panic!("workers joined, runtime must be unshared")),
    );
    MtRun {
        log_bytes,
        acked_tid: acked_tid.load(Ordering::Relaxed),
        acked_incr: acked_incr
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        history,
    }
}

/// Recovers the crashed device and applies both oracles.
fn check_mt_recovery(
    nvm: &Arc<Nvm>,
    cfg: &DudeTmConfig,
    workload: Workload,
    run: &MtRun,
    ops: u64,
    label: &str,
) {
    let (layout, report) = recover_device(nvm, cfg).expect("recovery");
    // Durability: every acknowledged transaction survives.
    assert!(
        report.last_tid >= run.acked_tid,
        "{label}: acknowledged tid {} lost (recovered to {})",
        run.acked_tid,
        report.last_tid
    );
    // Durable linearizability: the heap is the replay of exactly the
    // prefix 1..=last_tid of the recorded history.
    let entries = run.history.entries();
    if let Err(e) = check_prefix(&entries, run.history.dropped(), report.last_tid, |addr| {
        nvm.read_word(layout.heap.start() + addr)
    }) {
        panic!("{label}: durable linearizability violated: {e}");
    }
    // Independent application invariants.
    match workload {
        Workload::Bank => {
            if report.last_tid >= 1 {
                let total: u64 = (0..ACCOUNTS)
                    .map(|i| nvm.read_word(layout.heap.start() + slot(i).offset()) - wide(i, 0))
                    .sum();
                assert_eq!(
                    total,
                    ACCOUNTS * INITIAL,
                    "{label}: money not conserved after recovery to {}",
                    report.last_tid
                );
                let row: Vec<u64> = (0..8)
                    .map(|w| nvm.read_word(layout.heap.start() + cold(w).offset()))
                    .collect();
                let want: Vec<u64> = (0..8).map(|w| wide(w, w + 1)).collect();
                assert_eq!(row, want, "{label}: the seed's cold row");
            }
        }
        Workload::Counters { stride } => {
            for (w, &acked) in run.acked_incr.iter().enumerate() {
                let v = nvm.read_word(layout.heap.start() + counter(stride, w).offset());
                assert!(
                    v >= acked,
                    "{label}: thread {w} counter regressed below acknowledged \
                     progress ({v} < {acked})"
                );
                assert!(
                    v <= ops,
                    "{label}: thread {w} counter beyond committed total ({v} > {ops})"
                );
            }
        }
    }
}

struct Combo {
    name: &'static str,
    cfg: DudeTmConfig,
    workload: Workload,
    threads: usize,
    ops: u64,
}

/// For each seed: one counting pass, then a stride-sampled sweep over the
/// event class with a crash armed at each sampled index. Sweeps one stride
/// past the count: thread interleaving makes per-run event totals wobble,
/// and an index beyond the run's actual count must degrade to a clean
/// no-crash round, never an error. Returns (rounds, rounds that tripped).
fn sweep_mt(
    combo: &Combo,
    event: CrashEventKind,
    stage: StageFilter,
    torn: bool,
    max_points: u64,
) -> (u64, u64) {
    let mut rounds = 0u64;
    let mut tripped = 0u64;
    for seed in seeds() {
        let nvm = fresh_nvm();
        run_mt(
            &nvm,
            combo.cfg,
            combo.workload,
            combo.threads,
            combo.ops,
            seed,
            None,
        );
        let events = nvm.persistence_events().count(event, stage);
        assert!(
            events > 0,
            "{}: workload emits no {event:?}/{stage:?} events",
            combo.name
        );
        let stride = (events / max_points).max(1);
        let mut i = 1;
        while i <= events + stride {
            let mut plan = CrashPlan::at_nth(event, i).for_stage(stage);
            if torn {
                plan = plan.with_torn_line(seed ^ i);
            }
            let nvm = fresh_nvm();
            let run = run_mt(
                &nvm,
                combo.cfg,
                combo.workload,
                combo.threads,
                combo.ops,
                seed,
                Some(plan),
            );
            if nvm.apply_planned_crash() {
                tripped += 1;
            }
            let label = format!(
                "{} seed {seed} {event:?}/{stage:?} torn={torn} crash point {i}",
                combo.name
            );
            check_mt_recovery(&nvm, &combo.cfg, combo.workload, &run, combo.ops, &label);
            rounds += 1;
            i += stride;
        }
    }
    (rounds, tripped)
}

const ASYNC: DurabilityMode = DurabilityMode::Async { buffer_txns: 16 };

fn assert_sweep(name: &str, (rounds, tripped): (u64, u64), min_rounds: u64) {
    assert!(
        rounds >= min_rounds,
        "{name}: only {rounds} crash points (expected >= {min_rounds})"
    );
    assert!(
        tripped >= rounds / 3,
        "{name}: only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn mt_sweep_async_baseline() {
    let combo = Combo {
        name: "async pw=1 pg=1",
        cfg: cfg(ASYNC, 1, 1, false),
        workload: Workload::Bank,
        threads: 4,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Background,
            false,
            20,
        ),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Fence, StageFilter::Any, true, 20),
        20,
    );
}

#[test]
fn mt_sweep_async_two_persist_workers() {
    let combo = Combo {
        name: "async pw=2 pg=1",
        cfg: cfg(ASYNC, 2, 1, false),
        workload: Workload::Bank,
        threads: 4,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Background,
            false,
            20,
        ),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Write,
            StageFilter::Background,
            false,
            20,
        ),
        30,
    );
}

#[test]
fn mt_sweep_grouped() {
    let combo = Combo {
        name: "async pw=1 pg=8",
        cfg: cfg(ASYNC, 1, 8, false),
        workload: Workload::Bank,
        threads: 4,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Background,
            false,
            20,
        ),
        20,
    );
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Fence,
            StageFilter::Background,
            false,
            20,
        ),
        10,
    );
}

#[test]
fn mt_sweep_grouped_compressed() {
    let combo = Combo {
        name: "async pw=1 pg=8+lz",
        cfg: cfg(ASYNC, 1, 8, true),
        workload: Workload::Bank,
        threads: 4,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Flush, StageFilter::Any, true, 20),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Write,
            StageFilter::Background,
            false,
            20,
        ),
        30,
    );
}

/// Two Persist workers sharing the grouped input: groups fence and publish
/// out of order on two rings, but the oracle must still see exact contiguous
/// TID prefixes — the tracker's prefix watermark and Reproduce's dense
/// replay are what's under test here.
#[test]
fn mt_sweep_grouped_two_flush_workers() {
    let combo = Combo {
        name: "async pw=2 pg=8",
        cfg: cfg(ASYNC, 2, 8, false),
        workload: Workload::Bank,
        threads: 4,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Background,
            false,
            20,
        ),
        20,
    );
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Fence, StageFilter::Any, true, 20),
        10,
    );
}

/// Four Persist workers + compression: the full parallel feature stack
/// under the nastiest crash classes.
#[test]
fn mt_sweep_grouped_compressed_four_flush_workers() {
    let combo = Combo {
        name: "async pw=4 pg=8+lz",
        cfg: cfg(ASYNC, 4, 8, true),
        workload: Workload::Bank,
        threads: 4,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Flush, StageFilter::Any, true, 20),
        20,
    );
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Write,
            StageFilter::Background,
            false,
            20,
        ),
        20,
    );
}

#[test]
fn mt_sweep_sync() {
    let combo = Combo {
        name: "sync",
        cfg: cfg(DurabilityMode::Sync, 1, 1, false),
        workload: Workload::Bank,
        threads: 2,
        ops: 16,
    };
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Foreground,
            false,
            20,
        ),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Fence, StageFilter::Any, true, 20),
        30,
    );
}

#[test]
fn mt_sweep_sync_counters() {
    let combo = Combo {
        name: "sync counters",
        cfg: cfg(DurabilityMode::Sync, 1, 1, false),
        workload: COUNTERS,
        threads: 4,
        ops: 16,
    };
    // Under `Sync` every store is the committer's own: no background stage.
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Write, StageFilter::Any, false, 20),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Flush, StageFilter::Any, false, 20),
        30,
    );
}

/// Grouped `Sync`: each committer cuts whatever is pending up to its own
/// TID from the shared grouped input into its own log ring — combined, and
/// compressed in the second config — and returns once every lower TID is
/// durable too.
#[test]
fn mt_sweep_grouped_sync() {
    for (name, compress) in [("sync pg=8", false), ("sync pg=8+lz", true)] {
        let combo = Combo {
            name,
            cfg: cfg(DurabilityMode::Sync, 1, 8, compress),
            workload: COUNTERS,
            threads: 4,
            ops: 16,
        };
        assert_sweep(
            name,
            sweep_mt(&combo, CrashEventKind::Flush, StageFilter::Any, true, 20),
            30,
        );
        assert_sweep(
            name,
            sweep_mt(&combo, CrashEventKind::Write, StageFilter::Any, false, 20),
            30,
        );
    }
}

/// Tiny per-thread log rings force the Persist stage through the
/// parked-record path (ring full → park → retry after Reproduce recycles
/// a span), so crashes here land mid-recycling: some spans wiped, some
/// still holding records below the checkpoint. Exercises the
/// stale-run-skipping branch of recovery under concurrency. Once a ring
/// has wrapped, the seed's record is stale and the cold row lives in the
/// heap alone: a heap store Reproduce leaves unflushed is lost, and the
/// cold-row check sees it.
#[test]
fn mt_sweep_tiny_plog_parked_records() {
    let combo = Combo {
        name: "async tiny-plog pw=1 pg=1",
        cfg: DudeTmConfig {
            plog_bytes_per_thread: 4096,
            checkpoint_every: 4,
            ..cfg(ASYNC, 1, 1, false)
        },
        workload: Workload::Bank,
        // 256 commits of 3-word records (an abort marker is 2) per thread
        // overfill the 4 KiB ring by half, so Persist must reuse spans
        // Reproduce recycled.
        threads: 4,
        ops: 256,
    };
    // Past four rings' capacity, at least one has wrapped.
    let run = run_mt(
        &fresh_nvm(),
        combo.cfg,
        combo.workload,
        4,
        combo.ops,
        7,
        None,
    );
    assert!(
        run.log_bytes > 4 * combo.cfg.plog_bytes_per_thread,
        "the rings must wrap: {} B logged",
        run.log_bytes
    );
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Background,
            false,
            20,
        ),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Fence, StageFilter::Any, true, 20),
        30,
    );
}

#[test]
fn mt_sweep_unbounded_counters() {
    let combo = Combo {
        name: "async-inf counters x8",
        cfg: cfg(DurabilityMode::AsyncUnbounded, 1, 1, false),
        workload: COUNTERS,
        threads: 8,
        ops: 12,
    };
    assert_sweep(
        combo.name,
        sweep_mt(
            &combo,
            CrashEventKind::Flush,
            StageFilter::Background,
            false,
            20,
        ),
        30,
    );
    assert_sweep(
        combo.name,
        sweep_mt(&combo, CrashEventKind::Flush, StageFilter::Any, true, 20),
        30,
    );
}

/// Paged shadow (§4.3): two frames for four counter pages, so every
/// transaction evicts or swaps in while the Reproduce step — on the Persist
/// worker, or inline behind `Sync` commits — raises the reproduced ID that
/// gates each swap-in on the page's last writer.
#[test]
fn mt_sweep_paged_shadow_counters() {
    let shadow = ShadowConfig::Paged {
        frames: 2,
        mode: PagingMode::Software,
    };
    for (name, mode) in [
        ("async paged pw=1", ASYNC),
        ("sync paged", DurabilityMode::Sync),
    ] {
        let combo = Combo {
            name,
            cfg: cfg(mode, 1, 1, false).with_shadow(shadow),
            workload: Workload::Counters { stride: 512 },
            threads: 4,
            ops: 16,
        };
        assert_sweep(
            name,
            sweep_mt(&combo, CrashEventKind::Flush, StageFilter::Any, true, 20),
            20,
        );
    }
}
