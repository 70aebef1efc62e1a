//! Seeded schedule exploration of the whole pipeline under the `dude-sim`
//! virtual scheduler (`--features sim`).
//!
//! Where `tests/crash_sweep_mt.rs` relies on the OS scheduler to produce
//! interleavings, this suite *owns* the schedule: every lock acquisition,
//! channel operation, park and clock read is a yield point of a
//! deterministic scheduler driven by a seeded PRNG, so
//!
//! * every run is replayable — the schedule is a pure function of the
//!   seed, and [`dude_sim::SimReport::trace`] is byte-identical across
//!   replays of the same seed;
//! * a seed sweep explores *schedules*, not wall-clock noise: each seed
//!   also derives its own stay bias and preemption bound
//!   ([`SimConfig::from_seed`]), mixing long uninterrupted runs with
//!   aggressive context-switching;
//! * any failure prints a `DUDE_SIM_SEED=<n>` one-liner; exporting that
//!   variable reruns exactly the failing schedule.
//!
//! Environment knobs:
//!
//! * `DUDE_SIM_SEEDS=a,b,c` — base seeds (default `7,1337,424242`).
//! * `DUDE_SIM_SCHEDULES=n` — derived schedules per base seed per config
//!   (default 8; CI uses the default, overnight runs can use thousands).
//! * `DUDE_SIM_SEED=n` — replay exactly one schedule seed everywhere,
//!   skipping derivation. This is the failure-replay entry point.
//!
//! The `mutation_*` tests are the sharpness check: each arms one injected
//! bug ([`dudetm::sabotage`]) — a dropped fence in the Persist sweep (once
//! on Persist workers, once inline under `Sync`), a parked Persist unit
//! that never forces a checkpoint, a paged-shadow swap-in that ignores the touching-ID
//! watermark, redo-ring space freed when a record is staged instead of
//! when it is reproduced (on Persist workers, and under `Sync`), a
//! Reproduce run's heap stores issued after its checkpoint fence, a durable
//! ID advanced before `publish` takes the Reproduce lock, a grouped input
//! that ignores a raised demand — and asserts the seed sweep *catches* it
//! within the default budget. A fuzzer that passes those mutations but
//! fails a real run is telling the truth.
//!
//! Every `Sync` commit is checked as it returns: the durable ID must cover
//! its TID, and the run acknowledges it.

#![cfg(feature = "sim")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dude_nvm::{CrashEventKind, CrashPlan, Nvm, NvmConfig, Region, StageFilter};
use dude_sim::SimConfig;
use dude_txapi::{PAddr, TxAbort, TxnSystem, TxnThread};
use dudetm::sabotage::{Mutation, MutationGuard};
use dudetm::{
    check_prefix, recover_device, CommitHistory, DudeTm, DudeTmConfig, DurabilityMode, PagingMode,
    ShadowConfig, TraceConfig,
};

const ACCOUNTS: u64 = 8;
const INITIAL: u64 = 100;
const ASYNC: DurabilityMode = DurabilityMode::Async { buffer_txns: 16 };

/// Serializes the tests in this binary. `dude_sim::run` already admits
/// one simulated run at a time process-wide, but the sabotage knobs are
/// process-global: a mutation armed by one test must never leak into a
/// run belonging to another.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn slot(i: u64) -> PAddr {
    PAddr::from_word_index(8 + i)
}

fn fresh_nvm() -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(1 << 20)))
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().map(|s| {
        s.trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad {name} value {s:?}"))
    })
}

fn base_seeds() -> Vec<u64> {
    match std::env::var("DUDE_SIM_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad DUDE_SIM_SEEDS entry {t:?}"))
            })
            .collect(),
        Err(_) => vec![7, 1337, 424242],
    }
}

/// The seed budget: every base seed expanded into `DUDE_SIM_SCHEDULES`
/// derived schedule seeds — unless `DUDE_SIM_SEED` pins a single one.
fn schedule_seeds() -> Vec<u64> {
    if let Some(s) = env_u64("DUDE_SIM_SEED") {
        return vec![s];
    }
    let per_base = env_u64("DUDE_SIM_SCHEDULES").unwrap_or(8);
    let mut out = Vec::new();
    for base in base_seeds() {
        for i in 0..per_base {
            // i == 0 keeps the base seed itself so CI's fixed seeds are
            // literally among the schedules run.
            out.push(if i == 0 {
                base
            } else {
                splitmix(base ^ (i << 32))
            });
        }
    }
    out
}

/// Panics with the replay one-liner for `seed`. All schedule failures in
/// this suite funnel through here.
fn fail_seed(seed: u64, label: &str, err: &str) -> ! {
    eprintln!("DUDE_SIM_SEED={seed}");
    panic!(
        "schedule failure under seed {seed} [{label}]: {err}\n\
         replay: DUDE_SIM_SEED={seed} cargo test --release --features sim --test sim_schedules"
    );
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Conflicting random transfers; commit-time aborts produce wasted
    /// TIDs (abort markers) in the durable sequence.
    Bank,
    /// Per-thread counters; conflict-free, densely interleaved TIDs. Thread
    /// `w` increments word `8 + stride·w` and copies the new value into the
    /// `width − 1` words after it, so `width` sizes the log record.
    Counters { stride: u64, width: u64 },
    /// Per-thread append-only logs: thread `w`'s op `i` fills `width` words
    /// of its own region that nothing rewrites, so a write Reproduce loses
    /// or misplaces survives into the final heap.
    Log { width: u64 },
}

const LOG: Workload = Workload::Log { width: 2 };

/// The first of the `width` words thread `w`'s op `i` fills.
fn log_slot(width: u64, w: usize, ops: u64, i: u64) -> PAddr {
    PAddr::from_word_index(8 + width * (w as u64 * ops + i))
}

const COUNTERS: Workload = Workload::Counters {
    stride: 1,
    width: 1,
};

/// Thread `w`'s counter word.
fn counter(stride: u64, w: usize) -> PAddr {
    PAddr::from_word_index(8 + stride * w as u64)
}

struct Combo {
    name: &'static str,
    cfg: DudeTmConfig,
    workload: Workload,
    threads: usize,
    ops: u64,
    /// Each thread calls `quiesce` after every op.
    quiesce: bool,
}

fn cfg(persist_workers: usize, persist_group: usize, compress: bool) -> DudeTmConfig {
    let c = DudeTmConfig {
        max_threads: 10,
        plog_bytes_per_thread: 1 << 16,
        checkpoint_every: 8,
        persist_flush_workers: persist_workers,
        persist_group,
        compress_groups: compress,
        ..DudeTmConfig::small(1 << 16)
    }
    .with_durability(ASYNC);
    c.try_validate().expect("sim matrix combo must be valid");
    c
}

/// What one simulated run observed before any crash instant.
struct SimRun {
    /// Highest TID acknowledged durable strictly before the crash trip.
    acked_tid: u64,
    /// Per-worker increments acknowledged durable (Counters only).
    acked_incr: Vec<u64>,
    history: Arc<CommitHistory>,
    trace: Vec<u8>,
    /// Commits that parked on a full redo ring (counted when tracing).
    log_full: u64,
    /// Persist units a full log ring gave back (counted when tracing).
    ring_full: u64,
    heap: Region,
}

/// Runs one workload to clean shutdown inside the virtual scheduler.
/// The whole lifetime of the runtime — formatting, worker spawns, the
/// transactions, `wait_durable` acknowledgements, quiesce-on-drop — runs
/// as simulated tasks; the schedule is a pure function of `seed`.
fn run_sim(
    nvm: &Arc<Nvm>,
    combo: &Combo,
    seed: u64,
    plan: Option<CrashPlan>,
) -> Result<SimRun, String> {
    let (cfg, workload, threads, ops) = (combo.cfg, combo.workload, combo.threads, combo.ops);
    let quiesce = combo.quiesce;
    let sync = cfg.durability == DurabilityMode::Sync;
    let history = Arc::new(CommitHistory::new(64 + 16 * threads * ops as usize));
    let nvm_in = Arc::clone(nvm);
    let history_in = Arc::clone(&history);
    let report = dude_sim::run(SimConfig::from_seed(seed), move || {
        let dude = Arc::new(DudeTm::create_stm(Arc::clone(&nvm_in), cfg));
        dude.attach_history(history_in);
        match plan {
            Some(p) => nvm_in.arm_crash_plan(p),
            // Counting pass: exclude formatting, like the armed runs do.
            None => nvm_in.reset_persistence_events(),
        }
        if workload == Workload::Bank {
            // Seed balances as tid 1 so the conserved-sum invariant
            // covers every recovered prefix with last_tid >= 1.
            let mut t = dude.register_thread();
            t.run(&mut |tx| {
                for i in 0..ACCOUNTS {
                    tx.write_word(slot(i), INITIAL)?;
                }
                Ok(())
            })
            .expect_committed();
        }
        let acked_tid = Arc::new(AtomicU64::new(0));
        let acked_incr: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for w in 0..threads {
            let dude = Arc::clone(&dude);
            let nvm = Arc::clone(&nvm_in);
            let acked_tid = Arc::clone(&acked_tid);
            let acked_incr = Arc::clone(&acked_incr);
            handles.push(dude_nvm::thread::spawn_named(
                &format!("sim-worker-{w}"),
                move || {
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
                                    if va == 0 {
                                        return Err(TxAbort::User);
                                    }
                                    tx.write_word(slot(a), va - 1)?;
                                    let vb = tx.read_word(slot(b))?;
                                    tx.write_word(slot(b), vb + 1)
                                });
                                out.info().and_then(|i| i.tid)
                            }
                            Workload::Counters { stride, width } => {
                                let base = counter(stride, w);
                                let out = t.run(&mut |tx| {
                                    let v = tx.read_word(base)?;
                                    for j in 0..width {
                                        let word = base.word_index() + j;
                                        tx.write_word(PAddr::from_word_index(word), v + 1)?;
                                    }
                                    Ok(())
                                });
                                Some(out.info().expect("counter tx commits").tid.unwrap())
                            }
                            Workload::Log { width } => {
                                let slot = log_slot(width, w, ops, op).word_index();
                                let out = t.run(&mut |tx| {
                                    for j in 0..width {
                                        tx.write_word(PAddr::from_word_index(slot + j), op + 1)?;
                                    }
                                    Ok(())
                                });
                                Some(out.info().expect("log tx commits").tid.unwrap())
                            }
                        };
                        if let Some(tid) = committed {
                            // A `Sync` commit returns durable; every fourth
                            // asynchronous one waits to be.
                            if sync {
                                let durable = dude.durable_id();
                                assert!(
                                    durable >= tid,
                                    "Sync commit of tid {tid} returned with durable {durable}"
                                );
                            } else if op % 4 == 3 {
                                t.wait_durable(tid);
                            }
                            // The commit or `wait_durable` returned before
                            // the trip was observed, so the covering fence
                            // completed before the crash instant.
                            if (sync || op % 4 == 3) && !nvm.crash_plan_tripped() {
                                acked_tid.fetch_max(tid, Ordering::Relaxed);
                                acked_incr[w].fetch_max(op + 1, Ordering::Relaxed);
                            }
                        }
                        if quiesce {
                            dude.quiesce();
                        }
                    }
                },
            ));
        }
        for h in handles {
            h.join().expect("sim worker panicked");
        }
        let acked = acked_tid.load(Ordering::Relaxed);
        let incr: Vec<u64> = acked_incr
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        let stalls = dude.stats_snapshot().stalls;
        let heap = dude.heap_region();
        drop(
            Arc::try_unwrap(dude)
                .unwrap_or_else(|_| panic!("workers joined, runtime must be unshared")),
        );
        (acked, incr, stalls, heap)
    });
    if let Some(p) = report.panic {
        return Err(format!("simulated run aborted: {p}"));
    }
    let (acked_tid, acked_incr, stalls, heap) = report
        .result
        .expect("sim run without panic must carry a result");
    Ok(SimRun {
        acked_tid,
        acked_incr,
        history,
        trace: report.trace,
        log_full: stalls.perform_log_full,
        ring_full: stalls.persist_ring_full,
        heap,
    })
}

/// The drained oracle, for a run that shut down cleanly: every committed
/// transaction is reproduced, so the heap — before any recovery — is the
/// replay of the whole history. Recovery replays every record its log
/// rings still hold, which repairs a Reproduce bug whose records the log
/// kept; only this check sees those.
fn check_drained(nvm: &Arc<Nvm>, run: &SimRun) -> Result<(), String> {
    let entries = run.history.entries();
    let last = entries.iter().map(|e| e.tid).max().unwrap_or(0);
    check_prefix(&entries, run.history.dropped(), last, |addr| {
        nvm.read_word(run.heap.start() + addr)
    })
    .map(drop)
    .map_err(|e| format!("drained heap is not the history's replay: {e}"))
}

/// Applies the recovery oracles; `Err` carries the violated property so
/// the caller can attach the seed one-liner.
fn check_recovery(
    nvm: &Arc<Nvm>,
    cfg: &DudeTmConfig,
    workload: Workload,
    run: &SimRun,
    ops: u64,
) -> Result<(), String> {
    let (layout, report) =
        recover_device(nvm, cfg).map_err(|e| format!("recovery failed: {e:?}"))?;
    // Durability: every acknowledged transaction survives.
    if report.last_tid < run.acked_tid {
        return Err(format!(
            "acknowledged tid {} lost (recovered to {})",
            run.acked_tid, report.last_tid
        ));
    }
    // Durable linearizability: the heap is the replay of exactly the
    // prefix 1..=last_tid of the history that actually happened.
    let entries = run.history.entries();
    check_prefix(&entries, run.history.dropped(), report.last_tid, |addr| {
        nvm.read_word(layout.heap.start() + addr)
    })
    .map_err(|e| format!("durable linearizability violated: {e}"))?;
    match workload {
        Workload::Bank => {
            if report.last_tid >= 1 {
                let total: u64 = (0..ACCOUNTS)
                    .map(|i| nvm.read_word(layout.heap.start() + slot(i).offset()))
                    .sum();
                if total != ACCOUNTS * INITIAL {
                    return Err(format!(
                        "money not conserved after recovery to {}: {total}",
                        report.last_tid
                    ));
                }
            }
        }
        Workload::Counters { stride, .. } => {
            for (w, &acked) in run.acked_incr.iter().enumerate() {
                let v = nvm.read_word(layout.heap.start() + counter(stride, w).offset());
                if v < acked {
                    return Err(format!(
                        "thread {w} counter regressed below acknowledged progress ({v} < {acked})"
                    ));
                }
                if v > ops {
                    return Err(format!(
                        "thread {w} counter beyond committed total ({v} > {ops})"
                    ));
                }
            }
        }
        Workload::Log { .. } => {}
    }
    Ok(())
}

/// One clean run + recovery check under `seed`; returns the run for
/// trace comparison.
fn clean_case(combo: &Combo, seed: u64) -> SimRun {
    let nvm = fresh_nvm();
    let run = run_sim(&nvm, combo, seed, None).unwrap_or_else(|e| fail_seed(seed, combo.name, &e));
    let checked = check_drained(&nvm, &run)
        .and_then(|()| check_recovery(&nvm, &combo.cfg, combo.workload, &run, combo.ops));
    if let Err(e) = checked {
        fail_seed(seed, combo.name, &e);
    }
    run
}

/// Armed run: crash at the `n`-th persistence event of the schedule,
/// freeze the image, recover, and apply both oracles.
fn crash_case(combo: &Combo, seed: u64, event: CrashEventKind, n: u64) -> bool {
    let plan = CrashPlan::at_nth(event, n).for_stage(StageFilter::Any);
    let nvm = fresh_nvm();
    let run =
        run_sim(&nvm, combo, seed, Some(plan)).unwrap_or_else(|e| fail_seed(seed, combo.name, &e));
    let tripped = nvm.apply_planned_crash();
    if let Err(e) = check_recovery(&nvm, &combo.cfg, combo.workload, &run, combo.ops) {
        fail_seed(seed, combo.name, &format!("{event:?} crash point {n}: {e}"));
    }
    tripped
}

/// The seed sweep for one config: every schedule seed runs clean, and
/// (when `crash_points > 0`) a stride of planned crashes over the flush
/// timeline of that same schedule. Returns the clean runs' commits parked
/// on a full redo ring and Persist units given back by a full log ring.
fn explore(combo: &Combo, crash_points: u64) -> (u64, u64) {
    let _g = lock_tests();
    let mut tripped = 0u64;
    let mut armed = 0u64;
    let (mut log_full, mut ring_full) = (0, 0);
    for seed in schedule_seeds() {
        let clean = clean_case(combo, seed);
        log_full += clean.log_full;
        ring_full += clean.ring_full;
        if crash_points == 0 {
            continue;
        }
        // Count this schedule's flush events from the clean pass image.
        let nvm = fresh_nvm();
        let run =
            run_sim(&nvm, combo, seed, None).unwrap_or_else(|e| fail_seed(seed, combo.name, &e));
        assert_eq!(
            run.trace, clean.trace,
            "{}: counting pass diverged from clean pass under seed {seed}",
            combo.name
        );
        let events = nvm
            .persistence_events()
            .count(CrashEventKind::Flush, StageFilter::Any);
        assert!(
            events > 0,
            "{}: no flush events under seed {seed}",
            combo.name
        );
        let stride = (events / crash_points).max(1);
        let mut i = 1;
        // One stride past the count: an index beyond the run's actual
        // event total must degrade to a clean no-crash round.
        while i <= events + stride {
            if crash_case(combo, seed, CrashEventKind::Flush, i) {
                tripped += 1;
            }
            armed += 1;
            i += stride;
        }
    }
    if crash_points > 0 {
        assert!(
            tripped >= armed / 3,
            "{}: only {tripped}/{armed} crash plans tripped",
            combo.name
        );
    }
    (log_full, ring_full)
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// The acceptance bar for replayability: the same `DUDE_SIM_SEED` drives
/// the full pipeline through a byte-identical schedule trace twice.
#[test]
fn same_seed_replays_byte_identical_trace() {
    let _g = lock_tests();
    let combo = Combo {
        name: "replay pw=2 pg=8",
        cfg: cfg(2, 8, false),
        workload: Workload::Bank,
        threads: 3,
        ops: 8,
        quiesce: false,
    };
    let seed = env_u64("DUDE_SIM_SEED").unwrap_or(7);
    let mut traces = Vec::new();
    for _ in 0..2 {
        let nvm = fresh_nvm();
        let run =
            run_sim(&nvm, &combo, seed, None).unwrap_or_else(|e| fail_seed(seed, combo.name, &e));
        assert!(!run.trace.is_empty(), "trace must record the schedule");
        traces.push(run.trace);
    }
    assert_eq!(
        traces[0], traces[1],
        "same seed must replay a byte-identical schedule trace"
    );
    // And a different seed explores a different schedule.
    let nvm = fresh_nvm();
    let other = run_sim(&nvm, &combo, seed ^ 0xDEAD_BEEF, None)
        .unwrap_or_else(|e| fail_seed(seed ^ 0xDEAD_BEEF, combo.name, &e));
    assert_ne!(
        traces[0], other.trace,
        "different seeds must explore different schedules"
    );
}

// ---------------------------------------------------------------------------
// Schedule sweeps over the config matrix
// ---------------------------------------------------------------------------

#[test]
fn schedules_baseline_bank() {
    explore(
        &Combo {
            name: "sim pw=1 pg=1",
            cfg: cfg(1, 1, false),
            workload: Workload::Bank,
            threads: 3,
            ops: 8,
            quiesce: false,
        },
        4,
    );
}

#[test]
fn schedules_two_persist_workers_bank() {
    explore(
        &Combo {
            name: "sim pw=2 pg=1",
            cfg: cfg(2, 1, false),
            workload: Workload::Bank,
            threads: 3,
            ops: 8,
            quiesce: false,
        },
        0,
    );
}

#[test]
fn schedules_grouped_flush_workers_bank() {
    explore(
        &Combo {
            name: "sim pw=2 pg=8",
            cfg: cfg(2, 8, false),
            workload: Workload::Bank,
            threads: 3,
            ops: 8,
            quiesce: false,
        },
        4,
    );
}

#[test]
fn schedules_grouped_compressed_bank() {
    explore(
        &Combo {
            name: "sim pw=4 pg=8+lz",
            cfg: cfg(4, 8, true),
            workload: Workload::Bank,
            threads: 3,
            ops: 8,
            quiesce: false,
        },
        0,
    );
}

#[test]
fn schedules_counters() {
    explore(
        &Combo {
            name: "sim pw=1 pg=1 counters",
            cfg: cfg(1, 1, false),
            workload: COUNTERS,
            threads: 4,
            ops: 8,
            quiesce: false,
        },
        4,
    );
}

/// `DurabilityMode::Sync`: no Persist thread — each client runs the Persist
/// pass over its own redo ring and the three of them race in `publish`.
fn sync_combo(name: &'static str) -> Combo {
    Combo {
        name,
        cfg: cfg(1, 1, false).with_durability(DurabilityMode::Sync),
        workload: Workload::Bank,
        threads: 3,
        ops: 8,
        quiesce: false,
    }
}

#[test]
fn schedules_sync_bank() {
    explore(&sync_combo("sim sync"), 4);
}

/// Four `Sync` committers on conflict-free counters, so their TIDs
/// interleave densely: a commit whose own record is persisted while a lower
/// TID is still on its way through another committer must wait for it. The
/// run checks `durable_id() >= tid` as every commit returns.
#[test]
fn schedules_sync_commits_return_durable() {
    let combo = Combo {
        name: "sim sync counters",
        cfg: cfg(1, 1, false).with_durability(DurabilityMode::Sync),
        workload: COUNTERS,
        threads: 4,
        ops: 8,
        quiesce: false,
    };
    explore(&combo, 0);
}

/// Grouped `Sync`: each committer demands its own TID and cuts whatever is
/// pending up to it from the shared grouped input, staging into its own log
/// ring, then waits until every lower TID is durable too.
#[test]
fn schedules_grouped_sync_bank() {
    for (name, compress) in [("sim sync pg=8", false), ("sim sync pg=8+lz", true)] {
        let combo = Combo {
            name,
            cfg: cfg(1, 8, compress).with_durability(DurabilityMode::Sync),
            ..sync_combo(name)
        };
        explore(&combo, 4);
    }
}

/// Rings of 512 words hold thirteen 37-word records (159 one-byte values
/// on twenty lines: nineteen 14-byte line groups and a 13-byte one, 279
/// payload bytes), and the cadence never fires: every span comes back
/// through a forced checkpoint, behind a parked Persist unit or a `Sync`
/// commit whose ring is full, while the four rings wrap four times each.
/// Two Persist workers, except under `Sync`, whose committers are their
/// own rings' one. Traced, to count the full rings.
fn ring_full_combo(name: &'static str, mode: DurabilityMode) -> Combo {
    let pw = if mode == DurabilityMode::Sync { 1 } else { 2 };
    let cfg = DudeTmConfig {
        max_threads: 4,
        plog_bytes_per_thread: 4096,
        checkpoint_every: 1 << 20,
        ..cfg(pw, 1, false)
    }
    .with_durability(mode)
    .with_trace(TraceConfig::enabled(64));
    cfg.try_validate().expect("ring-full combo must be valid");
    Combo {
        name,
        cfg,
        workload: Workload::Counters {
            stride: 160,
            width: 159,
        },
        threads: 4,
        ops: 56,
        quiesce: false,
    }
}

#[test]
fn schedules_ring_full_liveness() {
    for (name, mode) in [
        ("sim ring-full pw=2", ASYNC),
        ("sim ring-full sync", DurabilityMode::Sync),
    ] {
        let (_, ring_full) = explore(&ring_full_combo(name, mode), 0);
        assert!(ring_full > 0, "{name}: no log ring ever filled");
    }
}

/// The smallest volatile redo log: `Async { buffer_txns: 2 }` holds two
/// unreproduced records per thread in 8-word segments. A bank record (two
/// writes) is 6 words, so every record wraps to another segment, which is
/// reused once the record after it is freed; a thread's third commit parks
/// until Reproduce passes its first. Grouped, a parked thread demands the
/// newest TID it pushed, and that demand is what cuts a partial group of its
/// records from the shared grouped input; with two workers, they share it.
fn tiny_ring_combo(name: &'static str, persist_workers: usize, persist_group: usize) -> Combo {
    Combo {
        name,
        cfg: cfg(persist_workers, persist_group, false)
            .with_durability(DurabilityMode::Async { buffer_txns: 2 })
            .with_trace(TraceConfig::enabled(64)),
        workload: Workload::Bank,
        threads: 3,
        ops: 8,
        quiesce: false,
    }
}

#[test]
fn schedules_tiny_redo_ring() {
    for (name, pw, group, crash_points) in [
        ("sim tiny-ring pw=1 pg=1", 1, 1, 4),
        ("sim tiny-ring pw=2 pg=1", 2, 1, 0),
        ("sim tiny-ring pw=1 pg=8", 1, 8, 4),
        ("sim tiny-ring pw=2 pg=8", 2, 8, 0),
    ] {
        let (parks, _) = explore(&tiny_ring_combo(name, pw, group), crash_points);
        assert!(parks > 0, "{name}: no commit ever parked on a full ring");
    }
}

/// Paged shadow (§4.3) with two frames for four counter pages: every
/// transaction evicts or swaps in, racing the Reproduce step that gates
/// swap-ins on the touching ID.
fn paged_combo(name: &'static str, mode: DurabilityMode) -> Combo {
    let shadow = ShadowConfig::Paged {
        frames: 2,
        mode: PagingMode::Software,
    };
    Combo {
        name,
        cfg: cfg(1, 1, false).with_durability(mode).with_shadow(shadow),
        workload: Workload::Counters {
            stride: 512,
            width: 1,
        },
        threads: 4,
        ops: 8,
        quiesce: false,
    }
}

#[test]
fn schedules_paged_shadow_counters() {
    explore(&paged_combo("sim paged pw=1", ASYNC), 4);
    explore(&paged_combo("sim paged sync", DurabilityMode::Sync), 0);
}

/// One thread that quiesces after every op, with the cadence out of reach:
/// each commit sits in the pending run until that `quiesce` — a waiter on
/// the reproduced ID, which usually parks on the durable ID first — cuts
/// the run.
fn quiesce_combo(name: &'static str) -> Combo {
    Combo {
        name,
        cfg: DudeTmConfig {
            checkpoint_every: 1 << 20,
            ..cfg(1, 1, false)
        },
        workload: LOG,
        threads: 1,
        ops: 8,
        quiesce: true,
    }
}

#[test]
fn schedules_quiesce_cuts_the_pending_run() {
    explore(&quiesce_combo("sim quiesce pw=1"), 4);
}

// ---------------------------------------------------------------------------
// Mutation sharpness: the fuzzer must catch known-injected ordering bugs
// ---------------------------------------------------------------------------

/// Arms `mutation` and sweeps (schedule seed × crash point) until one
/// case fails an oracle; asserts detection within the default budget,
/// prints the failing seed's replay line and returns the seed and the
/// failure.
fn assert_mutation_caught(mutation: Mutation, combo: &Combo) -> (u64, String) {
    let _g = lock_tests();
    let guard = MutationGuard::arm(mutation);
    let mut caught: Option<(u64, u64, String)> = None;
    'sweep: for seed in schedule_seeds() {
        // Counting pass under the mutation (its schedule differs from the
        // healthy one — the skipped fence removes yield points).
        let nvm = fresh_nvm();
        let run = run_sim(&nvm, combo, seed, None);
        // A clean-run failure (an in-run assertion, a deadlock, the step
        // budget) or a clean run that recovers wrong is already a detection.
        let clean = run.and_then(|run| {
            check_drained(&nvm, &run)?;
            check_recovery(&nvm, &combo.cfg, combo.workload, &run, combo.ops)
        });
        if let Err(e) = clean {
            caught = Some((seed, 0, e));
            break 'sweep;
        }
        let events = nvm
            .persistence_events()
            .count(CrashEventKind::Flush, StageFilter::Any);
        // Crash points: a coarse stride over the whole flush timeline
        // (catches bugs with wide windows, like the dropped group fence)
        // plus every point in the tail (a bug exposed only in the
        // shutdown drain, where no later record can repair the hole a
        // premature checkpoint leaves).
        let stride = (events / 8).max(1);
        let mut points: Vec<u64> = (1..=events).step_by(stride as usize).collect();
        points.extend(events.saturating_sub(11).max(1)..=events);
        points.sort_unstable();
        points.dedup();
        for i in points {
            let plan = CrashPlan::at_nth(CrashEventKind::Flush, i).for_stage(StageFilter::Any);
            let nvm = fresh_nvm();
            match run_sim(&nvm, combo, seed, Some(plan)) {
                Err(e) => {
                    caught = Some((seed, i, e));
                    break 'sweep;
                }
                Ok(run) => {
                    nvm.apply_planned_crash();
                    if let Err(e) =
                        check_recovery(&nvm, &combo.cfg, combo.workload, &run, combo.ops)
                    {
                        caught = Some((seed, i, e));
                        break 'sweep;
                    }
                }
            }
        }
    }
    drop(guard);
    let (seed, point, err) = caught.unwrap_or_else(|| {
        panic!(
            "{}: injected mutation {mutation:?} survived the default seed budget — \
             the schedule fuzzer has lost its sharpness",
            combo.name
        )
    });
    // The detection one-liner the issue asks for: the seed that found
    // the injected bug, ready for replay.
    eprintln!("DUDE_SIM_SEED={seed}");
    eprintln!("mutation {mutation:?} caught at crash point {point} under seed {seed}: {err}");
    (seed, err)
}

#[test]
fn mutation_dropped_group_fence_is_caught() {
    assert_mutation_caught(
        Mutation::SkipGroupFence,
        &Combo {
            name: "mutation-A pw=2 pg=8",
            cfg: cfg(2, 8, false),
            workload: Workload::Bank,
            threads: 3,
            ops: 8,
            quiesce: false,
        },
    );
}

/// The same gate covers the inline sweep: a `Sync` commit that returns
/// without its fence has acknowledged a transaction a crash can lose.
#[test]
fn mutation_dropped_sync_fence_is_caught() {
    assert_mutation_caught(Mutation::SkipGroupFence, &sync_combo("mutation-A sync"));
}

/// Without the forced checkpoint a full ring waits on a cadence that never
/// comes: the run must stall, not finish.
#[test]
fn mutation_skipped_forced_checkpoint_is_caught() {
    for (name, mode) in [
        ("mutation-C pw=2", ASYNC),
        ("mutation-C sync", DurabilityMode::Sync),
    ] {
        let combo = ring_full_combo(name, mode);
        let (_, err) = assert_mutation_caught(Mutation::SkipForcedCheckpoint, &combo);
        assert!(
            err.contains("deadlock") || err.contains("step budget"),
            "{name}: caught as something other than a stall: {err}"
        );
    }
}

#[test]
fn mutation_swap_in_ignoring_touch_watermark_is_caught() {
    assert_mutation_caught(
        Mutation::IgnoreTouchWatermark,
        &paged_combo("mutation-D paged pw=1", ASYNC),
    );
}

/// Freeing a record's redo-ring space when it is staged lets its thread
/// reuse the segment before Reproduce has read the record: the heap is
/// rebuilt from another transaction's writes, and the prefix oracle sees it
/// under the first schedule seed. Two Persist workers publish out of
/// order, so a staged record often waits behind a TID gap — the window in
/// which its thread wraps back onto it — and in the append-only log no
/// later write hides the lost one. Under `Sync` the committer stages its
/// own record at once and the ring is uncapped, with 4 096-word segments:
/// 128-word transactions (258 ring words, 15 to a segment) and a cadence
/// out of reach keep a thread's records pending across three segments, so
/// it wraps back onto the first while the run still holds it.
#[test]
fn mutation_ring_freed_when_staged_is_caught() {
    let tiny = Combo {
        workload: LOG,
        ..tiny_ring_combo("mutation-E tiny-ring pw=2 pg=1 log", 2, 1)
    };
    let sync = Combo {
        name: "mutation-E sync wide log",
        cfg: DudeTmConfig {
            max_threads: 2,
            heap_bytes: 1 << 17,
            plog_bytes_per_thread: 1 << 17,
            checkpoint_every: 1 << 20,
            ..cfg(1, 1, false)
        }
        .with_durability(DurabilityMode::Sync),
        workload: Workload::Log { width: 128 },
        threads: 2,
        ops: 40,
        quiesce: false,
    };
    for combo in [tiny, sync] {
        let (seed, err) = assert_mutation_caught(Mutation::FreeRingWhenStaged, &combo);
        assert_eq!(
            seed,
            schedule_seeds()[0],
            "{}: caught only under a later seed: {err}",
            combo.name
        );
    }
}

/// Storing a run's heap words after its checkpoint — one run late — lets
/// the checkpoint claim data no fence covers and recycle the log that could
/// repair it. Under `Sync` with the cadence out of reach, every run ends at
/// a full log ring, whose committer reuses the released space at once, so a
/// crash before the late stores loses words nothing rewrites in the
/// append-only log: the prefix oracle sees it under the first schedule seed.
#[test]
fn mutation_run_stored_after_its_checkpoint_is_caught() {
    let combo = Combo {
        name: "mutation-F sync log ring-full",
        cfg: DudeTmConfig {
            plog_bytes_per_thread: 4096,
            checkpoint_every: 1 << 20,
            ..cfg(1, 1, false)
        }
        .with_durability(DurabilityMode::Sync),
        // Sixteen one-byte words a record, two full lines: two 14- or
        // 15-byte line groups, a 6-word commit record, so each thread's
        // 100 records overfill its 512-word ring. (Three words, 6–7 words
        // a record in log format v4, are 3–4 in v5 and never fill it.)
        workload: Workload::Log { width: 16 },
        threads: 3,
        ops: 100,
        quiesce: false,
    };
    let (seed, err) = assert_mutation_caught(Mutation::ApplyAfterCheckpoint, &combo);
    assert_eq!(
        seed,
        schedule_seeds()[0],
        "caught only under a later seed: {err}"
    );
}

/// A grouped input that ignores a raised demand strands the tiny ring's
/// producers: three threads park holding at most six unreproduced records
/// between them, fewer than the group of eight that would release them,
/// and no ring closes while they are parked. The run must stall, not
/// finish.
#[test]
fn mutation_ignored_demand_is_caught() {
    let combo = tiny_ring_combo("mutation-H tiny-ring pw=1 pg=8", 1, 8);
    let (_, err) = assert_mutation_caught(Mutation::IgnoreDemand, &combo);
    assert!(
        err.contains("deadlock") || err.contains("step budget"),
        "caught as something other than a stall: {err}"
    );
}

/// A durable ID advanced before `publish` takes `replay` opens a window in
/// which a `quiesce` sees its target durable, finds it neither in the
/// pending run nor applied and cuts nothing: `wait_reproduced`'s assert
/// that the target is reproduced must fire, under the first seed.
#[test]
fn mutation_durable_before_replay_is_caught() {
    let combo = quiesce_combo("mutation-G quiesce pw=1");
    let (seed, err) = assert_mutation_caught(Mutation::DurableBeforeReplay, &combo);
    assert!(
        err.contains("reproduced"),
        "caught as something other than the reproduced assert: {err}"
    );
    assert_eq!(
        seed,
        schedule_seeds()[0],
        "caught only under a later seed: {err}"
    );
}
