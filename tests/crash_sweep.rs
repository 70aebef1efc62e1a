//! Exhaustive deterministic crash-point sweep across the whole stack.
//!
//! `tests/crash_consistency.rs` samples crash points with wall-clock timing;
//! this suite *enumerates* them. A counting pass runs a fixed bank workload
//! once and reads the device's persistence-event tallies
//! ([`Nvm::persistence_events`]); the sweep then re-runs the identical
//! workload once per event index with a [`CrashPlan`] armed to simulate a
//! power failure at exactly that flush, fence, or store — foreground and
//! background stages, strict and torn-cache-line outcomes — recovers with
//! [`recover_device`], and checks the same four invariants:
//!
//! 1. **Durability** — every transaction acknowledged durable before the
//!    crash instant survives it.
//! 2. **Atomicity** — recovered state never contains a torn transaction.
//! 3. **Consistency** — the bank total is conserved after recovery.
//! 4. **Prefix semantics** — the recovered state equals the replay of a
//!    contiguous prefix of the committed transaction sequence.
//!
//! The workload runs on a single Perform thread, so the committed sequence
//! (and therefore the expected state after every prefix) is identical in
//! every run; only the crash point moves. Across the sweeps below, well over
//! 200 distinct crash points are exercised (each test asserts its share).

use std::sync::Arc;
use std::time::Duration;

use dude_nvm::{CrashEventKind, CrashPlan, Nvm, NvmConfig, StageFilter};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{recover_device, DudeTm, DudeTmConfig, DurabilityMode};

const ACCOUNTS: u64 = 16;
const INITIAL: u64 = 100;
const SEED: u64 = 0x5EED_CAFE;
/// A run (a hundred transfers) takes milliseconds; one still going after
/// this is hung.
const HANG: Duration = Duration::from_secs(120);

/// One account per cache line: Reproduce flushes each dirty *line* once per
/// batch, so accounts packed into two lines would leave the flush sweeps
/// with a handful of crash points.
fn slot(i: u64) -> PAddr {
    PAddr::from_word_index(8 + 8 * i)
}

/// Word `w` of the cold row, the line after the last account's: the seed
/// transaction writes `wide(w, w + 1)` to each of its eight words, and no
/// transfer touches it again, so once the log ring has wrapped past the
/// seed's record only the heap holds it.
fn cold(w: u64) -> PAddr {
    PAddr::from_word_index(8 + 8 * ACCOUNTS + w)
}

/// The word stored for `v` in word `i` of the accounts or the cold row: `v`
/// (under 256) over an offset of 2–8 significant bytes, by `i`. Every value
/// logged is then multi-byte, and the records of a frame end at varied
/// bytes of its payload.
fn wide(i: u64, v: u64) -> u64 {
    (0x0101 << (8 * (i % 7))) + v
}

fn config(mode: DurabilityMode) -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 2,
        plog_bytes_per_thread: 1 << 16,
        checkpoint_every: 8,
        ..DudeTmConfig::small(1 << 16)
    }
    .with_durability(mode)
}

fn fresh_nvm() -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(1 << 18)))
}

/// Advances the LCG until it yields a transfer between distinct accounts.
fn next_pair(mut x: u64) -> (u64, u64, u64) {
    loop {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (x >> 33) % ACCOUNTS;
        let b = (x >> 13) % ACCOUNTS;
        if a != b {
            return (a, b, x);
        }
    }
}

/// A bank run: the transfers after the seed transaction, and whether each
/// stores a scratch value into its accounts first (see [`run_bank`]).
#[derive(Debug, Clone, Copy)]
struct Bank {
    transfers: u64,
    rewrite: bool,
}

/// The bank most sweeps run.
const BANK: Bank = Bank {
    transfers: 100,
    rewrite: false,
};

/// Simulated balances after each transaction ID: `states[k]` is the heap
/// content a correct recovery to `last_tid == k` must produce. Tid 0 is the
/// unformatted heap, tid 1 the seed transaction, tids `2..=transfers + 1`
/// the transfers.
fn expected_states(transfers: u64) -> Vec<Vec<u64>> {
    let mut states = vec![vec![0u64; ACCOUNTS as usize]];
    let mut bal = vec![INITIAL; ACCOUNTS as usize];
    states.push(bal.clone());
    let mut x = SEED;
    for _ in 0..transfers {
        let (a, b, nx) = next_pair(x);
        x = nx;
        bal[a as usize] -= 1;
        bal[b as usize] += 1;
        states.push(bal.clone());
    }
    states
}

/// Runs the deterministic bank workload to clean shutdown. With a plan
/// armed, the crash image freezes mid-run while the live threads keep going
/// (the emulator never wedges the pipeline); acknowledgements recorded after
/// the trip belong to the post-crash timeline and are excluded from the
/// durability bar.
///
/// With `rewrite`, a transfer stores a scratch value — never a valid
/// balance — into each account before the real one, so every transaction
/// writes each of its words twice: the committed sequence and its prefix
/// states are unchanged, but only if combination keeps the *last* write.
fn run_bank(nvm: &Arc<Nvm>, cfg: DudeTmConfig, plan: Option<CrashPlan>, bank: Bank) -> BankRun {
    let _watchdog = Watchdog::arm(
        format!("seed {SEED:#x} {bank:?} plan {plan:?} config {cfg:?}"),
        HANG,
    );
    let dude = DudeTm::create_stm(Arc::clone(nvm), cfg);
    match plan {
        Some(p) => nvm.arm_crash_plan(p),
        // Counting pass: exclude formatting, like the armed runs do.
        None => nvm.reset_persistence_events(),
    }
    let mut acked = 0u64;
    {
        let mut t = dude.register_thread();
        t.run(&mut |tx| {
            for i in 0..ACCOUNTS {
                tx.write_word(slot(i), wide(i, INITIAL))?;
            }
            (0..8).try_for_each(|w| tx.write_word(cold(w), wide(w, w + 1)))
        })
        .expect_committed();
        let mut x = SEED;
        for op in 0..bank.transfers {
            let (a, b, nx) = next_pair(x);
            x = nx;
            let out = t.run(&mut |tx| {
                let va = tx.read_word(slot(a))?;
                let vb = tx.read_word(slot(b))?;
                if bank.rewrite {
                    tx.write_word(slot(a), !va)?;
                    tx.write_word(slot(b), !vb)?;
                }
                tx.write_word(slot(a), va - 1)?;
                tx.write_word(slot(b), vb + 1)
            });
            let tid = out
                .info()
                .expect("single-threaded transfer commits")
                .tid
                .unwrap();
            if op % 10 == 9 {
                t.wait_durable(tid);
                // `wait_durable` returned before the trip was observed, so
                // the covering fence completed before the crash instant.
                if !nvm.crash_plan_tripped() {
                    acked = acked.max(tid);
                }
            }
        }
    }
    let log_bytes = dude.pipeline_stats().log_bytes_flushed;
    drop(dude);
    BankRun { acked, log_bytes }
}

/// What a bank run observed.
struct BankRun {
    /// The highest transaction ID acknowledged durable strictly before the
    /// crash instant.
    acked: u64,
    /// Bytes appended to the log rings before the runtime shut down.
    log_bytes: u64,
}

/// Recovers the device and checks the four invariants against the
/// simulated prefix states.
fn check_recovery(
    nvm: &Arc<Nvm>,
    cfg: &DudeTmConfig,
    acked: u64,
    states: &[Vec<u64>],
    label: &str,
) {
    let (layout, report) = recover_device(nvm, cfg).expect("recovery");
    // 1. Durability: acknowledged transactions survive.
    assert!(
        report.last_tid >= acked,
        "{label}: acknowledged tid {acked} lost (recovered to {})",
        report.last_tid
    );
    let l = report.last_tid as usize;
    assert!(
        l < states.len(),
        "{label}: recovered past the committed sequence ({l})"
    );
    // The balances, each word's offset taken off once the seed wrote it.
    let seeded = u64::from(l >= 1);
    let bal: Vec<u64> = (0..ACCOUNTS)
        .map(|i| nvm.read_word(layout.heap.start() + slot(i).offset()) - seeded * wide(i, 0))
        .collect();
    // 2 + 4. Atomicity and prefix semantics: the heap is *exactly* the
    // replay of transactions 1..=last_tid — no torn transaction, nothing
    // from beyond the prefix, nothing missing inside it.
    assert_eq!(
        bal, states[l],
        "{label}: recovered state is not the replay of prefix 1..={l}"
    );
    // 3. Consistency: the application invariant holds.
    if l >= 1 {
        assert_eq!(
            bal.iter().sum::<u64>(),
            ACCOUNTS * INITIAL,
            "{label}: money not conserved"
        );
    }
    let row: Vec<u64> = (0..8)
        .map(|w| nvm.read_word(layout.heap.start() + cold(w).offset()))
        .collect();
    let want: Vec<u64> = (0..8).map(|w| wide(w, w + 1) * seeded).collect();
    assert_eq!(row, want, "{label}: the seed's cold row");
}

/// Counts this class's events in crash-free runs, then crashes at every
/// `stride`-th index (stride chosen so at most ~`max_points` rounds run) and
/// verifies recovery each time. Returns (rounds, rounds that tripped).
///
/// Background fence/flush counts wobble with batching, so the range is
/// sized from the *fewest* events three calibration runs saw: a point
/// beyond a faster run's end never trips, and too many of those would
/// fail the callers' `tripped` floor without any oracle being wrong.
fn sweep(
    cfg: DudeTmConfig,
    event: CrashEventKind,
    stage: StageFilter,
    torn: bool,
    max_points: u64,
) -> (u64, u64) {
    sweep_bank(cfg, event, stage, torn, max_points, BANK)
}

/// [`sweep`] over any [`Bank`].
fn sweep_bank(
    cfg: DudeTmConfig,
    event: CrashEventKind,
    stage: StageFilter,
    torn: bool,
    max_points: u64,
    bank: Bank,
) -> (u64, u64) {
    let states = expected_states(bank.transfers);
    let events = (0..3)
        .map(|_| {
            let nvm = fresh_nvm();
            run_bank(&nvm, cfg, None, bank);
            nvm.persistence_events().count(event, stage)
        })
        .min()
        .expect("three calibration runs");
    assert!(events > 0, "workload emits no {event:?}/{stage:?} events");
    let stride = (events / max_points).max(1);
    let mut rounds = 0u64;
    let mut tripped = 0u64;
    // Sweep one stride past the count: background batching makes per-run
    // event totals wobble, and an index beyond the run's actual count must
    // degrade to a clean no-crash run, never an error.
    let mut i = 1;
    while i <= events + stride {
        let mut plan = CrashPlan::at_nth(event, i).for_stage(stage);
        if torn {
            plan = plan.with_torn_line(SEED ^ i);
        }
        let nvm = fresh_nvm();
        let acked = run_bank(&nvm, cfg, Some(plan), bank).acked;
        if nvm.apply_planned_crash() {
            tripped += 1;
        }
        let label = format!("{event:?}/{stage:?} torn={torn} {bank:?} crash point {i}");
        check_recovery(&nvm, &cfg, acked, &states, &label);
        rounds += 1;
        i += stride;
    }
    (rounds, tripped)
}

const ASYNC: DurabilityMode = DurabilityMode::Async { buffer_txns: 64 };

#[test]
fn sweep_async_background_flushes() {
    let (rounds, tripped) = sweep(
        config(ASYNC),
        CrashEventKind::Flush,
        StageFilter::Background,
        false,
        120,
    );
    assert!(rounds >= 80, "only {rounds} background-flush crash points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_async_background_fences() {
    let (rounds, tripped) = sweep(
        config(ASYNC),
        CrashEventKind::Fence,
        StageFilter::Background,
        false,
        60,
    );
    assert!(rounds >= 5, "only {rounds} background-fence crash points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_async_background_writes() {
    // Stores are the densest event class; stride-sample them.
    let (rounds, tripped) = sweep(
        config(ASYNC),
        CrashEventKind::Write,
        StageFilter::Background,
        false,
        40,
    );
    assert!(rounds >= 30, "only {rounds} background-write crash points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_async_torn_cacheline() {
    let (rounds, tripped) = sweep(
        config(ASYNC),
        CrashEventKind::Flush,
        StageFilter::Any,
        true,
        50,
    );
    assert!(rounds >= 40, "only {rounds} torn-line crash points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_sync_foreground_flushes() {
    let (rounds, tripped) = sweep(
        config(DurabilityMode::Sync),
        CrashEventKind::Flush,
        StageFilter::Foreground,
        false,
        60,
    );
    assert!(rounds >= 40, "only {rounds} foreground-flush crash points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_sync_foreground_fences_torn() {
    let (rounds, tripped) = sweep(
        config(DurabilityMode::Sync),
        CrashEventKind::Fence,
        StageFilter::Foreground,
        true,
        40,
    );
    assert!(
        rounds >= 20,
        "only {rounds} torn foreground-fence crash points"
    );
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

// ---- A commit is a group of one ------------------------------------------
//
// Every transfer writes each of its accounts twice, so every unit Persist
// seals is combined: the log record, the volatile copy Reproduce applies
// and recovery's replay carry one write per account. Prefix semantics must
// hold at every flush, fence and store of the run, strict and torn — a
// combination that kept the first write, or dropped a word, would surface
// a scratch value or a stale balance in the recovered heap.

#[test]
fn sweep_rewriting_bank_every_event_class() {
    for (event, max_points) in [
        (CrashEventKind::Flush, 40),
        (CrashEventKind::Fence, 40),
        (CrashEventKind::Write, 40),
    ] {
        for torn in [false, true] {
            let (rounds, tripped) = sweep_bank(
                config(ASYNC),
                event,
                StageFilter::Any,
                torn,
                max_points,
                Bank {
                    rewrite: true,
                    ..BANK
                },
            );
            assert!(
                rounds >= 20,
                "only {rounds} rewriting-bank {event:?} points (torn={torn})"
            );
            assert!(
                tripped >= rounds / 2,
                "only {tripped}/{rounds} plans tripped"
            );
        }
    }
}

// ---- `Sync` mode, every store -------------------------------------------
//
// Under `Sync` the committer persists its own record and runs the Reproduce
// step inline: sweep the densest event class through that path too, at
// every stage.

#[test]
fn sweep_sync_mode_writes() {
    let (rounds, tripped) = sweep(
        config(DurabilityMode::Sync),
        CrashEventKind::Write,
        StageFilter::Any,
        false,
        40,
    );
    assert!(rounds >= 30, "only {rounds} sync-write points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

// ---- Observability layer under crash sweep ------------------------------
//
// The trace layer's zero-behavior-change contract, proven at the hardest
// boundary: with recording enabled (histograms, stall counters, the event
// ring all live), every swept crash point must recover to exactly the same
// committed prefix the untraced sweeps establish. Recording adds clock
// reads and atomics around the persist barrier and the replay loops; none
// of that may reorder or add a single durable store.

#[test]
fn sweep_traced_background_flushes() {
    let cfg = config(ASYNC).with_trace(dudetm::TraceConfig::enabled(4096));
    let (rounds, tripped) = sweep(
        cfg,
        CrashEventKind::Flush,
        StageFilter::Background,
        false,
        60,
    );
    assert!(rounds >= 40, "only {rounds} traced background-flush points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_traced_torn_cacheline() {
    // Tracing + torn lines: the layer's recording sites around the persist
    // barrier and the Reproduce step under the nastiest crash class.
    let cfg = config(ASYNC).with_trace(dudetm::TraceConfig::enabled(4096));
    let (rounds, tripped) = sweep(cfg, CrashEventKind::Flush, StageFilter::Any, true, 40);
    assert!(rounds >= 30, "only {rounds} traced torn points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

// ---- Log combination (`persist_group = 8`, §3.3) -------------------------
//
// Grouped Persist rewrites history's unit of atomicity: one ring record
// now covers up to eight transactions (combined, optionally compressed),
// appended with a single fence. The prefix invariant must hold at group
// granularity — a crash can only ever add or drop *whole groups*, and a
// group made unreadable by a torn cache line must be discarded whole, never
// replayed partially. `check_recovery` enforces exactly that: the recovered
// balances must match some per-transaction prefix state, which a
// half-applied group cannot produce.

fn grouped(compress: bool) -> DudeTmConfig {
    config(ASYNC).with_grouping(8, compress)
}

#[test]
fn sweep_grouped_background_flushes() {
    let (rounds, tripped) = sweep(
        grouped(false),
        CrashEventKind::Flush,
        StageFilter::Background,
        false,
        60,
    );
    assert!(
        rounds >= 15,
        "only {rounds} grouped background-flush points"
    );
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_background_fences() {
    // One fence per group append (that is the point of combination), plus
    // checkpoint fences: a much sparser class than ungrouped persist.
    let (rounds, tripped) = sweep(
        grouped(false),
        CrashEventKind::Fence,
        StageFilter::Background,
        false,
        60,
    );
    assert!(rounds >= 5, "only {rounds} grouped background-fence points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_torn_cacheline() {
    let (rounds, tripped) = sweep(
        grouped(false),
        CrashEventKind::Flush,
        StageFilter::Any,
        true,
        50,
    );
    assert!(rounds >= 15, "only {rounds} grouped torn-line crash points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_compressed_torn_cacheline() {
    // A torn line inside a compressed group corrupts an encoding the
    // replayer cannot even partially decode; the record checksum must
    // reject it and recovery must drop the whole group (falling back to
    // the previous group boundary), never apply a half-group.
    let (rounds, tripped) = sweep(
        grouped(true),
        CrashEventKind::Flush,
        StageFilter::Any,
        true,
        50,
    );
    assert!(
        rounds >= 15,
        "only {rounds} compressed-group torn crash points"
    );
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_compressed_background_writes() {
    let (rounds, tripped) = sweep(
        grouped(true),
        CrashEventKind::Write,
        StageFilter::Background,
        false,
        40,
    );
    assert!(
        rounds >= 15,
        "only {rounds} compressed-group background-write points"
    );
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

/// A 4 KiB log ring, the smallest, wraps past the seed's record about half
/// way into a 400-transfer run (a transfer's record takes ≈ 20 bytes in a
/// frame of the log format v6; 250 transfers of 3-word v5 records
/// wrapped it too, but framed they no longer do), so the later
/// crash points find only the heap holding the cold row: recovery can no
/// longer repair a store the Reproduce step left unflushed at its
/// checkpoint (a line flushed ahead of a later store to it, say), and the
/// cold-row check sees the loss. With the 64 KiB ring of the sweeps above,
/// recovery replays the whole history from the log and hides it.
#[test]
fn sweep_recycled_log_fences() {
    let cfg = DudeTmConfig {
        plog_bytes_per_thread: 1 << 12,
        ..config(ASYNC)
    };
    let bank = Bank {
        transfers: 400,
        ..BANK
    };
    // One Perform thread, one log ring: past its capacity, it has wrapped.
    let log_bytes = run_bank(&fresh_nvm(), cfg, None, bank).log_bytes;
    assert!(
        log_bytes > cfg.plog_bytes_per_thread * 4 / 3,
        "the ring must wrap well before the run ends: {log_bytes} B logged"
    );
    let (rounds, tripped) = sweep_bank(
        cfg,
        CrashEventKind::Fence,
        StageFilter::Any,
        false,
        60,
        bank,
    );
    assert!(rounds >= 15, "only {rounds} recycled-log fence points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

// ---- Parallel grouped Persist (`persist_flush_workers` ∈ {2, 4}) ---------
//
// The workers take groups from one shared input, each staging into a ring
// of its own, and fence and publish them out of order; only the durable
// watermark (a prefix) and Reproduce's replay are in order. The prefix
// invariant is therefore load-bearing in a new way: a crash amid N
// in-flight group flushes may persist groups beyond a gap, and recovery
// must discard every group past the first missing one — across rings —
// or the recovered balances cannot match any per-transaction prefix state.

fn grouped_mw(compress: bool, workers: usize) -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 4,
        plog_bytes_per_thread: 1 << 14,
        checkpoint_every: 8,
        ..DudeTmConfig::small(1 << 16)
    }
    .with_durability(ASYNC)
    .with_grouping(8, compress)
    .with_flush_workers(workers)
}

#[test]
fn sweep_grouped_two_flush_workers_background_flushes() {
    let (rounds, tripped) = sweep(
        grouped_mw(false, 2),
        CrashEventKind::Flush,
        StageFilter::Background,
        false,
        60,
    );
    assert!(rounds >= 15, "only {rounds} 2-worker grouped flush points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_two_flush_workers_compressed_torn() {
    // Torn line inside a compressed group on either worker's ring: the
    // checksum rejects it and recovery drops the whole group plus every
    // group beyond it, even those another worker fenced first.
    let (rounds, tripped) = sweep(
        grouped_mw(true, 2),
        CrashEventKind::Flush,
        StageFilter::Any,
        true,
        50,
    );
    assert!(
        rounds >= 15,
        "only {rounds} 2-worker compressed torn points"
    );
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_four_flush_workers_compressed_flushes() {
    let (rounds, tripped) = sweep(
        grouped_mw(true, 4),
        CrashEventKind::Flush,
        StageFilter::Background,
        false,
        60,
    );
    assert!(
        rounds >= 15,
        "only {rounds} 4-worker compressed flush points"
    );
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

#[test]
fn sweep_grouped_four_flush_workers_background_fences() {
    // Each worker fences its own sweeps: the fence class now has events
    // from up to four Persist workers plus the checkpoint.
    let (rounds, tripped) = sweep(
        grouped_mw(false, 4),
        CrashEventKind::Fence,
        StageFilter::Background,
        false,
        60,
    );
    assert!(rounds >= 5, "only {rounds} 4-worker fence points");
    assert!(
        tripped >= rounds / 2,
        "only {tripped}/{rounds} plans tripped"
    );
}

/// A swept crash must leave a device the full runtime can restart from, not
/// just one `recover_device` can read: recover with `DudeTm::recover_stm`,
/// check the prefix invariant through the runtime's own heap view, and keep
/// transacting.
#[test]
fn swept_crash_recovers_into_working_runtime() {
    let cfg = config(ASYNC);
    let states = expected_states(BANK.transfers);
    let nvm = fresh_nvm();
    run_bank(&nvm, cfg, None, BANK);
    let fences = nvm
        .persistence_events()
        .count(CrashEventKind::Fence, StageFilter::Any);
    let nvm = fresh_nvm();
    let plan = CrashPlan::at_nth(CrashEventKind::Fence, (fences / 2).max(1));
    let acked = run_bank(&nvm, cfg, Some(plan), BANK).acked;
    assert!(nvm.apply_planned_crash(), "mid-run fence plan must trip");

    let _watchdog = Watchdog::arm(format!("recovered runtime, config {cfg:?}"), HANG);
    let (dude, report) = DudeTm::recover_stm(Arc::clone(&nvm), cfg).expect("recovery");
    assert!(report.last_tid >= acked);
    // The recovery-time breakdown is populated: scanning two 64 KiB log
    // regions word-by-word cannot take zero wall time.
    assert!(report.scan_ns > 0, "scan phase unmeasured: {report:?}");
    let l = report.last_tid as usize;
    let heap = dude.heap_region();
    let seeded = u64::from(l >= 1);
    let bal: Vec<u64> = (0..ACCOUNTS)
        .map(|i| nvm.read_word(heap.start() + slot(i).offset()) - seeded * wide(i, 0))
        .collect();
    assert_eq!(bal, states[l]);
    // Prefix semantics also mean the restarted history continues the
    // prefix: new IDs come strictly after the recovered one.
    let mut t = dude.register_thread();
    let out = t.run(&mut |tx| {
        let v = tx.read_word(slot(0))?;
        tx.write_word(slot(0), v + 1)
    });
    assert!(out.info().unwrap().tid.unwrap() > report.last_tid);
}
