//! The crash/recover phase of the correctness gate.
//!
//! On a separate small crash-tracked device, with a [`CommitHistory`]
//! attached from the first transaction on, the workload's load phase and a
//! fixed slice of operations run; a mid-run transaction is acknowledged
//! durable with `wait_durable`; then power fails at a fixed persistence
//! event while the second half of the slice is still flowing through the
//! pipeline. Recovery must keep the acknowledged transaction and leave the
//! heap equal to exactly a contiguous TID-prefix of the recorded history
//! ([`check_prefix`]).
//!
//! The power failure is a [`CrashPlan`]: the device freezes the image a
//! crash at that instant would leave, the instance is drained and dropped
//! normally, and only then is the frozen image installed. Nothing of the
//! crashed instance is left running, so this phase can never disturb a
//! timed window — and it runs last anyway.

use std::sync::Arc;

use dude_nvm::{CrashEventKind, CrashPlan, Nvm, NvmConfig};
use dude_txapi::{TxnSystem, TxnThread};
use dude_workloads::rng::Rng;
use dudetm::{check_prefix, CommitHistory, DudeTm, HistoryEntry, RecoveryReport};

use crate::run::{drive, load};
use crate::spans::Spans;
use crate::spec::{self, Kind, Spec};

/// The crash fires at this many fences after the mid-run acknowledgement.
const CRASH_AT_FENCE: u64 = 8;

/// What the crash phase found.
#[derive(Debug)]
pub struct CrashOutcome {
    /// Operations attempted (the slice, plus one on the recovered runtime).
    pub attempted: u64,
    /// Aborted operations, acknowledged transactions lost by the crash,
    /// and 1 if the recovered heap is not a prefix of the history.
    pub failed: u64,
    /// Recovery's own report (scan/replay/wipe times, replayed count).
    pub report: RecoveryReport,
    /// The recorded history, in TID order: the write-sets the traced run
    /// replays through the log, compress and plog layers.
    pub history: Vec<HistoryEntry>,
    /// Load-phase transactions at the head of `history`.
    pub load_txns: u64,
}

/// Operations in the slice: enough that the crash point is followed by
/// many more fences, small enough for a crash-tracked device.
fn slice_ops(spec: &Spec, smoke: bool) -> u64 {
    let full = match spec.kind {
        Kind::Tpcc => 4_000,
        Kind::Tatp | Kind::Ycsb => 20_000,
    };
    if smoke {
        full / 10
    } else {
        full
    }
}

/// Runs the phase for `spec`.
///
/// # Panics
///
/// Panics if recovery rejects the device it was just given (a typed
/// `RecoverError` — a bug, not a measurement).
pub fn crash_phase(spec: &Spec, seed: u64, smoke: bool, spans: &mut Spans) -> CrashOutcome {
    let phase = spans.enter("crash_phase");
    let ops = slice_ops(spec, smoke);
    let built = spec::build(spec, ops + 64);
    let config = spec::dude_config(spec, built.heap_bytes, false);
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(spec::device_bytes(
        &config,
    ))));
    let load_txns = built.update.load_steps();
    let history = Arc::new(CommitHistory::new((load_txns + ops + 64) as usize));

    let span = spans.enter("create");
    let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
    dude.attach_history(Arc::clone(&history));
    spans.exit(span);

    let mut failed = 0;
    let acked;
    {
        let mut thread = dude.register_thread();
        let mut writes = Vec::new();
        let mut rng = Rng::new(seed ^ 0xC4A5);
        let span = spans.enter("load");
        failed += load(&mut thread, built.update.as_ref(), &mut writes, |_| {});
        spans.exit(span);

        let span = spans.enter("run");
        let mut last_tid = 0;
        failed += drive(
            &mut thread,
            built.update.as_ref(),
            &mut rng,
            ops / 2,
            &mut writes,
            |_, info| last_tid = info.tid.unwrap_or(last_tid),
        );
        spans.exit(span);

        let span = spans.enter("wait_durable");
        thread.wait_durable(last_tid);
        acked = last_tid;
        spans.exit(span);

        nvm.arm_crash_plan(CrashPlan::at_nth(CrashEventKind::Fence, CRASH_AT_FENCE));
        let span = spans.enter("run");
        failed += drive(
            &mut thread,
            built.update.as_ref(),
            &mut rng,
            ops - ops / 2,
            &mut writes,
            |_, _| {},
        );
        spans.exit(span);
    }
    let span = spans.enter("shutdown");
    drop(dude);
    spans.exit(span);
    if !nvm.apply_planned_crash() {
        // Fewer fences than planned after the acknowledgement: crash now,
        // on the drained device. Still a valid (if dull) recovery.
        nvm.crash();
    }

    let span = spans.enter("recover");
    let (recovered, report) = DudeTm::recover_stm(Arc::clone(&nvm), config)
        .expect("recovery of a device DudeTM formatted");
    spans.exit(span);

    if report.last_tid < acked {
        eprintln!(
            "dude-perf: acknowledged tid {acked} lost by the crash (recovered to {})",
            report.last_tid
        );
        failed += acked - report.last_tid;
    }
    let entries = history.entries();
    let heap = recovered.heap_region();
    if let Err(e) = check_prefix(&entries, history.dropped(), report.last_tid, |addr| {
        nvm.read_word(heap.start() + addr)
    }) {
        eprintln!("dude-perf: durable linearizability violated after the crash: {e}");
        failed += 1;
    }
    // The recovered runtime must keep working.
    {
        let mut thread = recovered.register_thread();
        let mut writes = Vec::new();
        let mut rng = Rng::new(seed ^ 0x5EC0);
        failed += drive(
            &mut thread,
            built.update.as_ref(),
            &mut rng,
            1,
            &mut writes,
            |_, _| {},
        );
    }
    recovered.quiesce();
    drop(recovered);
    spans.exit(phase);
    CrashOutcome {
        attempted: ops + 1,
        failed,
        report,
        history: entries,
        load_txns,
    }
}
