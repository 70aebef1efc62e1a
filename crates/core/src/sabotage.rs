//! Injectable ordering and liveness bugs for mutation-testing the schedule
//! fuzzer.
//!
//! Only compiled under `cfg(feature = "sim")`. Each knob arms one known
//! mutation in the pipeline or the shadow memory; `tests/sim_schedules.rs`
//! verifies the seeded schedule explorer *catches* each within its default
//! seed budget — the sharpness check that keeps the fuzzer honest. The
//! knobs are process-global, so arm them only around a single-threaded
//! test harness section and disarm in a drop guard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static SKIP_GROUP_FENCE: AtomicBool = AtomicBool::new(false);
static SKIP_FORCED_CHECKPOINT: AtomicBool = AtomicBool::new(false);
static IGNORE_TOUCH_WATERMARK: AtomicBool = AtomicBool::new(false);
static FREE_RING_WHEN_STAGED: AtomicBool = AtomicBool::new(false);
static APPLY_AFTER_CHECKPOINT: AtomicBool = AtomicBool::new(false);
static DURABLE_BEFORE_REPLAY: AtomicBool = AtomicBool::new(false);
static IGNORE_DEMAND: AtomicBool = AtomicBool::new(false);
/// Mutation F's run held back past its checkpoint.
static HELD_RUN: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

/// Mutation A — dropped fence in the Persist publish path: when armed,
/// every Persist sweep — a worker's, or a `Sync` client's inline one —
/// skips the `fence()` between appending units to the log rings and
/// publishing them. The bytes may still sit in the
/// device's flushed-but-unfenced buffer when durability is announced, so
/// a planned crash loses transactions the durable watermark already
/// covered.
pub fn skip_group_fence() -> bool {
    SKIP_GROUP_FENCE.load(Ordering::Relaxed)
}

/// Mutation C — no forced checkpoint: when armed,
/// `checkpoint_behind` returns without checkpointing, so a Persist worker
/// parked on a full ring (or a `Sync` committer whose ring is full) waits
/// on space that only the cadence checkpoint can recycle. With a cadence
/// longer than the run, the pipeline stops making progress.
pub fn skip_forced_checkpoint() -> bool {
    SKIP_FORCED_CHECKPOINT.load(Ordering::Relaxed)
}

/// Mutation D — paged-shadow swap-in ignores the touching-ID watermark:
/// when armed, a page faults in from the NVM heap without waiting for the
/// reproduced ID to reach the last transaction that wrote it (§4.3), so a
/// transaction can read a value older than one already committed.
pub fn ignore_touch_watermark() -> bool {
    IGNORE_TOUCH_WATERMARK.load(Ordering::Relaxed)
}

/// Mutation E — redo-ring space freed when staged: when armed, a Persist
/// pass — a worker's, or a `Sync` committer's over its own ring — frees a
/// record's redo-ring space as soon as it stages the record into the log,
/// instead of once the reproduced ID passes it. The Perform thread may then
/// overwrite words the Reproduce step has not read, so the heap is rebuilt
/// from another transaction's writes.
pub fn free_ring_when_staged() -> bool {
    FREE_RING_WHEN_STAGED.load(Ordering::Relaxed)
}

/// Mutation F — a run's heap stores after its checkpoint: when armed, the
/// Reproduce step stores and flushes each run's heap words one
/// run late — after the run's checkpoint fence has released its log spans.
/// Takes this run's newest-first writes and returns the run to store now:
/// the one held back last time (the drain passes an empty run to store the
/// last). Disarmed, returns `run` itself. Once a Persist worker reuses the
/// released log space, a crash loses reproduced writes no log can repair.
pub fn store_late(run: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    if !APPLY_AFTER_CHECKPOINT.load(Ordering::Relaxed) {
        return run;
    }
    let mut held = HELD_RUN.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut *held, run)
}

/// Mutation G — `publish` advances the durable ID before it takes
/// `replay`: when armed, a waiter on the reproduced ID that sees the new
/// durable ID and takes `replay` first finds its TID neither in the pending
/// run nor applied, so it cuts nothing and `wait_reproduced`'s assert that
/// the TID is reproduced fails.
pub fn durable_before_replay() -> bool {
    DURABLE_BEFORE_REPLAY.load(Ordering::Relaxed)
}

/// Mutation H — the grouped input ignores a raised demand: when armed, a
/// partial group is cut only when every redo ring is closed, never because
/// a thread waits on its first TID. Producers parked on their full redo
/// rings holding fewer records between them than a group then wait on a
/// group nothing will cut, and the pipeline stops making progress.
pub fn ignore_demand() -> bool {
    IGNORE_DEMAND.load(Ordering::Relaxed)
}

/// RAII guard arming one mutation for a scope; disarms on drop (also on
/// panic, so a caught schedule failure cannot leak into later cases).
#[derive(Debug)]
pub struct MutationGuard {
    which: Mutation,
}

/// The injectable mutations, for [`MutationGuard::arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Mutation A: Persist sweeps skip the pre-publication fence.
    SkipGroupFence,
    /// Mutation C: a parked unit never forces a checkpoint.
    SkipForcedCheckpoint,
    /// Mutation D: paged-shadow swap-ins skip the touching-ID wait.
    IgnoreTouchWatermark,
    /// Mutation E: redo-ring records are freed when staged, not reproduced.
    FreeRingWhenStaged,
    /// Mutation F: a run is stored one run late, after its checkpoint.
    ApplyAfterCheckpoint,
    /// Mutation G: `publish` advances the durable ID before taking `replay`.
    DurableBeforeReplay,
    /// Mutation H: the grouped input ignores a raised demand.
    IgnoreDemand,
}

impl Mutation {
    fn knob(self) -> &'static AtomicBool {
        match self {
            Mutation::SkipGroupFence => &SKIP_GROUP_FENCE,
            Mutation::SkipForcedCheckpoint => &SKIP_FORCED_CHECKPOINT,
            Mutation::IgnoreTouchWatermark => &IGNORE_TOUCH_WATERMARK,
            Mutation::FreeRingWhenStaged => &FREE_RING_WHEN_STAGED,
            Mutation::ApplyAfterCheckpoint => &APPLY_AFTER_CHECKPOINT,
            Mutation::DurableBeforeReplay => &DURABLE_BEFORE_REPLAY,
            Mutation::IgnoreDemand => &IGNORE_DEMAND,
        }
    }
}

impl MutationGuard {
    /// Arms `which` until the guard drops.
    pub fn arm(which: Mutation) -> Self {
        which.knob().store(true, Ordering::Relaxed);
        MutationGuard { which }
    }
}

impl Drop for MutationGuard {
    fn drop(&mut self) {
        self.which.knob().store(false, Ordering::Relaxed);
        HELD_RUN.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}
