//! Injectable ordering bugs for mutation-testing the schedule fuzzer.
//!
//! Only compiled under `cfg(feature = "sim")`. Each knob arms one known
//! ordering mutation in the pipeline; `tests/sim_schedules.rs` verifies
//! the seeded schedule explorer *catches* each within its default seed
//! budget — the sharpness check that keeps the fuzzer honest. The knobs
//! are process-global, so arm them only around a single-threaded test
//! harness section and disarm in a drop guard.

use std::sync::atomic::{AtomicBool, Ordering};

static SKIP_GROUP_FENCE: AtomicBool = AtomicBool::new(false);
static FRONTIER_OFF_BY_ONE: AtomicBool = AtomicBool::new(false);

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

/// Arms/disarms mutation A (see [`skip_group_fence`]).
pub fn set_skip_group_fence(on: bool) {
    SKIP_GROUP_FENCE.store(on, Ordering::Relaxed);
}

/// Mutation B — off-by-one frontier publish in sharded Reproduce: when
/// armed, shard workers publish `last + 1` instead of `last`, so the
/// min-completed frontier (and the checkpoint keyed off it) can cover a
/// TID whose writes were never applied or fenced. Returns the offset to
/// add to the published TID.
pub fn frontier_publish_offset() -> u64 {
    u64::from(FRONTIER_OFF_BY_ONE.load(Ordering::Relaxed))
}

/// Arms/disarms mutation B (see [`frontier_publish_offset`]).
pub fn set_frontier_off_by_one(on: bool) {
    FRONTIER_OFF_BY_ONE.store(on, Ordering::Relaxed);
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
    /// Mutation B: shard workers publish an off-by-one frontier.
    FrontierOffByOne,
}

impl MutationGuard {
    /// Arms `which` until the guard drops.
    pub fn arm(which: Mutation) -> Self {
        match which {
            Mutation::SkipGroupFence => set_skip_group_fence(true),
            Mutation::FrontierOffByOne => set_frontier_off_by_one(true),
        }
        MutationGuard { which }
    }
}

impl Drop for MutationGuard {
    fn drop(&mut self) {
        match self.which {
            Mutation::SkipGroupFence => set_skip_group_fence(false),
            Mutation::FrontierOffByOne => set_frontier_off_by_one(false),
        }
    }
}
