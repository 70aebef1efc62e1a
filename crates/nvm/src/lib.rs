//! Emulated persistent memory (NVM) for the DudeTM reproduction.
//!
//! Real NVM was not available to the DudeTM authors either: the paper
//! emulates persistent memory with DRAM and models only its *persistence
//! cost* — a persist barrier over `n` bytes takes
//! `max(latency, n / bandwidth)` (§5.1). This crate reproduces that emulator
//! and extends it with the piece the paper could not test: **observable crash
//! semantics**. Stores land in a volatile layer (the "CPU cache"); only
//! [`Nvm::flush`] + [`Nvm::fence`] move them to the durable image; a
//! simulated [`Nvm::crash`] discards everything that was not yet durable.
//! That turns crash consistency from an argument into a testable property.
//!
//! The crate also provides:
//!
//! * [`TimingModel`] / [`TimingConfig`] — the paper's delay model, realized
//!   by calibrated busy-waiting exactly like the paper's RDTSC spin loops.
//! * [`NvmStats`] — write/flush/fence counters behind Table 1 and Figure 3.
//! * [`PAllocator`] — a logged persistent allocator (`pmalloc`/`pfree`,
//!   §3.5) whose allocation log is replayed at recovery.
//! * [`Region`] — typed sub-ranges of the device used to lay out metadata,
//!   log and heap areas.
//! * [`monotonic_ns`] — the process-wide monotonic clock the observability
//!   layer times stages and stamps metrics frames with.
//!
//! How this emulation substitutes for the paper's hardware — and why that
//! preserves the reported behaviour — is argued point by point in
//! `DESIGN.md §Substitutions`; the pipeline that drives the device is
//! described in `DESIGN.md §Pipeline`.
//!
//! # Example
//!
//! ```
//! use dude_nvm::{Nvm, NvmConfig};
//!
//! let nvm = Nvm::new(NvmConfig::for_testing(1 << 16));
//! nvm.write_word(64, 42);
//! nvm.persist(64, 8); // flush + fence: now durable
//! nvm.write_word(72, 7); // still only in the volatile layer
//! nvm.crash();
//! assert_eq!(nvm.read_word(64), 42);
//! assert_eq!(nvm.read_word(72), 0); // lost: never flushed
//! ```

#![deny(unsafe_code)]

mod alloc;
mod device;
mod region;
mod stats;
pub mod thread;
mod timing;

pub use alloc::{AllocError, PAllocator, RecoveredHeap};
pub use device::{
    CrashEventKind, CrashPlan, Nvm, NvmConfig, PersistenceEvents, StageFilter, WearSummary,
};
pub use region::Region;
pub use stats::{NvmStats, StatsSnapshot};
pub use timing::{
    is_background_stage, monotonic_ns, set_background_stage, TimingConfig, TimingModel,
};

/// Bytes per emulated cache line (flush granularity).
pub const CACHE_LINE: u64 = 64;
