//! Baseline durable-transaction systems from the paper's evaluation
//! (§5.2.2), plus the volatile upper bounds.
//!
//! * [`Mnemosyne`] — a Mnemosyne-like redo-logging system: write-back STM
//!   executing directly on NVM, every read redirected through the write set,
//!   and a **synchronous** per-transaction log persist at commit. This is
//!   the coupled design whose costs DudeTM's decoupling removes.
//! * [`NvmlLike`] — an NVML-like undo-logging system: *static* transactions
//!   that declare their write set up front, striped two-phase locking for
//!   isolation (NVML itself provides none), an undo-log persist barrier per
//!   declared range (the per-update persist-ordering cost of §2.2), and a
//!   second barrier sequence at commit.
//! * [`VolatileStm`] / [`VolatileHtm`] — the TM running on DRAM with no
//!   durability: the throughput ceilings of Figure 2 and Table 4.
//!
//! All four implement [`dude_txapi::TxnSystem`], so the workload suite runs
//! on them unchanged.

#![deny(unsafe_code)]

mod mnemosyne;
mod nvml;
mod volatile;

pub use mnemosyne::{Mnemosyne, MnemosyneThread};
pub use nvml::{NvmlLike, NvmlThread};
pub use volatile::{VolatileHtm, VolatileHtmThread, VolatileStm, VolatileStmThread};

/// Shared sizing configuration for the durable baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Persistent heap size in bytes.
    pub heap_bytes: u64,
    /// Maximum worker threads (log regions are preallocated per thread).
    pub max_threads: usize,
    /// Per-thread log region size in bytes.
    pub log_bytes_per_thread: u64,
}

impl BaselineConfig {
    /// A small functional-testing configuration.
    pub fn small(heap_bytes: u64) -> Self {
        BaselineConfig {
            heap_bytes,
            max_threads: 8,
            log_bytes_per_thread: 1 << 20,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.heap_bytes > 0 && self.heap_bytes.is_multiple_of(8));
        assert!(self.max_threads >= 1);
        assert!(self.log_bytes_per_thread >= 4096);
    }
}
