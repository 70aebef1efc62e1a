//! DudeTM: durable transactions with decoupling for persistent memory.
//!
//! This crate is the core of a full reproduction of *"DudeTM: Building
//! Durable Transactions with Decoupling for Persistent Memory"* (Liu et
//! al., ASPLOS 2017). DudeTM resolves the undo-vs-redo-logging dilemma —
//! per-write persist ordering versus read indirection — by decoupling every
//! durable transaction into three fully asynchronous steps:
//!
//! 1. **Perform** — run the transaction with an out-of-the-box TM
//!    ([`dude_stm::Stm`] or [`dude_htm::Htm`]) on a shared *shadow DRAM*
//!    mirror of the persistent heap, appending its redo log to the thread's
//!    lock-free volatile redo ring.
//! 2. **Persist** — background threads combine each redo log (last writer
//!    wins per word: a commit is a group of one), append it to persistent
//!    log rings in the two-word-header format of [`log`], and cover each
//!    sweep with one flush per ring and one barrier, advancing the global
//!    *durable ID*.
//! 3. **Reproduce** — a step run by whoever closes a TID gap replays
//!    durable logs straight from the redo rings, in global transaction-ID
//!    order, onto the real persistent data — each dirty cache line flushed
//!    once per batch — then frees the ring space and recycles log space.
//!
//! Dirty data never flows from shadow memory to NVM directly, so cache
//! evictions cannot break crash consistency, no read is ever redirected,
//! and no write needs its own fence.
//!
//! The repository's `DESIGN.md` documents the architecture in depth: the
//! three-stage pipeline in `DESIGN.md §Pipeline`, and the metrics catalog
//! ([`stats`]) with its switches ([`trace`], [`metrics`]) in
//! `DESIGN.md §Observability`.
//!
//! # Example
//!
//! ```
//! use dude_nvm::{Nvm, NvmConfig};
//! use dude_txapi::{PAddr, TxnSystem, TxnThread};
//! use dudetm::{DudeTm, DudeTmConfig};
//! use std::sync::Arc;
//!
//! let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
//! let config = DudeTmConfig::small(4 << 20);
//! let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
//!
//! let mut thread = dude.register_thread();
//! let outcome = thread.run(&mut |tx| {
//!     let v = tx.read_word(PAddr::new(64))?;
//!     tx.write_word(PAddr::new(64), v + 1)?;
//!     Ok(())
//! });
//! let tid = outcome.info().unwrap().tid.unwrap();
//! thread.wait_durable(tid); // redo log is now in NVM
//! drop(thread);
//! dude.quiesce(); // Reproduce has applied it to the heap image
//! # let _ = tid;
//! ```
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod check;
mod config;
mod engine;
pub mod log;
pub mod metrics;
mod pipeline;
mod plog;
mod recovery;
mod redo_ring;
mod runtime;
#[cfg(feature = "sim")]
pub mod sabotage;
mod seqtrack;
mod shadow;
pub mod stats;
pub mod trace;
mod watermark;

pub use check::{check_prefix, CommitHistory, HistoryEntry, LinearizabilityError, PrefixReport};
pub use config::{ConfigError, DudeTmConfig, DurabilityMode};
pub use engine::{EngineThread, TmEngine};
pub use log::{LogRecord, ParsedRecord};
pub use metrics::{
    render_histogram, validate_exposition, MetricsConfig, MetricsFrame, MetricsRegistry,
    MetricsServer, RecoveryPhase,
};
pub use plog::{scan_region, PlogRing, PlogSpan};
pub use recovery::{recover_device, recover_device_observed, RecoverError, RecoveryReport};
pub use runtime::{dtm_abort, DtmThread, DudeTm, NvmLayout, RedoHooks};
pub use seqtrack::DenseReorder;
pub use shadow::{PagingMode, ShadowConfig, ShadowMem, ShadowStats, ShadowView, PAGE_BYTES};
pub use stats::{
    CellDef, Kind, PipelineSnapshot, PipelineStats, PipelineStatsSnapshot, RecoverySnapshot,
    RecoveryTelemetry, StallCounters, StallSnapshot, Watermarks,
};
pub use trace::{HistogramSnapshot, LatencyHistogram, Trace, TraceConfig};

use std::sync::Arc;

use dude_htm::{Htm, HtmConfig};
use dude_nvm::Nvm;
use dude_stm::{Stm, StmConfig};

impl<E: TmEngine> DudeTm<E> {
    /// Recovers the device, then starts a runtime over it with the engine
    /// `engine` builds for a commit clock resuming at the recovered TID.
    fn recover_with(
        nvm: Arc<Nvm>,
        config: DudeTmConfig,
        engine: impl FnOnce(u64) -> E,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let telemetry = RecoveryTelemetry::default();
        let (layout, report) = recover_device_observed(&nvm, &config, &telemetry)?;
        let engine = engine(report.last_tid);
        let dude = Self::start(nvm, config, engine, layout, report.last_tid, telemetry);
        Ok((dude, report))
    }
}

impl DudeTm<Stm> {
    /// Formats `nvm` and starts a fresh STM-backed runtime (the paper's
    /// default TinySTM-based configuration).
    pub fn create_stm(nvm: Arc<Nvm>, config: DudeTmConfig) -> Self {
        Self::create_stm_with(nvm, config, StmConfig::default())
    }

    /// As [`DudeTm::create_stm`] with an explicit STM configuration.
    pub fn create_stm_with(nvm: Arc<Nvm>, config: DudeTmConfig, stm: StmConfig) -> Self {
        DudeTm::create_with(nvm, config, Stm::new(stm))
    }

    /// Recovers an STM-backed runtime from a crashed device: replays the
    /// durable logs, then resumes with transaction IDs continuing where the
    /// recovered history ended.
    ///
    /// # Errors
    ///
    /// See [`RecoverError`].
    pub fn recover_stm(
        nvm: Arc<Nvm>,
        config: DudeTmConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_with(nvm, config, |tid| {
            Stm::with_initial_clock(StmConfig::default(), tid)
        })
    }
}

impl DudeTm<Htm> {
    /// Formats `nvm` and starts a fresh HTM-backed runtime (§4.2).
    pub fn create_htm(nvm: Arc<Nvm>, config: DudeTmConfig) -> Self {
        DudeTm::create_with(nvm, config, Htm::new(HtmConfig::default()))
    }

    /// Recovers an HTM-backed runtime from a crashed device.
    ///
    /// # Errors
    ///
    /// See [`RecoverError`].
    pub fn recover_htm(
        nvm: Arc<Nvm>,
        config: DudeTmConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_with(nvm, config, |tid| {
            Htm::with_initial_clock(HtmConfig::default(), tid)
        })
    }
}
