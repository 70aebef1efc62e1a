//! The pluggable TM engine behind the Perform step.
//!
//! The paper's central software-architecture claim is that the TM is an
//! *out-of-the-box, stand-alone component* (§1 contribution 3): DudeTM works
//! with TinySTM unchanged and with HTM after one minor hardware tweak. The
//! runtime encodes that claim in a trait: the Perform step only ever talks
//! to [`TmEngine`] / [`EngineThread`], and both [`dude_stm::Stm`] and
//! [`dude_htm::Htm`] implement them without modification to their crates.
//! Dispatch is static: [`crate::DtmThread`] hands its shadow view and redo
//! hooks to the engine's own transaction types, the same code path the
//! volatile baselines run.

use dude_htm::{Htm, HtmThread};
use dude_stm::{Stm, StmThread, TmAccess, TxHooks, WordMemory};
use dude_txapi::{TxResult, TxnOutcome};

/// A transactional-memory implementation usable by the Perform step.
pub trait TmEngine: Send + Sync {
    /// The engine's per-thread executor.
    type Thread<'a>: EngineThread
    where
        Self: 'a;

    /// Registers the calling thread with the TM.
    fn engine_thread(&self) -> Self::Thread<'_>;

    /// Current value of the TM's global commit clock (the ID of the most
    /// recent update transaction).
    fn clock_now(&self) -> u64;

    /// Engine name for benchmark tables.
    fn engine_name(&self) -> &'static str;
}

/// Per-thread transaction executor of a [`TmEngine`].
pub trait EngineThread {
    /// Runs `body` as one transaction over `mem`, reporting writes, commits
    /// and aborts through `hooks`, retrying internally on conflicts.
    fn run_txn<M: WordMemory + ?Sized, H: TxHooks, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        body: impl FnMut(&mut dyn TmAccess) -> TxResult<R>,
    ) -> TxnOutcome<R>;
}

impl TmEngine for Stm {
    type Thread<'a> = StmThread<'a>;

    fn engine_thread(&self) -> StmThread<'_> {
        self.register()
    }

    fn clock_now(&self) -> u64 {
        self.clock().now()
    }

    fn engine_name(&self) -> &'static str {
        "STM"
    }
}

impl EngineThread for StmThread<'_> {
    fn run_txn<M: WordMemory + ?Sized, H: TxHooks, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        mut body: impl FnMut(&mut dyn TmAccess) -> TxResult<R>,
    ) -> TxnOutcome<R> {
        self.run(mem, hooks, |tx| body(tx))
    }
}

impl TmEngine for Htm {
    type Thread<'a> = HtmThread<'a>;

    fn engine_thread(&self) -> HtmThread<'_> {
        self.register()
    }

    fn clock_now(&self) -> u64 {
        self.clock().now()
    }

    fn engine_name(&self) -> &'static str {
        "HTM"
    }
}

impl EngineThread for HtmThread<'_> {
    fn run_txn<M: WordMemory + ?Sized, H: TxHooks, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        mut body: impl FnMut(&mut dyn TmAccess) -> TxResult<R>,
    ) -> TxnOutcome<R> {
        self.run(mem, hooks, |tx| body(tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dude_stm::{NoHooks, StmConfig, VecMemory};

    fn exercise<E: TmEngine>(engine: &E) {
        let mem = VecMemory::new(1024);
        let mut th = engine.engine_thread();
        let mut hooks = NoHooks;
        let out = th.run_txn(&mem, &mut hooks, |tx| {
            let v = tx.tm_read(0)?;
            tx.tm_write(0, v + 1)
        });
        assert!(out.is_committed());
        assert_eq!(mem.load(0), 1);
        assert_eq!(engine.clock_now(), 1);
    }

    #[test]
    fn stm_engine_through_trait_object() {
        let stm = Stm::new(StmConfig::tiny());
        exercise(&stm);
        assert_eq!(stm.engine_name(), "STM");
    }

    #[test]
    fn htm_engine_through_trait_object() {
        let htm = Htm::new(dude_htm::HtmConfig::default());
        exercise(&htm);
        assert_eq!(htm.engine_name(), "HTM");
    }
}
