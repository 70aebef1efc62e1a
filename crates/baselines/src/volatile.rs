//! Volatile TM upper bounds (no durability): "Volatile-STM" and
//! "Volatile-HTM" in Figure 2 and Table 4.

use dude_htm::{Htm, HtmConfig};
use dude_stm::{HeapTxn, NoHooks, Stm, StmConfig, VecMemory};
use dude_txapi::{TxResult, Txn, TxnOutcome, TxnSystem, TxnThread};

/// The plain TinySTM-on-DRAM system: DudeTM's theoretical upper bound.
#[derive(Debug)]
pub struct VolatileStm {
    stm: Stm,
    mem: VecMemory,
}

impl VolatileStm {
    /// Creates a volatile STM system with a zeroed heap of `heap_bytes`.
    pub fn new(heap_bytes: u64) -> Self {
        VolatileStm {
            stm: Stm::new(StmConfig::default()),
            mem: VecMemory::new(heap_bytes),
        }
    }

    /// The underlying STM (for statistics).
    pub fn stm(&self) -> &Stm {
        &self.stm
    }
}

/// Per-thread handle for [`VolatileStm`].
#[derive(Debug)]
pub struct VolatileStmThread<'s> {
    thread: dude_stm::StmThread<'s>,
    mem: &'s VecMemory,
}

impl TxnSystem for VolatileStm {
    type Thread<'a>
        = VolatileStmThread<'a>
    where
        Self: 'a;

    fn register_thread(&self) -> VolatileStmThread<'_> {
        VolatileStmThread {
            thread: self.stm.register(),
            mem: &self.mem,
        }
    }

    fn name(&self) -> &'static str {
        "Volatile-STM"
    }

    fn heap_words(&self) -> u64 {
        self.mem.size_bytes() / 8
    }
}

impl TxnThread for VolatileStmThread<'_> {
    fn run<T>(&mut self, body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<T>) -> TxnOutcome<T> {
        let heap_bytes = self.mem.size_bytes();
        self.thread.run(self.mem, &mut NoHooks, |tx| {
            body(&mut HeapTxn::new(tx, heap_bytes))
        })
    }
}

/// The emulated-HTM-on-DRAM system ("Volatile-HTM", Table 4).
#[derive(Debug)]
pub struct VolatileHtm {
    htm: Htm,
    mem: VecMemory,
}

impl VolatileHtm {
    /// Creates a volatile HTM system with a zeroed heap of `heap_bytes`.
    pub fn new(heap_bytes: u64) -> Self {
        VolatileHtm {
            htm: Htm::new(HtmConfig::default()),
            mem: VecMemory::new(heap_bytes),
        }
    }

    /// The underlying HTM (for statistics).
    pub fn htm(&self) -> &Htm {
        &self.htm
    }
}

/// Per-thread handle for [`VolatileHtm`].
#[derive(Debug)]
pub struct VolatileHtmThread<'s> {
    thread: dude_htm::HtmThread<'s>,
    mem: &'s VecMemory,
}

impl TxnSystem for VolatileHtm {
    type Thread<'a>
        = VolatileHtmThread<'a>
    where
        Self: 'a;

    fn register_thread(&self) -> VolatileHtmThread<'_> {
        VolatileHtmThread {
            thread: self.htm.register(),
            mem: &self.mem,
        }
    }

    fn name(&self) -> &'static str {
        "Volatile-HTM"
    }

    fn heap_words(&self) -> u64 {
        self.mem.size_bytes() / 8
    }
}

impl TxnThread for VolatileHtmThread<'_> {
    fn run<T>(&mut self, body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<T>) -> TxnOutcome<T> {
        let heap_bytes = self.mem.size_bytes();
        self.thread.run(self.mem, &mut NoHooks, |tx| {
            body(&mut HeapTxn::new(tx, heap_bytes))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dude_txapi::PAddr;

    fn increment_loop<S: TxnSystem>(sys: &S, n: u64) {
        let mut t = sys.register_thread();
        for _ in 0..n {
            t.run(&mut |tx| {
                let v = tx.read_word(PAddr::new(0))?;
                tx.write_word(PAddr::new(0), v + 1)
            })
            .expect_committed();
        }
        let v = t
            .run(&mut |tx| tx.read_word(PAddr::new(0)))
            .expect_committed();
        assert_eq!(v, n);
    }

    #[test]
    fn volatile_stm_counts() {
        let sys = VolatileStm::new(4096);
        increment_loop(&sys, 100);
        assert_eq!(sys.name(), "Volatile-STM");
        assert_eq!(sys.heap_words(), 512);
    }

    #[test]
    fn volatile_htm_counts() {
        let sys = VolatileHtm::new(4096);
        increment_loop(&sys, 100);
        assert_eq!(sys.name(), "Volatile-HTM");
    }

    #[test]
    fn wait_durable_is_noop() {
        let sys = VolatileStm::new(4096);
        let mut t = sys.register_thread();
        let out = t.run(&mut |tx| tx.write_word(PAddr::new(8), 1));
        let tid = out.info().unwrap().tid.unwrap();
        t.wait_durable(tid); // returns immediately
        assert_eq!(t.durable_watermark(), u64::MAX);
    }
}
