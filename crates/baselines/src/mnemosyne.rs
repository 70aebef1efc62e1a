//! A Mnemosyne-like redo-logging durable transaction system (§5.2.2).
//!
//! Mnemosyne runs a write-back STM directly on persistent memory: every
//! transactional write is buffered, every read of written data is
//! redirected through the write set (the address-mapping cost of §2.2), and
//! at commit the redo log is **synchronously** persisted before the
//! in-place updates are published. The Perform and Persist steps are fused —
//! exactly the coupling DudeTM removes — so commit latency always contains
//! a persist barrier.
//!
//! Log records reuse DudeTM's checksummed on-NVM format; when a thread's
//! log region fills, the thread fences its published in-place updates and
//! truncates the log (Mnemosyne's background log replay/truncation,
//! foregrounded for simplicity — the cost model is the same: one fence per
//! truncation window plus a flush per in-place write).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dude_nvm::{Nvm, Region};
use dude_stm::{HeapTxn, NoHooks, Stm, StmConfig, WordMemory};
use dude_txapi::{TxResult, Txn, TxnOutcome, TxnSystem, TxnThread};
use dudetm::log::{parse_record, serialize_commit};

use crate::BaselineConfig;

/// Status word offsets inside each per-thread log region.
const LOG_HEADER_WORDS: u64 = 1; // [0] = committed-record cursor (words)

/// NVM-backed memory with per-store cache-line flush: Mnemosyne's `CLFLUSH`
/// per log/in-place write (the flush is unfenced; the commit or truncation
/// fence orders it).
#[derive(Debug)]
struct FlushingNvmMemory {
    nvm: Arc<Nvm>,
    base: u64,
}

impl WordMemory for FlushingNvmMemory {
    #[inline]
    fn load(&self, addr: u64) -> u64 {
        self.nvm.read_word(self.base + addr)
    }

    #[inline]
    fn store(&self, addr: u64, val: u64) {
        self.nvm.write_word(self.base + addr, val);
        self.nvm.flush(self.base + addr, 8);
    }
}

/// The Mnemosyne-like system.
#[derive(Debug)]
pub struct Mnemosyne {
    nvm: Arc<Nvm>,
    stm: Stm,
    mem: FlushingNvmMemory,
    heap: Region,
    logs: Vec<Region>,
    next_slot: AtomicUsize,
    config: BaselineConfig,
}

impl Mnemosyne {
    /// Creates a fresh system on `nvm`.
    ///
    /// # Panics
    ///
    /// Panics if the device cannot hold the configured logs plus heap.
    pub fn create(nvm: Arc<Nvm>, config: BaselineConfig) -> Self {
        config.validate();
        let (logs, heap) = Self::layout(&nvm, &config);
        for log in &logs {
            nvm.write_word(log.start(), 0);
            nvm.persist(log.start(), 8);
        }
        Self::build(nvm, config, logs, heap)
    }

    /// Recovers after a crash: replays every committed record found in the
    /// logs onto the heap (idempotent — records hold absolute values), then
    /// truncates.
    pub fn recover(nvm: Arc<Nvm>, config: BaselineConfig) -> Self {
        config.validate();
        let (logs, heap) = Self::layout(&nvm, &config);
        // Collect committed records from every thread log, then replay them
        // in global commit-timestamp order (cross-thread writes to the same
        // address must resolve to the latest committed value).
        let mut records = Vec::new();
        for log in &logs {
            let committed_words = nvm.read_word(log.start());
            let mut off = LOG_HEADER_WORDS;
            while off < committed_words.min(log.len() / 8) {
                let mut words = vec![0u64; (committed_words - off) as usize];
                nvm.read_words(log.start() + off * 8, &mut words);
                match parse_record(&words) {
                    Some(rec) => {
                        off += rec.words as u64;
                        records.push(rec);
                    }
                    None => break,
                }
            }
        }
        records.sort_by_key(|r| r.first_tid);
        for rec in &records {
            for &(addr, val) in &rec.writes {
                nvm.write_word(heap.start() + addr, val);
                nvm.flush(heap.start() + addr, 8);
            }
        }
        nvm.fence();
        for log in &logs {
            nvm.write_word(log.start(), LOG_HEADER_WORDS);
            nvm.persist(log.start(), 8);
        }
        Self::build(nvm, config, logs, heap)
    }

    fn layout(nvm: &Nvm, config: &BaselineConfig) -> (Vec<Region>, Region) {
        let mut off = 0u64;
        let mut logs = Vec::new();
        for _ in 0..config.max_threads {
            logs.push(Region::new(off, config.log_bytes_per_thread));
            off += config.log_bytes_per_thread;
        }
        let heap = Region::new(off, config.heap_bytes);
        assert!(
            heap.end() <= nvm.size_bytes(),
            "device too small for Mnemosyne layout"
        );
        (logs, heap)
    }

    fn build(nvm: Arc<Nvm>, config: BaselineConfig, logs: Vec<Region>, heap: Region) -> Self {
        let mem = FlushingNvmMemory {
            nvm: Arc::clone(&nvm),
            base: heap.start(),
        };
        Mnemosyne {
            nvm,
            stm: Stm::new(StmConfig::default()),
            mem,
            heap,
            logs,
            next_slot: AtomicUsize::new(0),
            config,
        }
    }

    /// The underlying device.
    pub fn nvm(&self) -> &Arc<Nvm> {
        &self.nvm
    }

    /// The heap region.
    pub fn heap_region(&self) -> Region {
        self.heap
    }
}

/// Per-thread handle for [`Mnemosyne`].
#[derive(Debug)]
pub struct MnemosyneThread<'s> {
    sys: &'s Mnemosyne,
    thread: dude_stm::StmThread<'s>,
    log: Region,
    /// Log cursor, in words from the region start.
    cursor: u64,
    buf: Vec<u64>,
}

impl TxnSystem for Mnemosyne {
    type Thread<'a>
        = MnemosyneThread<'a>
    where
        Self: 'a;

    fn register_thread(&self) -> MnemosyneThread<'_> {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        assert!(slot < self.config.max_threads, "too many threads");
        MnemosyneThread {
            sys: self,
            thread: self.stm.register(),
            log: self.logs[slot],
            cursor: LOG_HEADER_WORDS,
            buf: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        "Mnemosyne"
    }

    fn heap_words(&self) -> u64 {
        self.config.heap_bytes / 8
    }
}

impl TxnThread for MnemosyneThread<'_> {
    fn run<T>(&mut self, body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<T>) -> TxnOutcome<T> {
        let heap_bytes = self.sys.config.heap_bytes;
        // Split-borrow dance: the STM thread and the log state are both
        // fields of self, used by different closures.
        let sys = self.sys;
        let log = self.log;
        let mut cursor = self.cursor;
        let buf = &mut self.buf;
        let out = self.thread.run_wb(
            &sys.mem,
            &mut NoHooks,
            |writes, tid| {
                // Synchronous redo-log persist before publication.
                serialize_commit(tid, writes, buf);
                let needed = buf.len() as u64;
                if cursor + needed + 1 > log.len() / 8 {
                    sys.nvm.fence();
                    cursor = LOG_HEADER_WORDS;
                    sys.nvm.write_word(log.start(), cursor);
                    sys.nvm.persist(log.start(), 8);
                }
                let off = log.start() + cursor * 8;
                sys.nvm.write_words(off, buf);
                sys.nvm.flush(off, needed * 8);
                cursor += needed;
                sys.nvm.write_word(log.start(), cursor);
                sys.nvm.flush(log.start(), 8);
                sys.nvm.fence();
            },
            |tx| body(&mut HeapTxn::new(tx, heap_bytes)),
        );
        self.cursor = cursor;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dude_nvm::NvmConfig;
    use dude_txapi::PAddr;

    fn setup(heap_bytes: u64) -> (Arc<Nvm>, BaselineConfig) {
        let config = BaselineConfig {
            heap_bytes,
            max_threads: 5,
            log_bytes_per_thread: 8192,
        };
        let bytes = heap_bytes + 5 * 8192;
        (Arc::new(Nvm::new(NvmConfig::for_testing(bytes))), config)
    }

    #[test]
    fn commits_reach_nvm_in_place() {
        let (nvm, config) = setup(1 << 16);
        let sys = Mnemosyne::create(Arc::clone(&nvm), config);
        let mut t = sys.register_thread();
        t.run(&mut |tx| tx.write_word(PAddr::new(0), 42))
            .expect_committed();
        assert_eq!(nvm.read_word(sys.heap_region().start()), 42);
    }

    #[test]
    fn reads_see_own_writes() {
        let (nvm, config) = setup(1 << 16);
        let sys = Mnemosyne::create(nvm, config);
        let mut t = sys.register_thread();
        let v = t
            .run(&mut |tx| {
                tx.write_word(PAddr::new(8), 5)?;
                tx.read_word(PAddr::new(8))
            })
            .expect_committed();
        assert_eq!(v, 5);
    }

    #[test]
    fn durable_at_commit_under_crash() {
        let (nvm, config) = setup(1 << 16);
        {
            let sys = Mnemosyne::create(Arc::clone(&nvm), config);
            let mut t = sys.register_thread();
            for i in 0..20u64 {
                t.run(&mut |tx| {
                    tx.write_word(PAddr::new(i * 8), i + 1)?;
                    tx.write_word(PAddr::new((i + 100) * 8), i + 1)
                })
                .expect_committed();
            }
        }
        nvm.crash();
        let sys = Mnemosyne::recover(Arc::clone(&nvm), config);
        let heap = sys.heap_region();
        for i in 0..20u64 {
            assert_eq!(nvm.read_word(heap.start() + i * 8), i + 1);
            assert_eq!(nvm.read_word(heap.start() + (i + 100) * 8), i + 1);
        }
    }

    #[test]
    fn log_wraps_via_truncation() {
        let (nvm, config) = setup(1 << 16);
        let sys = Mnemosyne::create(Arc::clone(&nvm), config);
        let mut t = sys.register_thread();
        // Each record ~7 words; 1024-word log → forces several truncations.
        for i in 0..500u64 {
            t.run(&mut |tx| tx.write_word(PAddr::new((i % 32) * 8), i))
                .expect_committed();
        }
        for s in 0..32u64 {
            let expect = (0..500u64).filter(|i| i % 32 == s).max().unwrap();
            let v = t
                .run(&mut |tx| tx.read_word(PAddr::new(s * 8)))
                .expect_committed();
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn concurrent_increments_exact() {
        let (nvm, config) = setup(1 << 16);
        let sys = std::sync::Arc::new(Mnemosyne::create(nvm, config));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sys = std::sync::Arc::clone(&sys);
                s.spawn(move || {
                    let mut t = sys.register_thread();
                    for _ in 0..200 {
                        t.run(&mut |tx| {
                            let v = tx.read_word(PAddr::new(0))?;
                            tx.write_word(PAddr::new(0), v + 1)
                        })
                        .expect_committed();
                    }
                });
            }
        });
        let mut t = sys.register_thread();
        let v = t
            .run(&mut |tx| tx.read_word(PAddr::new(0)))
            .expect_committed();
        assert_eq!(v, 800);
    }
}
