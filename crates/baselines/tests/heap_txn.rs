//! The adapter contract: every TM-backed system hands its transaction
//! bodies the one heap-checked `dude_stm::HeapTxn`, so a misaligned and a
//! beyond-heap access panic with the same texts through DudeTM,
//! Volatile-STM, Volatile-HTM and Mnemosyne.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dude_baselines::{BaselineConfig, Mnemosyne, VolatileHtm, VolatileStm};
use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::{DudeTm, DudeTmConfig};

const HEAP: u64 = 1 << 16;

/// The message `sys` panics with when a transaction reads (or writes) `addr`.
fn panic_text<S: TxnSystem>(sys: &S, addr: PAddr, write: bool) -> String {
    let mut t = sys.register_thread();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        t.run(&mut |tx| {
            if write {
                tx.write_word(addr, 1)
            } else {
                tx.read_word(addr).map(drop)
            }
        })
    }))
    .expect_err("the access must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .expect("a formatted panic message")
}

fn check_contract<S: TxnSystem>(sys: &S) {
    assert_eq!(sys.heap_words() * 8, HEAP, "{}", sys.name());
    for write in [false, true] {
        assert_eq!(
            panic_text(sys, PAddr::new(12), write),
            "transactional access must be word-aligned: p0xc",
            "{} (write: {write})",
            sys.name()
        );
        assert_eq!(
            panic_text(sys, PAddr::new(HEAP), write),
            "address p0x10000 beyond heap of 65536 bytes",
            "{} (write: {write})",
            sys.name()
        );
    }
}

#[test]
fn every_tm_system_checks_accesses_alike() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
    check_contract(&DudeTm::create_stm(nvm, DudeTmConfig::small(HEAP)));
    check_contract(&VolatileStm::new(HEAP));
    check_contract(&VolatileHtm::new(HEAP));
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
    check_contract(&Mnemosyne::create(nvm, BaselineConfig::small(HEAP)));
}
