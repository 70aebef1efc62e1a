//! Umbrella crate for the DudeTM reproduction.
//!
//! This workspace reproduces *"DudeTM: Building Durable Transactions with
//! Decoupling for Persistent Memory"* (Liu et al., ASPLOS 2017) as a set of
//! Rust crates; this root crate re-exports the pieces and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! Start with [`dudetm`] (the decoupled runtime), then:
//!
//! * [`dude_nvm`] — the emulated persistent-memory device,
//! * [`dude_stm`] / [`dude_htm`] — the TM engines,
//! * [`dude_baselines`] — Mnemosyne-like / NVML-like comparison systems,
//! * [`dude_workloads`] — the paper's benchmarks,
//! * [`dude_txapi`] — the uniform transaction API they all share.
//!
//! # Quickstart
//!
//! ```
//! use dude_nvm::{Nvm, NvmConfig};
//! use dude_txapi::{PAddr, TxnSystem, TxnThread};
//! use dudetm::{DudeTm, DudeTmConfig};
//! use std::sync::Arc;
//!
//! let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
//! let dude = DudeTm::create_stm(Arc::clone(&nvm), DudeTmConfig::small(4 << 20));
//! let mut thread = dude.register_thread();
//! let out = thread.run(&mut |tx| tx.write_word(PAddr::new(64), 7));
//! thread.wait_durable(out.info().unwrap().tid.unwrap());
//! ```

#![deny(unsafe_code)]

pub use dude_baselines as baselines;
pub use dude_compress as compress;
pub use dude_htm as htm;
pub use dude_nvm as nvm;
pub use dude_stm as stm;
pub use dude_txapi as txapi;
pub use dude_workloads as workloads;
pub use dudetm as core;
