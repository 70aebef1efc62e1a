//! Benchmarks and transactional data structures for the DudeTM
//! reproduction (§5.1).
//!
//! Everything here is written once against [`dude_txapi::Txn`] and runs
//! unchanged on every evaluated system — DudeTM in its three durability
//! modes, the volatile STM/HTM upper bounds, and the Mnemosyne-like and
//! NVML-like baselines.
//!
//! * [`hashtable`] — fixed-size open-addressing hash table (the HashTable
//!   micro-benchmark); supports static-transaction declaration so it also
//!   runs on the NVML-like baseline.
//! * [`btree`] — a B+-tree mapping `u64 → u64` (the B+-tree
//!   micro-benchmark and the index for the tree-based TPC-C/TATP/YCSB
//!   variants).
//! * [`tpcc`] — TPC-C New-Order transactions over either index.
//! * [`tatp`] — TATP Update-Location transactions over either index.
//! * [`ycsb`] — the YCSB session-store workload (Zipfian keys, 50/50
//!   read/update) used for Figure 3 and Figure 4.
//! * [`bank`] — the classic transfer micro-benchmark (paper Algorithm 1).
//! * [`driver`] — the measurement harness: thread fan-out, fixed-duration
//!   runs, abort accounting, and pipelined durable-latency sampling
//!   (§5.3's acknowledgement scheme).
//! * [`rng`] — deterministic RNG plus the Zipfian generator behind the
//!   skewed workloads.

#![deny(unsafe_code)]

pub mod bank;
pub mod btree;
pub mod driver;
pub mod hashtable;
pub mod kv;
pub mod micro;
pub mod rng;
pub mod tatp;
pub mod tpcc;
pub mod ycsb;

pub use driver::{run_fixed_ops, run_timed, LatencyMode, RunConfig, RunStats, Workload};
pub use kv::{BTreeKv, HashKv, KvIndex, KvKind};
