//! A durable key-value store under a skewed YCSB-style workload (§5.4).
//!
//! Builds a B+-tree-indexed session store on DudeTM with cross-transaction
//! log combination and compression enabled, runs a Zipfian 50/50
//! read/update mix on several threads, and prints the NVM write traffic
//! saved by the Figure 3 optimizations.
//!
//! Run with: `cargo run --release --example kvstore`

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::PAddr;
use dude_workloads::driver::{load_workload, run_fixed_ops, RunConfig};
use dude_workloads::kv::BTreeKv;
use dude_workloads::ycsb::SessionStore;
use dudetm::{DudeTm, DudeTmConfig};

fn main() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(64 << 20)));
    let config = DudeTmConfig {
        max_threads: 8,
        ..DudeTmConfig::small(32 << 20)
    }
    // Group 100 consecutive transactions, combine their writes, compress.
    .with_grouping(100, true);
    // Surface configuration mistakes as a readable usage error (grouping,
    // for instance, requires an asynchronous pipeline) instead of a panic.
    if let Err(e) = config.try_validate() {
        eprintln!("kvstore: invalid configuration: {e}");
        std::process::exit(2);
    }
    let dude = DudeTm::create_stm(nvm, config);

    let store = SessionStore::new(
        BTreeKv::new(PAddr::new(64), 1 << 16),
        10_000, // records, as in the paper's Figure 3 setup
        0.99,   // Zipfian constant
        50,     // % updates
        "YCSB session store (B+-tree)",
    );

    println!("loading {} records...", store.records());
    load_workload(&dude, &store);

    println!("running 40k operations on 3 threads...");
    let stats = run_fixed_ops(
        &dude,
        &store,
        RunConfig {
            threads: 3,
            ..RunConfig::default()
        },
        40_000 / 3,
    );
    dude.quiesce();

    println!(
        "\n{}: {} committed, {:.0} TPS, {:.3} retries/txn",
        stats.workload,
        stats.committed,
        stats.throughput,
        stats.retry_rate()
    );
    let p = dude.pipeline_stats();
    println!(
        "log combination: {} entries in -> {} out ({:.1}% of NVM writes saved)",
        p.entries_logged,
        p.entries_after_combine,
        p.combine_savings() * 100.0
    );
    println!(
        "log compression: {} payload bytes -> {} stored ({:.1}% saved)",
        p.group_bytes_raw,
        p.group_bytes_stored,
        p.compression_savings() * 100.0
    );
    println!(
        "groups persisted: {}, transactions reproduced: {}",
        p.groups_persisted, p.txns_reproduced
    );
}
