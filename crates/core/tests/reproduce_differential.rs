//! Differential replay oracle for the Reproduce step.
//!
//! The reference is independent of the pipeline: the commit history the
//! runtime records ([`DudeTm::attach_history`]) — every transaction's
//! write set in program order, rewrites included — replayed in
//! transaction-ID order onto a zeroed image. After a full drain the
//! persistent heap must equal it word for word, whatever combined, logged,
//! grouped, compressed and applied the writes in between.
//!
//! Each workload runs on a single Perform thread with a fixed seed. Small
//! log rings and a short checkpoint cadence force span recycling mid-run,
//! so the cadence checkpoint path is exercised, not just the drain.
//!
//! `DUDE_DIFF_SEEDS` (comma-separated u64s) adds extra seeds — CI runs
//! three more on top of the built-in ones.

use std::sync::Arc;
use std::time::Duration;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{CommitHistory, DudeTm, DudeTmConfig, DurabilityMode};

const HEAP_BYTES: u64 = 1 << 16;
const HEAP_WORDS: u64 = HEAP_BYTES / 8;
/// A run takes milliseconds; one still going after this is hung.
const HANG: Duration = Duration::from_secs(120);

fn config() -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 2,
        // Small rings + short cadence: recycling must happen mid-run.
        plog_bytes_per_thread: 4096,
        checkpoint_every: 4,
        ..DudeTmConfig::small(HEAP_BYTES)
    }
    .with_durability(DurabilityMode::Async { buffer_txns: 64 })
}

/// Grouped-Persist config: groups of 8 taken by `flush_workers` Persist
/// workers from one shared input, each worker owning one of the
/// `max_threads` log rings.
fn grouped_config(flush_workers: usize, compress: bool) -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 4,
        plog_bytes_per_thread: 4096,
        checkpoint_every: 4,
        ..DudeTmConfig::small(HEAP_BYTES)
    }
    .with_durability(DurabilityMode::Async { buffer_txns: 64 })
    .with_grouping(8, compress)
    .with_flush_workers(flush_workers)
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 11
}

type Runner<'a> = dudetm::DtmThread<'a, dude_stm::Stm>;

/// Bank: random transfers between 64 accounts — dense, conflicting
/// addresses, money conserved.
fn bank(t: &mut Runner, seed: u64) {
    const ACCOUNTS: u64 = 64;
    t.run(&mut |tx| {
        for i in 0..ACCOUNTS {
            tx.write_word(PAddr::from_word_index(i), 1000)?;
        }
        Ok(())
    })
    .expect_committed();
    let mut x = seed;
    for _ in 0..200 {
        let a = lcg(&mut x) % ACCOUNTS;
        let b = lcg(&mut x) % ACCOUNTS;
        if a == b {
            continue;
        }
        t.run(&mut |tx| {
            let va = tx.read_word(PAddr::from_word_index(a))?;
            tx.write_word(PAddr::from_word_index(a), va.wrapping_sub(3))?;
            let vb = tx.read_word(PAddr::from_word_index(b))?;
            tx.write_word(PAddr::from_word_index(b), vb.wrapping_add(3))
        })
        .expect_committed();
    }
}

/// KV: hashed put/overwrite/delete over a slot table — scattered
/// addresses, repeated overwrites of hot keys.
fn kv(t: &mut Runner, seed: u64) {
    const SLOTS: u64 = 1024;
    let slot =
        |k: u64| PAddr::from_word_index(64 + (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) % SLOTS) * 2);
    let mut x = seed;
    for op in 0..250 {
        let k = lcg(&mut x) % 96; // hot key space: plenty of overwrites
        let v = lcg(&mut x);
        let s = slot(k);
        t.run(&mut |tx| {
            if op % 7 == 6 {
                // Delete: clear slot and tombstone.
                tx.write_word(s, 0)?;
                tx.write_word(PAddr::new(s.offset() + 8), u64::MAX)
            } else {
                tx.write_word(s, k + 1)?;
                tx.write_word(PAddr::new(s.offset() + 8), v)
            }
        })
        .expect_committed();
    }
}

/// BTree-like: fixed-arity nodes of 16 words; inserts touch a root
/// counter, an interior node, and a leaf — multi-word structural writes
/// spanning several cache lines per transaction.
fn btree_like(t: &mut Runner, seed: u64) {
    const NODE_WORDS: u64 = 16;
    const NODES: u64 = 128;
    let root = PAddr::from_word_index(0);
    let node_word = |n: u64, w: u64| PAddr::from_word_index(8 + n * NODE_WORDS + w);
    let mut x = seed;
    for _ in 0..200 {
        let key = lcg(&mut x) % 4096;
        let interior = key % 16;
        let leaf = 16 + key % (NODES - 16);
        t.run(&mut |tx| {
            let count = tx.read_word(root)?;
            tx.write_word(root, count + 1)?;
            // Interior: bump occupancy, record the routed key.
            let occ = tx.read_word(node_word(interior, 0))?;
            tx.write_word(node_word(interior, 0), occ + 1)?;
            tx.write_word(node_word(interior, 1 + key % (NODE_WORDS - 1)), key)?;
            // Leaf: key/value pair plus a version word.
            let slot = 1 + key % ((NODE_WORDS - 1) / 2);
            tx.write_word(node_word(leaf, slot * 2 - 1), key)?;
            tx.write_word(node_word(leaf, slot * 2), count)?;
            tx.write_word(node_word(leaf, 0), count)
        })
        .expect_committed();
    }
}

/// Rewriter: every transaction stores ten values into six words of a
/// 256-word table — four of the ten are overwritten before it commits —
/// so 40 % of each write-set is combined away before it is logged, and
/// what Reproduce applies is not what the program stored, only what it
/// left.
fn rewriter(t: &mut Runner, seed: u64) {
    const TABLE_WORDS: u64 = 256;
    let mut x = seed;
    for op in 0..200u64 {
        let base = lcg(&mut x) % TABLE_WORDS;
        // Six distinct words, a cache line and a bit apart.
        let word = |i: u64| PAddr::from_word_index((base + i * 9) % TABLE_WORDS);
        let v = lcg(&mut x);
        t.run(&mut |tx| {
            for i in 0..6 {
                tx.write_word(word(i), !v ^ i)?; // scratch value
            }
            for i in [4, 1, 3, 0] {
                tx.write_word(word(i), v.wrapping_add(op * 8 + i))?;
            }
            Ok(())
        })
        .expect_committed();
    }
}

/// Runs `workload` to a clean shutdown under `cfg` and checks the drained
/// persistent heap against the serial replay of the recorded history: its
/// commits' writes, in TID order, onto a zeroed heap.
fn assert_matches_history(
    cfg: DudeTmConfig,
    name: &str,
    workload: fn(&mut Runner, u64),
    seed: u64,
) {
    let _watchdog = Watchdog::arm(format!("{name} seed {seed:#x} config {cfg:?}"), HANG);
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(1 << 18)));
    let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg);
    let history = Arc::new(CommitHistory::new(1 << 12));
    dude.attach_history(Arc::clone(&history));
    let heap = dude.heap_region();
    {
        let mut t = dude.register_thread();
        workload(&mut t, seed);
    }
    // Drop drains the pipeline and takes the final checkpoint.
    drop(dude);
    let drained: Vec<u64> = (0..HEAP_WORDS)
        .map(|w| nvm.read_word(heap.start() + w * 8))
        .collect();
    assert_eq!(history.dropped(), 0, "history ring too small");
    let mut serial = vec![0u64; HEAP_WORDS as usize];
    for entry in history.entries().iter().filter(|e| !e.aborted) {
        for &(addr, val) in &entry.writes {
            serial[(addr / 8) as usize] = val;
        }
    }
    assert!(
        serial.iter().any(|&w| w != 0),
        "{name}: workload left no trace in the history"
    );
    assert!(
        drained == serial,
        "{name} seed {seed:#x}: the drained heap diverged from the serial history \
         at word {:?}",
        (0..drained.len()).find(|&w| drained[w] != serial[w])
    );
}

fn extra_seeds() -> Vec<u64> {
    std::env::var("DUDE_DIFF_SEEDS")
        .map(|s| {
            s.split(',')
                .filter(|t| !t.trim().is_empty())
                .map(|t| t.trim().parse().expect("DUDE_DIFF_SEEDS: u64 list"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn bank_images_match_the_serial_history() {
    assert_matches_history(config(), "bank", bank, 0xB01D_FACE);
    for seed in extra_seeds() {
        assert_matches_history(config(), "bank", bank, seed);
    }
}

#[test]
fn kv_images_match_the_serial_history() {
    assert_matches_history(config(), "kv", kv, 0x000F_F1CE);
    for seed in extra_seeds() {
        assert_matches_history(config(), "kv", kv, seed);
    }
}

#[test]
fn btree_images_match_the_serial_history() {
    assert_matches_history(config(), "btree", btree_like, 0x5EED_BEEF);
    for seed in extra_seeds() {
        assert_matches_history(config(), "btree", btree_like, seed);
    }
}

#[test]
fn rewriter_images_match_the_serial_history() {
    assert_matches_history(config(), "rewriter", rewriter, 0x0DD_C0FFEE);
    for seed in extra_seeds() {
        assert_matches_history(config(), "rewriter", rewriter, seed);
    }
    // The workload is what it claims: at least 30 % of the writes that
    // reached Persist were rewrites of the same transaction.
    let _watchdog = Watchdog::arm("rewriter seed 0xddc0ffee", HANG);
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(1 << 18)));
    let mut dude = DudeTm::create_stm(Arc::clone(&nvm), config());
    rewriter(&mut dude.register_thread(), 0x0DD_C0FFEE);
    dude.shutdown();
    let stats = dude.pipeline_stats();
    assert_eq!(stats.entries_logged, 2000);
    assert!(
        stats.combine_savings() >= 0.30,
        "only {:.0} % rewrites",
        stats.combine_savings() * 100.0
    );
}

/// The same oracle over parallel and grouped Persist: whether one Persist
/// worker flushes everything or 2 or 4 publish out of order, ungrouped or
/// grouped — by workers or by a `Sync` committer — combined and compressed,
/// the drained heap is the serial replay of the history. Reproduce replays in dense ID order whatever
/// order batches arrive in, so no flush schedule can leak into the heap.
#[test]
fn images_identical_across_persist_worker_counts() {
    for workload in [
        ("bank", bank as fn(&mut Runner, u64), 0xB01D_FACEu64),
        ("kv", kv, 0x000F_F1CE),
        ("rewriter", rewriter, 0x0DD_C0FFEE),
    ] {
        let (name, f, seed) = workload;
        assert_matches_history(config().with_flush_workers(2), name, f, seed);
        for compress in [false, true] {
            for fw in [1usize, 2, 4] {
                let what = format!("{name} grouped fw={fw} lz={compress}");
                assert_matches_history(grouped_config(fw, compress), &what, f, seed);
            }
            let sync = grouped_config(1, compress).with_durability(DurabilityMode::Sync);
            let what = format!("{name} grouped sync lz={compress}");
            assert_matches_history(sync, &what, f, seed);
        }
    }
}

/// The oracle also holds through a crashless restart: recover the drained
/// image and make sure the recovered runtime agrees on the reproduced
/// history.
#[test]
fn clean_drain_is_recoverable() {
    let _watchdog = Watchdog::arm("bank seed 0xb01dface", HANG);
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(1 << 18)));
    let dude = DudeTm::create_stm(Arc::clone(&nvm), config());
    {
        let mut t = dude.register_thread();
        bank(&mut t, 0xB01D_FACE);
    }
    let committed = dude.stats_snapshot().committed;
    drop(dude);
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config()).expect("recovery");
    assert_eq!(
        report.last_tid, committed,
        "clean shutdown checkpointed everything"
    );
    assert_eq!(report.replayed, 0);
    drop(dude2);
}
