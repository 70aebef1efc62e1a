//! The NVM byte budget of a transaction, as an exact count of device word
//! stores — the one metric the benchmark host resolves to 1 %
//! (`nvm_bytes_per_tx`), pinned where a regression fails tier-1.
//!
//! Every stored word is accounted for: a commit record is `2 + 2n` log
//! words for `n` *distinct* written words (format v2, a commit combined as
//! a group of one), Reproduce stores each distinct word once, and each
//! checkpoint is one word. Nothing else — no scheduling or channel depth —
//! may feed a stored word, so the totals below are equalities, not bounds.
//! The runtime is shut down before the device counter is read, so no
//! checkpoint can land between reading the counter and reading the
//! checkpoint count.

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig, TimingConfig};
use dude_txapi::{PAddr, TxResult, Txn, TxnSystem, TxnThread};
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode};

const ASYNC: DurabilityMode = DurabilityMode::Async { buffer_txns: 1024 };

fn config(mode: DurabilityMode) -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 1,
        // 6 400 four-word records fill a fifth of the ring: it never
        // wraps, so no skip marker is written.
        plog_bytes_per_thread: 1 << 20,
        checkpoint_every: 64,
        ..DudeTmConfig::small(1 << 16)
    }
    .with_durability(mode)
}

/// Runs `txs` transactions of `body(tx, i)` on one Perform thread to a
/// clean shutdown. Returns the device words written since `create_stm`
/// returned — formatting excluded — and the checkpoints among them.
fn words_written(
    cfg: DudeTmConfig,
    txs: u64,
    body: fn(&mut dyn Txn, u64) -> TxResult<()>,
) -> (u64, u64) {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_benchmark(
        4 << 20,
        TimingConfig::disabled(),
    )));
    let mut dude = DudeTm::create_stm(Arc::clone(&nvm), cfg);
    let before = nvm.stats();
    {
        let mut t = dude.register_thread();
        for i in 0..txs {
            t.run(&mut |tx| body(tx, i)).expect_committed();
        }
    }
    dude.shutdown();
    let stats = dude.pipeline_stats();
    assert_eq!(stats.commits, txs);
    (nvm.stats().delta(&before).words_written, stats.checkpoints)
}

fn one_write(tx: &mut dyn Txn, i: u64) -> TxResult<()> {
    tx.write_word(PAddr::from_word_index(i % 512), i + 1)
}

fn a_b_a(tx: &mut dyn Txn, i: u64) -> TxResult<()> {
    let (a, b) = (PAddr::from_word_index(8), PAddr::from_word_index(64));
    tx.write_word(a, 1)?;
    tx.write_word(b, 2)?;
    tx.write_word(a, 3 + i)
}

#[test]
fn one_write_transaction_costs_five_words() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 6_400, one_write);
        assert!(checkpoints >= 6_400 / 64, "{mode:?}: {checkpoints}");
        assert_eq!(
            words,
            6_400 * (4 + 1) + checkpoints,
            "{mode:?}: 4 log words + 1 heap word per tx, 1 word per checkpoint"
        );
    }
}

#[test]
fn a_rewritten_word_is_logged_and_applied_once() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 64, a_b_a);
        assert_eq!(
            words,
            64 * (2 + 2 * 2 + 2) + checkpoints,
            "{mode:?}: A, B, A is a two-write record and two heap words"
        );
    }
}

#[test]
fn grouping_never_costs_more_than_one_record_per_commit() {
    let (ungrouped, _) = words_written(config(ASYNC), 6_400, one_write);
    let (grouped, _) = words_written(config(ASYNC).with_grouping(8, false), 6_400, one_write);
    assert!(
        grouped <= ungrouped,
        "grouped {grouped} words > ungrouped {ungrouped}"
    );
}
