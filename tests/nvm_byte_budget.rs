//! The NVM byte budget of a transaction, as an exact count of device word
//! stores — the one metric the benchmark host resolves to 1 %
//! (`nvm_bytes_per_tx`), pinned where a regression fails tier-1.
//!
//! Every stored word is accounted for: a commit record is `2 + ⌈p/8⌉` log
//! words for `p` payload bytes (format v6, a commit combined as a group of
//! one and grouped by line: a header and a TID, then per line a mask byte,
//! its `Δline` as a varint — one byte for the lines here — a 4-bit count
//! per value, two to a byte, and each value's significant bytes), a frame
//! of the `k` records one Persist sweep takes from a ring `2 + ⌈q/8⌉` for
//! their `q` payload and prefix bytes, a group record `3 + ⌈p/8⌉` for the
//! distinct words of its transactions, Reproduce stores each distinct word
//! once per run — the TIDs up to the next multiple of `checkpoint_every`,
//! or up to a `quiesce` that cuts the run short — and each checkpoint is
//! one word. How many records a sweep finds is scheduling; so the runtime
//! tests below commit one transaction per sweep (`Sync`, or an
//! asynchronous commit that waits to be durable), frames are pinned as the
//! sweep serializes them, and nothing else may feed a stored word: the
//! totals are equalities, not bounds.
//! The runtime is shut down before the device counter is read, so no
//! checkpoint can land between reading the counter and reading the
//! checkpoint count.

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig, Region, TimingConfig};
use dude_txapi::{PAddr, TxResult, Txn, TxnSystem, TxnThread};
use dudetm::log::{serialize_frame, LogRecord};
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode, PlogRing};

const ASYNC: DurabilityMode = DurabilityMode::Async { buffer_txns: 1024 };

fn config(mode: DurabilityMode) -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 1,
        // 6 400 records of at most four words fill a fifth of the ring: it
        // never wraps, so no skip marker is written.
        plog_bytes_per_thread: 1 << 20,
        checkpoint_every: 64,
        ..DudeTmConfig::small(1 << 16)
    }
    .with_durability(mode)
}

/// Runs `txs` transactions of `body(tx, i)` on one Perform thread to a
/// clean shutdown, quiescing once after the first `cut` of them if given.
/// Returns the device words written since `create_stm` returned —
/// formatting excluded — and the checkpoints among them.
///
/// Ungrouped, each asynchronous commit waits until it is durable —
/// polling, so that no waiter's demand cuts a Reproduce run — and so has a
/// Persist sweep, and a frame, of its own, as a `Sync` commit does.
fn words_written(
    cfg: DudeTmConfig,
    txs: u64,
    cut: Option<u64>,
    body: fn(&mut dyn Txn, u64) -> TxResult<()>,
) -> (u64, u64) {
    // Grouped, the grouped input cuts groups of `persist_group` records
    // whatever the sweeps, and only a waiter would cut a partial one.
    let (words, stats) = run(cfg, txs, cut, cfg.persist_group == 1, body);
    (words, stats.checkpoints)
}

/// [`words_written`], each asynchronous commit waiting to be durable iff
/// `one_per_sweep`; returns the words and the pipeline's counters.
fn run(
    cfg: DudeTmConfig,
    txs: u64,
    cut: Option<u64>,
    one_per_sweep: bool,
    body: fn(&mut dyn Txn, u64) -> TxResult<()>,
) -> (u64, dudetm::PipelineStatsSnapshot) {
    let nvm = device();
    let mut dude = DudeTm::create_stm(Arc::clone(&nvm), cfg);
    let before = nvm.stats();
    {
        let mut t = dude.register_thread();
        for i in 0..txs {
            let out = t.run(&mut |tx| body(tx, i));
            let tid = out.info().expect("committed").tid.expect("an update");
            while one_per_sweep && dude.durable_id() < tid {
                std::thread::yield_now();
            }
            if cut == Some(i + 1) {
                dude.quiesce();
                assert_eq!(dude.reproduced_id(), i + 1, "the quiesce applies the run");
                let checkpoints = dude.pipeline_stats().checkpoints;
                assert_eq!(checkpoints, (i + 1) / 64, "a cut takes no checkpoint");
            }
        }
    }
    dude.shutdown();
    let stats = dude.pipeline_stats();
    assert_eq!(stats.commits, txs);
    (nvm.stats().delta(&before).words_written, stats)
}

fn device() -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_benchmark(
        4 << 20,
        TimingConfig::disabled(),
    )))
}

fn one_write(tx: &mut dyn Txn, i: u64) -> TxResult<()> {
    tx.write_word(PAddr::from_word_index(i % 512), i + 1)
}

/// [`one_write`] with a value whose eight bytes are all significant, as a
/// TATP update's is.
fn one_wide_write(tx: &mut dyn Txn, i: u64) -> TxResult<()> {
    tx.write_word(PAddr::from_word_index(i % 512), u64::MAX - i)
}

/// The eight words of one row (one cache line), last word first.
fn one_row(tx: &mut dyn Txn, i: u64) -> TxResult<()> {
    let row = i % 64 * 8;
    (0..8)
        .rev()
        .try_for_each(|w| tx.write_word(PAddr::from_word_index(row + w), i + w))
}

fn a_b_a(tx: &mut dyn Txn, i: u64) -> TxResult<()> {
    let (a, b) = (PAddr::from_word_index(8), PAddr::from_word_index(64));
    tx.write_word(a, 1)?;
    tx.write_word(b, 2)?;
    tx.write_word(a, 3 + i)
}

/// A value of 1–2 significant bytes (`i + 1` ≤ 6 400) on line 0–63: mask,
/// `Δline`, count and value are 4–5 payload bytes, so 2 + 1 log words and
/// the heap word.
#[test]
fn a_narrow_one_write_transaction_costs_four_words() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 6_400, None, one_write);
        assert!(checkpoints >= 6_400 / 64, "{mode:?}: {checkpoints}");
        assert_eq!(
            words,
            6_400 * (3 + 1) + checkpoints,
            "{mode:?}: 3 log words + 1 heap word per tx, 1 word per checkpoint"
        );
    }
}

/// An 8-significant-byte value — the shape of a TATP update — is 1 + 1 +
/// 1 + 8 = 11 payload bytes: 2 + 2 log words and the heap word, as in v4,
/// when a sweep stages the commit alone — always, under `Sync`.
#[test]
fn one_write_transaction_costs_five_words() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 6_400, None, one_wide_write);
        assert!(checkpoints >= 6_400 / 64, "{mode:?}: {checkpoints}");
        assert_eq!(
            words,
            6_400 * (4 + 1) + checkpoints,
            "{mode:?}: 4 log words + 1 heap word per tx, 1 word per checkpoint"
        );
    }
}

/// TIDs 1..=64 are one run: A, B, A is a two-write record per
/// transaction — lines 1 and 8, one 4-byte group each (`3 + i` and 2
/// take a byte), 2 + 1 words — and A and B reach the heap once for all 64
/// of them.
#[test]
fn a_rewritten_word_is_logged_and_applied_once() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 64, None, a_b_a);
        assert_eq!(
            checkpoints, 2,
            "{mode:?}: the cadence's at TID 64, the drain's"
        );
        assert_eq!(
            words,
            64 * (2 + 1) + 2 + checkpoints,
            "{mode:?}: 64 two-line records, two heap words, the checkpoints"
        );
    }
}

/// An 8-word row is one line group: a mask byte, `Δline`, 4 count bytes
/// and eight one-byte values (seven for TID 1, whose first value is 0) are
/// 13–14 payload bytes, 2 + 2 log words per commit, where v4 logged
/// 2 + 1 + 8 = 11 and v2 2 + 2 × 8 = 18. TIDs 1..=64 are one run over the
/// 64 rows, so each of the 512 words reaches the heap once.
#[test]
fn an_eight_word_row_is_one_line_group() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 64, None, one_row);
        assert_eq!(
            checkpoints, 2,
            "{mode:?}: the cadence's at TID 64, the drain's"
        );
        assert_eq!(
            words,
            64 * (2 + 2) + 64 * 8 + checkpoints,
            "{mode:?}: 64 one-line records, 512 heap words, the checkpoints"
        );
    }
}

/// A `quiesce` after 30 transactions cuts the run there, and the next run
/// still ends at TID 64, not at 30 + 64: 90 transactions are the runs
/// 1..=30, 31..=64 and the drained 65..=90, two heap words each, with one
/// cadence checkpoint (TID 64) before the drain's. A boundary moved to 94
/// would make them two runs and one checkpoint.
#[test]
fn a_quiesce_cuts_a_run_without_moving_the_next_boundary() {
    for mode in [ASYNC, DurabilityMode::Sync] {
        let (words, checkpoints) = words_written(config(mode), 90, Some(30), a_b_a);
        assert_eq!(
            checkpoints, 2,
            "{mode:?}: the cadence's at TID 64, the drain's"
        );
        assert_eq!(
            words,
            90 * (2 + 1) + 3 * 2 + checkpoints,
            "{mode:?}: 90 two-line records, three runs of two heap words"
        );
    }
}

/// Groups of 8 transactions over 8 distinct rows are uncompressed group
/// records of 3 words and eight 14-byte line groups (13 for TID 1's row):
/// 3 + ⌈112/8⌉ = 17 log words, where the eight commits took 8 × 4 = 32
/// (v4's group 3 + 8 + 64 = 75, v3's pair groups 3 + 2 × 64 = 131). TIDs
/// 1..=64 are one run, so each of the 512 words reaches the heap once.
#[test]
fn an_uncompressed_group_costs_three_words_and_its_payload_bytes() {
    let cfg = config(ASYNC).with_grouping(8, false);
    let (words, checkpoints) = words_written(cfg, 64, None, one_row);
    assert_eq!(checkpoints, 2, "the cadence's at TID 64, the drain's");
    assert_eq!(
        words,
        8 * (3 + 14) + 64 * 8 + checkpoints,
        "8 eight-line groups, 512 heap words, the checkpoints"
    );
}

/// The heap side of one run alone. Three commits rewrite words A and B,
/// with C on A's line and D on B's: A, B, C; A, B; B, D. They wait in one
/// pending run (the cadence is at TID 64) until the drain applies it, which
/// stores each of the four distinct words once and flushes each of the two
/// lines once, after the last store; the drain's checkpoint adds one word
/// and one line.
#[test]
fn a_run_stores_each_distinct_word_and_flushes_each_line_once() {
    let (a, c, b, d) = (8, 13, 19, 20); // words 0 and 5 of line 1, 3 and 4 of line 2
    let writes = [vec![a, b, c], vec![a, b], vec![b, d]];
    for mode in [ASYNC, DurabilityMode::Sync] {
        let nvm = device();
        let mut dude = DudeTm::create_stm(Arc::clone(&nvm), config(mode));
        let logged = {
            let mut t = dude.register_thread();
            for (i, words) in (1..).zip(&writes) {
                t.run(&mut |tx| {
                    let mut write = |w| tx.write_word(PAddr::from_word_index(w), i);
                    words.iter().try_for_each(|&w| write(w))
                })
                .expect_committed();
            }
            while dude.durable_id() < 3 {
                std::thread::yield_now();
            }
            assert_eq!(dude.reproduced_id(), 0, "{mode:?}: the run waits");
            nvm.stats()
        };
        dude.shutdown();
        assert_eq!(dude.reproduced_id(), 3);
        let applied = nvm.stats().delta(&logged);
        assert_eq!(
            applied.words_written,
            4 + 1,
            "{mode:?}: four distinct words, the checkpoint"
        );
        assert_eq!(
            applied.bytes_flushed,
            64 * (2 + 1),
            "{mode:?}: two distinct lines, the checkpoint's"
        );
    }
}

/// `k` one-write commits with 8-byte values that one sweep stages are one
/// frame, as the sweep serializes it: the first record's 11 payload bytes
/// (and its length byte when `k` > 1), then 13 bytes for each later record
/// (its TID step, its length, its payload), under one header and TID. With the heap word each, `k` = 1 costs
/// 4 + 1 words (the commit record), 2 costs 6 + 2, and 16 costs 28 + 16
/// where sixteen records took 64 + 16.
#[test]
fn k_wide_commits_in_one_sweep_are_one_frame() {
    for (k, log_words) in [(1, 4), (2, 2 + 4), (16, 2 + 26)] {
        let records: Vec<LogRecord> = (1..=k)
            .map(|tid| LogRecord::Commit {
                tid,
                writes: vec![(8 * (tid % 512), u64::MAX - tid)],
            })
            .collect();
        let mut frame = Vec::new();
        serialize_frame(&records, &mut frame);
        let nvm = device();
        let ring = PlogRing::new(Arc::clone(&nvm), Region::new(0, 1 << 16));
        let before = nvm.stats();
        let span = ring.append_unfenced(&frame);
        assert_eq!(span.words, log_words, "k = {k}");
        let stored = nvm.stats().delta(&before).words_written;
        assert_eq!(
            stored, log_words,
            "k = {k}: the frame's words, nothing else"
        );
    }
}

/// Free-running, a sweep frames whatever its ring holds: the log never
/// takes more than a commit record per transaction, nor less than a frame
/// of 64 does (13 bytes a record), and every word stored is a log word the
/// pipeline counted, a heap word or a checkpoint.
#[test]
fn frames_never_cost_more_than_one_record_per_commit() {
    let (words, stats) = run(config(ASYNC), 6_400, None, false, one_wide_write);
    let log_words = stats.log_bytes_flushed / 8;
    assert_eq!(words, log_words + 6_400 + stats.checkpoints);
    assert!(log_words <= 6_400 * 4, "{log_words} log words");
    assert!(log_words >= 6_400 * 13 / 8, "{log_words} log words");
}

#[test]
fn grouping_never_costs_more_than_one_record_per_commit() {
    let (ungrouped, _) = words_written(config(ASYNC), 6_400, None, one_write);
    let (grouped, _) = words_written(
        config(ASYNC).with_grouping(8, false),
        6_400,
        None,
        one_write,
    );
    assert!(
        grouped <= ungrouped,
        "grouped {grouped} words > ungrouped {ungrouped}"
    );
}
