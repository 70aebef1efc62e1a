//! Regression tests for `recover_device` edge cases: per-transaction
//! discard accounting, group records straddling the checkpoint, ambiguous
//! logs, mismatched or too-small devices, and the post-recovery log wipe.
//!
//! The tests format a device through the runtime, then craft log records
//! directly in the persistent log regions (using the public serializers)
//! to reach on-medium states a live pipeline produces only under crash
//! timing.

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{
    log, recover_device, scan_region, ConfigError, DudeTm, DudeTmConfig, NvmLayout, RecoverError,
};
use std::time::Duration;

/// Each test runs for seconds at most, in debug; one still going after
/// this is hung. Each has a fixed seed and configuration, so the test
/// name the watchdog prints names both.
const HANG: Duration = Duration::from_secs(300);

/// Byte offsets inside the metadata region (on-NVM format v3: the version
/// is word 1, the reproduced-ID checkpoint word 2).
const META_VERSION_OFF: u64 = 8;
const META_REPRODUCED_OFF: u64 = 2 * 8;

fn test_nvm() -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(1 << 16)))
}

fn tiny_config() -> DudeTmConfig {
    DudeTmConfig {
        plog_bytes_per_thread: 4096,
        max_threads: 2,
        ..DudeTmConfig::small(4096)
    }
}

/// Formats the device (clean shutdown, checkpoint 0) and returns its layout.
fn formatted(nvm: &Arc<Nvm>, config: DudeTmConfig) -> NvmLayout {
    drop(DudeTm::create_stm(Arc::clone(nvm), config));
    let (layout, report) = recover_device(nvm, &config).expect("clean device recovers");
    assert_eq!(report.replayed, 0);
    layout
}

/// Persists a serialized record at the start of log region `ring`.
fn plant_record(nvm: &Nvm, layout: &NvmLayout, ring: usize, words: &[u64]) {
    let off = layout.plogs[ring].start();
    nvm.write_words(off, words);
    nvm.persist(off, words.len() as u64 * 8);
}

/// Every word of the device.
fn image(nvm: &Nvm) -> Vec<u64> {
    let mut words = vec![0u64; (nvm.size_bytes() / 8) as usize];
    nvm.read_words(0, &mut words);
    words
}

/// A bad configuration is a typed error, not a panic, and recovery gives up
/// before touching the device.
#[test]
fn invalid_config_is_a_typed_error_and_leaves_the_device_untouched() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    let mut buf = Vec::new();
    log::serialize_commit(1, [(0, 11)], &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    let before = image(&nvm);

    let bad = config.with_flush_workers(0);
    let err = recover_device(&nvm, &bad).expect_err("zero flush workers is invalid");
    assert_eq!(err, RecoverError::Config(ConfigError::NoFlushWorkers));
    assert!(err.to_string().contains("persist_flush_workers"), "{err}");
    assert_eq!(image(&nvm), before, "a rejected recovery must not write");
    // The same device still recovers under the good configuration.
    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.replayed, 1);
}

/// A device too small for the configured layout is a typed error that
/// says how much is missing, and nothing on it is read or written; the
/// constructor keeps its documented panic.
#[test]
fn too_small_device_is_a_typed_error_and_leaves_the_device_untouched() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    formatted(&nvm, config);
    let before = image(&nvm);

    // Meta (64 B) + two 4 KiB rings, page-aligned to 12 KiB, + a 64 KiB
    // heap: 76 KiB on a 64 KiB device.
    let big = DudeTmConfig {
        heap_bytes: 1 << 16,
        ..config
    };
    let err = recover_device(&nvm, &big).expect_err("the heap does not fit");
    let (need, have) = (12 * 1024 + (1 << 16), 1 << 16);
    assert_eq!(err, RecoverError::DeviceTooSmall { need, have });
    assert!(err.to_string().contains("too small"), "{err}");
    assert_eq!(image(&nvm), before, "a rejected recovery must not write");

    let panic = std::panic::catch_unwind(|| DudeTm::create_stm(test_nvm(), big))
        .expect_err("create_with panics on a too-small device");
    let msg = panic.downcast_ref::<String>().expect("formatted panic");
    assert!(
        msg.starts_with("NVM device too small: need 77824 bytes"),
        "{msg}"
    );
}

#[test]
fn discarded_counts_transactions_not_records() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    let mut buf = Vec::new();
    // Tid 1 is intact; tid 2 never became durable; the group 3..=5 sits
    // beyond the gap and must be discarded — as THREE transactions.
    log::serialize_commit(1, [(0, 11)], &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    log::serialize_group(3, 5, &[(8, 33)], false, &mut buf);
    plant_record(&nvm, &layout, 1, &buf);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.replayed, 1);
    assert_eq!(report.last_tid, 1);
    assert_eq!(report.discarded, 3, "a discarded group is 3 transactions");
    assert_eq!(nvm.read_word(layout.heap.start()), 11);
    assert_eq!(
        nvm.read_word(layout.heap.start() + 8),
        0,
        "discarded write applied"
    );
}

#[test]
fn group_straddling_checkpoint_replays_idempotently() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    // A group covering tids 1..=4 is durable, the heap reflects replay up
    // to tid 2, and the durable checkpoint reads 2 — the record straddles
    // it (1 <= 2 < 4). Its combined writes carry final values for the
    // whole group, so recovery must replay it in full, not drop it.
    let mut buf = Vec::new();
    log::serialize_group(1, 4, &[(0, 44), (8, 40)], false, &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    nvm.write_word(layout.heap.start(), 22); // partial state as of tid 2
    nvm.persist(layout.heap.start(), 8);
    nvm.write_word(layout.meta.start() + META_REPRODUCED_OFF, 2);
    nvm.persist(layout.meta.start() + META_REPRODUCED_OFF, 8);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.checkpoint, 2);
    assert_eq!(report.last_tid, 4);
    assert_eq!(report.replayed, 2, "only tids 3..=4 are new");
    assert_eq!(report.discarded, 0);
    assert_eq!(nvm.read_word(layout.heap.start()), 44);
    assert_eq!(nvm.read_word(layout.heap.start() + 8), 40);
}

/// Parallel flush workers spread consecutive groups across one ring per
/// worker (here round-robin, one schedule of many) and fence them out of
/// order, so a crash can leave the dense
/// group sequence with a hole: a worker's flush never completed while a
/// *later* group on another ring is already durable. Recovery must stitch
/// the cross-ring sequence back into dense TID order, cut it at the gap,
/// and discard the durable group beyond it whole.
#[test]
fn round_robin_groups_across_rings_recover_to_contiguous_prefix() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = DudeTmConfig {
        max_threads: 4,
        ..tiny_config()
    };
    let layout = formatted(&nvm, config);
    let mut buf = Vec::new();
    // Worker w owns ring w; group seq s lands on ring s % 4. Groups of 3:
    // seq 0 → ring 0 (tids 1..=3), seq 1 → ring 1 (4..=6), seq 2 → ring 2
    // (7..=9, flush never completed), seq 3 → ring 3 (10..=12, durable).
    log::serialize_group(1, 3, &[(0, 3)], false, &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    log::serialize_group(4, 6, &[(0, 6), (8, 6)], true, &mut buf);
    plant_record(&nvm, &layout, 1, &buf);
    log::serialize_group(10, 12, &[(0, 12), (16, 12)], false, &mut buf);
    plant_record(&nvm, &layout, 3, &buf);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.last_tid, 6, "prefix must end at the seq-2 gap");
    assert_eq!(report.replayed, 6);
    assert_eq!(report.discarded, 3, "beyond-gap group discarded as 3 txns");
    assert_eq!(nvm.read_word(layout.heap.start()), 6);
    assert_eq!(nvm.read_word(layout.heap.start() + 8), 6);
    assert_eq!(
        nvm.read_word(layout.heap.start() + 16),
        0,
        "write from beyond the gap applied"
    );
}

/// A device stamped with `version`, its first log holding `record`,
/// reopens as `BadVersion(version)` and is left untouched.
fn older_version_is_refused(version: u64, record: &[u64]) {
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    plant_record(&nvm, &layout, 0, record);
    nvm.write_word(layout.meta.start() + META_VERSION_OFF, version);
    nvm.persist(layout.meta.start() + META_VERSION_OFF, 8);
    let before = image(&nvm);
    let err = recover_device(&nvm, &config).expect_err("an older image");
    assert_eq!(err, RecoverError::BadVersion(version));
    assert!(
        err.to_string().contains(&format!("version {version}")),
        "{err}"
    );
    assert_eq!(image(&nvm), before, "a rejected recovery must not write");
}

/// A device stamped with an older format version reopens as a typed
/// error: there is no v1 reader and no migration.
#[test]
fn v1_device_is_a_bad_version() {
    let _watchdog = Watchdog::arm("", HANG);
    // v1's commit of TID 42 writing 1 to byte 8: magic word, TID, count,
    // the pair, a 64-bit checksum trailer.
    older_version_is_refused(
        1,
        &[0xd00d_e7a6_0000_0001, 42, 1, 8, 1, 0xc5ac_c0fd_fd6f_70b8],
    );
}

/// A v2 image — its commits logged as `(address, value)` pairs — is not
/// read as v6: recovery refuses it before scanning a log.
#[test]
fn v2_device_is_a_bad_version() {
    let _watchdog = Watchdog::arm("", HANG);
    // v2's commit of TID 42 writing 1 and 2 to bytes 8 and 16.
    older_version_is_refused(2, &[0x2255_fb62_d100_0002, 42, 8, 1, 16, 2]);
}

/// A v3 image — its line headers absolute lines, its groups pairs — is
/// not read as v6: recovery refuses it before scanning a log.
#[test]
fn v3_device_is_a_bad_version() {
    let _watchdog = Watchdog::arm("", HANG);
    // v3's commit of TID 42 writing 7 to byte 200 (line 3), then 1 and 2
    // to bytes 256 and 264 (line 4) and 3 to byte 504 (line 7).
    older_version_is_refused(
        3,
        &[
            0xc69f_45eb_d100_0007,
            42,
            0x0200_0000_0000_0003,
            7,
            0x0300_0000_0000_0004,
            1,
            2,
            0x8000_0000_0000_0007,
            3,
        ],
    );
}

/// A v4 image — a word per line header and per value, `len` counting
/// words — is not read as v6: recovery refuses it before scanning a log.
#[test]
fn v4_device_is_a_bad_version() {
    let _watchdog = Watchdog::arm("", HANG);
    // v4's commit of TID 42 writing 7 to byte 200 (line 3), then 1 and 2
    // to bytes 256 and 264 (line 4) and 3 to byte 504 (line 7).
    older_version_is_refused(
        4,
        &[
            0x1b96_e80b_d100_0007,
            42,
            0x0200_0000_0000_0003,
            7,
            0x0300_0000_0000_0001,
            1,
            2,
            0x8000_0000_0000_0003,
            3,
        ],
    );
}

/// A v5 image — a record per commit, and a record kind for aborts — is
/// not read as v6: recovery refuses it before scanning a log.
#[test]
fn v5_device_is_a_bad_version() {
    let _watchdog = Watchdog::arm("", HANG);
    // v5's abort marker of TID 7.
    older_version_is_refused(5, &[0x513d_49cc_d200_0000, 7]);
}

/// A device formatted for one thread, reopened for two: the log layout
/// would not match, so recovery refuses — the device is large enough for
/// either layout, so this is the typed error and not the size assert.
#[test]
fn thread_count_mismatch_is_a_layout_mismatch() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let one = DudeTmConfig {
        max_threads: 1,
        ..tiny_config()
    };
    formatted(&nvm, one);
    let before = image(&nvm);
    let err = recover_device(&nvm, &tiny_config()).expect_err("formatted for one thread");
    assert_eq!(
        err,
        RecoverError::LayoutMismatch {
            on_device: 1,
            configured: 2
        }
    );
    assert!(err.to_string().contains("1 threads"), "{err}");
    assert_eq!(image(&nvm), before, "a rejected recovery must not write");
}

#[test]
fn two_straddling_records_are_a_typed_error() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    // Both records straddle checkpoint 2 and disagree about history; no
    // winner can be picked safely.
    let mut buf = Vec::new();
    log::serialize_group(1, 4, &[(0, 1)], false, &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    log::serialize_group(2, 5, &[(0, 2)], false, &mut buf);
    plant_record(&nvm, &layout, 1, &buf);
    nvm.write_word(layout.meta.start() + META_REPRODUCED_OFF, 2);
    nvm.persist(layout.meta.start() + META_REPRODUCED_OFF, 8);
    let before = image(&nvm);
    let err = recover_device(&nvm, &config).expect_err("ambiguous log");
    assert_eq!(
        err,
        RecoverError::AmbiguousLog {
            first: (1, 4),
            second: (2, 5)
        }
    );
    assert_eq!(
        err.to_string(),
        "ambiguous log: records 1..=4 and 2..=5 overlap"
    );
    // Heap, checkpoint and log words alike: nothing was replayed or wiped.
    assert_eq!(image(&nvm), before, "a rejected recovery must not write");
    assert_eq!(nvm.read_word(layout.heap.start()), 0);
    assert_eq!(nvm.read_word(layout.meta.start() + META_REPRODUCED_OFF), 2);
}

/// A log span is released only after the covering checkpoint's fence, but
/// "released" is a ring-pointer move — the record's bytes stay intact
/// until the ring wraps over them. If the transactions between that
/// record and the checkpoint were recycled *and* overwritten, recovery
/// sees an intact record wholly below the checkpoint with no successors
/// left to re-overwrite its writes. Replaying it would regress the heap
/// to a stale value; recovery must skip it.
#[test]
fn stale_released_record_below_checkpoint_is_not_replayed() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    // Stale survivor: tid 3 once wrote 333 to heap word 0...
    let mut buf = Vec::new();
    log::serialize_commit(3, [(0, 333)], &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    // ...but the durable state has moved on: some later transaction (whose
    // record was recycled and overwritten) left 999 there, and the durable
    // checkpoint covers tids through 9.
    nvm.write_word(layout.heap.start(), 999);
    nvm.persist(layout.heap.start(), 8);
    nvm.write_word(layout.meta.start() + META_REPRODUCED_OFF, 9);
    nvm.persist(layout.meta.start() + META_REPRODUCED_OFF, 8);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.checkpoint, 9);
    assert_eq!(report.last_tid, 9, "stale record must not extend history");
    assert_eq!(report.replayed, 0);
    assert_eq!(
        report.discarded, 0,
        "below-checkpoint records are not a lost tail"
    );
    assert_eq!(report.stale_skipped, 1);
    assert_eq!(
        nvm.read_word(layout.heap.start()),
        999,
        "stale tid-3 write regressed the heap"
    );
}

/// The complementary case: a sub-checkpoint record that is *adjacent* to
/// the checkpoint's run is covered-but-unreleased state (or a released
/// span whose successors all survive) and must still be replayed — the
/// idempotent-redo repair for torn checkpoint windows.
#[test]
fn sub_checkpoint_record_in_checkpoint_run_still_replays() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    let mut buf = Vec::new();
    // Tids 2 and 3 intact, checkpoint 3: run [2..=3] spans the checkpoint.
    log::serialize_commit(2, [(0, 22)], &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    log::serialize_commit(3, [(8, 33)], &mut buf);
    plant_record(&nvm, &layout, 1, &buf);
    nvm.write_word(layout.meta.start() + META_REPRODUCED_OFF, 3);
    nvm.persist(layout.meta.start() + META_REPRODUCED_OFF, 8);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.last_tid, 3);
    assert_eq!(report.replayed, 0, "both tids already under the checkpoint");
    assert_eq!(report.stale_skipped, 0);
    assert_eq!(nvm.read_word(layout.heap.start()), 22, "torn-window repair");
    assert_eq!(nvm.read_word(layout.heap.start() + 8), 33);
}

/// Concurrent Perform threads waste transaction IDs when commit-time
/// validation fails after the clock tick; the owner persists an abort
/// marker so the global ID sequence stays dense on the medium. Recovery
/// must treat the marker as a member of the run — it bridges the commits
/// on either side into one contiguous history.
#[test]
fn abort_marker_bridges_commits_into_one_run() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    let mut buf = Vec::new();
    // Thread 0 committed tids 1 and 3; the intervening tid 2 was wasted by
    // a validation failure on thread 1, which logged an abort marker.
    log::serialize_commit(1, [(0, 11)], &mut buf);
    let mut words = buf.clone();
    log::serialize_commit(3, [(8, 33)], &mut buf);
    words.extend_from_slice(&buf);
    plant_record(&nvm, &layout, 0, &words);
    log::serialize_frame([&log::LogRecord::Abort { tid: 2 }], &mut buf);
    plant_record(&nvm, &layout, 1, &buf);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.last_tid, 3);
    assert_eq!(
        report.replayed, 3,
        "abort markers count as replayed history"
    );
    assert_eq!(report.discarded, 0, "tid 3 is reachable through the marker");
    assert_eq!(nvm.read_word(layout.heap.start()), 11);
    assert_eq!(nvm.read_word(layout.heap.start() + 8), 33);
}

/// A frame's records join the runs one by one: thread 0's frame holds
/// TIDs 1 and 3, and thread 1's record of TID 2 fills the gap between
/// them. Without it, TID 3 sits beyond the gap and only TID 1 replays.
#[test]
fn a_frame_joins_the_runs_record_by_record() {
    let _watchdog = Watchdog::arm("", HANG);
    for bridged in [true, false] {
        let nvm = test_nvm();
        let config = tiny_config();
        let layout = formatted(&nvm, config);
        let mut buf = Vec::new();
        let commit = |tid, writes: &[(u64, u64)]| log::LogRecord::Commit {
            tid,
            writes: writes.to_vec(),
        };
        log::serialize_frame(&[commit(1, &[(0, 11)]), commit(3, &[(8, 33)])], &mut buf);
        plant_record(&nvm, &layout, 0, &buf);
        if bridged {
            log::serialize_commit(2, [(0, 22)], &mut buf);
            plant_record(&nvm, &layout, 1, &buf);
        }
        let (_, report) = recover_device(&nvm, &config).expect("recover");
        let want = if bridged {
            (3, 3, 0, 22, 33)
        } else {
            (1, 1, 1, 11, 0)
        };
        let heap = |off| nvm.read_word(layout.heap.start() + off);
        let got = (
            report.last_tid,
            report.replayed,
            report.discarded,
            heap(0),
            heap(8),
        );
        assert_eq!(got, want, "bridged: {bridged}");
    }
}

/// The contrast case for the test above: if the abort marker for the
/// wasted tid never became durable, the commit beyond it is unreachable
/// and must be discarded — recovering it would publish a transaction whose
/// durable predecessor set is incomplete.
#[test]
fn commit_beyond_missing_abort_marker_is_discarded() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    let layout = formatted(&nvm, config);
    let mut buf = Vec::new();
    log::serialize_commit(1, [(0, 11)], &mut buf);
    plant_record(&nvm, &layout, 0, &buf);
    log::serialize_commit(3, [(8, 33)], &mut buf);
    plant_record(&nvm, &layout, 1, &buf);

    let (_, report) = recover_device(&nvm, &config).expect("recover");
    assert_eq!(report.last_tid, 1);
    assert_eq!(report.replayed, 1);
    assert_eq!(report.discarded, 1);
    assert_eq!(nvm.read_word(layout.heap.start()), 11);
    assert_eq!(
        nvm.read_word(layout.heap.start() + 8),
        0,
        "unreachable tid-3 write leaked into the heap"
    );
}

#[test]
fn recovery_wipes_stale_log_records() {
    let _watchdog = Watchdog::arm("", HANG);
    let nvm = test_nvm();
    let config = tiny_config();
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        for i in 0..20u64 {
            let out = t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i % 8), i));
            let tid = out.info().unwrap().tid.unwrap();
            t.wait_durable(tid);
        }
        drop(t);
        nvm.crash();
        std::mem::forget(dude);
    }
    let (layout, first) = recover_device(&nvm, &config).expect("first recovery");
    assert_eq!(first.last_tid, 20);
    // The wipe leaves no scannable record behind: a transaction ID re-used
    // by the restarted runtime can never alias a stale record in a later
    // crash.
    for &region in &layout.plogs {
        assert!(
            scan_region(&nvm, region).is_empty(),
            "stale records survived recovery"
        );
    }
    // The wipe is durable: crash again immediately and recover.
    nvm.crash();
    let (_, second) = recover_device(&nvm, &config).expect("second recovery");
    assert_eq!(second.checkpoint, first.last_tid);
    assert_eq!(second.replayed, 0);
    assert_eq!(second.discarded, 0);
}
