//! Crash recovery (§3.5).
//!
//! Recovery scans the persistent log regions, collects every intact record
//! (a frame counts as its records, one per transaction ID), and replays **the one contiguous run of transaction IDs that spans the
//! durable reproduced-ID checkpoint**, in increasing ID order. Records
//! above the run's end sit beyond an ID gap: the missing transaction's log
//! never became durable, so they — and everything after them, which could
//! causally depend on the gap — are discarded. Transactions whose
//! durability was acknowledged can never be part of the discarded tail,
//! because acknowledgement requires the durable ID to cover them, which
//! requires every smaller ID to be persisted.
//!
//! Within the chosen run, records at or below the checkpoint are replayed
//! too (idempotent redo): a torn crash can persist the checkpoint word
//! while losing a flushed-but-unfenced data line it claims to cover, and
//! the covering records are provably still intact because log spans are
//! recycled only after the covering checkpoint's fence completes. Intact
//! records *detached* from the checkpoint's run on the low side are a
//! different matter: they are released-but-not-yet-overwritten spans from
//! an earlier recycling cycle, whose successors are gone. Replaying one
//! would regress the heap to a stale value with no later record left to
//! repair it, so they are skipped (`stale_skipped`). The run containing
//! the checkpoint is unique: records never overlap, so two qualifying runs
//! would be adjacent and would have merged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dude_nvm::{Nvm, Region};

use crate::config::{ConfigError, DudeTmConfig};
use crate::log::{Combiner, ParsedRecord};
use crate::metrics::RecoveryPhase;
use crate::pipeline::apply_writes;
use crate::plog::scan_region;
use crate::runtime::{
    NvmLayout, META_MAGIC, META_MAGIC_WORD, META_REPRODUCED, META_THREADS, META_VERSION,
    META_VERSION_WORD,
};
use crate::stats::RecoveryTelemetry;

/// Outcome of [`recover_device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Reproduced-ID checkpoint found on the device.
    pub checkpoint: u64,
    /// Last transaction ID after replay (the new clock origin).
    pub last_tid: u64,
    /// Transactions replayed from the logs (including abort markers).
    pub replayed: u64,
    /// Intact log records that were discarded because they sat beyond the
    /// first ID gap (persisted but never acknowledged durable).
    pub discarded: u64,
    /// Stale records skipped: intact but wholly below the checkpoint and
    /// detached from its run — released log spans not yet overwritten,
    /// whose replay would regress the heap.
    pub stale_skipped: u64,
    /// Wall time spent scanning the log regions for intact records, in
    /// nanoseconds. With `scan_ns + replay_ns + wipe_ns` this breaks down
    /// where recovery time goes — scan is proportional to log-region size,
    /// replay to surviving records, wipe to dirty log words.
    pub scan_ns: u64,
    /// Wall time spent replaying the checkpoint's run into the heap image
    /// (including the checkpoint advance fence), in nanoseconds.
    pub replay_ns: u64,
    /// Wall time spent wiping the dead log records, in nanoseconds.
    pub wipe_ns: u64,
}

/// Errors returned by [`recover_device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverError {
    /// The supplied configuration is invalid; nothing on the device was
    /// read or written.
    Config(ConfigError),
    /// The device cannot hold the configured layout (metadata, one log
    /// ring per thread, heap); nothing on it was read or written.
    DeviceTooSmall {
        /// Bytes the layout needs.
        need: u64,
        /// Bytes the device has.
        have: u64,
    },
    /// The device does not carry DudeTM's metadata magic.
    NotFormatted,
    /// The on-device format version is unsupported.
    BadVersion(u64),
    /// The device was formatted with a different `max_threads`, so the log
    /// layout does not match.
    LayoutMismatch {
        /// Thread count recorded on the device.
        on_device: u64,
        /// Thread count in the supplied configuration.
        configured: u64,
    },
    /// Two intact records both claim some transaction ID. There is no way to
    /// pick a winner, so nothing was replayed and the device is untouched.
    AmbiguousLog {
        /// ID range (`first..=last`) of the earlier record.
        first: (u64, u64),
        /// ID range of the record overlapping it.
        second: (u64, u64),
    },
}

impl core::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoverError::Config(e) => write!(f, "invalid DudeTmConfig: {e}"),
            RecoverError::DeviceTooSmall { need, have } => {
                let what = "bytes (meta + log rings + heap)";
                write!(f, "NVM device too small: need {need} {what}, have {have}")
            }
            RecoverError::NotFormatted => f.write_str("device is not a DudeTM volume"),
            RecoverError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            RecoverError::LayoutMismatch {
                on_device,
                configured,
            } => write!(
                f,
                "device formatted for {on_device} threads, configured for {configured}"
            ),
            RecoverError::AmbiguousLog { first, second } => write!(
                f,
                "ambiguous log: records {}..={} and {}..={} overlap",
                first.0, first.1, second.0, second.1
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Replays persistent logs into the heap image and durably advances the
/// checkpoint. Returns the layout and report; [`crate::DudeTm`] constructors
/// call this before starting the pipeline.
///
/// # Errors
///
/// See [`RecoverError`].
pub fn recover_device(
    nvm: &Arc<Nvm>,
    config: &DudeTmConfig,
) -> Result<(NvmLayout, RecoveryReport), RecoverError> {
    recover_device_observed(nvm, config, &RecoveryTelemetry::default())
}

/// As [`recover_device`], reporting phase progress through `telemetry`
/// while it runs: the phase gauge steps scan → replay → wipe → done, and
/// the `recovery_*` counters advance as records are scanned, replayed,
/// discarded, skipped, and wiped — so a long recovery is observable
/// mid-flight. [`DudeTm::recover_stm`](crate::DudeTm::recover_stm) /
/// [`DudeTm::recover_htm`](crate::DudeTm::recover_htm) move the same
/// cells into the restarted runtime, whose exposition reports them.
///
/// # Errors
///
/// See [`RecoverError`].
pub fn recover_device_observed(
    nvm: &Arc<Nvm>,
    config: &DudeTmConfig,
    telemetry: &RecoveryTelemetry,
) -> Result<(NvmLayout, RecoveryReport), RecoverError> {
    config.try_validate().map_err(RecoverError::Config)?;
    let layout = NvmLayout::compute(nvm.size_bytes(), config)?;
    if nvm.read_word(layout.meta.start() + META_MAGIC_WORD * 8) != META_MAGIC {
        return Err(RecoverError::NotFormatted);
    }
    let version = nvm.read_word(layout.meta.start() + META_VERSION_WORD * 8);
    if version != META_VERSION {
        return Err(RecoverError::BadVersion(version));
    }
    let on_device = nvm.read_word(layout.meta.start() + META_THREADS * 8);
    if on_device != config.max_threads as u64 {
        return Err(RecoverError::LayoutMismatch {
            on_device,
            configured: config.max_threads as u64,
        });
    }
    let checkpoint = nvm.read_word(layout.meta.start() + META_REPRODUCED * 8);

    // Collect every intact record from every log ring, in transaction-ID
    // order.
    telemetry.set_phase(RecoveryPhase::Scan);
    let scan_start = dude_nvm::monotonic_ns();
    let mut records = Vec::new();
    for &region in &layout.plogs {
        let found = scan_region(nvm, region);
        telemetry
            .records_scanned
            .fetch_add(found.len() as u64, Ordering::Relaxed);
        telemetry
            .bytes_scanned
            .fetch_add(region.len(), Ordering::Relaxed);
        records.extend(found);
    }
    records.sort_by_key(|rec| rec.first_tid);
    let scan_ns = dude_nvm::monotonic_ns().saturating_sub(scan_start);
    // Overlapping ranges would both claim some ID; there is no way to pick
    // a winner, so refuse — before anything is written — rather than
    // replay an arbitrary history.
    if let Some(pair) = records
        .windows(2)
        .find(|pair| pair[1].first_tid <= pair[0].last_tid)
    {
        return Err(RecoverError::AmbiguousLog {
            first: (pair[0].first_tid, pair[0].last_tid),
            second: (pair[1].first_tid, pair[1].last_tid),
        });
    }

    // Group the records into contiguous TID runs (a record straddling a
    // boundary keeps its run going: `first_tid <= run_end + 1`) and find
    // the run spanning the checkpoint, i.e. reaching back to at most
    // `checkpoint + 1` and forward to at least `checkpoint`. Uniqueness:
    // two qualifying runs would be adjacent (the later one must start at
    // or below `checkpoint + 1`, at most one past the earlier one's end)
    // and so would have merged into one.
    //
    // Replay only that run, in ID order — idempotent redo: on real
    // hardware, flushed lines can drain in any order before the fence, so
    // a crash inside the checkpoint's `CLWB`/`SFENCE` window can persist
    // the checkpoint word while tearing a data line it claims to cover
    // (the emulator's torn-cache-line crash reproduces this); replaying
    // the run's sub-checkpoint records repairs any such hole because each
    // record carries final values for its ID range. Runs entirely below
    // the checkpoint are stale recycled spans and must NOT be replayed;
    // runs entirely above it sit beyond an ID gap and are discarded.
    // Each run is `(first TID, last TID, records)`.
    let mut runs: Vec<(u64, u64, Vec<ParsedRecord>)> = Vec::new();
    for rec in records {
        match runs.last_mut() {
            Some((_, run_end, run)) if rec.first_tid <= run_end.saturating_add(1) => {
                *run_end = rec.last_tid;
                run.push(rec);
            }
            _ => runs.push((rec.first_tid, rec.last_tid, vec![rec])),
        }
    }
    telemetry.set_phase(RecoveryPhase::Replay);
    let replay_start = dude_nvm::monotonic_ns();
    let mut last_tid = checkpoint;
    let mut replayed = 0u64;
    let mut discarded = 0u64;
    let mut stale_skipped = 0u64;
    let mut combiner = Combiner::default();
    for (first, last, run) in runs {
        if last < checkpoint {
            stale_skipped += run.len() as u64;
            telemetry
                .stale_skipped
                .fetch_add(run.len() as u64, Ordering::Relaxed);
        } else if first > checkpoint + 1 {
            // Beyond the gap; each discarded record may cover a group.
            let dropped = run
                .iter()
                .map(|rec| rec.last_tid - rec.first_tid + 1)
                .sum::<u64>();
            discarded += dropped;
            telemetry
                .records_discarded
                .fetch_add(dropped, Ordering::Relaxed);
        } else {
            for rec in &run {
                let words = apply_writes(nvm, layout.heap, rec.writes.iter().rev(), &mut combiner);
                telemetry
                    .bytes_replayed
                    .fetch_add(8 * words, Ordering::Relaxed);
            }
            // Count only IDs not already covered by the checkpoint.
            replayed = last - checkpoint;
            last_tid = last;
            telemetry
                .txns_replayed
                .fetch_add(replayed, Ordering::Relaxed);
        }
    }
    nvm.write_word(layout.meta.start() + META_REPRODUCED * 8, last_tid);
    nvm.flush(layout.meta.start() + META_REPRODUCED * 8, 8);
    nvm.fence();
    let replay_ns = dude_nvm::monotonic_ns().saturating_sub(replay_start);
    telemetry.set_phase(RecoveryPhase::Wipe);
    let wipe_start = dude_nvm::monotonic_ns();

    // Wipe the log regions. Every surviving record is now at or below the
    // durable checkpoint, i.e. dead — but physically present. The restarted
    // runtime re-uses transaction IDs starting at `last_tid + 1`, so a
    // *later* crash would let these stale records alias freshly-logged IDs
    // and corrupt that recovery. Ordering matters: the checkpoint fence
    // above happens first, so a crash mid-wipe leaves only records the
    // checkpoint already filters out (or half-zeroed ones whose checksums
    // no longer verify).
    wipe_logs(nvm, &layout.plogs, &telemetry.bytes_wiped);
    nvm.fence();
    let wipe_ns = dude_nvm::monotonic_ns().saturating_sub(wipe_start);
    telemetry.set_phase(RecoveryPhase::Done);

    let report = RecoveryReport {
        checkpoint,
        last_tid,
        replayed,
        discarded,
        stale_skipped,
        scan_ns,
        replay_ns,
        wipe_ns,
    };
    Ok((layout, report))
}

/// Zeroes every non-zero word of the log regions `plogs`, flushing each;
/// the caller fences. `wiped` counts the bytes per word, so a long wipe is
/// observable mid-flight.
pub(crate) fn wipe_logs(nvm: &Nvm, plogs: &[Region], wiped: &AtomicU64) {
    for &region in plogs {
        let mut off = region.start();
        while off < region.end() {
            if nvm.read_word(off) != 0 {
                nvm.write_word(off, 0);
                nvm.flush(off, 8);
                wiped.fetch_add(8, Ordering::Relaxed);
            }
            off += 8;
        }
    }
}
