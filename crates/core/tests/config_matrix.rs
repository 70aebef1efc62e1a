//! Exhaustive `DudeTmConfig` validation matrix.
//!
//! Three layers of coverage:
//!
//! 1. every [`ConfigError`] variant is produced by a config invalid in
//!    exactly that one way, with the right payload values;
//! 2. the documented precedence (field order, then combination order) is
//!    pinned by a ladder that starts from an everything-wrong config and
//!    fixes one knob at a time, watching the reported error walk down the
//!    chain;
//! 3. a full cross-product over the interesting axis values is checked
//!    against an independent reimplementation of the rules, so any future
//!    drift between `try_validate` and its documentation shows up as a
//!    counterexample, printed with the offending combination.

use dudetm::{ConfigError, DudeTmConfig, DurabilityMode};

const SYNC: DurabilityMode = DurabilityMode::Sync;
const ASYNC1: DurabilityMode = DurabilityMode::Async { buffer_txns: 1 };
const ASYNC0: DurabilityMode = DurabilityMode::Async { buffer_txns: 0 };

fn base() -> DudeTmConfig {
    DudeTmConfig::small(1 << 20)
}

// -- Layer 1: each variant, each boundary -----------------------------------

#[test]
fn heap_bytes_zero_and_unaligned_rejected() {
    for bad in [0u64, 1, 4095, 4097, 8191] {
        let c = DudeTmConfig {
            heap_bytes: bad,
            ..base()
        };
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::HeapBytes { heap_bytes: bad })
        );
    }
    for good in [4096u64, 8192, 1 << 20] {
        DudeTmConfig {
            heap_bytes: good,
            ..base()
        }
        .try_validate()
        .expect("page-multiple heap sizes are valid");
    }
}

#[test]
fn plog_below_minimum_rejected() {
    for bad in [0u64, 8, 4095] {
        let c = DudeTmConfig {
            plog_bytes_per_thread: bad,
            ..base()
        };
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::PlogTooSmall {
                plog_bytes_per_thread: bad
            })
        );
    }
    DudeTmConfig {
        plog_bytes_per_thread: 4096,
        ..base()
    }
    .try_validate()
    .expect("exactly 4 KiB is the smallest valid ring");
}

#[test]
fn max_threads_out_of_range_rejected() {
    for bad in [0usize, 257, 1000] {
        let c = DudeTmConfig {
            max_threads: bad,
            ..base()
        };
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::MaxThreads { max_threads: bad })
        );
    }
    for good in [1usize, 256] {
        DudeTmConfig {
            max_threads: good,
            ..base()
        }
        .try_validate()
        .expect("range ends are inclusive");
    }
}

#[test]
fn zero_persist_group_rejected() {
    let c = DudeTmConfig {
        persist_group: 0,
        ..base()
    };
    assert_eq!(c.try_validate(), Err(ConfigError::NoPersistGroup));
}

#[test]
fn zero_checkpoint_cadence_rejected() {
    let c = DudeTmConfig {
        checkpoint_every: 0,
        ..base()
    };
    assert_eq!(c.try_validate(), Err(ConfigError::NoCheckpointCadence));
    DudeTmConfig {
        checkpoint_every: 1,
        ..base()
    }
    .try_validate()
    .expect("checkpointing every transaction is valid");
}

#[test]
fn reproduce_threads_other_than_one_rejected() {
    for bad in [0usize, 2, 4, 64, 65] {
        let c = DudeTmConfig {
            reproduce_threads: bad,
            ..base()
        };
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::ReproduceThreads {
                reproduce_threads: bad
            })
        );
    }
    assert_eq!(
        base().with_reproduce_threads(2).try_validate(),
        Err(ConfigError::ReproduceThreads {
            reproduce_threads: 2
        })
    );
    base()
        .with_reproduce_threads(1)
        .try_validate()
        .expect("one Reproduce step is the only legal value");
}

#[test]
fn compression_without_grouping_rejected() {
    let c = base().with_grouping(1, true);
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::CompressionWithoutGrouping)
    );
    base()
        .with_grouping(2, true)
        .try_validate()
        .expect("compression is valid on any real group size");
}

/// Each `Sync` committer of a grouped runtime cuts its own group from the
/// shared grouped input, so grouping composes with `Sync`.
#[test]
fn grouping_with_sync_accepted() {
    for compress in [false, true] {
        base()
            .with_durability(SYNC)
            .with_grouping(8, compress)
            .try_validate()
            .expect("sync with grouping is valid");
    }
    base()
        .with_durability(SYNC)
        .try_validate()
        .expect("sync without grouping is valid");
}

#[test]
fn zero_flush_workers_rejected() {
    let c = DudeTmConfig {
        persist_flush_workers: 0,
        ..base()
    };
    assert_eq!(c.try_validate(), Err(ConfigError::NoFlushWorkers));
}

#[test]
fn flush_workers_with_sync_rejected() {
    for bad in [2usize, 4] {
        let c = base().with_durability(SYNC).with_flush_workers(bad);
        assert_eq!(c.try_validate(), Err(ConfigError::FlushWorkersWithSync));
    }
    base()
        .with_durability(SYNC)
        .with_flush_workers(1)
        .try_validate()
        .expect("a Sync committer is its own ring's one Persist worker");
}

#[test]
fn flush_workers_beyond_max_threads_rejected() {
    let c = DudeTmConfig {
        max_threads: 4,
        persist_flush_workers: 5,
        persist_group: 8,
        ..base()
    };
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::FlushWorkersExceedMaxThreads {
            persist_flush_workers: 5,
            max_threads: 4,
        })
    );
    DudeTmConfig {
        max_threads: 4,
        persist_flush_workers: 4,
        persist_group: 8,
        ..base()
    }
    .try_validate()
    .expect("one flush worker per ring is the inclusive cap");
}

#[test]
fn flush_workers_valid_with_and_without_grouping() {
    base()
        .with_flush_workers(2)
        .try_validate()
        .expect("ungrouped workers partition the per-thread channels");
    base()
        .with_grouping(8, false)
        .with_flush_workers(2)
        .try_validate()
        .expect("grouped workers share one grouped input");
}

#[test]
fn empty_async_buffer_rejected() {
    let c = base().with_durability(ASYNC0);
    assert_eq!(c.try_validate(), Err(ConfigError::EmptyAsyncBuffer));
    base()
        .with_durability(ASYNC1)
        .try_validate()
        .expect("a one-transaction buffer is the smallest valid Async");
}

// -- Layer 2: precedence ladder ---------------------------------------------

/// Starts from a config wrong in every way at once and repairs one field
/// per step; the reported error must walk the documented field-then-
/// combination order, never skipping ahead.
#[test]
fn first_error_wins_in_documented_order() {
    let mut c = DudeTmConfig {
        heap_bytes: 1,
        plog_bytes_per_thread: 1,
        max_threads: 0,
        persist_group: 0,
        checkpoint_every: 0,
        reproduce_threads: 0,
        compress_groups: true,
        persist_flush_workers: 0,
        ..base()
    }
    .with_durability(ASYNC0);
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::HeapBytes { heap_bytes: 1 })
    );
    c.heap_bytes = 4096;
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::PlogTooSmall {
            plog_bytes_per_thread: 1
        })
    );
    c.plog_bytes_per_thread = 4096;
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::MaxThreads { max_threads: 0 })
    );
    c.max_threads = 2;
    assert_eq!(c.try_validate(), Err(ConfigError::NoPersistGroup));
    c.persist_group = 1;
    assert_eq!(c.try_validate(), Err(ConfigError::NoCheckpointCadence));
    c.checkpoint_every = 1;
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::ReproduceThreads {
            reproduce_threads: 0
        })
    );
    c.reproduce_threads = 1;
    // Combination checks begin: compression against the group size of 1.
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::CompressionWithoutGrouping)
    );
    c.persist_group = 8;
    assert_eq!(c.try_validate(), Err(ConfigError::NoFlushWorkers));
    c.persist_flush_workers = 3;
    assert_eq!(
        c.try_validate(),
        Err(ConfigError::FlushWorkersExceedMaxThreads {
            persist_flush_workers: 3,
            max_threads: 2,
        })
    );
    c.max_threads = 8;
    assert_eq!(c.try_validate(), Err(ConfigError::EmptyAsyncBuffer));
    c.durability = ASYNC1;
    c.try_validate().expect("fully repaired config is valid");
}

// -- Layer 3: cross-product against an independent model --------------------

/// The validation rules, restated independently of `try_validate`'s
/// control flow. Returns whether the combination is valid.
fn model_is_valid(c: &DudeTmConfig) -> bool {
    c.heap_bytes > 0
        && c.heap_bytes.is_multiple_of(4096)
        && c.plog_bytes_per_thread >= 4096
        && (1..=256).contains(&c.max_threads)
        && c.persist_group >= 1
        && c.checkpoint_every >= 1
        && c.reproduce_threads == 1
        && !(c.compress_groups && c.persist_group == 1)
        && c.persist_flush_workers >= 1
        && !(c.persist_flush_workers > 1 && c.durability == SYNC)
        && c.persist_flush_workers <= c.max_threads
        && c.durability != ASYNC0
}

/// Every combination of the interesting axis values — 4 durability modes
/// × group sizes × flush workers × compression × reproduce threads (512
/// configs) — agrees with the model.
#[test]
fn full_axis_cross_product_matches_model() {
    let durabilities = [SYNC, ASYNC0, ASYNC1, DurabilityMode::AsyncUnbounded];
    let groups = [0usize, 1, 2, 8];
    let flush_workers = [0usize, 1, 2, 9];
    let reproduce = [0usize, 1, 4, 64];
    let mut valid = 0u32;
    let mut invalid = 0u32;
    for &durability in &durabilities {
        for &persist_group in &groups {
            for &persist_flush_workers in &flush_workers {
                for &compress_groups in &[false, true] {
                    for &reproduce_threads in &reproduce {
                        let c = DudeTmConfig {
                            durability,
                            persist_group,
                            persist_flush_workers,
                            compress_groups,
                            reproduce_threads,
                            ..base()
                        };
                        let got = c.try_validate();
                        let want = model_is_valid(&c);
                        assert_eq!(
                            got.is_ok(),
                            want,
                            "model disagreement (validator said {got:?}) for \
                             durability={durability:?} group={persist_group} \
                             fw={persist_flush_workers} compress={compress_groups} \
                             rt={reproduce_threads}"
                        );
                        if want {
                            valid += 1;
                        } else {
                            invalid += 1;
                        }
                    }
                }
            }
        }
    }
    // The matrix must exercise both sides, or the model check is vacuous:
    // one legal `reproduce_threads` leaves a quarter of the rest valid.
    // `Sync` with a group of 2 or 8, compressed or not, is valid too.
    assert_eq!((valid, invalid), (25, 487), "corners explored");
}

/// The panicking `validate` front door reports the same first error.
#[test]
#[should_panic(expected = "persist_flush_workers")]
fn validate_panics_with_typed_message() {
    base().with_flush_workers(0).validate();
}
