//! Layer replays: captured write-sets pushed through each layer's public
//! functions in isolation, so a layer's cost per transaction is measured
//! without the pipeline around it.
//!
//! The write-sets are the ones `attach_history` recorded during the crash
//! phase (load-phase transactions dropped), i.e. the same application at
//! the same scale as the measured run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dude_nvm::{Nvm, NvmConfig, Region, TimingConfig};
use dudetm::log::{combine_sorted, parse_record, serialize_commit, serialize_group};
use dudetm::{HistoryEntry, LogRecord, PlogRing};

use crate::run::median;
use crate::spec::{GROUP, PLOG_BYTES};

/// Each replay repeats whole passes over the captured set for at least
/// this long and reports the median pass.
const MIN_REPLAY_TIME: Duration = Duration::from_millis(60);

/// What the replays measured.
#[derive(Debug, Default)]
pub struct LayerCosts {
    /// `serialize_commit`, ns per tx.
    pub serialize_ns_per_tx: f64,
    /// `parse_record`, ns per tx.
    pub parse_ns_per_tx: f64,
    /// Serialized record words per tx.
    pub words_per_tx: f64,
    /// `combine_sorted` over groups of 64, ns per tx.
    pub combine_ns_per_tx: f64,
    /// Entries after / before combination.
    pub combine_keep_ratio: f64,
    /// `dude_compress::compress`, ns per input byte.
    pub compress_ns_per_byte: f64,
    /// `dude_compress::decompress`, ns per output byte.
    pub decompress_ns_per_byte: f64,
    /// Stored / raw group payload bytes (`serialize_group`'s accounting).
    pub stored_ratio: f64,
    /// `PlogRing::append_unfenced` + `fence` on an untimed device, ns per tx.
    pub plog_append_ns_per_tx: f64,
}

/// Repeats `pass` (which returns how many units it processed) until
/// [`MIN_REPLAY_TIME`] has elapsed, at least three times; returns the
/// median pass's nanoseconds per unit.
fn ns_per_unit(mut pass: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < MIN_REPLAY_TIME {
        let t0 = Instant::now();
        let units = pass();
        samples.push(t0.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples)
}

/// The columnar, delta-encoded payload `serialize_group` hands to the
/// compressor (address deltas, then values): the realistic input for
/// timing `dude_compress` on its own.
fn group_payload(writes: &[(u64, u64)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(writes.len() * 16);
    let mut prev = 0u64;
    for &(addr, _) in writes {
        payload.extend_from_slice(&addr.wrapping_sub(prev).to_le_bytes());
        prev = addr;
    }
    for &(_, val) in writes {
        payload.extend_from_slice(&val.to_le_bytes());
    }
    payload
}

/// Replays the committed transactions of `history` through the log,
/// compress and plog layers.
pub fn replay(history: &[HistoryEntry]) -> LayerCosts {
    let commits: Vec<&HistoryEntry> = history.iter().filter(|e| !e.aborted).collect();
    if commits.is_empty() {
        return LayerCosts::default();
    }
    let n = commits.len() as u64;
    let mut buf = Vec::new();

    let serialize_ns_per_tx = ns_per_unit(|| {
        for e in &commits {
            serialize_commit(e.tid, &e.writes, &mut buf);
            std::hint::black_box(&buf);
        }
        n
    });

    let records: Vec<Vec<u64>> = commits
        .iter()
        .map(|e| {
            serialize_commit(e.tid, &e.writes, &mut buf);
            buf.clone()
        })
        .collect();
    let words: usize = records.iter().map(Vec::len).sum();
    let parse_ns_per_tx = ns_per_unit(|| {
        for r in &records {
            std::hint::black_box(parse_record(r));
        }
        n
    });

    let groups: Vec<Vec<LogRecord>> = commits
        .chunks(GROUP)
        .map(|chunk| {
            chunk
                .iter()
                .map(|e| LogRecord::Commit {
                    tid: e.tid,
                    writes: e.writes.clone(),
                })
                .collect()
        })
        .collect();
    let combine_ns_per_tx = ns_per_unit(|| {
        for g in &groups {
            std::hint::black_box(combine_sorted(g));
        }
        n
    });
    let combined: Vec<Vec<(u64, u64)>> = groups.iter().map(|g| combine_sorted(g)).collect();
    let before: usize = commits.iter().map(|e| e.writes.len()).sum();
    let after: usize = combined.iter().map(Vec::len).sum();

    let payloads: Vec<Vec<u8>> = combined.iter().map(|w| group_payload(w)).collect();
    let payload_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let compress_ns_per_byte = ns_per_unit(|| {
        for p in &payloads {
            std::hint::black_box(dude_compress::compress(p));
        }
        payload_bytes
    });
    let packed: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| dude_compress::compress(p))
        .collect();
    let decompress_ns_per_byte = ns_per_unit(|| {
        for p in &packed {
            std::hint::black_box(dude_compress::decompress(p).expect("round trip"));
        }
        payload_bytes
    });
    let (mut raw, mut stored) = (0usize, 0usize);
    for (g, w) in groups.iter().zip(&combined) {
        let (r, s) = serialize_group(
            g.first().expect("non-empty group").tid(),
            g.last().expect("non-empty group").tid(),
            w,
            true,
            &mut buf,
        );
        raw += r;
        stored += s;
    }

    // An untimed scratch device: what remains is the ring's own work
    // (bounds, wrap padding, word stores, flush bookkeeping, the fence).
    let scratch = Arc::new(Nvm::new(NvmConfig::for_benchmark(
        PLOG_BYTES,
        TimingConfig::disabled(),
    )));
    let ring = PlogRing::new(Arc::clone(&scratch), Region::new(0, PLOG_BYTES));
    let plog_append_ns_per_tx = ns_per_unit(|| {
        for r in &records {
            let span = ring.append_unfenced(r);
            scratch.fence();
            ring.release(span);
        }
        n
    });

    LayerCosts {
        serialize_ns_per_tx,
        parse_ns_per_tx,
        words_per_tx: words as f64 / n as f64,
        combine_ns_per_tx,
        combine_keep_ratio: after as f64 / before.max(1) as f64,
        compress_ns_per_byte,
        decompress_ns_per_byte,
        stored_ratio: stored as f64 / raw.max(1) as f64,
        plog_append_ns_per_tx,
    }
}
