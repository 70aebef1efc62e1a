//! Redo-log records and their persistent serialization.
//!
//! Every committed transaction produces one redo log: the ordered
//! `(address, value)` pairs it wrote plus an end mark carrying its
//! transaction ID (§3.2, Algorithm 2). A writer that aborted *after*
//! consuming a commit timestamp produces an [`LogRecord::Abort`] marker so
//! the global ID sequence stays dense and the durable ID remains computable.
//!
//! On NVM, records are word streams with a magic-tagged header and a
//! checksum trailer; recovery walks them and discards the first torn record
//! and everything after it (§3.5). Log *combination* merges the writes of a
//! group of **consecutive** transactions, keeping only the last write per
//! address (§3.3); log *compression* packs a group's payload with
//! [`dude_compress`].

use std::collections::HashMap;

use dude_txapi::TxId;

/// 32-bit record magic (high half of every header word).
const MAGIC: u64 = 0xD00D_E7A6;

/// Record kinds (low byte of the header word).
const KIND_COMMIT: u64 = 1;
const KIND_ABORT: u64 = 2;
const KIND_GROUP: u64 = 3;
const KIND_GROUP_LZ: u64 = 4;
/// A single-word marker telling readers to wrap to the ring start.
const KIND_SKIP: u64 = 15;

/// One transaction's entry in the volatile redo-log channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A committed update transaction and its ordered writes.
    Commit {
        /// Commit timestamp (global transaction ID).
        tid: TxId,
        /// `(heap byte address, value)` pairs in program order.
        writes: Vec<(u64, u64)>,
    },
    /// A writer that consumed `tid` but failed commit validation; fills the
    /// ID hole with a durable no-op.
    Abort {
        /// The wasted commit timestamp.
        tid: TxId,
    },
}

impl LogRecord {
    /// The transaction ID this record accounts for.
    pub fn tid(&self) -> TxId {
        match self {
            LogRecord::Commit { tid, .. } | LogRecord::Abort { tid } => *tid,
        }
    }

    /// The writes this record contributes (empty for aborts).
    pub fn writes(&self) -> &[(u64, u64)] {
        match self {
            LogRecord::Commit { writes, .. } => writes,
            LogRecord::Abort { .. } => &[],
        }
    }
}

/// A record parsed back from persistent memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// First transaction ID the record covers.
    pub first_tid: TxId,
    /// Last transaction ID the record covers (== `first_tid` for
    /// single-transaction records).
    pub last_tid: TxId,
    /// The (possibly combined) writes to replay for this ID range.
    pub writes: Vec<(u64, u64)>,
    /// Words consumed by the record in the log.
    pub words: usize,
}

fn header(kind: u64) -> u64 {
    (MAGIC << 32) | kind
}

fn kind_of(word: u64) -> Option<u64> {
    (word >> 32 == MAGIC).then_some(word & 0xff)
}

fn checksum(words: &[u64]) -> u64 {
    let mut acc = 0x5EED_0FD0_0D00u64;
    for (i, w) in words.iter().enumerate() {
        acc ^= w.rotate_left((i as u32 * 13 + 7) % 63);
        acc = acc.wrapping_mul(0x100_0000_01B3);
    }
    acc
}

/// The skip marker written when a record would not fit before the ring end.
pub fn skip_word() -> u64 {
    header(KIND_SKIP)
}

/// `true` if `word` is a skip marker.
pub fn is_skip(word: u64) -> bool {
    kind_of(word) == Some(KIND_SKIP)
}

/// Serializes a commit record into `out` (clears it first).
pub fn serialize_commit(tid: TxId, writes: &[(u64, u64)], out: &mut Vec<u64>) {
    out.clear();
    out.push(header(KIND_COMMIT));
    out.push(tid);
    out.push(writes.len() as u64);
    for &(addr, val) in writes {
        out.push(addr);
        out.push(val);
    }
    out.push(checksum(out));
}

/// Serializes an abort marker into `out` (clears it first).
pub fn serialize_abort(tid: TxId, out: &mut Vec<u64>) {
    out.clear();
    out.push(header(KIND_ABORT));
    out.push(tid);
    out.push(0);
    out.push(checksum(out));
}

/// Serializes a combined group covering `first..=last` into `out`.
///
/// With `compress`, the write pairs are packed with [`dude_compress`];
/// the uncompressed encoding is used instead whenever it is smaller.
/// Returns `(payload_bytes_raw, payload_bytes_stored)` for the Figure 3
/// accounting.
pub fn serialize_group(
    first: TxId,
    last: TxId,
    writes: &[(u64, u64)],
    compress: bool,
    out: &mut Vec<u64>,
) -> (usize, usize) {
    debug_assert!(first <= last);
    let raw_bytes = writes.len() * 16;
    if compress {
        // Columnar, delta-encoded payload: address deltas first (mostly
        // tiny when the caller sorted by address), then values. Wrapping
        // arithmetic keeps the format correct for any input order.
        let mut payload = Vec::with_capacity(raw_bytes);
        let mut prev = 0u64;
        for &(addr, _) in writes {
            payload.extend_from_slice(&addr.wrapping_sub(prev).to_le_bytes());
            prev = addr;
        }
        for &(_, val) in writes {
            payload.extend_from_slice(&val.to_le_bytes());
        }
        let packed = dude_compress::compress(&payload);
        if packed.len() < raw_bytes {
            out.clear();
            out.push(header(KIND_GROUP_LZ));
            out.push(first);
            out.push(last);
            out.push(packed.len() as u64);
            for chunk in packed.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                out.push(u64::from_le_bytes(w));
            }
            out.push(checksum(out));
            return (raw_bytes, packed.len());
        }
    }
    out.clear();
    out.push(header(KIND_GROUP));
    out.push(first);
    out.push(last);
    out.push(writes.len() as u64);
    for &(addr, val) in writes {
        out.push(addr);
        out.push(val);
    }
    out.push(checksum(out));
    (raw_bytes, raw_bytes)
}

/// Attempts to parse one record starting at `words[0]`.
///
/// Returns `None` if the words do not form a checksum-valid record —
/// recovery treats that as the end of the intact log.
pub fn parse_record(words: &[u64]) -> Option<ParsedRecord> {
    let kind = kind_of(*words.first()?)?;
    match kind {
        KIND_COMMIT | KIND_ABORT => {
            let tid = *words.get(1)?;
            let n = *words.get(2)? as usize;
            if kind == KIND_ABORT && n != 0 {
                return None;
            }
            // Bounds before arithmetic: a corrupted count must not overflow.
            if n > words.len().saturating_sub(4) / 2 {
                return None;
            }
            let total = 3 + 2 * n + 1;
            if words.len() < total || checksum(&words[..total - 1]) != words[total - 1] {
                return None;
            }
            let mut writes = Vec::with_capacity(n);
            for i in 0..n {
                writes.push((words[3 + 2 * i], words[4 + 2 * i]));
            }
            Some(ParsedRecord {
                first_tid: tid,
                last_tid: tid,
                writes,
                words: total,
            })
        }
        KIND_GROUP => {
            let first = *words.get(1)?;
            let last = *words.get(2)?;
            let n = *words.get(3)? as usize;
            if first > last || n > words.len().saturating_sub(5) / 2 {
                return None;
            }
            let total = 4 + 2 * n + 1;
            if words.len() < total || checksum(&words[..total - 1]) != words[total - 1] {
                return None;
            }
            let mut writes = Vec::with_capacity(n);
            for i in 0..n {
                writes.push((words[4 + 2 * i], words[5 + 2 * i]));
            }
            Some(ParsedRecord {
                first_tid: first,
                last_tid: last,
                writes,
                words: total,
            })
        }
        KIND_GROUP_LZ => {
            let first = *words.get(1)?;
            let last = *words.get(2)?;
            let payload_bytes = *words.get(3)? as usize;
            if first > last || payload_bytes > words.len().saturating_sub(5) * 8 {
                return None;
            }
            let payload_words = payload_bytes.div_ceil(8);
            let total = 4 + payload_words + 1;
            if words.len() < total || checksum(&words[..total - 1]) != words[total - 1] {
                return None;
            }
            let mut bytes = Vec::with_capacity(payload_words * 8);
            for w in &words[4..4 + payload_words] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            bytes.truncate(payload_bytes);
            let raw = dude_compress::decompress(&bytes).ok()?;
            if raw.len() % 16 != 0 {
                return None;
            }
            let n = raw.len() / 16;
            let word = |i: usize| u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().unwrap());
            let mut writes = Vec::with_capacity(n);
            let mut addr = 0u64;
            for i in 0..n {
                addr = addr.wrapping_add(word(i));
                writes.push((addr, word(n + i)));
            }
            Some(ParsedRecord {
                first_tid: first,
                last_tid: last,
                writes,
                words: total,
            })
        }
        _ => None,
    }
}

/// Combines the writes of a group of **consecutive** transactions: later
/// writes to the same address supersede earlier ones (§3.3). Returns the
/// combined writes (arbitrary order — all addresses are distinct).
pub fn combine(records: &[LogRecord]) -> Vec<(u64, u64)> {
    let mut map: HashMap<u64, u64> = HashMap::new();
    for rec in records {
        for &(addr, val) in rec.writes() {
            map.insert(addr, val);
        }
    }
    map.into_iter().collect()
}

/// [`combine`] followed by an address sort — the grouped Persist path's
/// canonical preprocessing. The sort gives replay sequential locality,
/// lets the compressor see runs of shared high address bytes, and makes
/// the serialized group *deterministic*: every Persist worker produces the
/// same bytes for the same group regardless of [`combine`]'s hash order.
pub fn combine_sorted(records: &[LogRecord]) -> Vec<(u64, u64)> {
    let mut combined = combine(records);
    combined.sort_unstable_by_key(|&(a, _)| a);
    combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_roundtrip() {
        let mut buf = Vec::new();
        serialize_commit(42, &[(8, 1), (16, 2)], &mut buf);
        let rec = parse_record(&buf).unwrap();
        assert_eq!(rec.first_tid, 42);
        assert_eq!(rec.last_tid, 42);
        assert_eq!(rec.writes, vec![(8, 1), (16, 2)]);
        assert_eq!(rec.words, buf.len());
    }

    #[test]
    fn abort_roundtrip() {
        let mut buf = Vec::new();
        serialize_abort(7, &mut buf);
        let rec = parse_record(&buf).unwrap();
        assert_eq!(rec.first_tid, 7);
        assert!(rec.writes.is_empty());
        assert_eq!(rec.words, 4);
    }

    #[test]
    fn empty_commit_roundtrip() {
        let mut buf = Vec::new();
        serialize_commit(1, &[], &mut buf);
        let rec = parse_record(&buf).unwrap();
        assert!(rec.writes.is_empty());
    }

    #[test]
    fn group_roundtrip_uncompressed() {
        let mut buf = Vec::new();
        let writes = vec![(8, 10), (24, 20)];
        let (raw, stored) = serialize_group(5, 9, &writes, false, &mut buf);
        assert_eq!(raw, 32);
        assert_eq!(stored, 32);
        let rec = parse_record(&buf).unwrap();
        assert_eq!((rec.first_tid, rec.last_tid), (5, 9));
        assert_eq!(rec.writes, writes);
    }

    #[test]
    fn group_roundtrip_compressed() {
        // Highly repetitive writes compress well.
        let writes: Vec<(u64, u64)> = (0..512).map(|i| (1024 + (i % 16) * 8, 7)).collect();
        let mut buf = Vec::new();
        let (raw, stored) = serialize_group(1, 512, &writes, true, &mut buf);
        assert!(stored < raw / 2, "stored {stored} raw {raw}");
        let rec = parse_record(&buf).unwrap();
        assert_eq!(rec.writes, writes);
        assert_eq!(rec.words, buf.len());
    }

    #[test]
    fn incompressible_group_falls_back_to_raw() {
        let mut x = 1u64;
        let writes: Vec<(u64, u64)> = (0..64)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x, x.rotate_left(17))
            })
            .collect();
        let mut buf = Vec::new();
        let (raw, stored) = serialize_group(1, 64, &writes, true, &mut buf);
        assert_eq!(raw, stored, "must fall back when compression loses");
        let rec = parse_record(&buf).unwrap();
        assert_eq!(rec.writes, writes);
    }

    #[test]
    fn corrupted_records_rejected() {
        let mut buf = Vec::new();
        serialize_commit(42, &[(8, 1)], &mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10000;
            assert!(
                parse_record(&bad).is_none(),
                "corruption at word {i} must be detected"
            );
        }
    }

    #[test]
    fn truncated_records_rejected() {
        let mut buf = Vec::new();
        serialize_commit(42, &[(8, 1), (16, 2)], &mut buf);
        for cut in 0..buf.len() {
            assert!(parse_record(&buf[..cut]).is_none());
        }
    }

    #[test]
    fn garbage_is_not_a_record() {
        assert!(parse_record(&[]).is_none());
        assert!(parse_record(&[0, 0, 0, 0]).is_none());
        assert!(parse_record(&[u64::MAX; 8]).is_none());
    }

    #[test]
    fn skip_marker_identified() {
        assert!(is_skip(skip_word()));
        assert!(!is_skip(header(KIND_COMMIT)));
        assert!(parse_record(&[skip_word()]).is_none());
    }

    #[test]
    fn combine_keeps_last_write_per_address() {
        let records = vec![
            LogRecord::Commit {
                tid: 1,
                writes: vec![(8, 1), (16, 1)],
            },
            LogRecord::Abort { tid: 2 },
            LogRecord::Commit {
                tid: 3,
                writes: vec![(8, 3)],
            },
        ];
        let mut combined = combine(&records);
        combined.sort_unstable();
        assert_eq!(combined, vec![(8, 3), (16, 1)]);
    }

    #[test]
    fn combine_sorted_is_deterministic() {
        let records = vec![
            LogRecord::Commit {
                tid: 1,
                writes: vec![(64, 1), (8, 1), (32, 1)],
            },
            LogRecord::Commit {
                tid: 2,
                writes: vec![(32, 2)],
            },
        ];
        let combined = combine_sorted(&records);
        assert_eq!(combined, vec![(8, 1), (32, 2), (64, 1)]);
        // Same input, same output — the property parallel Persist workers
        // rely on for byte-identical group serialization.
        assert_eq!(combined, combine_sorted(&records));
    }

    #[test]
    fn record_accessors() {
        let c = LogRecord::Commit {
            tid: 4,
            writes: vec![(0, 9)],
        };
        assert_eq!(c.tid(), 4);
        assert_eq!(c.writes(), &[(0, 9)]);
        let a = LogRecord::Abort { tid: 5 };
        assert_eq!(a.tid(), 5);
        assert!(a.writes().is_empty());
    }
}
