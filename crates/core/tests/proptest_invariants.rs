//! Property tests on the core building blocks.

use proptest::prelude::*;

use dude_nvm::{Nvm, NvmConfig, Region};
use dudetm::log::{
    combine_sorted, parse_record, serialize_abort, serialize_commit, serialize_group, LogRecord,
};
use dudetm::{scan_region, DenseReorder};

/// A payload word free to pass for a record header: half the time any
/// `u64`, half the time one carrying the v2 magic nibble, a valid kind and
/// a length short enough for the claimed record to fit what follows.
fn mimic() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (any::<u32>(), 1u64..5, 0u64..6).prop_map(|(check, kind, len)| {
            u64::from(check) << 32 | 0xD << 28 | kind << 24 | len
        }),
    ]
}

/// The payload bytes and line groups of `writes` in log format v5, sized
/// from the layout alone: a line group is a run of ascending words of one line, costing a
/// mask byte, its `Δline` as a zig-zag LEB128 varint, `⌈k/2⌉` count bytes
/// and each of its `k` values' significant bytes; an escape (an unaligned
/// address, or one at or above 2^62) costs 17 bytes and closes the run.
fn v5_payload(writes: &[(u64, u64)]) -> (usize, usize) {
    let varint = |d: i64| {
        let z = (d << 1) ^ (d >> 63);
        (64 - z.leading_zeros() as usize).max(1).div_ceil(7)
    };
    let sig = |v: u64| (64 - v.leading_zeros() as usize).div_ceil(8);
    let (mut bytes, mut groups, mut prev) = (0, 0, 0i64);
    let mut open: Option<(u64, u64)> = None; // (line, last word)
    let mut counts = 0; // values in the open group
    for &(addr, val) in writes {
        if addr % 8 != 0 || addr >> 62 != 0 {
            bytes += 17;
            open = None;
            continue;
        }
        let (line, word) = (addr / 64, addr / 8 % 8);
        if !open.is_some_and(|(l, last)| l == line && word > last) {
            bytes += 1 + varint(line as i64 - prev);
            groups += 1;
            prev = line as i64;
            counts = 0;
        }
        // Every other value opens a count byte.
        bytes += usize::from(counts % 2 == 0) + sig(val);
        counts += 1;
        open = Some((line, word));
    }
    (bytes, groups)
}

/// What one arbitrary record is built from: `(kind selector, first TID,
/// TIDs covered beyond it, write pairs)`.
type RecordSpec = (u8, u64, u64, Vec<(u64, u64)>);

fn record_spec() -> impl Strategy<Value = RecordSpec> {
    (
        0u8..4,
        1u64..u64::MAX - 64,
        0u64..50,
        proptest::collection::vec((mimic(), mimic()), 0..8),
    )
}

/// Serializes `spec` into `buf` and returns what parsing must give back:
/// `(first TID, last TID, writes)`.
fn serialize_spec(spec: &RecordSpec, buf: &mut Vec<u64>) -> (u64, u64, Vec<(u64, u64)>) {
    let (kind, tid, span, writes) = spec;
    match kind {
        0 => {
            serialize_commit(*tid, writes, buf);
            (*tid, *tid, writes.clone())
        }
        1 => {
            serialize_abort(*tid, buf);
            (*tid, *tid, Vec::new())
        }
        _ => {
            // Kind 3 asks for compression; a hot word repeated makes it pay.
            let writes = if *kind == 3 {
                writes
                    .iter()
                    .map(|&(a, _)| (a, 7))
                    .cycle()
                    .take(64)
                    .collect()
            } else {
                writes.clone()
            };
            serialize_group(*tid, tid + span, &writes, *kind == 3, buf);
            (*tid, tid + span, writes)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// DenseReorder's completed prefix always equals the naive model: the
    /// largest D with all of 1..=D pushed — and every pop extends it by
    /// exactly the next ID.
    #[test]
    fn seqtracker_matches_model(ids in proptest::collection::vec(1u64..200, 1..100)) {
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        let mut order = DenseReorder::starting_at(0);
        let mut pushed = std::collections::HashSet::new();
        for &id in &unique {
            order.push(id, id, ());
            pushed.insert(id);
            while let Some((first, last, ())) = order.pop() {
                prop_assert_eq!((first, last), (order.complete(), order.complete()));
            }
            let model = (1..).take_while(|d| pushed.contains(d)).count() as u64;
            prop_assert_eq!(order.complete(), model);
            prop_assert_eq!(order.pending_len() as u64, pushed.len() as u64 - model);
        }
    }

    /// Commit records roundtrip through the persistent format for
    /// arbitrary write sets.
    #[test]
    fn commit_record_roundtrip(
        tid in 1u64..u64::MAX,
        writes in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..64),
    ) {
        let mut buf = Vec::new();
        serialize_commit(tid, &writes, &mut buf);
        let rec = parse_record(&buf).expect("own serialization parses");
        prop_assert_eq!(rec.first_tid, tid);
        prop_assert_eq!(rec.writes, writes);
        prop_assert_eq!(rec.words, buf.len());
    }

    /// Commit records roundtrip, and take exactly `2 + ⌈p/8⌉` words for
    /// `p` payload bytes, for arbitrary lists whose addresses share lines,
    /// revisit them out of order and repeat, with values of every width —
    /// `p` as [`v5_payload`] counts it from the encoder's rule: a
    /// pair joins the open group iff it is on its line and above its last
    /// word, and an escape closes it.
    #[test]
    fn line_grouped_commit_roundtrip(
        tid in 1u64..u64::MAX,
        writes in proptest::collection::vec(
            (
                // Half the addresses are words of eight lines.
                prop_oneof![
                    (0u64..64).prop_map(|w| w * 8),
                    (0u64..64).prop_map(|w| w * 8),
                    (0u64..64).prop_map(|w| w * 8),
                    (0u64..512).prop_map(|b| b | 1),
                    (1u64 << 62..u64::MAX).prop_map(|a| a & !7),
                    any::<u64>(),
                ],
                prop_oneof![Just(0u64), 0u64..256, 0u64..1 << 20, any::<u64>()],
            ),
            0..64,
        ),
    ) {
        let mut buf = Vec::new();
        serialize_commit(tid, &writes, &mut buf);
        let rec = parse_record(&buf).expect("own serialization parses");
        prop_assert_eq!(rec.first_tid, tid);
        prop_assert_eq!(&rec.writes, &writes);
        prop_assert_eq!(rec.words, buf.len());
        prop_assert_eq!(buf.len(), 2 + v5_payload(&writes).0.div_ceil(8));
        // Every truncation is refused, never read as a shorter record.
        for cut in 0..buf.len() {
            prop_assert!(parse_record(&buf[..cut]).is_none(), "cut at {}", cut);
        }
    }

    /// Group records roundtrip with and without compression, for unsorted
    /// lists with rewrites, escapes and values of every width; uncompressed
    /// they take `3 + ⌈p/8⌉` words.
    #[test]
    fn group_record_roundtrip(
        first in 1u64..1000,
        span in 0u64..50,
        writes in proptest::collection::vec(
            (0u64..4096, prop_oneof![Just(0u64), 0u64..16, any::<u64>()]),
            0..128,
        ),
        compress in any::<bool>(),
    ) {
        let mut buf = Vec::new();
        let (raw, stored) = serialize_group(first, first + span, &writes, compress, &mut buf);
        prop_assert_eq!(raw, v5_payload(&writes).0);
        prop_assert!(stored <= raw);
        prop_assert_eq!(buf.len(), 3 + stored.div_ceil(8));
        let rec = parse_record(&buf).expect("group parses");
        prop_assert_eq!((rec.first_tid, rec.last_tid), (first, first + span));
        prop_assert_eq!(rec.writes, writes);
        for cut in 0..buf.len() {
            prop_assert!(parse_record(&buf[..cut]).is_none(), "cut at {}", cut);
        }
    }

    /// Arbitrary words — header-like or not — parse to `None` or to a
    /// record, never to a panic.
    #[test]
    fn arbitrary_words_never_panic(words in proptest::collection::vec(mimic(), 0..16)) {
        let _ = parse_record(&words);
    }

    /// Single-bit corruption of any serialized record is always detected.
    #[test]
    fn record_corruption_detected(
        writes in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..16),
        word in 0usize..64,
        bit in 0u32..64,
    ) {
        let mut buf = Vec::new();
        serialize_commit(7, &writes, &mut buf);
        let word = word % buf.len();
        buf[word] ^= 1u64 << bit;
        // Either it fails to parse, or (astronomically unlikely) it parses
        // into something different — it must never parse back identical.
        if let Some(rec) = parse_record(&buf) {
            prop_assert!(rec.first_tid != 7 || rec.writes != writes);
        }
    }

    /// A log region holding k concatenated records and then a torn one
    /// scans back to exactly those k — none missed, none invented at an
    /// offset inside a payload that happens to look like a header.
    #[test]
    fn concatenated_records_scan_back_exactly(
        specs in proptest::collection::vec(record_spec(), 0..33),
        tail in record_spec(),
        tear in proptest::collection::vec(any::<u64>(), 1..256),
    ) {
        let mut image = Vec::new();
        let mut want = Vec::new();
        let mut buf = Vec::new();
        for spec in &specs {
            want.push(serialize_spec(spec, &mut buf));
            image.extend_from_slice(&buf);
        }
        // The torn tail: its first `cut` words landed, every later word
        // still holds something else.
        serialize_spec(&tail, &mut buf);
        let cut = (tear[0] % buf.len() as u64) as usize;
        for (i, word) in buf.iter_mut().enumerate().skip(cut) {
            *word ^= tear[i % tear.len()] | 1;
        }
        image.extend_from_slice(&buf);

        let nvm = Nvm::new(NvmConfig::for_testing(image.len() as u64 * 8 + 64));
        nvm.write_words(0, &image);
        let found: Vec<_> = scan_region(&nvm, Region::new(0, nvm.size_bytes()))
            .into_iter()
            .map(|rec| (rec.first_tid, rec.last_tid, rec.writes))
            .collect();
        prop_assert_eq!(found, want);
    }

    /// Replaying a combined group produces exactly the same memory state as
    /// replaying the underlying transactions one by one in ID order, and
    /// the group record holds one line group per line.
    #[test]
    fn combination_preserves_replay_semantics(
        txns in proptest::collection::vec(
            proptest::collection::vec(
                // Words of eight lines, and bytes that mostly escape.
                (prop_oneof![(0u64..64).prop_map(|w| w * 8), 0u64..64], any::<u64>()),
                0..8,
            ),
            1..20,
        ),
    ) {
        let records: Vec<LogRecord> = txns
            .iter()
            .enumerate()
            .map(|(i, writes)| LogRecord::Commit {
                tid: i as u64 + 1,
                writes: writes.clone(),
            })
            .collect();
        // Sequential replay.
        let mut seq = std::collections::HashMap::new();
        for rec in &records {
            for &(addr, val) in rec.writes() {
                seq.insert(addr, val);
            }
        }
        // Combined replay, through the group record it serializes to: one
        // line group per line (as many groups as lines), `3 + ⌈p/8⌉` words.
        let combined = combine_sorted(&records);
        let mut buf = Vec::new();
        serialize_group(1, records.len() as u64, &combined, false, &mut buf);
        let mut lines: Vec<u64> = combined
            .iter()
            .filter(|&&(addr, _)| addr % 8 == 0)
            .map(|&(addr, _)| addr / 64)
            .collect();
        lines.dedup();
        let (bytes, groups) = v5_payload(&combined);
        prop_assert_eq!(groups, lines.len());
        prop_assert_eq!(buf.len(), 3 + bytes.div_ceil(8));
        let parsed = parse_record(&buf).expect("own serialization parses");
        prop_assert_eq!(&parsed.writes, &combined);
        let mut comb = std::collections::HashMap::new();
        for (addr, val) in combined {
            comb.insert(addr, val);
        }
        prop_assert_eq!(seq, comb);
    }
}
