//! Property tests on the core building blocks.

use proptest::prelude::*;

use dude_nvm::{Nvm, NvmConfig, Region};
use dudetm::log::{
    combine_sorted, parse_frame, parse_record, serialize_commit, serialize_frame, serialize_group,
    LogRecord,
};
use dudetm::{scan_region, DenseReorder};

/// A payload word free to pass for a record header: half the time any
/// `u64`, half the time one carrying the v2 magic nibble, a valid kind and
/// a length short enough for the claimed record to fit what follows.
fn mimic() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (any::<u32>(), 1u64..6, 0u64..6).prop_map(|(check, kind, len)| {
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
        0u8..5,
        1u64..u64::MAX - 64,
        0u64..50,
        proptest::collection::vec((mimic(), mimic()), 0..8),
    )
}

/// What parsing one record gives back: `(first TID, last TID, writes)`.
type Parsed = (u64, u64, Vec<(u64, u64)>);

/// Serializes `spec` into `buf` and returns what parsing must give back,
/// per record.
fn serialize_spec(spec: &RecordSpec, buf: &mut Vec<u64>) -> Vec<Parsed> {
    let (kind, tid, span, writes) = spec;
    match kind {
        0 => {
            serialize_commit(*tid, writes, buf);
            vec![(*tid, *tid, writes.clone())]
        }
        1 => {
            serialize_frame([&LogRecord::Abort { tid: *tid }], buf);
            vec![(*tid, *tid, Vec::new())]
        }
        // A frame of 2–4 records over the writes, TIDs `span / 3` apart.
        4 => {
            let n = 2 + *span as usize % 3;
            let records: Vec<LogRecord> = (0..n)
                .map(|i| LogRecord::Commit {
                    tid: tid + i as u64 * (1 + span / 3),
                    writes: writes.iter().skip(i).step_by(n).copied().collect(),
                })
                .collect();
            serialize_frame(&records, buf);
            let each = |r: &LogRecord| (r.tid(), r.tid(), r.writes().to_vec());
            records.iter().map(each).collect()
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
            vec![(*tid, tid + span, writes)]
        }
    }
}

/// One record of a frame: the TIDs skipped before it (mostly none, some a
/// few, some up to 2^32), and its writes, or an abort marker.
fn frame_record() -> impl Strategy<Value = (u64, Option<Vec<(u64, u64)>>)> {
    let step = prop_oneof![Just(0u64), 0u64..5, 0u64..1 << 32];
    let writes = proptest::collection::vec((mimic(), mimic()), 0..6);
    (step, any::<u8>(), writes)
        .prop_map(|(step, coin, writes)| (step, (coin % 10 != 0).then_some(writes)))
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
        let mut out = Vec::new();
        if parse_frame(&words, &mut out).is_none() {
            prop_assert!(out.is_empty(), "a refused frame leaves nothing behind");
        }
    }

    /// A frame of 1–64 records, some with TID gaps and some aborts, parses
    /// back to exactly its records; a frame of one is the commit record,
    /// and a frame of n never takes more words than the n records alone.
    /// Every truncation is refused.
    #[test]
    fn frame_roundtrip(
        first in 1u64..1 << 40,
        specs in proptest::collection::vec(frame_record(), 1..65),
    ) {
        let mut tid = first;
        let records: Vec<LogRecord> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (step, writes))| {
                if i > 0 {
                    tid += 1 + step;
                }
                match writes {
                    Some(writes) => LogRecord::Commit { tid, writes },
                    None => LogRecord::Abort { tid },
                }
            })
            .collect();
        let mut buf = Vec::new();
        serialize_frame(&records, &mut buf);
        let mut alone = 0;
        let mut one = Vec::new();
        for rec in &records {
            serialize_commit(rec.tid(), rec.writes(), &mut one);
            alone += one.len();
        }
        prop_assert!(buf.len() <= alone, "{} words for {} alone", buf.len(), alone);
        if records.len() == 1 {
            prop_assert_eq!(&buf, &one);
        }
        let mut parsed = Vec::new();
        prop_assert_eq!(parse_frame(&buf, &mut parsed), Some(buf.len()));
        let got: Vec<_> = parsed.iter().map(|r| (r.first_tid, r.last_tid, &r.writes[..])).collect();
        let want: Vec<_> = records.iter().map(|r| (r.tid(), r.tid(), r.writes())).collect();
        prop_assert_eq!(got, want);
        let words: Vec<usize> = parsed.iter().map(|r| r.words).collect();
        prop_assert_eq!(words.iter().sum::<usize>(), buf.len());
        prop_assert_eq!(words.last().copied(), Some(buf.len()));
        prop_assert_eq!(parse_record(&buf).is_some(), records.len() == 1);
        for cut in 0..buf.len() {
            parsed.clear();
            prop_assert!(parse_frame(&buf[..cut], &mut parsed).is_none(), "cut at {}", cut);
            prop_assert!(parsed.is_empty());
        }
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
            want.extend(serialize_spec(spec, &mut buf));
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
