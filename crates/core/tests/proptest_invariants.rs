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

    /// Commit records roundtrip, and take exactly `2 + L + n + 2e` words,
    /// for arbitrary lists whose addresses share lines, revisit them out
    /// of order and repeat — `L` groups and `e` escapes as the encoder's
    /// rule opens them: a pair joins the open group iff it is on its line
    /// and above its last word, and an escape closes it.
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
                any::<u64>(),
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
        let (mut groups, mut escapes) = (0, 0);
        let mut open: Option<(u64, u64)> = None; // (line, last word)
        for &(addr, _) in &writes {
            if addr % 8 != 0 || addr >> 62 != 0 {
                escapes += 1;
                open = None;
                continue;
            }
            let (line, word) = (addr / 64, addr / 8 % 8);
            if !open.is_some_and(|(l, last)| l == line && word > last) {
                groups += 1;
            }
            open = Some((line, word));
        }
        prop_assert_eq!(buf.len(), 2 + groups + writes.len() + 2 * escapes);
    }

    /// Group records roundtrip with and without compression.
    #[test]
    fn group_record_roundtrip(
        first in 1u64..1000,
        span in 0u64..50,
        writes in proptest::collection::vec((0u64..4096, 0u64..16), 0..128),
        compress in any::<bool>(),
    ) {
        let mut buf = Vec::new();
        serialize_group(first, first + span, &writes, compress, &mut buf);
        let rec = parse_record(&buf).expect("group parses");
        prop_assert_eq!((rec.first_tid, rec.last_tid), (first, first + span));
        prop_assert_eq!(rec.writes, writes);
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
        // line group per line, `3 + L + n` words, plus 3 per escape.
        let combined = combine_sorted(&records);
        let mut buf = Vec::new();
        serialize_group(1, records.len() as u64, &combined, false, &mut buf);
        let (aligned, escapes): (Vec<u64>, Vec<u64>) =
            combined.iter().map(|&(addr, _)| addr).partition(|addr| addr % 8 == 0);
        let mut lines: Vec<u64> = aligned.iter().map(|addr| addr / 64).collect();
        lines.dedup();
        let words = 3 + lines.len() + aligned.len() + 3 * escapes.len();
        prop_assert_eq!(buf.len(), words);
        let parsed = parse_record(&buf).expect("own serialization parses");
        prop_assert_eq!(&parsed.writes, &combined);
        let mut comb = std::collections::HashMap::new();
        for (addr, val) in combined {
            comb.insert(addr, val);
        }
        prop_assert_eq!(seq, comb);
    }
}
