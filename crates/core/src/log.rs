//! Redo-log records and their persistent serialization.
//!
//! Every committed transaction produces one redo log: the ordered
//! `(address, value)` pairs it wrote plus an end mark carrying its
//! transaction ID (§3.2, Algorithm 2). A writer that aborted *after*
//! consuming a commit timestamp produces an [`LogRecord::Abort`] marker so
//! the global ID sequence stays dense and the durable ID remains computable.
//!
//! On NVM, records are word streams in format v3 (`DESIGN.md §Pipeline`,
//! *Log format*): a header word `check:32 | magic:4 | kind:4 | len:24`, the
//! transaction ID (first and last ID for groups), then the payload. A
//! commit's payload is *line groups*: one `mask:8 | line:56` word per run
//! of ascending words of one 64-byte line, then their values. The check
//! covers every other bit of the record; recovery walks the log and
//! discards the first torn record and everything after it (§3.5). Log
//! *combination* keeps only the last write per address — within one
//! transaction, or across a group of **consecutive** ones (§3.3); log
//! *compression* packs a group's payload with [`dude_compress`].

use std::borrow::Borrow;
use std::collections::HashMap;

use dude_txapi::TxId;

/// 4-bit record magic (bits 28..32 of the header word). Non-zero, so
/// neither a wiped word nor a v1 header — whose low half was a bare kind
/// byte — can pass for a header.
const MAGIC: u64 = 0xD;

/// Record kinds (bits 24..28 of the header word).
const KIND_COMMIT: u64 = 1;
const KIND_ABORT: u64 = 2;
const KIND_GROUP: u64 = 3;
const KIND_GROUP_LZ: u64 = 4;
/// A single-word marker telling readers to wrap to the ring start.
const KIND_SKIP: u64 = 15;

/// Largest value of the 24-bit length field: payload words for commits,
/// write pairs for groups, payload bytes for compressed groups.
const LEN_MAX: usize = (1 << 24) - 1;
const LOW_HALF: u64 = 0xFFFF_FFFF;

/// The line field of a line-group header (`mask:8 | line:56`); the mask
/// of the words present sits above it.
const LINE: u64 = (1 << 56) - 1;
const MASK_SHIFT: u32 = 56;

/// The line number of an address a line-group header can name — 8-byte
/// aligned and below 2^62 — and the address's word in that line. Any
/// other address is *escaped*: logged as `0, address, value`.
fn line_word(addr: u64) -> Option<(u64, u64)> {
    (addr & 7 == 0 && addr >> (MASK_SHIFT + 6) == 0).then_some((addr >> 6, addr >> 3 & 7))
}

/// One transaction's redo log as an owned value (a commit itself appends to
/// its thread's volatile redo ring, in every durability mode). A
/// `&LogRecord` iterates its writes, so a list of records is something
/// [`combine`] combines.
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

impl<'a> IntoIterator for &'a LogRecord {
    type Item = &'a (u64, u64);
    type IntoIter = std::slice::Iter<'a, (u64, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.writes().iter()
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

/// The header word of a `kind` record, check bits still zero.
///
/// # Panics
///
/// Panics if `len` does not fit the length field. The ring's "exceeds half
/// the ring" assert fires first for any ring under 512 MiB.
fn header(kind: u64, len: usize) -> u64 {
    assert!(
        len <= LEN_MAX,
        "record length {len} exceeds the 24-bit header field"
    );
    MAGIC << 28 | kind << 24 | len as u64
}

/// `(kind, len)` of a header word, if it carries the magic.
fn kind_len(word: u64) -> Option<(u64, usize)> {
    (word >> 28 & 0xf == MAGIC).then_some((word >> 24 & 0xf, word as usize & LEN_MAX))
}

/// The 32-bit check of `record`: a multiplicative hash over the header's
/// low half and every later word, folded `hi ^ lo`.
fn check(record: &[u64]) -> u64 {
    let mut acc = 0x5EED_0FD0_0D00u64;
    let mut mix = |i: usize, w: u64| {
        acc ^= w.rotate_left((i as u32 * 13 + 7) % 63);
        acc = acc.wrapping_mul(0x100_0000_01B3);
    };
    mix(0, record[0] & LOW_HALF);
    for (i, &w) in record.iter().enumerate().skip(1) {
        mix(i, w);
    }
    (acc >> 32) ^ (acc & LOW_HALF)
}

/// Stamps the finished record's check into its header word.
fn seal(record: &mut [u64]) {
    record[0] |= check(record) << 32;
}

/// Appends `writes` to `out` as line groups, keeping their order: a pair
/// joins the open group iff it is on the group's line and its word is
/// above every word the group holds; otherwise it opens a group (or is an
/// escape, which closes the open one).
fn push_lines(writes: impl IntoIterator<Item: Borrow<(u64, u64)>>, out: &mut Vec<u64>) {
    // Index in `out` of the open group's header word.
    let mut open: Option<usize> = None;
    for pair in writes {
        let &(addr, val) = pair.borrow();
        let Some((line, word)) = line_word(addr) else {
            out.extend([0, addr, val]);
            open = None;
            continue;
        };
        let bit = 1 << (MASK_SHIFT + word as u32);
        match open {
            // No bit at or above `word`'s: the word is above the group's.
            Some(at) if out[at] & LINE == line && out[at] >> (MASK_SHIFT + word as u32) == 0 => {
                out[at] |= bit;
            }
            _ => {
                open = Some(out.len());
                out.push(bit | line);
            }
        }
        out.push(val);
    }
}

/// Decodes a commit payload of line groups and escapes, if it is exactly
/// that.
fn parse_lines(body: &[u64]) -> Option<Vec<(u64, u64)>> {
    let mut writes = Vec::with_capacity(body.len());
    let mut at = 0;
    while let Some(&head) = body.get(at) {
        let mut mask = head >> MASK_SHIFT;
        if mask == 0 {
            let &[0, addr, val] = body.get(at..at + 3)? else {
                return None;
            };
            writes.push((addr, val));
            at += 3;
            continue;
        }
        let vals = body.get(at + 1..at + 1 + mask.count_ones() as usize)?;
        let base = (head & LINE) << 6;
        for &val in vals {
            writes.push((base | u64::from(mask.trailing_zeros()) << 3, val));
            mask &= mask - 1;
        }
        at += 1 + vals.len();
    }
    Some(writes)
}

fn push_pairs(writes: impl IntoIterator<Item: Borrow<(u64, u64)>>, out: &mut Vec<u64>) {
    for pair in writes {
        let &(addr, val) = pair.borrow();
        out.push(addr);
        out.push(val);
    }
}

/// The skip marker written when a record would not fit before the ring end.
pub fn skip_word() -> u64 {
    let mut word = [header(KIND_SKIP, 0)];
    seal(&mut word);
    word[0]
}

/// `true` if `word` is a skip marker.
pub fn is_skip(word: u64) -> bool {
    kind_len(word).is_some_and(|(kind, _)| kind == KIND_SKIP)
}

/// Serializes a commit record into `out` (clears it first), keeping the
/// writes' order: `2 + L + n` words for `n` writes in `L` line groups,
/// plus 3 per escaped address. `writes` is any list of pairs that knows
/// its length — a slice, or a record's slice of its redo ring; a list
/// combined by line ([`Combiner::by_line`]) has one group per line.
pub fn serialize_commit<W>(tid: TxId, writes: W, out: &mut Vec<u64>)
where
    W: IntoIterator<IntoIter: ExactSizeIterator, Item: Borrow<(u64, u64)>>,
{
    let writes = writes.into_iter();
    out.clear();
    out.reserve(2 + 2 * writes.len());
    // The header, once the payload's length is known.
    out.extend([0, tid]);
    push_lines(writes, out);
    out[0] = header(KIND_COMMIT, out.len() - 2);
    seal(out);
}

/// Serializes an abort marker into `out` (clears it first): 2 words.
pub fn serialize_abort(tid: TxId, out: &mut Vec<u64>) {
    out.clear();
    out.push(header(KIND_ABORT, 0));
    out.push(tid);
    seal(out);
}

/// Serializes a combined group covering `first..=last` into `out`:
/// `3 + 2n` words, or `3 + ⌈p/8⌉` for a compressed payload of `p` bytes.
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
    out.clear();
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
            out.extend([header(KIND_GROUP_LZ, packed.len()), first, last]);
            for chunk in packed.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                out.push(u64::from_le_bytes(w));
            }
            seal(out);
            return (raw_bytes, packed.len());
        }
    }
    out.extend([header(KIND_GROUP, writes.len()), first, last]);
    push_pairs(writes, out);
    seal(out);
    (raw_bytes, raw_bytes)
}

/// Unpacks a compressed group payload of `payload_bytes` bytes.
fn unpack(body: &[u64], payload_bytes: usize) -> Option<Vec<(u64, u64)>> {
    let mut bytes = Vec::with_capacity(body.len() * 8);
    for w in body {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.truncate(payload_bytes);
    let raw = dude_compress::decompress(&bytes).ok()?;
    if raw.len() % 16 != 0 {
        return None;
    }
    let n = raw.len() / 16;
    let word = |i: usize| u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().unwrap());
    let mut addr = 0u64;
    Some(
        (0..n)
            .map(|i| {
                addr = addr.wrapping_add(word(i));
                (addr, word(n + i))
            })
            .collect(),
    )
}

/// Attempts to parse one record starting at `words[0]`.
///
/// Returns `None` if the words do not form a check-valid record —
/// recovery treats that as the end of the intact log.
pub fn parse_record(words: &[u64]) -> Option<ParsedRecord> {
    let (kind, len) = kind_len(*words.first()?)?;
    // Words in front of the payload, and the payload's own words.
    let (head, payload) = match kind {
        KIND_COMMIT => (2, len),
        KIND_ABORT if len == 0 => (2, 0),
        KIND_GROUP => (3, 2 * len),
        KIND_GROUP_LZ => (3, len.div_ceil(8)),
        _ => return None,
    };
    let record = words.get(..head + payload)?;
    if record[0] >> 32 != check(record) {
        return None;
    }
    let first_tid = record[1];
    let last_tid = if head == 3 { record[2] } else { first_tid };
    if first_tid > last_tid {
        return None;
    }
    let body = &record[head..];
    let writes = match kind {
        KIND_COMMIT => parse_lines(body)?,
        KIND_GROUP_LZ => unpack(body, len)?,
        _ => body.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
    };
    Some(ParsedRecord {
        first_tid,
        last_tid,
        writes,
        words: record.len(),
    })
}

/// Scratch table for last-writer-wins combination of one write list: open
/// addressing over the list's own entries, cleared by bumping a stamp
/// instead of rewriting the slots. Whoever combines repeatedly owns one (a
/// Persist worker, a Sync-mode Perform thread, a Reproduce stage). The
/// grouped path keeps [`combine`]: swapping its `HashMap` for this table
/// made `combine_sorted` 40 % cheaper and `ycsb_grouped` 27 % *slower* end
/// to end (EXPERIMENTS.md, *PR 18*), so it was not adopted there.
#[derive(Debug, Default)]
pub(crate) struct Combiner {
    /// `(stamp, entry)`; live iff the stamp is current.
    slots: Vec<(u32, u32)>,
    stamp: u32,
    /// [`Combiner::by_line`]'s entries in first-touch order: a line's group
    /// header (`mask:8 | line:56`), or 0 for an escaped address.
    heads: Vec<u64>,
    /// Eight words per entry of `heads`: a line's values by word, or an
    /// escape's address and value.
    vals: Vec<u64>,
}

impl Combiner {
    /// Clears the slots for a list of `n` entries; returns the hash shift.
    fn reset(&mut self, n: usize) -> u32 {
        assert!(n <= u32::MAX as usize / 2, "list too long");
        let want = (2 * n).next_power_of_two();
        if self.slots.len() < want || self.stamp == u32::MAX {
            self.slots.clear();
            self.slots.resize(want, (0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
        64 - self.slots.len().trailing_zeros()
    }

    /// Combines `pairs` by cache line, last writer wins, and hands `emit`
    /// the result grouped by line: lines in the order they were first
    /// written, each line's words ascending, escaped addresses (see
    /// [`serialize_commit`]) where first written — what serializes to one
    /// line group per line. Every pair is read before the first `emit`, so
    /// `emit` may overwrite the list `pairs` reads.
    pub(crate) fn by_line(
        &mut self,
        pairs: impl ExactSizeIterator<Item = (u64, u64)>,
        mut emit: impl FnMut(u64, u64),
    ) {
        let shift = self.reset(pairs.len());
        let mask = self.slots.len() - 1;
        self.heads.clear();
        if self.vals.len() < 8 * pairs.len() {
            self.vals.resize(8 * pairs.len(), 0);
        }
        for (addr, val) in pairs {
            let line = line_word(addr);
            let key = line.map_or(addr, |(line, _)| line);
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            let at = loop {
                let (stamp, at) = self.slots[slot];
                let at = at as usize;
                if stamp != self.stamp {
                    let at = self.heads.len();
                    self.slots[slot] = (self.stamp, at as u32);
                    self.heads.push(line.map_or(0, |(line, _)| line));
                    if line.is_none() {
                        self.vals[8 * at] = addr;
                    }
                    break at;
                }
                let head = self.heads[at];
                let same = match line {
                    Some((line, _)) => head != 0 && head & LINE == line,
                    None => head == 0 && self.vals[8 * at] == addr,
                };
                if same {
                    break at;
                }
                slot = (slot + 1) & mask;
            };
            match line {
                Some((_, word)) => {
                    self.heads[at] |= 1 << (MASK_SHIFT + word as u32);
                    self.vals[8 * at + word as usize] = val;
                }
                None => self.vals[8 * at + 1] = val,
            }
        }
        for (&head, vals) in self.heads.iter().zip(self.vals.chunks_exact(8)) {
            let mut words = head >> MASK_SHIFT;
            if words == 0 {
                emit(vals[0], vals[1]);
            }
            while words != 0 {
                let word = words.trailing_zeros() as usize;
                emit((head & LINE) << 6 | (word as u64) << 3, vals[word]);
                words &= words - 1;
            }
        }
    }

    /// Keeps, in place, one pair per key — at the position of the key's
    /// first pair, carrying the value of its last.
    pub(crate) fn dedup(&mut self, pairs: &mut Vec<(u64, u64)>) {
        if pairs.len() < 2 {
            return;
        }
        let shift = self.reset(pairs.len());
        let mask = self.slots.len() - 1;
        let mut kept = 0;
        for i in 0..pairs.len() {
            let (key, val) = pairs[i];
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            loop {
                let (stamp, pos) = self.slots[slot];
                if stamp != self.stamp {
                    self.slots[slot] = (self.stamp, kept as u32);
                    pairs[kept] = (key, val);
                    kept += 1;
                    break;
                }
                if pairs[pos as usize].0 == key {
                    pairs[pos as usize].1 = val;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        pairs.truncate(kept);
    }
}

/// The addresses offered since [`SeenSet::clear`]: open addressing with
/// the key in its slot, tagged with the pass's stamp, so clearing is a
/// stamp bump and a probe is one word compare. Offered a run's writes
/// newest first, [`SeenSet::insert`] is `true` exactly at each address's
/// last writer — last-writer-wins without a copy of the pairs. At most
/// half the 8-byte slots are live; the table only grows, to two to four
/// slots per key of the largest pass it has held.
#[derive(Debug, Default)]
pub(crate) struct SeenSet {
    /// `stamp << KEY_BITS | key`; live iff the stamp is current.
    slots: Vec<u64>,
    stamp: u64,
    live: usize,
}

/// Key bits of a [`SeenSet`] slot: heap offsets below 256 TiB.
const KEY_BITS: u32 = 48;

impl SeenSet {
    /// Forgets every key.
    pub(crate) fn clear(&mut self) {
        if self.stamp == u64::MAX >> KEY_BITS {
            self.slots.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.live = 0;
    }

    /// `true` if `key` was not yet in the set.
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        assert!(key >> KEY_BITS == 0, "address {key:#x} out of range");
        if 2 * (self.live + 1) > self.slots.len() {
            // Grow, re-inserting the live keys from the old table.
            let want = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(&mut self.slots, vec![0; want]);
            let stamp = std::mem::replace(&mut self.stamp, 1);
            for slot in old.into_iter().filter(|&s| s >> KEY_BITS == stamp) {
                let key = slot & (u64::MAX >> (64 - KEY_BITS));
                let at = self.probe(key);
                self.slots[at] = 1 << KEY_BITS | key;
            }
        }
        let at = self.probe(key);
        let tagged = self.stamp << KEY_BITS | key;
        if self.slots[at] == tagged {
            return false;
        }
        self.slots[at] = tagged;
        self.live += 1;
        true
    }

    /// The slot holding `key`, or the free slot where it would go.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let tagged = self.stamp << KEY_BITS | key;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while self.slots[at] >> KEY_BITS == self.stamp && self.slots[at] != tagged {
            at = (at + 1) & mask;
        }
        at
    }
}

/// Combines the writes of a group of **consecutive** transactions, given
/// in TID order — `&[LogRecord]`, or the records' slices of their redo
/// rings: later writes to the same address supersede earlier ones (§3.3).
/// Returns the combined writes (arbitrary order — all addresses are
/// distinct).
pub fn combine<R>(records: impl IntoIterator<Item = R>) -> Vec<(u64, u64)>
where
    R: IntoIterator<Item: Borrow<(u64, u64)>>,
{
    let mut map: HashMap<u64, u64> = HashMap::new();
    for pair in records.into_iter().flatten() {
        let &(addr, val) = pair.borrow();
        map.insert(addr, val);
    }
    map.into_iter().collect()
}

/// [`combine`] followed by an address sort — the grouped Persist path's
/// canonical preprocessing. The sort gives replay sequential locality,
/// lets the compressor see runs of shared high address bytes, and makes
/// the serialized group *deterministic*: every Persist worker produces the
/// same bytes for the same group regardless of [`combine`]'s hash order.
pub fn combine_sorted<R>(records: impl IntoIterator<Item = R>) -> Vec<(u64, u64)>
where
    R: IntoIterator<Item: Borrow<(u64, u64)>>,
{
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
        serialize_commit(42, [(8, 1), (16, 2)], &mut buf);
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
        assert_eq!(rec.words, 2);
    }

    /// The v3 bit layout and the five record sizes, word for word:
    /// `check:32 | magic:4 | kind:4 | len:24`, then the ID word(s), then
    /// the payload, no trailer. A commit's payload is line groups —
    /// `mask:8 | line:56`, then the values of the mask's words ascending —
    /// and `0, address, value` escapes.
    #[test]
    fn golden_vectors_fix_the_v3_layout() {
        let mut buf = Vec::new();
        serialize_commit(42, std::iter::empty::<(u64, u64)>(), &mut buf);
        assert_eq!(buf, [0x29a1_a485_d100_0000, 42]);
        // One write: 2 + 1 + 1 words, as in v2.
        serialize_commit(42, [(8, 1)], &mut buf);
        assert_eq!(buf, [0x1301_01ed_d100_0002, 42, 0x0200_0000_0000_0000, 1]);
        // Two words of line 0, ascending: one group.
        serialize_commit(42, [(8, 1), (16, 2)], &mut buf);
        assert_eq!(
            buf,
            [0x58e6_6a51_d100_0003, 42, 0x0600_0000_0000_0000, 1, 2]
        );
        // Line 0 revisited below its last word: a second group, so the
        // order comes back as written.
        serialize_commit(42, [(16, 2), (8, 1)], &mut buf);
        assert_eq!(
            buf,
            [
                0xa1e0_c037_d100_0004,
                42,
                0x0400_0000_0000_0000,
                2,
                0x0200_0000_0000_0000,
                1
            ]
        );
        // Lines 3, 4 and 7 (words 1; 0 and 1; 7).
        serialize_commit(42, [(200, 7), (256, 1), (264, 2), (504, 3)], &mut buf);
        assert_eq!(
            buf,
            [
                0xc69f_45eb_d100_0007,
                42,
                0x0200_0000_0000_0003,
                7,
                0x0300_0000_0000_0004,
                1,
                2,
                0x8000_0000_0000_0007,
                3
            ]
        );
        // An unaligned address escapes and closes the open group: word 2
        // of line 0 after it opens a new one.
        serialize_commit(42, [(8, 1), (13, 5), (16, 2)], &mut buf);
        assert_eq!(
            buf,
            [
                0x2d9a_0146_d100_0007,
                42,
                0x0200_0000_0000_0000,
                1,
                0,
                13,
                5,
                0x0400_0000_0000_0000,
                2
            ]
        );
        // The last line a header names, then 2^62, which escapes.
        serialize_commit(42, [((1 << 62) - 8, 8), (1 << 62, 9)], &mut buf);
        assert_eq!(
            buf,
            [
                0x1a32_e846_d100_0005,
                42,
                0x80ff_ffff_ffff_ffff,
                8,
                0,
                1 << 62,
                9
            ]
        );
        serialize_abort(7, &mut buf);
        assert_eq!(buf, [0x513d_49cc_d200_0000, 7]);
        serialize_group(5, 9, &[(8, 10), (24, 20)], false, &mut buf);
        assert_eq!(buf, [0xabea_f02e_d300_0002, 5, 9, 8, 10, 24, 20]);
        // Eight hot words pack into p = 26 bytes: 3 + ⌈26/8⌉ = 7 words.
        let writes: Vec<(u64, u64)> = (0..8).map(|i| (1024 + i * 8, 7)).collect();
        assert_eq!(serialize_group(5, 9, &writes, true, &mut buf), (128, 26));
        assert_eq!(
            buf,
            [
                0xe430_6ec1_d400_001a,
                5,
                9,
                0x0001_0004_0031_0180,
                0x0008_001f_0005_0810,
                0x0800_1f00_0607_111f,
                0x2600,
            ]
        );
        assert_eq!(skip_word(), 0x8e2b_80da_df00_0000);
    }

    /// A v2 commit record — `n` `(address, value)` pairs, `len = n` — is
    /// not a v3 record at any offset: its length no longer spans its
    /// payload, so the check fails. (v2's empty commit, abort, group and
    /// skip words are v3's, bit for bit: the metadata version is what
    /// refuses a v2 image.)
    #[test]
    fn v2_records_are_not_records() {
        let v2: [&[u64]; 3] = [
            &[0xbfff_24f2_d100_0001, 42, 8, 1],
            &[0x2255_fb62_d100_0002, 42, 8, 1, 16, 2],
            &[0x2255_fb62_d100_0002, 42, 8, 1, 16, 2, 0, 0, 0],
        ];
        for record in v2 {
            for off in 0..record.len() {
                assert!(
                    parse_record(&record[off..]).is_none(),
                    "{record:x?} @ {off}"
                );
            }
        }
    }

    /// There is no v1 reader: the parent commit's records — 32-bit magic
    /// header, count word, 64-bit checksum trailer — do not parse.
    #[test]
    fn v1_records_are_not_records() {
        let v1: [&[u64]; 5] = [
            &[0xd00d_e7a6_0000_0001, 42, 1, 8, 1, 0xc5ac_c0fd_fd6f_70b8],
            &[0xd00d_e7a6_0000_0002, 7, 0, 0x1747_813a_300f_7978],
            &[
                0xd00d_e7a6_0000_0003,
                5,
                9,
                2,
                8,
                10,
                24,
                20,
                0x36d7_146e_bc84_bde8,
            ],
            &[
                0xd00d_e7a6_0000_0004,
                5,
                9,
                26,
                0x0001_0004_0031_0180,
                0x0008_001f_0005_0810,
                0x0800_1f00_0607_111f,
                0x2600,
                0xbf70_1a00_292f_cefb,
            ],
            &[0xd00d_e7a6_0000_000f],
        ];
        for record in v1 {
            for off in 0..record.len() {
                assert!(
                    parse_record(&record[off..]).is_none(),
                    "{record:x?} @ {off}"
                );
            }
            assert!(!is_skip(record[0]));
        }
    }

    #[test]
    #[should_panic(expected = "24-bit header field")]
    fn oversized_length_is_refused_by_the_serializer() {
        header(KIND_COMMIT, LEN_MAX + 1);
    }

    #[test]
    fn empty_commit_roundtrip() {
        let mut buf = Vec::new();
        serialize_commit(1, std::iter::empty::<(u64, u64)>(), &mut buf);
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
        serialize_commit(42, [(8, 1)], &mut buf);
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
        serialize_commit(42, [(8, 1), (16, 2)], &mut buf);
        for cut in 0..buf.len() {
            assert!(parse_record(&buf[..cut]).is_none());
        }
    }

    #[test]
    fn garbage_is_not_a_record() {
        assert!(parse_record(&[]).is_none());
        assert!(parse_record(&[0, 0, 0, 0]).is_none());
        assert!(parse_record(&[u64::MAX; 8]).is_none());
        // A bare header whose claimed length runs past the slice.
        assert!(parse_record(&[header(KIND_COMMIT, LEN_MAX)]).is_none());
    }

    #[test]
    fn skip_marker_identified() {
        assert!(is_skip(skip_word()));
        assert!(!is_skip(header(KIND_COMMIT, 0)));
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
    fn combiner_matches_the_model_across_reuse_and_growth() {
        let mut combiner = Combiner::default();
        let mut x = 7u64;
        // Lengths go up and down so the table is reused, regrown and
        // reused while larger than needed.
        for len in [0usize, 1, 2, 3, 216, 5, 1000, 64, 2] {
            let pairs: Vec<(u64, u64)> = (0..len as u64)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // ~len/3 distinct 8-byte-aligned keys: plenty of rewrites.
                    ((x >> 33) % (len as u64 / 3 + 1) * 8, i)
                })
                .collect();
            let mut want: Vec<(u64, u64)> = Vec::new();
            for &(key, val) in &pairs {
                match want.iter_mut().find(|(k, _)| *k == key) {
                    Some(slot) => slot.1 = val,
                    None => want.push((key, val)),
                }
            }
            let mut got = pairs.clone();
            combiner.dedup(&mut got);
            assert_eq!(got, want, "len {len}");
        }
    }

    /// `by_line` against a model: one pair per address with its last
    /// value, grouped by line in first-touch order with each line's words
    /// ascending, escapes where first written — which serializes to exactly
    /// one group per line.
    #[test]
    fn by_line_matches_the_model_across_reuse_and_growth() {
        let mut combiner = Combiner::default();
        let mut x = 7u64;
        for len in [0usize, 1, 2, 3, 216, 5, 1000, 64, 2] {
            let pairs: Vec<(u64, u64)> = (0..len as u64)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // ~len/3 distinct words, one in 16 of them unaligned and
                    // one in 16 at or above 2^62: both escape.
                    let addr = match (x >> 33) % 16 {
                        0 => (x >> 40) % (len as u64 / 3 + 1) * 8 + 3,
                        1 => (1 << 62) | ((x >> 40) % 4 * 8),
                        _ => (x >> 40) % (len as u64 / 3 + 1) * 8,
                    };
                    (addr, i)
                })
                .collect();
            // Entries in first-touch order: a line, or an escaped address.
            let key = |a: u64| line_word(a).map_or((true, a), |(line, _)| (false, line));
            let mut entries: Vec<(bool, u64)> = Vec::new();
            let mut last = std::collections::HashMap::new();
            for &(addr, val) in &pairs {
                if !entries.contains(&key(addr)) {
                    entries.push(key(addr));
                }
                last.insert(addr, val);
            }
            let mut want = Vec::new();
            for &(escape, k) in &entries {
                let mut words: Vec<_> = last
                    .iter()
                    .filter(|&(&a, _)| key(a) == (escape, k))
                    .map(|(&a, &v)| (a, v))
                    .collect();
                words.sort_unstable();
                want.extend(words);
            }
            let mut got = Vec::new();
            combiner.by_line(pairs.iter().copied(), |a, v| got.push((a, v)));
            assert_eq!(got, want, "len {len}");
            let escapes = entries.iter().filter(|e| e.0).count();
            let lines = entries.len() - escapes;
            let mut buf = Vec::new();
            serialize_commit(1, &got, &mut buf);
            assert_eq!(buf.len(), 2 + lines + (got.len() - escapes) + 3 * escapes);
        }
    }

    #[test]
    fn seen_set_matches_the_model_across_passes_and_growth() {
        let mut seen = SeenSet::default();
        let mut x = 7u64;
        // Pass sizes go up and down so the table is reused, regrown while
        // holding live keys, and reused while larger than needed.
        for len in [0u64, 1, 3, 216, 5, 1000, 64, 2] {
            seen.clear();
            let mut model = std::collections::HashSet::new();
            for _ in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = (x >> 33) % (len / 3 + 1) * 8;
                assert_eq!(seen.insert(key), model.insert(key), "len {len}");
            }
        }
        // Past the stamp's wrap, a cleared set still forgets every key.
        for pass in 0..=u64::MAX >> KEY_BITS {
            seen.clear();
            assert!(seen.insert(pass % 4 * 8), "pass {pass}");
            assert!(!seen.insert(pass % 4 * 8), "pass {pass}");
        }
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
