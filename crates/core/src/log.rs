//! Redo-log records and their persistent serialization.
//!
//! Every committed transaction produces one redo log: the ordered
//! `(address, value)` pairs it wrote plus an end mark carrying its
//! transaction ID (§3.2, Algorithm 2). A writer that aborted *after*
//! consuming a commit timestamp produces an [`LogRecord::Abort`] marker so
//! the global ID sequence stays dense and the durable ID remains computable.
//!
//! On NVM, records are word streams in format v4 (`DESIGN.md §Pipeline`,
//! *Log format*): a header word `check:32 | magic:4 | kind:4 | len:24`, the
//! transaction ID (first and last ID for groups), then the payload. Every
//! payload is *line groups*: one `mask:8 | Δline:56` word per run of
//! ascending words of one 64-byte line, then their values. The check
//! covers every other bit of the record; recovery walks the log and
//! discards the first torn record and everything after it (§3.5). Log
//! *combination* keeps only the last write per address — within one
//! transaction, or across a group of **consecutive** ones (§3.3); log
//! *compression* packs a group's payload with [`dude_compress`].

use std::borrow::Borrow;

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

/// Largest value of the 24-bit length field: payload words for commits
/// and groups, payload bytes for compressed groups.
const LEN_MAX: usize = (1 << 24) - 1;
const LOW_HALF: u64 = 0xFFFF_FFFF;

/// The line field of a line-group header (`mask:8 | Δline:56`): the line
/// minus the previous group's line in the same payload, mod 2^56, from 0.
/// The mask of the words present sits above it.
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
/// [`combine_sorted`] combines.
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
    // Index in `out` of the open group's header word; the last group's line.
    let (mut open, mut prev) = (None, 0);
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
            Some(at) if line == prev && out[at] >> (MASK_SHIFT + word as u32) == 0 => {
                out[at] |= bit;
            }
            _ => {
                open = Some(out.len());
                out.push(bit | line.wrapping_sub(prev) & LINE);
                prev = line;
            }
        }
        out.push(val);
    }
}

/// Decodes a payload of line groups and escapes, if it is exactly that.
fn parse_lines(body: &[u64]) -> Option<Vec<(u64, u64)>> {
    let mut writes = Vec::with_capacity(body.len());
    let (mut at, mut line) = (0, 0u64);
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
        line = line.wrapping_add(head) & LINE;
        for &val in vals {
            writes.push((line << 6 | u64::from(mask.trailing_zeros()) << 3, val));
            mask &= mask - 1;
        }
        at += 1 + vals.len();
    }
    Some(writes)
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
/// combined by line (`Combiner::by_line`) has one group per line.
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

/// Serializes a combined group covering `first..=last` into `out`, its
/// payload line groups as a commit's ([`serialize_commit`]): `3 + L + n`
/// words, or `3 + ⌈p/8⌉` for those payload words packed into `p` bytes.
///
/// With `compress`, the payload words are packed with [`dude_compress`];
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
    out.clear();
    out.extend([0, first, last]);
    push_lines(writes, out);
    let raw = 8 * (out.len() - 3);
    if compress {
        let bytes: Vec<u8> = out[3..].iter().flat_map(|w| w.to_le_bytes()).collect();
        let packed = dude_compress::compress(&bytes);
        if packed.len() < raw {
            out.truncate(3);
            out[0] = header(KIND_GROUP_LZ, packed.len());
            for chunk in packed.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                out.push(u64::from_le_bytes(w));
            }
            seal(out);
            return (raw, packed.len());
        }
    }
    out[0] = header(KIND_GROUP, out.len() - 3);
    seal(out);
    (raw, raw)
}

/// Unpacks a compressed group payload of `payload_bytes` bytes.
fn unpack(body: &[u64], payload_bytes: usize) -> Option<Vec<(u64, u64)>> {
    let bytes: Vec<u8> = body.iter().flat_map(|w| w.to_le_bytes()).collect();
    let raw = dude_compress::decompress(bytes.get(..payload_bytes)?).ok()?;
    if raw.len() % 8 != 0 {
        return None;
    }
    let words: Vec<u64> = raw
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        .collect();
    parse_lines(&words)
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
        KIND_GROUP => (3, len),
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
        KIND_GROUP_LZ => unpack(body, len)?,
        _ => parse_lines(body)?,
    };
    Some(ParsedRecord {
        first_tid,
        last_tid,
        writes,
        words: record.len(),
    })
}

/// Open addressing from a list's distinct keys to their entries, which
/// the caller stores in first-touch order: cleared by bumping a stamp
/// instead of rewriting the slots, and grown to keep at most half of them
/// live, so sized by the most distinct keys one list has held.
#[derive(Debug, Default)]
struct Slots {
    /// `(stamp, entry)`; live iff the stamp is current.
    slots: Vec<(u32, u32)>,
    stamp: u32,
}

impl Slots {
    /// Forgets every entry: a stamp bump, or a clear once the stamp would
    /// wrap.
    fn clear(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize(16, (0, 0));
        }
        if self.stamp == u32::MAX {
            self.slots.fill((0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// The slot of `key`'s entry, or the free slot where it would go.
    fn probe(&self, key: u64, key_of: &impl Fn(usize) -> u64) -> usize {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let (stamp, at) = self.slots[slot];
            if stamp != self.stamp || key_of(at as usize) == key {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The entry of `key` among the `n` entries whose keys `key_of` gives,
    /// or `n` — `key`'s from now on, for the caller to store — if new.
    fn entry(&mut self, key: u64, n: usize, key_of: impl Fn(usize) -> u64) -> usize {
        let slot = self.probe(key, &key_of);
        if self.slots[slot].0 == self.stamp {
            return self.slots[slot].1 as usize;
        }
        assert!(n < u32::MAX as usize, "list too long");
        if 2 * (n + 1) <= self.slots.len() {
            self.slots[slot] = (self.stamp, n as u32);
            return n;
        }
        // Grow, re-inserting every entry and then `key`'s.
        let want = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(want, (0, 0));
        self.stamp = 1;
        for at in 0..=n {
            let slot = self.probe(if at < n { key_of(at) } else { key }, &key_of);
            self.slots[slot] = (1, at as u32);
        }
        n
    }
}

/// Scratch space for last-writer-wins combination of one write list,
/// reused list after list: whoever combines repeatedly owns one (a Persist
/// worker, a Sync-mode Perform thread, the Reproduce step, recovery). The
/// one such table in `crates/core`; every table in it grows by distinct
/// keys, never by pairs, and shrinks again after a list far smaller.
#[derive(Debug, Default)]
pub(crate) struct Combiner {
    slots: Slots,
    /// The entries as `(key, entry)`, in first-touch order until
    /// [`Combiner::by_line`] sorts them: a line's first address, or (in
    /// `by_line`) an escaped address itself — distinct, since the one is a
    /// multiple of 64 below 2^62 and the other is not.
    keys: Vec<(u64, u32)>,
    /// Each entry's mask of the line's words written (0 for an escape).
    masks: Vec<u8>,
    /// `by_line`'s eight words per entry: a line's values by word, or an
    /// escape's value.
    vals: Vec<u64>,
}

impl Combiner {
    /// Combines `pairs` by cache line, last writer wins, and hands `emit`
    /// the result sorted by line: lines ascending, each line's words
    /// ascending, and an escaped address (see [`serialize_commit`]) ordered
    /// by the address itself among the lines' first addresses — what
    /// serializes to one line group per line, the same for the same pairs
    /// on every thread. Only the entries are sorted, never the pairs. Every
    /// pair is read before the first `emit`, so `emit` may overwrite the
    /// list `pairs` reads.
    pub(crate) fn by_line(
        &mut self,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        mut emit: impl FnMut(u64, u64),
    ) {
        self.clear();
        for (addr, val) in pairs {
            let line = line_word(addr);
            let key = line.map_or(addr, |(line, _)| line << 6);
            let at = self.slots.entry(key, self.keys.len(), |at| self.keys[at].0);
            if at == self.keys.len() {
                self.keys.push((key, at as u32));
                self.masks.push(0);
                if self.vals.len() < 8 * (at + 1) {
                    self.vals.resize(8 * (at + 1), 0);
                }
            }
            let word = line.map_or(0, |(_, word)| word as usize);
            self.masks[at] |= u8::from(line.is_some()) << word;
            self.vals[8 * at + word] = val;
        }
        self.keys.sort_unstable_by_key(|&(key, _)| key);
        for &(key, at) in &self.keys {
            let (mut words, vals) = (self.masks[at as usize], &self.vals[8 * at as usize..]);
            if words == 0 {
                emit(key, vals[0]);
            }
            while words != 0 {
                let word = words.trailing_zeros() as usize;
                emit(key | (word as u64) << 3, vals[word]);
                words &= words - 1;
            }
        }
        self.trim();
    }

    /// Keeps each word's newest write: offered `pairs` newest first, hands
    /// `store` every pair whose word no earlier pair wrote — each word once,
    /// with its last value — and then hands `flush` the first address of
    /// each line stored to, once, in the order the lines were first met:
    /// after the last store, so no store to a line follows its flush. Keyed
    /// by line with a mask of the words met, so the table grows by lines.
    /// Every address is a word's: there is no escape.
    pub(crate) fn newest(
        &mut self,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        mut store: impl FnMut(u64, u64),
        mut flush: impl FnMut(u64),
    ) {
        self.clear();
        // `(line, entry)` of the previous pair: sorted by line, neighbouring
        // pairs mostly share one, so test it before paying for the table.
        let mut prev = (u64::MAX, 0);
        for (addr, val) in pairs {
            debug_assert!(addr & 7 == 0, "unaligned word {addr:#x}");
            let line = addr & !63;
            if line != prev.0 {
                let at = self
                    .slots
                    .entry(line, self.keys.len(), |at| self.keys[at].0);
                if at == self.keys.len() {
                    self.keys.push((line, at as u32));
                    self.masks.push(0);
                }
                prev = (line, at);
            }
            let (mask, bit) = (&mut self.masks[prev.1], 1 << (addr >> 3 & 7));
            if *mask & bit == 0 {
                *mask |= bit;
                store(addr, val);
            }
        }
        for &(line, _) in &self.keys {
            flush(line);
        }
        self.trim();
    }

    /// Forgets the last list's entries.
    fn clear(&mut self) {
        self.slots.clear();
        self.keys.clear();
        self.masks.clear();
    }

    /// Cuts every table to the need of the list just combined if it used
    /// under a sixteenth of a table larger than [`KEEP_SLOTS`]: one large
    /// list (a load phase's group) does not pin its tables for the owner's
    /// life.
    fn trim(&mut self) {
        let n = self.keys.len();
        if self.slots.slots.len() <= KEEP_SLOTS || 16 * n >= self.slots.slots.len() {
            return;
        }
        self.slots = Slots {
            slots: vec![(0, 0); (2 * n).next_power_of_two().max(16)],
            stamp: 0,
        };
        self.keys.shrink_to_fit();
        self.masks.shrink_to_fit();
        self.vals.truncate(8 * n);
        self.vals.shrink_to_fit();
    }
}

/// The most slots a [`Combiner`]'s table keeps after a list that used under
/// a sixteenth of them.
const KEEP_SLOTS: usize = 4096;

/// Combines the writes of a group of **consecutive** transactions, given
/// in TID order — `&[LogRecord]`, or any lists of pairs: later writes to
/// the same address supersede earlier ones (§3.3). Returns one pair per
/// address in `Combiner::by_line`'s order — by line, each line's words
/// ascending — so every Persist worker serializes the same group to the
/// same bytes, replay sees address order, and a group is one line group
/// per line. The grouped Persist path and every commit run the same
/// combiner, with a table of their own.
pub fn combine_sorted<R>(records: impl IntoIterator<Item = R>) -> Vec<(u64, u64)>
where
    R: IntoIterator<Item: Borrow<(u64, u64)>>,
{
    let mut combined = Vec::new();
    let pairs = records.into_iter().flatten().map(|pair| *pair.borrow());
    Combiner::default().by_line(pairs, |addr, val| combined.push((addr, val)));
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

    /// The v4 bit layout and the five record sizes, word for word:
    /// `check:32 | magic:4 | kind:4 | len:24`, then the ID word(s), then
    /// the payload, no trailer. Every payload is line groups —
    /// `mask:8 | Δline:56`, then the values of the mask's words ascending,
    /// `Δline` the line minus the previous group's line, from 0 — and
    /// `0, address, value` escapes.
    #[test]
    fn golden_vectors_fix_the_v4_layout() {
        let mut buf = Vec::new();
        serialize_commit(42, std::iter::empty::<(u64, u64)>(), &mut buf);
        assert_eq!(buf, [0x29a1_a485_d100_0000, 42]);
        // One write: 2 + 1 + 1 words, as in v2 and v3.
        serialize_commit(42, [(8, 1)], &mut buf);
        assert_eq!(buf, [0x1301_01ed_d100_0002, 42, 0x0200_0000_0000_0000, 1]);
        // Two words of line 0, ascending: one group.
        serialize_commit(42, [(8, 1), (16, 2)], &mut buf);
        assert_eq!(
            buf,
            [0x58e6_6a51_d100_0003, 42, 0x0600_0000_0000_0000, 1, 2]
        );
        // Line 0 revisited below its last word: a second group, Δline 0, so
        // the order comes back as written.
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
        // Lines 3, 4 and 7 (words 1; 0 and 1; 7): Δline 3, 1, 3.
        serialize_commit(42, [(200, 7), (256, 1), (264, 2), (504, 3)], &mut buf);
        assert_eq!(
            buf,
            [
                0x1b96_e80b_d100_0007,
                42,
                0x0200_0000_0000_0003,
                7,
                0x0300_0000_0000_0001,
                1,
                2,
                0x8000_0000_0000_0003,
                3
            ]
        );
        // Line 5, then line 2: Δline −3 mod 2^56.
        serialize_commit(42, [(320, 1), (128, 2)], &mut buf);
        assert_eq!(
            buf,
            [
                0x0125_ad65_d100_0004,
                42,
                0x0100_0000_0000_0005,
                1,
                0x01ff_ffff_ffff_fffd,
                2
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
        // An escape is not a group: line 4 after it is Δline 1 from line 3.
        serialize_commit(42, [(200, 7), (13, 5), (264, 2)], &mut buf);
        assert_eq!(
            buf,
            [
                0x43c2_d6b0_d100_0007,
                42,
                0x0200_0000_0000_0003,
                7,
                0,
                13,
                5,
                0x0200_0000_0000_0001,
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
        // A group over one line: `3 + L + n` = 3 + 1 + 2 words, `len` the
        // payload words, and 8 × 3 raw payload bytes.
        assert_eq!(
            serialize_group(5, 9, &[(8, 10), (24, 20)], false, &mut buf),
            (24, 24)
        );
        assert_eq!(
            buf,
            [0x1666_ad30_d300_0003, 5, 9, 0x0a00_0000_0000_0000, 10, 20]
        );
        // Over two lines: 3 + 2 + 2 words.
        serialize_group(5, 9, &[(8, 10), (72, 20)], false, &mut buf);
        assert_eq!(
            buf,
            [
                0x6399_813d_d300_0004,
                5,
                9,
                0x0200_0000_0000_0000,
                10,
                0x0200_0000_0000_0001,
                20
            ]
        );
        // With an escape between them.
        serialize_group(5, 9, &[(8, 10), (13, 5), (72, 20)], false, &mut buf);
        assert_eq!(
            buf,
            [
                0xae30_ddbc_d300_0007,
                5,
                9,
                0x0200_0000_0000_0000,
                10,
                0,
                13,
                5,
                0x0200_0000_0000_0001,
                20
            ]
        );
        // Eight hot words are one group of line 16 (72 payload bytes),
        // which packs into p = 18 bytes: 3 + ⌈18/8⌉ = 6 words.
        let writes: Vec<(u64, u64)> = (0..8).map(|i| (1024 + i * 8, 7)).collect();
        assert_eq!(serialize_group(5, 9, &writes, true, &mut buf), (72, 18));
        assert_eq!(
            buf,
            [
                0xa34f_23c1_d400_0012,
                5,
                9,
                0xff20_0001_0010_2148,
                0x0800_0000_3f00_0607,
                0x2500,
            ]
        );
        assert_eq!(skip_word(), 0x8e2b_80da_df00_0000);
    }

    /// v3's group records — `n` `(address, value)` pairs with `len = n`,
    /// or LZ over columnar address deltas and values — are not v4 records
    /// at any offset: the pair group's length no longer spans its payload,
    /// so the check fails, and the columnar payload does not decode as
    /// line groups. (v3's commits are v4's whenever every group is on
    /// line 0; any other reads as other lines — the metadata version is
    /// what refuses a v3 image.)
    #[test]
    fn v3_records_are_not_records() {
        let v3: [&[u64]; 2] = [
            &[0xabea_f02e_d300_0002, 5, 9, 8, 10, 24, 20],
            &[
                0xe430_6ec1_d400_001a,
                5,
                9,
                0x0001_0004_0031_0180,
                0x0008_001f_0005_0810,
                0x0800_1f00_0607_111f,
                0x2600,
            ],
        ];
        for record in v3 {
            for off in 0..record.len() {
                assert!(
                    parse_record(&record[off..]).is_none(),
                    "{record:x?} @ {off}"
                );
            }
        }
        // v3's commit over lines 3, 4 and 7 parses as lines 3, 7 and 14.
        let commit = [
            0xc69f_45eb_d100_0007,
            42,
            0x0200_0000_0000_0003,
            7,
            0x0300_0000_0000_0004,
            1,
            2,
            0x8000_0000_0000_0007,
            3,
        ];
        let read = parse_record(&commit).expect("check-valid in v4").writes;
        assert_eq!(read, [(200, 7), (448, 1), (456, 2), (952, 3)]);
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
        let writes = vec![(8, 10), (24, 20), (520, 30)];
        let (raw, stored) = serialize_group(5, 9, &writes, false, &mut buf);
        // Lines 0 and 8: 2 headers and 3 values.
        assert_eq!((raw, stored), (40, 40));
        assert_eq!(buf.len(), 3 + 2 + 3);
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

    /// Random aligned addresses and values, one word per line: nothing
    /// repeats for LZ to take, so the group is stored uncompressed.
    #[test]
    fn incompressible_group_falls_back_to_raw() {
        let mut x = 1u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        };
        let mut writes: Vec<(u64, u64)> = (0..64).map(|_| (next() >> 2 & !7, next())).collect();
        writes.sort_unstable();
        let mut buf = Vec::new();
        let (raw, stored) = serialize_group(1, 64, &writes, true, &mut buf);
        assert_eq!((raw, stored), (8 * 128, 8 * 128), "must fall back");
        assert_eq!(buf.len(), 3 + 128);
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
        assert_eq!(combine_sorted(&records), vec![(8, 3), (16, 1)]);
    }

    /// `by_line` against a model: one pair per address with its last
    /// value, sorted by entry — a line's first address, or an escaped
    /// address itself — with each line's words ascending, which serializes
    /// to exactly one group per line.
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
            let mut last = std::collections::BTreeMap::new();
            for &(addr, val) in &pairs {
                last.insert(addr, val);
            }
            // The entry an address sorts by.
            let key = |a: u64| line_word(a).map_or(a, |(line, _)| line << 6);
            let mut want: Vec<(u64, u64)> = last.into_iter().collect();
            want.sort_by_key(|&(a, _)| (key(a), a));
            let mut got = Vec::new();
            combiner.by_line(pairs.iter().copied(), |a, v| got.push((a, v)));
            assert_eq!(got, want, "len {len}");
            let escapes = got.iter().filter(|&&(a, _)| line_word(a).is_none()).count();
            let mut lines: Vec<u64> = got.iter().map(|&(a, _)| key(a)).collect();
            lines.dedup();
            let lines = lines.len() - escapes;
            let mut buf = Vec::new();
            serialize_commit(1, &got, &mut buf);
            assert_eq!(buf.len(), 2 + lines + (got.len() - escapes) + 3 * escapes);
        }
    }

    /// `newest` against a first-sight model: offered a newest-first list
    /// with rewrites, it stores exactly the pairs whose address no earlier
    /// pair had, in order, then flushes the lines of those stores in the
    /// order first met. Lengths go up and down, so the table is reused,
    /// regrown, kept larger than needed and cut back after a list that
    /// used under a sixteenth of it; a last round runs past the stamp's
    /// wrap.
    #[test]
    fn newest_matches_the_first_sight_model_across_reuse_growth_and_wrap() {
        let mut combiner = Combiner::default();
        let mut x = 7u64;
        let mut check = |combiner: &mut Combiner, len: u64| {
            let pairs: Vec<(u64, u64)> = (0..len)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // ~len/6 lines, four words of each: plenty of rewrites
                    // of a word and more of a line.
                    let (line, word) = ((x >> 33) % (len / 6 + 1), (x >> 20) % 4);
                    (4096 + line * 64 + word * 8, i)
                })
                .collect();
            let mut seen = std::collections::HashSet::new();
            let want: Vec<(u64, u64)> = pairs
                .iter()
                .copied()
                .filter(|&(a, _)| seen.insert(a))
                .collect();
            let mut met = std::collections::HashSet::new();
            let lines: Vec<u64> = want
                .iter()
                .map(|&(a, _)| a & !63)
                .filter(|&line| met.insert(line))
                .collect();
            let (mut stored, mut flushed) = (Vec::new(), Vec::new());
            combiner.newest(
                pairs.iter().copied(),
                |a, v| stored.push((a, v)),
                |line| flushed.push(line),
            );
            assert_eq!(stored, want, "len {len}");
            assert_eq!(flushed, lines, "len {len}");
        };
        for len in [0, 1, 2, 3, 216, 5, 1000, 64, 2, 30_000, 1000, 64] {
            check(&mut combiner, len);
            let slots = combiner.slots.slots.len();
            match len {
                30_000 => assert!(slots > KEEP_SLOTS, "grown to {slots}"),
                _ => assert!(slots <= KEEP_SLOTS, "len {len}: {slots} slots kept"),
            }
        }
        assert!(combiner.keys.capacity() < 1000, "the keys are cut back too");
        combiner.slots.stamp = u32::MAX - 2;
        for len in [64, 5, 216, 3, 1000] {
            check(&mut combiner, len);
        }
        assert!(combiner.slots.stamp < 10, "the stamp wrapped");
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
