//! Redo-log records and their persistent serialization.
//!
//! Every committed transaction produces one redo log: the ordered
//! `(address, value)` pairs it wrote plus an end mark carrying its
//! transaction ID (§3.2, Algorithm 2). A writer that aborted *after*
//! consuming a commit timestamp produces an [`LogRecord::Abort`] marker so
//! the global ID sequence stays dense and the durable ID remains computable;
//! on NVM it is a commit record with no writes.
//!
//! On NVM, records are word streams in format v6 (`DESIGN.md §Pipeline`,
//! *Log format*): a header word `check:32 | magic:4 | kind:4 | len:24`, the
//! transaction ID (first and last ID for groups), then `len` payload bytes,
//! little-endian and zero-padded to a whole word. Every payload is *line
//! groups*, one per run of ascending words of one 64-byte line: a mask byte
//! of the words present, the line minus the previous group's line as a
//! zig-zag LEB128 varint, a 4-bit significant-byte count per value (two to
//! a byte), then each value's significant bytes. A *frame* carries the
//! commit records one Persist sweep stages from one redo ring under one
//! header: the first record's TID, then per record a LEB128 TID step (the
//! TIDs skipped since the previous record; not on the first) and a LEB128
//! byte length, then its line groups. A frame of one is a commit record,
//! with neither prefix. The check covers every other bit of the record;
//! recovery walks the log and discards the first torn record and everything
//! after it (§3.5). Log *combination* keeps only the last write per address
//! — within one transaction, or across a group of **consecutive** ones
//! (§3.3); log *compression* packs a group's payload bytes with
//! [`dude_compress`].

use std::borrow::Borrow;

use dude_txapi::TxId;

/// 4-bit record magic (bits 28..32 of the header word). Non-zero, so
/// neither a wiped word nor a v1 header — whose low half was a bare kind
/// byte — can pass for a header.
const MAGIC: u64 = 0xD;

/// Record kinds (bits 24..28 of the header word).
const KIND_COMMIT: u64 = 1;
const KIND_GROUP: u64 = 3;
const KIND_GROUP_LZ: u64 = 4;
/// A frame of two or more commit records.
const KIND_FRAME: u64 = 5;
/// A single-word marker telling readers to wrap to the ring start.
const KIND_SKIP: u64 = 15;

/// Largest value of the 24-bit length field: payload bytes, for every
/// kind (stored bytes for compressed groups).
const LEN_MAX: usize = (1 << 24) - 1;
const LOW_HALF: u64 = 0xFFFF_FFFF;

/// The line number of an address a line group can name — 8-byte aligned
/// and below 2^62 — and the address's word in that line. Any other address
/// is *escaped*: logged as a zero mask byte, then its 8 address and 8 value
/// bytes.
fn line_word(addr: u64) -> Option<(u64, u64)> {
    (addr & 7 == 0 && addr >> 62 == 0).then_some((addr >> 6, addr >> 3 & 7))
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

/// A record parsed back from persistent memory: a group, or one commit
/// record of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// First transaction ID the record covers.
    pub first_tid: TxId,
    /// Last transaction ID the record covers (== `first_tid` for
    /// single-transaction records).
    pub last_tid: TxId,
    /// The (possibly combined) writes to replay for this ID range.
    pub writes: Vec<(u64, u64)>,
    /// Words the record consumed in the log: a frame's words are counted on
    /// its last record, and its other records count 0.
    pub words: usize,
}

/// The header word of a `kind` record, check bits still zero.
///
/// # Panics
///
/// Panics if `len` does not fit the length field. The ring's "exceeds half
/// the ring" assert fires first for any ring under 32 MiB.
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

/// Finishes a record whose ID words `out` holds: packs `payload` after
/// them, zero-padded to a word, and stamps the header with `kind`, the
/// payload's length and the check.
fn seal(kind: u64, payload: &[u8], out: &mut Vec<u64>) {
    let mut words = payload.chunks_exact(8);
    out.extend(words.by_ref().map(|w| w.read(0, 8)));
    let rest = words.remainder();
    if !rest.is_empty() {
        out.push(rest.read(0, rest.len()));
    }
    out[0] = header(kind, payload.len());
    out[0] |= check(out) << 32;
}

/// Where payload bytes go.
trait Sink {
    /// Appends the low `n ≤ 8` bytes of `v`, little-endian; `v` has no
    /// bit above them.
    fn put(&mut self, v: u64, n: usize);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, v: u64, n: usize) {
        // A fixed 8-byte copy, cut back: no variable-length copy.
        let len = self.len();
        self.extend_from_slice(&v.to_le_bytes());
        self.truncate(len + n);
    }
}

/// Significant bytes of `v`: 0 for 0, 8 for a top byte set.
fn sig_bytes(v: u64) -> usize {
    (71 - v.leading_zeros() as usize) / 8
}

/// `z < 2^49` as LEB128: its (at most seven) seven-bit digits, a byte
/// each, with the continuation bit on all but the last, and their count —
/// no branch on the count.
#[inline]
fn leb(z: u64) -> (u64, usize) {
    debug_assert!(z >> 49 == 0);
    let len = (70 - (z | 1).leading_zeros() as usize) / 7;
    let digits = (0..7).fold(0, |v, i| v | (z >> (7 * i) & 0x7f) << (8 * i));
    (digits | 0x0080_8080_8080_8080 & low_bytes(len - 1), len)
}

/// Appends `z` as a LEB128 varint.
#[inline]
fn put_varint(sink: &mut impl Sink, mut z: u64) {
    if z >> 49 == 0 {
        let (digits, len) = leb(z);
        return sink.put(digits, len);
    }
    while z >= 0x80 {
        sink.put(z & 0x7f | 0x80, 1);
        z >>= 7;
    }
    sink.put(z, 1);
}

/// Appends one line group: its mask byte, `Δline` as a zig-zag LEB128
/// varint, the values' byte counts (value `i`'s in nibble `i`), then the
/// values' significant bytes.
#[inline]
fn put_group(sink: &mut impl Sink, mask: u8, dline: u64, vals: &[u64]) {
    let z = dline << 1 ^ ((dline as i64 >> 63) as u64);
    if z >> 49 == 0 {
        // The mask byte and the varint in one put.
        let (digits, len) = leb(z);
        sink.put(u64::from(mask) | digits << 8, 1 + len);
    } else {
        sink.put(u64::from(mask), 1);
        put_varint(sink, z);
    }
    let counts = vals.iter().enumerate();
    let counts = counts.fold(0, |c, (i, &v)| c | (sig_bytes(v) as u64) << (4 * i));
    sink.put(counts, vals.len().div_ceil(2));
    for &v in vals {
        sink.put(v, sig_bytes(v));
    }
}

/// Appends `writes` to `sink` as line groups, keeping their order: a pair
/// joins the open group iff it is on the group's line and its word is
/// above every word the group holds; otherwise it opens a group (or is an
/// escape, which closes the open one).
fn push_lines(writes: impl IntoIterator<Item: Borrow<(u64, u64)>>, sink: &mut impl Sink) {
    // The open group — line, mask (0: none), values — and the last line.
    let (mut line, mut mask, mut vals, mut n) = (0, 0u8, [0; 8], 0);
    let mut prev = 0u64;
    for pair in writes {
        let &(addr, val) = pair.borrow();
        let at = line_word(addr);
        match at {
            // No bit at or above `word`'s: the word is above the group's.
            Some((at, word)) if mask != 0 && at == line && mask >> word == 0 => {
                mask |= 1 << word;
                vals[n] = val;
                n += 1;
                continue;
            }
            _ if mask != 0 => {
                put_group(sink, mask, line.wrapping_sub(prev), &vals[..n]);
                prev = line;
            }
            _ => {}
        }
        if let Some((at, word)) = at {
            (line, mask, vals[0], n) = (at, 1 << word, val, 1);
        } else {
            mask = 0;
            sink.put(0, 1);
            sink.put(addr, 8);
            sink.put(val, 8);
        }
    }
    if mask != 0 {
        put_group(sink, mask, line.wrapping_sub(prev), &vals[..n]);
    }
}

/// A payload's bytes, `len` of them.
trait Payload {
    fn len(&self) -> usize;
    /// The `n ≤ 8` bytes from `at ≤ len`, little-endian; any past `len`
    /// (a record's padding, or none) read as 0.
    fn read(&self, at: usize, n: usize) -> u64;
}

/// The low `n ≤ 8` bytes of a word set.
fn low_bytes(n: usize) -> u64 {
    // Two shifts of at most 32 bits: 64 − 8n in all, valid for n = 0.
    let half = 32 - 4 * n;
    u64::MAX >> half >> half
}

impl Payload for [u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    #[inline]
    fn read(&self, at: usize, n: usize) -> u64 {
        let word = match self.get(at..at + 8) {
            Some(bytes) => u64::from_le_bytes(bytes.try_into().expect("8 bytes")),
            None => {
                let mut word = [0; 8];
                word[..self.len() - at].copy_from_slice(&self[at..]);
                u64::from_le_bytes(word)
            }
        };
        word & low_bytes(n)
    }
}

/// A record's payload words and its byte length.
struct Words<'a>(&'a [u64], usize);

impl Payload for Words<'_> {
    fn len(&self) -> usize {
        self.1
    }

    #[inline]
    fn read(&self, at: usize, n: usize) -> u64 {
        let (word, shift) = (at / 8, at % 8 * 8);
        let lo = self.0.get(word).map_or(0, |&w| w >> shift);
        // The next word's bytes: none if `shift` is 0.
        let hi = self
            .0
            .get(word + 1)
            .map_or(0, |&w| (w << 1) << (63 - shift));
        (lo | hi) & low_bytes(n)
    }
}

/// The bytes `at..end` of a payload, read front to back.
struct Reader<'a, P: ?Sized> {
    payload: &'a P,
    at: usize,
    end: usize,
}

impl<'a, P: Payload + ?Sized> Reader<'a, P> {
    fn new(payload: &'a P) -> Self {
        Reader {
            payload,
            at: 0,
            end: payload.len(),
        }
    }

    /// The next `n ≤ 8` bytes, if the reader has them.
    #[inline]
    fn take(&mut self, n: usize) -> Option<u64> {
        let v = (self.at + n <= self.end).then(|| self.payload.read(self.at, n))?;
        self.at += n;
        Some(v)
    }

    /// A LEB128 varint: up to eight bytes with one read and no branch on
    /// its length, a longer one a byte at a time.
    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let window = self.payload.read(self.at, 8);
        let stops = !window & 0x8080_8080_8080_8080;
        if stops != 0 {
            let len = stops.trailing_zeros() as usize / 8 + 1;
            self.take(len)?;
            let digits = window & low_bytes(len);
            return Some((0..8).fold(0, |z, i| z | (digits >> (8 * i) & 0x7f) << (7 * i)));
        }
        let (mut z, mut shift) = (0u64, 0);
        loop {
            let byte = self.take(1)?;
            z |= (byte & 0x7f).checked_shl(shift)?;
            if byte < 0x80 {
                return Some(z);
            }
            shift += 7;
        }
    }

    /// Decodes the reader's bytes, if they are exactly line groups and
    /// escapes.
    fn lines(&mut self) -> Option<Vec<(u64, u64)>> {
        let mut writes = Vec::with_capacity((self.end - self.at) / 4);
        let mut line = 0u64;
        while let Some(mask) = self.take(1) {
            if mask == 0 {
                writes.push((self.take(8)?, self.take(8)?));
                continue;
            }
            let z = self.varint()?;
            line = line.wrapping_add(z >> 1 ^ (z & 1).wrapping_neg());
            if line >> 56 != 0 {
                return None;
            }
            let k = mask.count_ones() as usize;
            let counts = self.take(k.div_ceil(2))?;
            if counts >> (4 * k) != 0 {
                return None;
            }
            let mut words = mask;
            for i in 0..k {
                let n = (counts >> (4 * i) & 0xf) as usize;
                if n > 8 {
                    return None;
                }
                let val = self.take(n)?;
                writes.push((line << 6 | u64::from(words.trailing_zeros()) << 3, val));
                words &= words - 1;
            }
        }
        Some(writes)
    }
}

/// The skip marker written when a record would not fit before the ring end.
pub fn skip_word() -> u64 {
    let mut word = vec![0];
    seal(KIND_SKIP, &[], &mut word);
    word[0]
}

/// `true` if `word` is a skip marker.
pub fn is_skip(word: u64) -> bool {
    kind_len(word).is_some_and(|(kind, _)| kind == KIND_SKIP)
}

/// Serializes a commit record — a frame of one — into `out` (clears it
/// first), keeping the writes' order: 2 words, then `len` payload bytes of
/// line groups and escapes in `⌈len/8⌉` words. `writes` is any list of
/// pairs that knows its length — a slice, or a record's slice of its redo
/// ring; a list combined by line (`Combiner::by_line`) has one group per
/// line. An abort marker is a commit with no writes.
pub fn serialize_commit<W>(tid: TxId, writes: W, out: &mut Vec<u64>)
where
    W: IntoIterator<IntoIter: ExactSizeIterator, Item: Borrow<(u64, u64)>>,
{
    let mut frame = FrameWriter::default();
    frame.push(tid, writes);
    frame.finish(out);
}

/// Serializes `records`, in ascending TID order, into `out` (clears it
/// first) as one frame: what a Persist sweep stages from one redo ring. A
/// frame of one is [`serialize_commit`]'s record, an abort is a record
/// with no writes, and a frame of `n` never takes more words than the `n`
/// records it replaces while each TID step is below 2^35. A one-shot form
/// of the `FrameWriter` a Persist worker keeps.
///
/// # Panics
///
/// Panics if `records` is empty or its TIDs do not ascend.
pub fn serialize_frame<'a>(records: impl IntoIterator<Item = &'a LogRecord>, out: &mut Vec<u64>) {
    let mut frame = FrameWriter::default();
    for rec in records {
        frame.push(rec.tid(), rec.writes());
    }
    frame.finish(out);
}

/// A frame being built: its payload bytes, which hold every record's
/// prefixes — the first record's byte length too, dropped if the frame
/// ends with one record — and how to take the last record back out.
#[derive(Debug, Default)]
pub(crate) struct FrameWriter {
    bytes: Vec<u8>,
    /// Records in the frame.
    n: usize,
    /// The first record's and the last record's TIDs.
    first: TxId,
    last: TxId,
    /// Bytes of the first record's length prefix.
    head: usize,
    /// Where the last record starts, and the TID before it.
    mark: usize,
    before: TxId,
}

impl FrameWriter {
    /// Empties the frame.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.n = 0;
    }

    /// Records in the frame.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Appends the record of `tid`, above every TID in the frame.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not above the frame's last TID.
    pub(crate) fn push(&mut self, tid: TxId, writes: impl IntoIterator<Item: Borrow<(u64, u64)>>) {
        (self.mark, self.before) = (self.bytes.len(), self.last);
        if self.n == 0 {
            self.first = tid;
        } else {
            assert!(tid > self.last, "frame TIDs must ascend");
            put_varint(&mut self.bytes, tid - self.last - 1);
        }
        // A one-byte length in front of the line groups, widened once they
        // are known to take 128 bytes or more.
        let at = self.bytes.len();
        self.bytes.push(0);
        push_lines(writes, &mut self.bytes);
        let len = self.bytes.len() - at - 1;
        assert!(len <= LEN_MAX, "record length {len} exceeds a frame");
        let (digits, width) = leb(len as u64);
        if width > 1 {
            self.bytes.splice(at..at, std::iter::repeat_n(0, width - 1));
        }
        self.bytes[at..at + width].copy_from_slice(&digits.to_le_bytes()[..width]);
        if self.n == 0 {
            self.head = width;
        }
        self.last = tid;
        self.n += 1;
    }

    /// Takes the last record back out.
    pub(crate) fn pop(&mut self) {
        assert!(self.n > 0, "pop from an empty frame");
        self.bytes.truncate(self.mark);
        self.last = self.before;
        self.n -= 1;
    }

    /// The payload: without the first record's length if it is alone.
    fn payload(&self) -> &[u8] {
        match self.n {
            1 => &self.bytes[self.head..],
            _ => &self.bytes,
        }
    }

    /// Words the frame takes in the log.
    pub(crate) fn words(&self) -> usize {
        2 + self.payload().len().div_ceil(8)
    }

    /// Serializes the frame into `out` (clears it first).
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty.
    pub(crate) fn finish(&self, out: &mut Vec<u64>) {
        assert!(self.n > 0, "an empty frame");
        let kind = if self.n == 1 { KIND_COMMIT } else { KIND_FRAME };
        out.clear();
        out.reserve(self.words());
        out.extend([0, self.first]);
        seal(kind, self.payload(), out);
    }
}

/// Serializes a combined group covering `first..=last` into `out`, its
/// payload line groups as a commit's ([`serialize_commit`]): 3 words, then
/// the payload's `⌈len/8⌉`. A one-shot form of the `GroupWriter` a Persist
/// worker keeps.
///
/// With `compress`, the payload bytes are packed with [`dude_compress`];
/// the uncompressed encoding is used instead whenever it is not larger.
/// Returns `(payload_bytes_raw, payload_bytes_stored)` for the Figure 3
/// accounting.
pub fn serialize_group(
    first: TxId,
    last: TxId,
    writes: &[(u64, u64)],
    compress: bool,
    out: &mut Vec<u64>,
) -> (usize, usize) {
    GroupWriter::default().serialize(first, last, writes, compress, out)
}

/// What serializing group after group keeps: the payload bytes and
/// compressed bytes of the last group, and the compressor's hash table
/// (a Persist worker's, allocated at its first compressed group).
#[derive(Debug, Default)]
pub(crate) struct GroupWriter {
    raw: Vec<u8>,
    packed: Vec<u8>,
    lz: dude_compress::Compressor,
}

impl GroupWriter {
    /// [`serialize_group`], with this writer's buffers and table.
    pub(crate) fn serialize(
        &mut self,
        first: TxId,
        last: TxId,
        writes: &[(u64, u64)],
        compress: bool,
        out: &mut Vec<u64>,
    ) -> (usize, usize) {
        debug_assert!(first <= last);
        self.raw.clear();
        push_lines(writes, &mut self.raw);
        let mut stored = (KIND_GROUP, &self.raw);
        if compress {
            self.lz.compress_into(&self.raw, &mut self.packed);
            if self.packed.len() < self.raw.len() {
                stored = (KIND_GROUP_LZ, &self.packed);
            }
        }
        out.clear();
        out.extend([0, first, last]);
        seal(stored.0, stored.1, out);
        (self.raw.len(), stored.1.len())
    }
}

/// A check-valid record at `words[0]` with zero padding: its kind, its
/// words, and its payload after the `head` words in front of it.
fn open(words: &[u64]) -> Option<(u64, &[u64], Words<'_>)> {
    let (kind, len) = kind_len(*words.first()?)?;
    // Words in front of the payload.
    let head = match kind {
        KIND_COMMIT | KIND_FRAME => 2,
        KIND_GROUP | KIND_GROUP_LZ => 3,
        _ => return None,
    };
    let record = words.get(..head + len.div_ceil(8))?;
    if record[0] >> 32 != check(record) {
        return None;
    }
    // The padding after the payload's last byte is zero.
    let padding = record[record.len() - 1] >> (8 * (len % 8));
    if len % 8 != 0 && padding != 0 {
        return None;
    }
    Some((kind, record, Words(&record[head..], len)))
}

/// Attempts to parse one record — a group, or a frame of one — starting at
/// `words[0]`.
///
/// Returns `None` if the words do not form a check-valid record with zero
/// padding — recovery treats that as the end of the intact log — or form a
/// frame of several records ([`parse_frame`] reads those).
pub fn parse_record(words: &[u64]) -> Option<ParsedRecord> {
    let (kind, record, body) = open(words)?;
    single(kind, record, &body)
}

/// The record `open` found, if it is one record: a commit or a group.
fn single(kind: u64, record: &[u64], body: &Words<'_>) -> Option<ParsedRecord> {
    let (first_tid, last_tid) = match kind {
        KIND_COMMIT => (record[1], record[1]),
        KIND_GROUP | KIND_GROUP_LZ if record[1] <= record[2] => (record[1], record[2]),
        _ => return None,
    };
    let writes = match kind {
        KIND_GROUP_LZ => {
            let stored: Vec<u8> = (0..body.1).map(|at| body.read(at, 1) as u8).collect();
            Reader::new(&dude_compress::decompress(&stored).ok()?[..]).lines()?
        }
        _ => Reader::new(body).lines()?,
    };
    Some(ParsedRecord {
        first_tid,
        last_tid,
        writes,
        words: record.len(),
    })
}

/// Parses the record or frame starting at `words[0]` into `out`, one
/// [`ParsedRecord`] per record of a frame, and returns the words it takes.
/// `None`, with `out` as it was, where [`parse_record`] would refuse it.
pub fn parse_frame(words: &[u64], out: &mut Vec<ParsedRecord>) -> Option<usize> {
    let (kind, record, body) = open(words)?;
    if kind != KIND_FRAME {
        out.push(single(kind, record, &body)?);
        return Some(record.len());
    }
    let at = out.len();
    let parsed = frame_records(record[1], &body, out);
    // A frame holds two records or more: one is a commit record.
    if parsed.is_none() || out.len() - at < 2 {
        out.truncate(at);
        return None;
    }
    out.last_mut().expect("two records").words = record.len();
    Some(record.len())
}

/// Appends a frame's records, the first `first_tid`'s, to `out`.
fn frame_records(first_tid: TxId, body: &Words<'_>, out: &mut Vec<ParsedRecord>) -> Option<()> {
    let mut r = Reader::new(body);
    let mut tid = first_tid;
    while r.at < r.end {
        if r.at > 0 {
            tid = tid.checked_add(r.varint()?)?.checked_add(1)?;
        }
        let len = usize::try_from(r.varint()?).ok()?;
        let end = r.at.checked_add(len).filter(|&end| end <= r.end)?;
        let writes = Reader { end, ..r }.lines()?;
        r.at = end;
        out.push(ParsedRecord {
            first_tid: tid,
            last_tid: tid,
            writes,
            words: 0,
        });
    }
    Some(())
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

    /// An abort is a commit record with no writes: 2 words.
    #[test]
    fn abort_roundtrip() {
        let mut buf = Vec::new();
        serialize_frame([&LogRecord::Abort { tid: 7 }], &mut buf);
        let mut empty = Vec::new();
        serialize_commit(7, std::iter::empty::<(u64, u64)>(), &mut empty);
        assert_eq!(buf, empty);
        let rec = parse_record(&buf).unwrap();
        assert_eq!(rec.first_tid, 7);
        assert!(rec.writes.is_empty());
        assert_eq!(rec.words, 2);
    }

    /// The record layout of v6 (and v5), byte for byte: `check:32 |
    /// magic:4 | kind:4 | len:24`, then the ID word(s), then `len` payload
    /// bytes zero-padded to a word, no trailer. Every payload is line groups — a mask byte, `Δline` as a
    /// zig-zag LEB128 varint (the line minus the previous group's line,
    /// from 0), a 4-bit byte count per value, two to a byte, then each
    /// value's significant bytes, little-endian — and escapes: a zero mask
    /// byte, then the address's and the value's 8 bytes.
    #[test]
    fn golden_vectors_fix_the_record_layout() {
        let mut buf = Vec::new();
        serialize_commit(42, std::iter::empty::<(u64, u64)>(), &mut buf);
        assert_eq!(buf, [0x29a1_a485_d100_0000, 42]);
        // One write of 1 to word 1 of line 0: mask 0x02, Δline 0, count 1,
        // the value's one byte: 4 payload bytes, 2 + 1 words.
        serialize_commit(42, [(8, 1)], &mut buf);
        assert_eq!(buf, [0x7c1a_9a39_d100_0004, 42, 0x0101_0002]);
        // Two words of line 0, ascending: one group, both counts in one
        // byte (0x11).
        serialize_commit(42, [(8, 1), (16, 2)], &mut buf);
        assert_eq!(buf, [0xb0c3_519f_d100_0005, 42, 0x02_0111_0006]);
        // Line 0 revisited below its last word: a second group, Δline 0, so
        // the order comes back as written.
        serialize_commit(42, [(16, 2), (8, 1)], &mut buf);
        assert_eq!(buf, [0x0f2e_b06b_d100_0008, 42, 0x0101_0002_0201_0004]);
        // Lines 3, 4 and 7 (words 1; 0 and 1; 7): Δline 3, 1, 3 are the
        // varints 06, 02, 06. 13 bytes:
        // 02 06 01 07 | 03 02 11 01 02 | 80 06 01 03.
        serialize_commit(42, [(200, 7), (256, 1), (264, 2), (504, 3)], &mut buf);
        assert_eq!(
            buf,
            [
                0x4ee9_e8e8_d100_000d,
                42,
                0x0111_0203_0701_0602,
                0x03_0106_8002
            ]
        );
        // Line 5, then line 2: Δline −3, zig-zag 5.
        serialize_commit(42, [(320, 1), (128, 2)], &mut buf);
        assert_eq!(buf, [0x2fc1_46c3_d100_0008, 42, 0x0201_0501_0101_0a01]);
        // A zero value has no significant byte: count 0, nothing after.
        serialize_commit(42, [(8, 0), (16, 0x1234)], &mut buf);
        assert_eq!(buf, [0xac05_c77f_d100_0005, 42, 0x12_3420_0006]);
        // A zero value can end the payload on a word boundary: counts 05
        // (5 bytes, then none), 06 00 05 05 04 03 02 01.
        serialize_commit(42, [(8, 0x01_0203_0405), (16, 0)], &mut buf);
        assert_eq!(buf, [0xfba0_f443_d100_0008, 42, 0x0102_0304_0505_0006]);
        assert_eq!(parse_record(&buf).expect("parses").writes[1], (16, 0));
        // An 8-byte value on line 0x12345 (word 3), the shape of a TATP
        // update: mask 08, Δline varint 8a 8d 09, count 08, 8 value bytes
        // — 13 payload bytes, 2 + 2 words.
        let value = 0x0123_4567_89ab_cdef;
        serialize_commit(42, [(64 * 0x12345 + 24, value)], &mut buf);
        assert_eq!(
            buf,
            [
                0x8679_0af9_d100_000d,
                42,
                0xabcd_ef08_098d_8a08,
                0x01_2345_6789
            ]
        );
        // An unaligned address escapes and closes the open group: word 2
        // of line 0 after it opens a new one. 4 + 17 + 4 = 25 bytes.
        serialize_commit(42, [(8, 1), (13, 5), (16, 2)], &mut buf);
        assert_eq!(
            buf,
            [
                0x757e_91d4_d100_0019,
                42,
                0x0d00_0101_0002,
                0x0500_0000_0000,
                0x0100_0400_0000_0000,
                2
            ]
        );
        // An escape is not a group: line 4 after it is Δline 1 from line 3.
        serialize_commit(42, [(200, 7), (13, 5), (264, 2)], &mut buf);
        assert_eq!(
            buf,
            [
                0xa39c_0364_d100_0019,
                42,
                0x0d00_0701_0602,
                0x0500_0000_0000,
                0x0102_0200_0000_0000,
                2
            ]
        );
        // The last line a group names (Δline 2^56 − 1, an 8-byte varint),
        // then 2^62, which escapes.
        serialize_commit(42, [((1 << 62) - 8, 8), (1 << 62, 9)], &mut buf);
        assert_eq!(
            buf,
            [
                0xcdba_6a69_d100_001d,
                42,
                0xffff_ffff_ffff_fe80,
                0x0801_01ff,
                0x0940_0000_0000,
                0
            ]
        );
        // A group over one line: 3 words, then 5 payload bytes, the raw
        // and stored payload bytes.
        assert_eq!(
            serialize_group(5, 9, &[(8, 10), (24, 20)], false, &mut buf),
            (5, 5)
        );
        assert_eq!(buf, [0xebce_0190_d300_0005, 5, 9, 0x14_0a11_000a]);
        // Over two lines: 02 00 01 0a | 02 02 01 14.
        serialize_group(5, 9, &[(8, 10), (72, 20)], false, &mut buf);
        assert_eq!(buf, [0x2091_511a_d300_0008, 5, 9, 0x1401_0202_0a01_0002]);
        // With an escape between them.
        serialize_group(5, 9, &[(8, 10), (13, 5), (72, 20)], false, &mut buf);
        assert_eq!(
            buf,
            [
                0x26ca_67d6_d300_0019,
                5,
                9,
                0x0d00_0a01_0002,
                0x0500_0000_0000,
                0x0102_0200_0000_0000,
                0x14
            ]
        );
        // Sixteen full lines of 7s from line 16: sixteen 14-byte groups
        // (ff 20 11 11 11 11, eight 07s; then Δline 1, varint 02), 224 raw
        // bytes that pack into p = 18: 3 + ⌈18/8⌉ = 6 words, `len` = p.
        let writes: Vec<(u64, u64)> = (0..128).map(|i| (1024 + i * 8, 7)).collect();
        assert_eq!(serialize_group(5, 9, &writes, true, &mut buf), (224, 18));
        assert_eq!(
            buf,
            [
                0x2d92_0603_d400_0012,
                5,
                9,
                0x1111_1120_ff73_01e0,
                0x0e02_ff2f_0001_0711,
                0xbd00
            ]
        );
        assert_eq!(parse_record(&buf).expect("an LZ group").writes, writes);
        assert_eq!(skip_word(), 0x8e2b_80da_df00_0000);
    }

    fn commit(tid: TxId, writes: &[(u64, u64)]) -> LogRecord {
        LogRecord::Commit {
            tid,
            writes: writes.to_vec(),
        }
    }

    /// Frames, byte for byte: the header (kind 5) and the first record's
    /// TID, then per record its TID step — the TIDs skipped since the
    /// previous record, a LEB128 varint, not on the first record — and its
    /// payload's byte length, then its line groups, zero-padded once, at
    /// the end. A frame of one is the commit record.
    #[test]
    fn golden_vectors_fix_the_v6_frame_layout() {
        let mut buf = Vec::new();
        // One TATP update: v5's 4 words.
        let tatp = |tid: u64| commit(tid, &[(64 * (0x12345 + tid) + 24, !tid)]);
        let one = commit(42, &[(64 * 0x12345 + 24, 0x0123_4567_89ab_cdef)]);
        serialize_frame([&one], &mut buf);
        let want = [
            0x8679_0af9_d100_000d,
            42,
            0xabcd_ef08_098d_8a08,
            0x01_2345_6789,
        ];
        assert_eq!(buf, want);
        // TIDs 5 and 8, one narrow write each: 04 | 02 00 01 01, then step
        // 02 (6 and 7 skipped), 04 | 04 00 01 02. 11 bytes, 2 + 2 words
        // where two records take 2 × 3.
        serialize_frame([&commit(5, &[(8, 1)]), &commit(8, &[(16, 2)])], &mut buf);
        assert_eq!(
            buf,
            [0x0392_868b_d500_000b, 5, 0x0404_0201_0100_0204, 0x02_0100]
        );
        // An abort inside a frame is a length 0: 04 02 00 01 01 | 00 00 |
        // 00 04 04 00 01 02, 13 bytes.
        let records = [
            commit(5, &[(8, 1)]),
            LogRecord::Abort { tid: 6 },
            commit(7, &[(16, 2)]),
        ];
        serialize_frame(&records, &mut buf);
        assert_eq!(
            buf,
            [
                0x5709_289e_d500_000d,
                5,
                0x0000_0001_0100_0204,
                0x02_0100_0404
            ]
        );
        let mut parsed = Vec::new();
        assert_eq!(parse_frame(&buf, &mut parsed), Some(4));
        let tids: Vec<_> = parsed.iter().map(|r| (r.first_tid, r.last_tid)).collect();
        assert_eq!(tids, [(5, 5), (6, 6), (7, 7)]);
        assert_eq!(parsed[1].writes, []);
        assert_eq!(
            parsed.iter().map(|r| r.words).collect::<Vec<_>>(),
            [0, 0, 4]
        );
        assert!(parse_record(&buf).is_none(), "not a frame of one");
        // Sixteen TATP updates, 13 payload bytes each: 1 + 13, then 15 ×
        // (1 + 1 + 13) = 239 bytes, 2 + 30 words where sixteen records take
        // 16 × 4.
        let sixteen: Vec<LogRecord> = (1..=16).map(tatp).collect();
        serialize_frame(&sixteen, &mut buf);
        assert_eq!((buf.len(), buf[0] & LOW_HALF), (32, 0xd500_00ef));
        parsed.clear();
        assert_eq!(parse_frame(&buf, &mut parsed), Some(32));
        for (rec, want) in parsed.iter().zip(&sixteen) {
            assert_eq!(
                (rec.first_tid, &rec.writes[..]),
                (want.tid(), want.writes())
            );
        }
    }

    /// A frame's TIDs ascend: a step is what lies between two of them.
    #[test]
    #[should_panic(expected = "frame TIDs must ascend")]
    fn a_frame_refuses_a_tid_out_of_order() {
        serialize_frame([&commit(5, &[]), &commit(5, &[])], &mut Vec::new());
    }

    /// v4's records — a word per line header and per value, `len`
    /// counting words — are not v6 records at any offset but one: v4's
    /// empty commit is v6's, bit for bit (the metadata version is what
    /// refuses a v4 image).
    #[test]
    fn v4_records_are_not_records() {
        let v4: [&[u64]; 4] = [
            &[0x1301_01ed_d100_0002, 42, 0x0200_0000_0000_0000, 1],
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
            &[0x1666_ad30_d300_0003, 5, 9, 0x0a00_0000_0000_0000, 10, 20],
            &[
                0xa34f_23c1_d400_0012,
                5,
                9,
                0xff20_0001_0010_2148,
                0x0800_0000_3f00_0607,
                0x2500,
            ],
        ];
        for record in v4 {
            for off in 0..record.len() {
                assert!(
                    parse_record(&record[off..]).is_none(),
                    "{record:x?} @ {off}"
                );
            }
        }
    }

    /// v3's group records — `n` `(address, value)` pairs with `len = n`,
    /// or LZ over columnar address deltas and values — and its commits are
    /// not v6 records at any offset.
    #[test]
    fn v3_records_are_not_records() {
        let v3: [&[u64]; 3] = [
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
        ];
        for record in v3 {
            for off in 0..record.len() {
                assert!(
                    parse_record(&record[off..]).is_none(),
                    "{record:x?} @ {off}"
                );
            }
        }
    }

    /// A v2 commit record — `n` `(address, value)` pairs, `len = n` — is
    /// not a v6 record at any offset: its length does not span its
    /// payload, so the check fails. (v2's empty commit and skip word are
    /// v6's, bit for bit: the metadata version is what refuses a v2
    /// image.)
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
        // Line 0 (words 1 and 3: 0a 00 11 0a 14), then line 8 (word 1,
        // Δline 8, zig-zag 16: 02 10 01 1e).
        assert_eq!((raw, stored), (9, 9));
        assert_eq!(buf.len(), 3 + 2);
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
    /// repeats for LZ to take, so the group is stored uncompressed — 64
    /// groups of at least a mask, a varint, a count and a value byte.
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
        assert_eq!(stored, raw, "must fall back");
        assert!(raw >= 64 * 4, "{raw} payload bytes");
        assert_eq!(buf.len(), 3 + raw.div_ceil(8));
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

    /// Re-seals `record` after an edit, so only the decoder can refuse it.
    fn reseal(record: &mut [u64]) {
        record[0] &= LOW_HALF;
        record[0] |= check(record) << 32;
    }

    /// A record whose check holds but whose padding after the payload, or
    /// a group's unused count nibble, is not zero is not a record.
    #[test]
    fn non_zero_padding_is_refused() {
        let mut buf = Vec::new();
        // 02 00 01 01: 4 payload bytes, 4 bytes of padding.
        serialize_commit(42, [(8, 1)], &mut buf);
        for byte in 4..8 {
            let mut bad = buf.clone();
            bad[2] |= 1 << (8 * byte);
            reseal(&mut bad);
            assert!(parse_record(&bad).is_none(), "padding byte {byte}");
        }
        // The count byte 01 as 11: a second count for a one-word mask.
        let mut bad = buf.clone();
        bad[2] |= 0x10 << 16;
        reseal(&mut bad);
        assert!(parse_record(&bad).is_none(), "unused count nibble");
        // A count of 9 or more bytes.
        let mut bad = buf.clone();
        bad[2] = bad[2] & !(0xff << 16) | 0x09 << 16;
        reseal(&mut bad);
        assert!(parse_record(&bad).is_none(), "a 9-byte value");
        // The group kinds too: 0a 00 11 0a 14, then three padding bytes.
        serialize_group(5, 9, &[(8, 10), (24, 20)], false, &mut buf);
        buf[3] |= 1 << 56;
        reseal(&mut buf);
        assert!(parse_record(&buf).is_none(), "group padding");
    }

    /// Payload bytes drawn mostly from the values a payload is made of,
    /// under a valid check and every payload kind: the decoder returns
    /// writes or `None`, never panics, and never reads past `len`.
    #[test]
    fn sealed_garbage_never_panics() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut parsed = 0;
        let mut out = Vec::new();
        for round in 0..40_000 {
            let kind = [KIND_COMMIT, KIND_GROUP, KIND_GROUP_LZ, KIND_FRAME][round % 4];
            let len = (next() % 40) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match next() % 8 {
                    0 => 0,
                    1 => 1,
                    2 => 2,
                    3 => 0x11,
                    4 => 0x80,
                    5 => 0xff,
                    _ => next() as u8,
                })
                .collect();
            let mut record = vec![0, 1];
            if kind == KIND_GROUP || kind == KIND_GROUP_LZ {
                record.push(2);
            }
            seal(kind, &bytes, &mut record);
            out.clear();
            if let Some(words) = parse_frame(&record, &mut out) {
                assert_eq!(words, record.len());
                assert_eq!(out.iter().map(|r| r.words).sum::<usize>(), words);
                parsed += 1;
            }
        }
        assert!(parsed > 100, "only {parsed} of the garbage records decoded");
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
    /// to exactly one group per line (`proptest_invariants`'s
    /// `combination_preserves_replay_semantics` counts them).
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
            let mut buf = Vec::new();
            serialize_commit(1, &got, &mut buf);
            assert_eq!(parse_record(&buf).expect("parses").writes, got);
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
