//! An LZ77 block compressor — the reproduction's stand-in for lz4.
//!
//! §3.3 of the paper compresses combined redo logs with lz4 before flushing
//! them to NVM, reporting a stable ~69 % compression ratio on its skewed
//! YCSB logs. Redo logs compress well because log entries are
//! `(address, value)` word pairs whose high bytes repeat heavily.
//!
//! The format mirrors lz4's block format in spirit:
//!
//! * a varint header with the decompressed length,
//! * a stream of *sequences*: a token byte holding a 4-bit literal length
//!   and a 4-bit match length (value 15 = "read extension bytes"), the
//!   literal bytes, then a 2-byte little-endian match offset,
//! * a final literals-only sequence.
//!
//! Matching is greedy over a 4-byte hash table, like lz4's fast mode.
//!
//! Why an in-tree compressor stands in for lz4 is covered in
//! `DESIGN.md §Substitutions`; where compression sits in the Persist stage
//! (combined groups only) in `DESIGN.md §Pipeline`.
//!
//! # Example
//!
//! ```
//! let log: Vec<u8> = (0..1000u64).flat_map(|i| (i % 7).to_le_bytes()).collect();
//! let packed = dude_compress::compress(&log);
//! assert!(packed.len() < log.len() / 2);
//! assert_eq!(dude_compress::decompress(&packed)?, log);
//! # Ok::<(), dude_compress::DecompressError>(())
//! ```

#![deny(unsafe_code)]

/// Minimum match length worth encoding (shorter matches cost more than
/// literals).
const MIN_MATCH: usize = 4;
/// Maximum look-back distance (2-byte offsets).
const MAX_OFFSET: usize = 65535;
/// Hash table size for 4-byte prefixes.
const HASH_BITS: u32 = 14;

/// Error returned when decompressing malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The input ended before the encoded stream was complete.
    Truncated,
    /// A match referred to data before the start of the output.
    BadOffset,
    /// The header length did not match the decoded stream.
    LengthMismatch,
}

impl core::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecompressError::Truncated => f.write_str("compressed stream truncated"),
            DecompressError::BadOffset => f.write_str("match offset out of range"),
            DecompressError::LengthMismatch => f.write_str("decoded length mismatch"),
        }
    }
}

impl std::error::Error for DecompressError {}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) & ((1 << HASH_BITS) - 1)) as usize
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, DecompressError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(DecompressError::Truncated)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecompressError::Truncated);
        }
    }
}

/// Writes a length field: a 4-bit nibble plus 255-run extension bytes.
fn push_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_len(input: &[u8], pos: &mut usize, nibble: usize) -> Result<usize, DecompressError> {
    let mut len = nibble;
    if nibble == 15 {
        loop {
            let byte = *input.get(*pos).ok_or(DecompressError::Truncated)?;
            *pos += 1;
            len += byte as usize;
            if byte != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Compresses `input` into a self-describing block.
///
/// Worst-case expansion on incompressible data is bounded (one token per
/// 14-literal run plus the header). A one-shot [`Compressor`]: whoever
/// compresses repeatedly keeps one instead, and gets the same bytes.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    Compressor::default().compress_into(input, &mut out);
    out
}

/// A compressor whose 2^14-slot (128 KiB) hash table outlives a call, so
/// a caller that compresses block after block allocates and fills it once.
///
/// Each slot holds a position plus `base`, and every call starts `base`
/// more than the longest match offset past the last call's end: a slot an earlier
/// call wrote reads as too far back to match, as an empty one did. `base`
/// is the table's generation stamp, and no call refills the table.
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    /// Positions plus `base` by 4-byte hash; empty until the first call.
    table: Vec<u64>,
    /// This call's position 0.
    base: u64,
}

impl Compressor {
    /// Compresses `input` into `out` (cleared first): the bytes
    /// [`compress`] returns for it.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        push_varint(out, input.len() as u64);
        if input.is_empty() {
            return;
        }
        let gap = MAX_OFFSET as u64 + 1;
        if self.table.is_empty() || self.base > u64::MAX / 2 {
            // First use, or (never in practice) a stamp that would wrap.
            self.table = vec![0; 1 << HASH_BITS];
            self.base = gap;
        }
        let (table, base) = (&mut self.table, self.base);
        self.base += input.len() as u64 + gap;
        let mut pos = 0usize;
        let mut literal_start = 0usize;

        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let candidate = table[h];
            table[h] = base + pos as u64;
            let back = base + pos as u64 - candidate;
            let candidate = pos.wrapping_sub(back as usize);
            let matched = back <= MAX_OFFSET as u64
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
            if !matched {
                pos += 1;
                continue;
            }
            // Extend the match as far as possible.
            let mut len = MIN_MATCH;
            while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            emit_sequence(
                out,
                &input[literal_start..pos],
                Some((pos - candidate, len)),
            );
            // Seed the table inside the match so later data can reference it.
            let end = pos + len;
            let mut p = pos + 1;
            while p + MIN_MATCH <= input.len() && p < end {
                table[hash4(&input[p..])] = base + p as u64;
                p += 2; // stride 2: cheaper, nearly as effective
            }
            pos = end;
            literal_start = end;
        }
        emit_sequence(out, &input[literal_start..], None);
    }
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15);
    let (offset, mlen) = match m {
        Some((o, l)) => (o, l),
        None => {
            if literals.is_empty() {
                return; // nothing to encode
            }
            (0, MIN_MATCH) // offset 0 marks "literals only"
        }
    };
    let match_nibble = (mlen - MIN_MATCH).min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        push_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if offset != 0 && match_nibble == 15 {
        push_len(out, mlen - MIN_MATCH - 15);
    }
}

/// Decompresses a block produced by [`compress`].
///
/// # Errors
///
/// Returns a [`DecompressError`] if the stream is truncated, a match offset
/// is invalid, or the decoded length disagrees with the header.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut pos = 0usize;
    let expected = read_varint(input, &mut pos)? as usize;
    // Cap the preallocation: `expected` is untrusted until the stream is
    // fully decoded (a corrupt header must not trigger a giant allocation).
    let mut out = Vec::with_capacity(expected.min(1 << 20));
    while pos < input.len() {
        if out.len() > expected {
            return Err(DecompressError::LengthMismatch);
        }
        let token = input[pos];
        pos += 1;
        let lit_len = read_len(input, &mut pos, (token >> 4) as usize)?;
        if pos + lit_len > input.len() || out.len() + lit_len > expected {
            return Err(DecompressError::Truncated);
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if pos + 2 > input.len() {
            return Err(DecompressError::Truncated);
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 {
            continue; // literals-only terminator sequence
        }
        let mlen = read_len(input, &mut pos, (token & 0x0f) as usize)? + MIN_MATCH;
        if offset > out.len() {
            return Err(DecompressError::BadOffset);
        }
        if out.len() + mlen > expected {
            return Err(DecompressError::LengthMismatch);
        }
        let start = out.len() - offset;
        // Byte-by-byte copy: overlapping matches (offset < len) replicate.
        for i in 0..mlen {
            let b = out[start + i];
            out.push(b);
        }
    }
    if out.len() != expected {
        return Err(DecompressError::LengthMismatch);
    }
    Ok(out)
}

/// Compression ratio as "fraction saved": `1 - compressed/original`.
/// Returns 0.0 for empty input.
pub fn savings(original: usize, compressed: usize) -> f64 {
    if original == 0 {
        return 0.0;
    }
    1.0 - compressed as f64 / original as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("roundtrip decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_input() {
        roundtrip(&[]);
        assert_eq!(compress(&[]).len(), 1);
    }

    #[test]
    fn short_literals() {
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcdefg");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "run-length-ish data: got {}", c.len());
        roundtrip(&data);
    }

    #[test]
    fn redo_log_shape_compresses_well() {
        // (addr, value) pairs with repeating high bytes — the workload from
        // Figure 3.
        let mut log = Vec::new();
        for i in 0..4096u64 {
            log.extend_from_slice(&(0x1000_0000 + (i % 97) * 8).to_le_bytes());
            log.extend_from_slice(&(i % 13).to_le_bytes());
        }
        let c = compress(&log);
        assert!(
            savings(log.len(), c.len()) > 0.6,
            "expected >60% savings, got {:.2}",
            savings(log.len(), c.len())
        );
        roundtrip(&log);
    }

    #[test]
    fn incompressible_data_roundtrips_with_bounded_expansion() {
        // Pseudo-random bytes.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 8 + 16);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_replication() {
        // "abcabcabc..." forces offset < match length.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(1000).collect();
        roundtrip(&data);
        let c = compress(&data);
        assert!(c.len() < 50);
    }

    #[test]
    fn long_literal_runs_use_extension_bytes() {
        // 300 distinct-ish bytes then a repeat to force a >15 literal run.
        let mut data: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 13) as u8).collect();
        data.extend_from_slice(&data.clone());
        roundtrip(&data);
    }

    #[test]
    fn long_match_runs_use_extension_bytes() {
        let mut data = vec![0u8; 8];
        data.extend(std::iter::repeat_n(0xabu8, 5000));
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = vec![1u8; 100];
        let c = compress(&data);
        for cut in 1..c.len() {
            // Every strict prefix must fail, never panic.
            let r = decompress(&c[..cut]);
            assert!(r.is_err() || r.unwrap() != data || cut == c.len());
        }
    }

    #[test]
    fn bad_offset_detected() {
        // Handcraft: header len=4, token lit=0 match=0, offset=9 (> output).
        let mut bad = Vec::new();
        push_varint(&mut bad, 4);
        bad.push(0x00);
        bad.extend_from_slice(&9u16.to_le_bytes());
        assert_eq!(decompress(&bad), Err(DecompressError::BadOffset));
    }

    #[test]
    fn length_mismatch_detected() {
        let data = b"hello world hello world".to_vec();
        let mut c = compress(&data);
        // Corrupt the header length.
        c[0] = c[0].wrapping_add(1);
        assert!(decompress(&c).is_err());
    }

    /// One `Compressor` over inputs long and short, repetitive and random,
    /// writes what a fresh one writes for each, also once its stamp has
    /// been reset.
    #[test]
    fn a_reused_compressor_writes_the_one_shot_bytes() {
        let mut x = 0x12345678u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut lz = Compressor::default();
        let mut out = Vec::new();
        for round in 0..300 {
            if round == 200 {
                lz.base = u64::MAX / 2 - 1000;
            }
            let (len, alphabet) = (next() % 3000, 1 + next() % 256);
            let data: Vec<u8> = (0..len).map(|_| (next() % alphabet) as u8).collect();
            lz.compress_into(&data, &mut out);
            assert_eq!(out, compress(&data), "round {round}");
        }
        assert!(lz.base < u64::MAX / 4, "the stamp was reset");
    }

    #[test]
    fn savings_helper() {
        assert_eq!(savings(0, 0), 0.0);
        assert!((savings(100, 31) - 0.69).abs() < 1e-9);
    }
}
