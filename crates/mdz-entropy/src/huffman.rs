//! Canonical, length-limited Huffman coding over `u32` symbol alphabets.
//!
//! The SZ framework (which MDZ follows) Huffman-codes two integer streams per
//! buffer: the quantization codes and, for the VQ predictor, the level-index
//! deltas. Both alphabets are data-dependent, so the encoder serializes a
//! compact canonical code table (sorted symbols as delta varints plus one
//! length byte each) ahead of the bit-packed payload.
//!
//! [`huffman_encode_into`] is the one encoder ([`huffman_encode`] is its
//! fresh-scratch wrapper). It counts a compact alphabet (below 2^20, the
//! case for quantization codes) in a dense histogram and maps symbols to
//! codes by index; a larger alphabet is counted by a sort and run scan and
//! mapped by binary search, as [`crate::range`] does.
//!
//! Codes are length-limited to [`MAX_CODE_LEN`] bits by frequency rescaling,
//! which keeps decode state machine-word sized. Decoding uses a one-level
//! lookup table for codes up to `LUT_BITS` bits and a canonical
//! first-code scan for longer ones.

use crate::bitio::{BitReader, BitWriter};
use crate::varint::{read_uvarint, write_uvarint};
use crate::{EntropyError, Result, StreamLimits};
use std::collections::BinaryHeap;

/// Upper bound on code lengths after limiting.
pub const MAX_CODE_LEN: u32 = 32;
/// Width of the fast decode lookup table.
const LUT_BITS: u32 = 11;
/// Alphabets whose largest symbol reaches this are counted by sorting and
/// mapped by binary search instead of by index.
const DENSE_LIMIT: u64 = 1 << 20;

/// One canonical code: `len` low bits of `code`, MSB-first on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Code {
    code: u32,
    len: u8,
}

/// Heap entry for the Huffman tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    freq: u64,
    id: usize,
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (freq, id); id tiebreak keeps construction deterministic.
        other.freq.cmp(&self.freq).then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes the Huffman tree depth of each entry of `freqs` (two-queue
/// construction over a binary heap) into `out`, using caller-owned buffers
/// (no allocation once they have grown to the working size).
fn huffman_depths_into(
    freqs: &[u64],
    parent: &mut Vec<usize>,
    heap: &mut BinaryHeap<Node>,
    depth: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    let n = freqs.len();
    // parent[i] for 2n-1 tree nodes; leaves are 0..n.
    parent.clear();
    parent.resize(2 * n - 1, usize::MAX);
    heap.clear();
    heap.extend(freqs.iter().enumerate().map(|(id, &freq)| Node { freq: freq.max(1), id }));
    let mut next_id = n;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Node { freq: a.freq + b.freq, id: next_id });
        next_id += 1;
    }
    let root = next_id - 1;
    depth.clear();
    depth.resize(2 * n - 1, 0u8);
    // Parents always have larger ids, so a reverse sweep resolves depths.
    for id in (0..2 * n - 1).rev() {
        if id != root {
            depth[id] = depth[parent[id]].saturating_add(1);
        }
    }
    out.clear();
    out.extend_from_slice(&depth[..n]);
}

/// Assigns canonical codes to `(symbol, len)` pairs sorted by `(len, symbol)`,
/// replacing the contents of `codes`.
fn assign_canonical(sorted: &[(u32, u8)], codes: &mut Vec<Code>) {
    codes.clear();
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &(_, len) in sorted {
        code <<= len - prev_len;
        codes.push(Code { code, len });
        code += 1;
        prev_len = len;
    }
}

/// Decoder state rebuilt from a serialized canonical table.
struct HuffmanDecoder {
    /// Symbols sorted by `(len, symbol)` — canonical order.
    symbols: Vec<u32>,
    /// `first_code[l]`/`first_index[l]`: canonical ranges per length.
    first_code: [u32; (MAX_CODE_LEN + 2) as usize],
    first_index: [u32; (MAX_CODE_LEN + 2) as usize],
    count: [u32; (MAX_CODE_LEN + 2) as usize],
    /// LUT over the next `LUT_BITS` bits: `(symbol, len)` or `len == 0` for slow path.
    lut: Vec<(u32, u8)>,
    max_len: u32,
}

impl HuffmanDecoder {
    /// Reads a canonical table from `data` at `*pos`.
    fn read_table(data: &[u8], pos: &mut usize) -> Result<Self> {
        let distinct = read_uvarint(data, pos)? as usize;
        // Each serialized entry costs at least two bytes (delta varint +
        // length byte), so an alphabet larger than half the remaining input
        // is structurally impossible — reject before `with_capacity`.
        if distinct > data.len().saturating_sub(*pos) / 2 {
            return Err(EntropyError::Corrupt("alphabet larger than its encoding"));
        }
        let mut pairs: Vec<(u32, u8)> = Vec::with_capacity(distinct);
        let mut prev = 0u64;
        for i in 0..distinct {
            let delta = read_uvarint(data, pos)?;
            if i > 0 && delta == 0 {
                // Sorted-ascending symbols delta-code with strictly positive
                // gaps; a zero delta means a duplicate symbol, which would
                // silently shadow one of its two codes.
                return Err(EntropyError::Corrupt("duplicate symbol in code table"));
            }
            // `checked_add`: a forged delta near u64::MAX must not overflow.
            let sym = if i == 0 { Some(delta) } else { prev.checked_add(delta) }
                .filter(|&s| s <= u64::from(u32::MAX))
                .ok_or(EntropyError::Corrupt("symbol exceeds u32"))?;
            let len = *data.get(*pos).ok_or(EntropyError::UnexpectedEof)?;
            *pos += 1;
            if distinct > 1 && (len == 0 || u32::from(len) > MAX_CODE_LEN) {
                return Err(EntropyError::Corrupt("invalid code length"));
            }
            pairs.push((sym as u32, len));
            prev = sym;
        }
        pairs.sort_unstable_by_key(|&(s, l)| (l, s));
        Self::from_canonical(pairs)
    }

    fn from_canonical(pairs: Vec<(u32, u8)>) -> Result<Self> {
        let mut dec = Self {
            symbols: pairs.iter().map(|&(s, _)| s).collect(),
            first_code: [0; (MAX_CODE_LEN + 2) as usize],
            first_index: [0; (MAX_CODE_LEN + 2) as usize],
            count: [0; (MAX_CODE_LEN + 2) as usize],
            lut: Vec::new(),
            max_len: 0,
        };
        if pairs.len() <= 1 {
            return Ok(dec);
        }
        for &(_, l) in &pairs {
            dec.count[l as usize] += 1;
            dec.max_len = dec.max_len.max(u32::from(l));
        }
        // Canonical ranges and Kraft check.
        let mut code = 0u64;
        let mut index = 0u32;
        for l in 1..=dec.max_len {
            dec.first_code[l as usize] = code as u32;
            dec.first_index[l as usize] = index;
            code += u64::from(dec.count[l as usize]);
            index += dec.count[l as usize];
            if code > (1u64 << l) {
                return Err(EntropyError::Corrupt("code table violates Kraft inequality"));
            }
            code <<= 1;
        }
        // Completeness: after processing the deepest level, the next free
        // code must sit exactly at 2^(max_len+1). Anything less leaves bit
        // patterns that match no symbol — a decoder fed such a table would
        // report "bit pattern matches no code" only when (and if) the hole
        // is hit; reject the table up front instead.
        if code != 1u64 << (dec.max_len + 1) {
            return Err(EntropyError::Corrupt("incomplete code table"));
        }
        // Fast LUT for short codes.
        let lut_len = 1usize << LUT_BITS;
        dec.lut = vec![(0, 0); lut_len];
        let mut codes = Vec::with_capacity(pairs.len());
        assign_canonical(&pairs, &mut codes);
        for (&(sym, len), &c) in pairs.iter().zip(codes.iter()) {
            let len32 = u32::from(len);
            if len32 <= LUT_BITS {
                let shift = LUT_BITS - len32;
                let base = (c.code as usize) << shift;
                for fill in 0..(1usize << shift) {
                    dec.lut[base | fill] = (sym, len);
                }
            }
        }
        Ok(dec)
    }

    /// Decodes one symbol from `bits`.
    #[inline]
    fn decode_symbol(&self, bits: &mut BitReader<'_>) -> Result<u32> {
        // Fast path: peek LUT_BITS bits if available.
        let avail = bits.remaining();
        if avail >= u64::from(LUT_BITS) {
            let mut probe = bits.clone();
            let peek = probe.read_bits(LUT_BITS)? as usize;
            let (sym, len) = self.lut[peek];
            if len != 0 {
                bits.read_bits(u32::from(len))?;
                return Ok(sym);
            }
        }
        // Canonical scan: extend the code one bit at a time.
        let mut code = 0u32;
        for l in 1..=self.max_len {
            code = (code << 1) | bits.read_bit()? as u32;
            let cnt = self.count[l as usize];
            if cnt > 0 {
                let first = self.first_code[l as usize];
                if code >= first && code < first + cnt {
                    let idx = self.first_index[l as usize] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(EntropyError::Corrupt("bit pattern matches no code"))
    }

    /// Decodes `count` symbols with a wide-window refill: one 64-bit peek
    /// serves several LUT lookups before the cursor is advanced once.
    ///
    /// Byte- and error-identical to `count` calls of
    /// [`Self::decode_symbol`]: whenever [`BitReader::peek64`] succeeds, at
    /// least 57 real stream bits remain, so every LUT probe here sees
    /// exactly the bits the scalar path would peek; codes longer than
    /// `LUT_BITS` and the sub-8-byte stream tail are delegated to
    /// [`Self::decode_symbol`] itself.
    fn decode_batched(
        &self,
        bits: &mut BitReader<'_>,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let mut left = count;
        'refill: while left > 0 {
            let Some(window) = bits.peek64() else { break };
            let mut used: u64 = 0;
            while left > 0 && used + u64::from(LUT_BITS) <= 57 {
                let idx = ((window << used) >> (64 - LUT_BITS)) as usize;
                let (sym, len) = self.lut[idx];
                if len == 0 {
                    // Long code: commit what the window already decoded and
                    // take the canonical scan for this one symbol.
                    bits.advance(used);
                    out.push(self.decode_symbol(bits)?);
                    left -= 1;
                    continue 'refill;
                }
                out.push(sym);
                used += u64::from(len);
                left -= 1;
            }
            bits.advance(used);
        }
        for _ in 0..left {
            out.push(self.decode_symbol(bits)?);
        }
        Ok(())
    }
}

/// Encodes `symbols` into a self-contained Huffman stream.
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    huffman_encode_into(symbols, &mut out, &mut HuffmanScratch::default());
    out
}

/// Reusable workspace for [`huffman_encode_into`].
///
/// Holds every intermediate buffer of the encode path (symbol counts, tree
/// arrays, canonical table, bit accumulator) so a steady-state caller
/// performs no heap allocation once the buffers have grown to the working
/// set size.
#[derive(Debug, Clone, Default)]
pub struct HuffmanScratch {
    counts: Vec<u64>,
    ranked: Vec<u32>,
    entries: Vec<(u32, u64)>,
    freqs: Vec<u64>,
    lens: Vec<u8>,
    parent: Vec<usize>,
    depth: Vec<u8>,
    heap: BinaryHeap<Node>,
    table: Vec<(u32, u8)>,
    codes: Vec<Code>,
    map: Vec<Code>,
    bits: BitWriter,
}

/// Appends the stream [`huffman_encode`] produces for `symbols` to `out`,
/// reusing `scratch` for all intermediate state.
///
/// Allocation-free once `scratch` has grown to the working set size.
pub fn huffman_encode_into(symbols: &[u32], out: &mut Vec<u8>, scratch: &mut HuffmanScratch) {
    let HuffmanScratch {
        counts,
        ranked,
        entries,
        freqs,
        lens,
        parent,
        depth,
        heap,
        table,
        codes,
        map,
        bits,
    } = scratch;

    // Count into symbol-sorted `(symbol, count)` entries: a dense histogram
    // for a compact alphabet, a sort and run scan otherwise.
    let max = symbols.iter().copied().max().unwrap_or(0);
    let compact = u64::from(max) < DENSE_LIMIT;
    entries.clear();
    if compact {
        counts.clear();
        counts.resize(max as usize + 1, 0);
        for &s in symbols {
            counts[s as usize] += 1;
        }
        entries.extend(
            counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(s, &c)| (s as u32, c)),
        );
    } else {
        ranked.clear();
        ranked.extend_from_slice(symbols);
        ranked.sort_unstable();
        entries.extend(ranked.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)));
    }

    // Code lengths, parallel to `entries`, rescaling the frequencies until
    // the deepest code fits MAX_CODE_LEN. Halving (with a +1 floor)
    // compresses the frequency range, which bounds the depth of the rebuilt
    // tree; this terminates because the range eventually collapses to
    // all-equal frequencies. A one-symbol alphabet gets length 1.
    lens.clear();
    match entries.len() {
        0 => {}
        1 => lens.push(1),
        _ => {
            freqs.clear();
            freqs.extend(entries.iter().map(|&(_, f)| f));
            loop {
                huffman_depths_into(freqs, parent, heap, depth, lens);
                if lens.iter().all(|&l| u32::from(l) <= MAX_CODE_LEN) {
                    break;
                }
                for f in freqs.iter_mut() {
                    *f = (*f >> 1) + 1;
                }
            }
        }
    }
    table.clear();
    table.extend(entries.iter().zip(lens.iter()).map(|(&(s, _), &l)| (s, l)));
    table.sort_unstable_by_key(|&(s, l)| (l, s));

    // Canonical codes, mapped by symbol for a compact alphabet and by rank
    // in `entries` otherwise.
    assign_canonical(table, codes);
    let rank = |s: u32| entries.binary_search_by_key(&s, |&(e, _)| e).expect("symbol was counted");
    map.clear();
    map.resize(if compact { max as usize + 1 } else { entries.len() }, Code { code: 0, len: 0 });
    for (&(s, _), &c) in table.iter().zip(codes.iter()) {
        map[if compact { s as usize } else { rank(s) }] = c;
    }

    // Stream: symbol count, then the table (distinct count, delta-coded
    // ascending symbols with one length byte each, which `entries` and
    // `lens` already list in that order), then the payload.
    write_uvarint(out, symbols.len() as u64);
    write_uvarint(out, entries.len() as u64);
    let mut prev = 0u32;
    for (&(s, _), &l) in entries.iter().zip(lens.iter()) {
        write_uvarint(out, u64::from(s - prev));
        out.push(l);
        prev = s;
    }
    if entries.len() <= 1 {
        // Zero- and one-symbol alphabets need no payload bits.
        return;
    }
    bits.clear();
    if compact {
        pack(symbols, bits, |s| map[s as usize]);
    } else {
        pack(symbols, bits, |s| map[rank(s)]);
    }
    let payload = bits.flush();
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Appends the code `code_of` gives each symbol to `bits`.
#[inline]
fn pack(symbols: &[u32], bits: &mut BitWriter, code_of: impl Fn(u32) -> Code) {
    for &s in symbols {
        let c = code_of(s);
        debug_assert!(c.len > 0, "symbol not present in encoder frequency set");
        bits.write_bits(u64::from(c.code), u32::from(c.len));
    }
}

/// Decodes a stream produced by [`huffman_encode`], starting at `*pos` and
/// advancing it past the stream.
pub fn huffman_decode_at(data: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    huffman_decode_at_limited(data, pos, &StreamLimits::default())
}

/// [`huffman_decode_at`] with a caller-supplied decode budget.
pub fn huffman_decode_at_limited(
    data: &[u8],
    pos: &mut usize,
    limits: &StreamLimits,
) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    huffman_decode_at_into_limited(data, pos, &mut out, limits)?;
    Ok(out)
}

/// [`huffman_decode_at_limited`] writing the symbols into a caller-owned
/// vector (cleared first), so a streaming decoder can reuse the allocation.
///
/// The declared symbol count is checked against `limits` before any
/// count-proportional allocation. The multi-symbol path additionally bounds
/// the count by the payload's bit capacity (every symbol costs at least one
/// bit when the alphabet has two or more entries); the single-symbol path
/// carries no payload, so it can only be bounded by the budget.
pub fn huffman_decode_at_into_limited(
    data: &[u8],
    pos: &mut usize,
    out: &mut Vec<u32>,
    limits: &StreamLimits,
) -> Result<()> {
    out.clear();
    let count = read_uvarint(data, pos)? as usize;
    limits.check_items(count, "huffman symbol count")?;
    let dec = HuffmanDecoder::read_table(data, pos)?;
    match dec.symbols.len() {
        0 => {
            if count != 0 {
                return Err(EntropyError::Corrupt("nonzero count with empty alphabet"));
            }
            Ok(())
        }
        1 => {
            out.resize(count, dec.symbols[0]);
            Ok(())
        }
        _ => {
            let payload_len = read_uvarint(data, pos)? as usize;
            let end = pos
                .checked_add(payload_len)
                .filter(|&e| e <= data.len())
                .ok_or(EntropyError::UnexpectedEof)?;
            // With two or more symbols every code is at least one bit, so a
            // count beyond the payload's bit capacity is a forged header.
            if count > payload_len.saturating_mul(8) {
                return Err(EntropyError::Corrupt("symbol count exceeds payload bits"));
            }
            let mut bits = BitReader::new(&data[*pos..end]);
            // Cap eager allocation: `count` is untrusted until the payload
            // actually yields that many symbols (a forged header must not
            // OOM us).
            out.reserve(count.min(1 << 20));
            if !crate::kernel::force_scalar() {
                dec.decode_batched(&mut bits, count, out)?;
            } else {
                // Scalar oracle: one LUT peek (or canonical scan) per symbol.
                for _ in 0..count {
                    out.push(dec.decode_symbol(&mut bits)?);
                }
            }
            *pos = end;
            Ok(())
        }
    }
}

/// Decodes a stream produced by [`huffman_encode`].
pub fn huffman_decode(data: &[u8]) -> Result<Vec<u32>> {
    let mut pos = 0;
    let out = huffman_decode_at(data, &mut pos)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(symbols: &[u32]) {
        let enc = huffman_encode(symbols);
        let dec = huffman_decode(&enc).expect("decode");
        assert_eq!(dec, symbols);
    }

    #[test]
    fn empty_input() {
        round_trip(&[]);
    }

    #[test]
    fn single_distinct_symbol() {
        round_trip(&[42; 1000]);
        // One-symbol streams carry no payload bits at all.
        let enc = huffman_encode(&[7u32; 100000]);
        assert!(enc.len() < 16, "degenerate stream should be tiny, got {}", enc.len());
    }

    #[test]
    fn two_symbols() {
        let mut v = vec![0u32; 100];
        v.extend(vec![1u32; 3]);
        round_trip(&v);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros → well under 1 byte/symbol.
        let mut v = Vec::new();
        for i in 0..10_000u32 {
            v.push(if i % 10 == 0 { i % 7 + 1 } else { 0 });
        }
        let enc = huffman_encode(&v);
        assert!(enc.len() < v.len(), "{} vs {}", enc.len(), v.len());
        round_trip(&v);
    }

    #[test]
    fn large_sparse_alphabet() {
        let v: Vec<u32> =
            (0..4000).map(|i| (i * 2_654_435_761u64 % 1_000_000_007) as u32).collect();
        round_trip(&v);
    }

    #[test]
    fn quantization_like_distribution() {
        // Geometric-ish distribution centred at 512, like SZ quantization codes.
        let mut v = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 40) as f64 / (1u64 << 24) as f64;
            let mag = (-r.max(1e-9).ln() * 3.0) as i64;
            let sign = if state & 1 == 0 { 1 } else { -1 };
            v.push((512 + sign * mag) as u32);
        }
        let enc = huffman_encode(&v);
        // Entropy is a few bits/symbol; 4 bytes/symbol raw.
        assert!(enc.len() < v.len() * 2);
        round_trip(&v);
    }

    /// Decodes `enc` through both the batched wide-window path and the
    /// per-symbol scalar oracle and asserts identical results (symbols or
    /// error), regardless of what the ambient kernel level is.
    fn assert_batched_matches_scalar(enc: &[u8]) {
        let limits = StreamLimits::default();
        let decode_with = |batched: bool| -> Result<Vec<u32>> {
            let mut pos = 0;
            let mut out = Vec::new();
            let count = read_uvarint(enc, &mut pos)? as usize;
            limits.check_items(count, "huffman symbol count")?;
            let dec = HuffmanDecoder::read_table(enc, &mut pos)?;
            match dec.symbols.len() {
                0 | 1 => {
                    // Degenerate streams have no batched path; exercise the
                    // public entry point for coverage and return its result.
                    let mut p = 0;
                    huffman_decode_at_into_limited(enc, &mut p, &mut out, &limits)?;
                    Ok(out)
                }
                _ => {
                    let payload_len = read_uvarint(enc, &mut pos)? as usize;
                    let end = pos
                        .checked_add(payload_len)
                        .filter(|&e| e <= enc.len())
                        .ok_or(EntropyError::UnexpectedEof)?;
                    if count > payload_len.saturating_mul(8) {
                        return Err(EntropyError::Corrupt("symbol count exceeds payload bits"));
                    }
                    let mut bits = BitReader::new(&enc[pos..end]);
                    if batched {
                        dec.decode_batched(&mut bits, count, &mut out)?;
                    } else {
                        for _ in 0..count {
                            out.push(dec.decode_symbol(&mut bits)?);
                        }
                    }
                    Ok(out)
                }
            }
        };
        assert_eq!(decode_with(true), decode_with(false));
    }

    #[test]
    fn batched_decode_matches_scalar_on_clean_streams() {
        // Short codes only (LUT hits), including a tail shorter than the
        // 8-byte window.
        let mut skewed = Vec::new();
        for i in 0..10_000u32 {
            skewed.push(if i % 10 == 0 { i % 7 + 1 } else { 0 });
        }
        // Large sparse alphabet: codes longer than LUT_BITS force the
        // canonical-scan handoff mid-window.
        let sparse: Vec<u32> =
            (0..4000).map(|i| (i * 2_654_435_761u64 % 1_000_000_007) as u32).collect();
        // Tiny stream: the whole payload is below the window size.
        let tiny = [3u32, 1, 4, 1, 5, 9, 2, 6];
        for symbols in [&skewed[..], &sparse[..], &tiny[..], &[][..], &[42; 17][..]] {
            let enc = huffman_encode(symbols);
            assert_batched_matches_scalar(&enc);
            let mut pos = 0;
            let mut out = Vec::new();
            huffman_decode_at_into_limited(&enc, &mut pos, &mut out, &StreamLimits::default())
                .expect("decode");
            assert_eq!(out, symbols);
        }
    }

    #[test]
    fn batched_decode_matches_scalar_on_corrupt_streams() {
        let mut symbols = Vec::new();
        for i in 0..2000u32 {
            symbols.push(i % 97);
        }
        let enc = huffman_encode(&symbols);
        // Truncations cut codes mid-stream; bit flips forge invalid codes.
        for cut in [enc.len() - 1, enc.len() - 7, enc.len() - 9, enc.len() / 2] {
            assert_batched_matches_scalar(&enc[..cut]);
        }
        let mut state = 0x5EED_1234_u64;
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut bad = enc.clone();
            let idx = (state >> 33) as usize % bad.len();
            bad[idx] ^= 1 << ((state >> 29) & 7);
            assert_batched_matches_scalar(&bad);
        }
    }

    #[test]
    fn pathological_fibonacci_frequencies_are_length_limited() {
        // Fibonacci frequencies make maximally deep trees; the limiter must cope.
        let mut v = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for s in 0..48u32 {
            for _ in 0..a.min(100_000) {
                v.push(s);
            }
            let c = a + b;
            a = b;
            b = c;
        }
        round_trip(&v);
    }

    #[test]
    fn truncated_stream_errors() {
        let v: Vec<u32> = (0..1000).map(|i| i % 17).collect();
        let enc = huffman_encode(&v);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(huffman_decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_table_errors_not_panics() {
        let v: Vec<u32> = (0..200).map(|i| i % 5).collect();
        let mut enc = huffman_encode(&v);
        // Flip every byte one at a time; decode must never panic.
        for i in 0..enc.len() {
            enc[i] ^= 0xFF;
            let _ = huffman_decode(&enc);
            enc[i] ^= 0xFF;
        }
    }

    #[test]
    fn decode_at_advances_past_stream() {
        let a: Vec<u32> = (0..100).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..50).map(|i| i % 7 + 100).collect();
        let mut buf = huffman_encode(&a);
        buf.extend(huffman_encode(&b));
        let mut pos = 0;
        assert_eq!(huffman_decode_at(&buf, &mut pos).unwrap(), a);
        assert_eq!(huffman_decode_at(&buf, &mut pos).unwrap(), b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn encode_into_is_byte_identical() {
        let inputs: Vec<Vec<u32>> = vec![
            vec![],
            vec![42; 1000],
            (0..1000u32).map(|i| i % 17).collect(),
            (0..4000u32).map(|i| (i as u64 * 2_654_435_761 % 1_000_000_007) as u32).collect(),
            {
                let mut v = vec![0u32; 100];
                v.extend(vec![1u32; 3]);
                v
            },
            {
                // Fibonacci frequencies exercise the length limiter.
                let mut v = Vec::new();
                let (mut a, mut b) = (1u64, 1u64);
                for s in 0..48u32 {
                    for _ in 0..a.min(10_000) {
                        v.push(s);
                    }
                    let c = a + b;
                    a = b;
                    b = c;
                }
                v
            },
            // Sparse and dense alphabets alternate from here on, so each
            // path runs on the scratch the other one left behind.
            vec![0, 1 << 20, u32::MAX, 5, 1 << 20],
            (0..500u32).map(|i| i % 5).collect(),
            vec![u32::MAX; 7],
            vec![3, 1, 4, 1, 5, 9, 2, 6],
            (0..2000u32).map(|i| i.wrapping_mul(2_654_435_761) | 1 << 31).collect(),
            vec![9; 3],
        ];
        let mut scratch = HuffmanScratch::default();
        let mut out = Vec::new();
        for v in &inputs {
            // Reuse the same scratch across inputs: state must not leak.
            out.clear();
            huffman_encode_into(v, &mut out, &mut scratch);
            assert_eq!(out, huffman_encode(v), "{} symbols", v.len());
        }
    }

    #[test]
    fn sparse_alphabet_bytes_are_pinned() {
        // Alphabets reaching 2^20 take the sort-and-search path; these bytes
        // were written by the hash-map encoder that path replaced. The
        // repeated symbol gives the short stream three code lengths, so a
        // miscount changes its table.
        assert_eq!(
            huffman_encode(&[0, 1 << 20, u32::MAX, 5, 1 << 20, 1 << 20]),
            [6, 4, 0, 3, 5, 3, 251, 255, 63, 1, 255, 255, 191, 255, 15, 2, 2, 203, 128]
        );
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let sparse: Vec<u32> =
            (0..4000).map(|i| (i * 2_654_435_761u64 % 1_000_000_007) as u32).collect();
        let enc = huffman_encode(&sparse);
        assert_eq!((enc.len(), fnv1a(&enc)), (21_992, 0xa7d9_c19e_e9aa_994a));
    }

    #[test]
    fn decode_at_into_reuses_buffer() {
        let a: Vec<u32> = (0..100).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..50).map(|i| i % 7 + 100).collect();
        let mut buf = huffman_encode(&a);
        buf.extend(huffman_encode(&b));
        let mut pos = 0;
        let mut out = Vec::new();
        let limits = StreamLimits::default();
        huffman_decode_at_into_limited(&buf, &mut pos, &mut out, &limits).unwrap();
        assert_eq!(out, a);
        huffman_decode_at_into_limited(&buf, &mut pos, &mut out, &limits).unwrap();
        assert_eq!(out, b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn oversubscribed_table_rejected() {
        // Three symbols all claiming one-bit codes violate Kraft: only two
        // one-bit codes exist. Layout: count=0, distinct=3, then
        // (delta, len) entries (0,1) (1,1) (1,1).
        let data = [0u8, 3, 0, 1, 1, 1, 1, 1];
        assert_eq!(
            huffman_decode(&data),
            Err(EntropyError::Corrupt("code table violates Kraft inequality"))
        );
    }

    #[test]
    fn incomplete_table_rejected() {
        // Two symbols with two-bit codes leave half of the two-bit code
        // space unassigned — a decoder would hit "matches no code" only on
        // unlucky payloads; the table itself must be rejected.
        let data = [0u8, 2, 0, 2, 1, 2];
        assert_eq!(huffman_decode(&data), Err(EntropyError::Corrupt("incomplete code table")));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        // delta = 0 for the second entry repeats symbol 5.
        let data = [0u8, 2, 5, 1, 0, 1];
        assert_eq!(
            huffman_decode(&data),
            Err(EntropyError::Corrupt("duplicate symbol in code table"))
        );
    }

    #[test]
    fn alphabet_larger_than_input_rejected() {
        // distinct = 2^28 with almost no bytes behind it.
        let mut data = vec![0u8];
        write_uvarint(&mut data, 1 << 28);
        data.extend_from_slice(&[0, 1]);
        assert_eq!(
            huffman_decode(&data),
            Err(EntropyError::Corrupt("alphabet larger than its encoding"))
        );
    }

    #[test]
    fn count_beyond_payload_bits_rejected() {
        // A complete 2-symbol table with a 1-byte payload cannot yield 1000
        // symbols (each costs at least one bit).
        let mut data = Vec::new();
        write_uvarint(&mut data, 1000); // forged count
        data.extend_from_slice(&[2, 0, 1, 1, 1]); // table: {0:1, 1:1}
        data.extend_from_slice(&[1, 0]); // payload_len=1, payload
        assert_eq!(
            huffman_decode(&data),
            Err(EntropyError::Corrupt("symbol count exceeds payload bits"))
        );
    }

    #[test]
    fn degenerate_count_bounded_by_limits() {
        // Single-symbol streams carry no payload, so a forged count can only
        // be caught by the caller's budget.
        let enc = huffman_encode(&[7u32; 1000]);
        let limits = StreamLimits::with_max_items(100);
        let mut pos = 0;
        assert_eq!(
            huffman_decode_at_limited(&enc, &mut pos, &limits),
            Err(EntropyError::LimitExceeded { what: "huffman symbol count", limit: 100 })
        );
        // The same stream passes under a budget that admits it.
        let mut pos = 0;
        let out =
            huffman_decode_at_limited(&enc, &mut pos, &StreamLimits::with_max_items(1000)).unwrap();
        assert_eq!(out, vec![7u32; 1000]);
    }
}
