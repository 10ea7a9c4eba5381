//! Static range (arithmetic) coding over `u32` symbol alphabets.
//!
//! Huffman coding loses up to one bit per symbol to code-length rounding;
//! arithmetic coding is the classic remedy and the SZ line of work has
//! explored it as a drop-in for the entropy stage. This module provides a
//! carry-less 64-bit range coder with *static* per-stream frequencies, using
//! the same serialized-table + self-contained-stream conventions as
//! [`crate::huffman`], so the two stages are interchangeable in the MDZ
//! pipeline (and ablatable against each other).
//!
//! Frequencies are rescaled to a ≤ 2¹⁶ total, which with a ≥ 2⁴⁸
//! renormalization floor keeps `range / total` exact and the coder lossless.

use crate::varint::{read_uvarint, write_uvarint};
use crate::{EntropyError, Result, StreamLimits};

/// Upper bound on the rescaled frequency total (16-bit).
const TOTAL_BITS: u32 = 16;
const MAX_TOTAL: u64 = 1 << TOTAL_BITS;
/// Renormalization floor for the range.
const RANGE_FLOOR: u64 = 1 << 48;
/// Top byte extraction shift.
const SHIFT: u32 = 56;

/// Cumulative-frequency model shared by encoder and decoder.
#[derive(Debug, Clone, Default)]
struct Model {
    /// Distinct symbols, ascending.
    symbols: Vec<u32>,
    /// `cum[i]..cum[i+1]` is symbol `i`'s slot; `cum.len() == symbols.len()+1`.
    cum: Vec<u32>,
}

impl Model {
    /// Rebuilds the model in place from `(symbol, count)` pairs sorted by
    /// symbol, rescaling counts so they sum to ≤ [`MAX_TOTAL`] with every
    /// count ≥ 1. `freqs` is a caller-owned scratch buffer.
    fn rebuild(&mut self, entries: &[(u32, u64)], freqs: &mut Vec<u32>) {
        let total: u64 = entries.iter().map(|&(_, c)| c).sum::<u64>().max(1);
        let n = entries.len() as u64;
        freqs.clear();
        freqs.extend(entries.iter().map(|&(_, c)| {
            // Proportional share of (MAX_TOTAL − n), plus 1 so no symbol
            // gets a zero slot.
            let scaled = c * (MAX_TOTAL - n) / total;
            (scaled + 1) as u32
        }));
        // Rounding can overshoot; shave the largest entries down.
        let mut sum: u64 = freqs.iter().map(|&f| u64::from(f)).sum();
        while sum > MAX_TOTAL {
            let i = freqs
                .iter()
                .enumerate()
                .max_by_key(|&(_, &f)| f)
                .map(|(i, _)| i)
                .expect("non-empty");
            freqs[i] -= 1;
            sum -= 1;
        }
        self.cum.clear();
        self.cum.reserve(entries.len() + 1);
        let mut acc = 0u32;
        self.cum.push(0);
        for &f in freqs.iter() {
            acc += f;
            self.cum.push(acc);
        }
        self.symbols.clear();
        self.symbols.extend(entries.iter().map(|&(s, _)| s));
    }

    fn total(&self) -> u32 {
        *self.cum.last().unwrap()
    }

    /// Index of `symbol` in the model.
    fn index_of(&self, symbol: u32) -> Option<usize> {
        self.symbols.binary_search(&symbol).ok()
    }

    /// Symbol index whose slot contains `value` (< total).
    fn slot_of(&self, value: u32) -> usize {
        // partition_point: first i with cum[i] > value, minus one.
        self.cum.partition_point(|&c| c <= value) - 1
    }

    /// Serializes as (count, then per symbol: delta varint, freq varint).
    fn write(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.symbols.len() as u64);
        let mut prev = 0u32;
        for (i, &s) in self.symbols.iter().enumerate() {
            let delta = if i == 0 { u64::from(s) } else { u64::from(s - prev) };
            write_uvarint(out, delta);
            write_uvarint(out, u64::from(self.cum[i + 1] - self.cum[i]));
            prev = s;
        }
    }

    fn read(data: &[u8], pos: &mut usize) -> Result<Self> {
        let n = read_uvarint(data, pos)? as usize;
        // Each serialized entry costs at least two bytes (delta varint +
        // frequency varint), so a model larger than half the remaining input
        // is structurally impossible — reject before `with_capacity`.
        if n > data.len().saturating_sub(*pos) / 2 {
            return Err(EntropyError::Corrupt("model larger than its encoding"));
        }
        let mut symbols = Vec::with_capacity(n);
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0u32);
        let mut prev = 0u64;
        let mut acc = 0u64;
        for i in 0..n {
            let delta = read_uvarint(data, pos)?;
            if i > 0 && delta == 0 {
                // Sorted-ascending symbols delta-code with strictly positive
                // gaps; a zero delta means a duplicate symbol, which breaks
                // the binary search used by the encoder side and silently
                // shadows a slot on decode.
                return Err(EntropyError::Corrupt("duplicate symbol in model"));
            }
            // `checked_add`: a forged delta near u64::MAX must not overflow.
            let sym = if i == 0 { Some(delta) } else { prev.checked_add(delta) }
                .filter(|&s| s <= u64::from(u32::MAX))
                .ok_or(EntropyError::Corrupt("symbol exceeds u32"))?;
            let freq = read_uvarint(data, pos)?;
            if freq == 0 || freq > MAX_TOTAL {
                return Err(EntropyError::Corrupt("invalid frequency"));
            }
            acc += freq;
            if acc > MAX_TOTAL {
                return Err(EntropyError::Corrupt("frequency total overflow"));
            }
            symbols.push(sym as u32);
            cum.push(acc as u32);
            prev = sym;
        }
        Ok(Self { symbols, cum })
    }
}

/// Carry-less range encoder (64-bit low, 56-bit emission).
struct RangeEncoder {
    low: u128,
    range: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    /// Starts an encoder that appends to `buf` (cleared first), so a caller
    /// can recycle the payload allocation across streams.
    fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { low: 0, range: u64::MAX, out: buf }
    }

    #[inline]
    fn encode(&mut self, cum: u32, freq: u32, total: u32) {
        let r = self.range / u64::from(total);
        self.low += u128::from(r) * u128::from(cum);
        self.range = r * u64::from(freq);
        self.normalize();
    }

    #[inline]
    fn normalize(&mut self) {
        // Emit top bytes while the interval's top byte is settled, or force
        // range reduction when it gets too small to subdivide.
        loop {
            let low = self.low as u64; // carry folded into byte emission below
            if (low ^ low.wrapping_add(self.range)) < RANGE_FLOOR {
                // top byte settled
            } else if self.range < (1 << 32) {
                // Carry-less truncation: clamp range to the current byte
                // boundary so the top byte settles.
                self.range = low.wrapping_neg() & ((1 << 32) - 1);
                if self.range == 0 {
                    self.range = 1 << 32;
                }
            } else {
                break;
            }
            self.emit();
        }
    }

    #[inline]
    fn emit(&mut self) {
        // Propagate carry out of the 64-bit window first.
        let carry = (self.low >> 64) as u8;
        if carry != 0 {
            // Ripple the carry into already-emitted bytes.
            for b in self.out.iter_mut().rev() {
                let (nb, overflow) = b.overflowing_add(1);
                *b = nb;
                if !overflow {
                    break;
                }
            }
            self.low &= (1u128 << 64) - 1;
        }
        self.out.push(((self.low as u64) >> SHIFT) as u8);
        self.low = (self.low << 8) & ((1u128 << 64) - 1);
        self.range <<= 8;
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..8 {
            self.emit();
        }
        self.out
    }
}

/// Mirror-image decoder.
struct RangeDecoder<'a> {
    code: u64,
    low: u64,
    range: u64,
    data: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(data: &'a [u8]) -> Self {
        let mut d = Self { code: 0, low: 0, range: u64::MAX, data, pos: 0 };
        for _ in 0..8 {
            d.code = (d.code << 8) | d.next_byte();
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u64 {
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        u64::from(b)
    }

    /// Returns the scaled value in `[0, total)` identifying the next slot.
    #[inline]
    fn decode_value(&mut self, total: u32) -> u32 {
        let r = self.range / u64::from(total);
        let v = (self.code.wrapping_sub(self.low)) / r;
        v.min(u64::from(total) - 1) as u32
    }

    /// Commits the decoded slot.
    #[inline]
    fn consume(&mut self, cum: u32, freq: u32, total: u32) {
        let r = self.range / u64::from(total);
        self.low = self.low.wrapping_add(r.wrapping_mul(u64::from(cum)));
        self.range = r * u64::from(freq);
        loop {
            if (self.low ^ self.low.wrapping_add(self.range)) < RANGE_FLOOR {
                // settled
            } else if self.range < (1 << 32) {
                self.range = self.low.wrapping_neg() & ((1 << 32) - 1);
                if self.range == 0 {
                    self.range = 1 << 32;
                }
            } else {
                break;
            }
            self.code = (self.code << 8) | self.next_byte();
            self.low = self.low.wrapping_shl(8);
            self.range <<= 8;
        }
    }
}

/// Reusable workspace for [`range_encode_into`].
#[derive(Debug, Clone, Default)]
pub struct RangeScratch {
    sorted: Vec<u32>,
    entries: Vec<(u32, u64)>,
    freqs: Vec<u32>,
    model: Model,
    payload: Vec<u8>,
}

/// Encodes `symbols` into a self-contained range-coded stream.
pub fn range_encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    range_encode_into(symbols, &mut out, &mut RangeScratch::default());
    out
}

/// Appends the stream [`range_encode`] produces for `symbols` to `out`,
/// reusing `scratch` for the frequency model and payload buffer.
pub fn range_encode_into(symbols: &[u32], out: &mut Vec<u8>, scratch: &mut RangeScratch) {
    let RangeScratch { sorted, entries, freqs, model, payload } = scratch;
    write_uvarint(out, symbols.len() as u64);
    // Count frequencies via a sort + run scan (entries come out symbol-sorted).
    sorted.clear();
    sorted.extend_from_slice(symbols);
    sorted.sort_unstable();
    entries.clear();
    let mut i = 0;
    while i < sorted.len() {
        let s = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == s {
            j += 1;
        }
        entries.push((s, (j - i) as u64));
        i = j;
    }
    if entries.is_empty() {
        return;
    }
    if entries.len() == 1 {
        // Degenerate: store the symbol only.
        write_uvarint(out, 1);
        write_uvarint(out, u64::from(entries[0].0));
        return;
    }
    model.rebuild(entries, freqs);
    write_uvarint(out, 0); // tag: full model follows
    model.write(out);
    let total = model.total();
    let mut enc = RangeEncoder::with_buffer(std::mem::take(payload));
    for &s in symbols {
        let i = model.index_of(s).expect("symbol in model");
        enc.encode(model.cum[i], model.cum[i + 1] - model.cum[i], total);
    }
    *payload = enc.finish();
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Decodes a stream produced by [`range_encode`] from `data` at `*pos`
/// (advancing it), under a caller-supplied decode budget.
pub fn range_decode_at_limited(
    data: &[u8],
    pos: &mut usize,
    limits: &StreamLimits,
) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    range_decode_at_into_limited(data, pos, &mut out, limits)?;
    Ok(out)
}

/// [`range_decode_at_limited`] writing the symbols into a caller-owned
/// vector (cleared first), so a streaming decoder can reuse the allocation.
///
/// Unlike Huffman, a range-coded symbol can cost less than one bit, so the
/// declared count cannot be bounded by the payload size; the budget is the
/// only defense against a forged count (truncated payloads decode as
/// zero-padding here — the container's CRC frame is what detects them).
pub fn range_decode_at_into_limited(
    data: &[u8],
    pos: &mut usize,
    out: &mut Vec<u32>,
    limits: &StreamLimits,
) -> Result<()> {
    out.clear();
    let count = read_uvarint(data, pos)? as usize;
    limits.check_items(count, "range symbol count")?;
    if count == 0 {
        return Ok(());
    }
    let tag = read_uvarint(data, pos)?;
    if tag == 1 {
        let sym = read_uvarint(data, pos)?;
        if sym > u64::from(u32::MAX) {
            return Err(EntropyError::Corrupt("symbol exceeds u32"));
        }
        out.resize(count, sym as u32);
        return Ok(());
    }
    if tag != 0 {
        return Err(EntropyError::Corrupt("unknown stream tag"));
    }
    let model = Model::read(data, pos)?;
    if model.symbols.is_empty() {
        return Err(EntropyError::Corrupt("empty model with nonzero count"));
    }
    let payload_len = read_uvarint(data, pos)? as usize;
    let end = pos
        .checked_add(payload_len)
        .filter(|&e| e <= data.len())
        .ok_or(EntropyError::UnexpectedEof)?;
    let mut dec = RangeDecoder::new(&data[*pos..end]);
    let total = model.total();
    // Cap eager allocation: `count` is untrusted (forged headers must not
    // OOM us); the decode loop below grows organically.
    out.reserve(count.min(1 << 20));
    for _ in 0..count {
        let v = dec.decode_value(total);
        let i = model.slot_of(v);
        out.push(model.symbols[i]);
        dec.consume(model.cum[i], model.cum[i + 1] - model.cum[i], total);
    }
    *pos = end;
    Ok(())
}

/// Decodes a stream produced by [`range_encode`].
pub fn range_decode(data: &[u8]) -> Result<Vec<u32>> {
    range_decode_at_limited(data, &mut 0, &StreamLimits::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(symbols: &[u32]) -> usize {
        let enc = range_encode(symbols);
        assert_eq!(range_decode(&enc).expect("decode"), symbols);
        enc.len()
    }

    #[test]
    fn empty_and_degenerate() {
        round_trip(&[]);
        round_trip(&[7]);
        let size = round_trip(&[42; 100_000]);
        assert!(size < 16, "degenerate stream should be tiny: {size}");
    }

    #[test]
    fn two_symbol_skew() {
        let mut v = vec![0u32; 10_000];
        v.extend([1u32; 30]);
        let size = round_trip(&v);
        // Entropy ≈ 0.03 bits/symbol; arithmetic coding should get close.
        assert!(size < 400, "got {size}");
    }

    #[test]
    fn beats_or_matches_huffman_on_skewed_data() {
        // 97 % zeros: Huffman pays ≥1 bit/symbol, range coding ~0.2.
        let mut v = Vec::new();
        for i in 0..30_000u32 {
            v.push(if i % 33 == 0 { 1 + i % 4 } else { 0 });
        }
        let range_size = round_trip(&v);
        let huff_size = crate::huffman::huffman_encode(&v).len();
        assert!(range_size < huff_size, "range {range_size} should beat huffman {huff_size} here");
    }

    #[test]
    fn uniform_alphabet() {
        let v: Vec<u32> = (0..20_000).map(|i| i % 256).collect();
        let size = round_trip(&v);
        // 8 bits/symbol ideal → ~20 KB.
        assert!(size < 21_000, "got {size}");
    }

    #[test]
    fn sparse_large_symbols() {
        let v: Vec<u32> = (0..3000).map(|i| (i * 2_654_435_761u64 % 999_999_937) as u32).collect();
        round_trip(&v);
    }

    #[test]
    fn quantization_code_distribution() {
        let mut s = 0x12345678u64;
        let v: Vec<u32> = (0..50_000)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = (s >> 40) as f64 / (1u64 << 24) as f64;
                let mag = (-r.max(1e-9).ln() * 2.5) as i64;
                (512 + if s & 1 == 0 { mag } else { -mag }) as u32
            })
            .collect();
        round_trip(&v);
    }

    #[test]
    fn adversarial_long_carry_chains() {
        // Alternating extremes maximize carry propagation.
        let mut v = Vec::new();
        for i in 0..10_000u32 {
            v.push(if i % 2 == 0 { 0 } else { u32::MAX });
        }
        round_trip(&v);
    }

    #[test]
    fn truncated_streams_error_or_mismatch_not_panic() {
        let v: Vec<u32> = (0..2000).map(|i| i % 37).collect();
        let enc = range_encode(&v);
        for cut in [0, 1, enc.len() / 2] {
            // Truncation may be detected or decode to garbage, but must not
            // panic; header truncation must error.
            let _ = range_decode(&enc[..cut]);
        }
        assert!(range_decode(&enc[..2]).is_err());
    }

    #[test]
    fn garbage_never_panics() {
        let mut s = 1u64;
        for len in [0usize, 1, 7, 64, 300] {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 32) as u8
                })
                .collect();
            let _ = range_decode(&data);
        }
    }

    #[test]
    fn encode_into_with_reused_scratch_is_byte_identical() {
        let inputs: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            vec![42; 1000],
            (0..2000u32).map(|i| i % 37).collect(),
            (0..3000u32).map(|i| (i as u64 * 2_654_435_761 % 999_999_937) as u32).collect(),
        ];
        let mut scratch = RangeScratch::default();
        let mut out = Vec::new();
        for v in &inputs {
            out.clear();
            range_encode_into(v, &mut out, &mut scratch);
            // Fresh-scratch encode (the public wrapper) must agree byte for
            // byte: no state may leak between streams.
            assert_eq!(out, range_encode(v), "{} symbols", v.len());
            let mut pos = 0;
            let mut dec = Vec::new();
            range_decode_at_into_limited(&out, &mut pos, &mut dec, &StreamLimits::default())
                .unwrap();
            assert_eq!(&dec, v);
        }
    }

    #[test]
    fn model_larger_than_input_rejected() {
        // count=1, tag=0, then a model claiming 2^20 entries with no bytes
        // behind it: must fail before any proportional allocation.
        let mut data = Vec::new();
        write_uvarint(&mut data, 1); // count
        write_uvarint(&mut data, 0); // tag: model follows
        write_uvarint(&mut data, 1 << 20); // forged model size
        assert_eq!(
            range_decode(&data),
            Err(EntropyError::Corrupt("model larger than its encoding"))
        );
    }

    #[test]
    fn duplicate_model_symbol_rejected() {
        // Model entries (5, f=1) then (delta=0, f=1) repeat symbol 5.
        let mut data = Vec::new();
        write_uvarint(&mut data, 1); // count
        write_uvarint(&mut data, 0); // tag
        write_uvarint(&mut data, 2); // model size
        data.extend_from_slice(&[5, 1, 0, 1]);
        assert_eq!(range_decode(&data), Err(EntropyError::Corrupt("duplicate symbol in model")));
    }

    #[test]
    fn forged_count_bounded_by_limits() {
        // The degenerate single-symbol path has no payload to cross-check, so
        // the caller budget is the only bound on a forged count.
        let enc = range_encode(&[42u32; 100_000]);
        let limits = StreamLimits::with_max_items(1000);
        let mut pos = 0;
        assert_eq!(
            range_decode_at_limited(&enc, &mut pos, &limits),
            Err(EntropyError::LimitExceeded { what: "range symbol count", limit: 1000 })
        );
        // A full-model stream is budget-checked too.
        let v: Vec<u32> = (0..2000).map(|i| i % 37).collect();
        let enc = range_encode(&v);
        let mut pos = 0;
        assert_eq!(
            range_decode_at_limited(&enc, &mut pos, &limits),
            Err(EntropyError::LimitExceeded { what: "range symbol count", limit: 1000 })
        );
        let mut pos = 0;
        let out =
            range_decode_at_limited(&enc, &mut pos, &StreamLimits::with_max_items(2000)).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn multiple_streams_concatenate() {
        let a: Vec<u32> = (0..500).map(|i| i % 5).collect();
        let b: Vec<u32> = (0..300).map(|i| 100 + i % 9).collect();
        let mut buf = range_encode(&a);
        buf.extend(range_encode(&b));
        let mut pos = 0;
        let limits = StreamLimits::default();
        assert_eq!(range_decode_at_limited(&buf, &mut pos, &limits).unwrap(), a);
        assert_eq!(range_decode_at_limited(&buf, &mut pos, &limits).unwrap(), b);
        assert_eq!(pos, buf.len());
    }
}
