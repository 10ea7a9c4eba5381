//! The error-bounded linear quantizer every block codes through, and the
//! bit-adaptive packing of its code stream.
//!
//! Given a prediction `p` for value `d` and absolute bound `eps`, the
//! quantization code is `q = round((d − p) / (2·eps))`, reconstructed as
//! `p + 2·eps·q`, which guarantees `|d − d'| ≤ eps`. Codes are biased by the
//! radius `R` into `[1, 2R)`; code `0` is the *escape* marker — the value is
//! then stored verbatim (bit exact), which both bounds the Huffman alphabet
//! (the paper's "quantization scale" tuning, §VI-C1) and handles wild
//! outliers and non-finite values.
//!
//! [`LinearQuantizer`] is that arithmetic for one `(eps, R)`. Classic blocks
//! use the configured radius (the paper's 1024-code scale with the default
//! radius 512) and entropy-code the codes. Bit-adaptive blocks keep the
//! identical step/bound arithmetic but widen the escape radius to 2²³
//! steps, and `write_bit_adaptive`/`read_bit_adaptive` store their codes
//! with per-chunk bit widths sized to the local residual magnitude — the
//! right trade for non-crystal particle data whose residuals span orders of
//! magnitude. Bit-adaptivity changes how codes are stored, not how they are
//! computed.
//!
//! Escaped values travel in an escape list with one writer and one reader,
//! [`write_escapes`] and [`read_escapes`], shared by MDZ blocks and the
//! baselines, so every decoder rejects a forged list the same way.

use std::collections::HashMap;

use mdz_entropy::{read_uvarint, write_uvarint, BitReader, BitWriter, EntropyError, StreamLimits};

use crate::{MdzError, Result};

/// Stateless quantizer for one `(eps, radius)` setting.
#[derive(Debug, Clone, Copy)]
pub struct LinearQuantizer {
    eps: f64,
    /// Precomputed `1 / (2·eps)`.
    inv_step: f64,
    /// Codes span `[1, 2·radius)`; the bias added to `q` is `radius`.
    radius: u32,
}

/// Outcome of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantized {
    /// In-range code (never 0) plus the decoder-visible reconstruction.
    Code(u32),
    /// Out of range or non-finite: store the value verbatim.
    Escape,
}

impl LinearQuantizer {
    /// Creates a quantizer. `eps` must be positive and finite; `radius ≥ 2`.
    pub fn new(eps: f64, radius: u32) -> Self {
        debug_assert!(eps > 0.0 && eps.is_finite());
        debug_assert!(radius >= 2);
        Self { eps, inv_step: 0.5 / eps, radius }
    }

    /// The absolute error bound.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The code-space radius (half the quantization scale).
    #[inline]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Exclusive upper bound of the code alphabet: valid codes are
    /// `0 <= code < 2·radius`, with 0 reserved for escapes. The decoder
    /// checks code streams against this, never against a re-derived bound.
    pub(crate) fn code_space(&self) -> u64 {
        2 * u64::from(self.radius)
    }

    /// The precomputed `0.5 / eps` multiplier, exposed so the SIMD kernels
    /// replicate the scalar arithmetic bit-for-bit instead of re-deriving it.
    pub(crate) fn inv_step(&self) -> f64 {
        self.inv_step
    }

    /// Quantizes `value` against `prediction`.
    ///
    /// Returns the code and writes the *reconstructed* value (what the
    /// decoder will see) into `recon` — predictors must feed reconstructions,
    /// not originals, into subsequent predictions.
    #[inline]
    pub fn quantize(&self, value: f64, prediction: f64, recon: &mut f64) -> Quantized {
        let diff = value - prediction;
        if !diff.is_finite() {
            *recon = value;
            return Quantized::Escape;
        }
        let qf = (diff * self.inv_step).round();
        if qf.abs() >= self.radius as f64 {
            *recon = value;
            return Quantized::Escape;
        }
        let q = qf as i64;
        let reconstructed = prediction + 2.0 * self.eps * q as f64;
        // Guard: floating-point rounding at extreme magnitudes could break
        // the bound; escape instead of emitting an unsound code.
        if !(reconstructed - value).abs().le(&self.eps) {
            *recon = value;
            return Quantized::Escape;
        }
        *recon = reconstructed;
        Quantized::Code((q + self.radius as i64) as u32)
    }

    /// Reconstructs a value from an in-range code (code ≠ 0).
    #[inline]
    pub fn reconstruct(&self, code: u32, prediction: f64) -> f64 {
        let q = code as i64 - self.radius as i64;
        prediction + 2.0 * self.eps * q as f64
    }
}

/// Bytes one serialized escape costs at minimum: a ≥1-byte index delta
/// varint plus the 8-byte raw `f64` value. Bounds the escape count by the
/// remaining input.
const MIN_ESCAPE_BYTES: usize = 9;

/// Appends the escape list `escapes` (flat index, verbatim value; indices
/// ascending) to `out` (FORMAT.md §4.1): the count, then per escape the
/// varint gap from the previous index (the first index itself) and the
/// value's 8 little-endian bytes.
pub fn write_escapes(out: &mut Vec<u8>, escapes: &[(usize, f64)]) {
    write_uvarint(out, escapes.len() as u64);
    let mut prev = 0;
    for &(idx, value) in escapes {
        write_uvarint(out, (idx - prev) as u64);
        out.extend_from_slice(&value.to_le_bytes());
        prev = idx;
    }
}

/// Parses an escape list written by [`write_escapes`] from `data` at `*pos`
/// (advancing it) into `out` (cleared first), for a stream of `n_values`
/// codes. A count beyond `n_values` or what the remaining input can hold
/// (checked before reserving), an index gap that overflows and an index
/// past `n_values` are [`MdzError::Corrupt`]; a truncated value is
/// [`EntropyError::UnexpectedEof`].
pub fn read_escapes(
    data: &[u8],
    pos: &mut usize,
    n_values: usize,
    out: &mut HashMap<usize, f64>,
) -> Result<()> {
    let count = read_uvarint(data, pos)? as usize;
    if count > n_values {
        return Err(MdzError::Corrupt { what: "escape count exceeds block size" });
    }
    if count > data.len().saturating_sub(*pos) / MIN_ESCAPE_BYTES {
        return Err(MdzError::Corrupt { what: "escape count exceeds input size" });
    }
    // The count is now input-proportional, so this reservation is bounded
    // by the input size.
    out.clear();
    out.reserve(count.min(1 << 20));
    let mut idx = 0u64;
    for _ in 0..count {
        idx = idx
            .checked_add(read_uvarint(data, pos)?)
            .ok_or(MdzError::Corrupt { what: "escape index overflow" })?;
        if idx >= n_values as u64 {
            return Err(MdzError::Corrupt { what: "escape index out of range" });
        }
        let value: [u8; 8] = data
            .get(*pos..*pos + 8)
            .and_then(|bytes| bytes.try_into().ok())
            .ok_or(MdzError::Stream(EntropyError::UnexpectedEof))?;
        *pos += 8;
        out.insert(idx as usize, f64::from_le_bytes(value));
    }
    Ok(())
}

/// Escape radius of bit-adaptive blocks: residuals up to ±(2²³ − 1) steps
/// stay in-code, and the widest per-chunk code is [`MAX_CODE_BITS`] bits.
pub(crate) const BIT_ADAPTIVE_RADIUS: u32 = 1 << 23;
/// Largest per-chunk code width the format permits.
const MAX_CODE_BITS: u8 = 24;
/// Default codes per width region, used by configs and ADP trial candidates.
pub(crate) const DEFAULT_CHUNK: usize = 64;
/// Largest chunk size a well-formed stream may declare.
pub(crate) const MAX_CHUNK: usize = 1 << 20;

/// Bits needed to store residual `q` as a local chunk symbol (sign
/// included); `0` for an exact prediction.
fn width_of(q: i64) -> u8 {
    let mag = q.unsigned_abs();
    if mag == 0 {
        0
    } else {
        (64 - mag.leading_zeros() + 1) as u8
    }
}

/// Appends the bit-adaptive form of `quant`'s code stream `codes` to `out`
/// (FORMAT.md §4.5): the stream is cut into chunks of `chunk` codes, and
/// each chunk stores its codes in exactly the bits its largest residual
/// needs.
///
/// Per chunk with width `b`: local symbol `0` is the escape, and a residual
/// `q` is stored as `q + 2^(b−1)` in `[1, 2^b − 1]`. `b = 0` marks a chunk
/// whose every residual is exactly `0` (no bits stored at all).
pub(crate) fn write_bit_adaptive(
    codes: &[u32],
    quant: &LinearQuantizer,
    chunk: usize,
    out: &mut Vec<u8>,
) {
    let cap = i64::from(quant.radius());
    write_uvarint(out, chunk as u64);
    write_uvarint(out, codes.len() as u64);
    // Pass 1: one width byte per chunk — the max over its residuals,
    // with escapes forcing at least 1 bit (local symbol 0).
    let widths: Vec<u8> = codes
        .chunks(chunk)
        .map(|region| {
            region
                .iter()
                .map(|&c| if c == 0 { 1 } else { width_of(i64::from(c) - cap) })
                .max()
                .unwrap_or(0)
        })
        .collect();
    out.extend_from_slice(&widths);
    // Pass 2: pack each chunk's local symbols MSB-first.
    let mut bits = BitWriter::new();
    for (region, &w) in codes.chunks(chunk).zip(&widths) {
        if w == 0 {
            continue;
        }
        let bias = 1i64 << (w - 1);
        for &c in region {
            let local = if c == 0 { 0 } else { i64::from(c) - cap + bias };
            debug_assert!((0..(1i64 << w)).contains(&local));
            bits.write_bits(local as u64, u32::from(w));
        }
    }
    out.extend_from_slice(bits.flush());
}

/// Parses a code stream written by [`write_bit_adaptive`] from `data` at
/// `*pos`, replacing the contents of `out` with codes of `quant`'s code
/// space. The chunk size is read from the stream itself; the declared code
/// count is checked against `limits` before anything is reserved.
pub(crate) fn read_bit_adaptive(
    data: &[u8],
    pos: &mut usize,
    quant: &LinearQuantizer,
    out: &mut Vec<u32>,
    limits: &StreamLimits,
) -> Result<()> {
    let cap = i64::from(quant.radius());
    let space = quant.code_space() as i64;
    let chunk = read_uvarint(data, pos)? as usize;
    if !(1..=MAX_CHUNK).contains(&chunk) {
        return Err(MdzError::Corrupt { what: "bit-adaptive chunk size out of range" });
    }
    let count = read_uvarint(data, pos)? as usize;
    limits.check_items(count, "bit-adaptive code count").map_err(MdzError::from)?;
    let n_chunks = count.div_ceil(chunk);
    let widths =
        data.get(*pos..*pos + n_chunks).ok_or(MdzError::from(EntropyError::UnexpectedEof))?;
    *pos += n_chunks;
    let mut total_bits = 0u64;
    for (ci, &w) in widths.iter().enumerate() {
        if w > MAX_CODE_BITS {
            return Err(MdzError::Corrupt { what: "bit-adaptive width exceeds 24 bits" });
        }
        let len = chunk.min(count - ci * chunk);
        total_bits += u64::from(w) * len as u64;
    }
    let packed_len = total_bits.div_ceil(8) as usize;
    let packed =
        data.get(*pos..*pos + packed_len).ok_or(MdzError::from(EntropyError::UnexpectedEof))?;
    *pos += packed_len;
    let mut bits = BitReader::new(packed);
    out.clear();
    out.reserve(count);
    for (ci, &w) in widths.iter().enumerate() {
        let len = chunk.min(count - ci * chunk);
        if w == 0 {
            // An all-exact chunk: every residual is 0.
            let fill_to = out.len() + len;
            out.resize(fill_to, cap as u32);
            continue;
        }
        let bias = 1i64 << (w - 1);
        for _ in 0..len {
            let local = bits.read_bits(u32::from(w))? as i64;
            if local == 0 {
                out.push(0); // escape
                continue;
            }
            let code = local - bias + cap;
            // A declared width wider than the declared radius allows
            // can place codes outside [1, 2·radius); reject rather
            // than wrap.
            if !(1..space).contains(&code) {
                return Err(MdzError::Corrupt { what: "quantization code out of range" });
            }
            out.push(code as u32);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bound(q: &LinearQuantizer, value: f64, prediction: f64) {
        let mut recon = 0.0;
        match q.quantize(value, prediction, &mut recon) {
            Quantized::Code(code) => {
                assert!(code > 0 && code < 2 * q.radius());
                assert!((recon - value).abs() <= q.eps(), "{value} {prediction} → {recon}");
                assert_eq!(q.reconstruct(code, prediction), recon);
            }
            Quantized::Escape => assert_eq!(recon.to_bits(), value.to_bits()),
        }
    }

    #[test]
    fn exact_prediction_gives_center_code() {
        let q = LinearQuantizer::new(1e-3, 512);
        let mut recon = 0.0;
        match q.quantize(5.0, 5.0, &mut recon) {
            Quantized::Code(code) => assert_eq!(code, 512),
            Quantized::Escape => panic!("should be in range"),
        }
        assert_eq!(recon, 5.0);
    }

    #[test]
    fn error_always_within_bound() {
        let q = LinearQuantizer::new(0.01, 512);
        for i in -2000..2000 {
            let value = i as f64 * 0.003;
            check_bound(&q, value, 0.0);
            check_bound(&q, value, 1.2345);
        }
    }

    #[test]
    fn out_of_range_escapes() {
        let q = LinearQuantizer::new(1e-3, 512);
        let mut recon = 0.0;
        // |diff| = 2.0 → q = 1000 ≥ 512 → escape.
        assert_eq!(q.quantize(2.0, 0.0, &mut recon), Quantized::Escape);
        assert_eq!(recon, 2.0);
    }

    #[test]
    fn boundary_codes() {
        let q = LinearQuantizer::new(0.5, 4); // step 1.0, codes 1..8
        let mut recon = 0.0;
        // q = 3 → code 7 (max in-range).
        assert_eq!(q.quantize(3.0, 0.0, &mut recon), Quantized::Code(7));
        // q = 4 → escape (|q| ≥ radius).
        assert_eq!(q.quantize(4.0, 0.0, &mut recon), Quantized::Escape);
        // q = -3 → code 1 (min in-range).
        assert_eq!(q.quantize(-3.0, 0.0, &mut recon), Quantized::Code(1));
        // q = -4 → escape.
        assert_eq!(q.quantize(-4.0, 0.0, &mut recon), Quantized::Escape);
    }

    #[test]
    fn non_finite_values_escape() {
        let q = LinearQuantizer::new(1e-3, 512);
        let mut recon = 0.0;
        assert_eq!(q.quantize(f64::NAN, 0.0, &mut recon), Quantized::Escape);
        assert!(recon.is_nan());
        assert_eq!(q.quantize(f64::INFINITY, 0.0, &mut recon), Quantized::Escape);
        assert_eq!(q.quantize(1.0, f64::NAN, &mut recon), Quantized::Escape);
    }

    #[test]
    fn huge_magnitude_rounding_escapes_rather_than_breaks_bound() {
        // At 1e18 magnitude, eps 1e-3 steps are below the ULP: quantization
        // cannot represent the value; it must escape, not emit a bad code.
        let q = LinearQuantizer::new(1e-3, 512);
        let mut recon = 0.0;
        let value = 1e18 + 0.1;
        match q.quantize(value, 1e18, &mut recon) {
            Quantized::Code(_) => assert!((recon - value).abs() <= 1e-3),
            Quantized::Escape => assert_eq!(recon, value),
        }
    }

    #[test]
    fn reconstruct_inverts_code_space() {
        let q = LinearQuantizer::new(0.25, 16);
        assert_eq!(q.code_space(), 32);
        for code in 1..32u32 {
            let v = q.reconstruct(code, 10.0);
            let mut recon = 0.0;
            assert_eq!(q.quantize(v, 10.0, &mut recon), Quantized::Code(code));
            assert_eq!(recon, v);
        }
    }

    fn escapes_round_trip(n_values: usize, escapes: &[(usize, f64)]) {
        let mut bytes = vec![0xAB];
        write_escapes(&mut bytes, escapes);
        bytes.push(0xCD);
        let mut pos = 1;
        let mut back = HashMap::from([(7, 7.0)]);
        read_escapes(&bytes, &mut pos, n_values, &mut back).expect("round trip");
        assert_eq!(pos, bytes.len() - 1);
        assert_eq!(back.len(), escapes.len());
        for &(idx, value) in escapes {
            assert_eq!(back[&idx].to_bits(), value.to_bits(), "index {idx}");
        }
    }

    #[test]
    fn escape_lists_round_trip() {
        escapes_round_trip(10, &[]);
        escapes_round_trip(10, &[(0, 1.5)]);
        escapes_round_trip(10, &[(3, f64::NAN), (4, -0.0), (5, f64::INFINITY)]);
        escapes_round_trip(10, &[(0, 2.0), (9, f64::MAX)]);
        escapes_round_trip(1 << 20, &[(300, 1e300), ((1 << 20) - 1, -7.25)]);
    }

    #[test]
    fn hostile_escape_lists_are_rejected() {
        let read = |bytes: &[u8], n_values: usize| {
            read_escapes(bytes, &mut 0, n_values, &mut HashMap::new())
        };
        let corrupt = |what| Err(MdzError::Corrupt { what });

        // More escapes than values, however much input follows.
        let mut bytes = Vec::new();
        write_escapes(&mut bytes, &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(read(&bytes, 2), corrupt("escape count exceeds block size"));
        assert_eq!(read(&bytes, 3), Ok(()));

        // More escapes than the remaining bytes could hold at 9 bytes each.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 2);
        bytes.extend_from_slice(&[0; 17]);
        assert_eq!(read(&bytes, 100), corrupt("escape count exceeds input size"));

        // An index at or past the value count.
        let mut bytes = Vec::new();
        write_escapes(&mut bytes, &[(4, 1.0), (10, 2.0)]);
        assert_eq!(read(&bytes, 10), corrupt("escape index out of range"));
        assert_eq!(read(&bytes, 11), Ok(()));

        // An index gap that overflows u64.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 2);
        write_uvarint(&mut bytes, 1);
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        write_uvarint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&2.0f64.to_le_bytes());
        assert_eq!(read(&bytes, usize::MAX), corrupt("escape index overflow"));

        // A truncated value (its 2-byte index gap keeps the count within
        // the input check).
        let mut bytes = Vec::new();
        write_escapes(&mut bytes, &[(0, 1.0), (1000, 2.0)]);
        let cut = &bytes[..bytes.len() - 1];
        assert_eq!(read(cut, 1001), Err(MdzError::Stream(EntropyError::UnexpectedEof)));
    }

    fn bit_adaptive() -> LinearQuantizer {
        LinearQuantizer::new(1e-3, BIT_ADAPTIVE_RADIUS)
    }

    fn ba_round_trip(chunk: usize, codes: &[u32]) -> Vec<u8> {
        let ba = bit_adaptive();
        let mut bytes = Vec::new();
        write_bit_adaptive(codes, &ba, chunk, &mut bytes);
        let mut pos = 0;
        let mut back = Vec::new();
        read_bit_adaptive(&bytes, &mut pos, &ba, &mut back, &StreamLimits::default())
            .expect("round trip");
        assert_eq!(back, codes);
        assert_eq!(pos, bytes.len());
        bytes
    }

    #[test]
    fn bit_adaptive_codes_round_trip() {
        let cap = BIT_ADAPTIVE_RADIUS;
        // Mixed magnitudes, escapes, exact predictions, chunk-boundary
        // straddles, and a final partial chunk.
        let mut codes = Vec::new();
        for i in 0..137i64 {
            let q = match i % 7 {
                0 => 0,
                1 => 1,
                2 => -1,
                3 => 900,
                4 => -77_000,
                5 => (1 << 23) - 1,
                _ => 1 - (1 << 23),
            };
            codes.push((q + i64::from(cap)) as u32);
        }
        codes[5] = 0; // escape
        codes[130] = 0;
        for chunk in [1, 3, 16, 64, 200] {
            ba_round_trip(chunk, &codes);
        }
        ba_round_trip(8, &[]);
    }

    #[test]
    fn all_exact_chunks_store_zero_bits() {
        let cap = BIT_ADAPTIVE_RADIUS;
        let codes = vec![cap; 1024];
        let bytes = ba_round_trip(64, &codes);
        // chunk uvarint (1) + count uvarint (2) + 16 zero width bytes; no
        // packed payload at all.
        assert_eq!(bytes.len(), 1 + 2 + 16);
    }

    #[test]
    fn hostile_bit_adaptive_streams_are_rejected() {
        let ba = bit_adaptive();
        let cap = BIT_ADAPTIVE_RADIUS;
        let codes: Vec<u32> = (0..100).map(|i| cap + i % 50).collect();
        let mut valid = Vec::new();
        write_bit_adaptive(&codes, &ba, 64, &mut valid);

        let decode = |bytes: &[u8], limits: &StreamLimits| {
            let mut out = Vec::new();
            read_bit_adaptive(bytes, &mut 0, &ba, &mut out, limits)
        };
        let limits = StreamLimits::default();

        // Chunk size 0 and an implausibly large chunk.
        let mut bad = valid.clone();
        bad[0] = 0;
        assert!(decode(&bad, &limits).is_err());
        let mut bad = Vec::new();
        write_uvarint(&mut bad, (MAX_CHUNK + 1) as u64);
        write_uvarint(&mut bad, 1);
        bad.push(1);
        bad.push(0);
        assert!(decode(&bad, &limits).is_err());

        // Width byte above 24.
        let mut bad = valid.clone();
        bad[3] = 25; // first width byte: chunk uvarint(64)=1, count uvarint(100)=2
        assert!(matches!(decode(&bad, &limits), Err(MdzError::Corrupt { .. })));

        // Truncations anywhere must error, never panic.
        for cut in 0..valid.len() {
            assert!(decode(&valid[..cut], &limits).is_err(), "cut {cut}");
        }

        // A forged count must fail the caller's budget before allocating.
        let mut forged = Vec::new();
        write_uvarint(&mut forged, 64);
        write_uvarint(&mut forged, u64::MAX);
        assert!(matches!(
            decode(&forged, &StreamLimits::with_max_items(1 << 16)),
            Err(MdzError::LimitExceeded { .. })
        ));

        // A width wide enough to escape a small declared radius is caught.
        let small = LinearQuantizer::new(1e-3, 4);
        let mut bad = Vec::new();
        write_uvarint(&mut bad, 8); // chunk
        write_uvarint(&mut bad, 1); // count
        bad.push(24); // width far beyond radius 4
        bad.extend_from_slice(&[0xFF, 0xFF, 0xFF]); // local = 2^24 - 1
        let mut out = Vec::new();
        let err = read_bit_adaptive(&bad, &mut 0, &small, &mut out, &limits).unwrap_err();
        assert!(matches!(err, MdzError::Corrupt { .. }));
    }

    #[test]
    fn bit_adaptive_bound_matches_linear_arithmetic() {
        // Identical step arithmetic: wherever the fixed-scale quantizer
        // stays in range, the bit-adaptive one produces the same
        // reconstruction; beyond the fixed radius it keeps coding while the
        // fixed scale escapes.
        let lin = LinearQuantizer::new(1e-3, 512);
        let ba = bit_adaptive();
        for i in -4000..4000i64 {
            let value = i as f64 * 7.3e-4;
            let (mut r_lin, mut r_ba) = (0.0, 0.0);
            let q_lin = lin.quantize(value, 0.0, &mut r_lin);
            let q_ba = ba.quantize(value, 0.0, &mut r_ba);
            match q_ba {
                Quantized::Code(_) => assert!((r_ba - value).abs() <= 1e-3),
                Quantized::Escape => assert_eq!(r_ba.to_bits(), value.to_bits()),
            }
            if let (Quantized::Code(_), Quantized::Code(_)) = (q_lin, q_ba) {
                assert_eq!(r_lin, r_ba, "step arithmetic diverged at {value}");
            }
        }
        // A residual of 1500 steps escapes the fixed scale but stays
        // in-code bit-adaptively.
        let (mut r_lin, mut r_ba) = (0.0, 0.0);
        assert_eq!(lin.quantize(3.0, 0.0, &mut r_lin), Quantized::Escape);
        assert!(matches!(ba.quantize(3.0, 0.0, &mut r_ba), Quantized::Code(_)));
        assert!((r_ba - 3.0).abs() <= 1e-3);
    }
}
