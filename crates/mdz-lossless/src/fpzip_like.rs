//! fpzip-style lossless float coding: monotone integer mapping, previous-value
//! prediction, and entropy-coded residual magnitudes.
//!
//! fpzip (Lindstrom & Isenburg) predicts each value with a Lorenzo stencil
//! and range-codes the residual of a sign-magnitude integer mapping. For the
//! 1-D streams this workspace feeds it, the Lorenzo stencil degenerates to
//! previous-value prediction; we keep the two distinctive ingredients — the
//! order-preserving integer mapping of IEEE doubles and entropy coding of
//! residual bit lengths — and emit residual payload bits raw.

use mdz_entropy::{
    huffman::huffman_decode_at, huffman_encode, read_uvarint, write_uvarint, BitReader, BitWriter,
    EntropyError, Result,
};

/// Order-preserving map from IEEE-754 double bits to `u64`.
///
/// Negative floats reverse-order their payload; flipping produces a map where
/// `a < b ⇔ map(a) < map(b)` (for non-NaN), so numerically close values have
/// close integers and small deltas.
#[inline]
fn f64_to_ordered(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`f64_to_ordered`].
#[inline]
fn ordered_to_f64(m: u64) -> f64 {
    let bits = if m >> 63 == 1 { m & !(1 << 63) } else { !m };
    f64::from_bits(bits)
}

/// Compresses `f64` values losslessly.
///
/// Layout: `uvarint(count)` · `8 bytes first value` · huffman(bit-length
/// symbols: `sign·64 + nbits`) · `uvarint(payload len)` · payload bits.
pub fn compress(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    out.extend_from_slice(&data[0].to_le_bytes());
    let mut symbols = Vec::with_capacity(data.len() - 1);
    let mut payload = BitWriter::new();
    let mut prev = f64_to_ordered(data[0]);
    for &v in &data[1..] {
        let cur = f64_to_ordered(v);
        let (sign, mag) = if cur >= prev { (0u32, cur - prev) } else { (1u32, prev - cur) };
        prev = cur;
        let nbits = if mag == 0 { 0 } else { 64 - mag.leading_zeros() };
        symbols.push(sign * 65 + nbits);
        if nbits > 1 {
            // The leading 1 bit is implied by nbits.
            payload.write_bits(mag & !(1u64 << (nbits - 1)), nbits - 1);
        }
    }
    out.extend(huffman_encode(&symbols));
    let bits = payload.finish();
    write_uvarint(&mut out, bits.len() as u64);
    out.extend_from_slice(&bits);
    out
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<f64>> {
    let mut pos = 0;
    let count = read_uvarint(data, &mut pos)? as usize;
    if count == 0 {
        return Ok(Vec::new());
    }
    if count > (1 << 32) {
        return Err(EntropyError::Corrupt("implausible value count"));
    }
    let first_bytes = data.get(pos..pos + 8).ok_or(EntropyError::UnexpectedEof)?;
    pos += 8;
    let first = f64::from_le_bytes(first_bytes.try_into().unwrap());
    let symbols = huffman_decode_at(data, &mut pos)?;
    if symbols.len() != count - 1 {
        return Err(EntropyError::Corrupt("symbol count mismatch"));
    }
    let payload_len = read_uvarint(data, &mut pos)? as usize;
    let end = pos
        .checked_add(payload_len)
        .filter(|&e| e <= data.len())
        .ok_or(EntropyError::UnexpectedEof)?;
    let mut bits = BitReader::new(&data[pos..end]);
    // Untrusted count: cap the eager allocation.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    out.push(first);
    let mut prev = f64_to_ordered(first);
    for &sym in &symbols {
        let sign = sym / 65;
        let nbits = sym % 65;
        if sign > 1 || nbits > 64 {
            return Err(EntropyError::Corrupt("invalid delta symbol"));
        }
        let mag = match nbits {
            0 => 0,
            1 => 1,
            n => (1u64 << (n - 1)) | bits.read_bits(n - 1)?,
        };
        let cur = if sign == 0 {
            prev.checked_add(mag).ok_or(EntropyError::Corrupt("delta overflows"))?
        } else {
            prev.checked_sub(mag).ok_or(EntropyError::Corrupt("delta underflows"))?
        };
        prev = cur;
        out.push(ordered_to_f64(cur));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[f64]) -> usize {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(d.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        c.len()
    }

    #[test]
    fn ordered_map_is_monotone() {
        let values = [-1e300, -2.5, -1.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 1e300];
        for w in values.windows(2) {
            assert!(f64_to_ordered(w[0]) < f64_to_ordered(w[1]), "{} !< {}", w[0], w[1]);
        }
        for &v in &values {
            assert_eq!(ordered_to_f64(f64_to_ordered(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn negative_zero_round_trips() {
        round_trip(&[-0.0, 0.0, -0.0]);
    }

    #[test]
    fn empty_single_constant() {
        round_trip(&[]);
        round_trip(&[std::f64::consts::PI]);
        let size = round_trip(&vec![7.5; 10_000]);
        assert!(size < 200, "constant stream should be tiny, got {size}");
    }

    #[test]
    fn smooth_trajectory_beats_raw() {
        let data: Vec<f64> = (0..20_000).map(|i| 50.0 + (i as f64 * 0.0001).sin()).collect();
        let size = round_trip(&data);
        assert!(size < data.len() * 8, "got {size}");
    }

    #[test]
    fn sign_crossing_deltas() {
        let data: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        round_trip(&data);
    }

    #[test]
    fn extreme_magnitudes() {
        round_trip(&[f64::MAX, f64::MIN, 0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE]);
    }

    #[test]
    fn truncation_errors() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).cos()).collect();
        let c = compress(&data);
        for cut in [0, 5, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }
}
