//! Shared plumbing for baseline compressors: code/escape blob packing, the
//! LZ77 payload frame and small header helpers. The escape list is MDZ's
//! own ([`mdz_core::quant::write_escapes`]/[`read_escapes`]), so a baseline
//! rejects a forged list wherever the MDZ decoder does. Every baseline
//! reports errors as [`mdz_core::MdzError`].

use std::collections::HashMap;

use mdz_core::quant::{read_escapes, write_escapes, Quantized};
use mdz_core::{LinearQuantizer, MdzError, Result};
use mdz_entropy::{huffman::huffman_decode_at, huffman_encode, read_uvarint, write_uvarint};
use mdz_lossless::lz77;

/// Encoder-side accumulator for the classic SZ tail: quantization codes +
/// escape list, Huffman-coded then LZ-compressed.
#[derive(Debug, Default)]
pub struct CodeSink {
    /// Quantization codes (0 = escape marker).
    pub codes: Vec<u32>,
    /// `(flat index, verbatim value)` escape records.
    pub escapes: Vec<(usize, f64)>,
}

impl CodeSink {
    /// Creates an empty sink with capacity for `n` codes.
    pub fn with_capacity(n: usize) -> Self {
        Self { codes: Vec::with_capacity(n), escapes: Vec::new() }
    }

    /// Quantizes `value` against `prediction`, recording code or escape,
    /// and returns the reconstruction.
    #[inline]
    pub fn push(&mut self, quant: &LinearQuantizer, value: f64, prediction: f64) -> f64 {
        let mut recon = 0.0;
        match quant.quantize(value, prediction, &mut recon) {
            Quantized::Code(c) => self.codes.push(c),
            Quantized::Escape => {
                self.codes.push(0);
                self.escapes.push((self.codes.len() - 1, value));
            }
        }
        recon
    }

    /// Serializes codes + escapes, Huffman + LZ compressed, appending to `out`.
    pub fn finish(self, out: &mut Vec<u8>) {
        let mut inner = huffman_encode(&self.codes);
        write_escapes(&mut inner, &self.escapes);
        write_payload(out, &inner);
    }
}

/// Decoder-side counterpart of [`CodeSink`].
#[derive(Debug)]
pub struct CodeSource {
    /// Decoded quantization codes (0 = escape marker).
    pub codes: Vec<u32>,
    escapes: HashMap<usize, f64>,
}

impl CodeSource {
    /// Parses a [`CodeSink::finish`] blob from `data` at `*pos`.
    pub fn parse(data: &[u8], pos: &mut usize, expected_codes: usize) -> Result<Self> {
        let inner = read_payload(data, pos)?;
        let mut ipos = 0;
        let codes = huffman_decode_at(&inner, &mut ipos)?;
        if codes.len() != expected_codes {
            return Err(MdzError::Corrupt { what: "code count mismatch" });
        }
        let mut escapes = HashMap::new();
        read_escapes(&inner, &mut ipos, codes.len(), &mut escapes)?;
        Ok(Self { codes, escapes })
    }

    /// Reconstructs the value at flat position `i` given its prediction.
    #[inline]
    pub fn reconstruct(&self, quant: &LinearQuantizer, i: usize, prediction: f64) -> Result<f64> {
        let code = self.codes[i];
        if code == 0 {
            self.escapes.get(&i).copied().ok_or(MdzError::Corrupt { what: "missing escape value" })
        } else {
            Ok(quant.reconstruct(code, prediction))
        }
    }
}

/// Appends `inner` to `out` as a baseline payload: LZ77-compressed, after
/// its compressed length as a varint.
pub fn write_payload(out: &mut Vec<u8>, inner: &[u8]) {
    let payload = lz77::compress(inner, lz77::Level::Default);
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
}

/// Reads a [`write_payload`] frame from `data` at `*pos`, advancing past
/// it, and returns the decompressed bytes.
pub fn read_payload(data: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let len = read_uvarint(data, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= data.len())
        .ok_or(MdzError::Corrupt { what: "truncated payload" })?;
    let inner = lz77::decompress(&data[*pos..end])?;
    *pos = end;
    Ok(inner)
}

/// Writes the standard baseline header `(magic, m, n, eps)`.
pub fn write_header(out: &mut Vec<u8>, magic: &[u8; 4], m: usize, n: usize, eps: f64) {
    out.extend_from_slice(magic);
    write_uvarint(out, m as u64);
    write_uvarint(out, n as u64);
    out.extend_from_slice(&eps.to_le_bytes());
}

/// Reads a baseline header, validating the magic.
pub fn read_header(data: &[u8], pos: &mut usize, magic: &[u8; 4]) -> Result<(usize, usize, f64)> {
    let got = data.get(*pos..*pos + 4).ok_or(MdzError::Corrupt { what: "truncated magic" })?;
    if got != magic {
        return Err(MdzError::Corrupt { what: "magic mismatch" });
    }
    *pos += 4;
    let m = read_uvarint(data, pos)? as usize;
    let n = read_uvarint(data, pos)? as usize;
    // Tighter than the core format's guard: baseline decoders eagerly
    // allocate O(m·n) buffers, so a forged header must stay cheap. 2^24
    // values comfortably covers every harness configuration.
    if m == 0 || n == 0 || m.checked_mul(n).is_none_or(|p| p > (1 << 24)) {
        return Err(MdzError::Corrupt { what: "implausible dimensions" });
    }
    let eps_bytes = data.get(*pos..*pos + 8).ok_or(MdzError::Corrupt { what: "truncated eps" })?;
    *pos += 8;
    let eps = f64::from_le_bytes(eps_bytes.try_into().unwrap());
    if !(eps > 0.0 && eps.is_finite()) {
        return Err(MdzError::Corrupt { what: "invalid eps" });
    }
    Ok((m, n, eps))
}

/// Default quantization radius used by the SZ-style baselines.
pub const RADIUS: u32 = 512;

#[cfg(test)]
mod tests {
    use super::*;
    use mdz_core::{Codec, ErrorBound};

    #[test]
    fn sink_source_round_trip() {
        let quant = LinearQuantizer::new(0.01, RADIUS);
        let values: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin() * 3.0).collect();
        let mut sink = CodeSink::with_capacity(values.len());
        let mut recons = Vec::new();
        for &v in &values {
            recons.push(sink.push(&quant, v, 0.0));
        }
        let mut blob = Vec::new();
        sink.finish(&mut blob);
        let mut pos = 0;
        let src = CodeSource::parse(&blob, &mut pos, values.len()).unwrap();
        for (i, (&v, &r)) in values.iter().zip(recons.iter()).enumerate() {
            let got = src.reconstruct(&quant, i, 0.0).unwrap();
            assert_eq!(got, r);
            assert!((got - v).abs() <= 0.01);
        }
    }

    #[test]
    fn sink_escapes_out_of_range() {
        let quant = LinearQuantizer::new(1e-6, 4);
        let mut sink = CodeSink::with_capacity(2);
        let r = sink.push(&quant, 1000.0, 0.0);
        assert_eq!(r, 1000.0); // escaped verbatim
        assert_eq!(sink.escapes.len(), 1);
    }

    #[test]
    fn escape_index_past_the_codes_is_corrupt() {
        // Ten in-range codes, and an escape list naming index 10: one past
        // the last code, so no code ever reads it.
        let mut inner = huffman_encode(&[RADIUS; 10]);
        write_uvarint(&mut inner, 1);
        write_uvarint(&mut inner, 10);
        inner.extend_from_slice(&1.0f64.to_le_bytes());
        let mut blob = Vec::new();
        write_header(&mut blob, b"BASN", 1, 10, 0.01);
        write_payload(&mut blob, &inner);
        let corrupt = Some(MdzError::Corrupt { what: "escape index out of range" });
        let mut pos = 0;
        read_header(&blob, &mut pos, b"BASN").unwrap();
        assert_eq!(CodeSource::parse(&blob, &mut pos, 10).err(), corrupt);
        assert_eq!(crate::asn::Asn::new().decompress_buffer(&blob).err(), corrupt);
    }

    #[test]
    fn header_round_trip() {
        let mut out = Vec::new();
        write_header(&mut out, b"TEST", 10, 999, 1e-3);
        let mut pos = 0;
        let (m, n, eps) = read_header(&out, &mut pos, b"TEST").unwrap();
        assert_eq!((m, n, eps), (10, 999, 1e-3));
        assert!(read_header(&out, &mut 0, b"NOPE").is_err());
    }

    #[test]
    fn corrupt_blobs_error() {
        let quant = LinearQuantizer::new(0.01, RADIUS);
        let mut sink = CodeSink::with_capacity(10);
        for i in 0..10 {
            sink.push(&quant, i as f64, 0.0);
        }
        let mut blob = Vec::new();
        sink.finish(&mut blob);
        for cut in 0..blob.len() {
            let _ = CodeSource::parse(&blob[..cut], &mut 0, 10);
        }
        assert!(CodeSource::parse(&blob, &mut 0, 11).is_err());

        // Through the `Codec` boundary a truncated payload still reports
        // itself as corrupt, not as a bad header.
        let mut asn = crate::asn::Asn::new();
        let blob = asn.compress_buffer(&[vec![0.5; 10]], ErrorBound::Absolute(0.01)).unwrap();
        assert_eq!(
            asn.decompress_buffer(&blob[..blob.len() - 1]),
            Err(MdzError::Corrupt { what: "truncated payload" })
        );
    }
}
