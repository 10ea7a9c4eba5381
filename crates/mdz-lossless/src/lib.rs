//! From-scratch lossless codecs used by (and compared against) MDZ.
//!
//! The final stage of the SZ/MDZ pipeline is a dictionary coder (the paper
//! uses Zstd). This crate provides a deflate-class [`lz77`] codec built from
//! first principles (hash-chain matching, canonical Huffman token coding) as
//! the in-tree stand-in, plus the floating-point lossless baselines the
//! paper's Table V evaluates:
//!
//! * [`lz77`] — LZ77 + Huffman general-purpose byte compressor, three effort
//!   levels standing in for Zstd / Zlib / Brotli,
//! * [`gorilla`] — Facebook Gorilla XOR compression for `f64` streams,
//! * [`fpc`] — Burtscher & Ratanaworabhan's FCM/DFCM predictor codec,
//! * [`fpzip_like`] — difference-predicted, leading-zero-coded float codec in
//!   the spirit of fpzip.
//!
//! All decoders return [`mdz_entropy::EntropyError`] on malformed input. The
//! crate is safe Rust throughout: LZ77's match finder compares 8 bytes per
//! step with a portable XOR loop, because its cost is hash-chain traversal,
//! not byte comparison.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fpc;
pub mod fpzip_like;
pub mod gorilla;
pub mod lz77;

pub use lz77::{compress as lz_compress, decompress as lz_decompress, Level};
pub use mdz_entropy::StreamLimits;

/// Result alias shared with the entropy crate.
pub type Result<T> = mdz_entropy::Result<T>;

/// Reinterprets an `f64` slice as little-endian bytes.
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_byte_round_trip() {
        let v = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, std::f64::consts::PI];
        let bytes = f64s_to_bytes(&v);
        assert_eq!(bytes.len(), 8 * v.len());
        let back: Vec<f64> =
            bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(back, v);
    }
}
