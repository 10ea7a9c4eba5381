//! Re-implementations of the lossy compressors MDZ is evaluated against.
//!
//! The paper (§VII-A4) compares MDZ with six systems. Each module here
//! reimplements the published core of one of them, sharing this workspace's
//! entropy/dictionary substrates so the comparison isolates the *prediction
//! model* — which is what differentiates the systems on MD data:
//!
//! * [`sz2`] — SZ 2.x: Lorenzo prediction (1-D or 2-D over the
//!   snapshot × particle array) + linear-scale quantization + Huffman + LZ.
//! * [`tng`] — TNG/XTC-style fixed-point quantization with intra-frame
//!   delta coding and a dictionary stage.
//! * [`hrtc`] — HRTC: piecewise-linear trajectory approximation (swing
//!   filter) with error-controlled quantization and varint coding.
//! * [`asn`] — Li et al.'s adjacent-snapshot compressor for N-body data:
//!   previous-snapshot prediction + quantization + entropy coding.
//! * [`mdb`] — ModelarDB's model palette (PMC-mean, Swing, Gorilla) with
//!   greedy per-segment selection over each particle's time series.
//! * [`lfzip`] — LFZip with its NLMS adaptive linear predictor and uniform
//!   residual quantizer.
//! * [`sz3`] — SZ-Interp-style multilevel interpolation (the paper's
//!   reference \[31\]), included to test §II's claim that interpolation
//!   compressors are sub-optimal on MD data.
//!
//! All baselines implement [`mdz_core::Codec`] — the same interface MDZ
//! itself exposes — so harnesses and archives drive every compressor in the
//! evaluation uniformly, with no MDZ-vs-baseline special casing.

#![forbid(unsafe_code)]

pub mod asn;
pub mod common;
pub mod hrtc;
pub mod lfzip;
pub mod mdb;
pub mod sz2;
pub mod sz3;
pub mod tng;

pub use mdz_core::Codec;

/// All seven baselines, boxed for harness iteration.
pub fn all_baselines() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(sz2::Sz2::new(sz2::Sz2Mode::TwoD)),
        Box::new(tng::Tng::new()),
        Box::new(hrtc::Hrtc::new()),
        Box::new(asn::Asn::new()),
        Box::new(mdb::Mdb::new()),
        Box::new(lfzip::Lfzip::new()),
        Box::new(sz3::Sz3::new()),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    use mdz_core::{Codec, ErrorBound};

    /// Shared round-trip checker used by every baseline's tests.
    pub fn check_round_trip<C: Codec>(c: &mut C, snapshots: &[Vec<f64>], eps: f64) -> usize {
        let blob = c.compress_buffer(snapshots, ErrorBound::Absolute(eps)).expect("compress");
        let out = c.decompress_buffer(&blob).expect("decompress");
        assert_eq!(out.len(), snapshots.len(), "{}: snapshot count", c.name());
        for (s, o) in snapshots.iter().zip(out.iter()) {
            assert_eq!(s.len(), o.len(), "{}: snapshot width", c.name());
            for (a, b) in s.iter().zip(o.iter()) {
                if a.is_finite() {
                    assert!(
                        (a - b).abs() <= eps * (1.0 + 1e-9),
                        "{}: |{} - {}| > {}",
                        c.name(),
                        a,
                        b,
                        eps
                    );
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", c.name());
                }
            }
        }
        blob.len()
    }

    /// Lattice-with-vibration buffer (crystalline regime).
    pub fn lattice_buffer(m: usize, n: usize, drift: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed | 1;
        (0..m)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        (i % 12) as f64 * 2.0 + u * 0.04 + t as f64 * drift
                    })
                    .collect()
            })
            .collect()
    }

    /// Smooth-in-time, random-in-space buffer (liquid regime).
    pub fn smooth_buffer(m: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed | 1;
        let base: Vec<f64> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 * 40.0
            })
            .collect();
        (0..m).map(|t| base.iter().map(|&v| v + t as f64 * 1e-4).collect()).collect()
    }
}
