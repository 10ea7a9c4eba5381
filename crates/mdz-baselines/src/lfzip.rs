//! LFZip baseline: NLMS adaptive linear prediction + uniform quantization.
//!
//! LFZip (Chandak et al., DCC 2020) predicts each value of a floating-point
//! time series with a normalized least-mean-squares (NLMS) filter over the
//! previous `K` *reconstructed* values, quantizes the residual uniformly
//! under the error bound, and entropy-codes the result (BSC in the
//! original; this workspace's Huffman + LZ tail here). Following the
//! paper's evaluation we use the NLMS predictor, not the 2000× slower
//! neural variant.
//!
//! The stream is traversed particle-major (each particle's time series
//! contiguously), which is how a time-series compressor sees MD data.

use crate::common::{read_header, write_header, CodeSink, CodeSource, RADIUS};
use mdz_core::LinearQuantizer;
use mdz_core::{Codec, ErrorBound, Result};

const MAGIC: &[u8; 4] = b"LFZP";
/// Filter order (LFZip default: 32; shortened to fit MD buffer depths).
const ORDER: usize = 16;
/// NLMS step size.
const MU: f64 = 0.5;
/// Normalization floor.
const DELTA: f64 = 1e-6;

/// The LFZip-style baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Lfzip;

impl Lfzip {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

/// NLMS filter state shared by encoder and decoder.
struct Nlms {
    w: [f64; ORDER],
    /// Ring buffer of the last `ORDER` reconstructed values.
    h: [f64; ORDER],
    head: usize,
    filled: usize,
}

impl Nlms {
    fn new() -> Self {
        Self { w: [0.0; ORDER], h: [0.0; ORDER], head: 0, filled: 0 }
    }

    /// Predicts the next value; falls back to last-value prediction until
    /// the history window fills.
    fn predict(&self) -> f64 {
        if self.filled < ORDER {
            return if self.filled == 0 { 0.0 } else { self.h[(self.head + ORDER - 1) % ORDER] };
        }
        let mut p = 0.0;
        for k in 0..ORDER {
            p += self.w[k] * self.h[(self.head + k) % ORDER];
        }
        if p.is_finite() {
            p
        } else {
            0.0
        }
    }

    /// Folds the reconstructed value in and adapts the weights.
    fn update(&mut self, recon: f64, prediction: f64) {
        if self.filled >= ORDER && recon.is_finite() && prediction.is_finite() {
            let err = recon - prediction;
            let mut norm = DELTA;
            for k in 0..ORDER {
                let x = self.h[(self.head + k) % ORDER];
                norm += x * x;
            }
            let g = MU * err / norm;
            if g.is_finite() {
                for k in 0..ORDER {
                    self.w[k] += g * self.h[(self.head + k) % ORDER];
                    if !self.w[k].is_finite() {
                        self.w[k] = 0.0;
                    }
                }
            }
        }
        let r = if recon.is_finite() { recon } else { 0.0 };
        self.h[self.head] = r;
        self.head = (self.head + 1) % ORDER;
        self.filled = (self.filled + 1).min(ORDER);
    }
}

impl Codec for Lfzip {
    fn name(&self) -> &'static str {
        "LFZip"
    }

    fn reset(&mut self) {}

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        let eps = bound.absolute_for(snapshots);
        let m = snapshots.len();
        let n = snapshots[0].len();
        let quant = LinearQuantizer::new(eps, RADIUS);
        let mut out = Vec::new();
        write_header(&mut out, MAGIC, m, n, eps);
        let mut sink = CodeSink::with_capacity(m * n);
        let mut filter = Nlms::new();
        // Particle-major traversal.
        for p in 0..n {
            for snap in snapshots {
                let v = snap[p];
                let pred = filter.predict();
                let recon = sink.push(&quant, v, pred);
                filter.update(recon, pred);
            }
        }
        sink.finish(&mut out);
        Ok(out)
    }

    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let quant = LinearQuantizer::new(eps, RADIUS);
        let src = CodeSource::parse(data, &mut pos, m * n)?;
        let mut out = vec![vec![0.0f64; n]; m];
        let mut filter = Nlms::new();
        let mut flat = 0usize;
        for p in 0..n {
            for row in out.iter_mut() {
                let pred = filter.predict();
                let recon = src.reconstruct(&quant, flat, pred)?;
                row[p] = recon;
                filter.update(recon, pred);
                flat += 1;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_round_trip, lattice_buffer, smooth_buffer};

    #[test]
    fn round_trips() {
        let mut c = Lfzip::new();
        check_round_trip(&mut c, &lattice_buffer(10, 120, 1e-4, 61), 1e-3);
        check_round_trip(&mut c, &smooth_buffer(10, 120, 62), 1e-3);
        check_round_trip(&mut c, &[vec![2.0, 4.0, 8.0]], 1e-4);
    }

    #[test]
    fn nlms_adapts_to_linear_signal() {
        // After warm-up, prediction error on a pure ramp should shrink.
        let mut f = Nlms::new();
        let mut late_err = 0.0;
        for i in 0..400 {
            let v = i as f64 * 0.1;
            let p = f.predict();
            if i > 300 {
                late_err += (v - p).abs();
            }
            f.update(v, p);
        }
        assert!(late_err / 100.0 < 0.1, "late avg err {}", late_err / 100.0);
    }

    #[test]
    fn filter_survives_non_finite_input() {
        let mut f = Nlms::new();
        for i in 0..50 {
            let v = if i == 20 { f64::NAN } else { i as f64 };
            let p = f.predict();
            f.update(v, p);
            assert!(f.predict().is_finite());
        }
    }

    #[test]
    fn non_finite_values_round_trip() {
        let mut snaps = lattice_buffer(5, 40, 0.0, 63);
        snaps[1][2] = f64::NAN;
        check_round_trip(&mut Lfzip::new(), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Lfzip::new();
        let blob =
            c.compress_buffer(&lattice_buffer(4, 40, 0.0, 64), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(c.decompress_buffer(&blob[..blob.len() / 2]).is_err());
    }
}
