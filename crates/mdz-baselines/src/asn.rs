//! ASN baseline: adjacent-snapshot prediction for N-body data.
//!
//! Li et al. (IEEE Big Data 2018) compress N-body snapshots by predicting
//! each particle from its value in the previous snapshot (optionally
//! velocity-corrected — not applicable to MD, as the paper argues, because
//! MD velocities decorrelate within femtoseconds). The first snapshot of a
//! buffer falls back to in-snapshot Lorenzo prediction. Residuals go
//! through the standard quantization + Huffman + LZ tail.

use crate::common::{read_header, write_header, CodeSink, CodeSource, RADIUS};
use mdz_core::LinearQuantizer;
use mdz_core::{Codec, ErrorBound, Result};

const MAGIC: &[u8; 4] = b"BASN";

/// The ASN-style baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Asn;

impl Asn {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Codec for Asn {
    fn name(&self) -> &'static str {
        "ASN"
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
        let mut prev_recon = vec![0.0f64; n];
        let mut cur_recon = vec![0.0f64; n];
        for (t, snap) in snapshots.iter().enumerate() {
            for (i, &v) in snap.iter().enumerate() {
                let pred = if t == 0 {
                    if i == 0 {
                        0.0
                    } else {
                        cur_recon[i - 1]
                    }
                } else {
                    prev_recon[i]
                };
                cur_recon[i] = sink.push(&quant, v, pred);
            }
            std::mem::swap(&mut prev_recon, &mut cur_recon);
        }
        sink.finish(&mut out);
        Ok(out)
    }

    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let quant = LinearQuantizer::new(eps, RADIUS);
        let src = CodeSource::parse(data, &mut pos, m * n)?;
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(m);
        for t in 0..m {
            let mut snap = vec![0.0f64; n];
            for i in 0..n {
                let pred = if t == 0 {
                    if i == 0 {
                        0.0
                    } else {
                        snap[i - 1]
                    }
                } else {
                    out[t - 1][i]
                };
                snap[i] = src.reconstruct(&quant, t * n + i, pred)?;
            }
            out.push(snap);
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
        let mut c = Asn::new();
        check_round_trip(&mut c, &lattice_buffer(8, 150, 1e-4, 41), 1e-3);
        check_round_trip(&mut c, &smooth_buffer(8, 150, 42), 1e-3);
        check_round_trip(&mut c, &[vec![3.0, 4.0, 5.0]], 1e-4);
    }

    #[test]
    fn excels_on_temporally_smooth_data() {
        let snaps = smooth_buffer(10, 500, 43);
        let size = check_round_trip(&mut Asn::new(), &snaps, 1e-3);
        // After the first snapshot, residuals are near zero.
        assert!(size < 10 * 500, "expected sub-byte-per-value: {size}");
    }

    #[test]
    fn non_finite_values() {
        let mut snaps = lattice_buffer(4, 60, 0.0, 44);
        snaps[2][10] = f64::NAN;
        check_round_trip(&mut Asn::new(), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Asn::new();
        let blob =
            c.compress_buffer(&lattice_buffer(3, 30, 0.0, 45), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(c.decompress_buffer(&blob[..blob.len() / 2]).is_err());
    }
}
