//! SZ 2.x baseline: Lorenzo prediction + quantization + Huffman + LZ.
//!
//! SZ treats the buffer as an array and predicts each element from its
//! already-reconstructed neighbours (the Lorenzo stencil):
//!
//! * **1-D mode** — the buffer flattens to one stream; `p_i = d'_{i−1}`.
//! * **2-D mode** — the buffer is an `M × N` array (snapshots × particles);
//!   `p_{t,i} = d'_{t,i−1} + d'_{t−1,i} − d'_{t−1,i−1}`, exploiting space
//!   and time continuity at once. The paper's Table IV shows 2-D beating
//!   1-D by up to ~200 % on MD data, and uses 2-D in the evaluation.

use crate::common::{read_header, write_header, CodeSink, CodeSource, RADIUS};
use mdz_core::LinearQuantizer;
use mdz_core::{Codec, ErrorBound, MdzError, Result};

const MAGIC: &[u8; 4] = b"BSZ2";

/// Prediction dimensionality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sz2Mode {
    /// Flattened 1-D Lorenzo prediction.
    OneD,
    /// 2-D Lorenzo over the snapshot × particle array.
    TwoD,
}

/// The SZ2 baseline compressor.
#[derive(Debug, Clone)]
pub struct Sz2 {
    mode: Sz2Mode,
}

impl Sz2 {
    /// Creates the baseline in the given mode.
    pub fn new(mode: Sz2Mode) -> Self {
        Self { mode }
    }
}

impl Codec for Sz2 {
    fn name(&self) -> &'static str {
        match self.mode {
            Sz2Mode::OneD => "SZ2-1D",
            Sz2Mode::TwoD => "SZ2",
        }
    }

    fn reset(&mut self) {}

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        let eps = bound.absolute_for(snapshots);
        let m = snapshots.len();
        let n = snapshots[0].len();
        let quant = LinearQuantizer::new(eps, RADIUS);
        let mut sink = CodeSink::with_capacity(m * n);
        let mut out = Vec::new();
        write_header(&mut out, MAGIC, m, n, eps);
        out.push(match self.mode {
            Sz2Mode::OneD => 1,
            Sz2Mode::TwoD => 2,
        });
        match self.mode {
            Sz2Mode::OneD => {
                let mut prev = 0.0;
                for snap in snapshots {
                    for &v in snap {
                        prev = sink.push(&quant, v, prev);
                    }
                }
            }
            Sz2Mode::TwoD => {
                let mut prev_row: Vec<f64> = vec![0.0; n];
                let mut cur_row: Vec<f64> = vec![0.0; n];
                for (t, snap) in snapshots.iter().enumerate() {
                    for (i, &v) in snap.iter().enumerate() {
                        let left = if i == 0 { 0.0 } else { cur_row[i - 1] };
                        let up = if t == 0 { 0.0 } else { prev_row[i] };
                        let diag = if t == 0 || i == 0 { 0.0 } else { prev_row[i - 1] };
                        let pred = left + up - diag;
                        cur_row[i] = sink.push(&quant, v, pred);
                    }
                    std::mem::swap(&mut prev_row, &mut cur_row);
                }
            }
        }
        sink.finish(&mut out);
        Ok(out)
    }

    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let mode = match data.get(pos).copied() {
            Some(1) => Sz2Mode::OneD,
            Some(2) => Sz2Mode::TwoD,
            _ => return Err(MdzError::Corrupt { what: "bad mode byte" }),
        };
        pos += 1;
        let quant = LinearQuantizer::new(eps, RADIUS);
        let src = CodeSource::parse(data, &mut pos, m * n)?;
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(m);
        match mode {
            Sz2Mode::OneD => {
                let mut prev = 0.0;
                for t in 0..m {
                    let mut snap = Vec::with_capacity(n);
                    for i in 0..n {
                        prev = src.reconstruct(&quant, t * n + i, prev)?;
                        snap.push(prev);
                    }
                    out.push(snap);
                }
            }
            Sz2Mode::TwoD => {
                for t in 0..m {
                    let mut snap = vec![0.0; n];
                    for i in 0..n {
                        let left = if i == 0 { 0.0 } else { snap[i - 1] };
                        let up = if t == 0 { 0.0 } else { out[t - 1][i] };
                        let diag = if t == 0 || i == 0 { 0.0 } else { out[t - 1][i - 1] };
                        snap[i] = src.reconstruct(&quant, t * n + i, left + up - diag)?;
                    }
                    out.push(snap);
                }
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
    fn both_modes_round_trip() {
        let snaps = lattice_buffer(8, 200, 1e-4, 11);
        for mode in [Sz2Mode::OneD, Sz2Mode::TwoD] {
            let mut c = Sz2::new(mode);
            check_round_trip(&mut c, &snaps, 1e-3);
        }
    }

    #[test]
    fn two_d_beats_one_d_on_smooth_data() {
        let snaps = smooth_buffer(10, 400, 3);
        let s1 = check_round_trip(&mut Sz2::new(Sz2Mode::OneD), &snaps, 1e-3);
        let s2 = check_round_trip(&mut Sz2::new(Sz2Mode::TwoD), &snaps, 1e-3);
        assert!(s2 < s1, "2D {s2} should beat 1D {s1} (Table IV shape)");
    }

    #[test]
    fn single_snapshot_and_single_particle() {
        for mode in [Sz2Mode::OneD, Sz2Mode::TwoD] {
            check_round_trip(&mut Sz2::new(mode), &[vec![1.0, 2.0, 3.0]], 1e-4);
            check_round_trip(&mut Sz2::new(mode), &[vec![1.0], vec![1.1], vec![0.9]], 1e-4);
        }
    }

    #[test]
    fn non_finite_values() {
        let mut snaps = lattice_buffer(3, 50, 0.0, 5);
        snaps[1][3] = f64::NAN;
        check_round_trip(&mut Sz2::new(Sz2Mode::TwoD), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Sz2::new(Sz2Mode::TwoD);
        let blob =
            c.compress_buffer(&lattice_buffer(3, 50, 0.0, 5), ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [0, 3, blob.len() / 2] {
            assert!(c.decompress_buffer(&blob[..cut]).is_err());
        }
    }
}
