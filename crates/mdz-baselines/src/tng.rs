//! TNG baseline: fixed-point quantization + intra-frame delta + dictionary
//! coding.
//!
//! TNG (Lundborg et al., the GROMACS trajectory format) stores coordinates
//! as fixed-point integers at a user precision, delta-codes consecutive
//! atoms within a frame, and packs the integers with a palette of integer
//! codecs. We reproduce that pipeline with zigzag varints plus the LZ
//! stage. The error bound maps to the fixed-point step: `step = 2·eps`
//! guarantees `|d − d'| ≤ eps`.

use std::collections::HashMap;

use crate::common::{read_header, read_payload, write_header, write_payload};
use mdz_core::quant::{read_escapes, write_escapes};
use mdz_core::{Codec, ErrorBound, Result};
use mdz_entropy::{read_uvarint, write_ivarint, zigzag_decode, zigzag_encode};

const MAGIC: &[u8; 4] = b"BTNG";
/// Fixed-point integers beyond this escape to raw storage.
const MAX_FIXED: f64 = (1i64 << 60) as f64;

/// The TNG-style baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Tng;

impl Tng {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Codec for Tng {
    fn name(&self) -> &'static str {
        "TNG"
    }

    fn reset(&mut self) {}

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        let eps = bound.absolute_for(snapshots);
        let m = snapshots.len();
        let n = snapshots[0].len();
        let step = 2.0 * eps;
        let mut out = Vec::new();
        write_header(&mut out, MAGIC, m, n, eps);
        let mut inner = Vec::with_capacity(m * n * 2);
        let mut escapes: Vec<(usize, f64)> = Vec::new();
        for (t, snap) in snapshots.iter().enumerate() {
            let mut prev = 0i64;
            for (i, &v) in snap.iter().enumerate() {
                let fixed = (v / step).round();
                if !fixed.is_finite() || fixed.abs() > MAX_FIXED || (fixed * step - v).abs() > eps {
                    // Escape: emit delta 0, store raw value.
                    write_ivarint(&mut inner, 0);
                    escapes.push((t * n + i, v));
                    continue;
                }
                let q = fixed as i64;
                write_ivarint(&mut inner, q - prev);
                prev = q;
            }
        }
        write_escapes(&mut inner, &escapes);
        write_payload(&mut out, &inner);
        Ok(out)
    }

    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let step = 2.0 * eps;
        let inner = read_payload(data, &mut pos)?;
        let mut ipos = 0;
        // First pass: read the delta stream.
        // Capped eager allocation: the loop hits UnexpectedEof long before
        // a forged m·n fills it.
        let mut deltas = Vec::with_capacity((m * n).min(1 << 20));
        for _ in 0..m * n {
            deltas.push(zigzag_decode(read_uvarint(&inner, &mut ipos)?));
        }
        let mut escapes = HashMap::new();
        read_escapes(&inner, &mut ipos, m * n, &mut escapes)?;
        let mut out = Vec::with_capacity(m);
        for t in 0..m {
            let mut snap = Vec::with_capacity(n);
            let mut prev = 0i64;
            for i in 0..n {
                let flat = t * n + i;
                if let Some(&raw) = escapes.get(&flat) {
                    // Escaped value; the delta stream carried a 0 for it.
                    snap.push(raw);
                    continue;
                }
                prev = prev.wrapping_add(deltas[flat]);
                snap.push(prev as f64 * step);
            }
            out.push(snap);
        }
        Ok(out)
    }
}

// Silence unused warning for zigzag_encode which documents the symmetry.
const _: fn(i64) -> u64 = zigzag_encode;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_round_trip, lattice_buffer, smooth_buffer};

    #[test]
    fn round_trips() {
        let mut c = Tng::new();
        check_round_trip(&mut c, &lattice_buffer(6, 200, 1e-4, 21), 1e-3);
        check_round_trip(&mut c, &smooth_buffer(6, 200, 22), 1e-3);
        check_round_trip(&mut c, &[vec![5.0]], 1e-6);
    }

    #[test]
    fn delta_coding_helps_on_sorted_coordinates() {
        // Monotone coordinates → small deltas → small varints.
        let snaps: Vec<Vec<f64>> =
            (0..4).map(|_| (0..1000).map(|i| i as f64 * 0.5).collect()).collect();
        let mut c = Tng::new();
        let size = check_round_trip(&mut c, &snaps, 1e-3);
        assert!(size < 4 * 1000 * 2, "expected tight packing, got {size}");
    }

    #[test]
    fn non_finite_and_huge_values_escape() {
        let mut snaps = lattice_buffer(3, 40, 0.0, 9);
        snaps[0][0] = f64::NAN;
        snaps[1][1] = 1e300;
        snaps[2][2] = f64::NEG_INFINITY;
        check_round_trip(&mut Tng::new(), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Tng::new();
        let blob =
            c.compress_buffer(&lattice_buffer(3, 40, 0.0, 9), ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [0, 5, blob.len() - 1] {
            assert!(c.decompress_buffer(&blob[..cut]).is_err());
        }
    }
}
