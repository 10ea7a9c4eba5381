//! SZ3-style interpolation baseline.
//!
//! SZ3 / SZ-Interp (Zhao et al., ICDE 2021 — the paper's reference \[31\])
//! replaces Lorenzo prediction with level-by-level *spline interpolation*:
//! grid points are reconstructed coarsest-first, and each finer level's
//! points are predicted by interpolating already-reconstructed neighbours.
//! The MDZ paper argues this family is sub-optimal on MD data (§II) because
//! particle data is not smooth in space; this implementation lets the
//! evaluation test that claim directly.
//!
//! The predictor interpolates along one dimension of the `M × N` buffer —
//! per-snapshot (space) or per-particle (time) — trying both and keeping
//! the smaller output, which mirrors SZ3's dimension auto-tuning.

use crate::common::{read_header, write_header, CodeSink, CodeSource, RADIUS};
use mdz_core::LinearQuantizer;
use mdz_core::{Codec, ErrorBound, MdzError, Result};

const MAGIC: &[u8; 4] = b"BSZ3";

/// The SZ3-style interpolation baseline.
#[derive(Debug, Clone, Default)]
pub struct Sz3;

impl Sz3 {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

/// Visits the indices of a 1-D multilevel interpolation in coding order,
/// yielding `(index, left_neighbour, right_neighbour)`; `right` is `None`
/// at the series tail where only one-sided prediction is possible.
fn visit_levels(n: usize, mut f: impl FnMut(usize, Option<usize>, Option<usize>)) {
    if n == 0 {
        return;
    }
    // Index 0 is the root anchor (no neighbours).
    f(0, None, None);
    if n == 1 {
        return;
    }
    let mut stride = 1usize;
    while stride < n - 1 {
        stride <<= 1;
    }
    // Levels: odd multiples of s, with neighbours at ±s (multiples of 2s).
    let mut s = stride;
    while s >= 1 {
        let mut i = s;
        while i < n {
            let left = Some(i - s);
            let right = if i + s < n { Some(i + s) } else { None };
            f(i, left, right);
            i += 2 * s;
        }
        if s == 1 {
            break;
        }
        s >>= 1;
    }
}

/// Encodes one series with multilevel linear interpolation.
fn encode_series(series: &[f64], quant: &LinearQuantizer, sink: &mut CodeSink) {
    let mut recon = vec![0.0f64; series.len()];
    visit_levels(series.len(), |i, left, right| {
        let pred = match (left, right) {
            (Some(l), Some(r)) => 0.5 * (recon[l] + recon[r]),
            (Some(l), None) => recon[l],
            _ => 0.0,
        };
        recon[i] = sink.push(quant, series[i], pred);
    });
}

/// Decodes one series (mirror of [`encode_series`]); `flat_base` maps local
/// indices into the sink's flat code space via `order`.
fn decode_series(
    n: usize,
    order: &[usize],
    quant: &LinearQuantizer,
    src: &CodeSource,
    out: &mut [f64],
) -> Result<()> {
    let mut k = 0usize;
    let mut err = None;
    visit_levels(n, |i, left, right| {
        if err.is_some() {
            return;
        }
        let pred = match (left, right) {
            (Some(l), Some(r)) => 0.5 * (out[l] + out[r]),
            (Some(l), None) => out[l],
            _ => 0.0,
        };
        match src.reconstruct(quant, order[k], pred) {
            Ok(v) => out[i] = v,
            Err(e) => err = Some(e),
        }
        k += 1;
    });
    err.map_or(Ok(()), Err)
}

/// Interpolation axis.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    Space,
    Time,
}

fn compress_with_axis(snapshots: &[Vec<f64>], eps: f64, axis: Axis) -> Vec<u8> {
    let m = snapshots.len();
    let n = snapshots[0].len();
    let quant = LinearQuantizer::new(eps, RADIUS);
    let mut out = Vec::new();
    write_header(&mut out, MAGIC, m, n, eps);
    out.push(match axis {
        Axis::Space => 0,
        Axis::Time => 1,
    });
    let mut sink = CodeSink::with_capacity(m * n);
    match axis {
        Axis::Space => {
            for snap in snapshots {
                encode_series(snap, &quant, &mut sink);
            }
        }
        Axis::Time => {
            let mut series = Vec::with_capacity(m);
            for p in 0..n {
                series.clear();
                for snap in snapshots {
                    series.push(snap[p]);
                }
                encode_series(&series, &quant, &mut sink);
            }
        }
    }
    sink.finish(&mut out);
    out
}

impl Codec for Sz3 {
    fn name(&self) -> &'static str {
        "SZ3"
    }

    fn reset(&mut self) {}

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        let eps = bound.absolute_for(snapshots);
        // Dimension auto-tuning: try both interpolation axes, keep smaller.
        let a = compress_with_axis(snapshots, eps, Axis::Space);
        let b = compress_with_axis(snapshots, eps, Axis::Time);
        Ok(if a.len() <= b.len() { a } else { b })
    }

    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let axis = match data.get(pos).copied() {
            Some(0) => Axis::Space,
            Some(1) => Axis::Time,
            _ => return Err(MdzError::Corrupt { what: "bad axis byte" }),
        };
        pos += 1;
        let quant = LinearQuantizer::new(eps, RADIUS);
        let src = CodeSource::parse(data, &mut pos, m * n)?;
        let mut out = vec![vec![0.0f64; n]; m];
        match axis {
            Axis::Space => {
                // Codes are consumed in visit order per snapshot; build the
                // flat-order map once.
                let order = visit_order(n);
                for (t, row) in out.iter_mut().enumerate() {
                    let shifted: Vec<usize> = order.iter().map(|&k| t * n + k).collect();
                    decode_series(n, &shifted, &quant, &src, row)?;
                }
            }
            Axis::Time => {
                let order = visit_order(m);
                let mut series = vec![0.0f64; m];
                // `out` is snapshot-major but this pass is particle-major,
                // so indexing by `p` inside the loop is the natural shape.
                #[allow(clippy::needless_range_loop)]
                for p in 0..n {
                    let shifted: Vec<usize> = order.iter().map(|&k| p * m + k).collect();
                    decode_series(m, &shifted, &quant, &src, &mut series)?;
                    for (t, &v) in series.iter().enumerate() {
                        out[t][p] = v;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Flat code offsets in series-visit order: `offsets[k]` = position within
/// the per-series code run of the k-th visited element.
fn visit_order(n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n);
    let mut k = 0usize;
    visit_levels(n, |_, _, _| {
        order.push(k);
        k += 1;
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_round_trip, lattice_buffer, smooth_buffer};

    #[test]
    fn visit_covers_all_indices_once() {
        for n in [0usize, 1, 2, 3, 5, 8, 17, 100] {
            let mut seen = vec![false; n];
            visit_levels(n, |i, left, right| {
                assert!(!seen[i], "index {i} visited twice (n={n})");
                // Neighbours must already be reconstructed.
                if let Some(l) = left {
                    assert!(seen[l], "left {l} not yet visited (n={n})");
                }
                if let Some(r) = right {
                    assert!(seen[r], "right {r} not yet visited (n={n})");
                }
                seen[i] = true;
            });
            assert!(seen.iter().all(|&s| s), "not all indices visited (n={n})");
        }
    }

    #[test]
    fn round_trips() {
        let mut c = Sz3::new();
        check_round_trip(&mut c, &lattice_buffer(8, 130, 1e-4, 71), 1e-3);
        check_round_trip(&mut c, &smooth_buffer(8, 130, 72), 1e-3);
        check_round_trip(&mut c, &[vec![1.0]], 1e-5);
        check_round_trip(&mut c, &[vec![1.0, 2.0], vec![3.0, 4.0]], 1e-5);
    }

    #[test]
    fn interpolation_excels_on_smooth_ramps() {
        // Spatially linear data: interpolation residuals vanish.
        let snaps: Vec<Vec<f64>> =
            (0..6).map(|t| (0..512).map(|i| i as f64 * 0.5 + t as f64).collect()).collect();
        let size = check_round_trip(&mut Sz3::new(), &snaps, 1e-4);
        assert!(size < 6 * 512, "expected tiny output on linear data: {size}");
    }

    #[test]
    fn picks_time_axis_on_temporally_smooth_data() {
        let snaps = smooth_buffer(16, 64, 73);
        let space = compress_with_axis(&snaps, 1e-4, Axis::Space);
        let time = compress_with_axis(&snaps, 1e-4, Axis::Time);
        assert!(time.len() < space.len(), "time {} vs space {}", time.len(), space.len());
        let auto = Sz3::new().compress_buffer(&snaps, ErrorBound::Absolute(1e-4)).unwrap();
        assert_eq!(auto.len(), time.len());
    }

    #[test]
    fn non_finite_values() {
        let mut snaps = lattice_buffer(4, 40, 0.0, 74);
        snaps[1][7] = f64::NAN;
        check_round_trip(&mut Sz3::new(), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Sz3::new();
        let blob =
            c.compress_buffer(&lattice_buffer(4, 40, 0.0, 75), ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [0, 6, blob.len() / 2] {
            assert!(c.decompress_buffer(&blob[..cut]).is_err());
        }
    }
}
