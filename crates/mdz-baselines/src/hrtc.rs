//! HRTC baseline: piecewise-linear trajectory approximation.
//!
//! HRTC (Huwald et al., J. Comput. Chem. 2016) represents each particle's
//! trajectory as line segments fitted under the error bound, with
//! error-controlled quantization of the segment parameters and a
//! variable-length integer encoding. We implement the swing-filter variant:
//! a segment grows while some slope keeps every point within tolerance; the
//! anchor and slope are then snapped to error-budgeted grids.
//!
//! Error budget: the filter runs at `τ = eps/2` against the *quantized*
//! anchor, and the slope grid is `eps/(4·len)` so the quantized line stays
//! within `eps/2 + eps/4 < eps` of every point.

use crate::common::{read_header, read_payload, write_header, write_payload};
use mdz_core::{Codec, ErrorBound, MdzError, Result};
use mdz_entropy::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};

const MAGIC: &[u8; 4] = b"HRTC";
/// Anchor grid indices beyond this escape to raw segments.
const MAX_GRID: f64 = (1i64 << 60) as f64;

/// The HRTC-style baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Hrtc;

impl Hrtc {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

/// One encoded segment of a particle's time series.
enum Segment {
    /// `len ≥ 1` points on the line `anchor + slope·k` (grids applied).
    Line { len: usize, anchor_idx: i64, slope_idx: i64 },
    /// One verbatim value (non-finite or out-of-grid).
    Raw(f64),
}

/// Greedy swing-filter segmentation of one series.
fn segment_series(series: &[f64], eps: f64) -> Vec<Segment> {
    let tau = eps / 2.0;
    let anchor_grid = eps / 4.0;
    let mut segs = Vec::new();
    let mut t = 0;
    while t < series.len() {
        let v0 = series[t];
        let a_idx_f = (v0 / anchor_grid).round();
        if !v0.is_finite() || !a_idx_f.is_finite() || a_idx_f.abs() > MAX_GRID {
            segs.push(Segment::Raw(v0));
            t += 1;
            continue;
        }
        let anchor_idx = a_idx_f as i64;
        let anchor = anchor_idx as f64 * anchor_grid;
        if (anchor - v0).abs() > tau {
            // Pathological magnitude where the grid collapses; store raw.
            segs.push(Segment::Raw(v0));
            t += 1;
            continue;
        }
        // Grow the segment while slope bounds stay non-empty.
        let mut lo = f64::NEG_INFINITY;
        let mut hi = f64::INFINITY;
        let mut len = 1;
        while t + len < series.len() {
            let v = series[t + len];
            if !v.is_finite() {
                break;
            }
            let k = len as f64;
            let new_lo = lo.max((v - tau - anchor) / k);
            let new_hi = hi.min((v + tau - anchor) / k);
            if new_lo > new_hi {
                break;
            }
            lo = new_lo;
            hi = new_hi;
            len += 1;
        }
        let slope_idx = if len == 1 {
            0
        } else {
            let mid = 0.5 * (lo.max(-1e300) + hi.min(1e300));
            let slope_grid = eps / (4.0 * (len - 1) as f64);
            let idx_f = (mid / slope_grid).round();
            if !idx_f.is_finite() || idx_f.abs() > MAX_GRID {
                // Give up on the line; emit the anchor point alone.
                len = 1;
                0
            } else {
                // The quantized slope must still satisfy the filter bounds;
                // the grid is fine enough that rounding stays inside.
                idx_f as i64
            }
        };
        segs.push(Segment::Line { len, anchor_idx, slope_idx });
        t += len;
    }
    segs
}

impl Codec for Hrtc {
    fn name(&self) -> &'static str {
        "HRTC"
    }

    fn reset(&mut self) {}

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        let eps = bound.absolute_for(snapshots);
        let m = snapshots.len();
        let n = snapshots[0].len();
        let mut out = Vec::new();
        write_header(&mut out, MAGIC, m, n, eps);
        let mut inner = Vec::new();
        let mut series = Vec::with_capacity(m);
        for p in 0..n {
            series.clear();
            for snap in snapshots {
                series.push(snap[p]);
            }
            let segs = segment_series(&series, eps);
            write_uvarint(&mut inner, segs.len() as u64);
            for seg in &segs {
                match *seg {
                    Segment::Line { len, anchor_idx, slope_idx } => {
                        // Tag: (len << 1) | 0.
                        write_uvarint(&mut inner, (len as u64) << 1);
                        write_ivarint(&mut inner, anchor_idx);
                        if len > 1 {
                            write_ivarint(&mut inner, slope_idx);
                        }
                    }
                    Segment::Raw(v) => {
                        write_uvarint(&mut inner, (1u64 << 1) | 1);
                        inner.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        write_payload(&mut out, &inner);
        Ok(out)
    }

    #[allow(clippy::needless_range_loop)] // p indexes a column across rows
    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let anchor_grid = eps / 4.0;
        let inner = read_payload(data, &mut pos)?;
        let mut ipos = 0;
        let mut out = vec![vec![0.0f64; n]; m];
        for p in 0..n {
            let n_segs = read_uvarint(&inner, &mut ipos)? as usize;
            if n_segs > m {
                return Err(MdzError::Corrupt { what: "too many segments" });
            }
            let mut t = 0usize;
            for _ in 0..n_segs {
                let tag = read_uvarint(&inner, &mut ipos)?;
                let raw = tag & 1 == 1;
                let len = (tag >> 1) as usize;
                if len == 0 || t + len > m {
                    return Err(MdzError::Corrupt { what: "segment overruns series" });
                }
                if raw {
                    let bytes = inner
                        .get(ipos..ipos + 8)
                        .ok_or(MdzError::Corrupt { what: "truncated raw segment" })?;
                    ipos += 8;
                    out[t][p] = f64::from_le_bytes(bytes.try_into().unwrap());
                    t += 1;
                } else {
                    let anchor_idx = read_ivarint(&inner, &mut ipos)?;
                    let anchor = anchor_idx as f64 * anchor_grid;
                    let slope = if len > 1 {
                        let slope_idx = read_ivarint(&inner, &mut ipos)?;
                        let slope_grid = eps / (4.0 * (len - 1) as f64);
                        slope_idx as f64 * slope_grid
                    } else {
                        0.0
                    };
                    for k in 0..len {
                        out[t + k][p] = anchor + slope * k as f64;
                    }
                    t += len;
                }
            }
            if t != m {
                return Err(MdzError::Corrupt { what: "segments do not cover series" });
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
        let mut c = Hrtc::new();
        check_round_trip(&mut c, &lattice_buffer(10, 150, 1e-4, 31), 1e-3);
        check_round_trip(&mut c, &smooth_buffer(10, 150, 32), 1e-3);
        check_round_trip(&mut c, &[vec![1.0, 2.0]], 1e-4);
    }

    #[test]
    fn linear_trajectories_collapse_to_single_segments() {
        // Perfectly linear in time: one segment per particle.
        let snaps: Vec<Vec<f64>> =
            (0..20).map(|t| (0..100).map(|i| i as f64 + t as f64 * 0.01).collect()).collect();
        let mut c = Hrtc::new();
        let size = check_round_trip(&mut c, &snaps, 1e-3);
        assert!(size < 20 * 100 * 2, "linear data should be tiny: {size}");
    }

    #[test]
    fn segmentation_respects_bound_analytically() {
        let series = [0.0, 0.1, 0.25, 0.2, 5.0, 5.1, 5.2];
        let eps = 0.15;
        let segs = segment_series(&series, eps);
        // Replay reconstruction and check the bound.
        let anchor_grid = eps / 4.0;
        let mut t = 0;
        for seg in &segs {
            match *seg {
                Segment::Raw(v) => {
                    assert_eq!(v.to_bits(), series[t].to_bits());
                    t += 1;
                }
                Segment::Line { len, anchor_idx, slope_idx } => {
                    let anchor = anchor_idx as f64 * anchor_grid;
                    let slope = if len > 1 {
                        slope_idx as f64 * (eps / (4.0 * (len - 1) as f64))
                    } else {
                        0.0
                    };
                    for k in 0..len {
                        let r = anchor + slope * k as f64;
                        assert!((r - series[t + k]).abs() <= eps, "{r} vs {}", series[t + k]);
                    }
                    t += len;
                }
            }
        }
        assert_eq!(t, series.len());
    }

    #[test]
    fn non_finite_values_become_raw_segments() {
        let mut snaps = lattice_buffer(6, 30, 0.0, 33);
        snaps[2][5] = f64::NAN;
        snaps[4][5] = f64::INFINITY;
        check_round_trip(&mut Hrtc::new(), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Hrtc::new();
        let blob =
            c.compress_buffer(&lattice_buffer(5, 30, 0.0, 34), ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [0, 7, blob.len() / 2] {
            assert!(c.decompress_buffer(&blob[..cut]).is_err());
        }
    }
}
