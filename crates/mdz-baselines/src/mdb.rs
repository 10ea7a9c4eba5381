//! ModelarDB baseline: per-segment model selection (PMC-mean, Swing,
//! Gorilla) over each particle's time series.
//!
//! ModelarDB (Jensen et al., VLDB 2018) greedily fits each incoming time
//! series with the cheapest model that honours the bound: a constant
//! (PMC-mean), a line (Swing filter), or — when neither extends — the
//! lossless Gorilla fallback for a single value. Matching the paper's §III
//! characterization, there is *no quantization-code entropy stage*: segment
//! parameters are emitted directly as varints/raw bits, which is exactly
//! why its compression ratios collapse on MD data (Fig. 12's 1–6×).

use crate::common::{read_header, write_header};
use mdz_core::{Codec, ErrorBound, MdzError, Result};
use mdz_entropy::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};

const MAGIC: &[u8; 4] = b"BMDB";
const MAX_GRID: f64 = (1i64 << 60) as f64;

/// The ModelarDB-style baseline compressor.
#[derive(Debug, Clone, Default)]
pub struct Mdb;

impl Mdb {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }
}

enum Seg {
    /// Constant segment: `len` points at `grid_idx · (eps/2)`.
    Pmc { len: usize, grid_idx: i64 },
    /// Linear segment: anchor/slope grids as in HRTC.
    Swing { len: usize, anchor_idx: i64, slope_idx: i64 },
    /// One verbatim value.
    Raw(f64),
}

/// Longest prefix of `series` fitting a constant within `±tau` of some
/// midpoint, returned with the midpoint.
fn pmc_extent(series: &[f64], tau: f64) -> (usize, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut len = 0;
    for &v in series {
        if !v.is_finite() {
            break;
        }
        let nmin = min.min(v);
        let nmax = max.max(v);
        if nmax - nmin > 2.0 * tau {
            break;
        }
        min = nmin;
        max = nmax;
        len += 1;
    }
    (len, if len > 0 { 0.5 * (min + max) } else { 0.0 })
}

/// Longest prefix fitting a line within `±tau` from a fixed anchor.
fn swing_extent(series: &[f64], anchor: f64, tau: f64) -> (usize, f64) {
    if series.is_empty() || !series[0].is_finite() || (series[0] - anchor).abs() > tau {
        return (0, 0.0);
    }
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    let mut len = 1;
    while len < series.len() {
        let v = series[len];
        if !v.is_finite() {
            break;
        }
        let k = len as f64;
        let nlo = lo.max((v - tau - anchor) / k);
        let nhi = hi.min((v + tau - anchor) / k);
        if nlo > nhi {
            break;
        }
        lo = nlo;
        hi = nhi;
        len += 1;
    }
    let slope = if len > 1 { 0.5 * (lo + hi) } else { 0.0 };
    (len, slope)
}

fn segment_series(series: &[f64], eps: f64) -> Vec<Seg> {
    // Error budget: model fit τ + parameter grids ≤ eps.
    let tau = eps * 0.5;
    let const_grid = eps * 0.25;
    let mut segs = Vec::new();
    let mut t = 0;
    while t < series.len() {
        let rest = &series[t..];
        let v0 = rest[0];
        if !v0.is_finite() {
            segs.push(Seg::Raw(v0));
            t += 1;
            continue;
        }
        let (pmc_len, mid) = pmc_extent(rest, tau);
        let mid_idx_f = (mid / const_grid).round();
        let anchor_idx_f = (v0 / (eps / 4.0)).round();
        if !mid_idx_f.is_finite()
            || mid_idx_f.abs() > MAX_GRID
            || !anchor_idx_f.is_finite()
            || anchor_idx_f.abs() > MAX_GRID
        {
            segs.push(Seg::Raw(v0));
            t += 1;
            continue;
        }
        let anchor = anchor_idx_f * (eps / 4.0);
        let (swing_len, slope) = swing_extent(rest, anchor, tau);
        // Model choice: swing costs one extra varint; require it to cover
        // at least two more points than the constant to pay for itself.
        if swing_len >= pmc_len + 2 && swing_len >= 2 {
            let slope_grid = eps / (4.0 * (swing_len - 1) as f64);
            let slope_idx_f = (slope / slope_grid).round();
            if slope_idx_f.is_finite() && slope_idx_f.abs() <= MAX_GRID {
                segs.push(Seg::Swing {
                    len: swing_len,
                    anchor_idx: anchor_idx_f as i64,
                    slope_idx: slope_idx_f as i64,
                });
                t += swing_len;
                continue;
            }
        }
        if pmc_len >= 1 {
            segs.push(Seg::Pmc { len: pmc_len, grid_idx: mid_idx_f as i64 });
            t += pmc_len;
        } else {
            segs.push(Seg::Raw(v0));
            t += 1;
        }
    }
    segs
}

impl Codec for Mdb {
    fn name(&self) -> &'static str {
        "MDB"
    }

    fn reset(&mut self) {}

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        let eps = bound.absolute_for(snapshots);
        let m = snapshots.len();
        let n = snapshots[0].len();
        let mut out = Vec::new();
        write_header(&mut out, MAGIC, m, n, eps);
        let mut series = Vec::with_capacity(m);
        for p in 0..n {
            series.clear();
            for snap in snapshots {
                series.push(snap[p]);
            }
            let segs = segment_series(&series, eps);
            write_uvarint(&mut out, segs.len() as u64);
            for seg in &segs {
                match *seg {
                    Seg::Pmc { len, grid_idx } => {
                        write_uvarint(&mut out, (len as u64) << 2);
                        write_ivarint(&mut out, grid_idx);
                    }
                    Seg::Swing { len, anchor_idx, slope_idx } => {
                        write_uvarint(&mut out, ((len as u64) << 2) | 1);
                        write_ivarint(&mut out, anchor_idx);
                        write_ivarint(&mut out, slope_idx);
                    }
                    Seg::Raw(v) => {
                        write_uvarint(&mut out, (1u64 << 2) | 2);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        Ok(out)
    }

    #[allow(clippy::needless_range_loop)] // p indexes a column across rows
    fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Vec<f64>>> {
        let mut pos = 0;
        let (m, n, eps) = read_header(data, &mut pos, MAGIC)?;
        let const_grid = eps * 0.25;
        let mut out = vec![vec![0.0f64; n]; m];
        for p in 0..n {
            let n_segs = read_uvarint(data, &mut pos)? as usize;
            if n_segs > m {
                return Err(MdzError::Corrupt { what: "too many segments" });
            }
            let mut t = 0usize;
            for _ in 0..n_segs {
                let tag = read_uvarint(data, &mut pos)?;
                let kind = tag & 3;
                let len = (tag >> 2) as usize;
                if len == 0 || t + len > m {
                    return Err(MdzError::Corrupt { what: "segment overruns series" });
                }
                match kind {
                    0 => {
                        let grid_idx = read_ivarint(data, &mut pos)?;
                        let v = grid_idx as f64 * const_grid;
                        for k in 0..len {
                            out[t + k][p] = v;
                        }
                    }
                    1 => {
                        let anchor_idx = read_ivarint(data, &mut pos)?;
                        let slope_idx = read_ivarint(data, &mut pos)?;
                        let anchor = anchor_idx as f64 * (eps / 4.0);
                        let slope_grid = eps / (4.0 * (len.max(2) - 1) as f64);
                        let slope = slope_idx as f64 * slope_grid;
                        for k in 0..len {
                            out[t + k][p] = anchor + slope * k as f64;
                        }
                    }
                    2 => {
                        let bytes = data
                            .get(pos..pos + 8)
                            .ok_or(MdzError::Corrupt { what: "truncated raw value" })?;
                        pos += 8;
                        out[t][p] = f64::from_le_bytes(bytes.try_into().unwrap());
                    }
                    _ => return Err(MdzError::Corrupt { what: "unknown segment kind" }),
                }
                t += len;
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
        let mut c = Mdb::new();
        check_round_trip(&mut c, &lattice_buffer(10, 100, 1e-4, 51), 1e-3);
        check_round_trip(&mut c, &smooth_buffer(10, 100, 52), 1e-3);
        check_round_trip(&mut c, &[vec![9.0]], 1e-5);
    }

    #[test]
    fn constant_series_uses_one_pmc_segment() {
        let snaps = vec![vec![5.0; 50]; 20];
        let mut c = Mdb::new();
        let size = check_round_trip(&mut c, &snaps, 1e-3);
        // One segment per particle: tag + grid index ≈ a few bytes each.
        assert!(size < 50 * 12 + 64, "got {size}");
    }

    #[test]
    fn pmc_extent_logic() {
        let (len, mid) = pmc_extent(&[1.0, 1.05, 0.95, 1.02, 3.0], 0.1);
        assert_eq!(len, 4);
        assert!((mid - 1.0).abs() < 0.05);
        let (len0, _) = pmc_extent(&[f64::NAN, 1.0], 0.1);
        assert_eq!(len0, 0);
    }

    #[test]
    fn swing_beats_pmc_on_ramps() {
        let series: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let segs = segment_series(&series, 0.01);
        assert_eq!(segs.len(), 1);
        assert!(matches!(segs[0], Seg::Swing { len: 10, .. }));
    }

    #[test]
    fn non_finite_values() {
        let mut snaps = lattice_buffer(6, 40, 0.0, 53);
        snaps[0][0] = f64::INFINITY;
        snaps[3][3] = f64::NAN;
        check_round_trip(&mut Mdb::new(), &snaps, 1e-3);
    }

    #[test]
    fn corrupt_input_errors() {
        let mut c = Mdb::new();
        let blob =
            c.compress_buffer(&lattice_buffer(4, 30, 0.0, 54), ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [0, 6, blob.len() / 3] {
            assert!(c.decompress_buffer(&blob[..cut]).is_err());
        }
    }
}
