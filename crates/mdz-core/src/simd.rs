//! Vectorized fused predict/quantize kernels, byte-identical to the scalar
//! pipeline.
//!
//! The encode hot loop — subtract prediction, scale by `1/(2ε)`, round half
//! away from zero, range-check, reconstruct, bound-check — is lane-parallel
//! whenever the predictor is a precomputed slice (the time predictors and
//! the VQ grid; Lorenzo's `recon[i-1]` chain stays scalar). Each kernel is
//! one portable, branch-free lane loop ([`quantize_lanes`] and
//! [`vq_levels_tail`]) that the compiler vectorizes, and the dispatch level
//! of [`mdz_entropy::kernel`] picks the instruction set it runs compiled
//! for:
//!
//! * x86_64: one `#[target_feature]` wrapper per level detection reports,
//!   AVX2 and SSE4.1. Both lower `f64::round` to packed `roundpd`; at the
//!   SSE2 baseline it is a libm call per value. Each call re-checks the
//!   host feature, so no level a caller passes can run an instruction the
//!   host lacks. The wrappers and their calls are the only code mdz-core's
//!   crate root allows to be `unsafe`.
//! * aarch64: the loops are called directly. NEON is the baseline there,
//!   and `round` lowers to `frinta`.
//! * [`SimdLevel::Scalar`]: the scalar quantizer itself, the differential
//!   oracle.
//!
//! Byte-identity holds because the lanes run the scalar arithmetic in the
//! same order, with the escape branches turned into selects. Two steps are
//! spelled differently but compute the same bits:
//!
//! * **Signed zero.** The scalar path reconstructs with `q as i64 as f64`,
//!   which turns `-0.0` into `+0.0`; the lanes add `+0.0` to the rounded
//!   float at the same point.
//! * **Code conversion.** An in-range code `qf + radius` is an integer
//!   below 2³³. Adding 2⁵² leaves it exactly in the low mantissa bits, so
//!   the low 32 bits of the sum equal the scalar `(q + radius) as u32` for
//!   every `u32` radius. A saturating `as i32` would not vectorize.
//!
//! Escapes are encoded in-band: a lane that escapes for any reason (non-
//! finite residual, out-of-range code, bound-check failure) gets code `0`
//! — never a legitimate code, which start at 1 — and its reconstruction
//! slot holds the original value, exactly as the scalar path leaves things.
//! Callers scan for zeros to build the escape list.

use crate::quant::{LinearQuantizer, Quantized};
use mdz_entropy::kernel::SimdLevel;

/// 2⁵²: adding it to an integer-valued `f64` in `[0, 2⁵²)` leaves the
/// integer in the low bits of the sum's bit pattern.
const MANTISSA_SHIFT: f64 = 4_503_599_627_370_496.0;

/// Scalar oracle: the real quantizer, verbatim, writing in-band escape
/// codes.
fn quantize_tail(
    quant: &LinearQuantizer,
    values: &[f64],
    preds: &[f64],
    codes: &mut [u32],
    recon: &mut [f64],
) {
    for i in 0..values.len() {
        codes[i] = match quant.quantize(values[i], preds[i], &mut recon[i]) {
            Quantized::Code(c) => c,
            Quantized::Escape => 0,
        };
    }
}

/// [`LinearQuantizer::quantize`] as one branch-free lane loop: the same
/// arithmetic in the same order, its three escape tests folded into one
/// select per lane.
#[inline(always)]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), allow(dead_code))]
fn quantize_lanes(
    quant: &LinearQuantizer,
    values: &[f64],
    preds: &[f64],
    codes: &mut [u32],
    recon: &mut [f64],
) {
    let inv = quant.inv_step();
    let eps = quant.eps();
    let step2 = 2.0 * eps;
    let radius = f64::from(quant.radius());
    for (((&v, &p), code), rec_out) in values.iter().zip(preds).zip(codes).zip(recon) {
        let diff = v - p;
        let qf = (diff * inv).round();
        let rec = p + step2 * (qf + 0.0);
        let ok = diff.is_finite() & (qf.abs() < radius) & ((rec - v).abs() <= eps);
        *rec_out = if ok { rec } else { v };
        let codef = if ok { qf + radius } else { 0.0 };
        *code = (codef + MANTISSA_SHIFT).to_bits() as u32;
    }
}

/// Fused quantize of `values` against per-lane predictions `preds`.
///
/// Appends exactly `values.len()` codes to `codes_out` (0 = escape) and
/// fills `recon[..values.len()]` with the decoder-visible reconstructions
/// (the original value on escape). `level` is the dispatch level captured
/// once by the caller; a level the host lacks runs the scalar oracle.
pub(crate) fn quantize_predicted(
    quant: &LinearQuantizer,
    values: &[f64],
    preds: &[f64],
    codes_out: &mut Vec<u32>,
    recon: &mut [f64],
    level: SimdLevel,
) {
    debug_assert_eq!(values.len(), preds.len());
    let start = codes_out.len();
    codes_out.resize(start + values.len(), 0);
    let codes = &mut codes_out[start..];
    let recon = &mut recon[..values.len()];
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard has just detected AVX2 on this host.
        SimdLevel::Avx2 if is_x86_feature_detected!("avx2") => unsafe {
            x86::quantize_avx2(quant, values, preds, codes, recon)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard has just detected SSE4.1 on this host.
        SimdLevel::Sse41 if is_x86_feature_detected!("sse4.1") => unsafe {
            x86::quantize_sse41(quant, values, preds, codes, recon)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => quantize_lanes(quant, values, preds, codes, recon),
        _ => quantize_tail(quant, values, preds, codes, recon),
    }
}

/// VQ level rounding: for each value computes the rounded level index float
/// `lf = round((d − μ)/λ)` and the level prediction `μ + λ·(lf + 0.0)`.
///
/// `lf + 0.0` matches the scalar path's `level as i64 as f64` exactly for
/// every level the sweep accepts (integral, magnitude ≤ 2⁴⁰, signed zero
/// canonicalized); lanes the sweep rejects never use their prediction.
pub(crate) fn vq_levels(
    mu: f64,
    lambda: f64,
    values: &[f64],
    lf_out: &mut [f64],
    pred_out: &mut [f64],
    level: SimdLevel,
) {
    debug_assert_eq!(values.len(), lf_out.len());
    debug_assert_eq!(values.len(), pred_out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard has just detected AVX2 on this host.
        SimdLevel::Avx2 if is_x86_feature_detected!("avx2") => unsafe {
            x86::vq_levels_avx2(mu, lambda, values, lf_out, pred_out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard has just detected SSE4.1 on this host.
        SimdLevel::Sse41 if is_x86_feature_detected!("sse4.1") => unsafe {
            x86::vq_levels_sse41(mu, lambda, values, lf_out, pred_out)
        },
        _ => vq_levels_tail(mu, lambda, values, lf_out, pred_out),
    }
}

/// Scalar form of [`vq_levels`], already branch-free: the lane loop every
/// level runs.
#[inline(always)]
fn vq_levels_tail(mu: f64, lambda: f64, values: &[f64], lf_out: &mut [f64], pred_out: &mut [f64]) {
    for ((&d, lf_slot), pred_slot) in values.iter().zip(lf_out).zip(pred_out) {
        let lf = ((d - mu) / lambda).round();
        *lf_slot = lf;
        *pred_slot = mu + lambda * (lf + 0.0);
    }
}

/// The lane loops compiled once per x86_64 level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{quantize_lanes, vq_levels_tail, LinearQuantizer};

    /// [`quantize_lanes`] compiled for AVX2 (4 lanes).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(
        quant: &LinearQuantizer,
        values: &[f64],
        preds: &[f64],
        codes: &mut [u32],
        recon: &mut [f64],
    ) {
        quantize_lanes(quant, values, preds, codes, recon)
    }

    /// [`quantize_lanes`] compiled for SSE4.1 (2 lanes).
    ///
    /// # Safety
    ///
    /// The host must support SSE4.1.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn quantize_sse41(
        quant: &LinearQuantizer,
        values: &[f64],
        preds: &[f64],
        codes: &mut [u32],
        recon: &mut [f64],
    ) {
        quantize_lanes(quant, values, preds, codes, recon)
    }

    /// [`vq_levels_tail`] compiled for AVX2 (4 lanes).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vq_levels_avx2(
        mu: f64,
        lambda: f64,
        values: &[f64],
        lf_out: &mut [f64],
        pred_out: &mut [f64],
    ) {
        vq_levels_tail(mu, lambda, values, lf_out, pred_out)
    }

    /// [`vq_levels_tail`] compiled for SSE4.1 (2 lanes).
    ///
    /// # Safety
    ///
    /// The host must support SSE4.1.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn vq_levels_sse41(
        mu: f64,
        lambda: f64,
        values: &[f64],
        lf_out: &mut [f64],
        pred_out: &mut [f64],
    ) {
        vq_levels_tail(mu, lambda, values, lf_out, pred_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdz_entropy::kernel;

    /// Every level the host can actually execute, oracle included.
    fn runnable_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        match kernel::detected_level() {
            SimdLevel::Avx2 => {
                levels.push(SimdLevel::Sse41);
                levels.push(SimdLevel::Avx2);
            }
            l @ (SimdLevel::Sse41 | SimdLevel::Neon) => levels.push(l),
            SimdLevel::Scalar => {}
        }
        levels
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|f| f.to_bits()).collect()
    }

    /// The scalar oracle's codes and reconstruction bits.
    fn quantize_oracle(
        quant: &LinearQuantizer,
        values: &[f64],
        preds: &[f64],
    ) -> (Vec<u32>, Vec<u64>) {
        let mut codes = vec![0; values.len()];
        let mut recon = vec![0.0; values.len()];
        quantize_tail(quant, values, preds, &mut codes, &mut recon);
        (codes, bits(&recon))
    }

    /// Codes and reconstruction bits from every runnable level, then from
    /// the lane loop at the build's baseline features (the code aarch64
    /// runs), each labelled.
    fn quantize_arms(
        quant: &LinearQuantizer,
        values: &[f64],
        preds: &[f64],
    ) -> Vec<(String, Vec<u32>, Vec<u64>)> {
        let mut arms: Vec<_> = runnable_levels()
            .into_iter()
            .map(|lv| {
                let mut codes = Vec::new();
                let mut recon = vec![0.0; values.len()];
                quantize_predicted(quant, values, preds, &mut codes, &mut recon, lv);
                (format!("{lv:?}"), codes, bits(&recon))
            })
            .collect();
        let mut codes = vec![0; values.len()];
        let mut recon = vec![0.0; values.len()];
        quantize_lanes(quant, values, preds, &mut codes, &mut recon);
        arms.push(("baseline lanes".to_string(), codes, bits(&recon)));
        arms
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state
    }

    /// Adversarial value/prediction pairs: exact ties at the rounding step,
    /// signed zeros, escapes of all three kinds, and ordinary noise.
    fn test_pairs(eps: f64, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut values = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        for k in 0..n {
            let r = lcg(&mut state);
            let pred = match r % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => ((r >> 8) % 1000) as f64 * 0.1 - 50.0,
                3 => f64::NAN,
                4 => f64::INFINITY,
                _ => ((r >> 8) % 100_000) as f64 * 1e-4,
            };
            let value = match (r >> 32) % 8 {
                // Exact half-step residuals: diff = (m + 0.5) · 2ε hits the
                // rounding tie dead on for every sign combination.
                0 => pred + (2.0 * eps) * (((k % 9) as f64 - 4.0) + 0.5),
                1 => pred - (2.0 * eps) * (((k % 5) as f64) + 0.5),
                // Out-of-range residual → range escape.
                2 => pred + 3.0e9 * eps,
                // Non-finite value → finite-check escape.
                3 => f64::NAN,
                4 => -0.0,
                _ => pred + ((r >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 100.0 * eps,
            };
            values.push(value);
            preds.push(pred);
        }
        (values, preds)
    }

    #[test]
    fn quantize_kernels_match_scalar_bit_for_bit() {
        for eps in [1e-3, 1e-6, 0.25, 1e3] {
            // 2²⁴ is the largest radius `MdzConfig::validate` admits;
            // `u32::MAX` checks that the code conversion is exact for any radius.
            for radius in [512u32, 1 << 23, 1 << 24, u32::MAX] {
                let quant = LinearQuantizer::new(eps, radius);
                let (values, preds) = test_pairs(eps, 257, 0x00D1_CE00 + radius as u64);
                let (want_codes, want_bits) = quantize_oracle(&quant, &values, &preds);
                for (arm, codes, got_bits) in quantize_arms(&quant, &values, &preds) {
                    assert_eq!(codes, want_codes, "codes {arm} eps {eps} radius {radius}");
                    assert_eq!(got_bits, want_bits, "recon {arm} eps {eps} radius {radius}");
                }
            }
        }
    }

    #[test]
    fn vq_level_kernels_match_scalar_bit_for_bit() {
        let mu = 1.2345;
        let lambda = 0.037;
        let mut state = 0xBEEF_u64;
        let mut values: Vec<f64> = (0..513)
            .map(|k| {
                let r = lcg(&mut state);
                match r % 6 {
                    // Exact tie: d = μ + (m + 0.5)·λ.
                    0 => mu + ((k % 11) as f64 - 5.0 + 0.5) * lambda,
                    1 => f64::NAN,
                    2 => f64::INFINITY,
                    3 => -0.0,
                    _ => mu + ((r >> 16) as f64 / (1u64 << 32) as f64 - 0.5) * 1e4 * lambda,
                }
            })
            .collect();
        values.push(mu); // exact level 0
        let n = values.len();
        // The oracle is the scalar per-value expression, written out.
        let want_lf: Vec<f64> = values.iter().map(|&d| ((d - mu) / lambda).round()).collect();
        let want_pred: Vec<f64> = want_lf.iter().map(|&lf| mu + lambda * (lf + 0.0)).collect();
        let mut arms: Vec<(String, Vec<f64>, Vec<f64>)> = runnable_levels()
            .into_iter()
            .map(|lv| {
                let mut lf = vec![0.0; n];
                let mut pred = vec![0.0; n];
                vq_levels(mu, lambda, &values, &mut lf, &mut pred, lv);
                (format!("{lv:?}"), lf, pred)
            })
            .collect();
        let mut lf = vec![0.0; n];
        let mut pred = vec![0.0; n];
        vq_levels_tail(mu, lambda, &values, &mut lf, &mut pred);
        arms.push(("baseline lanes".to_string(), lf, pred));
        for (arm, lf, pred) in arms {
            for i in 0..n {
                assert_eq!(
                    lf[i].to_bits(),
                    want_lf[i].to_bits(),
                    "lf {arm} lane {i}: value {:?} got {:?} want {:?}",
                    values[i],
                    lf[i],
                    want_lf[i]
                );
                assert_eq!(
                    pred[i].to_bits(),
                    want_pred[i].to_bits(),
                    "pred {arm} lane {i}: value {:?} got {:?} want {:?}",
                    values[i],
                    pred[i],
                    want_pred[i]
                );
            }
        }
    }

    #[test]
    fn ties_round_half_away_from_zero_in_every_arm() {
        let quant = LinearQuantizer::new(0.5, 512); // inv_step = 1, step2 = 1
        let values = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 3.5, -3.5];
        let preds = [0.0; 8];
        let (want_codes, want_bits) = quantize_oracle(&quant, &values, &preds);
        // Sanity-check the oracle itself: f64::round is half-away-from-zero.
        let q: Vec<i64> = want_codes.iter().map(|&c| i64::from(c) - 512).collect();
        assert_eq!(q, vec![1, 2, 3, -1, -2, -3, 4, -4]);
        for (arm, codes, got_bits) in quantize_arms(&quant, &values, &preds) {
            assert_eq!(codes, want_codes, "{arm}");
            assert_eq!(got_bits, want_bits, "{arm}");
        }
    }

    #[test]
    fn negative_zero_prediction_reconstructs_identically() {
        let quant = LinearQuantizer::new(1e-3, 512);
        // diff rounds to q = 0 with pred = -0.0: scalar yields -0.0 + +0.0
        // = +0.0; a lane without the `+ 0.0` would produce -0.0.
        let values = [1e-5, -1e-5, 0.0, -0.0];
        let preds = [-0.0, -0.0, -0.0, -0.0];
        let (want_codes, want_bits) = quantize_oracle(&quant, &values, &preds);
        for (arm, codes, got_bits) in quantize_arms(&quant, &values, &preds) {
            assert_eq!(codes, want_codes, "{arm}");
            assert_eq!(got_bits, want_bits, "{arm}");
        }
    }
}
