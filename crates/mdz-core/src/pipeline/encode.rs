//! Encode stage: prediction, quantization, interleaving, entropy coding,
//! and block assembly, writing into caller-owned buffers.
//!
//! The only entry point is [`encode_buffer_into`], which encodes one buffer
//! with a concrete (method, quantizer) [`Candidate`] and reports the state
//! transition as a [`StateDelta`] for the caller to commit (adaptive trials
//! discard the deltas of losing candidates). Every value is quantized by
//! one [`LinearQuantizer`]; the quantizer choice only sets its radius and
//! whether the B stream is bit-packed ([`write_bit_adaptive`]) or
//! entropy-coded like every other code stream, by the coder `cfg.entropy`
//! names. The payload is the LZ77 stream of the inner bytes, or the inner
//! bytes as they are when the candidate stores them ([`FLAG_STORED`]); the
//! LZ77 coder is called directly. All intermediate storage, the coders'
//! scratch included, lives in [`EncodeScratch`], so a warmed-up compressor
//! re-encoding same-shaped buffers performs no heap allocation here
//! (bit-adaptive width tables excepted).

use crate::format::{
    BlockHeader, Method, FLAG_BIT_ADAPTIVE, FLAG_FIRST_LORENZO, FLAG_GRID, FLAG_RANGE_CODED,
    FLAG_SEQ2, FLAG_STORED,
};
use crate::quant::{
    write_bit_adaptive, write_escapes, LinearQuantizer, Quantized, BIT_ADAPTIVE_RADIUS,
};
use crate::seq::to_seq2_into;
use crate::{EntropyStage, MdzConfig, QuantizerKind, Result};
use mdz_entropy::kernel::SimdLevel;
use mdz_entropy::range::range_encode_into;
use mdz_entropy::{
    huffman_encode_into, write_uvarint, zigzag_encode, HuffmanScratch, RangeScratch,
};
use mdz_kmeans::{detect_levels, LevelGrid, SelectConfig};
use mdz_lossless::lz77;
use mdz_obs::Obs;

use super::predict::{reference_fits, snapshot_modes_into, Predictor, SnapshotMode};
use super::{Candidate, StateDelta};

/// Level indices beyond this magnitude escape (guards λ → 0 blowups).
const MAX_LEVEL_MAG: f64 = (1u64 << 40) as f64;

/// Reusable encode-side working storage, owned by a
/// [`Compressor`](super::Compressor).
///
/// Every vector is cleared (never shrunk) between buffers, so steady-state
/// compression of same-shaped buffers runs allocation-free; the
/// `alloc_free` integration test locks this in. The Huffman, range and
/// LZ77 coders' scratch lives here too.
#[derive(Debug, Clone, Default)]
pub(crate) struct EncodeScratch {
    modes: Vec<SnapshotMode>,
    b_codes: Vec<u32>,
    j_codes: Vec<u32>,
    b_ordered: Vec<u32>,
    j_ordered: Vec<u32>,
    escapes: Vec<(usize, f64)>,
    /// Rounded VQ level indices, one per value, for the vectorized sweep.
    lf: Vec<f64>,
    /// VQ level predictions matching `lf`, for the vectorized sweep.
    vq_pred: Vec<f64>,
    recon_prev: Vec<f64>,
    recon_prev2: Vec<f64>,
    recon_cur: Vec<f64>,
    recon_first: Vec<f64>,
    extrapolated: Vec<f64>,
    inner: Vec<u8>,
    payload: Vec<u8>,
    huffman: HuffmanScratch,
    range: RangeScratch,
    lz77: lz77::Lz77Scratch,
}

/// Encodes one buffer with a concrete `candidate` into `out` (cleared
/// first), returning the state transition for the caller to commit and the
/// candidate as coded.
///
/// An ADP trial's encode (`trial`) LZ77-codes the inner bytes and keeps
/// whichever of that stream and the inner bytes is smaller (LZ77 on a tie),
/// and the returned candidate's `stored` says which; any other encode
/// stores them exactly when `candidate.stored`, and then never runs LZ77.
///
/// `grid` is the stream's decided level grid `(μ, λ)` (`None` until a
/// VQ-family encode detects it, `Some(None)` when there is none) and
/// `reference` its MT reference, if established.
///
/// Snapshots are borrowed as slices (`Vec<f64>`, `&[f64]`, …), so callers
/// holding their data elsewhere encode it without copying.
///
/// `detected` holds the level detection of this buffer's first snapshot
/// once a VQ-family encode has run it, so the candidates of one ADP trial
/// share one detection; pass `&mut None` for a buffer's first encode.
///
/// `obs` records per-stage timings (`core.encode.*_seconds`) and pipeline
/// counters; pass a no-op handle to skip all measurement.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_buffer_into<S: AsRef<[f64]>>(
    cfg: &MdzConfig,
    grid: Option<Option<(f64, f64)>>,
    reference: Option<&[f64]>,
    candidate: Candidate,
    trial: bool,
    snapshots: &[S],
    detected: &mut Option<Option<LevelGrid>>,
    out: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
    obs: &Obs,
) -> Result<(StateDelta, Candidate)> {
    let Candidate { method, quantizer, stored } = candidate;
    let m = snapshots.len();
    let n = snapshots[0].as_ref().len();
    let EncodeScratch {
        modes,
        b_codes,
        j_codes,
        b_ordered,
        j_ordered,
        escapes,
        lf,
        vq_pred,
        recon_prev,
        recon_prev2,
        recon_cur,
        recon_first,
        extrapolated,
        inner,
        payload,
        huffman,
        range,
        lz77: lz77_scratch,
    } = scratch;
    let mut delta = StateDelta::default();
    let eps = cfg.bound.absolute_for(snapshots);
    let radius = match quantizer {
        QuantizerKind::Linear => cfg.radius,
        QuantizerKind::BitAdaptive { .. } => BIT_ADAPTIVE_RADIUS,
    };
    let quant = &LinearQuantizer::new(eps, radius);

    // SIMD dispatch, captured once per buffer so a concurrent force-scalar
    // toggle cannot split one buffer across strategies.
    let kernel = Some(crate::kernel::active_level()).filter(|&level| level != SimdLevel::Scalar);
    obs.incr(
        match kernel {
            Some(SimdLevel::Avx2) => "core.encode.kernel.avx2",
            Some(SimdLevel::Sse41) => "core.encode.kernel.sse41",
            Some(SimdLevel::Neon) => "core.encode.kernel.neon",
            _ => "core.encode.kernel.scalar",
        },
        1,
    );

    // Level grid: detect once per stream, from the first snapshot seen by a
    // VQ-family method (the paper computes F once, on the first snapshot),
    // and at most once per buffer however many candidates need it.
    let grid: Option<LevelGrid> = if matches!(method, Method::Vq | Method::Vqt) && grid.is_none() {
        let grid = *detected.get_or_insert_with(|| {
            let grid = detect_levels(snapshots[0].as_ref(), &SelectConfig::default());
            obs.incr("core.grid.detect_runs", 1);
            if grid.is_some() {
                obs.incr("core.grid.detected", 1);
            }
            grid
        });
        delta.grid = Some(grid);
        grid
    } else {
        grid.flatten().map(|(mu, lambda)| LevelGrid { mu, lambda, k: 0, fit_error: 0.0 })
    };
    let have_ref = reference_fits(reference, n);
    snapshot_modes_into(method, m, grid.is_some(), have_ref, modes);

    b_codes.clear();
    b_codes.reserve(m * n);
    j_codes.clear();
    escapes.clear();
    recon_prev.clear();
    recon_prev.resize(n, 0.0);
    recon_prev2.clear();
    recon_prev2.resize(n, 0.0);
    recon_cur.clear();
    recon_cur.resize(n, 0.0);
    recon_first.clear();

    // Prediction and quantization are one fused loop in this pipeline
    // (each value is predicted and immediately quantized against the
    // prediction), so they are timed as a single stage.
    let predict_quantize = obs.span("core.encode.predict_quantize_seconds");
    for (s_idx, snap) in snapshots.iter().map(AsRef::as_ref).enumerate() {
        match modes[s_idx] {
            SnapshotMode::VqGrid => {
                let g = grid.expect("mode implies grid");
                encode_vq_snapshot(
                    quant,
                    &g,
                    snap,
                    s_idx * n,
                    b_codes,
                    j_codes,
                    escapes,
                    recon_cur,
                    (lf, vq_pred),
                    kernel,
                )
            }
            mode => encode_predicted_snapshot(
                quant,
                snap,
                s_idx * n,
                Predictor::for_mode(
                    mode,
                    Some(recon_prev.as_slice()),
                    Some(recon_prev2.as_slice()),
                    reference,
                    extrapolated,
                ),
                b_codes,
                escapes,
                recon_cur,
                kernel,
            ),
        }
        if s_idx == 0 {
            recon_first.extend_from_slice(recon_cur);
        }
        std::mem::swap(recon_prev2, recon_prev);
        std::mem::swap(recon_prev, recon_cur);
    }
    predict_quantize.finish();
    obs.incr("core.encode.buffers", 1);
    obs.incr("core.encode.values", (m * n) as u64);
    obs.incr("core.encode.escapes", escapes.len() as u64);

    // The reference rule the decompressor follows too. The clone happens at
    // most once per stream — steady state stays allocation-free.
    if !have_ref {
        delta.reference = Some(recon_first.clone());
    }

    // Interleave, entropy-code, assemble.
    let seq2 = cfg.seq2 && m > 1;
    let b_ord: &[u32] = if seq2 {
        to_seq2_into(b_codes, m, n, b_ordered);
        b_ordered
    } else {
        b_codes
    };
    let vq_rows = modes.iter().filter(|&&md| md == SnapshotMode::VqGrid).count();
    let j_ord: &[u32] = if seq2 && vq_rows > 1 {
        to_seq2_into(j_codes, vq_rows, n, j_ordered);
        j_ordered
    } else {
        j_codes
    };

    inner.clear();
    let mut entropy_code = |codes: &[u32], inner: &mut Vec<u8>| match cfg.entropy {
        EntropyStage::Huffman => huffman_encode_into(codes, inner, huffman),
        EntropyStage::Range => range_encode_into(codes, inner, range),
    };
    let entropy = obs.span("core.encode.entropy_seconds");
    // A bit-adaptive B stream is packed with per-chunk widths; every other
    // code stream, the J stream (level-index deltas) always, is
    // entropy-coded.
    match quantizer {
        QuantizerKind::Linear => entropy_code(b_ord, inner),
        QuantizerKind::BitAdaptive { chunk } => write_bit_adaptive(b_ord, quant, chunk, inner),
    }
    entropy_code(j_ord, inner);
    entropy.finish();
    write_escapes(inner, escapes);

    // A stored candidate skips LZ77 outside a trial; a trial runs it and
    // keeps the smaller form, LZ77 on a tie.
    let stored = if stored && !trial {
        true
    } else {
        payload.clear();
        let _t = obs.span("core.encode.lossless_seconds");
        lz77::compress_into(inner, lz77::Level::Default, payload, lz77_scratch);
        trial && inner.len() < payload.len()
    };
    let payload: &[u8] = if stored { inner } else { payload };
    let mut flags = 0;
    if stored {
        flags |= FLAG_STORED;
    }
    if matches!(quantizer, QuantizerKind::BitAdaptive { .. }) {
        flags |= FLAG_BIT_ADAPTIVE;
    }
    let grid_used = matches!(method, Method::Vq | Method::Vqt) && grid.is_some();
    if grid_used {
        flags |= FLAG_GRID;
    }
    if seq2 {
        flags |= FLAG_SEQ2;
    }
    if modes[0] == SnapshotMode::Lorenzo && matches!(method, Method::Mt | Method::Mt2) {
        flags |= FLAG_FIRST_LORENZO;
    }
    if cfg.entropy == EntropyStage::Range {
        flags |= FLAG_RANGE_CODED;
    }
    let header = BlockHeader {
        method,
        flags,
        n_snapshots: m,
        n_values: n,
        eps,
        radius,
        grid: grid_used.then(|| {
            let g = grid.expect("grid_used implies grid");
            (g.mu, g.lambda)
        }),
    };
    out.clear();
    header.write(out);
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    Ok((delta, Candidate { stored, ..candidate }))
}

/// Encodes a snapshot under value prediction, writing codes/escapes and the
/// reconstruction.
///
/// `kernel` is the vector dispatch level captured once per buffer (`None`
/// keeps the scalar loop): when it is set and the predictions are a
/// precomputed slice (every time predictor; Lorenzo's serial `recon[i-1]`
/// chain is inherently scalar), the vectorized sweep runs and the escape
/// list is rebuilt from its in-band zero codes. Output is byte-identical
/// either way.
#[allow(clippy::too_many_arguments)]
fn encode_predicted_snapshot(
    quant: &LinearQuantizer,
    snap: &[f64],
    flat_base: usize,
    source: Predictor<'_>,
    b_codes: &mut Vec<u32>,
    escapes: &mut Vec<(usize, f64)>,
    recon: &mut [f64],
    kernel: Option<SimdLevel>,
) {
    if let (Some(level), &Predictor::Slice(preds)) = (kernel, &source) {
        let start = b_codes.len();
        crate::simd::quantize_predicted(quant, snap, preds, b_codes, recon, level);
        for (i, &c) in b_codes[start..].iter().enumerate() {
            if c == 0 {
                escapes.push((flat_base + i, snap[i]));
            }
        }
        return;
    }
    for (i, &d) in snap.iter().enumerate() {
        let pred = source.predict(recon, i);
        match quant.quantize(d, pred, &mut recon[i]) {
            Quantized::Code(c) => b_codes.push(c),
            Quantized::Escape => {
                b_codes.push(0);
                escapes.push((flat_base + i, d));
            }
        }
    }
}

/// Encodes a snapshot with VQ level prediction, emitting level-delta codes.
///
/// With a vector `kernel` the float work (level rounding, level prediction,
/// quantization) runs vectorized into per-value arrays, and a scalar sweep
/// then replays the serial integer chain — zigzag level deltas against
/// `prev_level`, which only advances on non-escaped values — exactly as the
/// fused scalar loop would. Output is byte-identical either way.
#[allow(clippy::too_many_arguments)]
fn encode_vq_snapshot(
    quant: &LinearQuantizer,
    grid: &LevelGrid,
    snap: &[f64],
    flat_base: usize,
    b_codes: &mut Vec<u32>,
    j_codes: &mut Vec<u32>,
    escapes: &mut Vec<(usize, f64)>,
    recon: &mut [f64],
    scratch: (&mut Vec<f64>, &mut Vec<f64>),
    kernel: Option<SimdLevel>,
) {
    if let Some(level) = kernel {
        let (lf_scratch, pred_scratch) = scratch;
        let n = snap.len();
        lf_scratch.clear();
        lf_scratch.resize(n, 0.0);
        pred_scratch.clear();
        pred_scratch.resize(n, 0.0);
        crate::simd::vq_levels(grid.mu, grid.lambda, snap, lf_scratch, pred_scratch, level);
        let start = b_codes.len();
        crate::simd::quantize_predicted(quant, snap, pred_scratch, b_codes, recon, level);
        let codes = &mut b_codes[start..];
        let mut prev_level = 0i64;
        for i in 0..n {
            let d = snap[i];
            let lfv = lf_scratch[i];
            let quant_escape = codes[i] == 0;
            if !lfv.is_finite() || lfv.abs() > MAX_LEVEL_MAG {
                // The kernel quantized against a garbage prediction here;
                // discard its lane entirely, as the scalar loop never
                // reaches the quantizer for these values.
                codes[i] = 0;
                j_codes.push(zigzag_encode(0) as u32);
                escapes.push((flat_base + i, d));
                recon[i] = d;
                continue;
            }
            let level = lfv as i64;
            let zz = zigzag_encode(level - prev_level);
            if zz > u64::from(u32::MAX) {
                codes[i] = 0;
                j_codes.push(zigzag_encode(0) as u32);
                escapes.push((flat_base + i, d));
                recon[i] = d;
                continue;
            }
            if quant_escape {
                // recon[i] already holds `d` from the kernel's escape lane.
                j_codes.push(zigzag_encode(0) as u32);
                escapes.push((flat_base + i, d));
                continue;
            }
            j_codes.push(zz as u32);
            prev_level = level;
        }
        return;
    }
    let mut prev_level = 0i64;
    for (i, &d) in snap.iter().enumerate() {
        let mut escape = |recon_slot: &mut f64, b: &mut Vec<u32>, j: &mut Vec<u32>| {
            b.push(0);
            j.push(zigzag_encode(0) as u32);
            escapes.push((flat_base + i, d));
            *recon_slot = d;
        };
        let lf = ((d - grid.mu) / grid.lambda).round();
        if !lf.is_finite() || lf.abs() > MAX_LEVEL_MAG {
            escape(&mut recon[i], b_codes, j_codes);
            continue;
        }
        let level = lf as i64;
        let delta = level - prev_level;
        let zz = zigzag_encode(delta);
        if zz > u64::from(u32::MAX) {
            escape(&mut recon[i], b_codes, j_codes);
            continue;
        }
        let pred = grid.value_of(level);
        match quant.quantize(d, pred, &mut recon[i]) {
            Quantized::Code(c) => {
                b_codes.push(c);
                j_codes.push(zz as u32);
                prev_level = level;
            }
            Quantized::Escape => escape(&mut recon[i], b_codes, j_codes),
        }
    }
}
