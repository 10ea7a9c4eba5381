//! Decode stage: entropy decoding, de-interleaving, and reconstruction.
//!
//! Mirrors the encode stage exactly — per-snapshot modes are re-derived from
//! the block header and every prediction goes through the shared
//! [`Predictor`], so encoder and decoder cannot drift apart. Every value is
//! reconstructed by one [`LinearQuantizer`] built from the header's `eps`
//! and `radius`; the header flags say how each code stream is stored
//! ([`FLAG_BIT_ADAPTIVE`]: a bit-packed B stream; [`FLAG_RANGE_CODED`]:
//! range- rather than Huffman-coded). Every decode, the random access of
//! one VQ snapshot included, runs through [`decode_inner`] and reuses
//! [`DecodeScratch`].

use crate::format::{
    BlockHeader, Method, FLAG_BIT_ADAPTIVE, FLAG_FIRST_LORENZO, FLAG_RANGE_CODED, FLAG_SEQ2,
};
use crate::quant::{read_bit_adaptive, read_escapes, LinearQuantizer};
use crate::seq::from_seq2_into;
use crate::{MdzError, Result};
use mdz_entropy::huffman::huffman_decode_at_into_limited;
use mdz_entropy::range::range_decode_at_into_limited;
use mdz_entropy::{zigzag_decode, StreamLimits};
use mdz_kmeans::LevelGrid;
use std::collections::HashMap;

use super::predict::{reference_fits, snapshot_modes_into, Predictor, SnapshotMode};

/// Reusable decode-side working storage, owned by a
/// [`Decompressor`](super::Decompressor).
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeScratch {
    /// LZ77-decompressed inner payload.
    pub(crate) inner: Vec<u8>,
    modes: Vec<SnapshotMode>,
    b_ordered: Vec<u32>,
    j_ordered: Vec<u32>,
    b_codes: Vec<u32>,
    j_codes: Vec<u32>,
    escapes: HashMap<usize, f64>,
    extrapolated: Vec<f64>,
}

/// Decodes one entropy-coded code stream from `data` at `*pos` (advancing
/// it), replacing the contents of `out`: range-coded when `range_coded`,
/// Huffman-coded otherwise. Declared counts are checked against `limits`
/// before any proportional allocation.
fn decode_codes(
    range_coded: bool,
    data: &[u8],
    pos: &mut usize,
    out: &mut Vec<u32>,
    limits: &StreamLimits,
) -> Result<()> {
    if range_coded {
        range_decode_at_into_limited(data, pos, out, limits)?;
    } else {
        huffman_decode_at_into_limited(data, pos, out, limits)?;
    }
    Ok(())
}

/// Rejects quantization codes outside the quantizer's code space.
///
/// Valid codes live in `[0, space)` — 0 is the escape marker, everything
/// else maps to an in-bound residual. A code past the space can only come
/// from corruption; reconstructing from it would silently violate the error
/// bound. The space comes from [`LinearQuantizer::code_space`], never
/// re-derived from the raw header radius.
fn check_codes(codes: &[u32], space: u64) -> Result<()> {
    if codes.iter().any(|&c| u64::from(c) >= space) {
        return Err(MdzError::Corrupt { what: "quantization code out of range" });
    }
    Ok(())
}

/// Decodes the inner payload (`scratch.inner`) into snapshots.
pub(crate) fn decode_inner(
    header: &BlockHeader,
    reference: Option<&[f64]>,
    scratch: &mut DecodeScratch,
) -> Result<Vec<Vec<f64>>> {
    let DecodeScratch {
        inner,
        modes,
        b_ordered,
        j_ordered,
        b_codes,
        j_codes,
        escapes,
        extrapolated,
    } = scratch;
    let inner: &[u8] = inner;
    let m = header.n_snapshots;
    let n = header.n_values;
    let stream_limits = StreamLimits::with_max_items(m * n);
    let quant = LinearQuantizer::new(header.eps, header.radius);
    let range_coded = header.flags & FLAG_RANGE_CODED != 0;
    let mut pos = 0;
    if header.flags & FLAG_BIT_ADAPTIVE != 0 {
        read_bit_adaptive(inner, &mut pos, &quant, b_ordered, &stream_limits)?;
    } else {
        decode_codes(range_coded, inner, &mut pos, b_ordered, &stream_limits)?;
    }
    decode_codes(range_coded, inner, &mut pos, j_ordered, &stream_limits)?;
    if b_ordered.len() != m * n {
        return Err(MdzError::Corrupt { what: "quantization code count mismatch" });
    }
    check_codes(b_ordered, quant.code_space())?;
    read_escapes(inner, &mut pos, m * n, escapes)?;

    let seq2 = header.flags & FLAG_SEQ2 != 0;
    let b_codes: &[u32] = if seq2 {
        from_seq2_into(b_ordered, m, n, b_codes);
        b_codes
    } else {
        b_ordered
    };
    let grid = header.grid.map(|(mu, lambda)| LevelGrid { mu, lambda, k: 0, fit_error: 0.0 });
    let have_ref = reference_fits(reference, n);
    let first_lorenzo = header.flags & FLAG_FIRST_LORENZO != 0;
    // Reconstruct per-snapshot modes exactly as the encoder chose them.
    match header.method {
        Method::Vq | Method::Vqt => {
            snapshot_modes_into(header.method, m, grid.is_some(), have_ref, modes)
        }
        Method::Mt | Method::Mt2 => {
            if !first_lorenzo && !have_ref {
                return Err(MdzError::BadInput(
                    "MT block requires the stream's earlier blocks (reference snapshot)",
                ));
            }
            snapshot_modes_into(header.method, m, false, !first_lorenzo, modes)
        }
        // SAFETY of unreachable: `Method::from_wire` (the only way a header
        // gets a method) never yields `Adaptive` — hostile input cannot
        // reach this arm.
        Method::Adaptive => unreachable!("wire blocks are concrete"),
    }
    let vq_rows = modes.iter().filter(|&&md| md == SnapshotMode::VqGrid).count();
    if j_ordered.len() != vq_rows * n {
        return Err(MdzError::Corrupt { what: "level code count mismatch" });
    }
    let j_codes: &[u32] = if seq2 && vq_rows > 1 {
        from_seq2_into(j_ordered, vq_rows, n, j_codes);
        j_codes
    } else {
        j_ordered
    };

    let escaped =
        |i: usize| escapes.get(&i).copied().ok_or(MdzError::BadHeader("missing escape value"));
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut j_row = 0usize;
    for (s_idx, &mode) in modes.iter().enumerate() {
        let mut snap = vec![0.0f64; n];
        let flat_base = s_idx * n;
        match mode {
            SnapshotMode::VqGrid => {
                let g = grid.as_ref().ok_or(MdzError::BadHeader("VQ block without grid"))?;
                let j = &j_codes[j_row * n..(j_row + 1) * n];
                j_row += 1;
                let mut level = 0i64;
                for i in 0..n {
                    level = level.wrapping_add(zigzag_decode(u64::from(j[i])));
                    let code = b_codes[flat_base + i];
                    snap[i] = if code == 0 {
                        escaped(flat_base + i)?
                    } else {
                        quant.reconstruct(code, g.value_of(level))
                    };
                }
            }
            _ => {
                let prev2 = out.len().checked_sub(2).map(|i| out[i].as_slice());
                let pred = Predictor::for_mode(
                    mode,
                    out.last().map(Vec::as_slice),
                    prev2,
                    reference,
                    extrapolated,
                );
                for i in 0..n {
                    let code = b_codes[flat_base + i];
                    snap[i] = if code == 0 {
                        escaped(flat_base + i)?
                    } else {
                        quant.reconstruct(code, pred.predict(&snap, i))
                    };
                }
            }
        }
        out.push(snap);
    }
    Ok(out)
}
