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
use crate::quant::{read_bit_adaptive, LinearQuantizer};
use crate::seq::from_seq2_into;
use crate::{MdzError, Result};
use mdz_entropy::huffman::huffman_decode_at_into_limited;
use mdz_entropy::range::range_decode_at_into_limited;
use mdz_entropy::{read_uvarint, zigzag_decode, StreamLimits};
use mdz_kmeans::LevelGrid;
use std::collections::HashMap;

use super::predict::{snapshot_modes_into, Predictor, SnapshotMode};

/// Bytes one serialized escape costs at minimum: a ≥1-byte index delta
/// varint plus the 8-byte raw `f64` value. Bounds the escape count by the
/// remaining input.
const MIN_ESCAPE_BYTES: usize = 9;

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

/// Rejects escape counts the block could not legitimately contain: more
/// escapes than block values, or more than the remaining input bytes could
/// serialize (each escape costs ≥ [`MIN_ESCAPE_BYTES`]).
fn check_escape_count(count: usize, block_values: usize, remaining: usize) -> Result<()> {
    if count > block_values {
        return Err(MdzError::Corrupt { what: "escape count exceeds block size" });
    }
    if count > remaining / MIN_ESCAPE_BYTES {
        return Err(MdzError::Corrupt { what: "escape count exceeds input size" });
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
    let escape_count = read_uvarint(inner, &mut pos)? as usize;
    check_escape_count(escape_count, m * n, inner.len().saturating_sub(pos))?;
    // The count is now input-proportional, so this reservation is bounded by
    // the (already decompressed) inner payload size.
    escapes.clear();
    escapes.reserve(escape_count.min(1 << 20));
    let mut idx = 0u64;
    for i in 0..escape_count {
        let delta = read_uvarint(inner, &mut pos)?;
        idx = if i == 0 {
            delta
        } else {
            idx.checked_add(delta).ok_or(MdzError::Corrupt { what: "escape index overflow" })?
        };
        if idx >= (m * n) as u64 {
            return Err(MdzError::Corrupt { what: "escape index out of range" });
        }
        let bytes = inner
            .get(pos..pos + 8)
            .ok_or(MdzError::Stream(mdz_entropy::EntropyError::UnexpectedEof))?;
        pos += 8;
        escapes.insert(idx as usize, f64::from_le_bytes(bytes.try_into().unwrap()));
    }

    let seq2 = header.flags & FLAG_SEQ2 != 0;
    let b_codes: &[u32] = if seq2 {
        from_seq2_into(b_ordered, m, n, b_codes);
        b_codes
    } else {
        b_ordered
    };
    let grid = header.grid.map(|(mu, lambda)| LevelGrid { mu, lambda, k: 0, fit_error: 0.0 });
    let have_ref = reference.is_some_and(|r| r.len() == n);
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
                        *escapes
                            .get(&(flat_base + i))
                            .ok_or(MdzError::BadHeader("missing escape value"))?
                    } else {
                        quant.reconstruct(code, g.value_of(level))
                    };
                }
            }
            _ => {
                if mode == SnapshotMode::TimePrev2 {
                    // SAFETY of expect/index: `snapshot_modes_into` assigns
                    // TimePrev2 only from the third snapshot on, so two
                    // reconstructed predecessors always exist regardless of
                    // the block bytes.
                    let a = out.last().expect("TimePrev2 needs two predecessors");
                    let b = &out[out.len() - 2];
                    extrapolated.clear();
                    extrapolated.extend(a.iter().zip(b.iter()).map(|(&x, &y)| 2.0 * x - y));
                }
                let pred = match mode {
                    SnapshotMode::Lorenzo => Predictor::Lorenzo,
                    SnapshotMode::TimePrev => {
                        // SAFETY of expect: `snapshot_modes_into` never
                        // assigns TimePrev to snapshot 0.
                        Predictor::Slice(out.last().expect("TimePrev never on first snapshot"))
                    }
                    SnapshotMode::TimePrev2 => Predictor::Slice(extrapolated.as_slice()),
                    // SAFETY of expect: TimeRef is only planned when
                    // `have_ref` held above, which requires `reference` to be
                    // `Some` with matching length.
                    SnapshotMode::TimeRef => Predictor::Slice(reference.expect("checked above")),
                    SnapshotMode::VqGrid => unreachable!("handled above"),
                };
                for i in 0..n {
                    let code = b_codes[flat_base + i];
                    snap[i] = if code == 0 {
                        *escapes
                            .get(&(flat_base + i))
                            .ok_or(MdzError::BadHeader("missing escape value"))?
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
