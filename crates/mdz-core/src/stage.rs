//! Composable pipeline stage traits: quantizer and entropy coder.
//!
//! MDZ is one point in the SZ-family design space, whose compressors are best
//! engineered as a composition of predictor × quantizer × entropy coder ×
//! lossless coder. The predictor side of that product has been a trait from
//! the start (`Predictor` in the pipeline); this module supplies the two
//! axes that have more than one implementation, so the block encoder and
//! decoder are compositions over trait parameters instead of hard-wired
//! calls:
//!
//! ```text
//! snapshots ─predict─▶ residuals ─[Quantizer]─▶ codes
//!     codes ─[EntropyStage]─▶ bytes ─┐
//!  escapes ─────────────────────────┼─▶ inner ─lz77─▶ payload
//! ```
//!
//! [`Quantizer`] owns the whole code-space contract — step size, escape code
//! 0, the wire `radius` field, and the alphabet bound [`Quantizer::code_space`]
//! — so no other stage re-derives `2·radius` locally. [`EntropyStage`] (the
//! trait; the [`crate::EntropyStage`] enum at the crate root remains the
//! *configuration* selector between its two implementations) turns `u32` code
//! streams into bytes and back. The final dictionary coder has one
//! implementation, so the pipeline calls [`mdz_lossless::lz77`] directly.
//!
//! The entropy implementations provided here wrap the mdz-entropy
//! primitives and their reusable scratch buffers: [`HuffmanStage`] and
//! [`RangeStage`]. The two quantizers live in [`crate::quant`]:
//! [`crate::LinearQuantizer`] (the classic fixed `[1, 2R)` alphabet) and
//! [`crate::BitAdaptiveQuantizer`] (per-chunk bit widths behind the
//! version-2 block flag).

use mdz_entropy::{huffman, range, StreamLimits};

use crate::quant::Quantized;
use crate::Result;

/// Maps a residual to an integer code and back, owning the code-space
/// contract shared by the encoder, the decoder, and the entropy stage.
///
/// The contract generalizes [`crate::LinearQuantizer`]:
///
/// * code `0` is the escape symbol — the value is stored verbatim in the
///   block's escape list and [`Quantizer::reconstruct`] is never called on it;
/// * non-escape codes lie in `[1, code_space())`;
/// * every non-escaped value satisfies `|reconstruct(code, p) − value| ≤ eps`.
pub trait Quantizer {
    /// The absolute error bound one code is allowed to deviate by.
    fn eps(&self) -> f64;

    /// The `radius` field serialized into the block header.
    ///
    /// Decoders rebuild the quantizer from this value, so it must round-trip
    /// the full reconstruction contract together with the header flags.
    fn wire_radius(&self) -> u32;

    /// Exclusive upper bound of the code alphabet: valid codes are
    /// `0 <= code < code_space()`, with 0 reserved for escapes.
    ///
    /// This is the single source of truth the entropy/decode stages use to
    /// validate code streams — no stage re-derives `2·radius` on its own.
    fn code_space(&self) -> u64 {
        2 * u64::from(self.wire_radius())
    }

    /// Header flag bits this quantizer requires on its blocks.
    fn wire_flags(&self) -> u8 {
        0
    }

    /// Quantizes `value` against `prediction`, storing the decoder-visible
    /// reconstruction in `reconstructed` (the original value on escape).
    fn quantize(&self, value: f64, prediction: f64, reconstructed: &mut f64) -> Quantized;

    /// The plain [`crate::LinearQuantizer`] whose `quantize` this quantizer
    /// applies per value, if any.
    ///
    /// This is the hook the SIMD kernels dispatch on: a quantizer that is
    /// per-value linear (the classic fixed-radius one, and the bit-adaptive
    /// wrapper whose adaptivity lives entirely in `encode_codes`) exposes
    /// its inner linear parameters here and gets the vectorized fused
    /// predict/quantize sweep; anything else returns `None` and keeps the
    /// scalar path.
    fn as_linear(&self) -> Option<crate::LinearQuantizer> {
        None
    }

    /// Inverts a non-escape code back to the reconstructed value.
    fn reconstruct(&self, code: u32, prediction: f64) -> f64;

    /// Serializes a code stream into `out` (appending), using `entropy` for
    /// quantizers that keep the classic entropy-coded representation.
    fn encode_codes(&self, codes: &[u32], entropy: &mut dyn EntropyStage, out: &mut Vec<u8>) {
        entropy.encode_into(codes, out);
    }

    /// Parses a code stream written by [`Quantizer::encode_codes`] from
    /// `data` at `*pos`, replacing the contents of `out`.
    fn decode_codes(
        &self,
        data: &[u8],
        pos: &mut usize,
        entropy: &mut dyn EntropyStage,
        out: &mut Vec<u32>,
        limits: &StreamLimits,
    ) -> Result<()> {
        entropy.decode_at_into(data, pos, out, limits)
    }
}

/// Entropy coding over `u32` symbol streams: codes in, bytes out, and back.
///
/// Implementations carry their own scratch buffers, so a `&mut` receiver
/// keeps the steady state allocation-free.
pub trait EntropyStage {
    /// Appends the encoded form of `symbols` to `out`.
    fn encode_into(&mut self, symbols: &[u32], out: &mut Vec<u8>);

    /// Decodes one stream from `data` at `*pos` (advancing it), replacing
    /// the contents of `out`. Declared counts are checked against `limits`
    /// before any proportional allocation.
    fn decode_at_into(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        out: &mut Vec<u32>,
        limits: &StreamLimits,
    ) -> Result<()>;
}

/// Canonical length-limited Huffman coding ([`crate::EntropyStage::Huffman`]).
#[derive(Debug, Clone, Default)]
pub struct HuffmanStage {
    scratch: mdz_entropy::HuffmanScratch,
}

impl EntropyStage for HuffmanStage {
    fn encode_into(&mut self, symbols: &[u32], out: &mut Vec<u8>) {
        mdz_entropy::huffman_encode_into(symbols, out, &mut self.scratch);
    }

    fn decode_at_into(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        out: &mut Vec<u32>,
        limits: &StreamLimits,
    ) -> Result<()> {
        huffman::huffman_decode_at_into_limited(data, pos, out, limits)?;
        Ok(())
    }
}

/// Adaptive binary range coding ([`crate::EntropyStage::Range`]).
#[derive(Debug, Clone, Default)]
pub struct RangeStage {
    scratch: mdz_entropy::RangeScratch,
}

impl EntropyStage for RangeStage {
    fn encode_into(&mut self, symbols: &[u32], out: &mut Vec<u8>) {
        range::range_encode_into(symbols, out, &mut self.scratch);
    }

    fn decode_at_into(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        out: &mut Vec<u32>,
        limits: &StreamLimits,
    ) -> Result<()> {
        range::range_decode_at_into_limited(data, pos, out, limits)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(stage: &mut dyn EntropyStage, symbols: &[u32]) {
        let mut bytes = Vec::new();
        stage.encode_into(symbols, &mut bytes);
        let mut pos = 0;
        let mut back = Vec::new();
        stage
            .decode_at_into(&bytes, &mut pos, &mut back, &StreamLimits::default())
            .expect("round trip");
        assert_eq!(back, symbols);
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn entropy_stages_round_trip() {
        let symbols: Vec<u32> = (0..512).map(|i| (i * 7) % 40).collect();
        round_trip(&mut HuffmanStage::default(), &symbols);
        round_trip(&mut RangeStage::default(), &symbols);
        round_trip(&mut HuffmanStage::default(), &[]);
    }

    #[test]
    fn entropy_stage_matches_free_function_bytes() {
        // The stage wrapper must be a pure refactor of the free functions:
        // byte-identical output keeps the golden fixtures stable.
        let symbols: Vec<u32> = (0..300).map(|i| (i * 13) % 60).collect();
        let mut via_stage = Vec::new();
        HuffmanStage::default().encode_into(&symbols, &mut via_stage);
        let mut scratch = mdz_entropy::HuffmanScratch::default();
        let mut via_free = Vec::new();
        mdz_entropy::huffman_encode_into(&symbols, &mut via_free, &mut scratch);
        assert_eq!(via_stage, via_free);
    }
}
