//! The unified buffer-codec abstraction.
//!
//! Everything that can compress a buffer of snapshots — MDZ itself and the
//! comparison baselines — implements [`Codec`], so the experiment harness
//! holds a `Box<dyn Codec>` and never special-cases MDZ. The error bound is
//! a *per-call* parameter: stateless one-shot callers pass a fixed absolute
//! bound, while streaming callers forward their configured bound buffer by
//! buffer.

use crate::format::Method;
use crate::{Compressor, DecodeLimits, Decompressor};
use crate::{ErrorBound, MdzConfig, QuantizerKind, Result};

/// A stateful, error-bounded buffer compressor/decompressor pair.
///
/// Implementations may carry cross-buffer stream state (MDZ's level grid and
/// MT reference snapshot); compressed blocks must then be decompressed in
/// stream order by the same instance. [`Codec::reset`] returns an instance
/// to its freshly-constructed state.
pub trait Codec {
    /// Short display name ("VQT", "SZ2", …).
    fn name(&self) -> &'static str;

    /// Drops all cross-buffer stream state.
    fn reset(&mut self);

    /// Compresses one buffer of snapshots under `bound` into a
    /// self-describing block.
    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>>;

    /// Decompresses one block produced by this codec.
    fn decompress_buffer(&mut self, block: &[u8]) -> Result<Vec<Vec<f64>>>;
}

impl<C: Codec + ?Sized> Codec for Box<C> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        (**self).compress_buffer(snapshots, bound)
    }

    fn decompress_buffer(&mut self, block: &[u8]) -> Result<Vec<Vec<f64>>> {
        (**self).decompress_buffer(block)
    }
}

/// MDZ behind the [`Codec`] interface.
///
/// Owns a [`Compressor`]/[`Decompressor`] pair built from a template
/// configuration. The template's `bound` is a placeholder: every
/// [`Codec::compress_buffer`] call installs its own bound first.
pub struct MdzCodec {
    name: &'static str,
    template: MdzConfig,
    comp: Compressor,
    dec: Decompressor,
}

impl MdzCodec {
    /// Wraps a configuration, deriving the display name from its method and
    /// quantizer kind (a `+BA` tag marks bit-adaptive configurations).
    pub fn from_config(cfg: MdzConfig) -> Self {
        let ba = matches!(cfg.quantizer, QuantizerKind::BitAdaptive { .. })
            || (cfg.method == Method::Adaptive && cfg.bit_adaptive_candidates);
        let name = match (cfg.method, cfg.extended_candidates, ba) {
            (Method::Vq, _, false) => "VQ",
            (Method::Vq, _, true) => "VQ+BA",
            (Method::Vqt, _, false) => "VQT",
            (Method::Vqt, _, true) => "VQT+BA",
            (Method::Mt, _, false) => "MT",
            (Method::Mt, _, true) => "MT+BA",
            (Method::Mt2, _, false) => "MT2",
            (Method::Mt2, _, true) => "MT2+BA",
            (Method::Adaptive, false, false) => "MDZ (Adaptive)",
            (Method::Adaptive, false, true) => "MDZ (Adaptive+BA)",
            (Method::Adaptive, true, false) => "MDZ+ (extended)",
            (Method::Adaptive, true, true) => "MDZ+ (extended+BA)",
        };
        Self::with_name(name, cfg)
    }

    /// Wraps a configuration under an explicit display name.
    pub fn with_name(name: &'static str, cfg: MdzConfig) -> Self {
        Self { name, comp: Compressor::new(cfg.clone()), dec: Decompressor::new(), template: cfg }
    }

    /// The concrete method the adaptive selector is currently using, if any
    /// trial has run yet.
    pub fn current_adaptive_choice(&self) -> Option<Method> {
        self.comp.current_adaptive_choice()
    }

    /// Installs a decode budget on the decompression side; blocks whose
    /// headers exceed it fail with [`crate::MdzError::LimitExceeded`].
    /// Survives [`Codec::reset`].
    pub fn with_decode_limits(mut self, limits: DecodeLimits) -> Self {
        self.dec.set_limits(limits);
        self
    }
}

impl Default for MdzCodec {
    /// A paper-default adaptive codec. The placeholder bound is never used:
    /// compression through [`Codec`] always receives a per-call bound, and
    /// decompression reads the bound from each block header.
    fn default() -> Self {
        Self::from_config(MdzConfig::new(ErrorBound::Absolute(1e-3)))
    }
}

impl Codec for MdzCodec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&mut self) {
        self.comp = Compressor::new(self.template.clone());
        self.dec = Decompressor::with_limits(self.dec.limits());
    }

    fn compress_buffer(&mut self, snapshots: &[Vec<f64>], bound: ErrorBound) -> Result<Vec<u8>> {
        self.comp.set_bound(bound);
        self.comp.compress_buffer(snapshots)
    }

    fn decompress_buffer(&mut self, block: &[u8]) -> Result<Vec<Vec<f64>>> {
        self.dec.decompress_block(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m).map(|t| (0..n).map(|i| (i % 8) as f64 * 2.0 + t as f64 * 1e-4).collect()).collect()
    }

    #[test]
    fn codec_matches_direct_compressor_bytes() {
        let snaps = lattice(6, 150);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vqt);
        let want = Compressor::new(cfg.clone()).compress_buffer(&snaps).unwrap();
        let mut codec = MdzCodec::from_config(cfg);
        let got = codec.compress_buffer(&snaps, ErrorBound::Absolute(1e-3)).unwrap();
        assert_eq!(got, want);
        let out = codec.decompress_buffer(&got).unwrap();
        assert_eq!(out.len(), snaps.len());
    }

    #[test]
    fn per_call_bound_overrides_template() {
        let snaps = lattice(4, 100);
        let mut codec = MdzCodec::from_config(
            MdzConfig::new(ErrorBound::Absolute(1.0)).with_method(Method::Vq),
        );
        let block = codec.compress_buffer(&snaps, ErrorBound::Absolute(1e-6)).unwrap();
        assert_eq!(Decompressor::inspect(&block).unwrap().eps, 1e-6);
    }

    #[test]
    fn reset_drops_stream_state() {
        let mut codec = MdzCodec::from_config(
            MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt),
        );
        let bound = ErrorBound::Absolute(1e-4);
        let b0 = codec.compress_buffer(&lattice(3, 80), bound).unwrap();
        let _b1 = codec.compress_buffer(&lattice(3, 80), bound).unwrap();
        codec.reset();
        // After reset the codec re-emits a self-starting first block.
        let b0_again = codec.compress_buffer(&lattice(3, 80), bound).unwrap();
        assert_eq!(b0, b0_again);
        assert_eq!(codec.name(), "MT");
    }

    #[test]
    fn names_follow_method() {
        let mk = |cfg: MdzConfig| MdzCodec::from_config(cfg).name;
        let base = MdzConfig::new(ErrorBound::Absolute(1e-3));
        assert_eq!(mk(base.clone().with_method(Method::Vq)), "VQ");
        assert_eq!(mk(base.clone().with_method(Method::Mt2)), "MT2");
        assert_eq!(mk(base.clone()), "MDZ (Adaptive)");
        assert_eq!(mk(base.with_extended_candidates(true)), "MDZ+ (extended)");
    }
}
