//! MDZ: an adaptive error-bounded lossy compressor for molecular-dynamics
//! particle data (Zhao et al., ICDE 2022).
//!
//! MD trajectory output is a stream of *snapshots* (one `f64` per particle
//! per axis), compressed in buffers of `BS` snapshots to bound memory. MDZ
//! follows the SZ pipeline — prediction, linear-scale quantization, Huffman
//! coding, dictionary coding — and contributes three predictors tuned to the
//! spatial/temporal structure of MD data, plus a runtime selector:
//!
//! * [`Method::Vq`] — vector quantization: coordinates cluster at equally
//!   spaced levels (crystal planes); each value is predicted by its level
//!   centroid, and the level-index deltas are entropy-coded alongside the
//!   quantized residuals. Purely spatial: any snapshot decompresses alone.
//! * [`Method::Vqt`] — VQ on the first snapshot of each buffer,
//!   previous-snapshot prediction for the rest.
//! * [`Method::Mt`] — the first snapshot of each buffer is predicted from
//!   the *initial* snapshot of the whole stream, the rest from their
//!   predecessors; ideal for temporally quiescent data.
//! * [`Method::Adaptive`] (ADP, the default) — re-evaluates all three every
//!   50 buffers on live data and keeps the winner.
//!
//! # Example
//!
//! ```
//! use mdz_core::{Compressor, Decompressor, ErrorBound, MdzConfig, Method};
//!
//! let snapshots: Vec<Vec<f64>> = (0..4)
//!     .map(|t| (0..100).map(|i| (i % 10) as f64 * 2.5 + t as f64 * 1e-4).collect())
//!     .collect();
//! let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
//! let mut comp = Compressor::new(cfg);
//! let block = comp.compress_buffer(&snapshots).unwrap();
//! let mut dec = Decompressor::new();
//! let out = dec.decompress_block(&block).unwrap();
//! for (s, o) in snapshots.iter().zip(out.iter()) {
//!     for (a, b) in s.iter().zip(o.iter()) {
//!         assert!((a - b).abs() <= 1e-3);
//!     }
//! }
//! ```
//!
//! Every compressor here encodes on the caller's thread. [`fan_out`] is
//! the thread runner the `mdz-store` archive writer uses to encode
//! independent (epoch, axis) streams on separate cores.

#![deny(missing_docs)]
#![deny(unsafe_code, unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod bound;
pub mod checksum;
pub mod codec;
pub mod format;
pub(crate) mod pipeline;
pub mod quant;
pub mod seq;
// The lane loops' `#[target_feature]` wrappers and their calls are the
// only `unsafe` code this library allows (DESIGN.md §7).
#[allow(unsafe_code)]
pub(crate) mod simd;
pub mod traj;

pub use mdz_entropy::kernel;

pub use bound::ErrorBound;
pub use codec::{Codec, MdzCodec};
pub use format::Method;
pub use mdz_obs::{Obs, Recorder};
pub use pipeline::parallel::fan_out;
pub use pipeline::{BlockInfo, Candidate, Compressor, Decisions, DecodeLimits, Decompressor};
pub use quant::LinearQuantizer;
pub use traj::Frame;

use mdz_entropy::EntropyError;

/// Errors surfaced by compression and decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdzError {
    /// Underlying entropy/dictionary stream was malformed.
    Stream(EntropyError),
    /// The block header is not an MDZ block or uses an unknown version.
    BadHeader(&'static str),
    /// The input shape is invalid (empty buffer, ragged snapshots, …).
    BadInput(&'static str),
    /// Configuration is invalid (non-positive error bound, zero radius, …).
    BadConfig(&'static str),
    /// The block body violates an invariant of the format (checksum
    /// mismatch, out-of-range quantization code, forged count, …).
    Corrupt {
        /// Which invariant the input violated.
        what: &'static str,
    },
    /// A header-declared size exceeded the caller's [`DecodeLimits`] budget.
    LimitExceeded {
        /// Which declared quantity blew the budget.
        what: &'static str,
        /// The budget that was in force.
        limit: usize,
    },
    /// An underlying I/O sink or source failed (the `mdz-store` storage
    /// backends). Carries the [`std::io::ErrorKind`] plus the rendered
    /// message so the error type stays `Clone + PartialEq` while callers can
    /// still tell a timeout (`TimedOut`/`WouldBlock`) from a hard failure.
    Io {
        /// Kind of the underlying [`std::io::Error`].
        kind: std::io::ErrorKind,
        /// Rendered error message.
        msg: String,
    },
}

impl MdzError {
    /// Builds an [`MdzError::Io`] from a kind and message.
    pub fn io(kind: std::io::ErrorKind, msg: impl Into<String>) -> Self {
        MdzError::Io { kind, msg: msg.into() }
    }
}

impl From<std::io::Error> for MdzError {
    fn from(e: std::io::Error) -> Self {
        MdzError::Io { kind: e.kind(), msg: e.to_string() }
    }
}

impl From<EntropyError> for MdzError {
    fn from(e: EntropyError) -> Self {
        match e {
            // Budget violations keep their identity so callers can tell
            // "tune DecodeLimits" apart from "the bytes are bad".
            EntropyError::LimitExceeded { what, limit } => MdzError::LimitExceeded { what, limit },
            other => MdzError::Stream(other),
        }
    }
}

impl std::fmt::Display for MdzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdzError::Stream(e) => write!(f, "stream error: {e}"),
            MdzError::BadHeader(w) => write!(f, "bad header: {w}"),
            MdzError::BadInput(w) => write!(f, "bad input: {w}"),
            MdzError::BadConfig(w) => write!(f, "bad config: {w}"),
            MdzError::Corrupt { what } => write!(f, "corrupt block: {what}"),
            MdzError::LimitExceeded { what, limit } => {
                write!(f, "decode budget exceeded: {what} > {limit}")
            }
            MdzError::Io { msg, .. } => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for MdzError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MdzError>;

/// Top-level configuration for a [`Compressor`].
#[derive(Debug, Clone)]
pub struct MdzConfig {
    /// The error bound every reconstructed value must satisfy.
    pub bound: ErrorBound,
    /// Compression method; [`Method::Adaptive`] by default.
    pub method: Method,
    /// Quantization radius: codes span `[1, 2·radius)`, i.e. the paper's
    /// "quantization scale" is `2·radius` (default scale 1024 → radius 512).
    pub radius: u32,
    /// Use Seq-2 (particle-major) interleaving before entropy coding.
    pub seq2: bool,
    /// Re-evaluate the adaptive choice every this many buffers (paper: 50).
    /// An `mdz-store` archive rounds it up to whole epochs, so that every
    /// trial falls on the first block of an epoch (50 → 56 at 8-buffer
    /// epochs); [`Compressor::reset_stream`] keeps the cadence.
    pub adapt_interval: u32,
    /// Entropy coder for the integer streams (paper/SZ default: Huffman).
    pub entropy: EntropyStage,
    /// Include the second-order predictor [`Method::Mt2`] among the
    /// adaptive candidates (extension; off by default to match the paper).
    pub extended_candidates: bool,
    /// Which quantizer codes residuals (the classic fixed linear scale by
    /// default; bit-adaptive blocks carry the version-2 flag).
    pub quantizer: QuantizerKind,
    /// Let the adaptive selector also trial bit-adaptive quantization and
    /// keep whichever composition compresses best (off by default so ADP
    /// output matches the paper's fixed-scale pipeline bit for bit).
    pub bit_adaptive_candidates: bool,
}

/// How a [`Compressor`] quantizes residuals and stores their codes.
///
/// Both kinds quantize with one [`LinearQuantizer`]; they differ in its
/// radius and in the form of the B (residual code) stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantizerKind {
    /// The configured `[1, 2·radius)` linear scale, its codes entropy-coded
    /// (default).
    #[default]
    Linear,
    /// A 2²³-step radius, its codes packed with per-chunk bit widths sized
    /// to the local residual magnitude, behind
    /// [`format::FLAG_BIT_ADAPTIVE`] (FORMAT.md §4.5).
    BitAdaptive {
        /// Codes per width region in the wire format.
        chunk: usize,
    },
}

impl QuantizerKind {
    /// Bit-adaptive quantization with the default chunk size.
    pub const BIT_ADAPTIVE_DEFAULT: QuantizerKind =
        QuantizerKind::BitAdaptive { chunk: quant::DEFAULT_CHUNK };
}

impl std::fmt::Display for QuantizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizerKind::Linear => write!(f, "linear"),
            QuantizerKind::BitAdaptive { .. } => write!(f, "bit-adaptive"),
        }
    }
}

/// Which entropy coder the pipeline's third stage uses.
///
/// The SZ framework (and the paper) use Huffman coding; the range coder is
/// provided as an ablation — it removes Huffman's ≤1-bit-per-symbol rounding
/// loss at some speed cost (see the `ablations` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyStage {
    /// Canonical Huffman coding (default).
    #[default]
    Huffman,
    /// Static range (arithmetic) coding.
    Range,
}

impl MdzConfig {
    /// Creates a configuration with the paper's defaults.
    pub fn new(bound: ErrorBound) -> Self {
        Self {
            bound,
            method: Method::Adaptive,
            radius: 512,
            seq2: true,
            adapt_interval: 50,
            entropy: EntropyStage::default(),
            extended_candidates: false,
            quantizer: QuantizerKind::default(),
            bit_adaptive_candidates: false,
        }
    }

    /// Overrides the compression method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Overrides the quantization radius (half the quantization scale).
    pub fn with_radius(mut self, radius: u32) -> Self {
        self.radius = radius;
        self
    }

    /// Selects Seq-1 (snapshot-major) or Seq-2 (particle-major) ordering.
    pub fn with_seq2(mut self, seq2: bool) -> Self {
        self.seq2 = seq2;
        self
    }

    /// Overrides the entropy coder used for the integer streams.
    pub fn with_entropy(mut self, entropy: EntropyStage) -> Self {
        self.entropy = entropy;
        self
    }

    /// Adds the second-order predictor to the adaptive candidate set.
    pub fn with_extended_candidates(mut self, on: bool) -> Self {
        self.extended_candidates = on;
        self
    }

    /// Overrides the quantizer kind.
    pub fn with_quantizer(mut self, quantizer: QuantizerKind) -> Self {
        self.quantizer = quantizer;
        self
    }

    /// Adds bit-adaptive quantization to the adaptive candidate set.
    pub fn with_bit_adaptive_candidates(mut self, on: bool) -> Self {
        self.bit_adaptive_candidates = on;
        self
    }

    /// Validates field ranges.
    pub fn validate(&self) -> Result<()> {
        if self.radius < 2 || self.radius > (1 << 24) {
            return Err(MdzError::BadConfig("radius must be in [2, 2^24]"));
        }
        if self.adapt_interval == 0 {
            return Err(MdzError::BadConfig("adapt_interval must be positive"));
        }
        if let QuantizerKind::BitAdaptive { chunk } = self.quantizer {
            if !(1..=quant::MAX_CHUNK).contains(&chunk) {
                return Err(MdzError::BadConfig("bit-adaptive chunk must be in [1, 2^20]"));
            }
        }
        self.bound.validate()
    }
}

/// One-shot decompression of a single block with a fresh [`Decompressor`].
pub fn decompress(block: &[u8]) -> Result<Vec<Vec<f64>>> {
    Decompressor::new().decompress_block(block)
}
