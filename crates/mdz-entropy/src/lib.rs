//! Entropy-coding primitives for the MDZ compression pipeline.
//!
//! The MDZ paper builds on the SZ framework whose last two stages are Huffman
//! coding of quantization codes followed by a dictionary coder. This crate
//! provides the bit-level substrate those stages need:
//!
//! * [`bitio`] — MSB-first bit readers and writers over byte buffers,
//! * [`varint`] — LEB128 unsigned varints and zigzag-mapped signed varints,
//! * [`huffman`] — canonical, length-limited Huffman coding over `u32`
//!   symbol alphabets with a compact serialized code table,
//! * [`kernel`] — runtime SIMD dispatch (feature detection + the
//!   `MDZ_FORCE_SCALAR` scalar-oracle override) shared by every crate with
//!   vectorized hot paths.
//!
//! All decoders treat their input as untrusted: truncated or corrupted
//! streams produce [`EntropyError`] values, never panics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitio;
pub mod huffman;
pub mod kernel;
pub mod range;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use huffman::{
    huffman_decode, huffman_decode_at_limited, huffman_encode, huffman_encode_into, HuffmanScratch,
};
pub use range::{range_decode, range_decode_at_limited, range_encode, RangeScratch};
pub use varint::{
    read_ivarint, read_uvarint, write_ivarint, write_uvarint, zigzag_decode, zigzag_encode,
};

/// Errors produced while decoding entropy-coded streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntropyError {
    /// The input ended before the decoder finished.
    UnexpectedEof,
    /// The stream violates a structural invariant of its format.
    Corrupt(&'static str),
    /// A declared output size exceeded the caller's [`StreamLimits`] budget.
    LimitExceeded {
        /// Which declared quantity blew the budget.
        what: &'static str,
        /// The budget that was in force.
        limit: usize,
    },
}

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntropyError::UnexpectedEof => write!(f, "unexpected end of input"),
            EntropyError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            EntropyError::LimitExceeded { what, limit } => {
                write!(f, "decode budget exceeded: {what} > {limit}")
            }
        }
    }
}

/// Decode-side resource budget threaded through every decoder whose output
/// size is driven by an untrusted count.
///
/// Entropy streams are self-describing: the symbol count, alphabet size, and
/// payload length all come from the (potentially hostile) input. Structural
/// checks reject counts the input could never satisfy — e.g. a table larger
/// than its own encoding — but some formats legitimately expand (a
/// one-symbol Huffman stream can declare an output million-fold larger than
/// the input), so expansion can only be bounded by a caller-supplied budget.
/// Counts above `max_items` fail with [`EntropyError::LimitExceeded`]
/// *before* any proportional allocation.
///
/// The default budget equals the crate's historic plausibility cap (2³⁴
/// items), so the non-`_limited` entry points behave as before; callers that
/// know their real output size (e.g. a block decoder that has parsed `M·N`
/// from a validated header) should pass a tight budget instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLimits {
    /// Maximum number of output items (symbols or bytes) one stream may
    /// declare.
    pub max_items: usize,
}

impl Default for StreamLimits {
    fn default() -> Self {
        Self { max_items: 1 << 34 }
    }
}

impl StreamLimits {
    /// A budget allowing at most `max_items` output items.
    pub const fn with_max_items(max_items: usize) -> Self {
        Self { max_items }
    }

    /// Checks a declared item count against the budget.
    pub fn check_items(&self, count: usize, what: &'static str) -> Result<()> {
        if count > self.max_items {
            return Err(EntropyError::LimitExceeded { what, limit: self.max_items });
        }
        Ok(())
    }
}

impl std::error::Error for EntropyError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EntropyError>;
