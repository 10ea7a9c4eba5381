//! Compression-quality and physics-fidelity metrics for the MDZ evaluation.
//!
//! Everything the paper's evaluation section measures lives here:
//!
//! * [`error`] — MaxError, NRMSE, PSNR, bit rate, compression ratio
//!   (Tables IV–VI, Figs. 12–13),
//! * [`mod@rdf`] — the radial distribution function `g(r)` under periodic
//!   boundaries (Fig. 14's physics-fidelity check),
//! * [`mod@similarity`] — the paper's Eq. 2 snapshot-similarity measure
//!   (Fig. 8),
//! * [`histogram`] — value distributions (Fig. 4),
//! * [`series`] — spatial/temporal series extraction helpers (Figs. 3, 5).
//!
//! All functions are pure and operate on plain slices, so they apply to
//! original and decompressed data alike.

#![forbid(unsafe_code)]

pub mod error;
pub mod histogram;
pub mod rdf;
pub mod series;
pub mod similarity;

pub use error::{bit_rate, compression_ratio, max_error, nrmse, psnr, ErrorStats};
pub use histogram::Histogram;
pub use rdf::{first_peak, rdf, rdf_distance, RdfConfig};
pub use similarity::similarity;
