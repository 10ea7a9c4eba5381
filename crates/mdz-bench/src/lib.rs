//! Benchmark harness regenerating every table and figure of the MDZ paper.
//!
//! The [`harness`] module drives MDZ (VQ / VQT / MT / ADP) and the six
//! baselines uniformly through [`mdz_core::Codec`], plus buffer-sliced
//! dataset runs that measure compression ratio, throughput, and error
//! metrics. The [`experiments`] module contains one function per paper
//! artifact (`table1` … `fig16`), each writing CSV into `results/` and
//! returning a printable text table. The `experiments` binary is a thin CLI
//! over those functions.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod table;

pub use harness::{mdz_codec, standard_codecs, RunMetrics};
pub use mdz_core::Codec;
