//! Snapshot prediction: the mode plan, the per-mode predictor and the MT
//! reference rule, shared by the encode and decode stages.
//!
//! ## Prediction-parity invariant
//!
//! The encoder and decoder must compute *bit-identical* predictions, or the
//! error bound silently breaks. Both sides therefore plan modes with
//! [`snapshot_modes_into`] and [`reference_fits`], take each plain
//! snapshot's predictor from [`Predictor::for_mode`] and predict through
//! [`Predictor::predict`] (the encoder from its reconstructions, the decoder
//! from the snapshots it rebuilt), so each rule, MT2's two-step
//! extrapolation included, lives in exactly one place.

use crate::format::Method;

/// How each snapshot within a buffer is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotMode {
    /// Level-centroid prediction via the grid; emits J codes.
    VqGrid,
    /// In-snapshot previous-value prediction (first value predicted as 0).
    Lorenzo,
    /// Same index in the previous snapshot's reconstruction.
    TimePrev,
    /// Linear extrapolation from the two previous reconstructions.
    TimePrev2,
    /// Same index in the stream's reference (initial) snapshot.
    TimeRef,
}

/// Where a plain (non-VQ) snapshot gets its predictions.
///
/// `recon` in [`Predictor::predict`] is the snapshot currently being
/// reconstructed — the encoder's reconstruction buffer or the decoder's
/// output snapshot; only [`Predictor::Lorenzo`] reads it, and only at
/// already-finalized indices (`i - 1`).
pub(crate) enum Predictor<'a> {
    /// Previous reconstructed value within the same snapshot.
    Lorenzo,
    /// A fixed slice: previous snapshot, two-step extrapolation, or the
    /// stream reference.
    Slice(&'a [f64]),
}

impl<'a> Predictor<'a> {
    /// The predictor of a plain snapshot coded in `mode`, given the
    /// reconstructions one and two snapshots back and the stream reference;
    /// MT2's `2·x₋₁ − x₋₂` is written into `extrapolated`. Panics on
    /// `VqGrid` or a missing input. Neither occurs, whatever a block's bytes
    /// say: a plan puts `TimePrev` after one snapshot, `TimePrev2` after two
    /// and `TimeRef` only where the reference fits.
    pub(crate) fn for_mode(
        mode: SnapshotMode,
        prev: Option<&'a [f64]>,
        prev2: Option<&'a [f64]>,
        reference: Option<&'a [f64]>,
        extrapolated: &'a mut Vec<f64>,
    ) -> Self {
        match mode {
            SnapshotMode::Lorenzo => Predictor::Lorenzo,
            SnapshotMode::TimePrev => Predictor::Slice(prev.expect("TimePrev follows a snapshot")),
            SnapshotMode::TimePrev2 => {
                let (a, b) = prev.zip(prev2).expect("TimePrev2 follows two snapshots");
                extrapolated.clear();
                extrapolated.extend(a.iter().zip(b).map(|(&x, &y)| 2.0 * x - y));
                Predictor::Slice(extrapolated)
            }
            SnapshotMode::TimeRef => {
                Predictor::Slice(reference.expect("TimeRef implies a fitting reference"))
            }
            SnapshotMode::VqGrid => unreachable!("VQ snapshots predict from the level grid"),
        }
    }

    /// The prediction for value `i` of the current snapshot.
    #[inline]
    pub(crate) fn predict(&self, recon: &[f64], i: usize) -> f64 {
        match self {
            Predictor::Lorenzo => {
                if i == 0 {
                    0.0
                } else {
                    recon[i - 1]
                }
            }
            Predictor::Slice(s) => s[i],
        }
    }
}

/// The MT reference rule: an MT or MT2 buffer of `n_values` values predicts
/// from `reference`, and a buffer of any method keeps it, iff it has that
/// length; otherwise the buffer's first reconstruction becomes the reference.
pub(crate) fn reference_fits(reference: Option<&[f64]>, n_values: usize) -> bool {
    reference.is_some_and(|r| r.len() == n_values)
}

/// Resolves the per-snapshot prediction modes for a buffer, writing into a
/// caller-owned vector (cleared first).
pub(crate) fn snapshot_modes_into(
    method: Method,
    n_snapshots: usize,
    grid: bool,
    have_ref: bool,
    modes: &mut Vec<SnapshotMode>,
) {
    let first = match method {
        Method::Vq | Method::Vqt => {
            if grid {
                SnapshotMode::VqGrid
            } else {
                SnapshotMode::Lorenzo
            }
        }
        Method::Mt | Method::Mt2 => {
            if have_ref {
                SnapshotMode::TimeRef
            } else {
                SnapshotMode::Lorenzo
            }
        }
        Method::Adaptive => unreachable!("resolved before encoding"),
    };
    modes.clear();
    modes.push(first);
    match method {
        Method::Vq => modes.extend(std::iter::repeat_n(first, n_snapshots.saturating_sub(1))),
        Method::Mt2 => {
            // Second snapshot has only one predecessor; extrapolate after.
            if n_snapshots > 1 {
                modes.push(SnapshotMode::TimePrev);
            }
            modes.extend(std::iter::repeat_n(
                SnapshotMode::TimePrev2,
                n_snapshots.saturating_sub(2),
            ));
        }
        _ => {
            modes.extend(std::iter::repeat_n(SnapshotMode::TimePrev, n_snapshots.saturating_sub(1)))
        }
    }
}
