//! ADP: runtime selection of the best pipeline composition (paper §VI-D).
//!
//! Data patterns are stable over short horizons but drift over long ones
//! (Fig. 10), so MDZ periodically re-evaluates its candidate compositions on
//! a live buffer — compressing it with each and keeping the smallest output —
//! then reuses the winner for the next `interval − 1` buffers. The paper
//! uses an interval of 50, keeping the evaluation overhead under 6 %.
//!
//! The paper's candidate space is the three concrete methods (VQ, VQT, MT)
//! over the fixed-scale quantizer. Here a candidate is a [`Candidate`] — a
//! (method, quantizer kind) pair — so enabling
//! [`crate::MdzConfig::bit_adaptive_candidates`] (or
//! `extended_candidates`) enlarges the product space ADP ranks without
//! touching the selector logic.

use crate::format::Method;
use crate::QuantizerKind;

/// One point of the candidate space ADP selects over: a concrete method
/// paired with a quantizer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Concrete prediction method (never [`Method::Adaptive`]).
    pub method: Method,
    /// How the residuals are quantized and their codes stored.
    pub quantizer: QuantizerKind,
}

impl Candidate {
    /// Pairs `method` with the classic fixed-scale quantizer.
    pub fn linear(method: Method) -> Self {
        Self { method, quantizer: QuantizerKind::Linear }
    }
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.quantizer {
            QuantizerKind::Linear => write!(f, "{}", self.method),
            QuantizerKind::BitAdaptive { .. } => write!(f, "{}+BA", self.method),
        }
    }
}

/// Selector state carried by a [`crate::Compressor`].
#[derive(Debug, Clone, Default)]
pub(crate) struct AdaptiveState {
    /// Buffers compressed since the last trial.
    since_trial: u32,
    /// Winner of the most recent trial.
    current: Option<Candidate>,
}

impl AdaptiveState {
    /// Fresh state; the first buffer always triggers a trial.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the next buffer should be a full candidate trial.
    pub fn trial_due(&self, interval: u32) -> bool {
        self.current.is_none() || self.since_trial >= interval
    }

    /// Records a trial winner and resets the interval counter.
    pub fn record_winner(&mut self, winner: Candidate) {
        debug_assert!(!matches!(winner.method, Method::Adaptive));
        self.current = Some(winner);
        self.since_trial = 1;
    }

    /// Advances the interval counter for a non-trial buffer.
    pub fn tick(&mut self) {
        self.since_trial += 1;
    }

    /// The state in which the next buffer codes with `current` as the
    /// buffer of the trial that chose it would, so the next trial falls
    /// `interval` buffers after it. With no candidate the next buffer is a
    /// trial.
    pub(crate) fn resume(current: Option<Candidate>) -> Self {
        // A trial leaves the counter at 1; the resumed buffer's tick does.
        Self { since_trial: 0, current }
    }

    /// The composition currently in force, if a trial has run.
    pub fn current(&self) -> Option<Candidate> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_buffer_is_a_trial() {
        let s = AdaptiveState::new();
        assert!(s.trial_due(50));
    }

    #[test]
    fn trial_cadence_matches_interval() {
        let mut s = AdaptiveState::new();
        assert!(s.trial_due(5));
        s.record_winner(Candidate::linear(Method::Vqt));
        // Buffers 2..=5 reuse the winner; buffer 6 re-trials.
        for _ in 0..4 {
            assert!(!s.trial_due(5));
            s.tick();
        }
        assert!(s.trial_due(5));
    }

    #[test]
    fn resume_counts_the_next_buffer_as_its_trial() {
        let winner = Candidate::linear(Method::Vq);
        let mut original = AdaptiveState::new();
        let mut resumed = AdaptiveState::resume(Some(winner));
        for buffer in 0..7 {
            // Only the original's first buffer runs the trial the resumed
            // state takes as done.
            assert_eq!(original.trial_due(3), buffer % 3 == 0, "buffer {buffer}");
            assert_eq!(resumed.trial_due(3), buffer % 3 == 0 && buffer > 0, "buffer {buffer}");
            for s in [&mut original, &mut resumed] {
                if s.trial_due(3) {
                    s.record_winner(winner);
                } else {
                    s.tick();
                }
            }
        }
        assert!(AdaptiveState::resume(None).trial_due(3));
    }

    #[test]
    fn winner_is_remembered() {
        let mut s = AdaptiveState::new();
        s.record_winner(Candidate::linear(Method::Mt));
        assert_eq!(s.current(), Some(Candidate::linear(Method::Mt)));
        let ba = Candidate { method: Method::Vq, quantizer: QuantizerKind::BIT_ADAPTIVE_DEFAULT };
        s.record_winner(ba);
        assert_eq!(s.current(), Some(ba));
    }

    #[test]
    fn candidate_display_tags_quantizer() {
        assert_eq!(Candidate::linear(Method::Vqt).to_string(), "VQT");
        let ba = Candidate { method: Method::Mt, quantizer: QuantizerKind::BIT_ADAPTIVE_DEFAULT };
        assert_eq!(ba.to_string(), "MT+BA");
    }
}
