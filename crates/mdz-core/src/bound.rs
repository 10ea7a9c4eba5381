//! Error-bound specifications.
//!
//! The paper reports results with *value-range-based* bounds `ε` (absolute
//! bound `= ε · (max − min)` of the data being compressed) as is conventional
//! in the SZ literature; an absolute bound is also supported directly.

use crate::{MdzError, Result};

/// How much each reconstructed value may deviate from the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|d − d'| ≤ eps`.
    Absolute(f64),
    /// Relative to the value range of the buffer being compressed:
    /// `|d − d'| ≤ eps · (max − min)`.
    ValueRangeRelative(f64),
}

impl ErrorBound {
    /// Resolves to an absolute bound for one buffer's snapshots: the one
    /// rule the MDZ encoder and every baseline use.
    ///
    /// An absolute bound is returned without reading the data. A
    /// value-range bound scales the range of every value in the buffer
    /// (NaNs are skipped); on constant data (range 0), or when the range is
    /// infinite, it degenerates to 1e-300 so quantization stays
    /// well-defined (and trivially satisfied for constant data).
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_core::ErrorBound;
    ///
    /// let buffer = [vec![0.0, 4.0], vec![10.0, 2.0]];
    /// assert_eq!(ErrorBound::ValueRangeRelative(0.25).absolute_for(&buffer), 2.5);
    /// assert_eq!(ErrorBound::Absolute(0.5).absolute_for(&buffer), 0.5);
    /// ```
    pub fn absolute_for<S: AsRef<[f64]>>(&self, snapshots: &[S]) -> f64 {
        match *self {
            ErrorBound::Absolute(e) => e,
            ErrorBound::ValueRangeRelative(r) => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for s in snapshots {
                    for &v in s.as_ref() {
                        if v < min {
                            min = v;
                        }
                        if v > max {
                            max = v;
                        }
                    }
                }
                let range = max - min;
                if range > 0.0 && range.is_finite() {
                    r * range
                } else {
                    1e-300
                }
            }
        }
    }

    /// Checks the bound is positive and finite.
    pub fn validate(&self) -> Result<()> {
        let e = match *self {
            ErrorBound::Absolute(e) | ErrorBound::ValueRangeRelative(e) => e,
        };
        if e > 0.0 && e.is_finite() {
            Ok(())
        } else {
            Err(MdzError::BadConfig("error bound must be positive and finite"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_passthrough() {
        assert_eq!(ErrorBound::Absolute(0.5).absolute_for(&[[1.0, 100.0]]), 0.5);
    }

    #[test]
    fn relative_scales_with_range() {
        let b = ErrorBound::ValueRangeRelative(1e-3);
        assert!((b.absolute_for(&[[0.0, 10.0]]) - 0.01).abs() < 1e-15);
        assert!((b.absolute_for(&[[-5.0, 5.0]]) - 0.01).abs() < 1e-15);
        // The range spans every snapshot of the buffer.
        assert!((b.absolute_for(&[[-5.0, 0.0], [0.0, 5.0]]) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn relative_on_constant_data_is_positive() {
        let b = ErrorBound::ValueRangeRelative(1e-3);
        assert_eq!(b.absolute_for(&[[7.0, 7.0, 7.0]]), 1e-300);
    }

    #[test]
    fn validation() {
        assert!(ErrorBound::Absolute(1e-6).validate().is_ok());
        assert!(ErrorBound::Absolute(0.0).validate().is_err());
        assert!(ErrorBound::Absolute(-1.0).validate().is_err());
        assert!(ErrorBound::ValueRangeRelative(f64::NAN).validate().is_err());
        assert!(ErrorBound::ValueRangeRelative(f64::INFINITY).validate().is_err());
    }
}
