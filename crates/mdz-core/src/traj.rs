//! The three-axis frame.
//!
//! MD positions are `(x, y, z)` triples, but the paper compresses each axis
//! as an independent stream (each axis may even pick a different method —
//! Table VI shows ADP choosing VQ for x/y and MT for z on Copper-B). This
//! crate codes one axis stream at a time; `mdz-store` splits [`Frame`]s
//! into their axes, runs one stream per axis, and frames the three blocks
//! of each buffer in its records.

/// One snapshot of particle positions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    /// Per-particle x coordinates.
    pub x: Vec<f64>,
    /// Per-particle y coordinates.
    pub y: Vec<f64>,
    /// Per-particle z coordinates.
    pub z: Vec<f64>,
}

impl Frame {
    /// Creates a frame from per-axis vectors (must be equally long).
    pub fn new(x: Vec<f64>, y: Vec<f64>, z: Vec<f64>) -> Self {
        assert!(x.len() == y.len() && y.len() == z.len(), "axes must be equally long");
        Self { x, y, z }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the frame holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "equally long")]
    fn ragged_frame_panics() {
        let _ = Frame::new(vec![1.0], vec![1.0, 2.0], vec![1.0]);
    }
}
