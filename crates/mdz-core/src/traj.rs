//! Three-axis trajectory convenience layer.
//!
//! MD positions are `(x, y, z)` triples, but the paper compresses each axis
//! as an independent stream (each axis may even pick a different method —
//! Table VI shows ADP choosing VQ for x/y and MT for z on Copper-B). This
//! module wraps three per-axis [`Codec`]s behind one call and frames the
//! three blocks in a tiny container. The axes are MDZ by default but any
//! [`Codec`] mix works ([`TrajectoryCompressor::from_codecs`]).

use crate::codec::{Codec, MdzCodec};
use crate::{ErrorBound, MdzConfig, MdzError, Result};
use mdz_entropy::{read_uvarint, write_uvarint};

/// Container magic for a three-axis block group.
const TRAJ_MAGIC: [u8; 4] = *b"MDZT";

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

/// Stateful three-axis compressor.
pub struct TrajectoryCompressor {
    axes: [Box<dyn Codec>; 3],
    bound: ErrorBound,
}

impl TrajectoryCompressor {
    /// Creates one MDZ codec per axis from a shared configuration.
    pub fn new(cfg: MdzConfig) -> Self {
        let bound = cfg.bound;
        let axes: [Box<dyn Codec>; 3] =
            std::array::from_fn(|_| Box::new(MdzCodec::from_config(cfg.clone())) as Box<dyn Codec>);
        Self { axes, bound }
    }

    /// Builds a trajectory compressor from three arbitrary per-axis codecs.
    pub fn from_codecs(axes: [Box<dyn Codec>; 3], bound: ErrorBound) -> Self {
        Self { axes, bound }
    }

    /// Compresses a buffer of frames into one container blob.
    pub fn compress_buffer(&mut self, frames: &[Frame]) -> Result<Vec<u8>> {
        if frames.is_empty() {
            return Err(MdzError::BadInput("buffer has no frames"));
        }
        let xs: Vec<Vec<f64>> = frames.iter().map(|f| f.x.clone()).collect();
        let ys: Vec<Vec<f64>> = frames.iter().map(|f| f.y.clone()).collect();
        let zs: Vec<Vec<f64>> = frames.iter().map(|f| f.z.clone()).collect();
        let blocks = [
            self.axes[0].compress_buffer(&xs, self.bound)?,
            self.axes[1].compress_buffer(&ys, self.bound)?,
            self.axes[2].compress_buffer(&zs, self.bound)?,
        ];
        Ok(assemble_container(&blocks))
    }
}

/// Splits a trajectory container into its three per-axis blocks.
///
/// Public for layers that address axis blocks individually (the `mdz-store`
/// epoch decoder); most callers want [`TrajectoryDecompressor`] instead.
pub fn split_container(data: &[u8]) -> Result<[&[u8]; 3]> {
    let magic = data.get(..4).ok_or(MdzError::BadHeader("truncated container"))?;
    if magic != TRAJ_MAGIC {
        return Err(MdzError::BadHeader("not an MDZ trajectory container"));
    }
    let mut pos = 4;
    let mut blocks = [&data[0..0]; 3];
    for slot in &mut blocks {
        let len = read_uvarint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or(MdzError::BadHeader("truncated axis block"))?;
        *slot = &data[pos..end];
        pos = end;
    }
    Ok(blocks)
}

/// Zips three per-axis snapshot lists back into frames, checking that the
/// axes agree on snapshot and particle counts.
fn zip_frames(x: Vec<Vec<f64>>, y: Vec<Vec<f64>>, z: Vec<Vec<f64>>) -> Result<Vec<Frame>> {
    if x.len() != y.len() || y.len() != z.len() {
        return Err(MdzError::BadHeader("axis snapshot counts disagree"));
    }
    let mut frames = Vec::with_capacity(x.len());
    for ((x, y), z) in x.into_iter().zip(y).zip(z) {
        if x.len() != y.len() || y.len() != z.len() {
            return Err(MdzError::BadHeader("axis particle counts disagree"));
        }
        frames.push(Frame { x, y, z });
    }
    Ok(frames)
}

/// Frames three per-axis blocks into the trajectory container.
///
/// Inverse of [`split_container`]; public for layers that produce axis
/// blocks through [`crate::Compressor`] directly (the `mdz-store` epoch
/// writer) yet must stay byte-compatible with [`TrajectoryCompressor`].
pub fn assemble_container(blocks: &[Vec<u8>; 3]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.iter().map(Vec::len).sum::<usize>() + 16);
    out.extend_from_slice(&TRAJ_MAGIC);
    for b in blocks {
        write_uvarint(&mut out, b.len() as u64);
        out.extend_from_slice(b);
    }
    out
}

/// Stateful three-axis decompressor.
pub struct TrajectoryDecompressor {
    axes: [Box<dyn Codec>; 3],
}

impl Default for TrajectoryDecompressor {
    fn default() -> Self {
        Self { axes: std::array::from_fn(|_| Box::new(MdzCodec::default()) as Box<dyn Codec>) }
    }
}

impl TrajectoryDecompressor {
    /// Creates an MDZ decompressor with empty stream state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trajectory decompressor from three arbitrary per-axis
    /// codecs (must match the codecs that produced the container).
    pub fn from_codecs(axes: [Box<dyn Codec>; 3]) -> Self {
        Self { axes }
    }

    /// Decompresses one container blob back into frames.
    pub fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Frame>> {
        let blocks = split_container(data)?;
        let x = self.axes[0].decompress_buffer(blocks[0])?;
        let y = self.axes[1].decompress_buffer(blocks[1])?;
        let z = self.axes[2].decompress_buffer(blocks[2])?;
        zip_frames(x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorBound, Method};

    fn frames(m: usize, n: usize) -> Vec<Frame> {
        (0..m)
            .map(|t| {
                let mk = |off: f64| -> Vec<f64> {
                    (0..n).map(|i| (i % 8) as f64 * 2.0 + off + t as f64 * 1e-4).collect()
                };
                Frame::new(mk(0.0), mk(0.3), mk(0.7))
            })
            .collect()
    }

    #[test]
    fn frame_round_trip() {
        let fs = frames(6, 120);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let blob = TrajectoryCompressor::new(cfg).compress_buffer(&fs).unwrap();
        let out = TrajectoryDecompressor::new().decompress_buffer(&blob).unwrap();
        assert_eq!(out.len(), fs.len());
        for (a, b) in fs.iter().zip(out.iter()) {
            for axis in [(&a.x, &b.x), (&a.y, &b.y), (&a.z, &b.z)] {
                for (v, w) in axis.0.iter().zip(axis.1.iter()) {
                    assert!((v - w).abs() <= 1e-3);
                }
            }
        }
    }

    #[test]
    fn stateful_multi_buffer_stream() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut c = TrajectoryCompressor::new(cfg);
        let mut d = TrajectoryDecompressor::new();
        for _ in 0..3 {
            let fs = frames(4, 80);
            let blob = c.compress_buffer(&fs).unwrap();
            let out = d.decompress_buffer(&blob).unwrap();
            assert_eq!(out.len(), 4);
        }
    }

    #[test]
    fn empty_buffer_rejected() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        assert!(TrajectoryCompressor::new(cfg).compress_buffer(&[]).is_err());
    }

    #[test]
    fn corrupted_container_errors() {
        let fs = frames(2, 40);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let blob = TrajectoryCompressor::new(cfg).compress_buffer(&fs).unwrap();
        assert!(TrajectoryDecompressor::new().decompress_buffer(&blob[..3]).is_err());
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(TrajectoryDecompressor::new().decompress_buffer(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn ragged_frame_panics() {
        let _ = Frame::new(vec![1.0], vec![1.0, 2.0], vec![1.0]);
    }
}
