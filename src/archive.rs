//! XYZ trajectories in and out of `.mdz` archives.
//!
//! mdz-store writes and parses every archive byte; this module carries an
//! [`XyzTrajectory`]'s frames, elements and comments across it, tallies
//! the per-axis methods an archive's blocks were coded with, and checks
//! decoded frames against the ε each block was coded under.

use crate::xyz::XyzTrajectory;
use mdz_core::{BlockInfo, Decompressor, Frame, MdzError, Result};
use mdz_store::archive::{record_at, split_container};
use mdz_store::{write_store, ArchiveIndex, StoreOptions, StoreReader};

/// Compresses a trajectory into a version-2 archive.
pub fn compress(traj: &XyzTrajectory, opts: &StoreOptions) -> Result<Vec<u8>> {
    write_store(&traj.frames, &traj.elements, &traj.comments, opts)
}

/// Decodes every frame of an archive of either container version, with its
/// elements and comments.
pub fn decompress(blob: Vec<u8>) -> Result<XyzTrajectory> {
    let reader = StoreReader::open(blob)?;
    let idx = reader.index();
    let frames = reader.read_frames(0..idx.n_frames)?;
    Ok(XyzTrajectory { elements: idx.elements.clone(), comments: idx.comments.clone(), frames })
}

/// Per-axis method tally over every block, e.g. `MT ×9, VQ ×1, VQ stored
/// ×2`: what the adaptive selector chose, with the blocks whose payload is
/// stored, not LZ77-compressed, counted apart.
pub fn method_tally(blob: &[u8], idx: &ArchiveIndex) -> Result<String> {
    let mut counts = std::collections::BTreeMap::<String, usize>::new();
    for axes in axis_headers(blob, idx)? {
        for info in axes {
            let stored = if info.stored { " stored" } else { "" };
            *counts.entry(format!("{}{stored}", info.method)).or_default() += 1;
        }
    }
    Ok(counts.iter().map(|(m, c)| format!("{m} ×{c}")).collect::<Vec<_>>().join(", "))
}

/// The x, y and z block headers of every block, in block order.
fn axis_headers(blob: &[u8], idx: &ArchiveIndex) -> Result<Vec<[BlockInfo; 3]>> {
    let mut headers = Vec::with_capacity(idx.blocks.len());
    for block in &idx.blocks {
        let [x, y, z] = split_container(record_at(blob, block.offset)?)?;
        headers.push([
            Decompressor::inspect(x)?,
            Decompressor::inspect(y)?,
            Decompressor::inspect(z)?,
        ]);
    }
    Ok(headers)
}

/// One axis's outcome of [`check_bound`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AxisBound {
    /// Largest |source − decoded| over the axis.
    pub max_error: f64,
    /// ε of the block holding that largest error.
    pub eps: f64,
    /// First block in which a value of this axis exceeds the block's ε.
    pub violation: Option<usize>,
}

/// Checks every decoded value against the ε its block and axis were coded
/// under, per axis (x, y, z).
///
/// For an `f32` store the source is rounded to `f32` first, as the writer
/// did, and narrowing the reconstruction back to `f32` may add half an
/// `f32` ULP on top of ε. A non-finite source value must decode to itself.
/// `source` and `decoded` must each hold every frame of the archive.
pub fn check_bound(
    source: &[Frame],
    decoded: &[Frame],
    blob: &[u8],
    idx: &ArchiveIndex,
) -> Result<[AxisBound; 3]> {
    if source.len() != idx.n_frames || decoded.len() != idx.n_frames {
        return Err(MdzError::BadInput("frame count differs from the archive's"));
    }
    let mut axes = [AxisBound::default(); 3];
    for (b, (block, headers)) in idx.blocks.iter().zip(axis_headers(blob, idx)?).enumerate() {
        let frames = block.frame_start..block.frame_start + block.n_frames;
        for (src, got) in source[frames.clone()].iter().zip(&decoded[frames]) {
            let pairs = [(&src.x, &got.x), (&src.y, &got.y), (&src.z, &got.z)];
            for ((bound, info), (src, got)) in axes.iter_mut().zip(&headers).zip(pairs) {
                for (&a, &d) in src.iter().zip(got) {
                    let (a, slack) = if idx.f32_source {
                        let a = f64::from(a as f32);
                        (a, (a.abs() + info.eps) * f64::from(f32::EPSILON) / 2.0)
                    } else {
                        (a, 0.0)
                    };
                    let err = (a - d).abs();
                    if err > bound.max_error {
                        bound.max_error = err;
                        bound.eps = info.eps;
                    }
                    if !(err <= info.eps + slack || a == d || (a.is_nan() && d.is_nan())) {
                        bound.violation.get_or_insert(b);
                    }
                }
            }
        }
    }
    Ok(axes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdz_core::{ErrorBound, MdzConfig};

    fn sample_traj(m: usize, n: usize) -> XyzTrajectory {
        let frames = (0..m)
            .map(|t| {
                let mk = |off: f64| -> Vec<f64> {
                    (0..n).map(|i| (i % 6) as f64 * 2.0 + off + t as f64 * 1e-4).collect()
                };
                Frame::new(mk(0.0), mk(0.1), mk(0.2))
            })
            .collect();
        XyzTrajectory {
            elements: (0..n).map(|i| if i % 2 == 0 { "Cu".into() } else { "O".into() }).collect(),
            comments: (0..m).map(|t| format!("frame {t}")).collect(),
            frames,
        }
    }

    fn opts(buffer_size: usize) -> StoreOptions {
        opts_with(MdzConfig::new(ErrorBound::Absolute(1e-3)), buffer_size)
    }

    fn opts_with(cfg: MdzConfig, buffer_size: usize) -> StoreOptions {
        let mut opts = StoreOptions::new(cfg);
        opts.buffer_size = buffer_size;
        opts
    }

    #[test]
    fn archive_round_trip() {
        let traj = sample_traj(25, 80);
        let archive = compress(&traj, &opts(10)).unwrap();
        let out = decompress(archive).unwrap();
        assert_eq!(out.elements, traj.elements);
        assert_eq!(out.comments, traj.comments);
        assert_eq!(out.frames.len(), traj.frames.len());
        for (a, b) in traj.frames.iter().zip(out.frames.iter()) {
            for i in 0..a.len() {
                assert!((a.x[i] - b.x[i]).abs() <= 1e-3);
                assert!((a.y[i] - b.y[i]).abs() <= 1e-3);
                assert!((a.z[i] - b.z[i]).abs() <= 1e-3);
            }
        }
    }

    #[test]
    fn info_reports_structure() {
        let traj = sample_traj(25, 40);
        let archive = compress(&traj, &opts(10)).unwrap();
        let idx = ArchiveIndex::parse(&archive).unwrap();
        assert_eq!(idx.n_atoms, 40);
        assert_eq!(idx.n_frames, 25);
        assert_eq!(idx.buffer_size, 10);
        // 10 + 10 + 5 frames.
        assert_eq!(idx.blocks.len(), 3);
        // 3 buffers × 3 axes = 9 axis blocks, all concrete methods.
        let tally = method_tally(&archive, &idx).unwrap();
        let total: usize = tally
            .split(", ")
            .map(|m| m.split_once(" ×").unwrap().1.parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 9, "{tally}");
    }

    #[test]
    fn archive_compresses() {
        let traj = sample_traj(50, 200);
        let raw = 50 * 200 * 24;
        let archive = compress(&traj, &opts(10)).unwrap();
        assert!(archive.len() * 5 < raw, "{} vs {raw}", archive.len());
    }

    #[test]
    fn frame_extraction_vq_random_access() {
        let traj = sample_traj(25, 60);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(mdz_core::Method::Vq);
        let archive = compress(&traj, &opts_with(cfg, 10)).unwrap();
        let full = decompress(archive.clone()).unwrap();
        let reader = StoreReader::open(archive).unwrap();
        for k in [0usize, 7, 10, 24] {
            let f = reader.read_frames(k..k + 1).unwrap();
            assert_eq!(f, [full.frames[k].clone()], "frame {k}");
        }
        assert!(reader.read_frames(25..26).is_err());
    }

    #[test]
    fn frame_extraction_streaming_fallback() {
        let traj = sample_traj(25, 60);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(mdz_core::Method::Mt);
        let archive = compress(&traj, &opts_with(cfg, 10)).unwrap();
        let full = decompress(archive.clone()).unwrap();
        let reader = StoreReader::open(archive).unwrap();
        // MT chains each buffer to the one before it: frames 13 and 24
        // decode through the epoch's earlier blocks.
        for k in [0usize, 13, 24] {
            let f = reader.read_frames(k..k + 1).unwrap();
            assert_eq!(f, [full.frames[k].clone()], "frame {k}");
        }
    }

    #[test]
    fn checksum_catches_corruption() {
        let traj = sample_traj(10, 40);
        let mut archive = compress(&traj, &opts(5)).unwrap();
        // Flip a byte deep in the last block's payload, past its length
        // prefix and checksum.
        let idx = ArchiveIndex::parse(&archive).unwrap();
        let last = idx.blocks.last().unwrap().offset;
        archive[last + 20] ^= 0xFF;
        assert!(matches!(
            decompress(archive),
            Err(MdzError::Corrupt { what: "block checksum mismatch" })
        ));
    }

    #[test]
    fn corrupt_archives_error() {
        let traj = sample_traj(5, 20);
        let archive = compress(&traj, &opts(2)).unwrap();
        assert!(decompress(archive[..3].to_vec()).is_err());
        let mut bad = archive.clone();
        bad[0] = b'X';
        assert!(decompress(bad).is_err());
        assert!(ArchiveIndex::parse(&archive[..archive.len() - 1]).is_err());
    }

    #[test]
    fn empty_trajectory_rejected() {
        let traj = XyzTrajectory { elements: vec![], comments: vec![], frames: vec![] };
        assert!(compress(&traj, &opts(10)).is_err());
    }
}
