//! Store-level correctness properties.
//!
//! The central contract: `StoreReader::read_frames(range)` is byte-identical
//! to slicing `range` out of a full sequential decode of the archive. The
//! sequential reference here is implemented from the wire format directly
//! (header scan, record walk, per-axis decompressors reset at epoch
//! boundaries) so it shares none of the footer/index/cache code under test.

use std::ops::Range;

use mdz_core::{Decompressor, ErrorBound, Frame, MdzConfig, MdzError, Method};
use mdz_entropy::read_uvarint;
use mdz_store::archive::split_container;
use mdz_store::{write_store, Precision, StoreOptions, StoreReader};

/// Deterministic pseudo-random walk: jittery but compressible coordinates.
fn make_frames(n_frames: usize, n_atoms: usize, seed: u64) -> Vec<Frame> {
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut frames = Vec::with_capacity(n_frames);
    let mut base: Vec<(f64, f64, f64)> = (0..n_atoms)
        .map(|i| ((i % 9) as f64 * 2.0, (i % 7) as f64 * 3.0, (i % 5) as f64 * 1.5))
        .collect();
    for _ in 0..n_frames {
        for p in base.iter_mut() {
            p.0 += rnd() * 1e-2;
            p.1 += rnd() * 1e-2;
            p.2 += rnd() * 1e-2;
        }
        frames.push(Frame::new(
            base.iter().map(|p| p.0).collect(),
            base.iter().map(|p| p.1).collect(),
            base.iter().map(|p| p.2).collect(),
        ));
    }
    frames
}

/// Sequential reference decode straight off the wire format.
fn sequential_decode(data: &[u8]) -> Vec<Frame> {
    sequential_prefix(data, usize::MAX).unwrap()
}

/// Sequential decode of the archive's first `max_blocks` blocks, or the
/// first error a plain in-order decoder would hit on them.
fn sequential_prefix(data: &[u8], max_blocks: usize) -> Result<Vec<Frame>, MdzError> {
    assert_eq!(&data[..4], b"MDZA");
    assert_eq!(data[4], 2, "reference decoder only speaks v2");
    let f32_source = data[5] & 1 != 0;
    let mut pos = 6;
    let n_atoms = read_uvarint(data, &mut pos).unwrap() as usize;
    let n_frames = read_uvarint(data, &mut pos).unwrap() as usize;
    let bs = read_uvarint(data, &mut pos).unwrap() as usize;
    let k = read_uvarint(data, &mut pos).unwrap() as usize;
    let meta_len = read_uvarint(data, &mut pos).unwrap() as usize;
    pos += meta_len;

    let n_blocks = n_frames.div_ceil(bs).min(max_blocks);
    let mut axes = [Decompressor::new(), Decompressor::new(), Decompressor::new()];
    let mut frames: Vec<Frame> = Vec::with_capacity(n_frames);
    for block_idx in 0..n_blocks {
        if block_idx > 0 && block_idx % k == 0 {
            // The writer re-anchored here; a sequential decoder must drop
            // its reference state or later MT buffers decode against stale
            // snapshots.
            for d in axes.iter_mut() {
                d.reset_stream();
            }
        }
        let len = read_uvarint(data, &mut pos).unwrap() as usize;
        pos += 8; // fnv1a checksum — the reference trusts the bytes
        let container = &data[pos..pos + len];
        pos += len;
        assert_eq!(&container[..4], b"MDZT");
        let mut cpos = 4;
        let mut per_axis: Vec<Vec<Vec<f64>>> = Vec::with_capacity(3);
        for axis in axes.iter_mut() {
            let blen = read_uvarint(container, &mut cpos).unwrap() as usize;
            let block = &container[cpos..cpos + blen];
            cpos += blen;
            let snaps = if f32_source {
                axis.decompress_block_f32(block)?
                    .into_iter()
                    .map(|s| s.into_iter().map(f64::from).collect())
                    .collect()
            } else {
                axis.decompress_block(block)?
            };
            per_axis.push(snaps);
        }
        let [x, y, z]: [Vec<Vec<f64>>; 3] = per_axis.try_into().unwrap();
        for ((sx, sy), sz) in x.into_iter().zip(y).zip(z) {
            if sx.len() != n_atoms || sy.len() != n_atoms || sz.len() != n_atoms {
                return Err(MdzError::Corrupt { what: "snapshot length is not the atom count" });
            }
            frames.push(Frame::new(sx, sy, sz));
        }
    }
    assert_eq!(frames.len(), n_frames.min(n_blocks * bs));
    Ok(frames)
}

#[test]
fn every_range_matches_sequential_decode_across_codecs() {
    let n_frames = 40;
    let frames = make_frames(n_frames, 16, 0x5eed);
    let methods = [Method::Adaptive, Method::Vq, Method::Vqt, Method::Mt];
    let precisions = [Precision::F64, Precision::F32];
    let intervals = [1usize, 4, 16];
    for method in methods {
        for precision in precisions {
            for k in intervals {
                let mut opts = StoreOptions::new(
                    MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method),
                );
                opts.buffer_size = 4;
                opts.epoch_interval = k;
                opts.precision = precision;
                let data = write_store(&frames, &[], &[], &opts).unwrap();
                let reference = sequential_decode(&data);
                let reader = StoreReader::open(data).unwrap();
                let label = format!("{method:?}/{precision:?}/K={k}");
                // Every single-buffer range, plus straddling and full spans.
                let mut ranges: Vec<(usize, usize)> =
                    (0..n_frames / 4).map(|b| (b * 4, b * 4 + 4)).collect();
                ranges.extend([(0, n_frames), (3, 21), (15, 17), (39, 40), (0, 1), (6, 6)]);
                for (start, end) in ranges {
                    let got = reader.read_frames(start..end).unwrap();
                    assert_eq!(got, reference[start..end], "{label} range {start}..{end}");
                }
            }
        }
    }
}

#[test]
fn one_buffer_read_decodes_at_most_one_epoch() {
    // 64 buffers of 2 frames, 4 buffers per epoch → 16 epochs.
    let frames = make_frames(128, 8, 0xabcd);
    for precision in [Precision::F64, Precision::F32] {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)));
        opts.buffer_size = 2;
        opts.epoch_interval = 4;
        opts.precision = precision;
        let data = write_store(&frames, &[], &[], &opts).unwrap();
        let reference = sequential_decode(&data);
        let reader = StoreReader::open(data).unwrap();
        assert_eq!(reader.index().blocks.len(), 64);
        assert_eq!(reader.index().n_epochs(), 16);
        // Buffers decoded by one read; no axis decodes a skipped block.
        let decodes = |range: Range<usize>| {
            let blocks = || reader.recorder().counter("core.decode.blocks");
            let (before, blocks_before) = (reader.stats().buffers_decoded, blocks());
            assert_eq!(reader.read_frames(range.clone()).unwrap(), reference[range]);
            let decoded = reader.stats().buffers_decoded - before;
            assert_eq!(blocks() - blocks_before, 3 * decoded, "axis blocks of {decoded} buffers");
            decoded
        };

        // Buffer 39 (frames 78..80) is the last of epoch 9 (buffers
        // 36..40): its anchor for the reference state, then itself;
        // buffers 37 and 38 leave the state unchanged and are skipped.
        assert_eq!(decodes(78..80), 2, "{precision:?}: cold non-anchor buffer");
        // Buffer 37 needs the anchor's state again.
        assert_eq!(decodes(74..76), 2, "{precision:?}: cold non-anchor buffer");
        // Buffer 44 (frames 88..90) anchors epoch 11: itself alone.
        assert_eq!(decodes(88..90), 1, "{precision:?}: cold anchor");
        // Re-reads are pure cache, and so is the anchor decoded for state.
        for range in [78..80, 74..76, 88..90, 72..74] {
            assert_eq!(decodes(range.clone()), 0, "{precision:?}: re-read of {range:?}");
        }
    }
}

/// Rewrites the `n_values` of `axis` in the block record at `block_offset`
/// and re-seals the record checksum, so the forgery reaches the decoder.
fn forge_n_values(data: &mut [u8], block_offset: usize, axis: usize, n_values: u8) {
    let mut pos = block_offset;
    let len = read_uvarint(data, &mut pos).unwrap() as usize;
    let sum_at = pos;
    let container = sum_at + 8;
    let mut cpos = container + 4; // "MDZT"
    for _ in 0..axis {
        let blen = read_uvarint(data, &mut cpos).unwrap() as usize;
        cpos += blen;
    }
    read_uvarint(data, &mut cpos).unwrap();
    // Block header: magic (4) · version · method · flags · n_snapshots ·
    // n_values. Both counts are one-byte uvarints at this geometry.
    assert!(data[cpos + 7] < 0x80 && data[cpos + 8] < 0x80);
    data[cpos + 8] = n_values;
    let sum = mdz_core::checksum::fnv1a64(&data[container..container + len]);
    data[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn forged_block_between_anchor_and_read_is_decoded_or_rejected() {
    // One epoch of 8 buffers × 2 frames × 8 atoms; read buffer 5 cold with
    // buffer 3 forged, so the read must walk through the forgery. A forged
    // count of 8 is the true one: the control case.
    let frames = make_frames(16, 8, 0xf00d);
    for precision in [Precision::F64, Precision::F32] {
        for method in [Method::Adaptive, Method::Mt, Method::Vq] {
            let mut opts =
                StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method));
            opts.buffer_size = 2;
            opts.epoch_interval = 8;
            opts.precision = precision;
            let clean = write_store(&frames, &[], &[], &opts).unwrap();
            let offset = StoreReader::open(clean.clone()).unwrap().index().blocks[3].offset;
            for axis in 0..3 {
                for forged in [1u8, 4, 7, 8, 9, 16, 100] {
                    let mut data = clean.clone();
                    forge_n_values(&mut data, offset, axis, forged);
                    let label = format!("{precision:?}/{method:?} axis {axis} n_values {forged}");
                    let read = StoreReader::open(data.clone()).unwrap().read_frames(10..12);
                    // The read equals a sequential decode of the prefix up
                    // to its last block, or fails exactly as that decode
                    // does: `Corrupt` when the forged count is too large,
                    // the entropy stage's `LimitExceeded` when too small.
                    match (read, sequential_prefix(&data, 6)) {
                        (Ok(got), Ok(reference)) => assert_eq!(got, reference[10..12], "{label}"),
                        (Err(e), Err(seq)) => {
                            assert_eq!(e, seq, "{label}");
                            assert!(
                                matches!(
                                    e,
                                    MdzError::Corrupt { .. } | MdzError::LimitExceeded { .. }
                                ),
                                "{label}: {e:?}"
                            );
                        }
                        (read, seq) => panic!("{label}: read {read:?}, sequential {seq:?}"),
                    }
                }
            }
        }
    }
}

/// Sequential decode of a version-1 archive's block records: each record's
/// container split into its axis blocks, one decompressor per axis, with
/// no index or epoch logic.
fn v1_sequential_decode(data: &[u8]) -> Vec<Frame> {
    assert_eq!(&data[..5], b"MDZA\x01");
    let mut pos = 5;
    for _ in 0..3 {
        read_uvarint(data, &mut pos).unwrap(); // n_atoms, n_frames, buffer_size
    }
    let meta_len = read_uvarint(data, &mut pos).unwrap() as usize;
    pos += meta_len;
    let mut axes = [Decompressor::new(), Decompressor::new(), Decompressor::new()];
    let mut frames = Vec::new();
    while pos < data.len() {
        let len = read_uvarint(data, &mut pos).unwrap() as usize;
        pos += 8; // fnv1a checksum
        let blocks = split_container(&data[pos..pos + len]).unwrap();
        let [x, y, z] =
            std::array::from_fn(|axis| axes[axis].decompress_block(blocks[axis]).unwrap());
        frames.extend(x.into_iter().zip(y).zip(z).map(|((x, y), z)| Frame::new(x, y, z)));
        pos += len;
    }
    frames
}

/// Two version-1 inputs: one hand-rolled here, and
/// `golden/adk_v1_mt.mdz`, which the retired version-1 writer produced with
/// `mdz gen adk g.xyz --scale test --seed 7` and then
/// `mdz compress g.xyz adk_v1_mt.mdz --bs 2 --method mt` (8 frames of 300
/// atoms in 4 MT-chained blocks).
#[test]
fn v1_archives_open_as_a_single_epoch() {
    use mdz_core::checksum::fnv1a64;
    use mdz_core::Compressor;
    use mdz_entropy::write_uvarint;
    use mdz_lossless::lz77;
    use mdz_store::archive::assemble_container;

    // Hand-rolled v1 archive, matching the retired writer's layout.
    let frames = make_frames(20, 6, 0x11);
    let bs = 4usize;
    let mut data = Vec::new();
    data.extend_from_slice(b"MDZA");
    data.push(1);
    write_uvarint(&mut data, 6);
    write_uvarint(&mut data, 20);
    write_uvarint(&mut data, bs as u64);
    let meta = lz77::compress(b"H O\n", lz77::Level::Default);
    write_uvarint(&mut data, meta.len() as u64);
    data.extend_from_slice(&meta);
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
    let mut axes = [(); 3].map(|_| Compressor::new(cfg.clone()));
    for chunk in frames.chunks(bs) {
        let block = assemble_container(&std::array::from_fn(|axis| {
            let snapshots: Vec<Vec<f64>> =
                chunk.iter().map(|f| [&f.x, &f.y, &f.z][axis].clone()).collect();
            axes[axis].compress_buffer(&snapshots).unwrap()
        }));
        write_uvarint(&mut data, block.len() as u64);
        data.extend_from_slice(&fnv1a64(&block).to_le_bytes());
        data.extend_from_slice(&block);
    }

    let reference = v1_sequential_decode(&data);
    let reader = StoreReader::open(data).unwrap();
    let idx = reader.index();
    assert_eq!(idx.version, 1);
    assert_eq!(idx.epoch_interval, 5, "v1 archive must form one epoch");
    assert_eq!(idx.n_epochs(), 1);
    assert_eq!(idx.elements, vec!["H".to_string(), "O".to_string()]);
    for (start, end) in [(0, 20), (7, 13), (16, 20), (0, 4)] {
        assert_eq!(reader.read_frames(start..end).unwrap(), reference[start..end]);
    }

    let golden = std::fs::read(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/adk_v1_mt.mdz"),
    )
    .unwrap();
    let reference = v1_sequential_decode(&golden);
    let reader = StoreReader::open(golden).unwrap();
    let idx = reader.index();
    assert_eq!((idx.version, idx.n_frames, idx.blocks.len(), idx.n_epochs()), (1, 8, 4, 1));
    assert_eq!(idx.elements, vec!["X".to_string(); 300]);
    assert_eq!(idx.comments, (0..8).map(|t| format!("ADK frame {t}")).collect::<Vec<_>>());
    for (start, end) in [(0, 8), (6, 7), (3, 6), (7, 8), (0, 1)] {
        assert_eq!(reader.read_frames(start..end).unwrap(), reference[start..end]);
    }
}

#[test]
fn f32_store_round_trips_within_bound() {
    let frames = make_frames(16, 8, 0x22);
    let eps = 1e-3;
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(eps)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    opts.precision = Precision::F32;
    let data = write_store(&frames, &[], &[], &opts).unwrap();
    let reader = StoreReader::open(data).unwrap();
    assert!(reader.index().f32_source);
    let got = reader.read_frames(0..16).unwrap();
    for (orig, dec) in frames.iter().zip(&got) {
        for axis in 0..3 {
            let (o, d): (&[f64], &[f64]) = match axis {
                0 => (&orig.x, &dec.x),
                1 => (&orig.y, &dec.y),
                _ => (&orig.z, &dec.z),
            };
            for (a, b) in o.iter().zip(d) {
                // Bound holds against the f32-narrowed source, so allow the
                // narrowing ulp on top of eps.
                let narrowed = *a as f32 as f64;
                assert!((narrowed - b).abs() <= eps * (1.0 + 1e-6), "{a} vs {b}");
            }
        }
    }
}
