//! Golden-fixture format-stability tests.
//!
//! The on-disk block format is a compatibility contract: refactors of the
//! encode pipeline must not change a single output byte for the fixed
//! methods. These tests compress deterministic multi-buffer streams and
//! compare the concatenated block bytes against fixtures checked into
//! `tests/golden/`.
//!
//! To regenerate the fixtures after an *intentional* format change:
//!
//! ```text
//! MDZ_BLESS=1 cargo test -p mdz-core --test format_stability
//! ```
//!
//! and commit the updated `tests/golden/*.bin` files together with the
//! format change and a version bump.

use mdz_core::bound::ErrorBound;
use mdz_core::format::Method;
use mdz_core::{BlockInfo, Compressor, Decompressor};
use mdz_core::{EntropyStage, MdzConfig, QuantizerKind};
use std::path::PathBuf;

const N_PARTICLES: usize = 240;
const SNAPSHOTS_PER_BUFFER: usize = 8;
const N_BUFFERS: usize = 3;

/// Deterministic LCG in [0, 1).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gauss(&mut self) -> f64 {
        let u1 = self.next().max(1e-12);
        let u2 = self.next();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Einstein-crystal-like stream: equally spaced levels + small correlated
/// thermal noise. Exercises grid detection (VQ), temporal smoothness (MT),
/// and the Seq-2 interleave.
fn lattice_stream() -> Vec<Vec<Vec<f64>>> {
    let mut rng = Lcg(0x5EED_0001);
    let spacing = 1.8075;
    let sites: Vec<f64> = (0..N_PARTICLES).map(|i| (i % 24) as f64 * spacing).collect();
    let mut disp: Vec<f64> = (0..N_PARTICLES).map(|_| rng.gauss() * 0.04).collect();
    let mut buffers = Vec::new();
    for _ in 0..N_BUFFERS {
        let mut snapshots = Vec::new();
        for _ in 0..SNAPSHOTS_PER_BUFFER {
            let snap: Vec<f64> = sites.iter().zip(disp.iter()).map(|(s, d)| s + d).collect();
            snapshots.push(snap);
            for d in disp.iter_mut() {
                *d = *d * 0.9 + rng.gauss() * 0.02;
            }
        }
        buffers.push(snapshots);
    }
    buffers
}

/// Unstructured smooth stream (protein-like): no level grid, slow drift.
fn smooth_stream() -> Vec<Vec<Vec<f64>>> {
    let mut rng = Lcg(0x5EED_0002);
    let mut pos: Vec<f64> = {
        let mut p = 0.0;
        (0..N_PARTICLES)
            .map(|_| {
                p += rng.gauss() * 0.7;
                p
            })
            .collect()
    };
    let mut buffers = Vec::new();
    for _ in 0..N_BUFFERS {
        let mut snapshots = Vec::new();
        for _ in 0..SNAPSHOTS_PER_BUFFER {
            snapshots.push(pos.clone());
            for p in pos.iter_mut() {
                *p += rng.gauss() * 0.01;
            }
        }
        buffers.push(snapshots);
    }
    buffers
}

/// Mixed-scale stream: per-particle step magnitudes span decades, so the
/// fixed 512-code linear scale escapes on the fast tail while the
/// bit-adaptive stage covers it with wide per-chunk codes. Exercises the
/// version-2 block path and the adaptive (method × quantizer) trial.
fn spread_stream() -> Vec<Vec<Vec<f64>>> {
    let mut rng = Lcg(0x5EED_0003);
    let mut pos: Vec<f64> = (0..N_PARTICLES).map(|_| rng.next() * 100.0).collect();
    let sigma: Vec<f64> =
        (0..N_PARTICLES).map(|i| 10f64.powf(-3.0 + 4.0 * i as f64 / N_PARTICLES as f64)).collect();
    let mut buffers = Vec::new();
    for _ in 0..N_BUFFERS {
        let mut snapshots = Vec::new();
        for _ in 0..SNAPSHOTS_PER_BUFFER {
            snapshots.push(pos.clone());
            for (p, s) in pos.iter_mut().zip(sigma.iter()) {
                *p += rng.gauss() * s;
            }
        }
        buffers.push(snapshots);
    }
    buffers
}

/// Crystal whose thermal displacements repeat every 24 particles, so each
/// block's code streams repeat too and LZ77 pays on them.
fn periodic_stream() -> Vec<Vec<Vec<f64>>> {
    let mut rng = Lcg(0x5EED_0004);
    let spacing = 1.8075;
    let mut disp: Vec<f64> = (0..24).map(|_| rng.gauss() * 0.04).collect();
    let mut buffers = Vec::new();
    for _ in 0..N_BUFFERS {
        let mut snapshots = Vec::new();
        for _ in 0..SNAPSHOTS_PER_BUFFER {
            snapshots
                .push((0..N_PARTICLES).map(|i| (i % 24) as f64 * spacing + disp[i % 24]).collect());
            for d in disp.iter_mut() {
                *d = *d * 0.9 + rng.gauss() * 0.02;
            }
        }
        buffers.push(snapshots);
    }
    buffers
}

/// Compresses a whole stream with one `Compressor`, framing each block with
/// a little-endian u32 length so the fixture is self-delimiting.
fn stream_bytes(cfg: MdzConfig, buffers: &[Vec<Vec<f64>>]) -> Vec<u8> {
    let mut comp = Compressor::new(cfg);
    let mut out = Vec::new();
    for buf in buffers {
        let block = comp.compress_buffer(buf).expect("compress");
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&block);
    }
    out
}

/// The header of every block of a stream [`stream_bytes`] framed.
fn block_infos(bytes: &[u8]) -> Vec<BlockInfo> {
    let mut infos = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        infos.push(Decompressor::inspect(&bytes[pos..pos + len]).unwrap());
        pos += len;
    }
    infos
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.bin"))
}

fn check_golden(name: &str, bytes: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("MDZ_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}; run with MDZ_BLESS=1"));
    assert_eq!(
        golden,
        bytes,
        "{name}: block bytes diverged from the golden fixture — the on-disk \
         format changed (lengths {} vs {})",
        golden.len(),
        bytes.len()
    );
}

/// Every fixture must still decode to within the error bound — guards
/// against blessing corrupt fixtures. A block of an `f32` source decodes
/// through `decompress_block_f32`, and its bound holds against the
/// narrowed source, up to the decoded value's rounding to `f32`.
fn check_decodes(bytes: &[u8], buffers: &[Vec<Vec<f64>>], eps: f64) {
    let mut dec = Decompressor::new();
    let mut pos = 0;
    for buf in buffers {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        let block = &bytes[pos..pos + len];
        let narrow = Decompressor::inspect(block).unwrap().source_f32;
        let rec = if narrow {
            let rec = dec.decompress_block_f32(block).expect("decode f32");
            rec.into_iter().map(|s| s.into_iter().map(f64::from).collect()).collect()
        } else {
            dec.decompress_block(block).expect("decode")
        };
        assert_eq!(rec.len(), buf.len());
        for (r, o) in rec.iter().zip(buf.iter()) {
            for (&a, &b) in r.iter().zip(o.iter()) {
                let (b, slack) = if narrow {
                    let b = b as f32;
                    (f64::from(b), f64::from(b.abs() * f32::EPSILON))
                } else {
                    (b, 0.0)
                };
                assert!((a - b).abs() <= eps * 1.000001 + slack, "bound violated: {a} vs {b}");
            }
        }
        pos += len;
    }
    assert_eq!(pos, bytes.len());
}

fn cfg(method: Method) -> MdzConfig {
    MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(method)
}

#[test]
fn golden_vq_lattice() {
    let buffers = lattice_stream();
    let bytes = stream_bytes(cfg(Method::Vq), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vq_lattice", &bytes);
}

#[test]
fn golden_vqt_lattice() {
    let buffers = lattice_stream();
    let bytes = stream_bytes(cfg(Method::Vqt), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vqt_lattice", &bytes);
}

#[test]
fn golden_mt_lattice() {
    let buffers = lattice_stream();
    let bytes = stream_bytes(cfg(Method::Mt), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("mt_lattice", &bytes);
}

#[test]
fn golden_mt2_smooth() {
    let buffers = smooth_stream();
    let bytes = stream_bytes(cfg(Method::Mt2), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("mt2_smooth", &bytes);
}

#[test]
fn golden_vq_smooth_no_grid() {
    // Smooth data has no level grid: exercises the Lorenzo fallback path.
    let buffers = smooth_stream();
    let bytes = stream_bytes(cfg(Method::Vq), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vq_smooth", &bytes);
}

#[test]
fn golden_mt_range_coded() {
    let buffers = lattice_stream();
    let bytes = stream_bytes(cfg(Method::Mt).with_entropy(EntropyStage::Range), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("mt_lattice_range", &bytes);
}

/// f32 counterpart of [`stream_bytes`], feeding the narrow-input entry
/// point (`FLAG_F32` blocks).
fn stream_bytes_f32(cfg: MdzConfig, buffers: &[Vec<Vec<f64>>]) -> Vec<u8> {
    let mut comp = Compressor::new(cfg);
    let mut out = Vec::new();
    for buf in buffers {
        let narrow: Vec<Vec<f32>> =
            buf.iter().map(|s| s.iter().map(|&v| v as f32).collect()).collect();
        let block = comp.compress_buffer_f32(&narrow).expect("compress f32");
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&block);
    }
    out
}

#[test]
fn golden_adaptive_lattice() {
    // The full adaptive trial (method selection + winner reuse across the
    // stream) is part of the byte contract too.
    let buffers = lattice_stream();
    let bytes = stream_bytes(cfg(Method::Adaptive), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("adp_lattice", &bytes);
}

#[test]
fn golden_adaptive_lz77_then_stored() {
    // A trial every two buffers: the periodic crystal's trial keeps LZ77,
    // the thermal lattice's stores, and the buffer after each trial codes
    // with the payload form its trial chose.
    let buffers: Vec<_> = periodic_stream().into_iter().take(2).chain(lattice_stream()).collect();
    let mut config = cfg(Method::Adaptive);
    config.adapt_interval = 2;
    let bytes = stream_bytes(config, &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    let stored: Vec<bool> = block_infos(&bytes).iter().map(|info| info.stored).collect();
    assert_eq!(stored, [false, false, true, true, true]);
    check_golden("adp_lz77_then_stored", &bytes);
}

#[test]
fn fixtures_written_before_stored_payloads_still_decode() {
    // `adp_lattice{,_f32}` as ADP wrote them before a trial could store a
    // payload: every block LZ77-coded. The writer no longer produces these
    // bytes, but archives holding them are real inputs, so they must keep
    // decoding within the bound.
    let buffers = lattice_stream();
    let read = |name: &str| {
        let bytes = std::fs::read(golden_path(name)).expect("decode-only fixture");
        assert!(block_infos(&bytes).iter().all(|info| !info.stored), "{name}");
        bytes
    };
    check_decodes(&read("adp_lattice_lz77_only"), &buffers, 1e-3);
    check_decodes(&read("adp_lattice_f32_lz77_only"), &buffers, 1e-3);
}

#[test]
fn golden_vq_lattice_f32() {
    let buffers = lattice_stream();
    let bytes = stream_bytes_f32(cfg(Method::Vq), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vq_lattice_f32", &bytes);
}

#[test]
fn golden_adaptive_lattice_f32() {
    let buffers = lattice_stream();
    let bytes = stream_bytes_f32(cfg(Method::Adaptive), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    assert!(block_infos(&bytes).iter().all(|info| info.stored && info.source_f32));
    check_golden("adp_lattice_f32", &bytes);
}

#[test]
fn golden_vqt_bit_adaptive() {
    // Forced bit-adaptive quantizer: every block is version 2 and carries
    // the per-region width table.
    let buffers = smooth_stream();
    let bytes = stream_bytes(
        cfg(Method::Vqt).with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 }),
        &buffers,
    );
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vqt_smooth_bit_adaptive", &bytes);
}

#[test]
fn golden_adaptive_bit_adaptive_candidates() {
    // Adaptive trial over the (method × quantizer) product space on the
    // mixed-scale stream: the winner must include the bit-adaptive stage,
    // pinning the enlarged candidate ordering byte for byte.
    let buffers = spread_stream();
    let config = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_bit_adaptive_candidates(true);
    let bytes = stream_bytes(config, &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    // At least one emitted block actually uses the version-2 format.
    let ba_blocks = block_infos(&bytes).iter().filter(|info| info.bit_adaptive).count();
    assert!(ba_blocks > 0, "bit-adaptive candidate never won on the mixed-scale stream");
    check_golden("adp_spread_bit_adaptive", &bytes);
}

#[test]
fn golden_vq_range_coded() {
    // VQ under range coding: the only fixture with a non-empty J (level
    // index) stream through the range coder.
    let buffers = lattice_stream();
    let bytes = stream_bytes(cfg(Method::Vq).with_entropy(EntropyStage::Range), &buffers);
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vq_lattice_range", &bytes);
}

#[test]
fn golden_vq_bit_adaptive() {
    // A bit-packed B stream beside a Huffman-coded J stream.
    let buffers = lattice_stream();
    let bytes = stream_bytes(
        cfg(Method::Vq).with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 }),
        &buffers,
    );
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vq_lattice_bit_adaptive", &bytes);
}

#[test]
fn golden_vq_range_coded_bit_adaptive() {
    // A bit-packed B stream beside a range-coded J stream.
    let buffers = lattice_stream();
    let bytes = stream_bytes(
        cfg(Method::Vq)
            .with_entropy(EntropyStage::Range)
            .with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 }),
        &buffers,
    );
    check_decodes(&bytes, &buffers, 1e-3);
    check_golden("vq_lattice_range_bit_adaptive", &bytes);
}

#[test]
fn golden_vqt_no_seq2_relative_bound() {
    // Value-range-relative bound resolves to a per-buffer absolute eps; the
    // resolved value is part of the header and must stay stable too.
    let buffers = lattice_stream();
    let cfg = MdzConfig::new(ErrorBound::ValueRangeRelative(1e-4))
        .with_method(Method::Vqt)
        .with_seq2(false);
    let bytes = stream_bytes(cfg, &buffers);
    check_golden("vqt_lattice_noseq2_rel", &bytes);
}
