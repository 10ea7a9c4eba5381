//! Differential SIMD-vs-scalar byte-identity tests.
//!
//! The scalar pipeline is the semantic oracle: every SIMD kernel behind the
//! runtime dispatch (fused predict/quantize, batched Huffman decode, LZ77
//! match probing) must produce *byte-identical* streams and *bit-identical*
//! reconstructions. These tests compress and decode every stream
//! configuration the golden fixtures pin — all codecs × f32/f64 ×
//! bit-adaptive — once with the auto-detected kernels and once under the
//! forced-scalar override, and compare the results exactly.
//!
//! On hosts without SIMD support both arms run the scalar path and the
//! comparison is trivially true; the dispatch tests in `mdz_entropy::kernel`
//! cover the detection logic itself.

use mdz_core::bound::ErrorBound;
use mdz_core::format::Method;
use mdz_core::kernel;
use mdz_core::{Compressor, Decompressor};
use mdz_core::{EntropyStage, MdzConfig, QuantizerKind};
use std::sync::Mutex;

const N_PARTICLES: usize = 240;
const SNAPSHOTS_PER_BUFFER: usize = 8;
const N_BUFFERS: usize = 3;

/// The force-scalar override is process-global; serialize every test that
/// toggles it so parallel test threads never observe each other's state.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with the scalar-oracle override set to `force`, restoring the
/// previous state afterwards.
fn with_force_scalar<T>(force: bool, f: impl FnOnce() -> T) -> T {
    let prev = kernel::force_scalar();
    kernel::set_force_scalar(force);
    let out = f();
    kernel::set_force_scalar(prev);
    out
}

/// Deterministic LCG in [0, 1) — same generators as `format_stability`, so
/// the streams here cover exactly the configurations the golden fixtures
/// pin.
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

/// Compresses a stream into length-framed blocks (matching the golden
/// fixture framing) with one stateful `Compressor`.
fn encode_stream(cfg: &MdzConfig, buffers: &[Vec<Vec<f64>>], narrow: bool) -> Vec<u8> {
    let mut comp = Compressor::new(cfg.clone());
    let mut out = Vec::new();
    for buf in buffers {
        let block = if narrow {
            let f32s: Vec<Vec<f32>> =
                buf.iter().map(|s| s.iter().map(|&v| v as f32).collect()).collect();
            comp.compress_buffer_f32(&f32s).expect("compress f32")
        } else {
            comp.compress_buffer(buf).expect("compress")
        };
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&block);
    }
    out
}

/// Decodes a length-framed stream to reconstruction bit patterns (f64 bits
/// widened from f32 for narrow blocks, so both widths compare exactly).
fn decode_stream_bits(bytes: &[u8]) -> Vec<Vec<Vec<u64>>> {
    let mut dec = Decompressor::new();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        let block = &bytes[pos..pos + len];
        pos += len;
        let narrow = Decompressor::inspect(block).expect("inspect").source_f32;
        if narrow {
            let snaps = dec.decompress_block_f32(block).expect("decode f32");
            out.push(
                snaps.iter().map(|s| s.iter().map(|&v| u64::from(v.to_bits())).collect()).collect(),
            );
        } else {
            let snaps = dec.decompress_block(block).expect("decode");
            out.push(snaps.iter().map(|s| s.iter().map(|&v| v.to_bits()).collect()).collect());
        }
    }
    assert_eq!(pos, bytes.len());
    out
}

/// One differential arm: (name, config, buffered stream, narrow-f32 source?).
type FixtureArm = (&'static str, MdzConfig, Vec<Vec<Vec<f64>>>, bool);

/// Every (name, config, stream, f32?) arm the golden fixtures pin.
fn fixture_configs() -> Vec<FixtureArm> {
    let abs = |m: Method| MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(m);
    vec![
        ("vq_lattice", abs(Method::Vq), lattice_stream(), false),
        ("vqt_lattice", abs(Method::Vqt), lattice_stream(), false),
        ("mt_lattice", abs(Method::Mt), lattice_stream(), false),
        ("mt2_smooth", abs(Method::Mt2), smooth_stream(), false),
        ("vq_smooth", abs(Method::Vq), smooth_stream(), false),
        (
            "mt_lattice_range",
            abs(Method::Mt).with_entropy(EntropyStage::Range),
            lattice_stream(),
            false,
        ),
        ("adp_lattice", abs(Method::Adaptive), lattice_stream(), false),
        ("vq_lattice_f32", abs(Method::Vq), lattice_stream(), true),
        ("adp_lattice_f32", abs(Method::Adaptive), lattice_stream(), true),
        (
            "vqt_smooth_bit_adaptive",
            abs(Method::Vqt).with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 }),
            smooth_stream(),
            false,
        ),
        (
            "vq_lattice_range",
            abs(Method::Vq).with_entropy(EntropyStage::Range),
            lattice_stream(),
            false,
        ),
        (
            "vq_lattice_bit_adaptive",
            abs(Method::Vq).with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 }),
            lattice_stream(),
            false,
        ),
        (
            "vq_lattice_range_bit_adaptive",
            abs(Method::Vq)
                .with_entropy(EntropyStage::Range)
                .with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 }),
            lattice_stream(),
            false,
        ),
        (
            "adp_spread_bit_adaptive",
            MdzConfig::new(ErrorBound::Absolute(1e-3)).with_bit_adaptive_candidates(true),
            spread_stream(),
            false,
        ),
        (
            "vqt_lattice_noseq2_rel",
            MdzConfig::new(ErrorBound::ValueRangeRelative(1e-4))
                .with_method(Method::Vqt)
                .with_seq2(false),
            lattice_stream(),
            false,
        ),
    ]
}

#[test]
fn simd_and_scalar_encode_byte_identically_on_all_fixture_configs() {
    let _gate = GATE.lock().unwrap();
    for (name, cfg, buffers, narrow) in fixture_configs() {
        let auto = with_force_scalar(false, || encode_stream(&cfg, &buffers, narrow));
        let scalar = with_force_scalar(true, || encode_stream(&cfg, &buffers, narrow));
        assert_eq!(
            auto,
            scalar,
            "{name}: SIMD encode diverged from the scalar oracle \
             (detected backend: {})",
            kernel::detected_level().name()
        );
    }
}

#[test]
fn simd_and_scalar_decode_bit_identically_on_all_fixture_configs() {
    let _gate = GATE.lock().unwrap();
    for (name, cfg, buffers, narrow) in fixture_configs() {
        // One stream, decoded both ways: exercises batched Huffman decode
        // against the one-symbol-at-a-time oracle.
        let bytes = with_force_scalar(true, || encode_stream(&cfg, &buffers, narrow));
        let auto = with_force_scalar(false, || decode_stream_bits(&bytes));
        let scalar = with_force_scalar(true, || decode_stream_bits(&bytes));
        assert_eq!(auto, scalar, "{name}: SIMD decode diverged from the scalar oracle");
    }
}

#[test]
fn golden_fixtures_decode_bit_identically_both_ways() {
    let _gate = GATE.lock().unwrap();
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("golden fixture dir") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "bin") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let auto = with_force_scalar(false, || decode_stream_bits(&bytes));
        let scalar = with_force_scalar(true, || decode_stream_bits(&bytes));
        assert_eq!(auto, scalar, "{path:?}: SIMD decode diverged from the scalar oracle");
        checked += 1;
    }
    assert!(checked >= 15, "expected the full golden fixture set, found {checked}");
}
