//! Cross-cutting determinism guarantees for the parallel block engine.
//!
//! The contract under test: for every codec, every precision, and every
//! worker count, the parallel entry points emit streams **byte-identical**
//! to the serial loop — parallelism is an encoder implementation detail,
//! never a format variable. The corruption test additionally pins the
//! error behaviour to the serial path's, replaying a hostile input from the
//! repository `corpus/`.

use std::path::{Path, PathBuf};

use mdz_core::traj::TrajectoryDecompressor;
use mdz_core::{
    Compressor, ErrorBound, MdzConfig, Method, ParallelOptions, ParallelTrajectoryDecompressor,
};

const METHODS: &[(&str, Method)] =
    &[("ADP", Method::Adaptive), ("VQ", Method::Vq), ("VQT", Method::Vqt), ("MT", Method::Mt)];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("corpus")
}

fn corpus_seed(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "corpus seed {} unreadable ({e}); regenerate with \
             MDZ_BLESS_CORPUS=1 cargo test -p mdz-fuzz --test corpus_regressions",
            path.display()
        )
    })
}

/// Deterministic lattice-plus-noise snapshots, distinct per buffer index.
fn snapshots(buffer: usize, m: usize, n: usize) -> Vec<Vec<f64>> {
    let mut s = 0x5eed ^ (buffer as u64).wrapping_mul(0x9e3779b97f4a7c15);
    (0..m)
        .map(|t| {
            (0..n)
                .map(|i| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    (i % 11) as f64 * 2.5 + u * 0.02 + (t + buffer) as f64 * 1e-4
                })
                .collect()
        })
        .collect()
}

/// A config with a short adaptive interval so an 8-buffer batch crosses
/// several trial boundaries (the hard case for deferral bookkeeping).
fn config(method: Method) -> MdzConfig {
    let mut cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method);
    cfg.adapt_interval = 2;
    cfg
}

#[test]
fn workers_4_byte_identical_to_serial_f64() {
    for &(name, method) in METHODS {
        let buffers: Vec<Vec<Vec<f64>>> = (0..8).map(|k| snapshots(k, 5, 160)).collect();
        let refs: Vec<&[Vec<f64>]> = buffers.iter().map(Vec::as_slice).collect();

        let mut serial = Compressor::new(config(method));
        let expected: Vec<Vec<u8>> =
            refs.iter().map(|b| serial.compress_buffer(b).unwrap()).collect();

        let mut par = Compressor::new(config(method));
        let got = par.compress_buffers_parallel(&refs, &ParallelOptions::with_workers(4)).unwrap();
        assert_eq!(got, expected, "{name}: parallel f64 stream diverged from serial");
    }
}

#[test]
fn workers_4_byte_identical_to_serial_f32() {
    for &(name, method) in METHODS {
        let buffers: Vec<Vec<Vec<f32>>> = (0..8)
            .map(|k| {
                snapshots(k, 5, 160)
                    .into_iter()
                    .map(|s| s.into_iter().map(|v| v as f32).collect())
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f32>]> = buffers.iter().map(Vec::as_slice).collect();

        let mut serial = Compressor::new(config(method));
        let expected: Vec<Vec<u8>> =
            refs.iter().map(|b| serial.compress_buffer_f32(b).unwrap()).collect();

        let mut par = Compressor::new(config(method));
        let got =
            par.compress_buffers_f32_parallel(&refs, &ParallelOptions::with_workers(4)).unwrap();
        assert_eq!(got, expected, "{name}: parallel f32 stream diverged from serial");
    }
}

/// A hostile container from the corpus must be rejected by the parallel
/// batch decoder exactly like the serial decoder — typed error, no panic.
#[test]
fn parallel_decode_rejects_corpus_container_like_serial() {
    let hostile = corpus_seed("traj_truncated_axis.bin");

    let serial = TrajectoryDecompressor::new().decompress_buffer(&hostile);
    assert!(serial.is_err(), "corpus container unexpectedly decoded serially");

    let mut dec =
        ParallelTrajectoryDecompressor::new().with_parallelism(ParallelOptions::with_workers(4));
    let parallel = dec.decompress_buffers(&[hostile.as_slice()]);
    assert!(parallel.is_err(), "parallel decoder accepted a container the serial path rejects");
}
