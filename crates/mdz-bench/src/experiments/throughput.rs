//! Store throughput per codec at the host's parallelism.
//!
//! Not a paper artifact: the paper reports single-threaded throughput only
//! (Fig. 13). This experiment times the two store paths users run, for the
//! ADP/VQ/VQT/MT codecs on the default dataset: `create_store` (through
//! [`write_store`], into memory), whose writer encodes every independent
//! (epoch, axis) stream on its own core, and `StoreReader::open` plus a
//! full `read_frames`. Next to that it reports the single-core
//! scalar-vs-SIMD per-stage breakdown, and it writes the machine-readable
//! `BENCH_throughput.json` consumed by `scripts/verify.sh` and
//! EXPERIMENTS.md.

use super::Ctx;
use crate::harness::{repeat_timed, TimingSummary};
use crate::json::Json;
use crate::table::{fmt, Table};
use mdz_core::{kernel, Compressor, Decompressor, ErrorBound, Frame, MdzConfig, Method, Obs};
use mdz_obs::Registry;
use mdz_sim::{DatasetKind, Scale};
use mdz_store::{write_store, StoreOptions, StoreReader};
use std::sync::Arc;
use std::time::Instant;

/// The codecs the experiment covers, in report order.
const CODECS: &[(&str, Method)] =
    &[("ADP", Method::Adaptive), ("VQ", Method::Vq), ("VQT", Method::Vqt), ("MT", Method::Mt)];

struct Entry {
    codec: &'static str,
    compress: TimingSummary,
    decompress: TimingSummary,
    ratio: f64,
}

/// The single-core pipeline stages the SIMD kernels land in, paired with
/// the span metric each stage records. The decode entropy stage (batched
/// Huffman) is timed inside `decode.reconstruct`.
const SIMD_STAGES: &[(&str, &str)] = &[
    ("encode.predict_quantize", "core.encode.predict_quantize_seconds"),
    ("encode.entropy", "core.encode.entropy_seconds"),
    ("encode.lossless", "core.encode.lossless_seconds"),
    ("decode.lossless", "core.decode.lossless_seconds"),
    ("decode.reconstruct", "core.decode.reconstruct_seconds"),
];

/// One per-stage row of the breakdown table / JSON.
struct StageRow {
    stage: &'static str,
    scalar_seconds: f64,
    simd_seconds: f64,
}

impl StageRow {
    fn speedup(&self) -> f64 {
        if self.simd_seconds > 0.0 {
            self.scalar_seconds / self.simd_seconds
        } else {
            1.0
        }
    }
}

/// Compresses and decodes the stream once on the plain single-core
/// pipeline with the force-scalar override set to `force`, recording
/// per-stage spans through `obs`. Returns the concatenated blocks and an
/// FNV-1a hash over the reconstruction bit patterns.
fn run_simd_arm(
    force: bool,
    cfg: &MdzConfig,
    buffers: &[Vec<Vec<f64>>],
    obs: &Obs,
) -> (Vec<u8>, u64) {
    kernel::set_force_scalar(force);
    let mut comp = Compressor::new(cfg.clone());
    comp.set_obs(obs.clone());
    let blocks: Vec<Vec<u8>> =
        buffers.iter().map(|buf| comp.compress_buffer(buf).expect("compress")).collect();
    let mut dec = Decompressor::new();
    dec.set_obs(obs.clone());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for block in &blocks {
        for snap in dec.decompress_block(block).expect("decompress") {
            for v in snap {
                hash = (hash ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    (blocks.concat(), hash)
}

/// Runs the auto-dispatched kernels and the scalar oracle over the same
/// stream, repetition by repetition, asserting byte-identical blocks and
/// bit-identical decodes in every repetition before reporting per-stage
/// timings. Each arm sums its spans into its own registry, and the arms
/// alternate which runs first, so a change in host load falls on both
/// alike instead of reading as a speedup.
fn simd_breakdown(buffers: &[Vec<Vec<f64>>], reps: usize) -> Vec<StageRow> {
    let cfg = MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)).with_method(Method::Adaptive);
    let prev = kernel::force_scalar();
    // Indexed by the arm's force-scalar flag: 0 auto-dispatched, 1 scalar.
    let registries = [Arc::new(Registry::new()), Arc::new(Registry::new())];
    for rep in 0..reps {
        let order = if rep % 2 == 0 { [false, true] } else { [true, false] };
        let [first, second] = order.map(|force| {
            run_simd_arm(force, &cfg, buffers, &Obs::new(registries[usize::from(force)].clone()))
        });
        assert_eq!(first.0, second.0, "SIMD encode diverged from the scalar oracle");
        assert_eq!(first.1, second.1, "SIMD decode diverged from the scalar oracle");
    }
    kernel::set_force_scalar(prev);
    let [auto, scalar] = registries.map(|registry| {
        let snap = registry.snapshot();
        SIMD_STAGES
            .iter()
            .map(|&(_, metric)| snap.histogram(metric).map_or(0.0, |h| h.sum))
            .collect::<Vec<f64>>()
    });
    SIMD_STAGES
        .iter()
        .enumerate()
        .map(|(i, &(stage, _))| StageRow {
            stage,
            scalar_seconds: scalar[i],
            simd_seconds: auto[i],
        })
        .collect()
}

/// Per-codec store write and read throughput; writes
/// `BENCH_throughput.json` alongside the usual CSV.
pub fn throughput(ctx: &mut Ctx) -> Vec<Table> {
    let kind = DatasetKind::CopperB;
    let reps = ctx.reps.max(1);

    let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let dataset = ctx.dataset(kind);
    let frames: Vec<Frame> = dataset
        .snapshots
        .iter()
        .map(|s| Frame::new(s.x.clone(), s.y.clone(), s.z.clone()))
        .collect();
    let raw_bytes = dataset.len() * dataset.atoms() * 3 * 8;
    // One axis of the same stream, for the single-core scalar-vs-SIMD
    // breakdown.
    let xs: Vec<Vec<f64>> = dataset.snapshots.iter().map(|s| s.x.clone()).collect();
    let bs = if matches!(ctx.scale, Scale::Test) { 3 } else { 10 };
    let axis_buffers: Vec<Vec<Vec<f64>>> = xs.chunks(bs).map(<[Vec<f64>]>::to_vec).collect();

    // Archives keep the store's default epoch length.
    let store_options = |method| {
        let cfg = MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)).with_method(method);
        StoreOptions { buffer_size: bs, ..StoreOptions::new(cfg) }
    };
    let epoch_buffers = store_options(Method::Adaptive).epoch_interval;
    let mut entries: Vec<Entry> = Vec::new();
    for &(name, method) in CODECS {
        let opts = store_options(method);
        // One reference archive for the ratio and the read input; every
        // repetition must write the same bytes.
        let archive = write_store(&frames, &[], &[], &opts).expect("create_store");
        let compress = repeat_timed(reps, || {
            let t0 = Instant::now();
            let out = write_store(&frames, &[], &[], &opts).expect("create_store");
            let dt = t0.elapsed().as_secs_f64();
            assert!(out == archive, "{name}: create_store wrote different bytes");
            dt
        });
        let decompress = repeat_timed(reps, || {
            let data = archive.clone();
            let t0 = Instant::now();
            let reader = StoreReader::open(data).expect("open");
            let out = reader.read_frames(0..frames.len()).expect("read_frames");
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(out.len(), frames.len());
            dt
        });
        entries.push(Entry {
            codec: name,
            compress,
            decompress,
            ratio: raw_bytes as f64 / archive.len() as f64,
        });
    }

    let stage_rows = simd_breakdown(&axis_buffers, reps);
    write_json(ctx, kind, raw_bytes, bs, epoch_buffers, reps, hw_threads, &entries, &stage_rows);

    let mut table = Table::new(
        &format!(
            "Store throughput ({}, {} reps, min-of-reps, {} hw thread{})",
            kind.name(),
            reps,
            hw_threads,
            if hw_threads == 1 { "" } else { "s" }
        ),
        &["codec", "create MB/s", "read MB/s", "CR", "create s (min)", "create s (median)"],
    );
    for e in &entries {
        table.row(vec![
            e.codec.into(),
            fmt(e.compress.mbps(raw_bytes)),
            fmt(e.decompress.mbps(raw_bytes)),
            fmt(e.ratio),
            fmt(e.compress.min),
            fmt(e.compress.median),
        ]);
    }

    let backend = kernel::detected_level().name();
    let mut simd_table = Table::new(
        &format!(
            "Single-core per-stage breakdown (scalar oracle vs {backend} kernels, ADP, {reps} reps)"
        ),
        &["stage", "scalar s", "simd s", "speedup"],
    );
    for r in &stage_rows {
        simd_table.row(vec![
            r.stage.into(),
            fmt(r.scalar_seconds),
            fmt(r.simd_seconds),
            fmt(r.speedup()),
        ]);
    }
    vec![ctx.emit("throughput", table), ctx.emit("throughput_simd", simd_table)]
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    ctx: &Ctx,
    kind: DatasetKind,
    raw_bytes: usize,
    bs: usize,
    epoch_buffers: usize,
    reps: usize,
    hw_threads: usize,
    entries: &[Entry],
    stage_rows: &[StageRow],
) {
    let timing = |t: &TimingSummary| {
        Json::obj(vec![
            ("min_seconds", Json::Num(t.min)),
            ("median_seconds", Json::Num(t.median)),
            ("mean_seconds", Json::Num(t.mean)),
        ])
    };
    let doc = Json::obj(vec![
        ("experiment", Json::Str("throughput".into())),
        ("scale", Json::Str(format!("{:?}", ctx.scale).to_lowercase())),
        ("dataset", Json::Str(kind.name().into())),
        ("raw_bytes", Json::Num(raw_bytes as f64)),
        ("compress_path", Json::Str("create_store".into())),
        ("decompress_path", Json::Str("StoreReader::open + read_frames(0..n)".into())),
        ("buffer_snapshots", Json::Num(bs as f64)),
        ("epoch_buffers", Json::Num(epoch_buffers as f64)),
        ("reps", Json::Num(reps as f64)),
        // Both paths use every hardware thread, so the figures are only
        // comparable between hosts with the same count.
        ("hardware_threads", Json::Num(hw_threads as f64)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("codec", Json::Str(e.codec.into())),
                            ("compress_mbps", Json::Num(e.compress.mbps(raw_bytes))),
                            ("decompress_mbps", Json::Num(e.decompress.mbps(raw_bytes))),
                            ("ratio", Json::Num(e.ratio)),
                            ("compress_timing", timing(&e.compress)),
                            ("decompress_timing", timing(&e.decompress)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("simd", simd_json(stage_rows)),
    ]);
    let path = ctx.out_dir.join("BENCH_throughput.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The `simd` object of `BENCH_throughput.json`: the detected backend, the
/// per-stage scalar-vs-SIMD seconds, and a caveat when the host exposes no
/// vector features (both arms then ran the scalar kernels and the speedups
/// only measure noise).
fn simd_json(stage_rows: &[StageRow]) -> Json {
    let backend = kernel::detected_level().name();
    let mut fields = vec![
        ("backend", Json::Str(backend.into())),
        ("force_scalar_override", Json::Str("MDZ_FORCE_SCALAR".into())),
    ];
    if backend == "scalar" {
        fields.push((
            "caveat",
            Json::Str(
                "host CPU exposes no supported vector features; both arms ran the scalar kernels"
                    .into(),
            ),
        ));
    }
    fields.push((
        "stages",
        Json::Arr(
            stage_rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("stage", Json::Str(r.stage.into())),
                        ("scalar_seconds", Json::Num(r.scalar_seconds)),
                        ("simd_seconds", Json::Num(r.simd_seconds)),
                        ("speedup", Json::Num(r.speedup())),
                    ])
                })
                .collect(),
        ),
    ));
    Json::obj(fields)
}
