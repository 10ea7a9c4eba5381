//! Random-access read latency on the indexed store.
//!
//! Not a paper artifact: the paper's pipeline is stream-only. This
//! experiment quantifies what the `mdz-store` epoch index buys — the
//! latency of reading one buffer's frames at a random position through
//! `StoreReader` (cold cache, so every probe decodes its epoch) versus
//! decoding the whole archive sequentially, swept over epoch intervals.
//! Per-request percentiles (p50/p99) come from [`TimingSummary`]; the
//! machine-readable `BENCH_latency.json` is schema-checked by
//! `tests/latency_json.rs` and `scripts/verify.sh`.

use super::Ctx;
use crate::harness::{repeat_timed, TimingSummary};
use crate::json::Json;
use crate::table::{fmt, Table};
use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_sim::{DatasetKind, Scale};
use mdz_store::{write_store, ReaderOptions, StoreOptions, StoreReader};
use std::time::Instant;

/// Epoch intervals (buffers per epoch) the sweep covers.
const INTERVALS: &[usize] = &[1, 4, 16];

struct Entry {
    epoch_interval: usize,
    archive_bytes: usize,
    n_epochs: usize,
    probe: TimingSummary,
    sequential: TimingSummary,
    buffers_per_probe: f64,
}

/// Epoch-interval sweep of random-access vs sequential read latency;
/// writes `BENCH_latency.json` alongside the usual CSV.
pub fn latency(ctx: &mut Ctx) -> Vec<Table> {
    let kind = DatasetKind::CopperB;
    let reps = ctx.reps.max(1);
    let dataset = ctx.dataset(kind);
    let frames: Vec<Frame> = dataset
        .snapshots
        .iter()
        .map(|s| Frame::new(s.x.clone(), s.y.clone(), s.z.clone()))
        .collect();
    let n_frames = frames.len();
    let raw_bytes = n_frames * dataset.atoms() * 3 * 8;
    let bs = if matches!(ctx.scale, Scale::Test) { 2 } else { 10 };
    // Enough probes for the p99 rank to sit off the maximum at full scale.
    let n_probes = if matches!(ctx.scale, Scale::Test) { 8 } else { 64 };

    let mut entries: Vec<Entry> = Vec::new();
    for &k in INTERVALS {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)));
        opts.buffer_size = bs;
        opts.epoch_interval = k;
        let archive = write_store(&frames, &[], &[], &opts).expect("write store");
        let archive_bytes = archive.len();

        // Probe latency: one buffer-sized read per request at positions
        // spread deterministically over the archive. cache_epochs = 1 keeps
        // each probe cold (the request must decode its epoch's anchor and
        // its own buffer) unless earlier probes left those buffers cached.
        let reader = StoreReader::with_options(
            archive.clone(),
            ReaderOptions { cache_epochs: 1, ..Default::default() },
        )
        .expect("open store");
        let n_buffers = n_frames.div_ceil(bs);
        let mut samples = Vec::with_capacity(n_probes * reps);
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (k as u64);
        for _ in 0..n_probes * reps {
            // xorshift so probe order is deterministic but unclustered.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let b = (state % n_buffers as u64) as usize;
            let start = b * bs;
            let end = (start + bs).min(n_frames);
            let t0 = Instant::now();
            let got = reader.read_frames(start..end).expect("probe read");
            samples.push(t0.elapsed().as_secs_f64());
            assert_eq!(got.len(), end - start);
        }
        let probe = TimingSummary::from_samples(&samples);
        let buffers_per_probe = reader.stats().buffers_decoded as f64 / (n_probes * reps) as f64;

        // Sequential baseline: decode the whole archive front to back with
        // a fresh reader each repetition (nothing cached).
        let sequential = repeat_timed(reps, || {
            let seq_reader = StoreReader::open(archive.clone()).expect("open store");
            let t0 = Instant::now();
            let all = seq_reader.read_frames(0..n_frames).expect("sequential read");
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(all.len(), n_frames);
            dt
        });

        entries.push(Entry {
            epoch_interval: k,
            archive_bytes,
            n_epochs: n_buffers.div_ceil(k),
            probe,
            sequential,
            buffers_per_probe,
        });
    }

    write_json(ctx, kind, raw_bytes, n_frames, bs, n_probes, reps, &entries);

    let mut table = Table::new(
        &format!(
            "Random-access read latency ({}, {} probes × {} reps, buffer = {} frames)",
            kind.name(),
            n_probes,
            reps,
            bs
        ),
        &[
            "epoch interval",
            "epochs",
            "archive bytes",
            "probe p50 s",
            "probe p99 s",
            "seq median s",
            "speedup (seq/p50)",
            "buffers/probe",
        ],
    );
    for e in &entries {
        table.row(vec![
            e.epoch_interval.to_string(),
            e.n_epochs.to_string(),
            e.archive_bytes.to_string(),
            fmt(e.probe.p50),
            fmt(e.probe.p99),
            fmt(e.sequential.median),
            fmt(e.sequential.median / e.probe.p50.max(1e-12)),
            fmt(e.buffers_per_probe),
        ]);
    }
    vec![ctx.emit("latency", table)]
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    ctx: &Ctx,
    kind: DatasetKind,
    raw_bytes: usize,
    n_frames: usize,
    bs: usize,
    n_probes: usize,
    reps: usize,
    entries: &[Entry],
) {
    let timing = |t: &TimingSummary| {
        Json::obj(vec![
            ("min_seconds", Json::Num(t.min)),
            ("median_seconds", Json::Num(t.median)),
            ("mean_seconds", Json::Num(t.mean)),
            ("p50_seconds", Json::Num(t.p50)),
            ("p99_seconds", Json::Num(t.p99)),
            ("samples", Json::Num(t.reps as f64)),
        ])
    };
    let doc = Json::obj(vec![
        ("experiment", Json::Str("latency".into())),
        ("scale", Json::Str(format!("{:?}", ctx.scale).to_lowercase())),
        ("dataset", Json::Str(kind.name().into())),
        ("raw_bytes", Json::Num(raw_bytes as f64)),
        ("n_frames", Json::Num(n_frames as f64)),
        ("buffer_frames", Json::Num(bs as f64)),
        ("probes", Json::Num(n_probes as f64)),
        ("reps", Json::Num(reps as f64)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("epoch_interval", Json::Num(e.epoch_interval as f64)),
                            ("n_epochs", Json::Num(e.n_epochs as f64)),
                            ("archive_bytes", Json::Num(e.archive_bytes as f64)),
                            (
                                "speedup_vs_sequential",
                                Json::Num(e.sequential.median / e.probe.p50.max(1e-12)),
                            ),
                            ("buffers_per_probe", Json::Num(e.buffers_per_probe)),
                            ("probe_timing", timing(&e.probe)),
                            ("sequential_timing", timing(&e.sequential)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = ctx.out_dir.join("BENCH_latency.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
