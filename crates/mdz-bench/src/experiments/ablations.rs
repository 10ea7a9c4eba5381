//! Ablation studies beyond the paper's figures: each table isolates one
//! design decision DESIGN.md calls out.

use super::Ctx;
use crate::harness::{axis_eps, mdz_codec, run_dataset};
use crate::table::{fmt, Table};
use mdz_core::quant::Quantized;
use mdz_core::{Compressor, EntropyStage, ErrorBound, LinearQuantizer, MdzConfig, Method};
use mdz_entropy::{huffman_encode, range_encode};
use mdz_lossless::lz77;
use mdz_sim::DatasetKind;
use std::time::Instant;

/// Runs every ablation.
pub fn ablations(ctx: &mut Ctx) -> Vec<Table> {
    vec![
        adapt_interval(ctx),
        entropy_stage(ctx),
        pipeline_stages(ctx),
        second_order(ctx),
        grid_reuse(ctx),
        velocity_prediction(ctx),
        velocity_compressibility(ctx),
    ]
}

/// Why trajectory compressors target positions (§III): velocities thermalize
/// every few steps, so under the same relative bound they compress far worse
/// than positions.
fn velocity_compressibility(ctx: &mut Ctx) -> Table {
    use mdz_sim::{LjSimulation, SimConfig};
    let mut t = Table::new(
        "Ablation — position vs velocity compressibility (LJ, eps 1e-3, BS 10)",
        &["stream", "value range", "CR"],
    );
    let n = if ctx.scale == mdz_sim::Scale::Test { 200 } else { 2000 };
    let mut sim =
        LjSimulation::new(SimConfig { n_target: n, seed: ctx.seed, ..Default::default() });
    sim.run(200);
    let mut pos: Vec<Vec<f64>> = Vec::new();
    let mut vel: Vec<Vec<f64>> = Vec::new();
    for _ in 0..30 {
        pos.push(sim.positions().iter().map(|p| p.x).collect());
        vel.push(sim.velocities().iter().map(|v| v.x).collect());
        sim.run(5);
    }
    for (name, series) in [("positions (x)", &pos), ("velocities (vx)", &vel)] {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in series.iter() {
            for &v in s {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let eps = 1e-3 * (hi - lo);
        let cfg = MdzConfig::new(ErrorBound::Absolute(eps));
        let mut c = Compressor::new(cfg);
        let mut total = 0usize;
        for chunk in series.chunks(10) {
            total += c.compress_buffer(chunk).expect("compress").len();
        }
        // Use the actual particle count: the engine rounds n_target up to
        // whole FCC cells.
        let raw = series.len() * series[0].len() * 8;
        t.row(vec![name.into(), fmt(hi - lo), fmt(raw as f64 / total as f64)]);
    }
    ctx.emit("ablation_velocity_compressibility", t)
}

/// Tests the paper's §I claim 3: MD velocities predict future positions
/// only for a fraction of a vibrational period, so (unlike the cosmology
/// case of ASN's original setting) ballistic extrapolation does not help at
/// realistic dump intervals.
fn velocity_prediction(ctx: &mut Ctx) -> Table {
    use mdz_sim::{LjSimulation, SimConfig};
    let mut t = Table::new(
        "Ablation — ballistic (x + v·Δt) vs previous-position prediction (LJ liquid)",
        &["dump interval (steps)", "mean |err| prev-pos", "mean |err| ballistic", "ballistic wins"],
    );
    let n = if ctx.scale == mdz_sim::Scale::Test { 200 } else { 1000 };
    for interval in [1usize, 5, 20, 100, 400] {
        let mut sim =
            LjSimulation::new(SimConfig { n_target: n, seed: ctx.seed, ..Default::default() });
        sim.run(200); // melt
        let p0: Vec<_> = sim.positions().to_vec();
        let v0: Vec<_> = sim.velocities().to_vec();
        let dt = sim.dt();
        sim.run(interval);
        let p1 = sim.positions();
        let box_len = sim.box_len;
        let mut err_prev = 0.0;
        let mut err_ball = 0.0;
        for i in 0..p1.len() {
            let d_prev = (p1[i] - p0[i]).min_image(box_len);
            let ball = p0[i] + v0[i] * (interval as f64 * dt);
            let d_ball = (p1[i] - ball.wrap(box_len)).min_image(box_len);
            err_prev += d_prev.norm();
            err_ball += d_ball.norm();
        }
        err_prev /= p1.len() as f64;
        err_ball /= p1.len() as f64;
        t.row(vec![
            interval.to_string(),
            fmt(err_prev),
            fmt(err_ball),
            if err_ball < err_prev { "yes" } else { "no" }.into(),
        ]);
    }
    ctx.emit("ablation_velocity_prediction", t)
}

/// How often should ADP re-evaluate? (The paper fixes 50.)
fn adapt_interval(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Ablation — ADP re-evaluation interval (Copper-B, BS 10)",
        &["interval", "ratio", "comp MB/s"],
    );
    let d = ctx.dataset(DatasetKind::CopperB).clone();
    let eps = axis_eps(&d, 0, 1e-3);
    let series = d.axis_series(0);
    for interval in [1u32, 5, 10, 50, 200] {
        let mut cfg = MdzConfig::new(ErrorBound::Absolute(eps));
        cfg.adapt_interval = interval;
        let mut c = Compressor::new(cfg);
        let mut total = 0usize;
        let t0 = Instant::now();
        for chunk in series.chunks(10) {
            total += c.compress_buffer(chunk).expect("compress").len();
        }
        let secs = t0.elapsed().as_secs_f64();
        let raw = series.len() * d.atoms() * 8;
        t.row(vec![
            interval.to_string(),
            fmt(raw as f64 / total as f64),
            fmt(raw as f64 / 1e6 / secs),
        ]);
    }
    ctx.emit("ablation_adapt_interval", t)
}

/// Huffman vs range coding as the entropy stage.
fn entropy_stage(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Ablation — entropy stage (eps 1e-3, BS 10, method ADP)",
        &["dataset", "stage", "ratio", "comp MB/s"],
    );
    for kind in [DatasetKind::CopperB, DatasetKind::HeliumB, DatasetKind::Lj] {
        let d = ctx.dataset(kind).clone();
        for (name, stage) in [("Huffman", EntropyStage::Huffman), ("Range", EntropyStage::Range)] {
            let eps = axis_eps(&d, 0, 1e-3);
            let series = d.axis_series(0);
            let cfg = MdzConfig::new(ErrorBound::Absolute(eps)).with_entropy(stage);
            let mut c = Compressor::new(cfg);
            let mut total = 0usize;
            let t0 = Instant::now();
            for chunk in series.chunks(10) {
                total += c.compress_buffer(chunk).expect("compress").len();
            }
            let secs = t0.elapsed().as_secs_f64();
            let raw = series.len() * d.atoms() * 8;
            t.row(vec![
                kind.name().into(),
                name.into(),
                fmt(raw as f64 / total as f64),
                fmt(raw as f64 / 1e6 / secs),
            ]);
        }
    }
    ctx.emit("ablation_entropy_stage", t)
}

/// Contribution of each pipeline stage on a real quantization-code stream.
fn pipeline_stages(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Ablation — pipeline stage contribution (Helium-B codes, Seq-2)",
        &["representation", "bytes", "ratio vs raw codes"],
    );
    // Build the actual VQT-style code stream: time prediction + quantization
    // over the x axis, Seq-2 interleaved.
    let d = ctx.dataset(DatasetKind::HeliumB).clone();
    let eps = axis_eps(&d, 0, 1e-3);
    let series = d.axis_series(0);
    let quant = LinearQuantizer::new(eps, 512);
    let m = series.len();
    let n = d.atoms();
    let mut codes = vec![0u32; m * n];
    let mut prev = vec![0.0f64; n];
    for (s_idx, snap) in series.iter().enumerate() {
        for (i, &v) in snap.iter().enumerate() {
            let pred = if s_idx == 0 {
                if i == 0 {
                    0.0
                } else {
                    prev[i - 1]
                }
            } else {
                prev[i]
            };
            let mut recon = v;
            let code = match quant.quantize(v, pred, &mut recon) {
                Quantized::Code(c) => c,
                Quantized::Escape => 0,
            };
            // Seq-2 layout: particle-major.
            codes[i * m + s_idx] = code;
            prev[i] = recon;
        }
    }
    let raw = codes.len() * 4;
    let mut raw_bytes = Vec::with_capacity(raw);
    for &c in &codes {
        raw_bytes.extend_from_slice(&c.to_le_bytes());
    }
    let huff = huffman_encode(&codes);
    let range = range_encode(&codes);
    let rows: Vec<(&str, usize)> = vec![
        ("raw u32 codes", raw),
        ("LZ only", lz77::compress(&raw_bytes, lz77::Level::Default).len()),
        ("Huffman only", huff.len()),
        ("Huffman + LZ", lz77::compress(&huff, lz77::Level::Default).len()),
        ("Range only", range.len()),
        ("Range + LZ", lz77::compress(&range, lz77::Level::Default).len()),
    ];
    for (name, bytes) in rows {
        t.row(vec![name.into(), bytes.to_string(), fmt(raw as f64 / bytes as f64)]);
    }
    ctx.emit("ablation_pipeline_stages", t)
}

/// Second-order (MT2) vs first-order (MT) time prediction; the extension
/// pays off on coherently drifting particles (cosmology), not on vibrating
/// crystals.
fn second_order(ctx: &mut Ctx) -> Table {
    let mut t =
        Table::new("Ablation — MT vs MT2 (BS 10)", &["dataset", "eps", "MT", "MT2", "MT2 gain %"]);
    // At a loose bound, per-snapshot displacement quantizes to zero and
    // first-order prediction is already free; the second order pays off
    // once the bound is tight relative to the coherent drift.
    for kind in [DatasetKind::Hacc1, DatasetKind::Hacc2, DatasetKind::CopperA, DatasetKind::Lj] {
        let d = ctx.dataset(kind).clone();
        for eps_rel in [1e-3, 1e-5] {
            let mut mt = mdz_codec(Method::Mt);
            let mut mt2 = mdz_codec(Method::Mt2);
            let (a, _) = run_dataset(&mut mt, &d, eps_rel, 10, false);
            let (b, _) = run_dataset(&mut mt2, &d, eps_rel, 10, false);
            t.row(vec![
                kind.name().into(),
                format!("{eps_rel:.0e}"),
                fmt(a.ratio()),
                fmt(b.ratio()),
                fmt((b.ratio() / a.ratio() - 1.0) * 100.0),
            ]);
        }
    }
    ctx.emit("ablation_second_order", t)
}

/// Detect the level grid once per stream (the paper's choice) vs re-detect
/// per buffer: same ratio, meaningful speed difference.
fn grid_reuse(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Ablation — level-grid reuse (Copper-B, VQ, BS 10)",
        &["strategy", "ratio", "comp MB/s"],
    );
    let d = ctx.dataset(DatasetKind::CopperB).clone();
    let eps = axis_eps(&d, 0, 1e-3);
    let series = d.axis_series(0);
    let raw = series.len() * d.atoms() * 8;
    // Reuse: one stateful compressor (grid detected once).
    {
        let cfg = MdzConfig::new(ErrorBound::Absolute(eps)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        let mut total = 0usize;
        let t0 = Instant::now();
        for chunk in series.chunks(10) {
            total += c.compress_buffer(chunk).expect("compress").len();
        }
        let secs = t0.elapsed().as_secs_f64();
        t.row(vec![
            "detect once (paper)".into(),
            fmt(raw as f64 / total as f64),
            fmt(raw as f64 / 1e6 / secs),
        ]);
    }
    // Redetect: a fresh compressor per buffer.
    {
        let mut total = 0usize;
        let t0 = Instant::now();
        for chunk in series.chunks(10) {
            let cfg = MdzConfig::new(ErrorBound::Absolute(eps)).with_method(Method::Vq);
            total += Compressor::new(cfg).compress_buffer(chunk).expect("compress").len();
        }
        let secs = t0.elapsed().as_secs_f64();
        t.row(vec![
            "re-detect per buffer".into(),
            fmt(raw as f64 / total as f64),
            fmt(raw as f64 / 1e6 / secs),
        ]);
    }
    ctx.emit("ablation_grid_reuse", t)
}
