//! Uniform codec harness over MDZ and the baselines.
//!
//! Every compressor under test — MDZ included — is a [`Codec`], so the
//! harness holds `Box<dyn Codec>` values and never special-cases MDZ.

use mdz_baselines::{
    asn::Asn, hrtc::Hrtc, lfzip::Lfzip, mdb::Mdb, sz2::Sz2, sz2::Sz2Mode, sz3::Sz3, tng::Tng,
};
use mdz_core::{Codec, ErrorBound, MdzCodec, MdzConfig, Method};
use mdz_sim::Dataset;
use std::time::Instant;

/// An MDZ codec for a specific method (with the paper's defaults).
pub fn mdz_codec(method: Method) -> MdzCodec {
    mdz_codec_with(method, 512, true)
}

/// An MDZ codec with explicit radius / sequence settings (Figs. 9, Table III).
///
/// The bound in the template configuration is a placeholder — the harness
/// passes the resolved per-axis bound on every [`Codec::compress_buffer`]
/// call.
pub fn mdz_codec_with(method: Method, radius: u32, seq2: bool) -> MdzCodec {
    let name = match method {
        Method::Vq => "VQ",
        Method::Vqt => "VQT",
        Method::Mt => "MT",
        Method::Mt2 => "MT2",
        Method::Adaptive => "MDZ",
    };
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3))
        .with_method(method)
        .with_radius(radius)
        .with_seq2(seq2);
    MdzCodec::with_name(name, cfg)
}

/// MDZ with the extended (MT2-including) adaptive candidate set.
pub fn mdz_extended_codec() -> MdzCodec {
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_extended_candidates(true);
    MdzCodec::with_name("MDZ+", cfg)
}

/// The evaluation's standard line-up: MDZ (ADP) plus the seven baselines.
pub fn standard_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(mdz_codec(Method::Adaptive)),
        Box::new(Sz2::new(Sz2Mode::TwoD)),
        Box::new(Asn::new()),
        Box::new(Tng::new()),
        Box::new(Hrtc::new()),
        Box::new(Mdb::new()),
        Box::new(Lfzip::new()),
        Box::new(Sz3::new()),
    ]
}

/// SZ2 in 1-D mode (Table IV).
pub fn sz2_1d_codec() -> Sz2 {
    Sz2::new(Sz2Mode::OneD)
}

/// Measured outcome of one dataset run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    pub raw_bytes: usize,
    pub compressed_bytes: usize,
    pub compress_seconds: f64,
    pub decompress_seconds: f64,
    pub max_error: f64,
    pub nrmse: f64,
    pub psnr: f64,
}

impl RunMetrics {
    /// Raw over compressed size.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Compression throughput over raw bytes, MB/s.
    pub fn compress_mbps(&self) -> f64 {
        self.raw_bytes as f64 / 1e6 / self.compress_seconds.max(1e-12)
    }

    /// Decompression throughput over raw bytes, MB/s.
    pub fn decompress_mbps(&self) -> f64 {
        self.raw_bytes as f64 / 1e6 / self.decompress_seconds.max(1e-12)
    }

    /// Compressed bits per value.
    pub fn bit_rate(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / (self.raw_bytes as f64 / 8.0)
    }
}

/// Resolves a value-range-relative bound against one axis of a dataset
/// (the SZ convention the paper reports ε under).
pub fn axis_eps(dataset: &Dataset, axis: usize, eps_rel: f64) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for s in &dataset.snapshots {
        for &v in s.axis(axis) {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
    }
    let range = max - min;
    if range > 0.0 && range.is_finite() {
        eps_rel * range
    } else {
        eps_rel
    }
}

/// Runs `codec` over all three axes of `dataset` in buffers of `bs`
/// snapshots, verifying the bound and accumulating metrics.
///
/// Returns the metrics and (optionally, when `keep` is set) the
/// decompressed snapshots for physics-fidelity analysis.
pub fn run_dataset(
    codec: &mut dyn Codec,
    dataset: &Dataset,
    eps_rel: f64,
    bs: usize,
    keep: bool,
) -> (RunMetrics, Option<Vec<mdz_sim::Snapshot>>) {
    assert!(bs > 0);
    let mut metrics = RunMetrics::default();
    let m = dataset.len();
    let n = dataset.atoms();
    let mut restored: Option<Vec<mdz_sim::Snapshot>> = keep
        .then(|| vec![mdz_sim::Snapshot { x: vec![0.0; n], y: vec![0.0; n], z: vec![0.0; n] }; m]);

    let mut sq_sum = 0.0f64;
    let mut count = 0usize;
    let mut range_min = f64::INFINITY;
    let mut range_max = f64::NEG_INFINITY;

    for axis in 0..3 {
        codec.reset();
        let eps = axis_eps(dataset, axis, eps_rel);
        let series = dataset.axis_series(axis);
        metrics.raw_bytes += m * n * 8;
        let mut start = 0;
        while start < m {
            let end = (start + bs).min(m);
            let buf = &series[start..end];
            let t0 = Instant::now();
            let blob = codec.compress_buffer(buf, ErrorBound::Absolute(eps)).expect("compress");
            metrics.compress_seconds += t0.elapsed().as_secs_f64();
            metrics.compressed_bytes += blob.len();
            let t1 = Instant::now();
            let out = codec.decompress_buffer(&blob).expect("round trip");
            metrics.decompress_seconds += t1.elapsed().as_secs_f64();
            for (t, (orig, got)) in buf.iter().zip(out.iter()).enumerate() {
                for (i, (&a, &b)) in orig.iter().zip(got.iter()).enumerate() {
                    let e = (a - b).abs();
                    assert!(
                        e <= eps * (1.0 + 1e-9) || !a.is_finite(),
                        "{}: bound violated on {} axis {axis}: |{a} - {b}| > {eps}",
                        codec.name(),
                        dataset.kind.name(),
                    );
                    if e > metrics.max_error {
                        metrics.max_error = e;
                    }
                    sq_sum += (a - b) * (a - b);
                    count += 1;
                    if a < range_min {
                        range_min = a;
                    }
                    if a > range_max {
                        range_max = a;
                    }
                    if let Some(rs) = restored.as_mut() {
                        match axis {
                            0 => rs[start + t].x[i] = b,
                            1 => rs[start + t].y[i] = b,
                            _ => rs[start + t].z[i] = b,
                        }
                    }
                }
            }
            start = end;
        }
    }
    let rmse = (sq_sum / count.max(1) as f64).sqrt();
    let range = (range_max - range_min).max(f64::MIN_POSITIVE);
    metrics.nrmse = rmse / range;
    metrics.psnr = if metrics.nrmse > 0.0 { -20.0 * metrics.nrmse.log10() } else { f64::INFINITY };
    (metrics, restored)
}

/// Binary-searches the relative bound that puts `codec` at compression
/// ratio ≈ `target` on `dataset` (used by the paper's CR=10 comparisons).
pub fn eps_for_ratio(codec: &mut dyn Codec, dataset: &Dataset, bs: usize, target: f64) -> f64 {
    let mut lo = 1e-8f64.ln();
    let mut hi = 0.3f64.ln();
    for _ in 0..14 {
        let mid = 0.5 * (lo + hi);
        let (m, _) = run_dataset(codec, dataset, mid.exp(), bs, false);
        if m.ratio() < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdz_sim::{datasets, DatasetKind, Scale};

    #[test]
    fn all_codecs_run_a_dataset() {
        let d = datasets::generate(DatasetKind::CopperB, Scale::Test, 1);
        for mut codec in standard_codecs() {
            let (m, _) = run_dataset(&mut codec, &d, 1e-3, 4, false);
            assert!(m.ratio() > 1.0, "{}: ratio {}", codec.name(), m.ratio());
            assert!(m.max_error > 0.0 || m.ratio() > 100.0);
        }
    }

    #[test]
    fn keep_returns_full_reconstruction() {
        let d = datasets::generate(DatasetKind::Adk, Scale::Test, 2);
        let mut codec = mdz_codec(Method::Adaptive);
        let (_, restored) = run_dataset(&mut codec, &d, 1e-3, 4, true);
        let rs = restored.unwrap();
        assert_eq!(rs.len(), d.len());
        assert_eq!(rs[0].len(), d.atoms());
        // Spot-check the bound on y-axis.
        let eps = axis_eps(&d, 1, 1e-3);
        for (o, r) in d.snapshots.iter().zip(rs.iter()) {
            for (&a, &b) in o.y.iter().zip(r.y.iter()) {
                assert!((a - b).abs() <= eps * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn eps_for_ratio_converges() {
        let d = datasets::generate(DatasetKind::CopperB, Scale::Test, 3);
        let mut codec = mdz_codec(Method::Vq);
        let eps = eps_for_ratio(&mut codec, &d, 4, 8.0);
        let (m, _) = run_dataset(&mut codec, &d, eps, 4, false);
        assert!((m.ratio() - 8.0).abs() < 4.0, "ratio {}", m.ratio());
    }

    #[test]
    fn metrics_arithmetic() {
        let m = RunMetrics {
            raw_bytes: 8_000_000,
            compressed_bytes: 1_000_000,
            compress_seconds: 1.0,
            decompress_seconds: 0.5,
            ..Default::default()
        };
        assert_eq!(m.ratio(), 8.0);
        assert_eq!(m.compress_mbps(), 8.0);
        assert_eq!(m.decompress_mbps(), 16.0);
        assert_eq!(m.bit_rate(), 8.0);
    }
}
