//! Cross-crate integration tests: simulated datasets through the full MDZ
//! pipeline and every baseline, with bound verification and physics checks.

use mdz::analysis::rdf::{rdf, rdf_distance, RdfConfig};
use mdz::analysis::ErrorStats;
use mdz::core::Codec;
use mdz::core::{Compressor, Decompressor, ErrorBound, Frame, MdzConfig, Method};
use mdz::sim::{datasets, DatasetKind, Scale};
use mdz::store::{write_store, StoreOptions, StoreReader};

fn axis_eps(series: &[Vec<f64>], rel: f64) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for s in series {
        for &v in s {
            min = min.min(v);
            max = max.max(v);
        }
    }
    rel * (max - min)
}

#[test]
fn every_dataset_round_trips_with_every_mdz_method() {
    for kind in DatasetKind::MD {
        let d = datasets::generate(kind, Scale::Test, 1);
        for method in [Method::Vq, Method::Vqt, Method::Mt, Method::Adaptive] {
            for axis in 0..3 {
                let series = d.axis_series(axis);
                let eps = axis_eps(&series, 1e-3);
                let cfg = MdzConfig::new(ErrorBound::Absolute(eps)).with_method(method);
                let mut c = Compressor::new(cfg);
                let mut dec = Decompressor::new();
                for chunk in series.chunks(4) {
                    let blob = c.compress_buffer(chunk).unwrap();
                    let out = dec.decompress_block(&blob).unwrap();
                    for (s, o) in chunk.iter().zip(out.iter()) {
                        for (a, b) in s.iter().zip(o.iter()) {
                            assert!(
                                (a - b).abs() <= eps * (1.0 + 1e-9),
                                "{} {method:?} axis {axis}: |{a}-{b}| > {eps}",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_dataset_round_trips_with_every_baseline() {
    for kind in [DatasetKind::CopperB, DatasetKind::Adk, DatasetKind::Lj] {
        let d = datasets::generate(kind, Scale::Test, 2);
        let series = d.axis_series(0);
        let eps = axis_eps(&series, 1e-3);
        for codec in mdz::baselines::all_baselines().iter_mut() {
            for chunk in series.chunks(4) {
                let blob = codec.compress_buffer(chunk, ErrorBound::Absolute(eps)).unwrap();
                let out = codec.decompress_buffer(&blob).unwrap();
                for (s, o) in chunk.iter().zip(out.iter()) {
                    for (a, b) in s.iter().zip(o.iter()) {
                        assert!(
                            (a - b).abs() <= eps * (1.0 + 1e-9),
                            "{} {}: |{a}-{b}| > {eps}",
                            kind.name(),
                            codec.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn trajectory_container_streams_frames() {
    let d = datasets::generate(DatasetKind::HeliumB, Scale::Test, 3);
    let frames: Vec<Frame> =
        d.snapshots.iter().map(|s| Frame::new(s.x.clone(), s.y.clone(), s.z.clone())).collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)));
    opts.buffer_size = 4;
    let reader = StoreReader::open(write_store(&frames, &[], &[], &opts).unwrap()).unwrap();
    for (b, chunk) in frames.chunks(4).enumerate() {
        let out = reader.read_frames(b * 4..b * 4 + chunk.len()).unwrap();
        assert_eq!(out.len(), chunk.len());
        for (f, g) in chunk.iter().zip(out.iter()) {
            assert_eq!(f.len(), g.len());
        }
    }
}

#[test]
fn tight_bound_preserves_rdf() {
    let d = datasets::generate(DatasetKind::CopperB, Scale::Test, 4);
    let box_len = d.box_len.unwrap();
    let cfg_rdf = RdfConfig { box_len, r_max: (box_len / 2.0).min(6.0), bins: 32 };
    let s0 = &d.snapshots[0];
    let (_, g_orig) = rdf(&s0.x, &s0.y, &s0.z, &cfg_rdf);

    let mut axes_out: Vec<Vec<f64>> = Vec::new();
    for axis in 0..3 {
        let series = d.axis_series(axis);
        let eps = axis_eps(&series, 1e-4);
        let cfg = MdzConfig::new(ErrorBound::Absolute(eps));
        let mut c = Compressor::new(cfg);
        let blob = c.compress_buffer(&series[..4.min(series.len())]).unwrap();
        let out = Decompressor::new().decompress_block(&blob).unwrap();
        axes_out.push(out[0].clone());
    }
    let (_, g_dec) = rdf(&axes_out[0], &axes_out[1], &axes_out[2], &cfg_rdf);
    let dist = rdf_distance(&g_orig, &g_dec);
    assert!(dist < 0.1, "RDF distorted: {dist}");
}

#[test]
fn mdz_beats_raw_storage_substantially_on_crystals() {
    let d = datasets::generate(DatasetKind::CopperB, Scale::Test, 5);
    let series = d.axis_series(0);
    let eps = axis_eps(&series, 1e-3);
    let cfg = MdzConfig::new(ErrorBound::Absolute(eps));
    let mut c = Compressor::new(cfg);
    let mut total = 0usize;
    for chunk in series.chunks(4) {
        total += c.compress_buffer(chunk).unwrap().len();
    }
    let raw = series.len() * d.atoms() * 8;
    assert!(total * 4 < raw, "expected ≥4x compression on crystalline data: {raw} → {total}");
}

#[test]
fn error_stats_match_bound_after_round_trip() {
    let d = datasets::generate(DatasetKind::Adk, Scale::Test, 6);
    let series = d.axis_series(1);
    let eps = axis_eps(&series, 1e-3);
    let cfg = MdzConfig::new(ErrorBound::Absolute(eps)).with_method(Method::Vqt);
    let mut c = Compressor::new(cfg);
    let blob = c.compress_buffer(&series).unwrap();
    let out = Decompressor::new().decompress_block(&blob).unwrap();
    let flat_o: Vec<f64> = series.iter().flatten().copied().collect();
    let flat_d: Vec<f64> = out.iter().flatten().copied().collect();
    let stats = ErrorStats::compute(&flat_o, &flat_d);
    assert!(stats.max_error <= eps * (1.0 + 1e-9));
    assert!(stats.nrmse <= 1e-3);
    assert!(stats.psnr > 50.0);
}

#[test]
fn decompressors_reject_cross_format_blobs() {
    // Blobs from one format must not decode as another.
    let d = datasets::generate(DatasetKind::HeliumB, Scale::Test, 7);
    let series = d.axis_series(0);
    let eps = axis_eps(&series, 1e-3);
    let cfg = MdzConfig::new(ErrorBound::Absolute(eps));
    let mdz_blob = Compressor::new(cfg).compress_buffer(&series).unwrap();
    for codec in mdz::baselines::all_baselines().iter_mut() {
        assert!(
            codec.decompress_buffer(&mdz_blob).is_err(),
            "{} accepted an MDZ block",
            codec.name()
        );
    }
    let mut sz2 = mdz::baselines::sz2::Sz2::new(mdz::baselines::sz2::Sz2Mode::TwoD);
    let sz2_blob = sz2.compress_buffer(&series, ErrorBound::Absolute(eps)).unwrap();
    assert!(Decompressor::new().decompress_block(&sz2_blob).is_err());
}

#[test]
fn lossless_codecs_are_bit_exact_on_simulation_output() {
    let d = datasets::generate(DatasetKind::Lj, Scale::Test, 8);
    let values: Vec<f64> = d.snapshots[0].x.clone();
    let g = mdz::lossless::gorilla::compress(&values);
    assert_eq!(mdz::lossless::gorilla::decompress(&g).unwrap(), values);
    let f = mdz::lossless::fpc::compress(&values);
    assert_eq!(mdz::lossless::fpc::decompress(&f).unwrap(), values);
    let z = mdz::lossless::fpzip_like::compress(&values);
    assert_eq!(mdz::lossless::fpzip_like::decompress(&z).unwrap(), values);
    let bytes = mdz::lossless::f64s_to_bytes(&values);
    let l = mdz::lossless::lz77::compress(&bytes, mdz::lossless::Level::Default);
    assert_eq!(mdz::lossless::lz77::decompress(&l).unwrap(), bytes);
}

#[test]
fn kmeans_detects_crystal_spacing_from_simulation() {
    let d = datasets::generate(DatasetKind::CopperB, Scale::Test, 9);
    let grid = mdz::kmeans::detect_levels(&d.snapshots[0].x, &mdz::kmeans::SelectConfig::default())
        .expect("copper is level-structured");
    // FCC copper: planes every a/2 = 1.8075 along each axis.
    let expected = 3.615 / 2.0;
    let steps = grid.lambda / expected;
    let near_multiple = (steps - steps.round()).abs() < 0.1 && steps.round() >= 1.0;
    assert!(near_multiple, "λ = {} not commensurate with {expected}", grid.lambda);
}
