//! Seeded property tests over the codec, k-means and simulation crates.
//!
//! Each property draws a fixed number of cases from `mdz_fuzz::Rng`
//! (xoshiro256++), case `i` seeded with `i`, so a failure replays from the
//! case index the panic names. Decode-robustness properties the fuzz
//! campaigns already cover (`tests/fuzz_campaigns.rs`: MDZ blocks, Huffman
//! and LZ77 streams under mutation) are not repeated here.

use mdz_baselines::all_baselines;
use mdz_core::{Compressor, Decompressor, EntropyStage, ErrorBound, MdzConfig, Method};
use mdz_entropy::{
    huffman_decode, huffman_encode, read_ivarint, read_uvarint, write_ivarint, write_uvarint,
    zigzag_decode, zigzag_encode, BitReader, BitWriter,
};
use mdz_fuzz::Rng;
use mdz_kmeans::{detect_levels, kmeans_1d, LevelGrid, SelectConfig};
use mdz_lossless::{fpc, fpzip_like, gorilla, lz77};
use mdz_sim::cells::CellList;
use mdz_sim::crystal::{CosmoCloud, RandomWalkCloud, VibratingCrystal};
use mdz_sim::lattice::{self, Structure};
use mdz_sim::vec3::Vec3;
use mdz_sim::{LjSimulation, SimConfig};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `property` on `cases` seeded cases, naming the failing case.
fn check(name: &str, cases: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::seed_from_u64(case);
        if catch_unwind(AssertUnwindSafe(|| property(&mut rng))).is_err() {
            panic!("property {name} failed on case {case}");
        }
    }
}

/// Uniform integer in `lo..hi`.
fn between(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo)
}

fn bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    (0..rng.index(max_len)).map(|_| rng.next_u64() as u8).collect()
}

const METHODS: [Method; 5] = [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2, Method::Adaptive];

/// `m` snapshots of `n` values in one of the paper's regimes: lattice-like,
/// smooth in time, random, or (kind 3) mixed magnitudes.
fn buffer(rng: &mut Rng, m: usize, n: usize, kind: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|t| {
            (0..n)
                .map(|i| match kind {
                    0 => (i % 7) as f64 * 3.0 + (rng.f64() - 0.5) * 0.05,
                    1 => i as f64 * 0.01 + t as f64 * 1e-5,
                    2 => rng.f64() * 200.0 - 100.0,
                    _ => (if i % 2 == 0 { 1e6 } else { 1e-6 }) * (rng.f64() - 0.5),
                })
                .collect()
        })
        .collect()
}

fn any_buffer(rng: &mut Rng, kinds: usize) -> Vec<Vec<f64>> {
    let (m, n, kind) = (between(rng, 1, 6), between(rng, 1, 120), rng.index(kinds));
    buffer(rng, m, n, kind)
}

fn assert_within(src: &[Vec<f64>], out: &[Vec<f64>], eps: f64, what: &str) {
    assert_eq!(out.len(), src.len(), "{what}: snapshot count");
    for (s, o) in src.iter().zip(out) {
        for (a, b) in s.iter().zip(o) {
            assert!((a - b).abs() <= eps, "{what}: |{a} - {b}| > {eps}");
        }
    }
}

#[test]
fn mdz_blocks_hold_an_absolute_bound_for_every_method_and_stage() {
    check("absolute bound", 64, |rng| {
        let snaps = any_buffer(rng, 4);
        let eps = 10f64.powi(-(between(rng, 2, 7) as i32));
        let entropy = if rng.bool() { EntropyStage::Range } else { EntropyStage::Huffman };
        let cfg = MdzConfig::new(ErrorBound::Absolute(eps))
            .with_method(METHODS[rng.index(5)])
            .with_seq2(rng.bool())
            .with_entropy(entropy);
        let block = Compressor::new(cfg).compress_buffer(&snaps).unwrap();
        let out = Decompressor::new().decompress_block(&block).unwrap();
        assert_within(&snaps, &out, eps, "absolute");
    });
}

#[test]
fn mdz_blocks_hold_a_value_range_relative_bound() {
    check("relative bound", 64, |rng| {
        let snaps = any_buffer(rng, 4);
        let eps = ErrorBound::ValueRangeRelative(1e-3).absolute_for(&snaps);
        let cfg =
            MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)).with_method(METHODS[rng.index(5)]);
        let block = Compressor::new(cfg).compress_buffer(&snaps).unwrap();
        let out = Decompressor::new().decompress_block(&block).unwrap();
        assert_within(&snaps, &out, eps * (1.0 + 1e-12), "relative");
    });
}

#[test]
fn mdz_multi_buffer_streams_stay_bounded() {
    check("multi-buffer stream", 64, |rng| {
        // A common width, so time prediction engages across buffers.
        let n = between(rng, 1, 120);
        let mut c = Compressor::new(
            MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(METHODS[rng.index(5)]),
        );
        let mut d = Decompressor::new();
        for _ in 0..between(rng, 1, 4) {
            let (m, kind) = (between(rng, 1, 6), rng.index(4));
            let buf = buffer(rng, m, n, kind);
            let out = d.decompress_block(&c.compress_buffer(&buf).unwrap()).unwrap();
            assert_within(&buf, &out, 1e-3, "stream");
        }
    });
}

#[test]
fn mdz_non_finite_values_survive() {
    check("non-finite", 64, |rng| {
        let mut snaps = any_buffer(rng, 4);
        let (m, n) = (snaps.len(), snaps[0].len());
        let at = rng.index(m * n);
        snaps[at / n][at % n] = f64::NAN;
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(METHODS[rng.index(5)]);
        let block = Compressor::new(cfg).compress_buffer(&snaps).unwrap();
        let out = Decompressor::new().decompress_block(&block).unwrap();
        assert!(out[at / n][at % n].is_nan());
    });
}

#[test]
fn baselines_hold_the_bound_and_survive_hostile_input() {
    check("baselines", 48, |rng| {
        let snaps = any_buffer(rng, 3);
        let eps = 10f64.powi(-(between(rng, 2, 6) as i32));
        let garbage = bytes(rng, 200);
        let frac = rng.f64();
        for c in all_baselines().iter_mut() {
            let blob = c.compress_buffer(&snaps, ErrorBound::Absolute(eps)).unwrap();
            let out = c.decompress_buffer(&blob).unwrap();
            assert_within(&snaps, &out, eps * (1.0 + 1e-9), c.name());
            // Truncated and random input must error or decode, never panic.
            let _ = c.decompress_buffer(&blob[..(blob.len() as f64 * frac) as usize]);
            let _ = c.decompress_buffer(&garbage);
        }
    });
}

#[test]
fn bit_io_varints_and_zigzag_round_trip() {
    check("bit io", 256, |rng| {
        let ops: Vec<(u64, u32)> =
            (0..rng.index(200)).map(|_| (rng.next_u64(), rng.index(65) as u32)).collect();
        let mut w = BitWriter::new();
        for &(v, n) in &ops {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &ops {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            assert_eq!(r.read_bits(n).unwrap(), masked);
        }

        // Mix small and full-width values so every varint length occurs.
        let values: Vec<u64> =
            (0..rng.index(100)).map(|_| rng.next_u64() >> rng.index(64)).collect();
        let (mut ubuf, mut ibuf) = (Vec::new(), Vec::new());
        for &v in &values {
            write_uvarint(&mut ubuf, v);
            write_ivarint(&mut ibuf, v as i64);
        }
        let (mut upos, mut ipos) = (0, 0);
        for &v in &values {
            assert_eq!(read_uvarint(&ubuf, &mut upos).unwrap(), v);
            assert_eq!(read_ivarint(&ibuf, &mut ipos).unwrap(), v as i64);
            assert_eq!(zigzag_decode(zigzag_encode(v as i64)), v as i64);
        }
        assert_eq!((upos, ipos), (ubuf.len(), ibuf.len()));

        // A smaller magnitude never gets a code more than twice as large.
        let a = rng.index(2000) as i64 - 1000;
        let b = rng.index(2000) as i64 - 1000;
        if a.unsigned_abs() < b.unsigned_abs() {
            assert!(zigzag_encode(a) < 2 * zigzag_encode(b).max(1), "{a} vs {b}");
        }
    });
}

#[test]
fn huffman_round_trips_small_and_arbitrary_alphabets() {
    check("huffman", 256, |rng| {
        let small: Vec<u32> = (0..rng.index(2000)).map(|_| rng.index(16) as u32).collect();
        assert_eq!(huffman_decode(&huffman_encode(&small)).unwrap(), small);
        let wide: Vec<u32> = (0..rng.index(500)).map(|_| rng.next_u64() as u32).collect();
        assert_eq!(huffman_decode(&huffman_encode(&wide)).unwrap(), wide);
    });
}

#[test]
fn lz77_round_trips() {
    check("lz77", 256, |rng| {
        let data = bytes(rng, 4000);
        for level in [lz77::Level::Fast, lz77::Level::Default, lz77::Level::High] {
            assert_eq!(lz77::decompress(&lz77::compress(&data, level)).unwrap(), data);
        }
        let phrase = bytes(rng, 50);
        let repetitive = phrase.repeat(between(rng, 1, 200));
        let c = lz77::compress(&repetitive, lz77::Level::Default);
        assert_eq!(lz77::decompress(&c).unwrap(), repetitive);
    });
}

#[test]
fn float_codecs_are_bit_exact_and_survive_garbage() {
    type Codec = (fn(&[f64]) -> Vec<u8>, fn(&[u8]) -> mdz_lossless::Result<Vec<f64>>);
    let codecs: [Codec; 3] = [
        (gorilla::compress, gorilla::decompress),
        (fpc::compress, fpc::decompress),
        (fpzip_like::compress, fpzip_like::decompress),
    ];
    check("float codecs", 256, |rng| {
        // Finite-heavy: mostly moderate values, some zeros, some arbitrary
        // finite bit patterns.
        let data: Vec<f64> = (0..rng.index(400))
            .map(|_| match rng.index(6) {
                0 => 0.0,
                1 => loop {
                    let v = f64::from_bits(rng.next_u64());
                    if v.is_finite() {
                        break v;
                    }
                },
                _ => rng.f64_range(-1e6, 1e6),
            })
            .collect();
        let garbage = bytes(rng, 300);
        for (compress, decompress) in codecs {
            let out = decompress(&compress(&data)).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&data));
            let _ = decompress(&garbage);
        }
    });
}

/// Brute-force optimal SSE over contiguous partitions (exponential; small N).
fn brute_force(pts: &[f64], k: usize) -> f64 {
    let sse = |p: &[f64]| {
        let m = p.iter().sum::<f64>() / p.len() as f64;
        p.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
    };
    if k == 1 {
        return sse(pts);
    }
    if pts.len() <= k {
        return 0.0;
    }
    (1..pts.len())
        .map(|s| brute_force(&pts[..s], k - 1) + sse(&pts[s..]))
        .fold(f64::INFINITY, f64::min)
}

fn sorted(rng: &mut Rng, len: usize, span: f64) -> Vec<f64> {
    let mut data: Vec<f64> = (0..len).map(|_| rng.f64_range(-span, span)).collect();
    data.sort_by(f64::total_cmp);
    data
}

#[test]
fn kmeans_dp_is_optimal_and_well_formed() {
    check("kmeans dp", 256, |rng| {
        let (len, k) = (between(rng, 1, 12), between(rng, 1, 5));
        let data = sorted(rng, len, 100.0);
        let distinct = 1 + data.windows(2).filter(|w| w[0] < w[1]).count();
        let (dp, bf) = (kmeans_1d(&data, k).cost, brute_force(&data, k.min(distinct)));
        assert!((dp - bf).abs() < 1e-6 * (1.0 + bf), "dp {dp} bf {bf}");

        let (len, k) = (between(rng, 1, 200), between(rng, 1, 20));
        let data = sorted(rng, len, 1e6);
        let c = kmeans_1d(&data, k);
        assert!(c.cost >= 0.0);
        assert_eq!(c.starts[0], 0);
        assert!(c.starts.windows(2).all(|w| w[0] < w[1]));
        assert!(*c.starts.last().unwrap() < data.len());
        assert!(c.centroids.windows(2).all(|w| w[0] <= w[1] + 1e-9));

        // More clusters never cost more.
        let len = between(rng, 2, 100);
        let data = sorted(rng, len, 1e3);
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let cost = kmeans_1d(&data, k).cost;
            assert!(cost <= prev + 1e-9 * (1.0 + prev.abs()), "k {k}: {cost} > {prev}");
            prev = cost;
        }
    });
}

#[test]
fn level_grids_recover_planted_lattices() {
    check("grid fit", 256, |rng| {
        let (lambda, mu, k) =
            (rng.f64_range(0.1, 10.0), rng.f64_range(-100.0, 100.0), between(rng, 3, 20));
        let centroids: Vec<f64> = (0..k).map(|i| mu + lambda * i as f64).collect();
        let g = LevelGrid::fit(&centroids).unwrap();
        assert!((g.lambda - lambda).abs() < 1e-6 * lambda, "λ {} vs {lambda}", g.lambda);
        assert!(g.fit_error < 1e-6);
        // μ may differ from the planted one by an integer multiple of λ.
        let turns = (g.mu - mu) / lambda;
        assert!((turns - turns.round()).abs() < 1e-6, "μ {} vs {mu}", g.mu);

        // The detector finds the spacing of planted levels with ±1% noise.
        let (levels, spacing, per) =
            (between(rng, 2, 15), rng.f64_range(0.5, 5.0), between(rng, 40, 80));
        let data: Vec<f64> = (0..levels * per)
            .map(|i| (i % levels) as f64 * spacing + (rng.f64() - 0.5) * spacing * 0.02)
            .collect();
        let cfg = SelectConfig { min_samples: 512, ..Default::default() };
        let g = detect_levels(&data, &cfg).expect("grid");
        assert!((g.lambda - spacing).abs() < 0.05 * spacing, "λ {} vs {spacing}", g.lambda);

        // Arbitrary bit patterns (NaN and infinities included) never panic.
        let hostile: Vec<f64> =
            (0..rng.index(300)).map(|_| f64::from_bits(rng.next_u64())).collect();
        let _ = detect_levels(&hostile, &SelectConfig::default());
    });
}

#[test]
fn cell_list_matches_brute_force_pairs() {
    check("cell list", 32, |rng| {
        let (n, box_len, r_cut) =
            (between(rng, 2, 120), rng.f64_range(4.0, 20.0), rng.f64_range(1.0, 4.0));
        let pts: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.f64(), rng.f64(), rng.f64()) * box_len).collect();
        let mut brute = HashSet::new();
        for i in 0..n {
            for j in i + 1..n {
                if (pts[i] - pts[j]).min_image(box_len).norm_sq() <= r_cut * r_cut {
                    brute.insert((i, j));
                }
            }
        }
        let mut cells = CellList::new(box_len, r_cut);
        cells.rebuild(&pts);
        let mut fast = HashSet::new();
        cells.for_each_pair(&pts, |i, j, d| {
            if d.norm_sq() <= r_cut * r_cut {
                assert!(fast.insert((i.min(j), i.max(j))), "pair ({i}, {j}) visited twice");
            }
        });
        assert_eq!(fast, brute);
    });
}

#[test]
fn dataset_generators_keep_their_invariants() {
    check("generators", 32, |rng| {
        let n = between(rng, 1, 600);
        let structure = [Structure::Sc, Structure::Bcc, Structure::Fcc][rng.index(3)];
        let (nx, ny, nz) = lattice::cells_for(structure, n);
        let sites = lattice::build(structure, nx, ny, nz, 2.0);
        // Enough sites, without overshooting by more than one shell of cells.
        let shell = structure.sites_per_cell() * (nx * ny + ny * nz + nx * nz + nx + ny + nz + 1);
        assert!(sites.len() >= n && sites.len() <= (n + shell) * 2, "{n} → {}", sites.len());

        // Vibrations are OU-stationary: almost surely within 6σ of the site.
        let (sigma, corr) = (rng.f64_range(0.001, 0.2), rng.f64_range(0.0, 0.999));
        let sites = lattice::build(Structure::Sc, 3, 3, 3, 2.0);
        let mut crystal = VibratingCrystal::new(sites.clone(), sigma, corr, rng.next_u64());
        for _ in 0..between(rng, 1, 30) {
            crystal.advance();
        }
        let s = crystal.snapshot();
        for (i, site) in sites.iter().enumerate() {
            let d = (Vec3::new(s.x[i], s.y[i], s.z[i]) - *site).norm();
            assert!(d < 6.0 * sigma + 1e-12, "excursion {d} at σ {sigma}");
        }

        // Clouds are finite, and a random walk replays from its seed.
        let (n, steps, seed) = (between(rng, 1, 200), rng.index(10), rng.next_u64());
        let (mut a, mut b) = (
            RandomWalkCloud::new(n, 0.5, 0.1, 0.5, seed),
            RandomWalkCloud::new(n, 0.5, 0.1, 0.5, seed),
        );
        let (n_cosmo, clusters) = (between(rng, 1, 300), between(rng, 1, 10));
        let mut cosmo = CosmoCloud::new(n_cosmo, clusters, 3.0, 100.0, 0.05, seed);
        for _ in 0..steps {
            a.advance();
            b.advance();
            cosmo.advance();
        }
        let (sa, sc) = (a.snapshot(), cosmo.snapshot());
        assert_eq!(sa, b.snapshot());
        assert_eq!(sc.len(), n_cosmo);
        for s in [&sa, &sc] {
            assert!(s.x.iter().chain(&s.y).chain(&s.z).all(|v| v.is_finite()));
        }
    });
}

#[test]
fn lj_energy_is_conserved_over_seeds() {
    for seed in [1u64, 2, 3] {
        let cfg = SimConfig { n_target: 108, gamma: 0.0, dt: 0.002, seed, ..Default::default() };
        let mut sim = LjSimulation::new(cfg);
        sim.run(20);
        let e0 = sim.total_energy();
        sim.run(150);
        let drift = (sim.total_energy() - e0).abs() / sim.len() as f64;
        assert!(drift < 0.02, "seed {seed}: drift {drift}");
    }
}

/// The melted LJ system shows the first coordination peak near r ≈ 1.1 σ
/// and g(r) → 1 at large r.
#[test]
fn lj_rdf_has_liquid_structure() {
    let mut sim = LjSimulation::new(SimConfig { n_target: 500, ..Default::default() });
    sim.run(400);
    let s = sim.snapshot();
    let cfg = mdz_analysis::rdf::RdfConfig {
        box_len: sim.box_len,
        r_max: (sim.box_len / 2.0).min(3.5),
        bins: 70,
    };
    let (centers, g) = mdz_analysis::rdf::rdf(&s.x, &s.y, &s.z, &cfg);
    let (peak_r, peak_g) =
        centers.iter().zip(&g).max_by(|a, b| a.1.total_cmp(b.1)).map(|(c, v)| (*c, *v)).unwrap();
    assert!((0.95..1.35).contains(&peak_r), "first peak at {peak_r}");
    assert!(peak_g > 1.8, "peak height {peak_g}");
    let tail = g.iter().rev().take(8).sum::<f64>() / 8.0;
    assert!((tail - 1.0).abs() < 0.35, "tail {tail}");
}
