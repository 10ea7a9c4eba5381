//! The decision oracle: an archive grown by appends codes every block with
//! the method, level grid, quantizer and payload form (LZ77 or stored)
//! that one `create_store` over the same frames gives it, for every
//! method, both precisions and any `adapt_interval`.
//!
//! An axis stream decides only at its decision blocks: under ADP its
//! trials, on the first block of every ⌈`adapt_interval` /
//! `epoch_interval`⌉-th epoch counted from block 0, and under VQ or VQT
//! block 0, whose grid it keeps. An append reads the decisions of the
//! archive's earlier decision blocks from their headers and runs the
//! trials that fall in its segment. A trial always falls on an epoch
//! anchor, where neither writer has an MT reference, so it ranks its
//! candidates alike in both.
//!
//! MT blocks in a segment's first epoch differ in bytes from
//! `create_store`'s, because their reference snapshot comes from the
//! segment's first block; VQ and VQT blocks never use one, so those must
//! match byte for byte.

use mdz_core::{Decompressor, ErrorBound, Frame, MdzConfig, Method, QuantizerKind};
use mdz_store::{
    append_store, write_store, ArchiveIndex, MemIo, Precision, StoreOptions, StoreReader,
};

const N_ATOMS: usize = 256;
const BUFFER_SIZE: usize = 2;
const EPOCH_INTERVAL: usize = 4;
/// Buffers each append adds, in order.
const APPENDS: [usize; 3] = [1, 3, 9];
/// Base archives: one ends on a decision-epoch boundary, one inside an
/// epoch.
const BASE_BLOCKS: [usize; 2] = [8, 6];

/// Regimes the streams start in: a quiet crystal, whose level grid they
/// keep, and the liquid, in which they find none.
const FIRST_REGIMES: [usize; 2] = [0, 2];

/// Three regimes, switching every three buffers so that they straddle the
/// four-buffer epochs, from `first_regime` on: a quiet crystal, a noisy
/// crystal, and a quiet liquid whose sites form no level grid.
fn frames(n_frames: usize, first_regime: usize) -> Vec<Frame> {
    let mut state = 0x0A11_CE55_u64;
    let mut noise = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    // Bell-shaped sites: no split of them is a level collapse.
    let liquid: Vec<f64> =
        (0..3 * N_ATOMS).map(|_| 6.0 + (noise() + noise() + noise() + noise()) * 3.0).collect();
    (0..n_frames)
        .map(|t| {
            let regime = (t / (3 * BUFFER_SIZE) + first_regime) % 3;
            let mut axis = |a: usize| -> Vec<f64> {
                (0..N_ATOMS)
                    .map(|i| {
                        let drift = t as f64 * 1e-3;
                        match regime {
                            0 => ((i * 7 + a * 3) % 8) as f64 * 1.5 + noise() * 0.004 + drift,
                            1 => ((i * 7 + a * 3) % 8) as f64 * 1.5 + noise() * 0.3 + drift,
                            _ => liquid[a * N_ATOMS + i] + noise() * 0.004 + drift,
                        }
                    })
                    .collect()
            };
            Frame::new(axis(0), axis(1), axis(2))
        })
        .collect()
}

/// The configurations the oracle covers. ADP trials at every epoch start
/// with an `adapt_interval` of 3, at every second with 8, and only at
/// block 0 with 50. The last one trials two bit-adaptive chunk sizes, so an
/// append must read a block's chunk from its code stream.
fn configs() -> Vec<(&'static str, MdzConfig)> {
    let base = MdzConfig::new(ErrorBound::Absolute(1e-3));
    let adp = |adapt_interval| {
        let mut cfg = base.clone();
        cfg.adapt_interval = adapt_interval;
        cfg
    };
    vec![
        ("ADP/3", adp(3)),
        ("ADP/8", adp(8)),
        ("ADP", base.clone()),
        ("VQ", base.clone().with_method(Method::Vq)),
        ("VQT", base.clone().with_method(Method::Vqt)),
        ("MT", base.clone().with_method(Method::Mt)),
        (
            "ADP+BA",
            base.with_quantizer(QuantizerKind::BitAdaptive { chunk: 16 })
                .with_bit_adaptive_candidates(true),
        ),
    ]
}

/// The three axis blocks of block `b`.
fn axis_blocks<'a>(archive: &'a [u8], index: &ArchiveIndex, b: usize) -> [&'a [u8]; 3] {
    let record = mdz_store::archive::record_at(archive, index.blocks[b].offset).unwrap();
    mdz_store::archive::split_container(record).unwrap()
}

/// What the oracle saw in appended blocks, to show that it covered the
/// decisions it checks.
#[derive(Default)]
struct Seen {
    grid: usize,
    gridless_vq: usize,
    mt: usize,
    bit_adaptive: usize,
    stored: usize,
    /// ADP blocks that kept LZ77: a fixed method always does.
    adp_lz77: usize,
}

/// Grows a `base_blocks` archive of `source` by [`APPENDS`] and checks it
/// against one `create_store` over the same frames.
fn check(
    (name, cfg): (&str, &MdzConfig),
    (source, first_regime): (&[Frame], usize),
    precision: Precision,
    base_blocks: usize,
    seen: &mut Seen,
) {
    let label = format!("{name}/regime {first_regime}/{precision:?}/base {base_blocks}");
    let mut opts = StoreOptions::new(cfg.clone());
    opts.buffer_size = BUFFER_SIZE;
    opts.epoch_interval = EPOCH_INTERVAL;
    opts.precision = precision;
    let n_blocks = base_blocks + APPENDS.iter().sum::<usize>();
    let source = &source[..n_blocks * BUFFER_SIZE];
    let created = write_store(source, &[], &[], &opts).unwrap();

    let mut io =
        MemIo::new(write_store(&source[..base_blocks * BUFFER_SIZE], &[], &[], &opts).unwrap());
    let mut segment_starts = vec![0];
    let mut at = base_blocks;
    for n in APPENDS {
        let report =
            append_store(&mut io, &source[at * BUFFER_SIZE..(at + n) * BUFFER_SIZE], &opts)
                .unwrap();
        assert_eq!(report.appended_blocks, n, "{label}");
        segment_starts.push(at);
        at += n;
    }
    let appended = io.into_bytes();

    // Epochs: the decision-epoch starts plus every segment start.
    let index = ArchiveIndex::parse(&appended).unwrap();
    let want_starts: Vec<usize> =
        (0..n_blocks).filter(|b| b % EPOCH_INTERVAL == 0 || segment_starts.contains(b)).collect();
    assert_eq!(index.epoch_starts, want_starts, "{label}: footer epoch starts");

    // Decisions: block for block and axis for axis, those of create_store.
    let created_index = ArchiveIndex::parse(&created).unwrap();
    for b in 0..n_blocks {
        let in_segment = b >= base_blocks;
        let got = axis_blocks(&appended, &index, b);
        let want = axis_blocks(&created, &created_index, b);
        for axis in 0..3 {
            let g = Decompressor::inspect(got[axis]).unwrap();
            let w = Decompressor::inspect(want[axis]).unwrap();
            assert_eq!(
                (g.method, g.grid, g.bit_adaptive, g.stored),
                (w.method, w.grid, w.bit_adaptive, w.stored),
                "{label}: block {b} axis {axis}"
            );
            if matches!(g.method, Method::Vq | Method::Vqt) {
                assert!(got[axis] == want[axis], "{label}: block {b} axis {axis} bytes");
            }
            if in_segment {
                seen.grid += usize::from(g.grid.is_some());
                seen.gridless_vq += usize::from(g.method == Method::Vq && g.grid.is_none());
                seen.mt += usize::from(g.method == Method::Mt);
                seen.bit_adaptive += usize::from(g.bit_adaptive);
                seen.stored += usize::from(g.stored);
                seen.adp_lz77 += usize::from(cfg.method == Method::Adaptive && !g.stored);
            }
        }
    }

    // Bound: every value within its block's ε (of the narrowed value for f32).
    let decoded =
        StoreReader::open(appended.clone()).unwrap().read_frames(0..source.len()).unwrap();
    for b in 0..n_blocks {
        let blocks = axis_blocks(&appended, &index, b);
        let eps: Vec<f64> =
            blocks.iter().map(|block| Decompressor::inspect(block).unwrap().eps).collect();
        for t in b * BUFFER_SIZE..(b + 1) * BUFFER_SIZE {
            let (src, dec) = (&source[t], &decoded[t]);
            for (axis, (a, d)) in
                [(&src.x, &dec.x), (&src.y, &dec.y), (&src.z, &dec.z)].into_iter().enumerate()
            {
                for (&v, &r) in a.iter().zip(d) {
                    let (v, slack) = match precision {
                        Precision::F64 => (v, 0.0),
                        // Narrowing the reconstruction adds half an f32 ulp.
                        Precision::F32 => {
                            let v = f64::from(v as f32);
                            (v, v.abs() * f64::from(f32::EPSILON) / 2.0)
                        }
                    };
                    assert!((v - r).abs() <= eps[axis] + slack, "{label}: frame {t}: {v} vs {r}");
                }
            }
        }
    }
}

#[test]
fn appended_blocks_keep_the_decisions_create_store_makes() {
    let mut seen = Seen::default();
    let n_frames = (BASE_BLOCKS[0] + APPENDS.iter().sum::<usize>()) * BUFFER_SIZE;
    for first_regime in FIRST_REGIMES {
        let source = frames(n_frames, first_regime);
        for (name, cfg) in configs() {
            for precision in [Precision::F64, Precision::F32] {
                for base_blocks in BASE_BLOCKS {
                    let stream = (&source[..], first_regime);
                    check((name, &cfg), stream, precision, base_blocks, &mut seen);
                }
            }
        }
    }
    assert!(seen.grid > 0, "no appended block coded with a grid");
    assert!(seen.gridless_vq > 0, "no appended VQ block found its grid absent");
    assert!(seen.mt > 0, "no appended MT block");
    assert!(seen.bit_adaptive > 0, "no appended bit-adaptive block");
    assert!(seen.stored > 0, "no appended stored block");
    assert!(seen.adp_lz77 > 0, "no appended ADP block kept LZ77");
}
