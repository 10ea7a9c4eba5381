//! Deterministic fuzz campaigns over every MDZ decode entry point.
//!
//! Each campaign replays `mdz_fuzz::default_iters()` seeded mutations of
//! valid encoder output against one decode surface and asserts the hostile
//! triad: the decoder returns an error or a correct result, never panics,
//! and never allocates more than the campaign's byte budget (enforced by
//! the installed [`CountingAlloc`]). Failures reproduce exactly from the
//! (campaign seed, iteration) pair printed in the assertion message.
//!
//! Budgets are not tight bounds — they are "orders of magnitude below what
//! a forged length field could request" (a forged count can ask for 2^34
//! items; the budgets sit in the tens of megabytes, proportional to the
//! limits each campaign configures).

use std::sync::Mutex;

use mdz_core::format::{FLAGS_OFFSET, FLAG_BIT_ADAPTIVE};
use mdz_core::{
    Compressor, DecodeLimits, Decompressor, EntropyStage, ErrorBound, Frame, MdzConfig, Method,
    QuantizerKind,
};
use mdz_entropy::{
    huffman_decode_at_limited, huffman_encode, range_decode_at_limited, range_encode, StreamLimits,
};
use mdz_fuzz::{default_iters, stored_block, ContainerArchive, CountingAlloc, Mutator};
use mdz_lossless::lz77;
use mdz_store::archive::record_at;
use mdz_store::protocol::{
    encode_append_ack, encode_error, encode_frames, encode_info, encode_metrics, encode_stats,
    parse_append_ack, parse_frames, parse_info, parse_metrics, parse_stats,
};
use mdz_store::{
    append_store, write_store, AppendAck, ArchiveIndex, FrameDecoder, HistogramSnapshot, MemIo,
    MetricsSnapshot, Precision, ReaderOptions, Request, StatsSnapshot, Status, StoreInfo,
    StoreOptions, StoreReader,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator counters are process-global; campaigns serialize behind this.
static GATE: Mutex<()> = Mutex::new(());

const MB: usize = 1 << 20;

/// Runs `f` with the SIMD force-scalar override set to `force`, restoring
/// the previous state. Campaigns using this are already serialized behind
/// [`GATE`], so the process-global toggle cannot leak between tests.
fn with_force_scalar<T>(force: bool, f: impl FnOnce() -> T) -> T {
    let prev = mdz_entropy::kernel::force_scalar();
    mdz_entropy::kernel::set_force_scalar(force);
    let out = f();
    mdz_entropy::kernel::set_force_scalar(prev);
    out
}

/// Runs one campaign: `iters` mutations of the seed set, each fed to
/// `attempt` with the allocator watermark reset, asserting the decode
/// attempt stays within `budget` bytes of heap.
fn campaign(
    name: &'static str,
    seed: u64,
    seeds: &[Vec<u8>],
    budget: usize,
    mut attempt: impl FnMut(&mut Mutator, usize, &[u8]),
) {
    assert!(!seeds.is_empty());
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut mutator = Mutator::new(seed);
    let iters = default_iters();
    for i in 0..iters {
        let base_idx = mutator.rng().index(seeds.len());
        let input = mutator.mutate(&seeds[base_idx], seeds);
        let live_before = CountingAlloc::live();
        CountingAlloc::reset_peak();
        attempt(&mut mutator, base_idx, &input);
        let used = CountingAlloc::peak().saturating_sub(live_before);
        assert!(
            used <= budget,
            "{name}: seed {seed} iteration {i}: decode attempt allocated \
             {used} bytes (budget {budget})",
        );
    }
}

fn lattice(m: usize, n: usize) -> Vec<Vec<f64>> {
    (0..m).map(|t| (0..n).map(|i| (i % 10) as f64 * 2.5 + t as f64 * 1e-4).collect()).collect()
}

fn block(method: Method, entropy: EntropyStage) -> Vec<u8> {
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method).with_entropy(entropy);
    Compressor::new(cfg).compress_buffer(&lattice(6, 200)).unwrap()
}

fn f32_block() -> Vec<u8> {
    let snaps: Vec<Vec<f32>> = (0..6)
        .map(|t| (0..200).map(|i| (i % 10) as f32 * 2.5 + t as f32 * 1e-3).collect())
        .collect();
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
    Compressor::new(cfg).compress_buffer_f32(&snaps).unwrap()
}

/// The budget configuration all block-level campaigns decode under: far
/// larger than the seed blocks need, far smaller than a forged header can
/// declare (default limits accept up to 2^34 values).
fn tight_limits() -> DecodeLimits {
    DecodeLimits {
        max_snapshots: 1 << 10,
        max_values_per_snapshot: 1 << 16,
        max_total_values: 1 << 18,
        max_inner_bytes: 1 << 22,
    }
}

#[test]
fn fuzz_huffman_decode() {
    let seeds = vec![
        huffman_encode(&(0..2000u32).map(|i| (i * 7) % 40).collect::<Vec<_>>()),
        huffman_encode(&vec![5u32; 300]),
        huffman_encode(&[]),
        huffman_encode(&(0..500u32).collect::<Vec<_>>()),
    ];
    let limits = StreamLimits::with_max_items(1 << 16);
    let refs: Vec<Vec<u32>> = seeds
        .iter()
        .map(|s| huffman_decode_at_limited(s, &mut 0, &limits).expect("seed decodes"))
        .collect();
    campaign("huffman", 0x4d445a01, &seeds.clone(), 8 * MB, |_, base_idx, input| {
        // Replay each mutation through both kernel arms: the batched SIMD
        // decode must agree with the scalar oracle on hostile input too —
        // same values on success, same error otherwise.
        let got = with_force_scalar(false, || huffman_decode_at_limited(input, &mut 0, &limits));
        let oracle = with_force_scalar(true, || huffman_decode_at_limited(input, &mut 0, &limits));
        assert_eq!(got, oracle, "batched huffman decode diverged from the scalar oracle");
        if input == seeds[base_idx] {
            assert_eq!(got.as_ref().ok(), Some(&refs[base_idx]), "identity input must decode");
        }
    });
}

#[test]
fn fuzz_range_decode() {
    let seeds = vec![
        range_encode(&(0..2000u32).map(|i| (i * 13) % 60).collect::<Vec<_>>()),
        range_encode(&vec![9u32; 400]),
        range_encode(&[]),
        range_encode(&(0..300u32).collect::<Vec<_>>()),
    ];
    let limits = StreamLimits::with_max_items(1 << 16);
    let refs: Vec<Vec<u32>> = seeds
        .iter()
        .map(|s| range_decode_at_limited(s, &mut 0, &limits).expect("seed decodes"))
        .collect();
    campaign("range", 0x4d445a02, &seeds.clone(), 8 * MB, |_, base_idx, input| {
        let got = range_decode_at_limited(input, &mut 0, &limits);
        if input == seeds[base_idx] {
            assert_eq!(got.as_ref().ok(), Some(&refs[base_idx]), "identity input must decode");
        }
    });
}

#[test]
fn fuzz_lz77_decompress() {
    let texty: Vec<u8> = (0..4000).map(|i| b"molecular dynamics "[i % 19]).collect();
    let noisy: Vec<u8> = (0..2000).map(|i| (i * 31 % 251) as u8).collect();
    let seeds = vec![
        lz77::compress(&texty, lz77::Level::Default),
        lz77::compress(&noisy, lz77::Level::Fast),
        lz77::compress(&[], lz77::Level::Default),
        lz77::compress(&vec![0u8; 3000], lz77::Level::High),
    ];
    let limits = StreamLimits::with_max_items(1 << 20);
    let refs: Vec<Vec<u8>> = seeds
        .iter()
        .map(|s| {
            let mut out = Vec::new();
            lz77::decompress_into_limited(s, &mut out, &limits).expect("seed decodes");
            out
        })
        .collect();
    campaign("lz77", 0x4d445a03, &seeds.clone(), 32 * MB, |_, base_idx, input| {
        let mut out = Vec::new();
        let got = lz77::decompress_into_limited(input, &mut out, &limits);
        // Compressing what a mutation decodes to runs the match finder on
        // hostile-shaped data; its output must decode back to those bytes.
        if got.is_ok() {
            let packed = lz77::compress(&out, lz77::Level::Default);
            assert_eq!(lz77::decompress(&packed).as_ref(), Ok(&out), "lz77 round trip");
        }
        if input == seeds[base_idx] {
            assert!(got.is_ok() && out == refs[base_idx], "identity input must decode");
        }
    });
}

#[test]
fn fuzz_block_decode_f64() {
    let seeds = vec![
        block(Method::Vq, EntropyStage::Huffman),
        block(Method::Vqt, EntropyStage::Huffman),
        block(Method::Mt, EntropyStage::Huffman),
        block(Method::Mt2, EntropyStage::Huffman),
        block(Method::Vq, EntropyStage::Range),
        f32_block(),
        stored_block(),
    ];
    let limits = tight_limits();
    // First-in-stream blocks of every method decode with a fresh decompressor.
    let ok: Vec<bool> = seeds
        .iter()
        .map(|s| Decompressor::with_limits(limits).decompress_block(s).is_ok())
        .collect();
    assert!(ok.iter().all(|&b| b));
    campaign("block-f64", 0x4d445a05, &seeds.clone(), 128 * MB, |_, base_idx, input| {
        // Both kernel arms must agree on every mutated block: identical
        // reconstructions when the block decodes, identical error otherwise.
        let got =
            with_force_scalar(false, || Decompressor::with_limits(limits).decompress_block(input));
        let oracle =
            with_force_scalar(true, || Decompressor::with_limits(limits).decompress_block(input));
        // Compare reconstructions as bit patterns: a mutated escape value
        // can legitimately decode to NaN, which `==` would treat as a
        // divergence even when both arms produced identical bytes.
        let bits = |r: &Result<Vec<Vec<f64>>, mdz_core::MdzError>| {
            r.as_ref().map_err(Clone::clone).map(|snaps| {
                snaps
                    .iter()
                    .map(|s| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(bits(&got), bits(&oracle), "SIMD block decode diverged from the scalar oracle");
        if input == seeds[base_idx] {
            assert!(got.is_ok(), "identity input must decode");
        }
    });
}

/// Values whose step magnitudes span decades (so the per-chunk width
/// table is fully exercised) plus sparse huge outliers that overflow even
/// the bit-adaptive cap and land in the escape list.
fn spiky(m: usize, n: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|t| {
            (0..n)
                .map(|i| {
                    let base = (i % 10) as f64 * 2.5 + t as f64 * 1e-4;
                    if i % 97 == 0 {
                        base + 1e9 * (t as f64 + 1.0)
                    } else {
                        base + ((t * i) % 13) as f64 * 0.05
                    }
                })
                .collect()
        })
        .collect()
}

fn ba_block(method: Method, chunk: usize, entropy: EntropyStage) -> Vec<u8> {
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4))
        .with_method(method)
        .with_entropy(entropy)
        .with_quantizer(QuantizerKind::BitAdaptive { chunk });
    Compressor::new(cfg).compress_buffer(&spiky(6, 200)).unwrap()
}

#[test]
fn fuzz_bit_adaptive_block_decode() {
    // Version-2 blocks whose payload carries the per-region width table:
    // chunk = 1 maximizes width bytes, chunk = 4 mixes widths inside a
    // snapshot, the default chunk exercises the common layout, and the
    // range-coded seed covers the other entropy stage around it.
    let seeds = vec![
        ba_block(Method::Vq, 1, EntropyStage::Huffman),
        ba_block(Method::Vqt, 4, EntropyStage::Huffman),
        ba_block(Method::Mt, 64, EntropyStage::Huffman),
        ba_block(Method::Vq, 64, EntropyStage::Range),
    ];
    let limits = tight_limits();
    for s in &seeds {
        assert!(Decompressor::inspect(s).unwrap().bit_adaptive);
        assert!(Decompressor::with_limits(limits).decompress_block(s).is_ok());
    }
    // A v1 block with the bit-adaptive flag forged on rides along as a
    // mutation source; the version/flag cross-check rejects it outright.
    let mut forged = block(Method::Vq, EntropyStage::Huffman);
    forged[FLAGS_OFFSET] |= FLAG_BIT_ADAPTIVE;
    assert!(Decompressor::with_limits(limits).decompress_block(&forged).is_err());
    let mut seeds = seeds;
    seeds.push(forged);
    let accepts = [true, true, true, true, false];
    campaign("block-bit-adaptive", 0x4d445a0c, &seeds.clone(), 128 * MB, |_, base_idx, input| {
        let got = Decompressor::with_limits(limits).decompress_block(input);
        if input == seeds[base_idx] {
            assert_eq!(got.is_ok(), accepts[base_idx], "identity seed acceptance changed");
        }
    });
}

#[test]
fn fuzz_block_decode_f32_differential() {
    let seeds = vec![f32_block(), block(Method::Vq, EntropyStage::Huffman)];
    let limits = tight_limits();
    campaign("block-f32", 0x4d445a06, &seeds.clone(), 128 * MB, |_, _, input| {
        // The narrow path must agree with the wide path on acceptance:
        // whenever f32 decode succeeds, f64 decode of the same bytes must
        // succeed too (the f32 path is the f64 path plus a flag gate).
        let narrow = Decompressor::with_limits(limits).decompress_block_f32(input);
        let wide = Decompressor::with_limits(limits).decompress_block(input);
        if narrow.is_ok() {
            assert!(wide.is_ok(), "f32 decode accepted a block the f64 path rejects");
        }
    });
}

#[test]
fn fuzz_snapshot_random_access() {
    let seeds =
        vec![block(Method::Vq, EntropyStage::Huffman), block(Method::Vq, EntropyStage::Range)];
    let limits = tight_limits();
    campaign("snapshot", 0x4d445a07, &seeds.clone(), 128 * MB, |mutator, base_idx, input| {
        let index = mutator.rng().index(8);
        let got = Decompressor::decompress_snapshot_limited(input, index, &limits);
        if input == seeds[base_idx] && index < 6 {
            assert!(got.is_ok(), "identity input must random-access");
        }
    });
}

fn frames(n: usize, t: usize) -> Vec<Frame> {
    (0..t)
        .map(|s| {
            let axis =
                |p: usize| (0..n).map(|i| ((i * p) % 9) as f64 * 1.5 + s as f64 * 1e-4).collect();
            Frame::new(axis(1), axis(2), axis(3))
        })
        .collect()
}

#[test]
fn fuzz_trajectory_container() {
    // The three containers of one VQT stream. Mutations land in the
    // container framing and the axis blocks; each input is read through
    // the store as the record of a valid one-block archive, so a read
    // reaches `split_container` and all three axis decoders. Unmutated
    // seeds must read back in full.
    let mut opts =
        StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vqt));
    opts.buffer_size = 4;
    let stream: Vec<Frame> = (0..3).flat_map(|_| frames(120, 4)).collect();
    let archive = write_store(&stream, &[], &[], &opts).unwrap();
    let seeds: Vec<Vec<u8>> = ArchiveIndex::parse(&archive)
        .unwrap()
        .blocks
        .iter()
        .map(|b| record_at(&archive, b.offset).unwrap().to_vec())
        .collect();
    let wrapper = ContainerArchive::new(120, 4);
    let limits = tight_limits();
    campaign("traj", 0x4d445a08, &seeds.clone(), 256 * MB, |_, base_idx, input| {
        let opts = ReaderOptions { limits };
        let got =
            StoreReader::with_options(wrapper.wrap(input), opts).and_then(|r| r.read_frames(0..4));
        if input == seeds[base_idx] {
            assert_eq!(got.expect("identity container must read").len(), 4);
        }
    });
}

#[test]
fn fuzz_store_archive() {
    // Indexed store archives: mutations land in the footer index, the
    // epoch/keyframe headers, and the block records. Opening parses the
    // header + footer; reading walks `record_at` (FNV oracle) and the epoch
    // decoder. The triad plus an identity check: unmutated seeds must open
    // and read back their full frame range.
    let store_frames = frames(60, 10);
    let seeds: Vec<Vec<u8>> = [
        (Method::Mt, Precision::F64, 2usize),
        (Method::Vq, Precision::F64, 1),
        (Method::Vqt, Precision::F32, 4),
    ]
    .iter()
    .map(|&(method, precision, k)| {
        let mut opts =
            StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(method));
        opts.buffer_size = 3;
        opts.epoch_interval = k;
        opts.precision = precision;
        write_store(&store_frames, &["Cu".into()], &[], &opts).unwrap()
    })
    .collect();
    let limits = tight_limits();
    campaign("store", 0x4d445a0b, &seeds.clone(), 256 * MB, |_, base_idx, input| {
        let opts = ReaderOptions { limits };
        let got = StoreReader::with_options(input.to_vec(), opts).and_then(|r| {
            let n = r.index().n_frames;
            r.read_frames(0..n)
        });
        if input == seeds[base_idx] {
            assert_eq!(
                got.expect("identity archive must read").len(),
                store_frames.len(),
                "identity archive returned the wrong frame count"
            );
        }
    });
}

#[test]
fn fuzz_store_recover() {
    // The crash-recovery scan: mutations land in appended archives — two
    // footer generations (the dead pre-append footer is still embedded
    // mid-file), torn tails, and truncated frames. `StoreReader::recover`
    // must locate *a* valid footer or return a typed error, never panic,
    // never over-allocate; and whatever it recovers must decode in full.
    let base_frames = frames(60, 8);
    let extra_frames = frames(60, 4);
    let appended = |method: Method, k: usize| -> Vec<u8> {
        let mut opts =
            StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(method));
        opts.buffer_size = 2;
        opts.epoch_interval = k;
        let blob = write_store(&base_frames, &["Cu".into()], &[], &opts).unwrap();
        let mut io = MemIo::new(blob);
        append_store(&mut io, &extra_frames, &opts).unwrap();
        io.into_bytes()
    };
    let mut torn = appended(Method::Vq, 1);
    torn.truncate(torn.len() - 9); // cut inside the appended footer trailer
    let seeds = vec![appended(Method::Mt, 2), appended(Method::Vq, 1), torn];
    let limits = tight_limits();
    campaign("store-recover", 0x4d445a0d, &seeds.clone(), 256 * MB, |_, base_idx, input| {
        let opts = ReaderOptions { limits };
        let registry = std::sync::Arc::new(mdz_store::Registry::new());
        let got = StoreReader::recover_with_registry(input.to_vec(), opts, registry).and_then(
            |(r, rep)| {
                let n = r.index().n_frames;
                r.read_frames(0..n).map(|f| (f.len(), rep.truncated_bytes))
            },
        );
        if input == seeds[base_idx] {
            let (n, truncated) = got.expect("identity archive must recover");
            // Seeds 0/1 are clean appends; seed 2 recovers to the
            // pre-append footer by truncating the torn tail.
            if base_idx < 2 {
                assert_eq!((n, truncated), (12, 0), "clean append must recover untouched");
            } else {
                assert_eq!(n, 8, "torn append must fall back to the pre-append state");
                assert!(truncated > 0, "torn tail must be reported");
            }
        }
    });
}

#[test]
fn fuzz_net_frame_decoder() {
    // The event engine's incremental request framing: pipelined streams of
    // length-prefixed requests arriving in arbitrary chunk sizes. The triad
    // plus two decoder-specific obligations: framing errors are sticky (the
    // stream cannot resynchronize past a bad prefix), and an unmutated
    // pipeline must reassemble to exactly its request bodies no matter how
    // the bytes are chunked.
    let scripts: Vec<Vec<Request>> = vec![
        vec![Request::Info, Request::Get { start: 0, end: 8 }, Request::Stats],
        (0..32).map(|i| Request::Get { start: i * 4, end: i * 4 + 4 }).collect(),
        vec![
            Request::Append { precision: Precision::F32, frames: frames(16, 2) },
            Request::Metrics,
        ],
        vec![Request::Stats],
    ];
    let refs: Vec<Vec<Vec<u8>>> =
        scripts.iter().map(|s| s.iter().map(Request::encode).collect()).collect();
    let seeds: Vec<Vec<u8>> = refs
        .iter()
        .map(|bodies| {
            bodies
                .iter()
                .flat_map(|b| {
                    let mut framed = (b.len() as u32).to_le_bytes().to_vec();
                    framed.extend_from_slice(b);
                    framed
                })
                .collect()
        })
        .collect();
    const MAX_BODY: usize = 1 << 16;
    campaign("net-frames", 0x4d445a0e, &seeds.clone(), 8 * MB, |mutator, base_idx, input| {
        let mut dec = FrameDecoder::new(MAX_BODY);
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        let mut framing_err = None;
        let mut pos = 0;
        while pos < input.len() && framing_err.is_none() {
            // Worst-case trickle, small TCP segments, or coalesced bursts.
            let chunk = match mutator.rng().index(3) {
                0 => 1,
                1 => 1 + mutator.rng().index(7),
                _ => 1 + mutator.rng().index(4096),
            }
            .min(input.len() - pos);
            dec.push(&input[pos..pos + chunk]);
            pos += chunk;
            loop {
                match dec.next_frame() {
                    Ok(Some(body)) => {
                        assert!(body.len() <= MAX_BODY, "decoder yielded an oversized body");
                        let _ = Request::parse(&body); // must never panic
                        bodies.push(body);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        framing_err = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(e) = framing_err {
            dec.push(&[0u8; 8]);
            assert_eq!(dec.next_frame(), Err(e), "framing error was not sticky");
        } else if input == seeds[base_idx] {
            assert_eq!(bodies, refs[base_idx], "identity pipeline must reassemble exactly");
            assert!(!dec.has_partial(), "identity pipeline left a partial tail");
        }
    });
}

/// One valid response body of each kind a client reads, with the value it
/// was encoded from.
enum Reply {
    Frames(u64, Vec<Frame>),
    Stats(StatsSnapshot),
    Info(StoreInfo),
    Ack(AppendAck),
    Metrics(MetricsSnapshot),
    Error,
}

impl Reply {
    fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Frames(start, f) => encode_frames(*start, f.first().map_or(0, Frame::len), f),
            Reply::Stats(s) => encode_stats(s),
            Reply::Info(i) => encode_info(i),
            Reply::Ack(a) => encode_append_ack(a),
            Reply::Metrics(m) => encode_metrics(m),
            Reply::Error => encode_error(Status::OutOfRange, "frame range past end of archive"),
        }
    }
}

#[test]
fn fuzz_client_responses() {
    // The response bodies a client parses come from a peer it does not
    // control. Every input goes to all five parsers; each must return an
    // error or a value that encodes back to exactly the input bytes (so
    // nothing was skipped, misread or invented), within the budget.
    let replies = [
        Reply::Frames(7, frames(3, 2)),
        Reply::Frames(0, Vec::new()),
        Reply::Stats(StatsSnapshot {
            requests: 9,
            bytes_out: 4096,
            cache_hits: 3,
            cache_misses: 6,
            decode_errors: 1,
            buffers_decoded: 12,
        }),
        Reply::Info(StoreInfo {
            version: 2,
            n_atoms: 3,
            n_frames: 40,
            buffer_size: 4,
            epoch_interval: 2,
            n_blocks: 10,
        }),
        Reply::Ack(AppendAck { start: 32, n_frames: 40, appended_blocks: 2 }),
        Reply::Metrics(MetricsSnapshot {
            counters: vec![("store.requests".into(), 9), ("server.requests.get".into(), 5)],
            gauges: vec![("server.net.connections".into(), 2)],
            histograms: vec![HistogramSnapshot {
                name: "server.request_seconds".into(),
                count: 9,
                sum: 0.5,
                min: 0.01,
                max: 0.2,
                p50: 0.04,
                p99: 0.19,
            }],
        }),
        Reply::Metrics(MetricsSnapshot::default()),
        Reply::Error,
    ];
    let seeds: Vec<Vec<u8>> = replies.iter().map(Reply::encode).collect();
    campaign("client-responses", 0x4d445a0f, &seeds.clone(), 8 * MB, |_, base_idx, input| {
        let frames = parse_frames(input);
        if let Ok((start, f)) = &frames {
            let n_atoms = u64::from_le_bytes(input[17..25].try_into().unwrap()) as usize;
            assert_eq!(encode_frames(*start, n_atoms, f), input, "GET body misparsed");
        }
        let stats = parse_stats(input);
        if let Ok(s) = &stats {
            assert_eq!(encode_stats(s), input, "STATS body misparsed");
        }
        let info = parse_info(input);
        if let Ok(i) = &info {
            assert_eq!(encode_info(i), input, "INFO body misparsed");
        }
        let ack = parse_append_ack(input);
        if let Ok(a) = &ack {
            assert_eq!(encode_append_ack(a), input, "APPEND ack misparsed");
        }
        let metrics = parse_metrics(input);
        if let Ok(m) = &metrics {
            assert_eq!(encode_metrics(m), input, "METRICS body misparsed");
        }
        if input != seeds[base_idx] {
            return;
        }
        match &replies[base_idx] {
            Reply::Frames(start, f) => assert_eq!(frames, Ok((*start, f.clone()))),
            Reply::Stats(s) => assert_eq!(stats, Ok(*s)),
            Reply::Info(i) => assert_eq!(info, Ok(*i)),
            Reply::Ack(a) => assert_eq!(ack, Ok(*a)),
            Reply::Metrics(m) => assert_eq!(metrics.as_ref(), Ok(m)),
            Reply::Error => {
                assert!(frames.is_err() && stats.is_err() && info.is_err());
                assert!(ack.is_err() && metrics.is_err(), "an error body parsed as OK");
            }
        }
    });
}

/// The acceptance-bar sanity check: the configured iteration count is
/// what the campaigns above actually ran.
#[test]
fn iteration_budget_is_positive() {
    assert!(default_iters() > 0);
}
