//! Decoder robustness: malformed, truncated, and corrupted blocks must
//! produce `Err`, never a panic, an abort, or an implausible allocation.

use mdz_core::format::{BlockHeader, FLAGS_OFFSET, FLAG_STORED, MAGIC, VERSION, VERSION_STORED};
use mdz_core::{Compressor, DecodeLimits, Decompressor, ErrorBound, MdzConfig, MdzError, Method};

fn lattice(m: usize, n: usize) -> Vec<Vec<f64>> {
    (0..m).map(|t| (0..n).map(|i| (i % 10) as f64 * 2.5 + t as f64 * 1e-4).collect()).collect()
}

fn block(method: Method) -> Vec<u8> {
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method);
    Compressor::new(cfg).compress_buffer(&lattice(6, 200)).unwrap()
}

#[test]
fn every_truncated_prefix_errors() {
    let blob = block(Method::Vqt);
    for cut in 0..blob.len() {
        assert!(
            Decompressor::new().decompress_block(&blob[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded successfully",
            blob.len()
        );
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let blob = block(Method::Vq);
    for i in 0..blob.len() {
        for pattern in [0xFFu8, 0x01, 0x80] {
            let mut bad = blob.clone();
            bad[i] ^= pattern;
            // Any outcome but a panic is acceptable; most flips must fail,
            // but some (e.g. inside an escaped f64) decode to other values.
            let _ = Decompressor::new().decompress_block(&bad);
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut blob = block(Method::Vq);
    blob[0] = b'X';
    assert_eq!(
        Decompressor::new().decompress_block(&blob),
        Err(MdzError::BadHeader("not an MDZ block"))
    );
    assert!(!MAGIC.starts_with(b"X"));
}

#[test]
fn unknown_version_is_rejected() {
    // Version 2 exists (bit-adaptive) but requires the matching flag, so a
    // re-stamped v1 block is a version/flag mismatch, not a silent decode.
    let mut blob = block(Method::Vq);
    blob[MAGIC.len()] = VERSION + 1;
    assert_eq!(
        Decompressor::new().decompress_block(&blob),
        Err(MdzError::BadHeader("version/flag mismatch for bit-adaptive stream"))
    );
    // Genuinely unknown versions stay rejected outright.
    let mut blob = block(Method::Vq);
    blob[MAGIC.len()] = VERSION_STORED + 1;
    assert_eq!(
        Decompressor::new().decompress_block(&blob),
        Err(MdzError::BadHeader("unsupported version"))
    );
}

/// A stored block (version 3) of `m` snapshots × `n` values whose payload
/// is `payload_len` zero bytes.
fn stored_block(m: usize, n: usize, payload_len: usize) -> Vec<u8> {
    let mut blob = Vec::new();
    BlockHeader {
        method: Method::Vq,
        flags: FLAG_STORED,
        n_snapshots: m,
        n_values: n,
        eps: 1e-3,
        radius: 512,
        grid: None,
    }
    .write(&mut blob);
    mdz_entropy::write_uvarint(&mut blob, payload_len as u64);
    blob.resize(blob.len() + payload_len, 0);
    blob
}

#[test]
fn a_stored_payload_is_held_to_the_inner_budget() {
    // A caller's tighter inner budget binds a stored payload too. (The
    // default budget's refusal is the corpus seed
    // block_stored_over_budget.bin.)
    let tight = DecodeLimits { max_inner_bytes: 100, ..DecodeLimits::default() };
    assert!(matches!(
        Decompressor::with_limits(tight).decompress_block(&stored_block(1, 1, 101)),
        Err(MdzError::LimitExceeded { .. })
    ));
    // A payload of exactly the default budget (40 + 4096 bytes for one
    // value) reaches the stream parsers, which find no code streams in
    // zero bytes; a length past the block's end is a truncation.
    assert!(matches!(
        Decompressor::new().decompress_block(&stored_block(1, 1, 4136)),
        Err(MdzError::Stream(_) | MdzError::Corrupt { .. })
    ));
    let mut short = stored_block(1, 1, 10);
    short.truncate(short.len() - 1);
    assert_eq!(
        Decompressor::new().decompress_block(&short),
        Err(MdzError::BadHeader("truncated payload"))
    );
}

#[test]
fn corrupt_flags_do_not_panic() {
    let blob = block(Method::Mt);
    for flags in 0..=u8::MAX {
        let mut bad = blob.clone();
        bad[FLAGS_OFFSET] = flags;
        let _ = Decompressor::new().decompress_block(&bad);
    }
}

fn f32_block() -> Vec<u8> {
    let snaps: Vec<Vec<f32>> = (0..6)
        .map(|t| (0..200).map(|i| (i % 10) as f32 * 2.5 + t as f32 * 1e-3).collect())
        .collect();
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
    Compressor::new(cfg).compress_buffer_f32(&snaps).unwrap()
}

#[test]
fn f32_and_f64_paths_report_identical_errors_on_corruption() {
    // The f32 decode path is the f64 path plus a flag gate, and corruption
    // must not break that equivalence: for every single-byte corruption of
    // an f32-sourced block, both paths fail (or succeed) identically. Only
    // the flags byte is exempt: flipping FLAG_F32 legitimately diverges the
    // gate.
    let blob = f32_block();
    for i in 0..blob.len() {
        for pattern in [0xFFu8, 0x01, 0x80] {
            if i == FLAGS_OFFSET {
                continue;
            }
            let mut bad = blob.clone();
            bad[i] ^= pattern;
            let wide = Decompressor::new().decompress_block(&bad).map(|_| ());
            let narrow = Decompressor::new().decompress_block_f32(&bad).map(|_| ());
            assert_eq!(
                wide, narrow,
                "byte {i} ^ {pattern:#04x}: f64 and f32 decode disagree on the same bytes"
            );
        }
    }
}

#[test]
fn f32_and_f64_paths_both_reject_every_truncation() {
    let blob = f32_block();
    for cut in 0..blob.len() {
        assert!(Decompressor::new().decompress_block(&blob[..cut]).is_err());
        assert!(Decompressor::new().decompress_block_f32(&blob[..cut]).is_err());
    }
}

#[test]
fn decode_limits_reject_oversized_headers() {
    let blob = block(Method::Vq);
    // The seed block is 6 snapshots × 200 values; a budget below either
    // dimension must reject it with `LimitExceeded`, not decode it.
    let cases = [
        DecodeLimits { max_snapshots: 5, ..DecodeLimits::default() },
        DecodeLimits { max_values_per_snapshot: 199, ..DecodeLimits::default() },
        DecodeLimits { max_total_values: 1199, ..DecodeLimits::default() },
    ];
    for limits in cases {
        match Decompressor::with_limits(limits).decompress_block(&blob) {
            Err(MdzError::LimitExceeded { .. }) => {}
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }
    // At exactly the block's size the budget admits it.
    let exact = DecodeLimits {
        max_snapshots: 6,
        max_values_per_snapshot: 200,
        max_total_values: 1200,
        ..DecodeLimits::default()
    };
    assert!(Decompressor::with_limits(exact).decompress_block(&blob).is_ok());
}

#[test]
fn decode_limits_survive_codec_reset() {
    use mdz_core::{Codec, MdzCodec};
    let tight = DecodeLimits { max_snapshots: 5, ..DecodeLimits::default() };
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq);
    let mut codec = MdzCodec::from_config(cfg).with_decode_limits(tight);
    let blob = block(Method::Vq);
    assert!(codec.decompress_buffer(&blob).is_err());
    codec.reset();
    assert!(codec.decompress_buffer(&blob).is_err(), "reset dropped the decode budget");
}

#[test]
fn vq_blocks_decode_out_of_stream_order() {
    // VQ is purely spatial: the second block of a stream must decode with a
    // fresh decompressor that never saw the first.
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq);
    let mut comp = Compressor::new(cfg);
    let _first = comp.compress_buffer(&lattice(4, 150)).unwrap();
    let second = comp.compress_buffer(&lattice(4, 150)).unwrap();
    let out = Decompressor::new().decompress_block(&second).unwrap();
    assert_eq!(out.len(), 4);
}

#[test]
fn mid_stream_mt_block_errors_cleanly_without_reference() {
    // MT blocks after the first depend on the stream's reference snapshot; a
    // fresh decompressor must refuse them with an error, not misdecode.
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
    let mut comp = Compressor::new(cfg);
    let first = comp.compress_buffer(&lattice(4, 150)).unwrap();
    let second = comp.compress_buffer(&lattice(4, 150)).unwrap();

    assert!(Decompressor::new().decompress_block(&second).is_err());

    // In stream order the same block decodes fine.
    let mut dec = Decompressor::new();
    dec.decompress_block(&first).unwrap();
    let out = dec.decompress_block(&second).unwrap();
    assert_eq!(out.len(), 4);
}
