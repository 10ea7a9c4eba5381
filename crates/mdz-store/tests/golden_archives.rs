//! Golden store archives: the writer's output, pinned byte for byte.
//!
//! `golden/store_*.mdz` are version-2 archives of the frames in
//! `support/golden.rs`: ADP, VQ and MT, each in `f64` and `f32`, written by
//! [`write_store`], plus `store_adp_f64_appended.mdz`, extended by
//! [`append_store`]. The three ADP fixtures store the axis payloads their
//! trials find LZ77 does not shrink; `store_adp_*_lz77_only.mdz` keep their
//! bytes from before a trial could store one, and are only decoded. They
//! were written with
//!
//! ```text
//! MDZ_BLESS=1 cargo test -p mdz-store --test golden_archives
//! ```
//!
//! after the writer began keeping each axis stream's level grid and ADP
//! candidate across epoch anchors; the `archive.rs` unit tests check that
//! its records equal those of one compressor per axis fed every buffer in
//! stream order. A writer that splits the work differently must still
//! reproduce them, on any number of cores. Regenerate them only together
//! with an intentional change to the format or to the encoder's decisions.

use std::path::PathBuf;

use mdz_core::{Decompressor, ErrorBound, Frame, MdzConfig, Method};
use mdz_store::archive::{record_at, split_container};
use mdz_store::{
    append_store, write_store, ArchiveIndex, MemIo, Precision, StoreOptions, StoreReader,
};

include!("support/golden.rs");

/// Compares `bytes` with the fixture `name` (or rewrites it under
/// `MDZ_BLESS`), then checks that the archive decodes to `frames` within
/// the bound, so a fixture can only pin a working archive.
fn check_golden(name: &str, bytes: &[u8], frames: &[Frame]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.mdz"));
    if std::env::var_os("MDZ_BLESS").is_some() {
        std::fs::write(&path, bytes).unwrap();
    }
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden archive {path:?}: {e}; run with MDZ_BLESS=1"));
    if let Some(at) = golden.iter().zip(bytes).position(|(g, b)| g != b) {
        panic!("{name}: writer output differs from the golden archive at byte {at}");
    }
    assert_eq!(bytes.len(), golden.len(), "{name}: writer output length differs");
    check_decodes(name, bytes, frames);
}

/// Checks that the archive `bytes` decodes to `frames` within the bound.
fn check_decodes(name: &str, bytes: &[u8], frames: &[Frame]) {
    let decoded = StoreReader::open(bytes.to_vec()).unwrap().read_frames(0..frames.len()).unwrap();
    for (want, got) in frames.iter().zip(&decoded) {
        for (a, b) in [(&want.x, &got.x), (&want.y, &got.y), (&want.z, &got.z)] {
            for (a, b) in a.iter().zip(b) {
                // 1e-3 of the widest per-buffer axis range (< 10) bounds
                // every block's ε.
                assert!((a - b).abs() <= 1e-2, "{name}: {a} decoded as {b}");
            }
        }
    }
}

#[test]
fn write_store_reproduces_the_golden_archives() {
    let frames = golden_frames(GOLDEN_FRAMES, 1);
    for (name, method, f32) in GOLDEN_CREATED {
        let opts = golden_options(method, f32);
        let bytes = write_store(&frames, &golden_elements(), &golden_comments(), &opts).unwrap();
        check_golden(name, &bytes, &frames);
    }
}

#[test]
fn append_store_reproduces_the_golden_appended_archive() {
    let opts = golden_options(Method::Adaptive, false);
    let mut frames = golden_frames(GOLDEN_FRAMES, 1);
    frames.truncate(GOLDEN_APPEND_BASE);
    let comments = &golden_comments()[..GOLDEN_APPEND_BASE];
    let base = write_store(&frames, &golden_elements(), comments, &opts).unwrap();
    let extra = golden_frames(GOLDEN_FRAMES, 2);
    let mut io = MemIo::new(base);
    let report = append_store(&mut io, &extra, &opts).unwrap();
    assert_eq!(report.n_frames, GOLDEN_APPEND_BASE + GOLDEN_FRAMES);
    frames.extend(extra);
    check_golden(GOLDEN_APPENDED, &io.into_bytes(), &frames);
}

#[test]
fn adp_archives_written_before_stored_payloads_still_read() {
    // The ADP fixtures as the writer left them before a trial could store
    // a payload: every axis block LZ77-coded. The writer no longer
    // produces these bytes, but archives holding them are real inputs.
    let read = |name: &str| {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/{name}_lz77_only.mdz"));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let index = ArchiveIndex::parse(&bytes).unwrap();
        for block in &index.blocks {
            for axis in split_container(record_at(&bytes, block.offset).unwrap()).unwrap() {
                assert!(!Decompressor::inspect(axis).unwrap().stored, "{name}: a stored block");
            }
        }
        bytes
    };
    let frames = golden_frames(GOLDEN_FRAMES, 1);
    check_decodes("store_adp_f64", &read("store_adp_f64"), &frames);
    check_decodes("store_adp_f32", &read("store_adp_f32"), &frames);
    let mut frames = frames[..GOLDEN_APPEND_BASE].to_vec();
    frames.extend(golden_frames(GOLDEN_FRAMES, 2));
    check_decodes(GOLDEN_APPENDED, &read(GOLDEN_APPENDED), &frames);
}

#[test]
fn an_append_to_an_archive_written_before_stored_payloads_stores_from_its_next_trial() {
    // The pre-change appended fixture holds its base archive as written:
    // the base's footer is still there, as dead padding, up to the first
    // appended record.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/{GOLDEN_APPENDED}_lz77_only.mdz"));
    let old = std::fs::read(&path).unwrap();
    let base_blocks = GOLDEN_APPEND_BASE / GOLDEN_BUFFER_SIZE;
    let base = old[..ArchiveIndex::parse(&old).unwrap().blocks[base_blocks].offset].to_vec();
    assert_eq!(ArchiveIndex::parse(&base).unwrap().n_frames, GOLDEN_APPEND_BASE);

    // Trials every 6 blocks: block 0, in the base, chose LZ77; block 6
    // is the appended segment's first trial.
    let mut opts = golden_options(Method::Adaptive, false);
    opts.cfg.adapt_interval = 6;
    let extra = golden_frames(GOLDEN_FRAMES, 2);
    let mut io = MemIo::new(base);
    append_store(&mut io, &extra, &opts).unwrap();
    let bytes = io.into_bytes();
    let index = ArchiveIndex::parse(&bytes).unwrap();
    let stored: Vec<bool> = index.blocks[base_blocks..]
        .iter()
        .map(|block| {
            let axes = split_container(record_at(&bytes, block.offset).unwrap()).unwrap();
            let forms = axes.map(|axis| Decompressor::inspect(axis).unwrap().stored);
            assert!(forms.iter().all(|&f| f == forms[0]), "axes differ: {forms:?}");
            forms[0]
        })
        .collect();
    assert_eq!(stored, [false, false, true, true, true, true]);

    let mut frames = golden_frames(GOLDEN_FRAMES, 1)[..GOLDEN_APPEND_BASE].to_vec();
    frames.extend(extra);
    check_decodes("appended to a pre-change archive", &bytes, &frames);
}
