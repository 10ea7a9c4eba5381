//! Crash-consistency sweep for the append/footer-flip protocol.
//!
//! For every storage operation an append performs, and for every fault
//! flavour (failed op, lost unsynced writes, torn write), inject a crash at
//! that point and prove that reopening the disk image through the recovery
//! scan yields *either* the pre-append archive *or* the post-append archive
//! — byte-for-byte identical decoded frames, never an error, never a mix —
//! and that `recover_store` truncates the tail to the published footer.

use mdz_core::{ErrorBound, Frame, MdzConfig, MdzError, Method};
use mdz_store::{
    append_store, create_store, recover_store, verify_archive, ArchiveIndex, FaultIo, FaultMode,
    FaultPlan, MemIo, Precision, StoreOptions, StoreReader,
};

const BASE_FRAMES: usize = 16;
const APPEND_FRAMES: usize = 12;
const N_ATOMS: usize = 20;
const BUFFER_SIZE: usize = 4;

fn synth_frames(start: usize, count: usize) -> Vec<Frame> {
    (start..start + count)
        .map(|t| {
            let gen = |axis: usize| -> Vec<f64> {
                (0..N_ATOMS)
                    .map(|i| {
                        let p = (i * 3 + axis) as f64;
                        p + (t as f64 * 0.37 + p * 0.11).sin() * 0.5
                    })
                    .collect()
            };
            Frame::new(gen(0), gen(1), gen(2))
        })
        .collect()
}

fn opts_for(method: Method, precision: Precision, epoch_interval: usize) -> StoreOptions {
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(method);
    let mut opts = StoreOptions::new(cfg);
    opts.buffer_size = BUFFER_SIZE;
    opts.epoch_interval = epoch_interval;
    opts.precision = precision;
    opts
}

fn frames_bits(frames: &[Frame]) -> Vec<u64> {
    let mut bits = Vec::new();
    for f in frames {
        for i in 0..f.len() {
            bits.push(f.x[i].to_bits());
            bits.push(f.y[i].to_bits());
            bits.push(f.z[i].to_bits());
        }
    }
    bits
}

fn decoded_bits(data: Vec<u8>) -> (usize, Vec<u64>) {
    let reader = StoreReader::open(data).expect("clean archive must open");
    let n = reader.index().n_frames;
    let frames = reader.read_frames(0..n).expect("clean archive must decode");
    (n, frames_bits(&frames))
}

/// Runs the full fault sweep for one configuration.
fn sweep(method: Method, precision: Precision, epoch_interval: usize) {
    let opts = opts_for(method, precision, epoch_interval);
    let base = synth_frames(0, BASE_FRAMES);
    let extra = synth_frames(BASE_FRAMES, APPEND_FRAMES);

    // Reference images: pre-append and (fault-free) post-append.
    let mut io = FaultIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let pre_bytes = io.disk_image();

    let mut io = FaultIo::new(pre_bytes.clone());
    let report = append_store(&mut io, &extra, &opts).expect("fault-free append");
    assert_eq!(report.appended_frames, APPEND_FRAMES);
    assert_eq!(report.recovered_bytes, 0);
    assert_eq!(report.n_frames, BASE_FRAMES + APPEND_FRAMES);
    let post_bytes = io.disk_image();
    let n_ops = io.ops_performed();
    assert!(n_ops >= 3, "append must at least write data, sync, write footer");
    assert_eq!(&post_bytes[..pre_bytes.len()], &pre_bytes[..], "append must be pure extension");

    let (pre_n, pre_bits) = decoded_bits(pre_bytes.clone());
    let (post_n, post_bits) = decoded_bits(post_bytes.clone());
    assert_eq!(pre_n, BASE_FRAMES);
    assert_eq!(post_n, BASE_FRAMES + APPEND_FRAMES);

    let modes = [FaultMode::FailOp, FaultMode::DropUnsynced, FaultMode::TornWrite];
    for fault_op in 0..n_ops {
        for mode in modes {
            let label = format!(
                "{method:?}/{precision:?}/K={epoch_interval} fault at op {fault_op} ({mode:?})"
            );
            let mut io = FaultIo::new(pre_bytes.clone());
            io.set_plan(FaultPlan { fault_op, mode, seed: 0x4d445a00 ^ fault_op as u64 });
            let err = append_store(&mut io, &extra, &opts)
                .expect_err(&format!("{label}: planned fault must surface"));
            assert!(matches!(err, MdzError::Io { .. }), "{label}: fault must map to Io, got {err}");
            assert!(io.has_crashed(), "{label}: fault must have fired");

            // Whatever survived the crash must recover to exactly pre or post.
            let image = io.disk_image();
            let (reader, report) = StoreReader::recover(image.clone())
                .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            let n = reader.index().n_frames;
            assert!(
                n == pre_n || n == post_n,
                "{label}: recovered {n} frames, want {pre_n} or {post_n}"
            );
            let frames = reader
                .read_frames(0..n)
                .unwrap_or_else(|e| panic!("{label}: recovered archive must decode: {e}"));
            let bits = frames_bits(&frames);
            let want = if n == pre_n { &pre_bits } else { &post_bits };
            assert_eq!(&bits, want, "{label}: recovered frames are not bit-exact pre/post");
            assert_eq!(
                report.valid_len + report.truncated_bytes,
                image.len(),
                "{label}: recovery accounting"
            );

            // recover_store must truncate the image to a verify-clean file.
            let mut disk = MemIo::new(image);
            let rec = recover_store(&mut disk).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(rec.valid_len, report.valid_len, "{label}: recover_store disagrees");
            let clean = disk.into_bytes();
            assert_eq!(clean.len(), rec.valid_len, "{label}: truncation length");
            let v = verify_archive(&clean)
                .unwrap_or_else(|f| panic!("{label}: recovered file fails verify: {f}"));
            assert_eq!(v.n_frames, n, "{label}: verify sees a different frame count");
            if n == pre_n {
                assert_eq!(clean, pre_bytes, "{label}: pre-state recovery must be byte-exact");
            } else {
                assert_eq!(clean, post_bytes, "{label}: post-state recovery must be byte-exact");
            }
        }
    }
}

#[test]
fn adaptive_f64_every_fault_point_recovers() {
    sweep(Method::Adaptive, Precision::F64, 1);
    sweep(Method::Adaptive, Precision::F64, 3);
}

#[test]
fn adaptive_f32_every_fault_point_recovers() {
    sweep(Method::Adaptive, Precision::F32, 3);
}

#[test]
fn vq_f64_every_fault_point_recovers() {
    sweep(Method::Vq, Precision::F64, 1);
    sweep(Method::Vq, Precision::F64, 3);
}

#[test]
fn vq_f32_every_fault_point_recovers() {
    sweep(Method::Vq, Precision::F32, 1);
}

/// The `epoch_interval` 3 sweeps append into an open decision epoch: their
/// 4-block base ends one block into the epoch that starts at block 3, so
/// the appended segment anchors at block 4, resumes that epoch's encode
/// decisions, and anchors again at the next decision epoch, block 6.
#[test]
fn k3_sweeps_append_into_an_open_decision_epoch() {
    let opts = opts_for(Method::Adaptive, Precision::F64, 3);
    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &synth_frames(0, BASE_FRAMES), &[], &[], &opts).expect("create");
    append_store(&mut io, &synth_frames(BASE_FRAMES, APPEND_FRAMES), &opts).expect("append");
    let index = ArchiveIndex::parse(&io.into_bytes()).expect("index");
    assert_eq!(index.epoch_starts, [0, 3, 4, 6]);
}

/// A crash mid-`create_store` (before the first footer is durable) leaves a
/// file with no published state at all; recovery must report it
/// unrecoverable rather than inventing an archive.
#[test]
fn crash_before_first_footer_is_unrecoverable() {
    let opts = opts_for(Method::Adaptive, Precision::F64, 2);
    let base = synth_frames(0, 8);
    let mut io = FaultIo::new(Vec::new());
    io.set_plan(FaultPlan { fault_op: 2, mode: FaultMode::DropUnsynced, seed: 1 });
    create_store(&mut io, &base, &[], &[], &opts).expect_err("planned fault");
    let image = io.disk_image();
    assert!(StoreReader::recover(image).is_err(), "no footer was ever durable");
}

/// Two stacked appends: a crash during the second append must recover to
/// the first-append state (the newest durable footer), not all the way back
/// to the original archive.
#[test]
fn crash_in_second_append_recovers_to_first_append() {
    let opts = opts_for(Method::Adaptive, Precision::F64, 2);
    let base = synth_frames(0, 8);
    let mid = synth_frames(8, 4);
    let tail = synth_frames(12, 4);

    let mut io = FaultIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let mut io = FaultIo::new(io.disk_image());
    append_store(&mut io, &mid, &opts).expect("first append");
    let after_first = io.disk_image();

    // Crash at the very first storage op of the second append.
    let mut io = FaultIo::new(after_first.clone());
    io.set_plan(FaultPlan { fault_op: 0, mode: FaultMode::TornWrite, seed: 7 });
    append_store(&mut io, &tail, &opts).expect_err("planned fault");
    let (reader, _) = StoreReader::recover(io.disk_image()).expect("recoverable");
    assert_eq!(reader.index().n_frames, 12, "must land on the first-append footer");
}
