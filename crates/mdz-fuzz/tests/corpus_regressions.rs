//! Replays the repository's `corpus/` of hostile-input regression seeds.
//!
//! Every `corpus/*.bin` file is a small crafted input that once exercised
//! (or still exercises) a dangerous decode path: forged length fields,
//! over-subscribed code tables, checksum mismatches, truncated containers.
//! The filename prefix selects the decode entry point; every seed must
//! produce a typed error — never a panic, never an allocation beyond the
//! replay budget.
//!
//! Regenerate the seeds with `MDZ_BLESS_CORPUS=1 cargo test -p mdz-fuzz
//! --test corpus_regressions` (the replay then runs against the fresh
//! files). New regression inputs found by the fuzz campaigns should be
//! added here with a matching prefix.

use std::fs;
use std::path::{Path, PathBuf};

use mdz_core::checksum::{crc32, fnv1a64};
use mdz_core::format::{BlockHeader, FLAGS_OFFSET, FLAG_BIT_ADAPTIVE, FLAG_STORED, MAGIC};
use mdz_core::{
    Compressor, DecodeLimits, Decompressor, ErrorBound, Frame, MdzConfig, MdzError, Method,
    QuantizerKind,
};
use mdz_entropy::{
    huffman_decode_at_limited, huffman_encode, range_decode_at_limited, range_encode, read_uvarint,
    write_uvarint, StreamLimits,
};
use mdz_fuzz::{stored_block, ContainerArchive, CountingAlloc};
use mdz_lossless::lz77;
use mdz_store::{
    append_store, write_store, ArchiveIndex, FaultIo, FaultMode, FaultPlan, FrameDecoder, MemIo,
    Precision, ReaderOptions, Request, StoreOptions, StoreReader,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Replay allocation budget per seed — orders of magnitude below what the
/// forged length fields in these seeds request.
const BUDGET: usize = 64 << 20;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("corpus")
}

fn tight_limits() -> DecodeLimits {
    DecodeLimits {
        max_snapshots: 1 << 10,
        max_values_per_snapshot: 1 << 16,
        max_total_values: 1 << 18,
        max_inner_bytes: 1 << 22,
    }
}

/// Dispatches a seed to its decode entry point; returns whether it errored.
fn replay(name: &str, bytes: &[u8]) -> bool {
    let stream_limits = StreamLimits::with_max_items(1 << 16);
    if name.starts_with("huffman_") {
        huffman_decode_at_limited(bytes, &mut 0, &stream_limits).is_err()
    } else if name.starts_with("range_") {
        range_decode_at_limited(bytes, &mut 0, &stream_limits).is_err()
    } else if name.starts_with("lz77_") {
        let mut out = Vec::new();
        lz77::decompress_into_limited(bytes, &mut out, &StreamLimits::with_max_items(1 << 20))
            .is_err()
    } else if name.starts_with("block_") {
        Decompressor::with_limits(tight_limits()).decompress_block(bytes).is_err()
    } else if name.starts_with("traj_") {
        // The container is the record of a one-frame archive; the store's
        // epoch decoder, which decodes the three axes of a whole epoch on
        // threads of their own, must reject it.
        let opts = ReaderOptions { limits: tight_limits() };
        StoreReader::with_options(ContainerArchive::new(1, 1).wrap(bytes), opts)
            .and_then(|r| r.read_frames(0..1))
            .is_err()
    } else if name.starts_with("fault_append_") {
        // Torn-append seeds carry a dual obligation: the strict open must
        // reject the file, AND the recovery scan must find the last valid
        // footer and read every frame it published.
        let opts = ReaderOptions { limits: tight_limits() };
        let strict_rejects = StoreReader::with_options(bytes.to_vec(), opts)
            .and_then(|r| {
                let n = r.index().n_frames;
                r.read_frames(0..n)
            })
            .is_err();
        let recovers = StoreReader::recover(bytes.to_vec())
            .and_then(|(r, _)| {
                let n = r.index().n_frames;
                r.read_frames(0..n)
            })
            .is_ok();
        strict_rejects && recovers
    } else if name.starts_with("live_append_") {
        // Live-ingest seeds: images a tailing reader may be handed while a
        // remote writer is appending (or after one crashed). Same dual
        // obligation as fault_append_, plus the live-reader one: a reader
        // that recovered the image and then *refreshes* from the very same
        // hostile bytes must see a no-op — never a regression, never an
        // error, and every published frame must decode.
        let opts = ReaderOptions { limits: tight_limits() };
        let strict_rejects = StoreReader::with_options(bytes.to_vec(), opts)
            .and_then(|r| {
                let n = r.index().n_frames;
                r.read_frames(0..n)
            })
            .is_err();
        let live_ok = StoreReader::recover(bytes.to_vec())
            .and_then(|(r, _)| {
                let n0 = r.index().n_frames;
                let report = r.refresh(bytes.to_vec())?;
                let frames = r.read_frames(0..report.n_frames)?;
                Ok(report.n_frames >= n0 && frames.len() == report.n_frames)
            })
            .unwrap_or(false);
        strict_rejects && live_ok
    } else if name.starts_with("net_") {
        // The event engine's incremental request framing, fed one byte at
        // a time (the worst-case trickle). Complete frames are parsed as
        // requests; the seed must surface a typed error somewhere in the
        // pipeline — an oversized length prefix (rejected before any
        // allocation for the announced body), a request body whose header
        // lies about its payload, or a stream that ends mid-frame (the
        // truncated tail the server classifies as malformed at EOF).
        let mut dec = FrameDecoder::new(1 << 16);
        let mut errored = false;
        'feed: for b in bytes {
            dec.push(std::slice::from_ref(b));
            loop {
                match dec.next_frame() {
                    Ok(Some(body)) => {
                        if Request::parse(&body).is_err() {
                            errored = true;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break 'feed;
                    }
                }
            }
        }
        errored || dec.has_partial()
    } else if name.starts_with("store_") {
        // Open parses the header + footer index; the read walks the block
        // records (FNV oracle) and the epoch decoder, so seeds may fail at
        // either stage.
        let opts = ReaderOptions { limits: tight_limits() };
        StoreReader::with_options(bytes.to_vec(), opts)
            .and_then(|r| {
                let n = r.index().n_frames;
                r.read_frames(0..n)
            })
            .is_err()
    } else {
        panic!("corpus file {name} has no known prefix");
    }
}

/// A stored block of one value whose 5000-byte payload is longer than the
/// inner budget of one value (40 + 4096 bytes).
fn over_budget_stored_block() -> Vec<u8> {
    let mut blk = Vec::new();
    BlockHeader {
        method: Method::Vq,
        flags: FLAG_STORED,
        n_snapshots: 1,
        n_values: 1,
        eps: 1e-3,
        radius: 512,
        grid: None,
    }
    .write(&mut blk);
    write_uvarint(&mut blk, 5000);
    blk.resize(blk.len() + 5000, 0x5A);
    blk
}

/// Writes the seed corpus. Each entry is deterministic, so blessing twice
/// produces byte-identical files.
fn bless(dir: &Path) {
    fs::create_dir_all(dir).unwrap();
    let put = |name: &str, bytes: Vec<u8>| fs::write(dir.join(name), bytes).unwrap();

    // A forged symbol count turned into an allocation request.
    let valid = huffman_encode(&(0..64u32).map(|i| i % 7).collect::<Vec<_>>());
    let mut pos = 0;
    read_uvarint(&valid, &mut pos).unwrap();
    let mut forged = Vec::new();
    write_uvarint(&mut forged, u64::MAX);
    forged.extend_from_slice(&valid[pos..]);
    put("huffman_forged_count.bin", forged);

    // Three length-1 codes: violates the Kraft inequality.
    let mut b = Vec::new();
    write_uvarint(&mut b, 4); // symbol count
    write_uvarint(&mut b, 3); // distinct symbols
    for (delta, len) in [(0u64, 1u8), (1, 1), (1, 1)] {
        write_uvarint(&mut b, delta);
        b.push(len);
    }
    write_uvarint(&mut b, 1); // payload length
    b.push(0);
    put("huffman_oversubscribed.bin", b);

    // Lengths {1, 3, 3} leave unassigned bit patterns: incomplete table.
    let mut b = Vec::new();
    write_uvarint(&mut b, 4);
    write_uvarint(&mut b, 3);
    for (delta, len) in [(0u64, 1u8), (1, 3), (1, 3)] {
        write_uvarint(&mut b, delta);
        b.push(len);
    }
    write_uvarint(&mut b, 1);
    b.push(0);
    put("huffman_incomplete.bin", b);

    // A zero delta duplicates the previous symbol.
    let mut b = Vec::new();
    write_uvarint(&mut b, 4);
    write_uvarint(&mut b, 2);
    for (delta, len) in [(5u64, 1u8), (0, 1)] {
        write_uvarint(&mut b, delta);
        b.push(len);
    }
    write_uvarint(&mut b, 1);
    b.push(0);
    put("huffman_duplicate_symbol.bin", b);

    // Forged range-coder symbol count.
    let valid = range_encode(&(0..64u32).map(|i| i % 5).collect::<Vec<_>>());
    let mut pos = 0;
    read_uvarint(&valid, &mut pos).unwrap();
    let mut forged = Vec::new();
    write_uvarint(&mut forged, u64::MAX);
    forged.extend_from_slice(&valid[pos..]);
    put("range_forged_count.bin", forged);

    // A model claiming 1000 entries in a 2-byte body.
    let mut b = Vec::new();
    write_uvarint(&mut b, 10); // symbol count
    b.push(0); // tag 0: full model follows
    write_uvarint(&mut b, 1000); // model entries
    b.extend_from_slice(&[1, 1]);
    put("range_giant_model.bin", b);

    // Forged LZ77 raw (decompressed) length.
    let valid = lz77::compress(&vec![0x42u8; 2000], lz77::Level::Default);
    let mut pos = 0;
    read_uvarint(&valid, &mut pos).unwrap();
    let mut forged = Vec::new();
    write_uvarint(&mut forged, u64::MAX);
    forged.extend_from_slice(&valid[pos..]);
    put("lz77_forged_rawlen.bin", forged);

    // A valid VQ block whose snapshot count is forged to 2^30.
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq);
    let snaps: Vec<Vec<f64>> = (0..6)
        .map(|t| (0..200).map(|i| (i % 10) as f64 * 2.5 + t as f64 * 1e-4).collect())
        .collect();
    let mut blk = Compressor::new(cfg).compress_buffer(&snaps).unwrap();
    let mut forged_m = Vec::new();
    write_uvarint(&mut forged_m, 1 << 30);
    // Header layout: magic(4) + version(1) + method(1) + flags(1), then M.
    for (i, byte) in forged_m.iter().enumerate() {
        blk[7 + i] = *byte;
    }
    put("block_forged_snapshots.bin", blk);

    // --- Bit-adaptive (version 2) blocks: the version/flag redundancy and
    // the per-region width table are enforced on every decode path.
    let ba_cfg = MdzConfig::new(ErrorBound::Absolute(1e-4))
        .with_method(Method::Vq)
        .with_quantizer(QuantizerKind::BitAdaptive { chunk: 4 });
    let ba = Compressor::new(ba_cfg).compress_buffer(&snaps).unwrap();

    // A v1 block with the bit-adaptive flag forged on: the version/flag
    // cross-check must reject it before any stage trusts the flag.
    let v1_cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq);
    let v1 = Compressor::new(v1_cfg).compress_buffer(&snaps).unwrap();
    let mut forged = v1.clone();
    forged[FLAGS_OFFSET] |= FLAG_BIT_ADAPTIVE;
    put("block_ba_forged_flag.bin", forged);

    // A bit-adaptive block with its flag stripped (version byte still 2):
    // the same cross-check fires in the other direction.
    let mut stripped = ba.clone();
    stripped[FLAGS_OFFSET] &= !FLAG_BIT_ADAPTIVE;
    put("block_ba_stripped_flag.bin", stripped);

    // A BA block re-stamped version 3, which means "stored": without the
    // stored flag it fails the stored cross-check.
    let mut vers = ba.clone();
    vers[MAGIC.len()] = 3;
    put("block_ba_wrong_version.bin", vers);

    // Truncated mid-payload: the width table / packed codes run dry.
    put("block_ba_truncated.bin", ba[..ba.len() * 3 / 4].to_vec());

    // --- Stored (version 3) blocks: the payload is the inner bytes as they
    // are, so the version/flag cross-check and the inner budget are all
    // that stand between a forged block and the stream parsers.
    let mut forged = v1.clone();
    forged[FLAGS_OFFSET] |= FLAG_STORED;
    put("block_stored_forged_flag.bin", forged);

    let mut stripped = stored_block();
    stripped[FLAGS_OFFSET] &= !FLAG_STORED;
    put("block_stored_stripped_flag.bin", stripped);

    // One value allows 4136 inner bytes; this payload is all there and
    // longer, so only the budget can reject it, before copying it.
    put("block_stored_over_budget.bin", over_budget_stored_block());

    // A version no reader knows, on an otherwise valid v1 block.
    let mut unknown = v1;
    unknown[MAGIC.len()] = 4;
    put("block_unknown_version.bin", unknown);

    // A trajectory container whose first axis length points past the end.
    let mut b = b"MDZT".to_vec();
    write_uvarint(&mut b, 1000);
    put("traj_truncated_axis.bin", b);

    // --- Network framing: the event engine's incremental request decoder
    // (`net_` seeds replay against `FrameDecoder` + `Request::parse`).
    let frame_req = |req: &Request| -> Vec<u8> {
        let body = req.encode();
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&body);
        out
    };

    // A length prefix announcing a 4 GiB body: rejected from the four
    // prefix bytes alone, before any buffer for the body exists.
    let mut b = u32::MAX.to_le_bytes().to_vec();
    b.extend_from_slice(&[0u8; 16]);
    put("net_oversized_len.bin", b);

    // A correctly framed APPEND whose header claims 2^40 frames in a
    // 42-byte body: the framing layer accepts it, so request parsing must
    // reject the count/length disagreement before allocating frames.
    let mut body = Request::Append {
        precision: Precision::F64,
        frames: vec![Frame::new(vec![1.0], vec![2.0], vec![3.0])],
    }
    .encode();
    body[2..10].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    put("net_append_forged_count.bin", framed);

    // A valid GET cut mid-body: the stream ends holding a partial frame —
    // the truncated tail the server classifies as malformed at EOF.
    let get = frame_req(&Request::Get { start: 3, end: 9 });
    put("net_trickle_truncated.bin", get[..get.len() - 5].to_vec());

    // Two complete requests coalesced ahead of an oversized prefix: both
    // must decode and parse before the sticky framing error fires.
    let mut b = frame_req(&Request::Info);
    b.extend_from_slice(&frame_req(&Request::Stats));
    b.extend_from_slice(&(1u32 << 30).to_le_bytes());
    b.extend_from_slice(&[0xAB; 8]);
    put("net_coalesced_oversized.bin", b);

    // --- Indexed store archives (version 2): footer and keyframe tampers.
    let store_frames: Vec<Frame> = (0..10)
        .map(|t| {
            let axis =
                |p: usize| (0..40).map(|i| ((i * p) % 9) as f64 * 1.5 + t as f64 * 1e-4).collect();
            Frame::new(axis(1), axis(2), axis(3))
        })
        .collect();
    let mut sopts =
        StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq));
    sopts.buffer_size = 3;
    sopts.epoch_interval = 2;
    let valid = write_store(&store_frames, &[], &[], &sopts).unwrap();
    let trailer = valid.len() - 17; // crc32(4) + payload_len(8) + version(1) + magic(4)

    // Footer CRC flipped: the index must be rejected before it is trusted.
    let mut bad = valid.clone();
    bad[trailer] ^= 0xFF;
    put("store_footer_bad_crc.bin", bad);

    // Footer frame count forged to u64::MAX *with a recomputed CRC*, so the
    // forged count survives the checksum and must be stopped by the
    // block-count cross-check instead of becoming an allocation request.
    let payload_len =
        u64::from_le_bytes(valid[trailer + 4..trailer + 12].try_into().unwrap()) as usize;
    let payload_start = trailer - payload_len;
    let mut pos = payload_start;
    read_uvarint(&valid, &mut pos).unwrap(); // skip the real frame count
    let mut payload = Vec::new();
    write_uvarint(&mut payload, u64::MAX);
    payload.extend_from_slice(&valid[pos..trailer]);
    let mut forged = valid[..payload_start].to_vec();
    forged.extend_from_slice(&payload);
    forged.extend_from_slice(&crc32(&payload).to_le_bytes());
    forged.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    forged.push(2); // footer version
    forged.extend_from_slice(b"MDZI");
    put("store_footer_forged_count.bin", forged);

    // Trailer cut mid-way: too short to even locate the footer.
    put("store_truncated_footer.bin", valid[..valid.len() - 9].to_vec());

    // One bit in a block record body: the FNV record checksum must catch it.
    let index = ArchiveIndex::parse(&valid).unwrap();
    let rec = index.blocks[0].offset;
    let mut pos = rec;
    let rec_len = read_uvarint(&valid, &mut pos).unwrap() as usize;
    let body = pos + 8; // past the stored checksum
    let mut bad = valid.clone();
    bad[body + 4] ^= 0x01;
    put("store_block_bad_checksum.bin", bad);

    // Keyframe container with a forged axis length *and* a recomputed record
    // checksum: hostile bytes that reach the epoch decoder itself. The
    // container opens with "MDZT"; the axis-0 length uvarint right after it
    // is replaced with ~2^35, which must fail the bounds check rather than
    // turn into an allocation.
    let mut bad = valid.clone();
    bad[body + 4..body + 9].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
    let sum = fnv1a64(&bad[body..body + rec_len]);
    bad[pos..pos + 8].copy_from_slice(&sum.to_le_bytes());
    put("store_keyframe_forged_axis.bin", bad);

    // --- Torn appends: archives whose tail died mid-append. The strict
    // open must reject them, but `StoreReader::recover` must walk back to
    // the last durable footer and serve its frames in full.
    let mut aopts =
        StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq));
    aopts.buffer_size = 2;
    aopts.epoch_interval = 2;
    let appendable = write_store(&store_frames, &[], &[], &aopts).unwrap();
    let pre_len = appendable.len();
    let mut io = MemIo::new(appendable);
    append_store(&mut io, &store_frames[..4], &aopts).unwrap();
    let appended = io.into_bytes();

    // Cut inside the appended footer's trailer: the new generation was
    // never published, so recovery lands on the pre-append footer.
    put("fault_append_torn_footer.bin", appended[..appended.len() - 9].to_vec());

    // Cut mid-way through the appended block records.
    let cut = pre_len + (appended.len() - pre_len) / 3;
    put("fault_append_partial_block.bin", appended[..cut].to_vec());

    // A completed append followed by tail garbage (a crashed *next* append
    // that never reached its footer): recovery keeps the whole append.
    let mut garbage = appended.clone();
    garbage.extend_from_slice(b"\xde\xad\xbe\xefscratch bytes from a dead append\x00\x00");
    put("fault_append_garbage_tail.bin", garbage);

    // --- Live ingest: hostile images a tailing reader can be handed while
    // a remote writer appends (or after one crashed mid-append). Beyond
    // the strict-rejects/recover-serves dual obligation, the replay also
    // refreshes a recovered reader from these bytes and demands a no-op.
    let live_base = write_store(&store_frames, &[], &[], &aopts).unwrap();
    let mut io = MemIo::new(live_base.clone());
    append_store(&mut io, &store_frames[..4], &aopts).unwrap();
    let live_appended = io.into_bytes();

    // A remote (server-side) append whose footer write was torn by a
    // crash: the appended blocks are all present and synced, but the new
    // generation was never published. Recovery must land on the
    // pre-append footer. The fault plan is deterministic, so blessing is
    // reproducible; the footer write is the third-from-last storage op
    // (write footer · sync · — the final sync never runs).
    let n_ops = {
        let mut dry = FaultIo::new(live_base.clone());
        append_store(&mut dry, &store_frames[..4], &aopts).unwrap();
        dry.ops_performed()
    };
    let mut torn = FaultIo::new(live_base.clone());
    torn.set_plan(FaultPlan {
        fault_op: n_ops - 2,
        mode: FaultMode::TornWrite,
        seed: 0x6c69_7665_5f61_7070,
    });
    append_store(&mut torn, &store_frames[..4], &aopts).unwrap_err();
    put("live_append_torn_remote.bin", torn.disk_image());

    // A stale copy of the *pre-append* footer duplicated at the tail —
    // what a buggy writer replaying an old generation would leave — cut
    // inside its trailing magic. A complete duplicate would parse as a
    // valid regressed archive (which `StoreReader::refresh` rejects via
    // its monotone-extension check, unit-tested in mdz-store); the strict
    // open only rejects the truncated form, so that is what the corpus
    // pins. Recovery must serve the real (appended) footer before it.
    let base_trailer = live_base.len() - 17;
    let base_payload_len =
        u64::from_le_bytes(live_base[base_trailer + 4..base_trailer + 12].try_into().unwrap())
            as usize;
    let old_footer = &live_base[base_trailer - base_payload_len..];
    let mut dup = live_appended.clone();
    dup.extend_from_slice(&old_footer[..old_footer.len() - 2]);
    put("live_append_duplicate_footer.bin", dup);

    // Garbage tail containing a forged footer trailer — correct magic,
    // version byte, and a plausible payload length, but a bogus CRC. The
    // recovery scan must not be fooled by the embedded magic and must
    // keep walking back to the genuine footer.
    let mut fooled = live_appended.clone();
    fooled.extend_from_slice(b"leftover frames from a dead writer");
    fooled.extend_from_slice(&0xdead_beefu32.to_le_bytes()); // bogus crc32
    fooled.extend_from_slice(&24u64.to_le_bytes()); // plausible payload len
    fooled.push(2); // footer version
    fooled.extend_from_slice(b"MDZI");
    put("live_append_garbage_follower.bin", fooled);
}

#[test]
fn corpus_seeds_all_error_within_budget() {
    let dir = corpus_dir();
    if std::env::var("MDZ_BLESS_CORPUS").is_ok() {
        bless(&dir);
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| {
            panic!(
                "corpus directory {} unreadable ({e}); regenerate with MDZ_BLESS_CORPUS=1",
                dir.display()
            )
        })
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus is empty; regenerate with MDZ_BLESS_CORPUS=1");
    for path in entries {
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let bytes = fs::read(&path).unwrap();
        let live_before = CountingAlloc::live();
        CountingAlloc::reset_peak();
        let errored = replay(&name, &bytes);
        let used = CountingAlloc::peak().saturating_sub(live_before);
        assert!(errored, "{name}: crafted hostile input decoded successfully");
        assert!(used <= BUDGET, "{name}: replay allocated {used} bytes (budget {BUDGET})");
    }

    // The over-budget stored payload is refused by the budget itself,
    // before the decoder copies (or allocates room for) its 5000 bytes:
    // the replay allocates nothing past the 4136-byte budget.
    let bytes = fs::read(dir.join("block_stored_over_budget.bin")).unwrap();
    assert_eq!(bytes, over_budget_stored_block());
    let live_before = CountingAlloc::live();
    CountingAlloc::reset_peak();
    let got = Decompressor::with_limits(tight_limits()).decompress_block(&bytes);
    let used = CountingAlloc::peak().saturating_sub(live_before);
    assert_eq!(got, Err(MdzError::LimitExceeded { what: "stored payload length", limit: 4136 }));
    assert!(used <= 4136, "the decoder allocated {used} bytes before refusing the payload");
}
