//! A served APPEND writes the bytes an offline append writes.
//!
//! A one-block APPEND encodes on the shard thread that serves it, a longer
//! one on every hardware thread, as `append_store` does. A record depends
//! only on its frames and the decisions in force, never on the thread or
//! the worker count, so a file grown by APPENDs through a server equals,
//! byte for byte, a copy of the same base grown by `append_store` calls
//! with the same frames.

// The golden support file's fixture tables are not used here.
#![allow(dead_code)]

use std::path::PathBuf;

use mdz_core::{Decompressor, ErrorBound, Frame, MdzConfig, Method};
use mdz_store::archive::{record_at, split_container};
use mdz_store::{
    append_store, write_store, AppendSink, ArchiveIndex, Client, FileIo, Precision, Server,
    ServerConfig, StoreOptions, StoreReader,
};

include!("support/golden.rs");

/// A path in the temporary directory that no other test process uses.
fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mdz-served-append-{}-{name}.mdz", std::process::id()))
}

#[test]
fn a_served_append_writes_what_append_store_writes() {
    // The golden crystal, on which ADP's trials store the payload, with a
    // trial on the first block of every second epoch (blocks 0, 4, 8).
    let mut opts = golden_options(Method::Adaptive, false);
    opts.cfg.adapt_interval = 4;
    let frames = golden_frames(12 * GOLDEN_BUFFER_SIZE, 3);
    let base_frames = 2 * GOLDEN_BUFFER_SIZE;
    let base = write_store(&frames[..base_frames], &[], &[], &opts).unwrap();
    // Blocks 2–4 (across the decision-epoch start at block 4, a trial),
    // block 5 alone, then blocks 6–11 (epoch starts 6, 8 and 10).
    let segments = [(base_frames, 20), (20, 24), (24, frames.len())];

    let served = scratch_path("served");
    let offline = scratch_path("offline");
    std::fs::write(&served, &base).unwrap();
    std::fs::write(&offline, &base).unwrap();

    let reader = StoreReader::open(base).unwrap();
    let sink = AppendSink::new(Box::new(FileIo::open(&served).unwrap()), opts.clone());
    let server =
        Server::bind(reader, "127.0.0.1:0", ServerConfig { threads: 1, ..Default::default() })
            .unwrap()
            .with_append_sink(sink);
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let serving = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).unwrap();
    for &(from, to) in &segments {
        let ack = client.append(&frames[from..to], Precision::F64).expect("append acknowledged");
        assert_eq!((ack.start, ack.n_frames), (from as u64, to as u64));
    }
    handle.shutdown();
    serving.join().unwrap().unwrap();

    let mut io = FileIo::open(&offline).unwrap();
    for &(from, to) in &segments {
        append_store(&mut io, &frames[from..to], &opts).unwrap();
    }
    drop(io);

    let (got, want) = (std::fs::read(&served).unwrap(), std::fs::read(&offline).unwrap());
    std::fs::remove_file(&served).unwrap();
    std::fs::remove_file(&offline).unwrap();
    assert!(got == want, "the served file differs from the offline replay");

    // The comparison covers stored payloads: the appended trial blocks and
    // the blocks after them store their axis payloads.
    let index = ArchiveIndex::parse(&got).unwrap();
    let stored = index.blocks[2..]
        .iter()
        .flat_map(|block| split_container(record_at(&got, block.offset).unwrap()).unwrap())
        .filter(|axis| Decompressor::inspect(axis).unwrap().stored)
        .count();
    assert!(stored > 0, "no appended block stored its payload");
}
