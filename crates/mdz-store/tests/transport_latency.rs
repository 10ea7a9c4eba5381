//! Transport latency guard: a request/response round trip on one
//! connection must not stall behind Nagle's algorithm and delayed ACK.
//!
//! A client that writes a frame's length prefix and body separately on a
//! socket without `TCP_NODELAY` holds the body back until the server ACKs
//! the prefix, which a delayed-ACK server does only after ~40 ms. Loopback
//! round trips otherwise take well under a millisecond.

use std::time::{Duration, Instant};

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::{write_store, Client, Server, ServerConfig, StoreOptions, StoreReader};

#[test]
fn sequential_info_round_trips_do_not_stall() {
    let frames: Vec<Frame> = (0..8)
        .map(|t| {
            let axis: Vec<f64> = (0..4).map(|i| i as f64 + t as f64 * 1e-3).collect();
            Frame::new(axis.clone(), axis.clone(), axis)
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    let reader = StoreReader::open(write_store(&frames, &[], &[], &opts).unwrap()).unwrap();
    let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let mut samples: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(client.info().unwrap().n_frames, 8);
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    assert!(median < Duration::from_millis(10), "median INFO round trip {median:?}");

    drop(client);
    handle.shutdown();
    join.join().unwrap();
}
