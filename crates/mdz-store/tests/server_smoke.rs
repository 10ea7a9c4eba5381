//! Loopback smoke tests for the serving layer: real sockets, real
//! worker pool, typed error statuses, counters, clean shutdown.

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::{
    write_store, Client, ClientError, Server, ServerConfig, Status, StoreOptions, StoreReader,
};

fn make_reader(n_frames: usize, n_atoms: usize) -> StoreReader {
    let frames: Vec<Frame> = (0..n_frames)
        .map(|t| {
            let axis = |off: f64| -> Vec<f64> {
                (0..n_atoms).map(|i| (i % 4) as f64 * 2.0 + t as f64 * 1e-3 + off).collect()
            };
            Frame::new(axis(0.0), axis(1.0), axis(2.0))
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    let data = write_store(&frames, &[], &[], &opts).unwrap();
    StoreReader::open(data).unwrap()
}

#[test]
fn loopback_get_stats_info_and_shutdown() {
    let reader = make_reader(24, 6);
    let local = reader.clone();
    let server = Server::bind(
        reader,
        "127.0.0.1:0",
        ServerConfig { threads: 2, max_frames_per_request: 16, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();

    // INFO reflects the archive geometry.
    let info = client.info().unwrap();
    assert_eq!(info.version, 2);
    assert_eq!(info.n_frames, 24);
    assert_eq!(info.n_atoms, 6);
    assert_eq!(info.buffer_size, 4);
    assert_eq!(info.epoch_interval, 2);
    assert_eq!(info.n_blocks, 6);

    // GET returns exactly what a local read returns.
    let got = client.get(5..13).unwrap();
    assert_eq!(got, local.read_frames(5..13).unwrap());
    let single = client.get(23..24).unwrap();
    assert_eq!(single.len(), 1);

    // Typed errors: out of range, span budget, inverted range.
    match client.get(20..30) {
        Err(ClientError::Server { status: Status::OutOfRange, .. }) => {}
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    match client.get(0..17) {
        Err(ClientError::Server { status: Status::LimitExceeded, .. }) => {}
        other => panic!("expected LimitExceeded, got {other:?}"),
    }

    // STATS counted every request (info + 2 ok gets + 2 failed gets + …).
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 5);
    assert!(stats.bytes_out > 0);
    assert!(stats.cache_misses >= 1);

    drop(client);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_share_the_cache() {
    let reader = make_reader(32, 5);
    let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let expected: Vec<Vec<Frame>> = {
        let mut probe = Client::connect(addr).unwrap();
        (0..4).map(|i| probe.get(i * 8..i * 8 + 8).unwrap()).collect()
    };
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..3 {
                    let i = (w + round) % 4;
                    assert_eq!(client.get(i * 8..i * 8 + 8).unwrap(), expected[i]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    // 4 probe reads + 12 worker reads (the in-flight STATS call is counted
    // after its snapshot is taken).
    assert_eq!(stats.requests, 16);
    // Every epoch was decoded at least once but the cache absorbed most
    // reads (4 epochs; races may decode an epoch twice).
    assert!(stats.cache_hits >= 8, "cache hits {}", stats.cache_hits);

    drop(client);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_frames_get_a_typed_error() {
    use mdz_store::protocol::{read_message, write_message, Status};
    use std::io::Write;
    use std::net::TcpStream;

    let reader = make_reader(8, 4);
    let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    // Unknown opcode → BadRequest, connection stays usable.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_message(&mut s, &[0xEE]).unwrap();
        let body = read_message(&mut s, 1 << 16).unwrap().unwrap();
        assert_eq!(body[0], Status::BadRequest as u8);
    }
    // Oversized frame → BadRequest, then the server hangs up.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(10_000u32).to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10_000]).unwrap();
        let body = read_message(&mut s, 1 << 16).unwrap().unwrap();
        assert_eq!(body[0], Status::BadRequest as u8);
        assert!(read_message(&mut s, 1 << 16).unwrap().is_none());
    }

    handle.shutdown();
    join.join().unwrap();
}
