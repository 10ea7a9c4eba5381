//! Overload-hardening and admission tests for the server: the accept
//! backlog absorbs a connection burst, a 1024-connection pipelined burst
//! and a 64-connection open burst are answered in full and each request is
//! counted once by `server.request_seconds`, the connection cap sheds load
//! with a typed BUSY instead of stalling, `server.net.connections` reports
//! the admitted count, a reader that stops draining its socket trips write
//! backpressure and is disconnected by the write deadline while other
//! connections keep serving, silent connections are reaped by the idle
//! deadline, and shutdown drains connected-but-idle clients promptly.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::protocol::{parse_frames, read_message, write_message};
use mdz_store::{
    write_store, Client, ClientError, Registry, Request, RetryPolicy, Server, ServerConfig,
    ServerHandle, Status, StoreOptions, StoreReader,
};

fn make_archive(n_frames: usize, n_atoms: usize) -> Vec<u8> {
    let frames: Vec<Frame> = (0..n_frames)
        .map(|t| {
            let axis = |off: f64| -> Vec<f64> {
                (0..n_atoms).map(|i| (i % 4) as f64 * 2.0 + t as f64 * 1e-3 + off).collect()
            };
            Frame::new(axis(0.0), axis(1.0), axis(2.0))
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)));
    opts.buffer_size = 8;
    opts.epoch_interval = 2;
    write_store(&frames, &[], &[], &opts).unwrap()
}

fn spawn(
    cfg: ServerConfig,
    n_frames: usize,
    n_atoms: usize,
) -> (std::net::SocketAddr, ServerHandle, Arc<Registry>, std::thread::JoinHandle<()>) {
    let reader = StoreReader::open(make_archive(n_frames, n_atoms)).unwrap();
    let registry = reader.recorder();
    let server = Server::bind(reader, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, registry, join)
}

/// Polls `registry` until `counter >= want` or the deadline passes.
fn wait_counter(registry: &Registry, counter: &str, want: u64, deadline: Duration) -> u64 {
    let start = Instant::now();
    loop {
        let got = registry.counter(counter);
        if got >= want || start.elapsed() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Under `std`'s listen backlog of 128, connect 130 of a burst times out
/// against a listener that has not accepted yet. The server raises the
/// backlog to the kernel cap; this test assumes that cap
/// (`net.core.somaxconn`, 4096 by default on Linux since 5.4) is ≥ 300.
#[test]
#[cfg(target_os = "linux")]
fn accept_backlog_absorbs_a_connection_burst() {
    let reader = StoreReader::open(make_archive(16, 6)).unwrap();
    // Bound but never run: nothing accepts, so every connect must queue.
    let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let burst: Vec<TcpStream> = (1..=300)
        .map(|i| {
            TcpStream::connect_timeout(&addr, Duration::from_secs(1))
                .unwrap_or_else(|e| panic!("connect {i} of 300 failed: {e}"))
        })
        .collect();
    assert_eq!(burst.len(), 300);
}

/// Opens `connections` connections to a fresh server, then releases them
/// at once: each writes `depth` 4-frame GETs before it reads any reply, and
/// requires every reply, in order, to be the frames it asked for.
/// Returns the replies received and the server's `server.request_seconds`
/// count, fetched over METRICS (a METRICS snapshot is taken before its own
/// request is counted).
fn pipelined_burst(connections: usize, depth: usize) -> (usize, u64) {
    let cfg = ServerConfig {
        threads: 2,
        max_connections: connections + 16,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let (addr, handle, _registry, join) = spawn(cfg, 64, 16);
    let barrier = Arc::new(Barrier::new(connections));
    let clients: Vec<_> = (0..connections)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                // 1024 client threads on a small host: keep stacks small.
                .stack_size(256 << 10)
                .spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.set_nodelay(true).unwrap();
                    let timeout = Some(Duration::from_secs(120));
                    stream.set_read_timeout(timeout).unwrap();
                    stream.set_write_timeout(timeout).unwrap();
                    let starts: Vec<u64> = (0..depth).map(|i| ((c + i) * 4 % 60) as u64).collect();
                    barrier.wait();
                    for &start in &starts {
                        let request = Request::Get { start, end: start + 4 };
                        write_message(&mut stream, &request.encode()).unwrap();
                    }
                    for &start in &starts {
                        let body = read_message(&mut stream, 1 << 20).unwrap().expect("a reply");
                        let reply = parse_frames(&body);
                        assert!(
                            matches!(&reply, Ok((at, frames)) if *at == start && frames.len() == 4),
                            "connection {c}: {reply:?}"
                        );
                    }
                    starts.len()
                })
                .unwrap()
        })
        .collect();
    let replies = clients.into_iter().map(|t| t.join().unwrap()).sum();
    let metrics = Client::connect(addr).unwrap().metrics().unwrap();
    let counted = metrics.histogram("server.request_seconds").map_or(0, |h| h.count);
    handle.shutdown();
    join.join().unwrap();
    (replies, counted)
}

#[test]
fn a_1024_connection_pipelined_burst_is_answered_and_counted_exactly() {
    assert_eq!(pipelined_burst(1024, 4), (4096, 4096));
}

#[test]
fn a_64_connection_open_burst_is_answered_and_counted_exactly() {
    assert_eq!(pipelined_burst(64, 32), (2048, 2048));
}

#[test]
fn connection_gauge_reports_admitted_connections_across_ten_shards() {
    let cfg = ServerConfig { threads: 10, ..ServerConfig::default() };
    let (addr, handle, _registry, join) = spawn(cfg, 16, 6);
    let mut clients: Vec<Client> = (0..9).map(|_| Client::connect(addr).unwrap()).collect();
    for client in &mut clients {
        assert_eq!(client.get(0..2).unwrap().len(), 2);
    }
    // The 9 clients plus the connection asking. Shards refresh the gauge
    // on their next tick, so poll.
    let mut asking = Client::connect(addr).unwrap();
    let start = Instant::now();
    let gauge = loop {
        let gauge = asking.metrics().unwrap().gauge("server.net.connections");
        if gauge == Some(10) || start.elapsed() > Duration::from_secs(2) {
            break gauge;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(gauge, Some(10));

    drop(clients);
    drop(asking);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_cap_sheds_busy_then_recovers_when_a_slot_frees() {
    let cfg = ServerConfig { threads: 2, max_connections: 1, ..ServerConfig::default() };
    let (addr, handle, registry, join) = spawn(cfg, 16, 6);

    // Pin the only slot with a live connection.
    let mut pinned = Client::connect(addr).unwrap();
    assert_eq!(pinned.get(0..8).unwrap().len(), 8);

    // The next connection must be shed with a typed BUSY, not a hang.
    let mut overflow = Client::connect(addr).unwrap();
    match overflow.get(0..4) {
        Err(ClientError::Server { status: Status::Busy, .. }) => {}
        other => panic!("expected BUSY, got {other:?}"),
    }
    assert!(registry.counter("server.conn.rejected_busy") >= 1);
    assert!(registry.counter("server.status.busy") >= 1);

    // BUSY is retryable: once the pinned connection goes away, a
    // retry-enabled GET lands.
    drop(pinned);
    let policy = RetryPolicy {
        max_retries: 10,
        base: Duration::from_millis(20),
        cap: Duration::from_millis(200),
        seed: 42,
    };
    let frames = mdz_store::get_with_retry(addr, 0..8, &policy, &mdz_store::Obs::noop())
        .expect("retry must land once the slot frees");
    assert_eq!(frames.len(), 8);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stalled_reader_is_disconnected_while_others_keep_serving() {
    let cfg = ServerConfig {
        threads: 2,
        write_timeout: Duration::from_millis(300),
        // A small queue cap so the flood demonstrably trips backpressure
        // before the write deadline kills the stalled peer.
        max_write_buffer: 1 << 20,
        ..ServerConfig::default()
    };
    let (addr, handle, registry, join) = spawn(cfg, 64, 48);

    // A client that floods pipelined GETs and never drains its receive
    // side: the write queue hits the backpressure cap (the server stops
    // reading), the socket stays blocked, and the write deadline fires.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    let body = mdz_store::Request::Get { start: 0, end: 64 }.encode();
    let mut msg = Vec::new();
    msg.extend_from_slice(&(body.len() as u32).to_le_bytes());
    msg.extend_from_slice(&body);
    // ~64 frames × 48 atoms × 24 B ≈ 74 KiB per response; a few hundred
    // pipelined requests dwarf any default socket buffer.
    for _ in 0..400 {
        if stalled.write_all(&msg).is_err() {
            break; // server already killed us — that's the point
        }
    }

    let got = wait_counter(&registry, "server.conn.write_timeouts", 1, Duration::from_secs(20));
    assert!(got >= 1, "write deadline never fired for the stalled reader");
    assert!(
        registry.counter("server.net.backpressure_stalls") >= 1,
        "the flood must trip the write-buffer backpressure cap first"
    );

    // Other connections keep serving during and after the stall.
    let mut healthy = Client::connect(addr).unwrap();
    assert_eq!(healthy.get(0..16).unwrap().len(), 16);
    assert_eq!(healthy.get(32..64).unwrap().len(), 32);

    drop(stalled);
    drop(healthy);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn silent_connection_is_reaped_by_the_idle_deadline() {
    let cfg = ServerConfig {
        threads: 2,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, handle, registry, join) = spawn(cfg, 16, 6);

    let idle = std::net::TcpStream::connect(addr).unwrap();
    let got = wait_counter(&registry, "server.conn.idle_closed", 1, Duration::from_secs(10));
    assert!(got >= 1, "idle deadline never fired");

    // An active client is unaffected by the reaper.
    let mut live = Client::connect(addr).unwrap();
    assert_eq!(live.get(0..8).unwrap().len(), 8);

    drop(idle);
    drop(live);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_connected_idle_clients_promptly() {
    let cfg = ServerConfig { threads: 2, ..ServerConfig::default() };
    let (addr, handle, registry, join) = spawn(cfg, 16, 6);

    // A connected client that will never speak: shutdown must not wait for
    // its (long) idle deadline.
    let mut lingering = Client::connect(addr).unwrap();
    assert_eq!(lingering.get(0..4).unwrap().len(), 4);

    let start = Instant::now();
    handle.shutdown();
    join.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain took {:?}; must be bounded by the drain poll, not the idle deadline",
        start.elapsed()
    );
    assert!(registry.counter("server.drain.closed") >= 1);

    // The drained connection is really gone: the next request fails.
    assert!(lingering.get(0..4).is_err());
}
