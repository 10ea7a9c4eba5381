//! Incremental frame decoding over real sockets against the event engine:
//! a request trickled one byte at a time, many requests coalesced into one
//! TCP segment, and an oversized length prefix rejected with a typed error
//! before any body allocation.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::protocol::{read_message, write_message, Request, Status};
use mdz_store::{write_store, Server, ServerConfig, StoreOptions, StoreReader};

fn make_archive() -> Vec<u8> {
    let frames: Vec<Frame> = (0..16)
        .map(|t| {
            let axis: Vec<f64> = (0..8).map(|i| i as f64 + t as f64 * 1e-3).collect();
            Frame::new(axis.clone(), axis.clone(), axis)
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    write_store(&frames, &[], &[], &opts).unwrap()
}

fn spawn(
    cfg: ServerConfig,
) -> (std::net::SocketAddr, mdz_store::ServerHandle, std::thread::JoinHandle<()>) {
    let reader = StoreReader::open(make_archive()).unwrap();
    let server = Server::bind(reader, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn epoll_cfg() -> ServerConfig {
    ServerConfig { threads: 2, ..ServerConfig::default() }
}

#[test]
fn one_byte_trickle_is_reassembled_into_a_request() {
    let (addr, handle, join) = spawn(epoll_cfg());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();

    let body = Request::Get { start: 2, end: 6 }.encode();
    let mut framed = Vec::new();
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&body);
    // One byte per write, with a pause so each byte really is its own
    // segment arriving at the decoder.
    for &b in &framed {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = read_message(&mut stream, 1 << 28).unwrap().expect("response");
    assert_eq!(response.first(), Some(&(Status::Ok as u8)));
    let (start, frames) = mdz_store::protocol::parse_frames(&response).unwrap();
    assert_eq!((start, frames.len()), (2, 4));

    drop(stream);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn coalesced_requests_in_one_segment_each_get_a_response() {
    let (addr, handle, join) = spawn(epoll_cfg());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Many small requests in a single write: one TCP segment, many frames.
    let mut burst = Vec::new();
    let n = 32;
    for _ in 0..n {
        let body = Request::Info.encode();
        burst.extend_from_slice(&(body.len() as u32).to_le_bytes());
        burst.extend_from_slice(&body);
    }
    stream.write_all(&burst).unwrap();
    for _ in 0..n {
        let response = read_message(&mut stream, 1 << 28).unwrap().expect("response");
        assert_eq!(response.first(), Some(&(Status::Ok as u8)));
        let info = mdz_store::protocol::parse_info(&response).unwrap();
        assert_eq!(info.n_frames, 16);
    }

    drop(stream);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_length_prefix_gets_a_typed_error_then_the_connection_dies() {
    let reader = StoreReader::open(make_archive()).unwrap();
    let registry = reader.recorder();
    let server = Server::bind(reader, "127.0.0.1:0", epoll_cfg()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Announce a body far past any budget. The server must answer from the
    // prefix alone — no body follows, and none is ever allocated.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let response = read_message(&mut stream, 1 << 28).unwrap().expect("error response");
    assert_eq!(response.first(), Some(&(Status::BadRequest as u8)));
    assert!(registry.counter("server.requests.bad") >= 1);
    assert!(registry.counter("server.status.bad_request") >= 1);

    // Resync is impossible: the connection must be closed by the server.
    let mut rest = Vec::new();
    let eof = stream.read_to_end(&mut rest);
    assert!(eof.is_ok() && rest.is_empty(), "expected EOF after the error response");

    drop(stream);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn truncated_frame_at_eof_is_answered_as_malformed() {
    let (addr, handle, join) = spawn(epoll_cfg());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // A healthy request, then a frame that dies mid-body.
    write_message(&mut stream, &Request::Stats.encode()).unwrap();
    let ok = read_message(&mut stream, 1 << 28).unwrap().expect("stats response");
    assert_eq!(ok.first(), Some(&(Status::Ok as u8)));
    stream.write_all(&10u32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let response = read_message(&mut stream, 1 << 28).unwrap().expect("error response");
    assert_eq!(response.first(), Some(&(Status::BadRequest as u8)));

    drop(stream);
    handle.shutdown();
    join.join().unwrap();
}
