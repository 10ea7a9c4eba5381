//! `Client::pipeline`: many requests written before any response is read,
//! replies returned in order with *typed per-response* outcomes — one
//! request's application error must not disturb its neighbours.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use std::time::Duration;

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::{
    create_store, AppendSink, Client, ClientError, MemIo, Precision, Reply, Request, Server,
    ServerConfig, Status, StoreIo, StoreOptions, StoreReader,
};

const N_FRAMES: usize = 12;

fn synth_frames(start: usize, count: usize) -> Vec<Frame> {
    (start..start + count)
        .map(|t| {
            let axis: Vec<f64> = (0..6).map(|i| i as f64 * 2.0 + t as f64 * 1e-3).collect();
            Frame::new(axis.clone(), axis.clone(), axis)
        })
        .collect()
}

fn store_opts() -> StoreOptions {
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    opts
}

fn image() -> Vec<u8> {
    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &synth_frames(0, N_FRAMES), &[], &[], &store_opts()).unwrap();
    io.read_all().unwrap()
}

#[test]
fn pipeline_returns_in_order_typed_replies() {
    let image = image();
    let reader = StoreReader::open(image.clone()).unwrap();
    let cfg = ServerConfig { threads: 2, ..ServerConfig::default() };
    let server = Server::bind(reader, "127.0.0.1:0", cfg)
        .unwrap()
        .with_append_sink(AppendSink::new(Box::new(MemIo::new(image)), store_opts()));
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.set_timeouts(Some(Duration::from_secs(30)), Some(Duration::from_secs(30))).unwrap();
    let n = N_FRAMES as u64;
    let requests = vec![
        Request::Info,
        Request::Get { start: 0, end: 4 },
        // start > end → a typed BadRequest for this slot only
        Request::Get { start: 9, end: 2 },
        Request::Append { precision: Precision::F64, frames: synth_frames(N_FRAMES, 2) },
        // reads the frames the APPEND earlier in the same batch landed
        Request::Get { start: n, end: n + 2 },
        Request::Stats,
        Request::Metrics,
    ];
    let replies = client.pipeline(&requests).expect("transport must survive the batch");
    assert_eq!(replies.len(), requests.len());

    match &replies[0] {
        Ok(Reply::Info(info)) => assert_eq!(info.n_frames, n),
        other => panic!("slot 0: expected Info, got {other:?}"),
    }
    match &replies[1] {
        Ok(Reply::Frames { start, frames }) => {
            assert_eq!((*start, frames.len()), (0, 4));
        }
        other => panic!("slot 1: expected Frames, got {other:?}"),
    }
    match &replies[2] {
        Err(ClientError::Server { status: Status::BadRequest, .. }) => {}
        other => panic!("slot 2: expected a typed BadRequest, got {other:?}"),
    }
    match &replies[3] {
        Ok(Reply::Append(ack)) => assert_eq!(ack.n_frames, n + 2),
        other => panic!("slot 3: expected Append, got {other:?}"),
    }
    match &replies[4] {
        Ok(Reply::Frames { start, frames }) => {
            assert_eq!((*start, frames.len()), (n, 2));
        }
        other => panic!("slot 4: expected the appended tail, got {other:?}"),
    }
    match &replies[5] {
        Ok(Reply::Stats(stats)) => assert!(stats.requests >= 5),
        other => panic!("slot 5: expected Stats, got {other:?}"),
    }
    match &replies[6] {
        Ok(Reply::Metrics(snap)) => {
            assert!(snap.counter("server.requests.get") >= 3);
        }
        other => panic!("slot 6: expected Metrics, got {other:?}"),
    }

    drop(client);
    handle.shutdown();
    join.join().unwrap();
}
