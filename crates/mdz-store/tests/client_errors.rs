//! Client error-path coverage: connection refused, a connection dying
//! mid-response, a BUSY server, and a request deadline each surface a
//! *typed* error, and the retry policy retries exactly the transient ones.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::protocol::{encode_error, read_message, write_message};
use mdz_store::{
    connect_with_retry, get_with_retry, write_store, Client, ClientError, Obs, Registry,
    RetryPolicy, RetryStage, Server, ServerConfig, Status, StoreOptions, StoreReader,
};

fn test_policy(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        seed: 0xc11e47,
    }
}

/// A single-purpose fake server: accepts connections, reads one framed
/// request per connection, and lets `respond` write whatever bytes it
/// wants before closing. Returns the address and a shared accept counter.
fn fake_server(
    connections: usize,
    respond: impl Fn(&mut TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, Arc<AtomicUsize>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepts);
    let join = std::thread::spawn(move || {
        for _ in 0..connections {
            let Ok((mut stream, _)) = listener.accept() else { return };
            counter.fetch_add(1, Ordering::SeqCst);
            // Consume the request so the eventual close is a clean FIN and
            // the client reliably sees our response bytes.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = read_message(&mut stream, 64);
            respond(&mut stream);
        }
    });
    (addr, accepts, join)
}

#[test]
fn connection_refused_is_io_and_retried_at_connect_stage() {
    // Bind then immediately drop: nothing listens on this port.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    match Client::connect(addr).map(|_| ()) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected Io, got {other:?}"),
    }

    // The same failure through the retry layer: connect errors are
    // transient, so every allowed retry is spent (and counted).
    let registry = Arc::new(Registry::new());
    let obs = Obs::new(Arc::clone(&registry) as Arc<dyn mdz_obs::Recorder>);
    let policy = test_policy(2);
    match connect_with_retry(addr, &policy, &obs) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected Io after retries, got {:?}", other.err()),
    }
    assert_eq!(registry.counter("client.retries"), 2);

    // The identical error at the Request stage must NOT be retried: the
    // request may already have executed server-side.
    let io_err = ClientError::Io("broken pipe".into());
    assert!(policy.should_retry(&io_err, RetryStage::Connect));
    assert!(!policy.should_retry(&io_err, RetryStage::Request));
}

#[test]
fn mid_response_disconnect_is_io_and_never_retried() {
    // The server hangs up after reading the request: once after
    // advertising a 100-byte response and sending 10 of its bytes, once
    // before writing anything at all.
    let cut_mid_body: fn(&mut TcpStream) = |stream| {
        let _ = stream.write_all(&100u32.to_le_bytes());
        let _ = stream.write_all(&[0u8; 10]);
    };
    let close_before_reply: fn(&mut TcpStream) = |_| {};
    for (what, respond) in [("mid-body", cut_mid_body), ("before the reply", close_before_reply)] {
        let (addr, accepts, join) = fake_server(1, respond);
        let registry = Arc::new(Registry::new());
        let obs = Obs::new(Arc::clone(&registry) as Arc<dyn mdz_obs::Recorder>);
        let err =
            get_with_retry(addr, 0..4, &test_policy(3), &obs).expect_err("a hang-up must fail");
        match err {
            ClientError::Io(_) => {}
            other => panic!("{what}: expected Io, got {other:?}"),
        }
        // One accept and no retry: a connection dying mid-request is not
        // transient — the request may have half-executed — so the policy
        // must not retry it.
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "{what}");
        assert_eq!(registry.counter("client.retries"), 0, "{what}");
        join.join().unwrap();
    }
}

#[test]
fn busy_response_is_typed_and_retried_only_when_the_policy_allows() {
    let busy = |stream: &mut TcpStream| {
        let _ = write_message(stream, &encode_error(Status::Busy, "shed"));
    };

    // No retries: exactly one attempt, typed BUSY error out.
    let (addr, accepts, join) = fake_server(1, busy);
    let err =
        get_with_retry(addr, 0..4, &test_policy(0), &Obs::noop()).expect_err("BUSY must surface");
    match &err {
        ClientError::Server { status: Status::Busy, .. } => {}
        other => panic!("expected BUSY, got {other:?}"),
    }
    assert_eq!(accepts.load(Ordering::SeqCst), 1);
    join.join().unwrap();

    // BUSY is retried: the policy spends every retry (1 + 2 attempts)
    // before giving up on a persistently busy server.
    let (addr, accepts, join) = fake_server(3, busy);
    let registry = Arc::new(Registry::new());
    let obs = Obs::new(Arc::clone(&registry) as Arc<dyn mdz_obs::Recorder>);
    let err =
        get_with_retry(addr, 0..4, &test_policy(2), &obs).expect_err("still busy after retries");
    assert!(matches!(err, ClientError::Server { status: Status::Busy, .. }));
    assert_eq!(accepts.load(Ordering::SeqCst), 3);
    assert_eq!(registry.counter("client.retries"), 2);
    join.join().unwrap();
}

#[test]
fn request_deadline_surfaces_a_typed_timeout() {
    // A server that accepts, reads the request, and never answers.
    let (addr, _accepts, join) = fake_server(1, |stream| {
        // Hold the connection open until the client has timed out.
        let mut buf = [0u8; 1];
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.read(&mut buf);
    });

    let mut client = Client::connect(addr).unwrap();
    client
        .set_timeouts(Some(Duration::from_millis(100)), Some(Duration::from_millis(100)))
        .unwrap();
    let err = client.get(0..4).expect_err("no response must time out");
    match &err {
        ClientError::Timeout(_) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    // Timeouts are transient at every stage: the policy may retry them.
    let policy = test_policy(1);
    assert!(policy.should_retry(&err, RetryStage::Connect));
    assert!(policy.should_retry(&err, RetryStage::Request));
    drop(client);
    join.join().unwrap();
}

/// A response refused for its size leaves its body on the socket. The
/// client then closes the connection, so its next call fails with an I/O
/// error instead of reading that body as the reply to another request.
#[test]
fn a_refused_response_closes_the_connection() {
    let frames: Vec<Frame> = (0..16)
        .map(|t| {
            let axis = |a: usize| (0..8).map(|i| (i * 3 + a) as f64 + t as f64 * 0.01).collect();
            Frame::new(axis(0), axis(1), axis(2))
        })
        .collect();
    let opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    let archive = write_store(&frames, &[], &[], &opts).unwrap();
    let server =
        Server::bind(StoreReader::open(archive).unwrap(), "127.0.0.1:0", ServerConfig::default())
            .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    // 16 frames of 8 atoms are a 3097-byte GET body; an INFO reply fits.
    let mut client = Client::connect(addr).unwrap().with_max_response_bytes(1000);
    let deadline = Some(Duration::from_secs(10));
    client.set_timeouts(deadline, deadline).unwrap();
    match client.get(0..16) {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected Protocol, got {other:?}"),
    }
    match client.info() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected Io after the refused response, got {other:?}"),
    }
    handle.shutdown();
    join.join().unwrap();
}
