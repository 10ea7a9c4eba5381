//! The server's wire contract, pinned by a golden response trace.
//!
//! [`script`] covers every verb, every typed error path, and APPEND under a
//! live sink. `golden/serve_trace.bin` holds the response to each of its
//! non-METRICS requests — a 4-byte little-endian length, then the body.
//! The threaded engine first wrote it, as the byte-identity oracle for the
//! reactor until the reactor became the only engine. When the archive
//! writer began keeping each axis stream's decisions across epoch anchors,
//! the archive's bytes and so the GET bodies moved; the reactor rewrote
//! the file, whose GET responses were checked bit for bit against a
//! sequential decode of the same archive, by
//!
//! ```text
//! cargo test -p mdz-store --test serve_trace -- --ignored write_golden_trace --nocapture
//! ```
//!
//! which also prints the [`GOLDEN_COUNTERS`] table. The server must
//! reproduce those bytes and that request accounting whether the script
//! arrives one round-trip at a time or pipelined in one burst. METRICS
//! responses embed wall-clock histograms, so they are checked through their
//! deterministic counters instead.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::protocol::{parse_metrics, read_message, write_message, Request};
use mdz_store::{
    create_store, AppendSink, MemIo, MetricsSnapshot, Precision, Server, ServerConfig, StoreIo,
    StoreOptions, StoreReader,
};

const N_ATOMS: usize = 10;
const BASE_FRAMES: usize = 16;

/// Counters a replay of [`script`] on a fresh server fully determines, as
/// the oracle recorded them: the value the first and the second METRICS
/// response report, then the value in the registry after shutdown.
const GOLDEN_COUNTERS: &[(&str, [u64; 3])] = &[
    ("server.requests.get", [6, 6, 6]),
    ("server.requests.stats", [2, 2, 2]),
    ("server.requests.info", [2, 2, 2]),
    ("server.requests.metrics", [0, 1, 2]),
    ("server.requests.append", [1, 1, 1]),
    ("server.requests.bad", [1, 1, 1]),
    ("server.status.ok", [8, 9, 10]),
    ("server.status.bad_request", [2, 2, 2]),
    ("server.status.out_of_range", [1, 1, 1]),
    ("server.status.limit_exceeded", [1, 1, 1]),
    ("server.status.busy", [0, 0, 0]),
    ("server.append.frames", [4, 4, 4]),
    ("server.append.blocks", [1, 1, 1]),
    ("store.bytes_in", [1088, 1089, 1090]),
    ("server.conn.accepted", [1, 1, 1]),
];

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

fn store_opts() -> StoreOptions {
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    opts
}

fn base_image() -> Vec<u8> {
    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &synth_frames(0, BASE_FRAMES), &[], &[], &store_opts()).unwrap();
    io.read_all().unwrap()
}

/// The script: every verb, every typed error path, and a post-append read
/// proving the appended frames were published.
fn script() -> Vec<Vec<u8>> {
    let n = BASE_FRAMES as u64;
    vec![
        Request::Info.encode(),
        Request::Stats.encode(),
        Request::Get { start: 0, end: 8 }.encode(),
        Request::Get { start: 3, end: n }.encode(),
        // start > end → BadRequest
        Request::Get { start: 5, end: 3 }.encode(),
        // span ≤ cap but past the archive end → OutOfRange
        Request::Get { start: n, end: n + 4 }.encode(),
        // span > max_frames_per_request → LimitExceeded
        Request::Get { start: 0, end: n + 100 }.encode(),
        // unknown opcode → BadRequest (parse error path)
        vec![0xEE, 1, 2, 3],
        Request::Append { precision: Precision::F64, frames: synth_frames(BASE_FRAMES, 4) }
            .encode(),
        // the appended tail must be readable through the same connection
        Request::Get { start: n, end: n + 4 }.encode(),
        Request::Info.encode(),
        Request::Stats.encode(),
        // METRICS comes after the last STATS: its length depends on the
        // metric vocabulary, and response lengths feed the bytes_out
        // counter that STATS reports.
        Request::Metrics.encode(),
        Request::Metrics.encode(),
    ]
}

fn is_metrics(request: &[u8]) -> bool {
    matches!(Request::parse(request), Ok(Request::Metrics))
}

fn trace_config() -> ServerConfig {
    ServerConfig { threads: 3, max_frames_per_request: BASE_FRAMES + 50, ..ServerConfig::default() }
}

struct Replay {
    responses: Vec<Vec<u8>>,
    /// The registry after shutdown.
    after: MetricsSnapshot,
}

/// Boots a fresh live server, sends the script over one connection — one
/// round-trip at a time, or every request before reading any response when
/// `pipelined` — and snapshots the registry after shutdown.
fn replay(pipelined: bool) -> Replay {
    let image = base_image();
    let reader = StoreReader::open(image.clone()).unwrap();
    let registry = reader.recorder();
    let server = Server::bind(reader, "127.0.0.1:0", trace_config())
        .unwrap()
        .with_append_sink(AppendSink::new(Box::new(MemIo::new(image)), store_opts()));
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let script = script();
    if pipelined {
        for request in &script {
            write_message(&mut stream, request).unwrap();
        }
    }
    let mut responses = Vec::new();
    for request in &script {
        if !pipelined {
            write_message(&mut stream, request).unwrap();
        }
        responses.push(read_message(&mut stream, 1 << 28).unwrap().expect("response"));
    }
    drop(stream);
    handle.shutdown();
    join.join().unwrap();
    Replay { responses, after: registry.snapshot() }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_trace.bin")
}

/// The golden file's layout: every non-METRICS response, length-prefixed.
fn trace_bytes(responses: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (request, response) in script().iter().zip(responses) {
        if !is_metrics(request) {
            out.extend_from_slice(&(response.len() as u32).to_le_bytes());
            out.extend_from_slice(response);
        }
    }
    out
}

fn golden_responses() -> Vec<Vec<u8>> {
    let bytes = std::fs::read(golden_path()).expect("golden/serve_trace.bin");
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        out.push(bytes[pos + 4..pos + 4 + len].to_vec());
        pos += 4 + len;
    }
    out
}

fn assert_matches_golden(replay: &Replay, label: &str) {
    let script = script();
    assert_eq!(replay.responses.len(), script.len(), "[{label}] response count");
    let mut golden = golden_responses().into_iter();
    let mut metrics_seen = 0;
    for (i, (request, response)) in script.iter().zip(&replay.responses).enumerate() {
        if is_metrics(request) {
            let snapshot = parse_metrics(response).expect("METRICS response");
            for &(name, want) in GOLDEN_COUNTERS {
                assert_eq!(
                    snapshot.counter(name),
                    want[metrics_seen],
                    "[{label}] METRICS slot {i} reports {name} off the golden accounting"
                );
            }
            metrics_seen += 1;
            continue;
        }
        let want = golden.next().expect("golden trace is missing a response");
        assert_eq!(
            response, &want,
            "[{label}] response {i} diverged from the golden trace (request {request:02x?})"
        );
    }
    assert!(golden.next().is_none(), "golden trace has responses the script never asked for");
    for &(name, want) in GOLDEN_COUNTERS {
        assert_eq!(replay.after.counter(name), want[2], "[{label}] final {name}");
    }
    // Every request produced exactly one request_seconds observation — the
    // accounting server_overload.rs cross-checks under a 1024-connection
    // burst.
    let observed = replay.after.histogram("server.request_seconds").map_or(0, |h| h.count);
    assert_eq!(observed, script.len() as u64, "[{label}] request_seconds.count");
}

#[test]
fn sequential_replay_matches_the_golden_trace() {
    assert_matches_golden(&replay(false), "sequential");
}

#[test]
fn pipelined_replay_matches_the_golden_trace() {
    assert_matches_golden(&replay(true), "pipelined");
}

/// Rewrites `golden/serve_trace.bin` from the current server and prints
/// the counter table for [`GOLDEN_COUNTERS`]. See the module docs.
#[test]
#[ignore = "rewrites the golden trace"]
fn write_golden_trace() {
    let replay = replay(false);
    std::fs::write(golden_path(), trace_bytes(&replay.responses)).unwrap();
    let metrics: Vec<MetricsSnapshot> = script()
        .iter()
        .zip(&replay.responses)
        .filter(|(request, _)| is_metrics(request))
        .map(|(_, response)| parse_metrics(response).unwrap())
        .collect();
    for &(name, _) in GOLDEN_COUNTERS {
        println!(
            "    ({name:?}, [{}, {}, {}]),",
            metrics[0].counter(name),
            metrics[1].counter(name),
            replay.after.counter(name)
        );
    }
}
