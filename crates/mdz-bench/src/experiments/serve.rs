//! Server-throughput benchmark: a load generator drives the server with C
//! concurrent loopback connections × a fixed pipelining depth, and reports
//! sustained requests/second plus p50/p99 request latency per cell.
//!
//! Not a paper artifact: the paper's pipeline compresses offline. This
//! experiment sizes the serving layer the store grew into. Each cell boots
//! a fresh in-process server so its metrics are exactly the cell's
//! traffic; after the cell drains, the generator cross-checks the server's
//! `server.request_seconds` histogram count against the number of requests
//! it completed — the two are independent tallies of the same stream, so
//! any disagreement means dropped or double-counted requests
//! (`accounting_exact` in the JSON). Closed-loop cells keep `depth`
//! requests in flight per connection; the open-burst cell writes every
//! request before reading any response (unbounded in-flight), probing the
//! incremental decoder and write-queue backpressure. The machine-readable
//! `BENCH_server.json` is schema-checked by `tests/server_json.rs` and
//! `scripts/verify.sh`.

use super::Ctx;
use crate::harness::TimingSummary;
use crate::json::Json;
use crate::table::{fmt, Table};
use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_sim::Scale;
use mdz_store::protocol::{read_message, write_message, Request, Status};
use mdz_store::{write_store, Server, ServerConfig, StoreOptions, StoreReader};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Frames in the served archive. Small on purpose: every GET decodes from
/// a warm cache, so cells measure the request machinery, not decompression.
const N_FRAMES: usize = 64;
/// Atoms per frame (a GET of [`SPAN`] frames answers ~1.5 KiB).
const N_ATOMS: usize = 16;
/// Frames per GET request.
const SPAN: usize = 4;
/// Requests kept in flight per connection in closed-loop cells.
const DEPTH: usize = 4;

/// One measured (mode × concurrency) cell.
struct Cell {
    mode: &'static str,
    connections: usize,
    depth: usize,
    requests: usize,
    wall_seconds: f64,
    requests_per_second: f64,
    latency: TimingSummary,
    accounting_exact: bool,
}

/// Load-generator sweep; writes `BENCH_server.json` alongside the usual
/// CSV.
pub fn serve(ctx: &mut Ctx) -> Vec<Table> {
    let image = archive_image();
    let concurrencies: Vec<usize> =
        if matches!(ctx.scale, Scale::Test) { vec![1, 4] } else { vec![1, 64, 1024] };

    let mut cells = Vec::new();
    for &c in &concurrencies {
        let per_client = requests_per_client(ctx.scale, c);
        cells.push(run_cell(&image, c, per_client, DEPTH));
    }
    // One open-burst cell at a mid concurrency: every request written
    // before any response is read.
    let c_open = *concurrencies.iter().filter(|&&c| c <= 64).max().unwrap_or(&1);
    cells.push(run_cell(&image, c_open, requests_per_client(ctx.scale, c_open), 0));

    write_json(ctx, &cells);

    let mut table = Table::new(
        &format!("Server throughput ({N_FRAMES} frames × {N_ATOMS} atoms, GETs of {SPAN})"),
        &["mode", "conns", "depth", "requests", "req/s", "p50 ms", "p99 ms", "exact"],
    );
    for cell in &cells {
        table.row(vec![
            cell.mode.to_string(),
            cell.connections.to_string(),
            cell.depth.to_string(),
            cell.requests.to_string(),
            fmt(cell.requests_per_second),
            fmt(cell.latency.p50 * 1e3),
            fmt(cell.latency.p99 * 1e3),
            cell.accounting_exact.to_string(),
        ]);
    }
    vec![ctx.emit("serve", table)]
}

/// Per-connection request budget: smaller at high concurrency so every
/// cell finishes in bounded wall time on a small host.
fn requests_per_client(scale: Scale, connections: usize) -> usize {
    if matches!(scale, Scale::Test) {
        16
    } else if connections <= 1 {
        256
    } else if connections <= 64 {
        32
    } else {
        4
    }
}

/// A deterministic synthetic archive (no dataset generation: the serving
/// layer is the thing under test, so the payload just has to be stable).
fn archive_image() -> Vec<u8> {
    let frames: Vec<Frame> = (0..N_FRAMES)
        .map(|t| {
            let gen = |axis: usize| -> Vec<f64> {
                (0..N_ATOMS)
                    .map(|i| {
                        let p = (i * 3 + axis) as f64;
                        p + (t as f64 * 0.31 + p * 0.17).sin() * 0.5
                    })
                    .collect()
            };
            Frame::new(gen(0), gen(1), gen(2))
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 8;
    opts.epoch_interval = 2;
    write_store(&frames, &[], &[], &opts).expect("write archive")
}

/// Boots a fresh server, runs `connections` generator threads against it
/// (`depth` == 0 means open-burst), and measures the cell.
fn run_cell(image: &[u8], connections: usize, per_client: usize, depth: usize) -> Cell {
    let reader = StoreReader::open(image.to_vec()).expect("open archive");
    let registry = reader.recorder();
    let cfg = ServerConfig {
        threads: 2,
        max_connections: connections * 2 + 16,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let server = Server::bind(reader, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let serving = std::thread::spawn(move || server.run());

    let barrier = std::sync::Arc::new(Barrier::new(connections + 1));
    let clients: Vec<_> = (0..connections)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::Builder::new()
                // 1024 generator threads on a small host: keep stacks tiny.
                .stack_size(128 << 10)
                .spawn(move || {
                    barrier.wait();
                    run_client(addr, per_client, depth)
                })
                .expect("spawn generator")
        })
        .collect();

    barrier.wait();
    let t0 = Instant::now();
    let mut latencies = Vec::with_capacity(connections * per_client);
    for c in clients {
        let samples = c.join().expect("generator thread").expect("generator i/o");
        latencies.extend(samples);
    }
    let wall = t0.elapsed().as_secs_f64();
    let completed = latencies.len();
    assert_eq!(completed, connections * per_client, "a generator lost requests");

    // Independent cross-check: the server observed exactly one
    // request_seconds sample per completed request (the METRICS fetch
    // below is excluded — its snapshot is taken before it is accounted).
    let server_count = fetch_request_count(addr).expect("metrics fetch");
    let accounting_exact = server_count == completed as u64;

    handle.shutdown();
    serving.join().expect("server thread").expect("server run");
    // The registry must agree with the wire-fetched snapshot once drained.
    debug_assert!(registry.counter("server.requests.get") >= completed as u64);

    Cell {
        mode: if depth == 0 { "open-burst" } else { "closed" },
        connections,
        depth: if depth == 0 { per_client } else { depth },
        requests: completed,
        wall_seconds: wall,
        requests_per_second: completed as f64 / wall.max(1e-12),
        latency: TimingSummary::from_samples(&latencies),
        accounting_exact,
    }
}

/// One generator connection: GETs of [`SPAN`] frames at rotating offsets.
/// `depth` > 0 keeps that many requests in flight (closed loop); `depth`
/// == 0 writes all `requests` first, then reads all responses
/// (open burst).
fn run_client(addr: SocketAddr, requests: usize, depth: usize) -> io::Result<Vec<f64>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(300)))?;
    stream.set_nodelay(true)?;
    let encode = |i: usize| {
        let start = (i * SPAN) % (N_FRAMES - SPAN);
        Request::Get { start: start as u64, end: (start + SPAN) as u64 }.encode()
    };
    let max_inflight = if depth == 0 { requests } else { depth };
    let mut sent = 0usize;
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(max_inflight);
    let mut latencies = Vec::with_capacity(requests);
    while latencies.len() < requests {
        while sent < requests && inflight.len() < max_inflight {
            write_message(&mut stream, &encode(sent))?;
            inflight.push_back(Instant::now());
            sent += 1;
        }
        let body = read_message(&mut stream, 1 << 20)?
            .ok_or_else(|| io::Error::other("server closed mid-cell"))?;
        if body.first() != Some(&(Status::Ok as u8)) {
            return Err(io::Error::other(format!("non-OK response: {:?}", body.first())));
        }
        let sent_at = inflight.pop_front().expect("response without a request");
        latencies.push(sent_at.elapsed().as_secs_f64());
    }
    Ok(latencies)
}

/// Fetches `server.request_seconds.count` over the wire via METRICS.
fn fetch_request_count(addr: SocketAddr) -> io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write_message(&mut stream, &Request::Metrics.encode())?;
    let body = read_message(&mut stream, 1 << 26)?
        .ok_or_else(|| io::Error::other("server closed during METRICS"))?;
    let snapshot = mdz_store::protocol::parse_metrics(&body).map_err(io::Error::other)?;
    Ok(snapshot.histogram("server.request_seconds").map(|h| h.count).unwrap_or(0))
}

fn write_json(ctx: &Ctx, cells: &[Cell]) {
    let timing = |t: &TimingSummary| {
        Json::obj(vec![
            ("min_seconds", Json::Num(t.min)),
            ("median_seconds", Json::Num(t.median)),
            ("mean_seconds", Json::Num(t.mean)),
            ("p50_seconds", Json::Num(t.p50)),
            ("p99_seconds", Json::Num(t.p99)),
            ("samples", Json::Num(t.reps as f64)),
        ])
    };
    let cell_docs: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("mode", Json::Str(c.mode.into())),
                ("connections", Json::Num(c.connections as f64)),
                ("pipeline_depth", Json::Num(c.depth as f64)),
                ("requests", Json::Num(c.requests as f64)),
                ("wall_seconds", Json::Num(c.wall_seconds)),
                ("requests_per_second", Json::Num(c.requests_per_second)),
                ("latency", timing(&c.latency)),
                ("accounting_exact", Json::Bool(c.accounting_exact)),
            ])
        })
        .collect();
    let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let doc = Json::obj(vec![
        ("experiment", Json::Str("serve".into())),
        ("scale", Json::Str(format!("{:?}", ctx.scale).to_lowercase())),
        ("n_frames", Json::Num(N_FRAMES as f64)),
        ("n_atoms", Json::Num(N_ATOMS as f64)),
        ("get_span_frames", Json::Num(SPAN as f64)),
        (
            "host",
            Json::obj(vec![
                ("hw_threads", Json::Num(hw_threads as f64)),
                ("os", Json::Str(std::env::consts::OS.into())),
                (
                    "caveats",
                    Json::Str(
                        "loopback TCP on a shared host; generator threads and server shards \
                         contend for the same cores, so absolute req/s undercounts what the \
                         server sustains on dedicated hardware"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("cells", Json::Arr(cell_docs)),
    ]);
    let path = ctx.out_dir.join("BENCH_server.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
