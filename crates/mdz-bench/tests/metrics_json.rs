//! Schema and accounting validation for the metrics snapshot
//! (`BENCH_metrics.json` / the METRICS protocol verb).
//!
//! By default this test drives a real loopback server against a shared
//! registry and checks that the fetched snapshot's request, cache, and
//! error counters exactly match the traffic it generated — including the
//! ADP winner counters recorded while *writing* the archive. When
//! `MDZ_BENCH_JSON` points at an existing file — `scripts/verify.sh` sets
//! it to the artifact `mdz stats --metrics --json` just produced — that
//! file is schema-validated instead, with exact expectations taken from
//! `MDZ_METRICS_EXPECT_*` environment variables.

use std::sync::Arc;

use mdz_bench::json::Json;
use mdz_core::{ErrorBound, Frame, MdzConfig, Obs};
use mdz_store::{
    write_store, Client, ReaderOptions, Registry, Server, ServerConfig, StoreOptions, StoreReader,
};

fn counters_of(doc: &Json) -> Vec<(String, f64)> {
    match doc.get("counters") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().expect("counter values are numbers")))
            .collect(),
        other => panic!("counters must be an object, got {other:?}"),
    }
}

fn counter(doc: &Json, name: &str) -> f64 {
    counters_of(doc)
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

/// Counters are monotone and only materialize on first increment, so a
/// counter that is absent from a snapshot is exactly zero.
fn counter_or_zero(doc: &Json, name: &str) -> f64 {
    counters_of(doc).iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0.0)
}

/// Structural checks every metrics document must pass, regardless of the
/// traffic that produced it.
fn validate_schema(doc: &Json) {
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("mdz-metrics-v1"));
    for (name, value) in counters_of(doc) {
        assert!(value >= 0.0 && value == value.trunc(), "counter {name} = {value}");
    }
    assert!(matches!(doc.get("gauges"), Some(Json::Obj(_))), "gauges must be an object");
    let histograms = doc.get("histograms").and_then(Json::as_array).expect("histograms array");
    for h in histograms {
        let name = h.get("name").and_then(Json::as_str).expect("histogram name");
        let count = h.get("count").and_then(Json::as_f64).expect("histogram count");
        assert!(count >= 1.0, "{name}: empty histograms are not snapshotted");
        let field = |key: &str| {
            h.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{name}: missing {key}"))
        };
        let (sum, min, max) = (field("sum"), field("min"), field("max"));
        let (p50, p99) = (field("p50"), field("p99"));
        assert!(min <= p50 && p50 <= p99 && p99 <= max, "{name}: {min} {p50} {p99} {max}");
        assert!(sum >= min && sum.is_finite(), "{name}: sum {sum}");
    }
    // The serving layer records a latency sample for every request it
    // counts, so the histogram and the counter must agree whenever the
    // snapshot contains served traffic at all.
    let requests = counter_or_zero(doc, "store.requests");
    if let Some(h) = histograms
        .iter()
        .find(|h| h.get("name").and_then(Json::as_str) == Some("server.request_seconds"))
    {
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(requests));
    }
}

fn env_expectation(var: &str) -> Option<f64> {
    std::env::var(var).ok().map(|v| v.parse::<f64>().unwrap_or_else(|e| panic!("{var}: {e}")))
}

#[test]
fn metrics_json_schema_and_traffic_accounting() {
    if let Ok(path) = std::env::var("MDZ_BENCH_JSON") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let doc = Json::parse(&text).expect("valid JSON");
        validate_schema(&doc);
        for (var, name) in [
            ("MDZ_METRICS_EXPECT_REQUESTS", "store.requests"),
            ("MDZ_METRICS_EXPECT_GETS", "server.requests.get"),
            ("MDZ_METRICS_EXPECT_CACHE_MISSES", "store.cache.misses"),
            ("MDZ_METRICS_EXPECT_CACHE_HITS", "store.cache.hits"),
            ("MDZ_METRICS_EXPECT_ERRORS", "store.decode_errors"),
        ] {
            if let Some(want) = env_expectation(var) {
                assert_eq!(counter_or_zero(&doc, name), want, "{name} vs {var}");
            }
        }
        return;
    }

    // Self-contained mode: one registry shared by the archive writer, the
    // reader, and the server, so the snapshot spans the whole stack.
    let registry = Arc::new(Registry::new());
    let frames: Vec<Frame> = (0..16)
        .map(|t| {
            let axis = |off: f64| -> Vec<f64> {
                (0..6).map(|i| (i % 4) as f64 * 2.0 + t as f64 * 1e-3 + off).collect()
            };
            Frame::new(axis(0.0), axis(1.0), axis(2.0))
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-4)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    opts.obs = Obs::new(registry.clone());
    let data = write_store(&frames, &[], &[], &opts).unwrap();

    // Writing 4 buffers × 3 axes through instrumented compressors.
    // `core.encode.buffers` counts encode *passes*: an ADP trial encodes
    // its buffer once per candidate method. Per axis: 1 trial (buffer 0;
    // the next would fall at buffer 50) × 3 candidates in the writer's
    // decide pass, then the 4 buffers in its encode pass = 7 passes.
    assert_eq!(registry.counter("core.encode.buffers"), 21);
    let trials = registry.counter("core.adp.trials");
    assert!(trials >= 3, "each axis runs at least one ADP trial, got {trials}");
    let wins: u64 = ["vq", "vqt", "mt", "mt2", "other"]
        .iter()
        .map(|m| registry.counter(&format!("core.adp.win.{m}")))
        .sum();
    assert_eq!(wins, trials, "every ADP trial records exactly one winner");

    let reader =
        StoreReader::with_registry(data, ReaderOptions::default(), registry.clone()).unwrap();
    let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.get(0..4).unwrap(); // buffer 0 (epoch 0's anchor): miss, 1 decode
    client.get(2..6).unwrap(); // buffer 0: hit; buffer 1: miss, anchor + itself
    client.get(8..12).unwrap(); // buffer 2 (epoch 1's anchor): miss, 1 decode
    client.stats().unwrap();
    let snapshot = client.metrics().unwrap();
    handle.shutdown();
    drop(client);
    join.join().unwrap();

    // Exact accounting: the METRICS request itself is not yet counted.
    assert_eq!(snapshot.counter("store.requests"), 4);
    assert_eq!(snapshot.counter("server.requests.get"), 3);
    assert_eq!(snapshot.counter("server.requests.stats"), 1);
    assert_eq!(snapshot.counter("server.requests.metrics"), 0);
    assert_eq!(snapshot.counter("server.status.ok"), 4);
    assert_eq!(snapshot.counter("store.cache.misses"), 3);
    assert_eq!(snapshot.counter("store.cache.hits"), 1);
    assert_eq!(snapshot.counter("store.buffers_decoded"), 4);
    assert_eq!(snapshot.counter("store.decode_errors"), 0);
    assert!(snapshot.counter("store.bytes_out") > 0);
    assert!(snapshot.counter("store.bytes_in") > 0);
    assert_eq!(snapshot.histogram("server.request_seconds").unwrap().count, 4);
    assert_eq!(snapshot.histogram("server.get_seconds").unwrap().count, 3);
    // Decoding 4 buffers (anchor 0 twice, buffers 1 and 2) × 3 axes.
    assert_eq!(snapshot.counter("core.decode.blocks"), 12);

    // The JSON rendering of the same snapshot passes the schema gate.
    let doc = Json::parse(&snapshot.to_json()).expect("to_json emits valid JSON");
    validate_schema(&doc);
    assert_eq!(counter(&doc, "store.requests"), 4.0);
}
