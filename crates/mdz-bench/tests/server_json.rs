//! Schema validation for `BENCH_server.json`.
//!
//! By default this test runs the serve experiment at Test scale — real
//! sockets, real generator threads — and validates the JSON
//! it writes. When `MDZ_BENCH_JSON` points at an existing file —
//! `scripts/verify.sh` sets it to the artifact the load generator just
//! produced, and the committed `results/BENCH_server.json` is validated
//! the same way — that file is validated instead.

use mdz_bench::experiments::{self, Ctx};
use mdz_bench::json::Json;
use mdz_sim::Scale;

fn validate(doc: &Json) {
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("serve"));
    let scale = doc.get("scale").and_then(Json::as_str).expect("scale").to_string();
    for key in ["n_frames", "n_atoms", "get_span_frames"] {
        let v = doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {key}"));
        assert!(v > 0.0, "{key} must be positive");
    }
    // Host caveats must be recorded: absolute numbers from a shared small
    // host are not server limits, and the artifact has to say so.
    let host = doc.get("host").expect("host");
    assert!(host.get("hw_threads").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    assert!(!host.get("caveats").and_then(Json::as_str).unwrap_or("").is_empty());

    let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
    assert!(!cells.is_empty(), "no cells measured");
    let mut max_conns = 0usize;
    for cell in cells {
        let mode = cell.get("mode").and_then(Json::as_str).expect("mode");
        assert!(matches!(mode, "closed" | "open-burst"), "unknown mode {mode}");
        let conns = cell.get("connections").and_then(Json::as_f64).expect("connections");
        let requests = cell.get("requests").and_then(Json::as_f64).expect("requests");
        let rps = cell.get("requests_per_second").and_then(Json::as_f64).expect("rps");
        assert!(
            conns >= 1.0 && requests >= conns,
            "cell too small: {conns} conns, {requests} reqs"
        );
        assert!(rps.is_finite() && rps > 0.0, "requests_per_second must be positive");
        max_conns = max_conns.max(conns as usize);
        let lat = cell.get("latency").expect("latency");
        let p50 = lat.get("p50_seconds").and_then(Json::as_f64).expect("p50");
        let p99 = lat.get("p99_seconds").and_then(Json::as_f64).expect("p99");
        let samples = lat.get("samples").and_then(Json::as_f64).expect("samples");
        assert!(p50 >= 0.0 && p50 <= p99, "p50 {p50} > p99 {p99}");
        assert_eq!(samples, requests, "one latency sample per request");
        // The independent-tally cross-check: the server's own
        // request_seconds count matched the generator's completion count.
        assert!(
            matches!(cell.get("accounting_exact"), Some(Json::Bool(true))),
            "server/request accounting diverged in a {mode} cell of {conns} connections"
        );
    }
    // Past Test scale the sweep must include the 1024-connection cell —
    // the concurrency claim the event loop exists for.
    if scale != "test" {
        assert!(max_conns >= 1024, "sweep topped out at {max_conns} connections");
    }
}

#[test]
fn server_json_schema() {
    if let Ok(path) = std::env::var("MDZ_BENCH_JSON") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        validate(&Json::parse(&text).expect("valid JSON"));
        return;
    }
    let dir = std::env::temp_dir().join(format!("mdz_server_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ctx = Ctx::new(Scale::Test, dir.clone(), 42);
    let tables = experiments::run("serve", &mut ctx).expect("serve experiment");
    assert!(!tables.is_empty() && !tables[0].rows.is_empty());
    let text = std::fs::read_to_string(dir.join("BENCH_server.json")).expect("JSON written");
    validate(&Json::parse(&text).expect("valid JSON"));
    let _ = std::fs::remove_dir_all(&dir);
}
