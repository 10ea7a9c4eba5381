//! Schema validation for `BENCH_throughput.json`.
//!
//! By default this test runs the throughput experiment at Test scale with
//! one repetition and validates the JSON it writes. When the
//! `MDZ_BENCH_JSON` environment variable points at an existing file —
//! `scripts/verify.sh` sets it to the artifact the `experiments` binary
//! just produced — that file is validated instead, so the smoke check
//! exercises the real CLI path.

use mdz_bench::experiments::{self, Ctx};
use mdz_bench::json::Json;
use mdz_sim::Scale;

fn validate(doc: &Json) {
    for key in ["experiment", "scale", "dataset", "compress_path", "decompress_path"] {
        assert!(doc.get(key).and_then(Json::as_str).is_some(), "missing string field {key}");
    }
    assert_eq!(doc.get("experiment").unwrap().as_str(), Some("throughput"));
    assert_eq!(doc.get("compress_path").unwrap().as_str(), Some("create_store"));
    for key in ["raw_bytes", "buffer_snapshots", "epoch_buffers", "reps", "hardware_threads"] {
        let v = doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {key}"));
        assert!(v > 0.0, "{key} must be positive, got {v}");
    }
    let entries = doc.get("entries").and_then(Json::as_array).expect("entries array");
    let codecs: Vec<&str> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| e.get("codec").and_then(Json::as_str).unwrap_or_else(|| panic!("entry {i}")))
        .collect();
    assert_eq!(codecs, ["ADP", "VQ", "VQT", "MT"], "one entry per codec, in report order");
    for (i, e) in entries.iter().enumerate() {
        for key in ["compress_mbps", "decompress_mbps", "ratio"] {
            let v = e.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {key}"));
            assert!(v.is_finite() && v > 0.0, "entry {i}: {key} = {v}");
        }
        assert!(e.get("ratio").unwrap().as_f64().unwrap() > 1.0, "entry {i}: CR below 1");
        for side in ["compress_timing", "decompress_timing"] {
            let t = e.get(side).unwrap_or_else(|| panic!("entry {i}: missing {side}"));
            let min = t.get("min_seconds").and_then(Json::as_f64).expect("min_seconds");
            let median = t.get("median_seconds").and_then(Json::as_f64).expect("median_seconds");
            let mean = t.get("mean_seconds").and_then(Json::as_f64).expect("mean_seconds");
            assert!(min > 0.0 && min <= median, "entry {i}: min {min} > median {median}");
            assert!(mean >= min, "entry {i}: mean {mean} < min {min}");
        }
    }

    // The per-stage scalar-vs-SIMD breakdown added with the kernel
    // dispatch: a backend name, the five pipeline stages in order, and a
    // caveat when the host ran scalar kernels on both arms.
    let simd = doc.get("simd").expect("missing simd breakdown");
    let backend = simd.get("backend").and_then(Json::as_str).expect("simd.backend");
    assert!(
        ["scalar", "sse4.1", "avx2", "neon"].contains(&backend),
        "unknown simd backend {backend}"
    );
    assert!(
        simd.get("force_scalar_override").and_then(Json::as_str).is_some(),
        "missing simd.force_scalar_override"
    );
    if backend == "scalar" {
        assert!(
            simd.get("caveat").and_then(Json::as_str).is_some(),
            "scalar backend must carry a host-feature caveat"
        );
    }
    let stages = simd.get("stages").and_then(Json::as_array).expect("simd.stages");
    let names: Vec<&str> =
        stages.iter().map(|s| s.get("stage").and_then(Json::as_str).expect("stage name")).collect();
    assert_eq!(
        names,
        [
            "encode.predict_quantize",
            "encode.entropy",
            "encode.lossless",
            "decode.lossless",
            "decode.reconstruct"
        ],
        "unexpected stage set"
    );
    for (i, s) in stages.iter().enumerate() {
        for key in ["scalar_seconds", "simd_seconds", "speedup"] {
            let v = s
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("stage {i}: missing {key}"));
            assert!(v.is_finite() && v > 0.0, "stage {i}: {key} = {v}");
        }
    }
}

#[test]
fn throughput_json_schema() {
    if let Ok(path) = std::env::var("MDZ_BENCH_JSON") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        validate(&Json::parse(&text).expect("valid JSON"));
        return;
    }
    let dir = std::env::temp_dir().join(format!("mdz_throughput_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ctx = Ctx::new(Scale::Test, dir.clone(), 42).with_reps(1);
    let tables = experiments::run("throughput", &mut ctx).expect("throughput experiment");
    assert!(!tables.is_empty() && !tables[0].rows.is_empty());
    let text = std::fs::read_to_string(dir.join("BENCH_throughput.json")).expect("JSON written");
    validate(&Json::parse(&text).expect("valid JSON"));
    let _ = std::fs::remove_dir_all(&dir);
}
