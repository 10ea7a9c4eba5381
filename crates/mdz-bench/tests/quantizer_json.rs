//! Schema validation for `BENCH_quantizer.json`.
//!
//! By default this test runs the quantizer experiment at Test scale and
//! validates the JSON it writes. When `MDZ_BENCH_JSON` points at an
//! existing file — `scripts/verify.sh` sets it to the artifact the
//! `experiments` binary just produced — that file is validated instead.
//!
//! Beyond field presence, the schema encodes the experiment's claim: on
//! the non-crystal `Gas` corpus the adaptive pipeline with bit-adaptive
//! candidates must beat the linear-only pipeline's compression ratio
//! strictly, at the same bound, with the bound verified per value.

use mdz_bench::experiments::{self, Ctx};
use mdz_bench::json::Json;
use mdz_sim::Scale;

fn validate(doc: &Json) {
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("quantizer"));
    assert!(doc.get("scale").and_then(Json::as_str).is_some(), "missing scale");
    let bound = doc.get("bound_abs").and_then(Json::as_f64).expect("bound_abs");
    assert!(bound > 0.0 && bound.is_finite(), "bad bound {bound}");
    let bs = doc.get("buffer_snapshots").and_then(Json::as_f64).expect("buffer_snapshots");
    assert!(bs >= 1.0 && bs == bs.trunc(), "bad buffer size {bs}");

    let entries = doc.get("entries").and_then(Json::as_array).expect("entries array");
    assert!(!entries.is_empty(), "no entries");
    // (dataset, codec) -> ratio, collected while checking each entry.
    let mut ratios: Vec<(String, String, f64)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let dataset = e.get("dataset").and_then(Json::as_str).expect("dataset").to_string();
        let codec = e.get("codec").and_then(Json::as_str).expect("codec").to_string();
        for key in ["raw_bytes", "compressed_bytes", "ratio", "blocks"] {
            let v = e
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("entry {i}: missing {key}"));
            assert!(v.is_finite() && v > 0.0, "entry {i}: {key} = {v}");
        }
        let max_err = e.get("max_abs_err").and_then(Json::as_f64).expect("max_abs_err");
        assert!(
            max_err <= bound * (1.0 + 1e-9),
            "entry {i}: max error {max_err} exceeds bound {bound}"
        );
        assert_eq!(
            e.get("bound_ok"),
            Some(&Json::Bool(true)),
            "entry {i}: per-value bound check failed"
        );
        let ba = e.get("bit_adaptive_blocks").and_then(Json::as_f64).expect("bit_adaptive_blocks");
        let blocks = e.get("blocks").and_then(Json::as_f64).unwrap();
        assert!((0.0..=blocks).contains(&ba), "entry {i}: {ba} BA blocks of {blocks}");
        if !codec.contains("+BA") {
            assert_eq!(ba, 0.0, "entry {i}: linear-only codec emitted bit-adaptive blocks");
        }
        let ratio = e.get("ratio").and_then(Json::as_f64).unwrap();
        ratios.push((dataset, codec, ratio));
    }

    // The headline claim: strictly better ratio with bit-adaptive
    // candidates on the gas corpus at the same (verified) bound.
    let find = |dataset: &str, ba: bool| {
        ratios
            .iter()
            .find(|(d, c, _)| d == dataset && c.contains("+BA") == ba)
            .unwrap_or_else(|| panic!("missing {dataset} entry (ba = {ba})"))
            .2
    };
    let linear_gas = find("Gas", false);
    let ba_gas = find("Gas", true);
    assert!(
        ba_gas > linear_gas,
        "bit-adaptive candidates did not improve the gas ratio: {ba_gas} <= {linear_gas}"
    );
    // And on the crystal corpus the enlarged candidate space must never
    // hurt: the linear candidate is still in the trial set.
    let crystal = ratios.iter().find(|(d, _, _)| d != "Gas").expect("crystal entries");
    let crystal_linear = find(&crystal.0, false);
    let crystal_ba = find(&crystal.0, true);
    assert!(
        crystal_ba >= crystal_linear * (1.0 - 1e-9),
        "bit-adaptive candidates regressed the crystal ratio: {crystal_ba} < {crystal_linear}"
    );
}

#[test]
fn quantizer_json_schema() {
    if let Ok(path) = std::env::var("MDZ_BENCH_JSON") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        validate(&Json::parse(&text).expect("valid JSON"));
        return;
    }
    let dir = std::env::temp_dir().join(format!("mdz_quantizer_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ctx = Ctx::new(Scale::Test, dir.clone(), 42);
    let tables = experiments::run("quantizer", &mut ctx).expect("quantizer experiment");
    assert!(!tables.is_empty() && !tables[0].rows.is_empty());
    let text = std::fs::read_to_string(dir.join("BENCH_quantizer.json")).expect("JSON written");
    validate(&Json::parse(&text).expect("valid JSON"));
    let _ = std::fs::remove_dir_all(&dir);
}
