// Inputs of the golden store archives in `tests/golden/store_*.mdz`.
//
// Included (`include!`) by the `golden_archives` integration test and by
// the writer's unit test in `src/archive.rs`, so both encode exactly the
// frames the fixtures were written from. Every fixture has 3 epochs and a
// partial tail block: 22 frames at 4 frames per buffer and 2 buffers per
// epoch are blocks of 4, 4 | 4, 4 | 4, 2 frames.

/// Atoms per frame.
const GOLDEN_ATOMS: usize = 60;
/// Frames in each created fixture.
const GOLDEN_FRAMES: usize = 22;
/// Frames per buffer.
const GOLDEN_BUFFER_SIZE: usize = 4;
/// Buffers per epoch.
const GOLDEN_EPOCH_INTERVAL: usize = 2;
/// Frames of the appended fixture's base archive (whole buffers only).
const GOLDEN_APPEND_BASE: usize = 16;
/// Fixture written by `append_store`: the first `GOLDEN_APPEND_BASE` frames
/// of the ADP `f64` stream, extended by all of `golden_frames(GOLDEN_FRAMES, 2)`.
const GOLDEN_APPENDED: &str = "store_adp_f64_appended";

/// `(fixture name, method, f32 precision)` of every created fixture.
const GOLDEN_CREATED: [(&str, Method, bool); 6] = [
    ("store_adp_f64", Method::Adaptive, false),
    ("store_adp_f32", Method::Adaptive, true),
    ("store_vq_f64", Method::Vq, false),
    ("store_vq_f32", Method::Vq, true),
    ("store_mt_f64", Method::Mt, false),
    ("store_mt_f32", Method::Mt, true),
];

/// A crystal-like stream: atoms sit on equally spaced planes per axis and
/// move by correlated thermal noise plus a slow drift, so VQ finds a level
/// grid and MT's reference stays useful. `seed` selects the noise.
fn golden_frames(n_frames: usize, seed: u64) -> Vec<Frame> {
    let mut state = 0x5EED_57A0_u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut noise = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let sites: Vec<[f64; 3]> = (0..GOLDEN_ATOMS)
        .map(|i| [(i % 6) as f64 * 1.8075, (i / 6 % 5) as f64 * 1.8075, (i / 30) as f64 * 1.8075])
        .collect();
    let mut disp: Vec<[f64; 3]> = (0..GOLDEN_ATOMS).map(|_| [0.0; 3]).collect();
    (0..n_frames)
        .map(|t| {
            for d in disp.iter_mut() {
                for v in d.iter_mut() {
                    *v = *v * 0.9 + noise() * 0.02;
                }
            }
            let axis = |a: usize| -> Vec<f64> {
                sites.iter().zip(&disp).map(|(s, d)| s[a] + d[a] + t as f64 * 1e-3).collect()
            };
            Frame::new(axis(0), axis(1), axis(2))
        })
        .collect()
}

/// Per-atom element symbols stored in the fixtures' metadata.
fn golden_elements() -> Vec<String> {
    (0..GOLDEN_ATOMS).map(|i| if i % 4 == 0 { "O" } else { "Cu" }.to_string()).collect()
}

/// Per-frame comment lines stored in the fixtures' metadata.
fn golden_comments() -> Vec<String> {
    (0..GOLDEN_FRAMES).map(|t| format!("frame {t}")).collect()
}

/// The store options of every fixture.
fn golden_options(method: Method, f32: bool) -> StoreOptions {
    let cfg = MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)).with_method(method);
    let mut opts = StoreOptions::new(cfg);
    opts.buffer_size = GOLDEN_BUFFER_SIZE;
    opts.epoch_interval = GOLDEN_EPOCH_INTERVAL;
    opts.precision = if f32 { Precision::F32 } else { Precision::F64 };
    opts
}
