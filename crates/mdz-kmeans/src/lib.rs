//! Optimal 1-D k-means clustering and level-grid detection for the MDZ VQ
//! predictor.
//!
//! MDZ's key spatial observation (paper §V-B) is that crystalline MD data
//! clusters at roughly *equally spaced* discrete coordinate levels. The VQ
//! predictor therefore needs two parameters per axis: the level distance `λ`
//! and the initial level value `μ`. The paper finds them with a
//! sampling-based optimal 1-D k-means (`F(n,k)` dynamic program, Grønlund et
//! al.), computed once on 10 % of the first snapshot, with the cluster count
//! `κ` chosen by watching the cost ratio `G(k) = F(N,k)/F(N,k−1)` and capped
//! at 150.
//!
//! This crate implements:
//!
//! * [`kmeans_1d`] — exact DP over sorted points; each layer is solved with
//!   divide-and-conquer over the monotone argmin (O(N log N) per layer,
//!   matching the practical behaviour of the paper's O(KN) reference),
//! * [`select_k`] — the `G(k)` elbow rule,
//! * [`LevelGrid::fit`] — least-squares fit of `(λ, μ)` to the centroids,
//! * [`detect_levels`] — the end-to-end sampled pipeline used by MDZ.

#![forbid(unsafe_code)]

pub mod dp;
pub mod grid;
pub mod select;

pub use dp::{kmeans_1d, Clustering};
pub use grid::LevelGrid;
pub use select::{select_k, SelectConfig};

/// Deterministically samples about `fraction` of `data` (at least
/// `min_samples` when possible). MDZ samples 10 % of the first snapshot.
///
/// One element is taken from each of `want` equal windows, at a
/// pseudo-random (but seed-free, reproducible) offset. Plain strided
/// sampling would alias against the periodic orderings crystalline MD data
/// exhibits (atoms laid out plane by plane), silently skipping levels; the
/// per-window jitter breaks that resonance.
pub fn sample(data: &[f64], fraction: f64, min_samples: usize) -> Vec<f64> {
    assert!(fraction > 0.0 && fraction <= 1.0);
    let n = data.len();
    let want = ((n as f64 * fraction).ceil() as usize).max(min_samples.min(n)).max(1);
    if want >= n {
        return data.to_vec();
    }
    let stride = n / want;
    let mut out = Vec::with_capacity(want);
    for j in 0..want {
        // splitmix64 finalizer as a stateless hash of the window index.
        let mut h = j as u64 ^ 0x9E3779B97F4A7C15;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        let idx = j * stride + (h as usize % stride);
        if idx < n {
            out.push(data[idx]);
        }
    }
    out
}

/// End-to-end level detection: sample, sort, run the DP with `G(k)`
/// selection, and fit an equally spaced grid.
///
/// Returns `None` when the data has too few distinct values to define a grid
/// (fewer than two clusters) — callers fall back to plain prediction.
pub fn detect_levels(data: &[f64], cfg: &SelectConfig) -> Option<LevelGrid> {
    let mut sampled = sample(data, cfg.sample_fraction, cfg.min_samples);
    sampled.retain(|v| v.is_finite());
    if sampled.len() < 2 {
        return None;
    }
    sampled.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let clustering = select_k(&sampled, cfg);
    if clustering.k < 2 {
        return None;
    }
    LevelGrid::fit(&clustering.centroids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_respects_fraction() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = sample(&data, 0.1, 1);
        assert!(s.len() >= 100 && s.len() <= 200, "{}", s.len());
    }

    #[test]
    fn sample_small_input_returns_all() {
        let data = [1.0, 2.0, 3.0];
        assert_eq!(sample(&data, 0.1, 64), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn detect_levels_on_synthetic_lattice() {
        // 20 levels at spacing 2.5 starting at 10.0, ±0.05 vibration.
        let mut data = Vec::new();
        let mut s = 1234567u64;
        for i in 0..5000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let level = (i % 20) as f64;
            let noise = ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1;
            data.push(10.0 + level * 2.5 + noise);
        }
        let grid = detect_levels(&data, &SelectConfig::default()).expect("grid");
        assert!((grid.lambda - 2.5).abs() < 0.05, "λ = {}", grid.lambda);
        // μ should land on the level lattice (any level is a valid phase).
        let phase = ((grid.mu - 10.0) / 2.5).rem_euclid(1.0);
        assert!(!(0.05..=0.95).contains(&phase), "μ = {} phase {}", grid.mu, phase);
    }

    /// The smallest planted lattice a property search once shrank to: two
    /// levels 0.5 apart, 40 samples each, ±1% vibration, every sample kept.
    #[test]
    fn detect_levels_finds_two_levels_at_half_spacing() {
        let (levels, spacing, per) = (2, 0.5, 40);
        let mut s = 7u64;
        let data: Vec<f64> = (0..levels * per)
            .map(|i| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                (i % levels) as f64 * spacing + u * spacing * 0.02
            })
            .collect();
        let cfg = SelectConfig { min_samples: 512, ..Default::default() };
        let grid = detect_levels(&data, &cfg).expect("grid");
        assert!((grid.lambda - spacing).abs() < 0.05 * spacing, "λ = {}", grid.lambda);
    }

    #[test]
    fn detect_levels_rejects_constant_data() {
        let data = vec![5.0; 100];
        assert!(detect_levels(&data, &SelectConfig::default()).is_none());
    }

    #[test]
    fn detect_levels_handles_nan_noise() {
        let mut data: Vec<f64> = (0..500).map(|i| (i % 4) as f64).collect();
        data.push(f64::NAN);
        let _ = detect_levels(&data, &SelectConfig::default());
    }
}
