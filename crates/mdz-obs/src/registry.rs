//! The built-in aggregating [`Recorder`]: in-memory counters, gauges, and
//! fixed-bucket histograms, snapshottable at any time.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use crate::Recorder;

/// Histogram bucket count. Buckets are powers of two of the observed value
/// in micro-units (`value × 1e6`), so 64 buckets span sub-microsecond
/// latencies up to ~5.8 million seconds — and, for unit-less observations
/// like job counts, values up to ~1.8e13.
const BUCKETS: usize = 64;

/// One fixed-bucket histogram: power-of-two micro-unit buckets plus exact
/// count/sum/min/max.
///
/// Percentiles are estimated from the bucket a rank falls into (geometric
/// bucket midpoint, clamped into `[min, max]`), so they carry at most a
/// factor-√2 relative error — plenty for p50/p99 latency reporting.
#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index for one observation (negative and non-finite values clamp
/// into the first / last bucket).
fn bucket_of(value: f64) -> usize {
    let micro = value * 1e6;
    if micro.is_nan() || micro < 1.0 {
        return 0;
    }
    if micro >= (1u64 << 63) as f64 {
        return BUCKETS - 1;
    }
    (micro as u64).ilog2().min(BUCKETS as u32 - 1) as usize
}

/// Geometric midpoint of a bucket, back in original units.
fn bucket_mid(index: usize) -> f64 {
    // Bucket `i` spans [2^i, 2^(i+1)) micro-units; 1.5·2^i is its midpoint.
    1.5 * (index as f64).exp2() / 1e6
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.buckets[bucket_of(value)] += 1;
    }

    /// Nearest-rank percentile estimate from the bucket counts.
    fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Epsilon-guarded nearest rank: an exact product like 0.99 × 100
        // must not round up through ceil.
        let rank = (((p * self.count as f64) - 1e-9).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.percentile(0.50),
            p99: self.percentile(0.99),
        }
    }
}

/// The built-in aggregating recorder.
///
/// Thread-safe and shareable (`Arc<Registry>`); every metric family sits
/// behind its own mutex, held only for the single map update — contention
/// is bounded by how often instrumented code records, which for MDZ is
/// per-buffer / per-request, not per-value.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().unwrap().get(name).copied().unwrap_or(0)
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters =
            self.counters.lock().unwrap().iter().map(|(&k, &v)| (k.to_string(), v)).collect();
        let gauges =
            self.gauges.lock().unwrap().iter().map(|(&k, &v)| (k.to_string(), v)).collect();
        let histograms =
            self.histograms.lock().unwrap().iter().map(|(&k, h)| h.snapshot(k)).collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

impl Recorder for Registry {
    fn incr(&self, name: &'static str, delta: u64) {
        *self.counters.lock().unwrap().entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.gauges.lock().unwrap().insert(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.histograms.lock().unwrap().entry(name).or_default().observe(value);
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.lock().unwrap().len())
            .field("gauges", &self.gauges.lock().unwrap().len())
            .field("histograms", &self.histograms.lock().unwrap().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotonic_and_bounded() {
        let mut last = 0;
        for exp in -8..14 {
            let v = 10f64.powi(exp);
            let b = bucket_of(v);
            assert!(b >= last, "bucket of {v} went backwards");
            assert!(b < BUCKETS);
            last = b;
        }
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-5.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_are_bracketed_by_min_max() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64 * 1e-3); // 1ms … 100ms
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 100);
        assert!((s.sum - 5.050).abs() < 1e-9);
        assert_eq!(s.min, 1e-3);
        assert_eq!(s.max, 0.1);
        assert!(s.min <= s.p50 && s.p50 <= s.p99 && s.p99 <= s.max, "{s:?}");
        // The p50 bucket estimate must land within √2 of the true median.
        assert!(s.p50 >= 0.050 / 1.5 && s.p50 <= 0.050 * 1.5, "p50 {}", s.p50);
    }

    #[test]
    fn p99_of_a_hundred_samples_is_rank_99_not_the_maximum() {
        // 0.99 × 100 is exactly 99: the 99th sample sits in the 1 ms
        // bucket, the 100th (the maximum) far above it.
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.observe(1e-3);
        }
        h.observe(1.0);
        let s = h.snapshot("t");
        assert!(s.p99 < 2e-3, "p99 {} reached the maximum", s.p99);
    }

    #[test]
    fn single_observation_collapses_to_itself() {
        let mut h = Histogram::default();
        h.observe(0.007);
        let s = h.snapshot("t");
        assert_eq!((s.min, s.max), (0.007, 0.007));
        assert_eq!(s.p50, 0.007);
        assert_eq!(s.p99, 0.007);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::default().snapshot("t");
        assert_eq!(s.count, 0);
        assert_eq!((s.min, s.max, s.p50, s.p99), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn registry_snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.incr("b.two", 2);
        r.incr("a.one", 1);
        r.gauge("g", 7);
        r.observe("h", 1.0);
        let s = r.snapshot();
        assert_eq!(
            s.counters,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 2)],
            "counters sorted by name"
        );
        assert_eq!(s.gauges, vec![("g".to_string(), 7)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(r.counter("a.one"), 1);
        assert_eq!(r.counter("missing"), 0);
    }
}
