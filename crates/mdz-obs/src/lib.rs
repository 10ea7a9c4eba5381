//! mdz-obs: a zero-dependency observability layer for the MDZ workspace.
//!
//! Instrumented code records three metric kinds through the [`Recorder`]
//! trait:
//!
//! * **counters** — monotonic event counts (`incr`);
//! * **gauges** — last-written values (`gauge`);
//! * **histograms** — value distributions with p50/p99 summaries
//!   (`observe`), used for latencies (`*_seconds` names) and any other
//!   per-event quantity (queue depths, per-worker job counts).
//!
//! The hot-path handle is [`Obs`]: a cheap, cloneable wrapper around an
//! optional `Arc<dyn Recorder>`. The default handle is a no-op — every
//! method compiles to a `None` check, and [`Obs::span`] does not even read
//! the clock — so instrumented code costs nothing when nobody is
//! listening. Attach a [`Registry`] (the built-in aggregating recorder) to
//! turn recording on, and snapshot it with [`Registry::snapshot`] into a
//! [`MetricsSnapshot`] that renders as text or JSON.
//!
//! Metric names are `&'static str` by design: instrumentation points name
//! their metrics statically (`"core.encode.entropy_seconds"`), which keeps
//! recording allocation-free and makes the full metric vocabulary
//! greppable. The vocabulary is catalogued in DESIGN.md §11; the
//! robustness families added with the crash-consistent store —
//! `store.recover.*` (recovery scans and truncated bytes),
//! `server.conn.*` / `server.drain.closed` (admission, shedding, deadline
//! kills, graceful drain), and `client.retries` — follow the same
//! additive-only rule as the rest: names are the API and are never
//! renamed or reused.
//!
//! # Example
//!
//! ```
//! use mdz_obs::{Obs, Registry};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let obs = Obs::new(registry.clone());
//! obs.incr("demo.events", 2);
//! {
//!     let _timer = obs.span("demo.work_seconds");
//!     // … timed work …
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.events"), 2);
//! assert_eq!(snap.histogram("demo.work_seconds").unwrap().count, 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod registry;
mod snapshot;

pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, METRICS_SCHEMA};

use std::sync::Arc;
use std::time::Instant;

/// Sink for metric events.
///
/// Implementations must be cheap and non-blocking enough to sit on
/// compression hot paths; the built-in [`Registry`] aggregates in memory.
/// All methods take `&self` — recorders are shared across threads.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn incr(&self, name: &'static str, delta: u64);
    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: u64);
    /// Records one observation of `value` into the named histogram.
    ///
    /// Latency metrics observe seconds and end in `_seconds`; other
    /// quantities (queue depths, job counts) observe their natural unit.
    fn observe(&self, name: &'static str, value: f64);
}

/// A cheap handle instrumented code holds: either a live recorder or a
/// no-op.
///
/// Cloning is an `Option<Arc>` clone. The [`Default`] handle records
/// nothing, so types that embed an `Obs` keep their `Default` semantics.
#[derive(Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<dyn Recorder>>,
}

impl Obs {
    /// A handle that records nothing (the default).
    pub const fn noop() -> Self {
        Self { recorder: None }
    }

    /// A handle that forwards every event to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self { recorder: Some(recorder) }
    }

    /// Whether a recorder is attached. Instrumentation may use this to
    /// skip work that only feeds metrics (the built-in helpers already
    /// do).
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Adds `delta` to a counter (no-op when disabled).
    #[inline]
    pub fn incr(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.recorder {
            r.incr(name, delta);
        }
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(r) = &self.recorder {
            r.gauge(name, value);
        }
    }

    /// Records a histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(r) = &self.recorder {
            r.observe(name, value);
        }
    }

    /// Starts a span timer that records its elapsed seconds into the named
    /// histogram when dropped.
    ///
    /// When the handle is disabled the clock is never read — a span on a
    /// disabled handle is two branches, start and drop.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span { obs: self, name, start: self.recorder.is_some().then(Instant::now) }
    }

    /// A handle for one of `threads` workers that run side by side over
    /// one wall-clock window. Its latency observations (`*_seconds`) are
    /// divided by `threads`, so a stage's total is its share of the window
    /// rather than busy time summed over threads: the spans all workers
    /// record, none overlapping within a thread, add up to at most the
    /// window. Counters, gauges and other observations pass through.
    /// With `threads <= 1` this is a plain clone.
    pub fn share(&self, threads: usize) -> Obs {
        match &self.recorder {
            Some(inner) if threads > 1 => {
                Obs::new(Arc::new(Shared { inner: Arc::clone(inner), threads: threads as f64 }))
            }
            _ => self.clone(),
        }
    }
}

/// The recorder behind [`Obs::share`].
struct Shared {
    inner: Arc<dyn Recorder>,
    threads: f64,
}

impl Recorder for Shared {
    fn incr(&self, name: &'static str, delta: u64) {
        self.inner.incr(name, delta);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        let value = if name.ends_with("_seconds") { value / self.threads } else { value };
        self.inner.observe(name, value);
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.enabled()).finish()
    }
}

/// A live span timer from [`Obs::span`]; records elapsed seconds on drop.
#[must_use = "a span records its timing when dropped; binding it to _ drops it immediately"]
pub struct Span<'a> {
    obs: &'a Obs,
    name: &'static str,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.obs.observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing_and_skips_the_clock() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.incr("x", 1);
        obs.gauge("g", 2);
        obs.observe("h", 3.0);
        let span = obs.span("s");
        assert!(span.start.is_none(), "disabled span must not read the clock");
        span.finish();
    }

    #[test]
    fn live_handle_feeds_the_registry() {
        let reg = Arc::new(Registry::new());
        let obs = Obs::new(reg.clone());
        assert!(obs.enabled());
        obs.incr("c", 3);
        obs.incr("c", 4);
        obs.gauge("g", 9);
        obs.gauge("g", 5);
        obs.observe("h", 0.25);
        obs.span("t_seconds").finish();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.gauge("g"), Some(5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        let t = snap.histogram("t_seconds").unwrap();
        assert_eq!(t.count, 1);
        assert!(t.max >= 0.0);
    }

    #[test]
    fn clones_share_the_recorder() {
        let reg = Arc::new(Registry::new());
        let obs = Obs::new(reg.clone());
        let clone = obs.clone();
        obs.incr("shared", 1);
        clone.incr("shared", 1);
        assert_eq!(reg.snapshot().counter("shared"), 2);
    }

    #[test]
    fn shared_handles_record_seconds_as_a_share_of_the_window() {
        let reg = Arc::new(Registry::new());
        let obs = Obs::new(reg.clone());
        let shared = obs.share(4);
        shared.observe("t_seconds", 2.0);
        shared.observe("jobs", 2.0);
        shared.incr("c", 3);
        shared.gauge("g", 7);
        obs.share(1).observe("t_seconds", 1.0);
        let snap = reg.snapshot();
        let t = snap.histogram("t_seconds").unwrap();
        assert_eq!((t.count, t.sum), (2, 1.5));
        assert_eq!(snap.histogram("jobs").unwrap().sum, 2.0);
        assert_eq!((snap.counter("c"), snap.gauge("g")), (3, Some(7)));
        assert!(!Obs::noop().share(4).enabled());
    }

    #[test]
    fn debug_shows_enabled_state() {
        assert_eq!(format!("{:?}", Obs::noop()), "Obs { enabled: false }");
    }
}
