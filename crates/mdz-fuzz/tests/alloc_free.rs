//! Steady-state compression performs no heap allocation.
//!
//! The `Compressor` owns a scratch workspace (`pipeline::encode`'s
//! `EncodeScratch` plus the adaptive trial buffers), so once stream state
//! (level grid, MT reference) and buffer capacities are warmed up, repeated
//! `compress_buffer_into` calls must not touch the allocator at all.
//!
//! The counting global allocator makes that claim testable: compress the
//! same buffer three times — the first call establishes stream state, the
//! second grows every scratch buffer to its steady-state capacity — and
//! assert the third call makes no allocation call. The third call's output
//! is also compared byte-for-byte against the second's, so the
//! zero-allocation claim is made about a call doing provably identical
//! work.
//!
//! One test function only: the global allocator is process-wide, and a
//! second concurrently-running test would perturb the counter.

use mdz_core::{Compressor, ErrorBound, MdzConfig, Method};
use mdz_fuzz::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Lattice-plus-drift data: detectable levels for VQ, smooth in time for MT.
fn lattice(m: usize, n: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|t| {
            (0..n)
                .map(|i| (i % 10) as f64 * 2.5 + (i as f64 * 0.37).sin() * 0.01 + t as f64 * 1e-4)
                .collect()
        })
        .collect()
}

#[test]
fn steady_state_compression_allocates_nothing() {
    let snaps = lattice(8, 300);
    for method in [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2, Method::Adaptive] {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method);
        let mut comp = Compressor::new(cfg);
        let mut out = Vec::new();

        // Pass 1: establishes stream state (level grid, MT reference) and
        // runs any adaptive trials. Pass 2: every scratch buffer reaches its
        // steady-state capacity.
        comp.compress_buffer_into(&snaps, &mut out).unwrap();
        comp.compress_buffer_into(&snaps, &mut out).unwrap();
        let warm = out.clone();

        // Pass 3 does byte-identical work to pass 2, with warm scratch.
        let before = CountingAlloc::calls();
        comp.compress_buffer_into(&snaps, &mut out).unwrap();
        let after = CountingAlloc::calls();

        assert_eq!(out, warm, "{method:?}: steady-state output changed");
        assert_eq!(
            after - before,
            0,
            "{method:?}: {} heap allocation(s) in a steady-state compress call",
            after - before
        );
    }
}
