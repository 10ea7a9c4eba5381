//! Steady-state compression performs no heap allocation.
//!
//! The `Compressor` owns a scratch workspace (`pipeline::encode`'s
//! `EncodeScratch` plus the adaptive trial buffers), so once stream state
//! (level grid, MT reference) and buffer capacities are warmed up, repeated
//! `compress_buffer_into` calls must not touch the allocator at all.
//!
//! A counting global allocator makes that claim testable: compress the same
//! buffer three times — the first call establishes stream state, the second
//! grows every scratch buffer to its steady-state capacity — and assert the
//! third call allocates nothing. The third call's output is also compared
//! byte-for-byte against the second's, so the zero-allocation claim is made
//! about a call doing provably identical work.
//!
//! One test function only: the global allocator is process-wide, and a
//! second concurrently-running test would perturb the counter.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed through unchanged to `System`; the counter
// is bookkeeping and never affects pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`: the caller's `layout` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as
        // `GlobalAlloc::dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use mdz_core::{Compressor, ErrorBound, MdzConfig, Method};

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
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        comp.compress_buffer_into(&snaps, &mut out).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert_eq!(out, warm, "{method:?}: steady-state output changed");
        assert_eq!(
            after - before,
            0,
            "{method:?}: {} heap allocation(s) in a steady-state compress call",
            after - before
        );
    }
}
