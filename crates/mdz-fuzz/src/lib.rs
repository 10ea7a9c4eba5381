//! Deterministic, dependency-free fuzzing support for the MDZ decode
//! surfaces.
//!
//! External fuzzers (cargo-fuzz, AFL) need nightly toolchains, registry
//! dependencies, and coverage instrumentation — none of which this offline
//! workspace allows. This crate instead ships the three pieces a useful
//! in-repo fuzz harness actually needs:
//!
//! * [`Mutator`] — a seeded, structure-aware byte mutator built on
//!   `mdz_sim`'s xoshiro256++ [`Rng`]. The same seed always replays the
//!   same mutation sequence, so every campaign failure is reproducible
//!   from its (seed, iteration) pair alone.
//! * [`CountingAlloc`] — a global-allocator wrapper that tracks live and
//!   peak heap bytes, letting campaigns assert "decoding hostile input
//!   never allocates more than its budget", not just "never panics", and
//!   counts allocation calls, letting `tests/alloc_free.rs` assert that
//!   steady-state compression never calls the allocator.
//! * [`default_iters`] — the per-campaign iteration budget, tunable via
//!   the `MDZ_FUZZ_ITERS` environment variable so CI can run deep
//!   campaigns while a local `cargo test` stays fast.
//!
//! [`ContainerArchive`] carries hostile trajectory containers into the one
//! decoder that reads them, `mdz_store::StoreReader`, and [`stored_block`]
//! is a stored-payload block for the campaigns to mutate and the corpus to
//! forge from.
//!
//! The campaigns themselves live in this crate's integration tests
//! (`tests/fuzz_campaigns.rs`); seeded regression inputs from past runs
//! live in the repository's `corpus/` directory and are replayed by
//! `tests/corpus_regressions.rs`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mdz_core::checksum::fnv1a64;
use mdz_core::{Compressor, Decompressor, ErrorBound, Frame, MdzConfig};
use mdz_entropy::write_uvarint;
use mdz_store::archive::record_at;
use mdz_store::{write_store, ArchiveIndex, StoreOptions};

pub use mdz_sim::rng::Rng;

/// Iterations each fuzz campaign runs.
///
/// `MDZ_FUZZ_ITERS` overrides; otherwise 100 000 in release builds (the
/// acceptance bar) and 2 000 under debug so plain `cargo test` stays quick.
pub fn default_iters() -> usize {
    match std::env::var("MDZ_FUZZ_ITERS") {
        Ok(v) => v.parse().expect("MDZ_FUZZ_ITERS must be a non-negative integer"),
        Err(_) => {
            if cfg!(debug_assertions) {
                2_000
            } else {
                100_000
            }
        }
    }
}

/// A valid ADP block whose payload is stored (version 3): thermal noise
/// on a lattice leaves LZ77 nothing to gain on its code streams.
pub fn stored_block() -> Vec<u8> {
    let mut state = 0x5707_ED00_u64;
    let snaps: Vec<Vec<f64>> = (0..6)
        .map(|_| {
            (0..200)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (i % 10) as f64 * 2.5 + (state >> 11) as f64 / (1u64 << 53) as f64 * 0.05
                })
                .collect()
        })
        .collect();
    let block = Compressor::new(MdzConfig::new(ErrorBound::Absolute(1e-4)))
        .compress_buffer(&snaps)
        .expect("a valid buffer compresses");
    assert!(Decompressor::inspect(&block).is_ok_and(|info| info.stored), "LZ77 paid");
    block
}

/// A valid one-block store archive of `n_frames` frames of `n_atoms`
/// atoms, cut around its block record, so that any bytes can stand in as
/// the record's trajectory container under a recomputed record checksum.
///
/// The footer indexes the block by its start offset, which the new record
/// keeps, so the wrapped archive opens whatever the container holds, and
/// reading its frames reaches `split_container` and the three axis
/// decoders. A container coding `n_frames` frames of `n_atoms` atoms reads
/// back in full.
pub struct ContainerArchive {
    /// Header and metadata, up to the block record.
    head: Vec<u8>,
    /// The footer after the block record.
    tail: Vec<u8>,
}

impl ContainerArchive {
    /// Writes the template archive.
    pub fn new(n_atoms: usize, n_frames: usize) -> Self {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        opts.buffer_size = n_frames;
        let frame = Frame::new(vec![0.0; n_atoms], vec![0.0; n_atoms], vec![0.0; n_atoms]);
        let valid = write_store(&vec![frame; n_frames], &[], &[], &opts).expect("template");
        let offset = ArchiveIndex::parse(&valid).expect("template index").blocks[0].offset;
        let container = record_at(&valid, offset).expect("template record");
        let end = container.as_ptr_range().end as usize - valid.as_ptr() as usize;
        Self { head: valid[..offset].to_vec(), tail: valid[end..].to_vec() }
    }

    /// The template archive with `container` as its block record's body.
    pub fn wrap(&self, container: &[u8]) -> Vec<u8> {
        let mut out = self.head.clone();
        write_uvarint(&mut out, container.len() as u64);
        out.extend_from_slice(&fnv1a64(container).to_le_bytes());
        out.extend_from_slice(container);
        out.extend_from_slice(&self.tail);
        out
    }
}

/// Seeded structure-aware mutator over byte buffers.
///
/// Each [`Mutator::mutate`] call stacks 1–3 primitive corruptions picked at
/// random: truncation, bit flips, byte runs XORed or overwritten, forged
/// LEB128 length fields, splices with donor buffers, insertions, and
/// deletions. The primitives are also public so campaigns can drive a
/// specific corruption shape (e.g. only truncations).
pub struct Mutator {
    rng: Rng,
}

impl Mutator {
    /// Creates a mutator whose entire output stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng::seed_from_u64(seed) }
    }

    /// The underlying RNG, for campaigns that need auxiliary choices
    /// (picking a seed buffer, a snapshot index, …) on the same stream.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Applies 1–3 random primitive corruptions to `base`. `donors` feeds
    /// the splice primitive; pass the campaign's seed set (it may include
    /// `base` itself).
    pub fn mutate(&mut self, base: &[u8], donors: &[Vec<u8>]) -> Vec<u8> {
        let mut out = base.to_vec();
        let rounds = 1 + self.rng.index(3);
        for _ in 0..rounds {
            out = match self.rng.index(8) {
                0 => self.truncate(&out),
                1 => self.bit_flips(&out),
                2 => self.xor_run(&out),
                3 => self.overwrite_run(&out),
                4 => self.forge_varint(&out),
                5 if !donors.is_empty() => {
                    let donor = &donors[self.rng.index(donors.len())];
                    self.splice(&out, donor)
                }
                5 => self.splice(&out, &[]),
                6 => self.insert(&out),
                _ => self.delete(&out),
            };
        }
        out
    }

    /// Cuts the buffer at a random point (possibly to empty).
    pub fn truncate(&mut self, data: &[u8]) -> Vec<u8> {
        data[..self.rng.index(data.len() + 1)].to_vec()
    }

    /// Flips 1–8 random bits.
    pub fn bit_flips(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        if out.is_empty() {
            return out;
        }
        for _ in 0..1 + self.rng.index(8) {
            let i = self.rng.index(out.len());
            out[i] ^= 1 << self.rng.index(8);
        }
        out
    }

    /// XORs a run of 1–16 bytes with one random nonzero byte.
    pub fn xor_run(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        if out.is_empty() {
            return out;
        }
        let start = self.rng.index(out.len());
        let len = (1 + self.rng.index(16)).min(out.len() - start);
        let mask = (1 + self.rng.index(255)) as u8;
        for b in &mut out[start..start + len] {
            *b ^= mask;
        }
        out
    }

    /// Overwrites a run of 1–16 bytes with 0x00, 0xFF, or random bytes.
    pub fn overwrite_run(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        if out.is_empty() {
            return out;
        }
        let start = self.rng.index(out.len());
        let len = (1 + self.rng.index(16)).min(out.len() - start);
        match self.rng.index(3) {
            0 => out[start..start + len].fill(0x00),
            1 => out[start..start + len].fill(0xFF),
            _ => {
                for b in &mut out[start..start + len] {
                    *b = (self.rng.next_u64() & 0xFF) as u8;
                }
            }
        }
        out
    }

    /// Overwrites a random position with a forged LEB128 varint encoding a
    /// huge value — the classic length-field tamper that turns a count into
    /// an allocation request.
    pub fn forge_varint(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        if out.is_empty() {
            return out;
        }
        let value = match self.rng.index(4) {
            0 => u64::MAX,
            1 => 1 << 34, // the historic decoder cap
            2 => 1 << (32 + self.rng.index(31) as u64),
            _ => self.rng.next_u64() | (1 << 40),
        };
        let mut forged = Vec::new();
        let mut v = value;
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                forged.push(byte);
                break;
            }
            forged.push(byte | 0x80);
        }
        let start = self.rng.index(out.len());
        for (i, b) in forged.into_iter().enumerate() {
            if start + i < out.len() {
                out[start + i] = b;
            } else {
                out.push(b);
            }
        }
        out
    }

    /// Joins a random prefix of `a` with a random suffix of `b`.
    pub fn splice(&mut self, a: &[u8], b: &[u8]) -> Vec<u8> {
        let cut_a = self.rng.index(a.len() + 1);
        let cut_b = self.rng.index(b.len() + 1);
        let mut out = a[..cut_a].to_vec();
        out.extend_from_slice(&b[cut_b..]);
        out
    }

    /// Inserts 1–8 random bytes at a random position.
    pub fn insert(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        let at = self.rng.index(out.len() + 1);
        let extra: Vec<u8> =
            (0..1 + self.rng.index(8)).map(|_| (self.rng.next_u64() & 0xFF) as u8).collect();
        out.splice(at..at, extra);
        out
    }

    /// Deletes a run of 1–8 bytes.
    pub fn delete(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        if out.is_empty() {
            return out;
        }
        let start = self.rng.index(out.len());
        let len = (1 + self.rng.index(8)).min(out.len() - start);
        out.drain(start..start + len);
        out
    }
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed global allocator that tracks live and peak heap
/// bytes, so campaigns can assert allocation stays within a budget while
/// decoding hostile input, and counts allocation calls, so a test can
/// assert that a warm code path does not allocate at all.
///
/// Install in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: mdz_fuzz::CountingAlloc = mdz_fuzz::CountingAlloc;
/// ```
///
/// The counters are process-global; serialize campaigns (e.g. behind a
/// mutex) if the binary runs tests on multiple threads.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Currently live heap bytes.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak live heap bytes since the last [`CountingAlloc::reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak watermark to the current live count.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Allocation calls so far: every `alloc` (`alloc_zeroed` goes through
    /// it) and every `realloc`.
    pub fn calls() -> usize {
        CALLS.load(Ordering::Relaxed)
    }
}

// SAFETY: defers all allocation to `System`; the counters are advisory
// bookkeeping and never affect pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator, hence by `System`,
        // with `layout`, as `GlobalAlloc::dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_is_deterministic() {
        let base = b"The quick brown fox jumps over the lazy dog".to_vec();
        let donors = vec![base.clone(), vec![0u8; 64]];
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let mut m = Mutator::new(seed);
            (0..50).map(|_| m.mutate(&base, &donors)).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mutate_handles_empty_base() {
        let mut m = Mutator::new(1);
        let donors = vec![vec![1, 2, 3]];
        for _ in 0..200 {
            let _ = m.mutate(&[], &donors);
            let _ = m.mutate(&[], &[]);
        }
    }

    #[test]
    fn forged_varint_round_trips_as_huge_value() {
        let mut m = Mutator::new(3);
        let base = vec![0u8; 32];
        for _ in 0..100 {
            let out = m.forge_varint(&base);
            assert!(out.len() >= base.len());
        }
    }

    #[test]
    fn primitive_ops_never_panic_on_degenerate_inputs() {
        let mut m = Mutator::new(9);
        for data in [vec![], vec![0u8], vec![0xFF; 2]] {
            let _ = m.truncate(&data);
            let _ = m.bit_flips(&data);
            let _ = m.xor_run(&data);
            let _ = m.overwrite_run(&data);
            let _ = m.forge_varint(&data);
            let _ = m.splice(&data, &data);
            let _ = m.insert(&data);
            let _ = m.delete(&data);
        }
    }

    #[test]
    fn default_iters_obeys_env_override() {
        // Avoid mutating the process environment (other tests run in
        // parallel); just check the compiled-in defaults are sane.
        let n = default_iters();
        assert!(n == 2_000 || n == 100_000 || std::env::var("MDZ_FUZZ_ITERS").is_ok());
    }
}
