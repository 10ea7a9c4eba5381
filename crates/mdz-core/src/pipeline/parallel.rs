//! Parallel block engine: fans independent axis×buffer blocks across
//! worker threads while keeping the output **byte-identical** to the
//! serial path.
//!
//! ## Why blocks parallelize at all
//!
//! MDZ compresses each coordinate axis as an independent stream, sliced
//! into buffers of `BS` snapshots (paper §IV). Cross-buffer coupling is
//! deliberately thin: a stream's level grid and MT reference snapshot are
//! established by its *first* buffer and then stay fixed, and the adaptive
//! selector re-decides only at trial buffers (one per `adapt_interval`).
//! Every other buffer is a pure function of `(config, stream state,
//! method, snapshots)` — embarrassingly parallel by construction.
//!
//! ## How byte-identity is preserved
//!
//! The engine runs two phases:
//!
//! 1. **Serial prologue** (caller thread): walk every stream's buffers in
//!    order, replicating exactly the bookkeeping the serial path performs
//!    (adaptive trials, ticks, state commits). Any buffer whose encoding
//!    would *change* stream state — the first buffer, adaptive trials,
//!    shape changes that re-establish the reference — is encoded right
//!    here, in order. Buffers that provably leave state untouched are
//!    recorded as deferred jobs against an immutable snapshot ("epoch")
//!    of the stream state they would have observed.
//! 2. **Fan-out**: deferred jobs are pulled off a shared self-scheduling
//!    queue (an atomic cursor — idle workers steal the next block the
//!    moment they finish one) by `workers` scoped threads. Each worker
//!    owns its own scratch workspace, preserving the per-stream
//!    zero-alloc steady state from the serial path. Results land in their
//!    original slots, so reassembly is deterministic and in order.
//!
//! Because a deferred buffer sees exactly the state the serial path would
//! have given it, and `encode_buffer_into` is deterministic, the bytes per
//! slot are identical to the serial loop's — pinned by the golden fixtures
//! in `tests/format_stability.rs` and the `parallel_determinism` test.
//! Parallelism is purely an encoder/decoder concern: no flag, block, or
//! frame differs on the wire.

use std::sync::atomic::{AtomicUsize, Ordering};

use mdz_obs::Obs;

use crate::adaptive::Candidate;
use crate::{MdzConfig, Method, QuantizerKind, Result};

use super::encode::{encode_buffer_into, EncodeScratch};
use super::{validate_shape, Compressor, CoreState, Decompressor};

/// Worker configuration for the parallel block engine.
///
/// The single knob is `workers`: how many OS threads fan blocks out.
/// `workers <= 1` means fully serial execution on the caller thread (the
/// default), so parallelism is strictly opt-in. Output is byte-identical
/// for every worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Number of worker threads; `0` and `1` both mean serial.
    pub workers: usize,
}

impl Default for ParallelOptions {
    /// Serial execution — identical behavior to the pre-parallel API.
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelOptions {
    /// Serial execution on the caller thread.
    pub const fn serial() -> Self {
        Self { workers: 1 }
    }

    /// An explicit worker count (`0` is treated as `1`).
    pub const fn with_workers(workers: usize) -> Self {
        Self { workers: if workers == 0 { 1 } else { workers } }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { workers }
    }

    /// Whether this configuration actually spawns worker threads.
    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }
}

/// Runs `run` over `jobs` on up to `workers` scoped threads, returning the
/// results in job order.
///
/// Each worker owns one context built by `make_ctx` (scratch buffers,
/// decoders, …) for its whole lifetime. Jobs are claimed through a shared
/// atomic cursor, so a worker that finishes early immediately takes the
/// next unclaimed block — coarse-grained work stealing without a deque.
/// With `workers <= 1` or fewer than two jobs everything runs inline on
/// the caller thread.
///
/// `obs` records one `core.parallel.worker_jobs` observation per worker
/// (the inline path counts as a single worker), exposing how evenly the
/// atomic-cursor scheduler spread the batch.
fn fan_out<J, C, R>(
    jobs: &[J],
    workers: usize,
    obs: &Obs,
    make_ctx: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &J) -> R + Sync,
) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    if workers <= 1 || jobs.len() <= 1 {
        let mut ctx = make_ctx();
        if !jobs.is_empty() {
            obs.observe("core.parallel.worker_jobs", jobs.len() as f64);
        }
        return jobs.iter().map(|j| run(&mut ctx, j)).collect();
    }
    let threads = workers.min(jobs.len());
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = make_ctx();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, run(&mut ctx, &jobs[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    obs.observe("core.parallel.worker_jobs", local.len() as f64);
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every job claimed exactly once")).collect()
}

/// A deferred encode block: everything a worker needs to reproduce the
/// serial path's bytes for one buffer.
struct EncodeJob<'a> {
    /// Index into the shared config table (one entry per stream).
    cfg: usize,
    /// Index into the shared epoch table (immutable state snapshots).
    epoch: usize,
    /// Concrete method the serial path would have used for this buffer.
    method: Method,
    /// Quantizer stage the serial path would have composed.
    quantizer: QuantizerKind,
    /// The buffer's snapshots.
    snapshots: &'a [Vec<f64>],
}

/// Compresses several independent buffer streams, fanning state-neutral
/// blocks across `workers` threads.
///
/// `streams` pairs each stateful [`Compressor`] with its ordered buffers.
/// Returns per-stream, per-buffer results whose bytes are identical to
/// calling [`Compressor::compress_buffer`] in order on each stream; the
/// compressors' stream state afterwards matches the serial path as long
/// as every buffer succeeded.
pub(crate) fn compress_streams<'a>(
    streams: Vec<(&mut Compressor, &[&'a [Vec<f64>]])>,
    workers: usize,
) -> Vec<Vec<Result<Vec<u8>>>> {
    let mut outs: Vec<Vec<Option<Result<Vec<u8>>>>> =
        streams.iter().map(|(_, bufs)| (0..bufs.len()).map(|_| None).collect()).collect();
    // Engine-wide metrics (queue depth, worker spread) go to the first
    // stream's recorder; per-block counters go to each block's own stream.
    let engine_obs = streams.first().map(|(c, _)| c.obs.clone()).unwrap_or_default();
    let mut cfgs: Vec<MdzConfig> = Vec::with_capacity(streams.len());
    let mut obses: Vec<Obs> = Vec::with_capacity(streams.len());
    let mut epochs: Vec<CoreState> = Vec::new();
    let mut jobs: Vec<EncodeJob<'a>> = Vec::new();
    let mut slot_of: Vec<(usize, usize)> = Vec::new(); // job slot -> (stream, buffer)

    // Phase 1: serial prologue. Encode every state-changing buffer in
    // order; defer the rest against an epoch snapshot of the stream state.
    for (si, (comp, bufs)) in streams.into_iter().enumerate() {
        cfgs.push(comp.cfg.clone());
        obses.push(comp.obs.clone());
        // Epoch index currently valid for this stream (`None` right after
        // a state-changing encode, so the next deferral re-snapshots).
        let mut cur_epoch: Option<usize> = None;
        for (slot, buf) in bufs.iter().enumerate() {
            if let Err(e) = comp.cfg.validate().and_then(|()| validate_shape(buf)) {
                outs[si][slot] = Some(Err(e));
                continue;
            }
            let is_adaptive = comp.cfg.method == Method::Adaptive;
            // The concrete composition a non-state-changing encode would
            // use; `None` marks an adaptive trial (always serial).
            let concrete: Option<Candidate> = if is_adaptive {
                if comp.adaptive.trial_due(comp.cfg.adapt_interval) {
                    None
                } else {
                    comp.adaptive.current()
                }
            } else {
                Some(Candidate { method: comp.cfg.method, quantizer: comp.cfg.quantizer })
            };
            let deferrable = concrete.is_some_and(|c| {
                let n = buf[0].len();
                // Mirrors the two state-delta sources in
                // `encode_buffer_into`: first-use level detection and
                // (re-)establishing the reference snapshot.
                let detects =
                    matches!(c.method, Method::Vq | Method::Vqt) && comp.state.grid.is_none();
                let sets_ref = comp.state.reference.as_ref().is_none_or(|r| r.len() != n);
                !detects && !sets_ref
            });
            if let (true, Some(candidate)) = (deferrable, concrete) {
                if is_adaptive {
                    comp.adaptive.tick();
                }
                let epoch = *cur_epoch.get_or_insert_with(|| {
                    epochs.push(comp.state.clone());
                    epochs.len() - 1
                });
                comp.obs.incr("core.parallel.deferred_blocks", 1);
                jobs.push(EncodeJob {
                    cfg: si,
                    epoch,
                    method: candidate.method,
                    quantizer: candidate.quantizer,
                    snapshots: buf,
                });
                slot_of.push((si, slot));
            } else {
                comp.obs.incr("core.parallel.serial_blocks", 1);
                let mut block = Vec::new();
                let r = comp.compress_buffer_into(buf, &mut block);
                outs[si][slot] = Some(r.map(|()| block));
                cur_epoch = None;
            }
        }
    }

    // Phase 2: fan the deferred blocks out. Each worker owns one scratch
    // workspace for its lifetime (zero-alloc steady state per worker).
    engine_obs.gauge("core.parallel.queue_depth", jobs.len() as u64);
    let results = fan_out(
        &jobs,
        workers,
        &engine_obs,
        EncodeScratch::default,
        |scratch: &mut EncodeScratch, job: &EncodeJob<'a>| {
            let mut block = Vec::new();
            let r = encode_buffer_into(
                &cfgs[job.cfg],
                &epochs[job.epoch],
                job.method,
                job.quantizer,
                job.snapshots,
                &mut block,
                scratch,
                &obses[job.cfg],
            );
            r.map(|delta| {
                debug_assert!(
                    delta.is_empty(),
                    "deferred block produced a state delta — deferral predicate out of sync"
                );
                block
            })
        },
    );
    for (job_idx, result) in results.into_iter().enumerate() {
        let (si, slot) = slot_of[job_idx];
        outs[si][slot] = Some(result);
    }
    outs.into_iter()
        .map(|stream| stream.into_iter().map(|s| s.expect("every slot filled")).collect())
        .collect()
}

/// A deferred decode block.
struct DecodeJob<'a> {
    /// Index into the per-stream limits table.
    stream: usize,
    /// Index into the shared epoch table of reference snapshots.
    epoch: usize,
    block: &'a [u8],
}

/// Decompresses several independent block streams, fanning state-neutral
/// blocks across `workers` threads.
///
/// The mirror of [`compress_streams`]: blocks that would establish or
/// replace a stream's reference snapshot decode serially in order, all
/// others fan out against an immutable clone of the reference they would
/// have observed. Per-slot results match a serial
/// [`Decompressor::decompress_block`] loop that keeps going after errors.
pub(crate) fn decompress_streams(
    streams: Vec<(&mut Decompressor, &[&[u8]])>,
    workers: usize,
) -> Vec<Vec<Result<Vec<Vec<f64>>>>> {
    type SlotResults = Vec<Option<Result<Vec<Vec<f64>>>>>;
    let mut outs: Vec<SlotResults> =
        streams.iter().map(|(_, blocks)| (0..blocks.len()).map(|_| None).collect()).collect();
    let engine_obs = streams.first().map(|(d, _)| d.obs.clone()).unwrap_or_default();
    let mut limits = Vec::with_capacity(streams.len());
    let mut obses: Vec<Obs> = Vec::with_capacity(streams.len());
    let mut epochs: Vec<Vec<f64>> = Vec::new();
    let mut jobs: Vec<DecodeJob<'_>> = Vec::new();
    let mut slot_of: Vec<(usize, usize)> = Vec::new();

    for (si, (dec, blocks)) in streams.into_iter().enumerate() {
        limits.push(dec.limits());
        obses.push(dec.obs.clone());
        let mut cur_epoch: Option<usize> = None;
        for (slot, block) in blocks.iter().enumerate() {
            if dec.keeps_state(block) {
                dec.obs.incr("core.parallel.deferred_blocks", 1);
                let epoch = *cur_epoch.get_or_insert_with(|| {
                    epochs.push(dec.reference.clone().expect("keeps_state implies a reference"));
                    epochs.len() - 1
                });
                jobs.push(DecodeJob { stream: si, epoch, block });
                slot_of.push((si, slot));
            } else {
                // State-changing (or malformed) block: decode in order on
                // the caller thread. Errors leave state untouched, exactly
                // like the serial loop.
                dec.obs.incr("core.parallel.serial_blocks", 1);
                outs[si][slot] = Some(dec.decompress_block(block));
                cur_epoch = None;
            }
        }
    }

    // Worker context: a private decompressor whose reference is re-pointed
    // at the job's epoch. The scratch inside it persists across jobs.
    struct Ctx {
        dec: Decompressor,
        /// Epoch the worker's decompressor currently holds, to avoid
        /// re-cloning the reference for runs of same-epoch jobs.
        loaded: Option<usize>,
    }
    engine_obs.gauge("core.parallel.queue_depth", jobs.len() as u64);
    let results = fan_out(
        &jobs,
        workers,
        &engine_obs,
        || Ctx { dec: Decompressor::default(), loaded: None },
        |ctx: &mut Ctx, job: &DecodeJob<'_>| {
            ctx.dec.set_limits(limits[job.stream]);
            ctx.dec.obs = obses[job.stream].clone();
            if ctx.loaded != Some(job.epoch) {
                ctx.dec.reference = Some(epochs[job.epoch].clone());
                ctx.loaded = Some(job.epoch);
            }
            // A deferrable block never rewrites the reference (its length
            // already matches), so the epoch stays valid across jobs.
            ctx.dec.decompress_block(job.block)
        },
    );
    for (job_idx, result) in results.into_iter().enumerate() {
        let (si, slot) = slot_of[job_idx];
        outs[si][slot] = Some(result);
    }
    outs.into_iter()
        .map(|stream| stream.into_iter().map(|s| s.expect("every slot filled")).collect())
        .collect()
}

impl Compressor {
    /// Compresses an ordered sequence of buffers, fanning independent
    /// blocks across `opts.workers` threads.
    ///
    /// The returned blocks are **byte-identical** to calling
    /// [`Compressor::compress_buffer`] on each buffer in order, for every
    /// worker count; afterwards the compressor holds the same stream state
    /// as the serial path. On the first error the remaining results are
    /// discarded and the stream state is unspecified — [`reset`] via
    /// constructing a fresh compressor before reuse.
    ///
    /// [`reset`]: crate::Codec::reset
    pub fn compress_buffers_parallel(
        &mut self,
        buffers: &[&[Vec<f64>]],
        opts: &ParallelOptions,
    ) -> Result<Vec<Vec<u8>>> {
        let per_slot = compress_streams(vec![(self, buffers)], opts.workers);
        per_slot.into_iter().next().unwrap_or_default().into_iter().collect()
    }

    /// [`Compressor::compress_buffers_parallel`] for single-precision
    /// buffers: each block is compressed via the lossless `f64` widening
    /// path and tagged `f32`, byte-identical to a serial
    /// [`Compressor::compress_buffer_f32`] loop.
    pub fn compress_buffers_f32_parallel(
        &mut self,
        buffers: &[&[Vec<f32>]],
        opts: &ParallelOptions,
    ) -> Result<Vec<Vec<u8>>> {
        let widened: Vec<Vec<Vec<f64>>> = buffers
            .iter()
            .map(|buf| buf.iter().map(|s| s.iter().map(|&v| f64::from(v)).collect()).collect())
            .collect();
        let refs: Vec<&[Vec<f64>]> = widened.iter().map(Vec::as_slice).collect();
        let mut blocks = self.compress_buffers_parallel(&refs, opts)?;
        for block in &mut blocks {
            block[crate::format::FLAGS_OFFSET] |= crate::format::FLAG_F32;
        }
        Ok(blocks)
    }
}

impl Decompressor {
    /// Decompresses an ordered sequence of blocks, fanning independent
    /// blocks across `opts.workers` threads.
    ///
    /// Results are identical to calling
    /// [`Decompressor::decompress_block`] on each block in order, for
    /// every worker count. Returns the first error in block order, if any;
    /// the decompressor's stream state is then unspecified.
    pub fn decompress_blocks_parallel(
        &mut self,
        blocks: &[&[u8]],
        opts: &ParallelOptions,
    ) -> Result<Vec<Vec<Vec<f64>>>> {
        let per_slot = decompress_streams(vec![(self, blocks)], opts.workers);
        per_slot.into_iter().next().unwrap_or_default().into_iter().collect()
    }
}

impl super::StateDelta {
    /// Whether committing this delta would be a no-op.
    pub(crate) fn is_empty(&self) -> bool {
        self.grid.is_none() && self.reference.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorBound, MdzConfig};

    fn lattice(m: usize, n: usize, drift: f64) -> Vec<Vec<f64>> {
        let mut s = 42u64;
        (0..m)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        (i % 12) as f64 * 2.0 + u * 0.01 + t as f64 * drift
                    })
                    .collect()
            })
            .collect()
    }

    fn buffers(count: usize) -> Vec<Vec<Vec<f64>>> {
        (0..count).map(|k| lattice(4, 150, 1e-4 * (k + 1) as f64)).collect()
    }

    #[test]
    fn parallel_blocks_match_serial_for_every_method() {
        let bufs = buffers(7);
        let refs: Vec<&[Vec<f64>]> = bufs.iter().map(Vec::as_slice).collect();
        for method in [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2, Method::Adaptive] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(method);
            let mut serial = Compressor::new(cfg.clone());
            let want: Vec<Vec<u8>> =
                refs.iter().map(|b| serial.compress_buffer(b).unwrap()).collect();
            for workers in [1, 2, 4] {
                let mut par = Compressor::new(cfg.clone());
                let got = par
                    .compress_buffers_parallel(&refs, &ParallelOptions::with_workers(workers))
                    .unwrap();
                assert_eq!(got, want, "{method} with {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_engine_state_matches_serial_afterwards() {
        // Compress half the stream in parallel, then one more buffer on
        // both compressors serially: the follow-up blocks must agree.
        let bufs = buffers(6);
        let refs: Vec<&[Vec<f64>]> = bufs.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut serial = Compressor::new(cfg.clone());
        for b in &refs[..5] {
            serial.compress_buffer(b).unwrap();
        }
        let mut par = Compressor::new(cfg);
        par.compress_buffers_parallel(&refs[..5], &ParallelOptions::with_workers(4)).unwrap();
        assert_eq!(
            par.compress_buffer(&bufs[5]).unwrap(),
            serial.compress_buffer(&bufs[5]).unwrap()
        );
    }

    #[test]
    fn adaptive_trial_cadence_survives_parallel_encoding() {
        // A short adapt interval forces several trials inside one batch.
        let bufs = buffers(9);
        let refs: Vec<&[Vec<f64>]> = bufs.iter().map(Vec::as_slice).collect();
        let mut cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        cfg.adapt_interval = 3;
        let mut serial = Compressor::new(cfg.clone());
        let want: Vec<Vec<u8>> = refs.iter().map(|b| serial.compress_buffer(b).unwrap()).collect();
        let mut par = Compressor::new(cfg);
        let got = par.compress_buffers_parallel(&refs, &ParallelOptions::with_workers(4)).unwrap();
        assert_eq!(got, want);
        assert_eq!(par.current_adaptive_choice(), serial.current_adaptive_choice());
    }

    #[test]
    fn shape_change_mid_stream_stays_identical() {
        // A different particle count re-establishes the reference; that
        // buffer must be treated as a serial state boundary.
        let mut bufs = buffers(5);
        bufs[2] = lattice(4, 90, 1e-4);
        bufs[3] = lattice(4, 90, 2e-4);
        let refs: Vec<&[Vec<f64>]> = bufs.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut serial = Compressor::new(cfg.clone());
        let want: Vec<Vec<u8>> = refs.iter().map(|b| serial.compress_buffer(b).unwrap()).collect();
        let mut par = Compressor::new(cfg);
        let got = par.compress_buffers_parallel(&refs, &ParallelOptions::with_workers(4)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_decode_round_trips_and_matches_serial() {
        let bufs = buffers(6);
        let refs: Vec<&[Vec<f64>]> = bufs.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vqt);
        let mut comp = Compressor::new(cfg);
        let blocks = comp.compress_buffers_parallel(&refs, &ParallelOptions::serial()).unwrap();
        let block_refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let mut serial = Decompressor::new();
        let want: Vec<_> = block_refs.iter().map(|b| serial.decompress_block(b).unwrap()).collect();
        for workers in [1, 2, 4] {
            let mut par = Decompressor::new();
            let got = par
                .decompress_blocks_parallel(&block_refs, &ParallelOptions::with_workers(workers))
                .unwrap();
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn parallel_decode_propagates_first_error() {
        let bufs = buffers(3);
        let refs: Vec<&[Vec<f64>]> = bufs.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq);
        let mut comp = Compressor::new(cfg);
        let blocks = comp.compress_buffers_parallel(&refs, &ParallelOptions::serial()).unwrap();
        let mut corrupt = blocks[1].clone();
        let mid = corrupt.len() / 2;
        corrupt[mid..].iter_mut().for_each(|b| *b ^= 0x5A);
        let block_refs: Vec<&[u8]> = vec![&blocks[0], &corrupt, &blocks[2]];
        let mut par = Decompressor::new();
        assert!(par
            .decompress_blocks_parallel(&block_refs, &ParallelOptions::with_workers(4))
            .is_err());
    }

    #[test]
    fn options_constructors() {
        assert_eq!(ParallelOptions::default(), ParallelOptions::serial());
        assert_eq!(ParallelOptions::with_workers(0).workers, 1);
        assert!(!ParallelOptions::with_workers(1).is_parallel());
        assert!(ParallelOptions::with_workers(2).is_parallel());
        assert!(ParallelOptions::auto().workers >= 1);
    }

    #[test]
    fn empty_and_single_buffer_batches() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let mut c = Compressor::new(cfg);
        assert!(c.compress_buffers_parallel(&[], &ParallelOptions::auto()).unwrap().is_empty());
        let buf = lattice(3, 50, 0.0);
        let got = c.compress_buffers_parallel(&[buf.as_slice()], &ParallelOptions::auto()).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn f32_parallel_matches_serial_f32_loop() {
        let wide = buffers(5);
        let narrow: Vec<Vec<Vec<f32>>> = wide
            .iter()
            .map(|buf| buf.iter().map(|s| s.iter().map(|&v| v as f32).collect()).collect())
            .collect();
        let refs: Vec<&[Vec<f32>]> = narrow.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vqt);
        let mut serial = Compressor::new(cfg.clone());
        let want: Vec<Vec<u8>> =
            refs.iter().map(|b| serial.compress_buffer_f32(b).unwrap()).collect();
        let mut par = Compressor::new(cfg);
        let got =
            par.compress_buffers_f32_parallel(&refs, &ParallelOptions::with_workers(4)).unwrap();
        assert_eq!(got, want);
    }
}
