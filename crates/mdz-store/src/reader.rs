//! Random-access reads over an indexed archive: anchor-plus-touched-block
//! decoding, the LRU cache of decoded buffers, live refresh of a growing
//! archive, and the shared metrics registry.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, RwLock};

use mdz_core::{DecodeLimits, Decompressor, Frame, MdzError, Obs, Result};
use mdz_obs::{MetricsSnapshot, Registry};

use crate::archive::{record_at, recover_slice, split_container, ArchiveIndex, RecoverReport};

/// Tuning knobs for [`StoreReader`].
#[derive(Debug, Clone, Default)]
pub struct ReaderOptions {
    /// Decode budget applied to every block this reader decodes.
    pub limits: DecodeLimits,
}

/// Cache budget, in epochs. The cache holds decoded *buffers* (LRU
/// eviction); its capacity is `CACHE_EPOCHS` × the index's longest epoch,
/// counted in buffers, so it never holds more than this many whole epochs
/// would. Each buffer holds `buffer_size × n_atoms × 24` bytes of
/// full-precision frames.
const CACHE_EPOCHS: usize = 4;

/// A point-in-time copy of the reader's core counters, derived from the
/// shared [`Registry`] (see [`StoreReader::metrics`] for the full
/// snapshot including server-side histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests served (incremented by the serving layer, not by local reads).
    pub requests: u64,
    /// Response payload bytes written by the serving layer.
    pub bytes_out: u64,
    /// Touched buffers found in the cache, counted once per request.
    pub cache_hits: u64,
    /// Touched buffers not in the cache, counted once per request (whether
    /// the request decoded them or shared another request's decode).
    pub cache_misses: u64,
    /// Decode attempts that failed (corrupt records, budget violations).
    pub decode_errors: u64,
    /// Buffers decoded since the reader was opened, including epoch
    /// anchors decoded only for their reference state. The random-access
    /// guarantee is expressed against this counter: a cold `read_frames`
    /// call touching one buffer grows it by 1 (the buffer is its epoch's
    /// anchor) or 2 (the anchor plus the buffer), and a warm one by 0.
    pub buffers_decoded: u64,
}

/// Report returned by [`StoreReader::refresh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshReport {
    /// Frames newly visible through this reader after the refresh.
    pub frames_added: usize,
    /// Block records newly visible after the refresh.
    pub blocks_added: usize,
    /// Total frames visible after the refresh.
    pub n_frames: usize,
    /// Garbage tail bytes ignored by the recovery scan inside the refresh
    /// (an in-flight append whose footer has not landed yet).
    pub truncated_bytes: usize,
}

struct CacheEntry {
    last_used: u64,
    frames: Arc<Vec<Frame>>,
}

/// One in-flight decode of a cold buffer, shared by every request that
/// arrives while the decode is running. The first requester (the leader)
/// decodes; the rest block on `done` and take the leader's result, so
/// concurrent readers of one cold buffer cost exactly one decode.
struct PendingSlot {
    state: Mutex<PendingState>,
    done: Condvar,
}

enum PendingState {
    /// The leader is still decoding.
    InFlight,
    /// The leader finished: `Some` carries the decoded frames; `None`
    /// means the decode failed and waiters must re-probe the cache (the
    /// first one back in becomes the new leader).
    Done(Option<Arc<Vec<Frame>>>),
}

impl Default for PendingSlot {
    fn default() -> Self {
        Self { state: Mutex::new(PendingState::InFlight), done: Condvar::new() }
    }
}

impl PendingSlot {
    /// Publishes the leader's result and wakes every waiter.
    fn finish(&self, frames: Option<Arc<Vec<Frame>>>) {
        *self.state.lock().unwrap() = PendingState::Done(frames);
        self.done.notify_all();
    }

    /// Blocks until the leader finishes; `None` means it failed.
    fn wait(&self) -> Option<Arc<Vec<Frame>>> {
        let mut state = self.state.lock().unwrap();
        loop {
            match &*state {
                PendingState::InFlight => state = self.done.wait(state).unwrap(),
                PendingState::Done(frames) => return frames.clone(),
            }
        }
    }
}

/// Decoded-buffer LRU cache plus the table of in-flight decodes, both
/// keyed by block index.
///
/// Recency lives in `by_tick`, keyed by the strictly increasing `tick`
/// counter (so keys are unique and the smallest key is always the least
/// recently used). A touch is one `BTreeMap` remove + insert and eviction
/// pops the first entry — O(log n), never a scan over `map`.
#[derive(Default)]
struct BufferCache {
    map: HashMap<usize, CacheEntry>,
    /// Recency index: `last_used` tick → block, mirroring `map` exactly.
    by_tick: BTreeMap<u64, usize>,
    /// Cold buffers currently being decoded by a leader request.
    pending: HashMap<usize, Arc<PendingSlot>>,
    tick: u64,
}

impl BufferCache {
    /// Marks `block` used now and returns its frames if cached.
    fn touch(&mut self, block: usize) -> Option<Arc<Vec<Frame>>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&block)?;
        self.by_tick.remove(&entry.last_used);
        entry.last_used = tick;
        self.by_tick.insert(tick, block);
        Some(Arc::clone(&entry.frames))
    }

    /// Inserts `block`, first evicting least-recently-used entries until
    /// the cache is below `cap`.
    fn insert(&mut self, block: usize, frames: Arc<Vec<Frame>>, cap: usize) {
        self.tick += 1;
        let tick = self.tick;
        while self.map.len() >= cap {
            let Some((_, oldest)) = self.by_tick.pop_first() else { break };
            self.map.remove(&oldest);
        }
        if let Some(prev) = self.map.insert(block, CacheEntry { last_used: tick, frames }) {
            self.by_tick.remove(&prev.last_used);
        }
        self.by_tick.insert(tick, block);
    }
}

/// The swappable part of the store: archive bytes, the parsed index and
/// the cache capacity derived from it.
///
/// [`StoreReader::refresh`] swaps in a new `Arc` under the write lock; a
/// read clones the `Arc` once per call and never observes a torn mix of
/// old bytes with a new index.
struct ArchiveState {
    data: Vec<u8>,
    index: Arc<ArchiveIndex>,
    /// `CACHE_EPOCHS` × the index's longest epoch, in buffers (at least 1).
    cache_cap: usize,
}

impl ArchiveState {
    fn new(data: Vec<u8>, index: ArchiveIndex) -> Arc<Self> {
        let longest_epoch =
            (0..index.n_epochs()).map(|e| index.epoch_blocks(e).len()).max().unwrap_or(0);
        let cache_cap = (CACHE_EPOCHS * longest_epoch).max(1);
        Arc::new(Self { data, index: Arc::new(index), cache_cap })
    }
}

/// State every handle onto one archive shares: the swappable bytes/index
/// pair, the buffer cache, and the metrics registry.
struct Shared {
    state: RwLock<Arc<ArchiveState>>,
    cache: Mutex<BufferCache>,
    /// Shared metrics registry: the reader's `store.*` counters land here
    /// alongside whatever the serving layer and the core pipeline record.
    registry: Arc<Registry>,
    /// Recorder handle passed to the per-axis decompressors, so pipeline
    /// stage timings (`core.decode.*`) accrue to the same registry.
    obs: Obs,
}

/// A cheaply cloneable handle for random-access reads over one archive.
///
/// All clones share the archive bytes, the buffer cache (with its table of
/// in-flight decodes), and the stats counters, so a server hands one clone
/// to each event shard. A live archive (one still being appended to) is
/// picked up via [`refresh`](Self::refresh) — existing clones all observe
/// the new frames.
#[derive(Clone)]
pub struct StoreReader {
    shared: Arc<Shared>,
    opts: ReaderOptions,
}

impl StoreReader {
    /// Parses `data` (a version-1 or version-2 archive) with default options.
    pub fn open(data: Vec<u8>) -> Result<Self> {
        Self::with_options(data, ReaderOptions::default())
    }

    /// Parses `data` with explicit cache and decode-budget options,
    /// recording into a fresh private [`Registry`].
    pub fn with_options(data: Vec<u8>, opts: ReaderOptions) -> Result<Self> {
        Self::with_registry(data, opts, Arc::new(Registry::new()))
    }

    /// Parses `data` recording into a caller-supplied [`Registry`] — use
    /// this to aggregate reader, server, and pipeline metrics in one place
    /// (the serving layer snapshots it for the METRICS verb).
    pub fn with_registry(
        data: Vec<u8>,
        opts: ReaderOptions,
        registry: Arc<Registry>,
    ) -> Result<Self> {
        let index = ArchiveIndex::parse(&data)?;
        let obs = Obs::new(Arc::clone(&registry) as Arc<dyn mdz_core::Recorder>);
        Ok(Self {
            shared: Arc::new(Shared {
                state: RwLock::new(ArchiveState::new(data, index)),
                cache: Mutex::new(BufferCache::default()),
                registry,
                obs,
            }),
            opts,
        })
    }

    /// Opens `data` after a crash: scans back to the last valid footer,
    /// drops any garbage tail (a torn append), and reads the archive as of
    /// that footer. Equivalent to [`open`](Self::open) when the archive is
    /// cleanly closed. The in-memory copy is truncated; use
    /// [`crate::recover_store`] to repair the file itself.
    pub fn recover(data: Vec<u8>) -> Result<(Self, RecoverReport)> {
        Self::recover_with_registry(data, ReaderOptions::default(), Arc::new(Registry::new()))
    }

    /// [`recover`](Self::recover) with explicit options and a caller
    /// registry. Records `store.recover.count` and
    /// `store.recover.truncated_bytes` when a tail was dropped.
    pub fn recover_with_registry(
        mut data: Vec<u8>,
        opts: ReaderOptions,
        registry: Arc<Registry>,
    ) -> Result<(Self, RecoverReport)> {
        let (valid_len, _) = recover_slice(&data)?;
        let truncated_bytes = data.len() - valid_len;
        data.truncate(valid_len);
        let reader = Self::with_registry(data, opts, registry)?;
        if truncated_bytes > 0 {
            reader.shared.obs.incr("store.recover.count", 1);
            reader.shared.obs.incr("store.recover.truncated_bytes", truncated_bytes as u64);
        }
        Ok((reader, RecoverReport { valid_len, truncated_bytes }))
    }

    /// The parsed header and block index, as of the last successful
    /// [`refresh`](Self::refresh) (or open). The returned `Arc` is a
    /// consistent snapshot: a concurrent refresh swaps in a new index
    /// without mutating snapshots already handed out.
    pub fn index(&self) -> Arc<ArchiveIndex> {
        Arc::clone(&self.shared.state.read().unwrap().index)
    }

    /// Re-reads a (possibly grown) copy of the archive bytes and publishes
    /// any newly durable frames to every clone of this reader.
    ///
    /// `data` is the current on-disk image; the recovery scan inside drops
    /// any torn tail (an append whose footer has not landed yet), so it is
    /// always safe to call with bytes read mid-append. The refresh is
    /// accepted only when the new image is a *monotone extension* of the
    /// current state:
    ///
    /// * same geometry (atom count, buffer size, precision, version),
    /// * the frame count never shrinks,
    /// * every currently indexed block keeps its offset, and
    /// * every current epoch anchor is preserved.
    ///
    /// Those invariants are exactly what the footer-flip append protocol
    /// guarantees, and they are what make the buffer cache refresh-safe: a
    /// published block and its epoch anchor never change once a footer
    /// covering them lands, so cached entries stay valid and only the tail
    /// grows. A
    /// violation (the file was replaced, truncated, or rewritten in place)
    /// is rejected with [`MdzError::Corrupt`] and counted under
    /// `reader.refresh.rejected`; the reader keeps serving its current
    /// state.
    ///
    /// Records `reader.refresh.count` and `reader.refresh.frames_added`.
    pub fn refresh(&self, mut data: Vec<u8>) -> Result<RefreshReport> {
        let obs = &self.shared.obs;
        let (valid_len, new_index) = match recover_slice(&data) {
            Ok(ok) => ok,
            Err(e) => {
                obs.incr("reader.refresh.rejected", 1);
                return Err(e);
            }
        };
        let truncated_bytes = data.len() - valid_len;
        data.truncate(valid_len);

        let mut state = self.shared.state.write().unwrap();
        let old = &state.index;
        if let Err(what) = validate_monotone_extension(old, &new_index) {
            obs.incr("reader.refresh.rejected", 1);
            return Err(MdzError::Corrupt { what });
        }
        let frames_added = new_index.n_frames - old.n_frames;
        let blocks_added = new_index.blocks.len() - old.blocks.len();
        let n_frames = new_index.n_frames;
        *state = ArchiveState::new(data, new_index);
        drop(state);
        obs.incr("reader.refresh.count", 1);
        obs.incr("reader.refresh.frames_added", frames_added as u64);
        Ok(RefreshReport { frames_added, blocks_added, n_frames, truncated_bytes })
    }

    /// The shared metrics registry every clone of this reader records into.
    pub fn recorder(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A full point-in-time snapshot of every metric recorded against this
    /// reader's registry (counters, gauges, and latency histograms).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// A point-in-time copy of the core counters.
    pub fn stats(&self) -> StatsSnapshot {
        let r = &self.shared.registry;
        StatsSnapshot {
            requests: r.counter("store.requests"),
            bytes_out: r.counter("store.bytes_out"),
            cache_hits: r.counter("store.cache.hits"),
            cache_misses: r.counter("store.cache.misses"),
            decode_errors: r.counter("store.decode_errors"),
            buffers_decoded: r.counter("store.buffers_decoded"),
        }
    }

    /// Decodes the frames in `range` (end-exclusive), touching only the
    /// buffers that overlap it.
    ///
    /// Reads go through the shared buffer cache. On a miss the reader
    /// decodes, with this reader's [`DecodeLimits`], the epoch's anchor
    /// plus the missing buffers the range touches; a buffer in between is
    /// skipped when [`Decompressor::keeps_state`] says decoding it would
    /// leave the decoder state unchanged, and decoded in order otherwise.
    /// Every decoded buffer is cached. The result is byte-identical to
    /// slicing the same range out of a full sequential decompression of the
    /// archive, or an error.
    pub fn read_frames(&self, range: Range<usize>) -> Result<Vec<Frame>> {
        // One consistent snapshot per call: a concurrent refresh can land a
        // new index mid-read without this read observing mixed state.
        let snap = self.snapshot();
        let idx = &snap.index;
        if range.start > range.end || range.end > idx.n_frames {
            return Err(MdzError::BadInput("frame range out of bounds"));
        }
        if range.is_empty() {
            return Ok(Vec::new());
        }
        let bs = idx.buffer_size.max(1);
        let touched = range.start / bs..(range.end - 1) / bs + 1;
        // Epoch boundaries are irregular after appends (each appended
        // segment anchors an epoch at its first block, besides the
        // `epoch_interval` stride), so map frames through the index's
        // epoch-start list rather than a fixed stride. Epochs are served
        // one at a time so at most one epoch's decoded buffers are held
        // outside the cache at once.
        let mut out = Vec::with_capacity(range.len());
        for epoch in idx.epoch_of_frame(range.start)..=idx.epoch_of_frame(range.end - 1) {
            let in_epoch = idx.epoch_blocks(epoch);
            let blocks = touched.start.max(in_epoch.start)..touched.end.min(in_epoch.end);
            let buffers = self.epoch_buffers(&snap, epoch, blocks.clone())?;
            for (block, frames) in blocks.zip(&buffers) {
                let start = idx.blocks[block].frame_start;
                let lo = range.start.max(start) - start;
                let hi = (range.end - start).min(frames.len());
                out.extend(frames[lo..hi].iter().cloned());
            }
        }
        Ok(out)
    }

    /// The current archive state, cloned under the read lock.
    fn snapshot(&self) -> Arc<ArchiveState> {
        Arc::clone(&self.shared.state.read().unwrap())
    }

    /// Returns the decoded frames of `blocks` (all in `epoch`), from cache
    /// or by decoding, in block order.
    ///
    /// The cache is keyed by block index, which is stable across
    /// refreshes: appends only ever add blocks and epochs past the current
    /// tail, so an entry decoded from an older snapshot is still correct.
    ///
    /// Concurrent requests for the same cold buffer are deduplicated: the
    /// first one in installs a [`PendingSlot`] and becomes that buffer's
    /// decode leader; later arrivals block on the slot and share the
    /// leader's result. A request decodes everything it leads before it
    /// waits on anyone, so two requests leading each other's buffers
    /// cannot deadlock. Each touched buffer counts exactly one of
    /// `store.cache.hits` / `store.cache.misses` per request, while
    /// `store.buffers_decoded` counts only the decode work actually
    /// performed.
    fn epoch_buffers(
        &self,
        snap: &ArchiveState,
        epoch: usize,
        blocks: Range<usize>,
    ) -> Result<Vec<Arc<Vec<Frame>>>> {
        let obs = &self.shared.obs;
        let mut got: Vec<Option<Arc<Vec<Frame>>>> = vec![None; blocks.len()];
        let mut counted = false;
        loop {
            // Probe the cache; for each miss, either join the in-flight
            // decode or install a slot and become its leader. Counting in
            // the same critical section keeps "every miss is counted" and
            // "every counted miss holds a slot" one atomic step.
            let mut leads: Vec<(usize, Arc<PendingSlot>)> = Vec::new();
            let mut waits: Vec<(usize, Arc<PendingSlot>)> = Vec::new();
            {
                let mut cache = self.shared.cache.lock().unwrap();
                let (mut hits, mut misses) = (0, 0);
                for (slot, block) in got.iter_mut().zip(blocks.clone()) {
                    if slot.is_some() {
                        continue;
                    }
                    if let Some(frames) = cache.touch(block) {
                        hits += 1;
                        *slot = Some(frames);
                        continue;
                    }
                    misses += 1;
                    match cache.pending.get(&block) {
                        Some(pending) => waits.push((block, Arc::clone(pending))),
                        None => {
                            let pending = Arc::new(PendingSlot::default());
                            cache.pending.insert(block, Arc::clone(&pending));
                            leads.push((block, pending));
                        }
                    }
                }
                if !counted {
                    counted = true;
                    obs.incr("store.cache.hits", hits);
                    obs.incr("store.cache.misses", misses);
                }
            }
            if !leads.is_empty() {
                let wanted: Vec<usize> = leads.iter().map(|(b, _)| *b).collect();
                // Decode outside the cache lock so other buffers stay
                // readable while these are in flight.
                let result = self.decode_from_anchor(snap, epoch, &wanted);
                let mut cache = self.shared.cache.lock().unwrap();
                for block in &wanted {
                    cache.pending.remove(block);
                }
                let decoded = match result {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        obs.incr("store.decode_errors", 1);
                        drop(cache);
                        for (_, pending) in &leads {
                            pending.finish(None);
                        }
                        return Err(e);
                    }
                };
                for (block, frames) in &decoded {
                    cache.insert(*block, Arc::clone(frames), snap.cache_cap);
                }
                drop(cache);
                // `decoded` is ascending and includes every wanted block.
                for (block, frames) in decoded {
                    if let Ok(i) = wanted.binary_search(&block) {
                        leads[i].1.finish(Some(Arc::clone(&frames)));
                        got[block - blocks.start] = Some(frames);
                    }
                }
            }
            for (block, pending) in waits {
                // `None`: the leader failed. Loop to re-probe the cache and
                // possibly become the new leader; the miss was already
                // counted for this request.
                got[block - blocks.start] = pending.wait();
            }
            if got.iter().all(Option::is_some) {
                return Ok(got.into_iter().flatten().collect());
            }
        }
    }

    /// Decodes the `wanted` blocks of `epoch` (ascending) with fresh
    /// per-axis decompressors, returning every buffer decoded on the way,
    /// in block order.
    ///
    /// The writer re-anchored the compressor at the epoch's first block,
    /// so decoding from there with empty stream state reproduces the
    /// sequential decode exactly. Each axis walks the epoch from its anchor
    /// to the last wanted block and skips a block that is not wanted only
    /// when [`Decompressor::keeps_state`] says decoding it would leave the
    /// decoder state unchanged; any other block decodes in order. The
    /// three axis streams are independent; a whole-epoch decode runs them
    /// concurrently.
    fn decode_from_anchor(
        &self,
        snap: &ArchiveState,
        epoch: usize,
        wanted: &[usize],
    ) -> Result<Vec<(usize, Arc<Vec<Frame>>)>> {
        let idx = &snap.index;
        let anchor = idx.epoch_blocks(epoch).start;
        let last = *wanted.last().expect("a leader decodes at least one block");
        let containers = idx.blocks[anchor..=last]
            .iter()
            .map(|b| record_at(&snap.data, b.offset))
            .collect::<Result<Vec<&[u8]>>>()?;

        let decode_axis = |axis: usize, obs: &Obs| -> Result<Vec<(usize, Vec<Vec<f64>>)>> {
            let mut dec = Decompressor::with_limits(self.opts.limits);
            dec.set_obs(obs.clone());
            let mut decoded = Vec::new();
            for (block, container) in (anchor..).zip(&containers) {
                let part = split_container(container)?[axis];
                if wanted.binary_search(&block).is_err() && dec.keeps_state(part) {
                    continue;
                }
                let snapshots = if idx.f32_source {
                    let narrow = dec.decompress_block_f32(part)?;
                    narrow.into_iter().map(|s| s.into_iter().map(f64::from).collect()).collect()
                } else {
                    dec.decompress_block(part)?
                };
                if snapshots.len() != idx.blocks[block].n_frames {
                    return Err(MdzError::Corrupt {
                        what: "block frame count disagrees with index",
                    });
                }
                if snapshots.iter().any(|s| s.len() != idx.n_atoms) {
                    return Err(MdzError::Corrupt {
                        what: "axis atom count disagrees with header",
                    });
                }
                decoded.push((block, snapshots));
            }
            Ok(decoded)
        };
        // A decode of a whole epoch (a scan) fans the three axes out. A
        // partial one (random access) stays on the caller's thread: a
        // serving thread already shares the cores with other requests, and
        // short-lived axis threads scatter the cached buffers across
        // allocator arenas. Serving two closed-loop clients on a 2-vCPU
        // host, per-request axis threads cost ~15% of the GET throughput
        // and ~25 MB of peak RSS. The fanned-out axes record their decode
        // spans as shares of the read's wall time (DESIGN.md §11).
        let (x, y, z) = if wanted.len() == idx.epoch_blocks(epoch).len() {
            let obs = self.shared.obs.share(3);
            std::thread::scope(|s| {
                let hy = s.spawn(|| decode_axis(1, &obs));
                let hz = s.spawn(|| decode_axis(2, &obs));
                let x = decode_axis(0, &obs);
                (x, join_axis(hy.join()), join_axis(hz.join()))
            })
        } else {
            let obs = &self.shared.obs;
            (decode_axis(0, obs), decode_axis(1, obs), decode_axis(2, obs))
        };
        let (x, y, z) = (x?, y?, z?);

        if x.len() != y.len() || x.len() != z.len() {
            return Err(MdzError::Corrupt { what: "axes decoded different blocks" });
        }
        let mut out = Vec::with_capacity(x.len());
        for (((block, sx), (by, sy)), (bz, sz)) in x.into_iter().zip(y).zip(z) {
            if by != block || bz != block {
                return Err(MdzError::Corrupt { what: "axes decoded different blocks" });
            }
            let frames = sx.into_iter().zip(sy).zip(sz).map(|((x, y), z)| Frame::new(x, y, z));
            out.push((block, Arc::new(frames.collect())));
        }
        self.shared.obs.incr("store.buffers_decoded", out.len() as u64);
        Ok(out)
    }
}

/// Checks that `new` extends `old` without rewriting anything a reader may
/// already have decoded or cached. Returns the violated invariant.
fn validate_monotone_extension(
    old: &ArchiveIndex,
    new: &ArchiveIndex,
) -> std::result::Result<(), &'static str> {
    if new.version != old.version
        || new.f32_source != old.f32_source
        || new.n_atoms != old.n_atoms
        || new.buffer_size != old.buffer_size
    {
        return Err("refresh: archive geometry changed");
    }
    if new.n_frames < old.n_frames {
        return Err("refresh: frame count went backwards");
    }
    if new.n_frames > old.n_frames && old.n_frames % old.buffer_size != 0 {
        return Err("refresh: a partial tail block was extended in place");
    }
    if new.blocks.len() < old.blocks.len()
        || old.blocks.iter().zip(&new.blocks).any(|(o, n)| o.offset != n.offset)
    {
        return Err("refresh: published block offsets changed");
    }
    if new.epoch_starts.len() < old.epoch_starts.len()
        || old.epoch_starts != new.epoch_starts[..old.epoch_starts.len()]
    {
        return Err("refresh: published epoch anchors changed");
    }
    Ok(())
}

/// Maps an axis-decode thread's join result into the reader's error type.
///
/// A panic on a worker thread must not take the whole process (and every
/// other connection a server is juggling) down with it: the panic payload
/// is dropped here and surfaces as a [`MdzError::Corrupt`] on this request
/// only, which the caller's decode-error accounting then counts like any
/// other failed decode.
fn join_axis<T>(joined: std::thread::Result<Result<T>>) -> Result<T> {
    match joined {
        Ok(r) => r,
        Err(_payload) => Err(MdzError::Corrupt { what: "axis decode thread panicked" }),
    }
}

impl std::fmt::Debug for StoreReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idx = self.index();
        f.debug_struct("StoreReader")
            .field("n_frames", &idx.n_frames)
            .field("n_blocks", &idx.blocks.len())
            .field("epoch_interval", &idx.epoch_interval)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{append_store, write_store, StoreOptions};
    use crate::io::MemIo;
    use mdz_core::{ErrorBound, MdzConfig};

    fn frames(n_frames: usize, n_atoms: usize) -> Vec<Frame> {
        (0..n_frames)
            .map(|t| {
                let coord = |axis: usize| {
                    (0..n_atoms)
                        .map(|i| (i % 5) as f64 * 1.5 + t as f64 * 1e-3 + axis as f64)
                        .collect::<Vec<f64>>()
                };
                Frame::new(coord(0), coord(1), coord(2))
            })
            .collect()
    }

    fn small_store() -> StoreReader {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        opts.buffer_size = 4;
        opts.epoch_interval = 2;
        let data = write_store(&frames(20, 8), &[], &[], &opts).unwrap();
        StoreReader::open(data).unwrap()
    }

    #[test]
    fn read_matches_full_read_on_subranges() {
        let reader = small_store();
        let full = reader.read_frames(0..20).unwrap();
        for (start, end) in [(0, 20), (0, 1), (19, 20), (3, 9), (7, 8), (4, 16), (10, 10)] {
            let part = reader.read_frames(start..end).unwrap();
            assert_eq!(part, full[start..end], "range {start}..{end}");
        }
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted range is the point
    fn out_of_bounds_ranges_error() {
        let reader = small_store();
        assert!(reader.read_frames(0..21).is_err());
        assert!(reader.read_frames(5..4).is_err());
        assert!(reader.read_frames(0..0).unwrap().is_empty());
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let reader = small_store();
        reader.read_frames(0..4).unwrap(); // buffer 0, the anchor: 1 decode
        let after_first = reader.stats();
        assert_eq!(after_first.cache_misses, 1);
        assert_eq!(after_first.cache_hits, 0);
        assert_eq!(after_first.buffers_decoded, 1);
        // Buffer 1 shares the epoch (K=2, bs=4) but is not cached: its
        // decode needs the anchor's reference state, so the anchor decodes
        // again.
        reader.read_frames(4..8).unwrap();
        let after_second = reader.stats();
        assert_eq!(after_second.cache_misses, 2);
        assert_eq!(after_second.cache_hits, 0);
        assert_eq!(after_second.buffers_decoded, 3);
        // A range over both buffers is now pure cache: one hit each.
        reader.read_frames(2..6).unwrap();
        let after_third = reader.stats();
        assert_eq!(after_third.cache_misses, 2);
        assert_eq!(after_third.cache_hits, 2);
        assert_eq!(after_third.buffers_decoded, 3);
    }

    #[test]
    fn lru_evicts_least_recently_used_buffer() {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        opts.buffer_size = 2;
        opts.epoch_interval = 1;
        let data = write_store(&frames(12, 4), &[], &[], &opts).unwrap();
        let reader = StoreReader::open(data).unwrap();
        // K=1: every buffer is its own epoch, so the capacity is
        // CACHE_EPOCHS = 4 buffers.
        for buffer in 0..4 {
            reader.read_frames(2 * buffer..2 * buffer + 2).unwrap(); // misses
        }
        reader.read_frames(0..2).unwrap(); // buffer 0: hit (now most recent)
        reader.read_frames(8..10).unwrap(); // buffer 4: miss, evicts buffer 1
        reader.read_frames(2..4).unwrap(); // buffer 1: miss again
        let s = reader.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 6);
    }

    #[test]
    fn eviction_pops_strictly_by_recency_order() {
        let mut cache = BufferCache::default();
        let f = Arc::new(Vec::new());
        for block in 0..3 {
            cache.insert(block, Arc::clone(&f), 3);
        }
        // Recency is now 0 < 1 < 2; touching 0 makes 1 the LRU.
        assert!(cache.touch(0).is_some());
        cache.insert(3, Arc::clone(&f), 3); // evicts 1
        assert!(cache.map.contains_key(&0));
        assert!(!cache.map.contains_key(&1));
        cache.insert(4, Arc::clone(&f), 3); // evicts 2
        assert!(!cache.map.contains_key(&2));
        cache.insert(5, Arc::clone(&f), 3); // evicts 0 (older than 3 and 4)
        assert!(!cache.map.contains_key(&0));
        assert_eq!(cache.map.len(), 3);
        // The recency index mirrors the map exactly: eviction pops the
        // smallest tick instead of scanning `map`.
        assert_eq!(cache.by_tick.len(), cache.map.len());
        let mut live: Vec<usize> = cache.by_tick.values().copied().collect();
        live.sort_unstable();
        assert_eq!(live, vec![3, 4, 5]);
        for (&tick, block) in &cache.by_tick {
            assert_eq!(cache.map[block].last_used, tick);
        }
    }

    #[test]
    fn racing_cold_readers_share_one_decode() {
        // Install a fake in-flight slot so every thread below registers its
        // miss and parks before any real decode can start; failing that
        // fake leader then releases them all at once, and exactly one
        // becomes the real leader while the rest share its result.
        let reader = small_store();
        let slot = Arc::new(PendingSlot::default());
        reader.shared.cache.lock().unwrap().pending.insert(0, Arc::clone(&slot));

        const THREADS: usize = 4;
        let full = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..THREADS).map(|_| s.spawn(|| reader.read_frames(0..4).unwrap())).collect();
            // Misses are counted in the same critical section that joins
            // the pending slot, so once all are counted every thread holds
            // the fake slot as a waiter.
            while reader.stats().cache_misses < THREADS as u64 {
                std::thread::yield_now();
            }
            reader.shared.cache.lock().unwrap().pending.remove(&0);
            slot.finish(None);
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for part in &full {
            assert_eq!(part, &full[0]);
        }
        let s = reader.stats();
        // Every request missed exactly once, and the buffer (its epoch's
        // anchor) was decoded exactly once, no matter how the threads
        // interleaved.
        assert_eq!(s.cache_misses, THREADS as u64);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.buffers_decoded, 1);
        assert_eq!(s.decode_errors, 0);
    }

    #[test]
    fn tight_limits_are_enforced_and_counted() {
        let tight = DecodeLimits { max_snapshots: 1, ..Default::default() };
        let reader = {
            let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
            opts.buffer_size = 4;
            opts.epoch_interval = 2;
            let data = write_store(&frames(8, 8), &[], &[], &opts).unwrap();
            StoreReader::with_options(data, ReaderOptions { limits: tight }).unwrap()
        };
        let err = reader.read_frames(0..4).unwrap_err();
        assert!(matches!(err, MdzError::LimitExceeded { .. }), "{err:?}");
        assert_eq!(reader.stats().decode_errors, 1);
    }

    #[test]
    fn panicked_axis_thread_maps_to_corrupt_error() {
        let joined = std::thread::scope(|s| {
            s.spawn(|| -> Result<Vec<Vec<f64>>> { panic!("injected axis panic") }).join()
        });
        let err = join_axis(joined).unwrap_err();
        assert_eq!(err, MdzError::Corrupt { what: "axis decode thread panicked" });
    }

    #[test]
    fn shared_registry_sees_reader_counters() {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        opts.buffer_size = 4;
        opts.epoch_interval = 2;
        let data = write_store(&frames(8, 8), &[], &[], &opts).unwrap();
        let registry = Arc::new(Registry::new());
        let reader =
            StoreReader::with_registry(data, ReaderOptions::default(), Arc::clone(&registry))
                .unwrap();
        reader.read_frames(0..8).unwrap();
        // Two touched buffers, both cold, decoded in one pass.
        assert_eq!(registry.counter("store.cache.misses"), 2);
        assert_eq!(registry.counter("store.buffers_decoded"), 2);
        // The axis decompressors record pipeline metrics into the same
        // registry: 3 axes × 2 buffers.
        assert_eq!(registry.counter("core.decode.blocks"), 6);
        assert!(reader.metrics().histogram("core.decode.reconstruct_seconds").is_some());
    }

    #[test]
    fn whole_epoch_decode_seconds_fit_in_the_read() {
        let registry = Arc::new(Registry::new());
        let data = write_store(&frames(8, 16000), &[], &[], &store_opts()).unwrap();
        let reader =
            StoreReader::with_registry(data, ReaderOptions::default(), Arc::clone(&registry))
                .unwrap();
        // Frames 0..8 are the whole first epoch (bs 4, K 2): the three
        // axes decode on their own threads.
        let start = std::time::Instant::now();
        reader.read_frames(0..8).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        let snap = registry.snapshot();
        let decode: f64 = ["core.decode.lossless_seconds", "core.decode.reconstruct_seconds"]
            .iter()
            .map(|name| snap.histogram(name).map_or(0.0, |h| h.sum))
            .sum();
        assert_eq!(snap.counter("core.decode.blocks"), 6);
        assert!(decode > 0.0 && decode <= elapsed, "decode {decode} s in a {elapsed} s read");
    }

    fn store_opts() -> StoreOptions {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        opts.buffer_size = 4;
        opts.epoch_interval = 2;
        opts
    }

    #[test]
    fn refresh_publishes_appended_frames_to_existing_clones() {
        let all = frames(16, 6);
        let base = write_store(&all[..8], &[], &[], &store_opts()).unwrap();
        let reader = StoreReader::open(base.clone()).unwrap();
        let clone = reader.clone();
        assert_eq!(clone.index().n_frames, 8);

        let mut io = MemIo::new(base);
        append_store(&mut io, &all[8..], &store_opts()).unwrap();
        let grown = io.into_bytes();
        let report = reader.refresh(grown.clone()).unwrap();
        assert_eq!(report.frames_added, 8);
        assert_eq!(report.n_frames, 16);
        assert_eq!(report.truncated_bytes, 0);
        // The clone sees the new tail and it matches an offline decode.
        assert_eq!(clone.index().n_frames, 16);
        let offline = StoreReader::open(grown).unwrap().read_frames(0..16).unwrap();
        assert_eq!(clone.read_frames(0..16).unwrap(), offline);
        assert_eq!(reader.recorder().counter("reader.refresh.count"), 1);
        assert_eq!(reader.recorder().counter("reader.refresh.frames_added"), 8);
    }

    #[test]
    fn refresh_with_torn_tail_keeps_last_durable_footer() {
        let all = frames(16, 6);
        let base = write_store(&all[..8], &[], &[], &store_opts()).unwrap();
        let reader = StoreReader::open(base.clone()).unwrap();
        let mut io = MemIo::new(base.clone());
        append_store(&mut io, &all[8..], &store_opts()).unwrap();
        let mut torn = io.into_bytes();
        torn.extend_from_slice(b"in-flight append, footer not yet durable");
        let report = reader.refresh(torn).unwrap();
        assert_eq!(report.frames_added, 8);
        assert_eq!(report.truncated_bytes, 40);
        assert_eq!(reader.index().n_frames, 16);
    }

    #[test]
    fn refresh_rejects_non_monotone_images() {
        let all = frames(16, 6);
        let base = write_store(&all[..8], &[], &[], &store_opts()).unwrap();
        let mut io = MemIo::new(base.clone());
        append_store(&mut io, &all[8..], &store_opts()).unwrap();
        let grown = io.into_bytes();

        let reader = StoreReader::open(grown.clone()).unwrap();
        // Shrinking back to the base image must be rejected.
        let err = reader.refresh(base).unwrap_err();
        assert!(matches!(err, MdzError::Corrupt { .. }), "{err:?}");
        assert_eq!(reader.index().n_frames, 16);
        // A different archive with other geometry must be rejected too.
        let other = write_store(&frames(8, 5), &[], &[], &store_opts()).unwrap();
        assert!(reader.refresh(other).is_err());
        assert_eq!(reader.recorder().counter("reader.refresh.rejected"), 2);
        // The identical image is a no-op refresh (still counted).
        let report = reader.refresh(grown).unwrap();
        assert_eq!(report.frames_added, 0);
        assert_eq!(reader.recorder().counter("reader.refresh.count"), 1);
    }

    #[test]
    fn refresh_keeps_cached_buffers_valid() {
        let all = frames(16, 6);
        let base = write_store(&all[..8], &[], &[], &store_opts()).unwrap();
        let reader = StoreReader::open(base.clone()).unwrap();
        let before = reader.read_frames(0..8).unwrap(); // warms buffers 0 and 1
        let misses_before = reader.stats().cache_misses;

        let mut io = MemIo::new(base);
        append_store(&mut io, &all[8..], &store_opts()).unwrap();
        reader.refresh(io.into_bytes()).unwrap();
        // Re-reading the old range is served from cache, bit-exact.
        let after = reader.read_frames(0..8).unwrap();
        assert_eq!(before, after);
        assert_eq!(reader.stats().cache_misses, misses_before);
    }
}
