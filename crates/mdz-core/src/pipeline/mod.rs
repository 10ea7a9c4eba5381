//! Stage-oriented buffer pipeline: the MDZ compressor end to end.
//!
//! A *buffer* is `M` snapshots × `N` values of one coordinate axis. The
//! pipeline is split by stage:
//!
//! * [`predict`] — the per-snapshot mode plan, the MT reference rule and
//!   the [`predict::Predictor`] of each mode, shared by both directions (the
//!   prediction-parity invariant lives here);
//! * [`encode`] — prediction → quantization → Seq-2 interleaving → entropy
//!   coding → LZ77 (unless the payload is stored) → block assembly, all
//!   into reusable scratch buffers;
//! * [`decode`] — the exact mirror, re-deriving the mode plan from the block
//!   header.
//!
//! The compressor is stateful across buffers (level grid computed once; the
//! stream's initial snapshot retained as the MT reference), mirroring the
//! paper's execution model where an MD code compresses every `BS` snapshots
//! during the run. The [`Decompressor`] maintains the same state, so blocks
//! must be decompressed in stream order — except pure-VQ blocks, which are
//! fully self-contained (the paper's random-access property).
//!
//! ## Prediction-parity invariant
//!
//! Every prediction on the encoder side uses *reconstructed* values (what
//! the decoder will have), never originals. This is what makes the error
//! bound compose across time prediction chains.
//!
//! ## Scratch workspaces
//!
//! Both endpoints own reusable working storage
//! ([`encode::EncodeScratch`] / [`decode::DecodeScratch`]): every
//! intermediate vector is cleared, never shrunk, between buffers, so
//! steady-state streaming compression performs no per-buffer heap
//! allocation on the hot path (locked in by the `alloc_free` test).

pub(crate) mod decode;
pub(crate) mod encode;
pub(crate) mod parallel;
pub(crate) mod predict;

use crate::format::{
    BlockHeader, Method, FLAGS_OFFSET, FLAG_BIT_ADAPTIVE, FLAG_F32, FLAG_RANGE_CODED, FLAG_SEQ2,
    FLAG_STORED, MAGIC,
};
use crate::quant::MAX_CHUNK;
use crate::{ErrorBound, MdzConfig, MdzError, QuantizerKind, Result};
use decode::{decode_inner, DecodeScratch};
use encode::{encode_buffer_into, EncodeScratch};
use mdz_entropy::{read_uvarint, StreamLimits};
use mdz_kmeans::LevelGrid;
use mdz_lossless::lz77;
use mdz_obs::Obs;
use predict::reference_fits;

/// Decode-side resource budget enforced before any header-driven allocation.
///
/// Block headers are untrusted: a forged header can declare huge snapshot
/// counts, value counts, or payload sizes. Every dimension below is checked
/// against its budget right after header parsing — a violating block fails
/// with [`MdzError::LimitExceeded`] before the decoder allocates anything
/// proportional to the forged size. The defaults equal the format's
/// structural plausibility caps (2³⁴ values), so default-constructed
/// decompressors accept everything they did before; services decoding
/// hostile input should set budgets matching their real data
/// ([`Decompressor::with_limits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Maximum snapshots (`M`) one block may declare.
    pub max_snapshots: usize,
    /// Maximum values per snapshot (`N`) one block may declare.
    pub max_values_per_snapshot: usize,
    /// Maximum total values (`M·N`) one block may declare.
    pub max_total_values: usize,
    /// Maximum inner-payload bytes (the LZ77 output, or the stored
    /// payload, holding the entropy streams and escape list).
    pub max_inner_bytes: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        Self {
            max_snapshots: 1 << 34,
            max_values_per_snapshot: 1 << 34,
            max_total_values: 1 << 34,
            max_inner_bytes: 1 << 34,
        }
    }
}

impl DecodeLimits {
    /// Validates a parsed header against the budget.
    fn check(&self, header: &BlockHeader) -> Result<()> {
        if header.n_snapshots > self.max_snapshots {
            return Err(MdzError::LimitExceeded {
                what: "snapshot count",
                limit: self.max_snapshots,
            });
        }
        if header.n_values > self.max_values_per_snapshot {
            return Err(MdzError::LimitExceeded {
                what: "values per snapshot",
                limit: self.max_values_per_snapshot,
            });
        }
        // M·N cannot overflow: the header parser capped the product at 2³⁴.
        if header.n_snapshots * header.n_values > self.max_total_values {
            return Err(MdzError::LimitExceeded {
                what: "total block values",
                limit: self.max_total_values,
            });
        }
        Ok(())
    }

    /// Budget for the inner payload of a block with `total` values: what a
    /// worst-case legitimate block could need (codes, tables, and a full
    /// escape list), capped by `max_inner_bytes`.
    fn inner_budget(&self, total: usize) -> StreamLimits {
        let organic = total.saturating_mul(40).saturating_add(4096);
        StreamLimits::with_max_items(organic.min(self.max_inner_bytes))
    }
}

/// The state transition produced by encoding one buffer.
///
/// Committing is the caller's decision (`Compressor::apply`): an ADP
/// trial encodes every candidate against the *same* starting state and
/// applies only the winner's delta.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateDelta {
    /// `Some(outcome)` when level detection ran this buffer.
    grid: Option<Option<LevelGrid>>,
    /// `Some(recon)` when the stream reference was (re)established.
    reference: Option<Vec<f64>>,
}

/// Stateful MDZ compressor for one axis stream.
#[derive(Debug, Clone)]
pub struct Compressor {
    cfg: MdzConfig,
    /// What the stream has decided: its level grid and ADP candidate.
    decisions: Decisions,
    /// Buffers coded since the last ADP trial, that trial's included.
    since_trial: u32,
    /// Reconstruction of the stream's first snapshot (the MT reference).
    reference: Option<Vec<f64>>,
    scratch: EncodeScratch,
    /// Best candidate block of the current adaptive trial.
    trial_best: Vec<u8>,
    /// Block being encoded by the current adaptive candidate.
    trial_cur: Vec<u8>,
    /// `f32` snapshots widened to `f64`, reused across buffers.
    widened: Vec<Vec<f64>>,
    /// Metrics handle; a no-op unless a recorder was attached.
    obs: Obs,
}

impl Compressor {
    /// Creates a compressor; the configuration is validated on first use.
    pub fn new(cfg: MdzConfig) -> Self {
        Self {
            cfg,
            decisions: Decisions::default(),
            since_trial: 0,
            reference: None,
            scratch: EncodeScratch::default(),
            trial_best: Vec::new(),
            trial_cur: Vec::new(),
            widened: Vec::new(),
            obs: Obs::noop(),
        }
    }

    /// Attaches a metrics handle; every subsequent buffer records
    /// per-stage timings and pipeline counters through it. The default
    /// handle is a no-op, so un-instrumented use costs nothing.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The concrete method the adaptive selector is currently using, if any
    /// trial has run yet.
    pub fn current_adaptive_choice(&self) -> Option<Method> {
        self.decisions.candidate.map(|c| c.method)
    }

    /// Replaces the error bound applied to subsequent buffers.
    ///
    /// Stream state (level grid, MT reference) is kept; used by the
    /// [`Codec`](crate::codec::Codec) layer, where the bound arrives per
    /// call rather than at construction.
    pub fn set_bound(&mut self, bound: ErrorBound) {
        self.cfg.bound = bound;
    }

    /// Anchors the stream: drops the MT reference, so the next buffer
    /// decodes standalone, as the first of a fresh stream does. The
    /// configuration, scratch storage, the stream's [`Decisions`] (level
    /// grid and ADP candidate) and its trial cadence are kept: the decoder
    /// never needs them.
    ///
    /// This is the keyframe re-anchoring hook the `mdz-store` epoch layer is
    /// built on; [`Decompressor::reset_stream`] is its mirror.
    pub fn reset_stream(&mut self) {
        self.reference = None;
    }

    /// The decisions this stream has made so far.
    pub fn decisions(&self) -> Decisions {
        self.decisions
    }

    /// Anchors the stream ([`reset_stream`](Self::reset_stream)) and takes
    /// up `decisions` as though the next buffer were the ADP trial that
    /// chose their candidate: it codes with their candidate and grid, and
    /// the next trial falls `adapt_interval` buffers after it. A set grid
    /// is never detected again. Without a candidate the next buffer runs a
    /// trial (under [`Method::Adaptive`]); a fixed method ignores the
    /// candidate.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_core::{Compressor, ErrorBound, MdzConfig};
    ///
    /// let buffer = [vec![1.0, 2.0, 3.5], vec![1.1, 2.1, 3.4]];
    /// let mut comp = Compressor::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    /// let first = comp.compress_buffer(&buffer).unwrap(); // an ADP trial
    /// let mut resumed = Compressor::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    /// resumed.resume(&comp.decisions());
    /// assert_eq!(resumed.compress_buffer(&buffer).unwrap(), first); // no trial
    /// ```
    pub fn resume(&mut self, decisions: &Decisions) {
        self.decisions = *decisions;
        // The next buffer stands for the trial that chose the candidate:
        // coding it takes the counter to 1, where a trial leaves it.
        self.since_trial = 0;
        self.reference = None;
    }

    /// Compresses one buffer of snapshots into a self-describing block.
    ///
    /// All snapshots must be non-empty and equally sized.
    pub fn compress_buffer(&mut self, snapshots: &[Vec<f64>]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.compress_buffer_into(snapshots, &mut out)?;
        Ok(out)
    }

    /// [`Self::compress_buffer`] writing the block into a caller-owned
    /// vector (cleared first).
    ///
    /// Snapshots are borrowed as any slice type (`Vec<f64>`, `&[f64]`, …),
    /// so data held elsewhere — one axis of a set of frames, say — is
    /// encoded without copying it. With a reused output vector,
    /// steady-state compression of same-shaped buffers performs no heap
    /// allocation.
    ///
    /// Under [`Method::Adaptive`] (ADP, paper §VI-D) the buffer is a trial
    /// when no candidate has won yet or `adapt_interval` buffers have
    /// passed since the last trial; every other buffer codes with the
    /// candidate in force.
    pub fn compress_buffer_into<S: AsRef<[f64]>>(
        &mut self,
        snapshots: &[S],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.cfg.validate()?;
        validate_shape(snapshots)?;
        let candidate = match (self.cfg.method, self.decisions.candidate) {
            (Method::Adaptive, Some(c)) if self.since_trial < self.cfg.adapt_interval => {
                self.since_trial += 1;
                c
            }
            (Method::Adaptive, _) => return self.trial_into(snapshots, out),
            (method, _) => Candidate { method, quantizer: self.cfg.quantizer, stored: false },
        };
        let (delta, _) = encode_buffer_into(
            &self.cfg,
            self.decisions.grid,
            self.reference.as_deref(),
            candidate,
            false,
            snapshots,
            &mut None,
            out,
            &mut self.scratch,
            &self.obs,
        )?;
        self.apply(delta);
        Ok(())
    }

    /// Commits an encode's [`StateDelta`]: a detected grid is stored as
    /// `(μ, λ)`, and an established MT reference replaces the old one.
    fn apply(&mut self, delta: StateDelta) {
        if let Some(grid) = delta.grid {
            self.decisions.grid = Some(grid.map(|g| (g.mu, g.lambda)));
        }
        if let Some(reference) = delta.reference {
            self.reference = Some(reference);
        }
    }

    /// Compresses a buffer of single-precision snapshots.
    ///
    /// MD trajectory formats commonly store `f32`; values are widened
    /// losslessly, compressed as usual, and the block is tagged so
    /// [`Decompressor::decompress_block_f32`] can narrow the output again.
    ///
    /// The error bound is guaranteed in `f64` space; narrowing the
    /// reconstruction back to `f32` adds at most half an `f32` ULP
    /// (≈ 6e-8·|value|), which is far below any practical MD bound.
    pub fn compress_buffer_f32(&mut self, snapshots: &[Vec<f32>]) -> Result<Vec<u8>> {
        let mut block = Vec::new();
        self.compress_buffer_f32_into(snapshots, &mut block)?;
        Ok(block)
    }

    /// [`Self::compress_buffer_f32`] writing the block into a caller-owned
    /// vector (cleared first). The widened copy lives in a buffer the
    /// compressor reuses, so steady-state calls do not allocate either.
    pub fn compress_buffer_f32_into<S: AsRef<[f32]>>(
        &mut self,
        snapshots: &[S],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let mut widened = std::mem::take(&mut self.widened);
        if widened.len() < snapshots.len() {
            widened.resize_with(snapshots.len(), Vec::new);
        }
        for (wide, s) in widened.iter_mut().zip(snapshots) {
            wide.clear();
            wide.extend(s.as_ref().iter().map(|&v| f64::from(v)));
        }
        let encoded = self.compress_buffer_into(&widened[..snapshots.len()], out);
        self.widened = widened;
        encoded?;
        out[FLAGS_OFFSET] |= FLAG_F32;
        Ok(())
    }

    /// The quantizer kinds ADP trials: the configured one first (so the
    /// candidate ordering — and therefore every tie-break — is unchanged
    /// when the bit-adaptive pool is off), then the extra pool members.
    fn trial_quantizers(&self) -> Vec<QuantizerKind> {
        let mut quantizers = vec![self.cfg.quantizer];
        if self.cfg.bit_adaptive_candidates {
            for q in [QuantizerKind::Linear, QuantizerKind::BIT_ADAPTIVE_DEFAULT] {
                if !quantizers.contains(&q) {
                    quantizers.push(q);
                }
            }
        }
        quantizers
    }

    /// An ADP trial: compresses the buffer with every candidate composition
    /// (method × quantizer, each with the smaller of its LZ77 and stored
    /// payloads) from the same starting state, keeps the smallest block,
    /// and commits its winner and its state delta.
    ///
    /// Data patterns are stable over short horizons but drift over long
    /// ones (paper Fig. 10), so a trial every `adapt_interval` buffers
    /// ranks the candidates on live data; the paper's 50 keeps the
    /// evaluation overhead under 6 %.
    fn trial_into<S: AsRef<[f64]>>(&mut self, snapshots: &[S], out: &mut Vec<u8>) -> Result<()> {
        let methods: &[Method] =
            if self.cfg.extended_candidates { &Method::EXTENDED } else { &Method::CONCRETE };
        let quantizers = self.trial_quantizers();
        let mut best: Option<(StateDelta, Candidate)> = None;
        let mut detected = None;
        for &method in methods {
            for &quantizer in &quantizers {
                let candidate = Candidate { method, quantizer, stored: false };
                let (delta, coded) = encode_buffer_into(
                    &self.cfg,
                    self.decisions.grid,
                    self.reference.as_deref(),
                    candidate,
                    true,
                    snapshots,
                    &mut detected,
                    &mut self.trial_cur,
                    &mut self.scratch,
                    &self.obs,
                )?;
                if best.is_none() || self.trial_cur.len() < self.trial_best.len() {
                    std::mem::swap(&mut self.trial_best, &mut self.trial_cur);
                    best = Some((delta, coded));
                }
            }
        }
        let (delta, winner) = best.expect("candidates evaluated");
        self.apply(delta);
        self.decisions.candidate = Some(winner);
        self.since_trial = 1;
        self.obs.incr("core.adp.trials", 1);
        self.obs.incr(adp_win_counter(winner.method), 1);
        self.obs.incr(adp_quant_win_counter(winner.quantizer), 1);
        self.obs.incr(
            if winner.stored {
                "core.adp.win.lossless.stored"
            } else {
                "core.adp.win.lossless.lz77"
            },
            1,
        );
        out.clear();
        out.extend_from_slice(&self.trial_best);
        Ok(())
    }
}

/// One point of the candidate space ADP selects over: a concrete method
/// paired with a quantizer kind and a payload form.
///
/// The paper's candidates are the three concrete methods (VQ, VQT, MT)
/// over the fixed-scale quantizer; [`MdzConfig::extended_candidates`] and
/// [`MdzConfig::bit_adaptive_candidates`] enlarge the product space a
/// trial ranks. A trial codes each composition once and stores its inner
/// bytes wherever LZ77 would make them larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Concrete prediction method (never [`Method::Adaptive`]).
    pub method: Method,
    /// How the residuals are quantized and their codes stored.
    pub quantizer: QuantizerKind,
    /// Whether the payload is the inner bytes as they are
    /// ([`FLAG_STORED`]) rather than their LZ77 stream. A fixed method
    /// never stores.
    pub stored: bool,
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.method)?;
        if matches!(self.quantizer, QuantizerKind::BitAdaptive { .. }) {
            write!(f, "+BA")?;
        }
        if self.stored {
            write!(f, "+stored")?;
        }
        Ok(())
    }
}

/// What an axis stream has decided, as opposed to what its decoder needs:
/// the level grid VQ and VQT code with, and the ADP candidate in force
/// (its method, quantizer and payload form). A [`Compressor`] keeps them
/// as its state, beside the MT reference and the buffers coded since the
/// last trial; an epoch anchor ([`Compressor::reset_stream`]) keeps them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Decisions {
    /// The level grid `(μ, λ)`: `None` until a VQ or VQT encode detects it
    /// (under ADP: until a VQ-family candidate wins a trial), `Some(None)`
    /// when the data has no level structure.
    pub grid: Option<Option<(f64, f64)>>,
    /// The ADP candidate in force; `None` before the first trial.
    pub candidate: Option<Candidate>,
}

impl Decisions {
    /// Takes up what `block`, the next of a stream's blocks in stream
    /// order, records in its header: a VQ or VQT block sets the grid when
    /// none is set yet (absent when the block has none), and every block
    /// sets the candidate to its method, quantizer and payload form (the
    /// stored flag). Only the blocks where the stream decided need be
    /// given: the grid's first VQ-family block and the last ADP trial's.
    ///
    /// All of it comes from the header, except the chunk size of a
    /// bit-adaptive block, which is read from the front of its code stream
    /// (FORMAT.md §4.5).
    pub fn update(&mut self, block: &[u8]) -> Result<()> {
        let info = Decompressor::inspect(block)?;
        if self.grid.is_none() && matches!(info.method, Method::Vq | Method::Vqt) {
            self.grid = Some(info.grid);
        }
        let quantizer = if info.bit_adaptive {
            QuantizerKind::BitAdaptive { chunk: bit_adaptive_chunk(block)? }
        } else {
            QuantizerKind::Linear
        };
        self.candidate = Some(Candidate { method: info.method, quantizer, stored: info.stored });
        Ok(())
    }
}

/// The chunk size a bit-adaptive block's code stream declares in its first
/// bytes: the one quantizer parameter the block header does not carry.
fn bit_adaptive_chunk(block: &[u8]) -> Result<usize> {
    let mut inner = Vec::new();
    inflate(block, &DecodeLimits::default(), &mut inner, &Obs::noop())?;
    let chunk = read_uvarint(&inner, &mut 0)? as usize;
    if !(1..=MAX_CHUNK).contains(&chunk) {
        return Err(MdzError::Corrupt { what: "bit-adaptive chunk size out of range" });
    }
    Ok(chunk)
}

/// Undoes a block's lossless stage: parses its header, checks it against
/// `limits` and LZ77-decodes the payload into `inner` (cleared first),
/// under the budget those limits give its value count, or copies a stored
/// payload there once its length is within that budget. `obs` times the
/// decode or the copy alone (`core.decode.lossless_seconds`).
fn inflate(
    block: &[u8],
    limits: &DecodeLimits,
    inner: &mut Vec<u8>,
    obs: &Obs,
) -> Result<BlockHeader> {
    let mut pos = 0;
    let header = BlockHeader::read(block, &mut pos)?;
    limits.check(&header)?;
    let len = read_uvarint(block, &mut pos)? as usize;
    let budget = limits.inner_budget(header.n_snapshots * header.n_values);
    let stored = header.flags & FLAG_STORED != 0;
    if stored {
        budget.check_items(len, "stored payload length")?;
    }
    let payload = pos
        .checked_add(len)
        .and_then(|end| block.get(pos..end))
        .ok_or(MdzError::BadHeader("truncated payload"))?;
    let _t = obs.span("core.decode.lossless_seconds");
    if stored {
        inner.clear();
        inner.extend_from_slice(payload);
    } else {
        lz77::decompress_into_limited(payload, inner, &budget)?;
    }
    Ok(header)
}

/// The ADP winner counter for a concrete method.
fn adp_win_counter(method: Method) -> &'static str {
    match method {
        Method::Vq => "core.adp.win.vq",
        Method::Vqt => "core.adp.win.vqt",
        Method::Mt => "core.adp.win.mt",
        Method::Mt2 => "core.adp.win.mt2",
        // ADP trials only ever record concrete winners.
        Method::Adaptive => "core.adp.win.other",
    }
}

/// The ADP winner counter for a quantizer kind.
fn adp_quant_win_counter(quantizer: QuantizerKind) -> &'static str {
    match quantizer {
        QuantizerKind::Linear => "core.adp.win.quant.linear",
        QuantizerKind::BitAdaptive { .. } => "core.adp.win.quant.bit_adaptive",
    }
}

/// Stateful MDZ decompressor (mirror of [`Compressor`] state).
#[derive(Debug, Clone, Default)]
pub struct Decompressor {
    reference: Option<Vec<f64>>,
    scratch: DecodeScratch,
    limits: DecodeLimits,
    obs: Obs,
}

/// Parsed block metadata returned by [`Decompressor::inspect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockInfo {
    /// Concrete method that produced the block.
    pub method: Method,
    /// Snapshots in the block.
    pub n_snapshots: usize,
    /// Values per snapshot.
    pub n_values: usize,
    /// Absolute error bound the block was coded under.
    pub eps: f64,
    /// Quantization radius (half the quantization scale).
    pub radius: u32,
    /// Level grid `(μ, λ)` when the VQ predictor was grid-backed.
    pub grid: Option<(f64, f64)>,
    /// Whether codes are Seq-2 (particle-major) interleaved.
    pub seq2: bool,
    /// Whether the entropy stage was the range coder.
    pub range_coded: bool,
    /// Whether residual codes use bit-adaptive (per-chunk width)
    /// quantization — a format-version-2 block, or version 3 when stored.
    pub bit_adaptive: bool,
    /// Whether the payload is the inner bytes as they are, not
    /// LZ77-compressed — a format-version-3 block.
    pub stored: bool,
    /// Whether the source data was `f32` (decompress with
    /// [`Decompressor::decompress_block_f32`]).
    pub source_f32: bool,
    /// Compressed payload size in bytes (excluding the header).
    pub payload_bytes: usize,
}

impl Decompressor {
    /// Creates a decompressor with empty stream state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a decompressor enforcing the given [`DecodeLimits`].
    pub fn with_limits(limits: DecodeLimits) -> Self {
        Self { limits, ..Self::default() }
    }

    /// Replaces the decode budget applied to subsequent blocks.
    pub fn set_limits(&mut self, limits: DecodeLimits) {
        self.limits = limits;
    }

    /// Attaches a metrics handle; subsequent blocks record per-stage
    /// decode timings through it (no-op by default).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The decode budget currently in force.
    pub fn limits(&self) -> DecodeLimits {
        self.limits
    }

    /// Drops the cross-buffer stream state (the MT reference snapshot),
    /// keeping the decode budget and scratch storage.
    ///
    /// Mirror of [`Compressor::reset_stream`]: a decoder reset at the same
    /// buffer boundary as the compressor reproduces the stream exactly, so
    /// epoch-anchored archives can be decoded from any keyframe.
    pub fn reset_stream(&mut self) {
        self.reference = None;
    }

    /// Whether decoding `block` would leave this decompressor's stream
    /// state unchanged: a reference snapshot is established and its length
    /// equals the block header's `n_values`.
    ///
    /// A block for which this holds may be skipped, or decoded out of
    /// order against a copy of the current state, without changing what
    /// any later block decodes to. A malformed header returns `false`, so
    /// the caller decodes the block in order and surfaces its error.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_core::{Compressor, Decompressor, ErrorBound, MdzConfig};
    ///
    /// let mut comp = Compressor::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    /// let first = comp.compress_buffer(&[vec![1.0, 2.0], vec![1.1, 2.1]]).unwrap();
    /// let second = comp.compress_buffer(&[vec![1.2, 2.2], vec![1.3, 2.3]]).unwrap();
    /// let mut dec = Decompressor::new();
    /// assert!(!dec.keeps_state(&first)); // establishes the reference
    /// dec.decompress_block(&first).unwrap();
    /// assert!(dec.keeps_state(&second));
    /// ```
    pub fn keeps_state(&self, block: &[u8]) -> bool {
        BlockHeader::read(block, &mut 0)
            .is_ok_and(|h| reference_fits(self.reference.as_deref(), h.n_values))
    }

    /// Decompresses a single snapshot from a pure-VQ block — the paper's
    /// random-access property (§VI: "any snapshot data can be decompressed
    /// very quickly without a need in decompressing other snapshots").
    ///
    /// A VQ block is self-contained: it never reads the stream's reference
    /// snapshot, so it decodes on a fresh [`Decompressor`] without touching
    /// any other block, and this returns row `index` of that decode. Works
    /// on VQ blocks with or without a detected grid. Errors on VQT/MT
    /// blocks, whose snapshots form prediction chains, and on out-of-range
    /// indices.
    pub fn decompress_snapshot(block: &[u8], index: usize) -> Result<Vec<f64>> {
        Self::decompress_snapshot_limited(block, index, &DecodeLimits::default())
    }

    /// [`Decompressor::decompress_snapshot`] under an explicit decode
    /// budget, for callers handling untrusted blocks.
    pub fn decompress_snapshot_limited(
        block: &[u8],
        index: usize,
        limits: &DecodeLimits,
    ) -> Result<Vec<f64>> {
        let header = BlockHeader::read(block, &mut 0)?;
        limits.check(&header)?;
        if header.method != Method::Vq {
            return Err(MdzError::BadInput("random access requires a VQ block"));
        }
        if index >= header.n_snapshots {
            return Err(MdzError::BadInput("snapshot index out of range"));
        }
        let mut rows = Self::with_limits(*limits).decompress_block(block)?;
        Ok(rows.swap_remove(index))
    }

    /// Parses a block's header without decompressing it — cheap
    /// observability for tooling (`mdz info`, debuggers).
    pub fn inspect(block: &[u8]) -> Result<BlockInfo> {
        let mut pos = 0;
        let header = BlockHeader::read(block, &mut pos)?;
        let payload_len = read_uvarint(block, &mut pos)? as usize;
        Ok(BlockInfo {
            method: header.method,
            n_snapshots: header.n_snapshots,
            n_values: header.n_values,
            eps: header.eps,
            radius: header.radius,
            grid: header.grid,
            seq2: header.flags & FLAG_SEQ2 != 0,
            range_coded: header.flags & FLAG_RANGE_CODED != 0,
            bit_adaptive: header.flags & FLAG_BIT_ADAPTIVE != 0,
            stored: header.flags & FLAG_STORED != 0,
            source_f32: header.flags & FLAG_F32 != 0,
            payload_bytes: payload_len,
        })
    }

    /// Decompresses a block produced by [`Compressor::compress_buffer_f32`]
    /// back into single-precision snapshots.
    ///
    /// Errors if the block was not tagged as `f32`-sourced.
    pub fn decompress_block_f32(&mut self, block: &[u8]) -> Result<Vec<Vec<f32>>> {
        if !block.starts_with(&MAGIC) {
            return Err(MdzError::BadHeader("not an MDZ block"));
        }
        let flags = *block.get(FLAGS_OFFSET).ok_or(MdzError::BadHeader("truncated flags"))?;
        if flags & FLAG_F32 == 0 {
            return Err(MdzError::BadInput("block does not carry f32-source data"));
        }
        let wide = self.decompress_block(block)?;
        // Clamp finite reconstructions into f32 range before narrowing: a
        // huge error bound could push a reconstruction past f32::MAX, and
        // saturating to infinity would break the bound. Clamping moves the
        // value strictly closer to the (f32-representable) original.
        let narrow = |v: f64| -> f32 {
            if v.is_finite() {
                v.clamp(f64::from(f32::MIN), f64::from(f32::MAX)) as f32
            } else {
                v as f32
            }
        };
        Ok(wide.into_iter().map(|s| s.into_iter().map(narrow).collect()).collect())
    }

    /// Decompresses one block into its snapshots.
    pub fn decompress_block(&mut self, block: &[u8]) -> Result<Vec<Vec<f64>>> {
        let header = inflate(block, &self.limits, &mut self.scratch.inner, &self.obs)?;
        let reconstruct = self.obs.span("core.decode.reconstruct_seconds");
        let snapshots = decode_inner(&header, self.reference.as_deref(), &mut self.scratch)?;
        reconstruct.finish();
        self.obs.incr("core.decode.blocks", 1);
        if !reference_fits(self.reference.as_deref(), header.n_values) {
            self.reference = Some(snapshots[0].clone());
        }
        Ok(snapshots)
    }
}

pub(crate) fn validate_shape<S: AsRef<[f64]>>(snapshots: &[S]) -> Result<()> {
    if snapshots.is_empty() {
        return Err(MdzError::BadInput("buffer has no snapshots"));
    }
    let n = snapshots[0].as_ref().len();
    if n == 0 {
        return Err(MdzError::BadInput("snapshots are empty"));
    }
    if snapshots.iter().any(|s| s.as_ref().len() != n) {
        return Err(MdzError::BadInput("ragged snapshots in buffer"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorBound;

    fn check_round_trip(snapshots: &[Vec<f64>], cfg: MdzConfig) -> (usize, Vec<Vec<f64>>) {
        let eps = cfg.bound.absolute_for(snapshots);
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(snapshots).unwrap();
        let mut d = Decompressor::new();
        let out = d.decompress_block(&block).unwrap();
        assert_eq!(out.len(), snapshots.len());
        for (s, o) in snapshots.iter().zip(out.iter()) {
            assert_eq!(s.len(), o.len());
            for (a, b) in s.iter().zip(o.iter()) {
                if a.is_finite() {
                    assert!((a - b).abs() <= eps, "{a} vs {b}, eps {eps}");
                } else {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        (block.len(), out)
    }

    fn lattice_buffer(m: usize, n: usize, drift: f64) -> Vec<Vec<f64>> {
        let mut s = 99u64;
        (0..m)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        (i % 16) as f64 * 3.0 + u * 0.02 + t as f64 * drift
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn vq_round_trip_on_lattice() {
        let snaps = lattice_buffer(5, 400, 0.0);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let (size, _) = check_round_trip(&snaps, cfg);
        let raw = 5 * 400 * 8;
        assert!(size < raw / 4, "VQ should compress lattice data well: {size} vs {raw}");
    }

    #[test]
    fn vqt_round_trip() {
        let snaps = lattice_buffer(10, 300, 1e-4);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vqt);
        check_round_trip(&snaps, cfg);
    }

    #[test]
    fn mt_round_trip() {
        let snaps = lattice_buffer(10, 300, 1e-4);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Mt);
        check_round_trip(&snaps, cfg);
    }

    #[test]
    fn adaptive_round_trip() {
        let snaps = lattice_buffer(10, 300, 1e-4);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        check_round_trip(&snaps, cfg);
    }

    #[test]
    fn single_snapshot_buffer() {
        let snaps = lattice_buffer(1, 500, 0.0);
        for m in [Method::Vq, Method::Vqt, Method::Mt, Method::Adaptive] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(m);
            check_round_trip(&snaps, cfg);
        }
    }

    #[test]
    fn random_data_without_levels_falls_back() {
        let mut s = 5u64;
        let snaps: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                (0..500)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        (s >> 11) as f64 / (1u64 << 53) as f64 * 100.0
                    })
                    .collect()
            })
            .collect();
        for m in [Method::Vq, Method::Vqt, Method::Mt] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-2)).with_method(m);
            check_round_trip(&snaps, cfg);
        }
    }

    #[test]
    fn value_range_relative_bound() {
        let snaps = lattice_buffer(5, 200, 0.0);
        let cfg = MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3));
        check_round_trip(&snaps, cfg);
    }

    #[test]
    fn constant_data() {
        let snaps = vec![vec![42.0; 100]; 5];
        for m in [Method::Vq, Method::Vqt, Method::Mt] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-6)).with_method(m);
            let (size, _) = check_round_trip(&snaps, cfg);
            assert!(size < 300, "constant data should compress to almost nothing: {size}");
        }
    }

    #[test]
    fn non_finite_values_survive_bit_exact() {
        let mut snaps = lattice_buffer(3, 50, 0.0);
        snaps[1][7] = f64::NAN;
        snaps[2][9] = f64::INFINITY;
        snaps[0][0] = f64::NEG_INFINITY;
        for m in [Method::Vq, Method::Vqt, Method::Mt] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(m);
            check_round_trip(&snaps, cfg);
        }
    }

    #[test]
    fn multi_buffer_stream_with_state() {
        // MT's reference comes from buffer 0; later buffers predict from it.
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut c = Compressor::new(cfg);
        let mut d = Decompressor::new();
        let base = lattice_buffer(1, 200, 0.0).pop().unwrap();
        for t in 0..5 {
            let buf: Vec<Vec<f64>> = (0..4)
                .map(|k| base.iter().map(|&v| v + (t * 4 + k) as f64 * 1e-5).collect())
                .collect();
            let block = c.compress_buffer(&buf).unwrap();
            let out = d.decompress_block(&block).unwrap();
            for (s, o) in buf.iter().zip(out.iter()) {
                for (a, b) in s.iter().zip(o.iter()) {
                    assert!((a - b).abs() <= 1e-4);
                }
            }
        }
    }

    #[test]
    fn mt_block_out_of_order_fails_cleanly() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut c = Compressor::new(cfg);
        let b0 = c.compress_buffer(&lattice_buffer(3, 100, 0.0)).unwrap();
        let b1 = c.compress_buffer(&lattice_buffer(3, 100, 1e-5)).unwrap();
        // Fresh decompressor given block 1 first: must error, not garble.
        let mut d = Decompressor::new();
        assert!(d.decompress_block(&b1).is_err());
        // In order works.
        let mut d = Decompressor::new();
        d.decompress_block(&b0).unwrap();
        d.decompress_block(&b1).unwrap();
    }

    #[test]
    fn vq_blocks_are_self_contained() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        let _b0 = c.compress_buffer(&lattice_buffer(3, 100, 0.0)).unwrap();
        let b1 = c.compress_buffer(&lattice_buffer(3, 100, 0.1)).unwrap();
        // A fresh decompressor can open block 1 directly.
        let mut d = Decompressor::new();
        d.decompress_block(&b1).unwrap();
    }

    #[test]
    fn seq1_and_seq2_both_round_trip() {
        let snaps = lattice_buffer(8, 100, 1e-5);
        for seq2 in [false, true] {
            let cfg =
                MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vqt).with_seq2(seq2);
            check_round_trip(&snaps, cfg);
        }
    }

    #[test]
    fn quantization_radius_sweep() {
        let snaps = lattice_buffer(4, 200, 1e-4);
        for radius in [32u32, 512, 4096, 32768] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-5))
                .with_method(Method::Vqt)
                .with_radius(radius);
            check_round_trip(&snaps, cfg);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let mut c = Compressor::new(cfg.clone());
        assert!(matches!(c.compress_buffer(&[]), Err(MdzError::BadInput(_))));
        assert!(matches!(c.compress_buffer(&[vec![]]), Err(MdzError::BadInput(_))));
        assert!(matches!(
            c.compress_buffer(&[vec![1.0], vec![1.0, 2.0]]),
            Err(MdzError::BadInput(_))
        ));
        let mut c = Compressor::new(MdzConfig::new(ErrorBound::Absolute(-1.0)));
        assert!(matches!(c.compress_buffer(&[vec![1.0]]), Err(MdzError::BadConfig(_))));
    }

    #[test]
    fn corrupted_blocks_error_not_panic() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(&lattice_buffer(3, 50, 0.0)).unwrap();
        for cut in [0, 4, block.len() / 2, block.len() - 1] {
            let mut d = Decompressor::new();
            assert!(d.decompress_block(&block[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = block.clone();
        for i in 0..bad.len() {
            bad[i] ^= 0xA5;
            let mut d = Decompressor::new();
            let _ = d.decompress_block(&bad);
            bad[i] ^= 0xA5;
        }
    }

    #[test]
    fn f32_round_trip_within_bound() {
        let snaps_f32: Vec<Vec<f32>> = (0..6)
            .map(|t| (0..200).map(|i| (i % 11) as f32 * 2.5 + t as f32 * 1e-4).collect())
            .collect();
        let eps = 1e-3;
        for m in [Method::Vq, Method::Vqt, Method::Mt, Method::Adaptive] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(eps)).with_method(m);
            let mut c = Compressor::new(cfg);
            let block = c.compress_buffer_f32(&snaps_f32).unwrap();
            let info = Decompressor::inspect(&block).unwrap();
            assert!(info.source_f32);
            let out = Decompressor::new().decompress_block_f32(&block).unwrap();
            for (s, o) in snaps_f32.iter().zip(out.iter()) {
                for (a, b) in s.iter().zip(o.iter()) {
                    // f64 bound + half an f32 ULP of slack.
                    let slack = (a.abs() * 1e-7).max(1e-30) as f64;
                    assert!((f64::from(*a) - f64::from(*b)).abs() <= eps + slack, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn f32_decoder_rejects_f64_blocks() {
        let snaps = lattice_buffer(3, 50, 0.0);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(&snaps).unwrap();
        assert!(matches!(
            Decompressor::new().decompress_block_f32(&block),
            Err(MdzError::BadInput(_))
        ));
    }

    #[test]
    fn f32_non_finite_round_trip() {
        let mut snaps: Vec<Vec<f32>> = vec![vec![1.0; 20]; 3];
        snaps[1][3] = f32::NAN;
        snaps[2][7] = f32::INFINITY;
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4));
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer_f32(&snaps).unwrap();
        let out = Decompressor::new().decompress_block_f32(&block).unwrap();
        assert!(out[1][3].is_nan());
        assert!(out[2][7].is_infinite());
    }

    #[test]
    fn inspect_reports_block_metadata() {
        let snaps = lattice_buffer(6, 100, 0.0);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(&snaps).unwrap();
        let info = Decompressor::inspect(&block).unwrap();
        assert_eq!(info.method, Method::Vq);
        assert_eq!(info.n_snapshots, 6);
        assert_eq!(info.n_values, 100);
        assert_eq!(info.eps, 1e-3);
        assert_eq!(info.radius, 512);
        assert!(info.grid.is_some());
        assert!(info.seq2);
        assert!(!info.range_coded);
        assert!(info.payload_bytes > 0 && info.payload_bytes < block.len());
        assert!(Decompressor::inspect(&block[..4]).is_err());
    }

    #[test]
    fn mt2_round_trips_and_wins_on_linear_drift() {
        // Particles moving ballistically: x_t = x_0 + v·t. Second-order
        // prediction is exact; first-order pays |v| per step.
        let mut s = 9u64;
        let n = 400;
        let x0: Vec<f64> = (0..n).map(|i| (i % 10) as f64 * 3.0).collect();
        let v: Vec<f64> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1
            })
            .collect();
        let snaps: Vec<Vec<f64>> = (0..12)
            .map(|t| x0.iter().zip(v.iter()).map(|(&x, &vi)| x + vi * t as f64).collect())
            .collect();
        let size = |method| {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method);
            check_round_trip(&snaps, cfg).0
        };
        let mt = size(Method::Mt);
        let mt2 = size(Method::Mt2);
        assert!(mt2 < mt / 2, "MT2 {mt2} should crush MT {mt} on ballistic data");
    }

    #[test]
    fn extended_adaptive_picks_mt2_on_ballistic_data() {
        let n = 300;
        let x0: Vec<f64> = (0..n).map(|i| i as f64 * 0.37).collect();
        let snaps: Vec<Vec<f64>> = (0..10)
            .map(|t| {
                x0.iter().enumerate().map(|(i, &x)| x + (i % 7) as f64 * 0.02 * t as f64).collect()
            })
            .collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-5)).with_extended_candidates(true);
        let mut c = Compressor::new(cfg);
        c.compress_buffer(&snaps).unwrap();
        assert_eq!(c.current_adaptive_choice(), Some(Method::Mt2));
    }

    #[test]
    fn mt2_multi_buffer_stream() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt2);
        let mut c = Compressor::new(cfg);
        let mut d = Decompressor::new();
        for t in 0..4 {
            let buf: Vec<Vec<f64>> = (0..5)
                .map(|k| (0..100).map(|i| i as f64 + (t * 5 + k) as f64 * 0.01).collect())
                .collect();
            let block = c.compress_buffer(&buf).unwrap();
            let out = d.decompress_block(&block).unwrap();
            for (sn, o) in buf.iter().zip(out.iter()) {
                for (a, b) in sn.iter().zip(o.iter()) {
                    assert!((a - b).abs() <= 1e-4);
                }
            }
        }
    }

    #[test]
    fn range_coded_blocks_round_trip() {
        let snaps = lattice_buffer(8, 200, 1e-4);
        for m in [Method::Vq, Method::Vqt, Method::Mt, Method::Adaptive] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3))
                .with_method(m)
                .with_entropy(crate::EntropyStage::Range);
            check_round_trip(&snaps, cfg);
        }
    }

    #[test]
    fn range_coding_never_much_worse_than_huffman() {
        let snaps = lattice_buffer(10, 400, 1e-4);
        let size = |entropy| {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3))
                .with_method(Method::Vqt)
                .with_entropy(entropy);
            Compressor::new(cfg).compress_buffer(&snaps).unwrap().len()
        };
        let h = size(crate::EntropyStage::Huffman);
        let r = size(crate::EntropyStage::Range);
        assert!(r <= h + h / 4, "range {r} vs huffman {h}");
    }

    #[test]
    fn random_access_works_with_range_coding() {
        let snaps = lattice_buffer(5, 120, 0.0);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3))
            .with_method(Method::Vq)
            .with_entropy(crate::EntropyStage::Range);
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(&snaps).unwrap();
        let full = Decompressor::new().decompress_block(&block).unwrap();
        for (i, want) in full.iter().enumerate() {
            assert_eq!(&Decompressor::decompress_snapshot(&block, i).unwrap(), want);
        }
    }

    #[test]
    fn random_access_matches_full_decompression() {
        let snaps = lattice_buffer(6, 150, 0.0);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(&snaps).unwrap();
        let full = Decompressor::new().decompress_block(&block).unwrap();
        for (i, want) in full.iter().enumerate() {
            let got = Decompressor::decompress_snapshot(&block, i).unwrap();
            assert_eq!(&got, want, "snapshot {i}");
        }
        assert!(Decompressor::decompress_snapshot(&block, 6).is_err());
    }

    #[test]
    fn random_access_on_gridless_vq_block() {
        // Random data → no level grid → Lorenzo fallback, still per-snapshot.
        let mut s = 3u64;
        let snaps: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                (0..100)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        (s >> 11) as f64 / (1u64 << 53) as f64 * 50.0
                    })
                    .collect()
            })
            .collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        let block = c.compress_buffer(&snaps).unwrap();
        let full = Decompressor::new().decompress_block(&block).unwrap();
        let got = Decompressor::decompress_snapshot(&block, 2).unwrap();
        assert_eq!(got, full[2]);
    }

    #[test]
    fn random_access_rejects_time_chained_blocks() {
        let snaps = lattice_buffer(5, 80, 1e-4);
        for m in [Method::Vqt, Method::Mt] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(m);
            let mut c = Compressor::new(cfg);
            let block = c.compress_buffer(&snaps).unwrap();
            assert!(matches!(
                Decompressor::decompress_snapshot(&block, 0),
                Err(MdzError::BadInput(_))
            ));
        }
    }

    #[test]
    fn adaptive_picks_time_method_on_smooth_data() {
        // Temporally near-constant, spatially random: MT/VQT should win.
        let mut s = 77u64;
        let base: Vec<f64> = (0..400)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 * 50.0
            })
            .collect();
        let snaps: Vec<Vec<f64>> =
            (0..10).map(|t| base.iter().map(|&v| v + t as f64 * 1e-6).collect()).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4));
        let mut c = Compressor::new(cfg);
        c.compress_buffer(&snaps).unwrap();
        let chosen = c.current_adaptive_choice().unwrap();
        assert!(
            matches!(chosen, Method::Mt | Method::Vqt),
            "expected a time-based method, got {chosen}"
        );
    }

    #[test]
    fn adaptive_picks_vq_on_time_noisy_lattice_data() {
        // Strong levels but large temporal jumps: VQ should win.
        let mut s = 13u64;
        let snaps: Vec<Vec<f64>> = (0..10)
            .map(|_| {
                (0..400)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        let level = (s % 12) as f64;
                        let u = ((s >> 12) % 1000) as f64 / 1000.0 - 0.5;
                        level * 5.0 + u * 0.02
                    })
                    .collect()
            })
            .collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let mut c = Compressor::new(cfg);
        c.compress_buffer(&snaps).unwrap();
        assert_eq!(c.current_adaptive_choice().unwrap(), Method::Vq);
    }

    #[test]
    fn compress_into_matches_compress_and_reuses_buffer() {
        for method in [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2, Method::Adaptive] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(method);
            let mut a = Compressor::new(cfg.clone());
            let mut b = Compressor::new(cfg);
            let mut out = Vec::new();
            for drift in [0.0, 1e-5, 2e-5] {
                let buf = lattice_buffer(6, 120, drift);
                let want = a.compress_buffer(&buf).unwrap();
                b.compress_buffer_into(&buf, &mut out).unwrap();
                assert_eq!(out, want, "method {method}, drift {drift}");
            }
        }
    }

    #[test]
    fn reset_stream_re_anchors_both_endpoints() {
        for method in [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2, Method::Adaptive] {
            let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method);
            let mut c = Compressor::new(cfg);
            let b0 = c.compress_buffer(&lattice_buffer(4, 120, 1e-5)).unwrap();
            let _b1 = c.compress_buffer(&lattice_buffer(4, 120, 2e-5)).unwrap();
            c.reset_stream();
            // After the reset the compressor re-emits a self-starting block…
            let b0_again = c.compress_buffer(&lattice_buffer(4, 120, 1e-5)).unwrap();
            assert_eq!(b0, b0_again, "method {method}");
            // …and a decoder reset at the same boundary tracks the stream.
            let mut d = Decompressor::new();
            d.decompress_block(&b0).unwrap();
            d.reset_stream();
            let out = d.decompress_block(&b0_again).unwrap();
            assert_eq!(out, Decompressor::new().decompress_block(&b0).unwrap());
        }
    }

    #[test]
    fn an_anchor_keeps_the_grid_and_the_trial_cadence() {
        use mdz_obs::Registry;
        use std::sync::Arc;

        // Each buffer shifts the lattice, so a grid detected on any buffer
        // but the first would differ from the first buffer's.
        let buffers: Vec<Vec<Vec<f64>>> = (0..7)
            .map(|b| {
                let mut buf = lattice_buffer(4, 200, 1e-4);
                buf.iter_mut().flatten().for_each(|v| *v += b as f64 * 0.37);
                buf
            })
            .collect();
        let mut cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        cfg.adapt_interval = 3;
        let registry = Arc::new(Registry::new());
        let counts = || {
            let snap = registry.snapshot();
            (snap.counter("core.adp.trials"), snap.counter("core.grid.detect_runs"))
        };
        // Every buffer is an anchor. Each block, the decisions in force for
        // it, and whether it ran a trial.
        let mut comp = Compressor::new(cfg.clone());
        comp.set_obs(Obs::new(Arc::clone(&registry) as Arc<dyn mdz_obs::Recorder>));
        let mut stream = Vec::new();
        for buf in &buffers {
            let before = counts();
            comp.reset_stream();
            let block = comp.compress_buffer(buf).unwrap();
            stream.push((block, comp.decisions(), counts().0 > before.0));
        }
        let trials: Vec<usize> = (0..7).filter(|&b| stream[b].2).collect();
        assert_eq!(trials, [0, 3, 6]);
        assert_eq!(counts(), (3, 1), "trials and grid detections");
        // Every VQ-family block, the last trial's too, codes with the first
        // buffer's grid.
        let grids: Vec<_> = stream
            .iter()
            .map(|(block, ..)| Decompressor::inspect(block).unwrap())
            .filter(|info| matches!(info.method, Method::Vq | Method::Vqt))
            .map(|info| info.grid)
            .collect();
        assert!(grids.len() > 1 && grids[0].is_some(), "{grids:?}");
        assert!(grids.iter().all(|g| *g == grids[0]), "{grids:?}");
        for (b, (block, ..)) in stream.iter().enumerate() {
            let out = Decompressor::new().decompress_block(block).unwrap();
            for (s, o) in buffers[b].iter().zip(&out) {
                assert!(s.iter().zip(o).all(|(a, r)| (a - r).abs() <= 1e-3), "buffer {b}");
            }
        }

        // A compressor resumed from the decisions in force for a buffer
        // codes it alike, with no trial and no grid detection, and runs its
        // next trial `adapt_interval` buffers after it.
        for (b, (block, decisions, _)) in stream.iter().enumerate() {
            let registry = Arc::new(Registry::new());
            let mut resumed = Compressor::new(cfg.clone());
            resumed.set_obs(Obs::new(Arc::clone(&registry) as Arc<dyn mdz_obs::Recorder>));
            resumed.resume(decisions);
            assert_eq!(&resumed.compress_buffer(&buffers[b]).unwrap(), block, "buffer {b}");
            let snap = registry.snapshot();
            assert_eq!(snap.counter("core.adp.trials") + snap.counter("core.grid.detect_runs"), 0);
            let next_trial = (b + 1..buffers.len()).find(|&later| {
                resumed.reset_stream();
                resumed.compress_buffer(&buffers[later]).unwrap();
                registry.snapshot().counter("core.adp.trials") > 0
            });
            assert_eq!(next_trial, Some(b + 3).filter(|&t| t < buffers.len()), "buffer {b}");
        }

        // The trial blocks' headers record the decisions in force.
        let mut read = Decisions::default();
        for &b in &trials {
            read.update(&stream[b].0).unwrap();
        }
        assert_eq!(read, stream[6].1);
    }

    #[test]
    fn candidate_display_tags_quantizer() {
        let linear =
            Candidate { method: Method::Vqt, quantizer: QuantizerKind::Linear, stored: false };
        assert_eq!(linear.to_string(), "VQT");
        let ba = Candidate {
            method: Method::Mt,
            quantizer: QuantizerKind::BIT_ADAPTIVE_DEFAULT,
            stored: false,
        };
        assert_eq!(ba.to_string(), "MT+BA");
        assert_eq!(Candidate { stored: true, ..ba }.to_string(), "MT+BA+stored");
    }

    #[test]
    fn set_bound_applies_to_next_buffer() {
        let snaps = lattice_buffer(4, 100, 0.0);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = Compressor::new(cfg);
        c.compress_buffer(&snaps).unwrap();
        c.set_bound(ErrorBound::Absolute(1e-6));
        let block = c.compress_buffer(&snaps).unwrap();
        assert_eq!(Decompressor::inspect(&block).unwrap().eps, 1e-6);
    }
}
