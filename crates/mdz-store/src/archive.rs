//! The indexed `.mdz` archive (container version 2): writer, appender,
//! recovery scan, and index parser.
//!
//! Layout:
//!
//! ```text
//! magic "MDZA" · version u8 (= 2) · flags u8
//! uvarint n_atoms · uvarint n_frames · uvarint buffer_size · uvarint epoch_interval
//! uvarint meta_len · meta                  — LZ-compressed element + comment text
//! repeated: uvarint block_len · u64 fnv1a checksum (LE) · trajectory container
//! trajectory container: "MDZT" · per axis (x, y, z): uvarint len · axis block
//! footer payload (v2): uvarint n_frames · uvarint n_blocks
//!                      · per-block uvarint offset delta
//!                      · uvarint n_epochs · per-epoch uvarint start-block delta
//! footer trailer: crc32(payload) u32 LE · payload_len u64 LE · footer version u8 · "MDZI"
//! ```
//!
//! The body is byte-compatible with the version-1 archive except for two
//! additions:
//!
//! * **Epochs** — every `epoch_interval` buffers the compressor anchors
//!   each axis stream ([`mdz_core::Compressor::reset_stream`]): it drops the
//!   MT reference, so the first buffer of each epoch decodes standalone and
//!   a reader can start decoding at any epoch boundary instead of replaying
//!   from frame zero. An appended segment also starts an epoch at its first
//!   block ([`append_store`]). An anchor keeps the stream's encode
//!   decisions ([`mdz_core::Decisions`]): its level grid, detected once,
//!   and its ADP candidate (method, quantizer and payload form). ADP
//!   trials fall only on the first block of every ⌈`adapt_interval` /
//!   `epoch_interval`⌉-th epoch counted from block 0 (every 56 blocks at
//!   the defaults 50 and 8).
//! * **Footer index** — byte offsets of every block record, checksummed and
//!   framed from the *end* of the file so it can be located without scanning.
//!   Offsets in the payload are delta-coded (first entry absolute).
//!
//! # Appends and crash consistency
//!
//! Archives are appendable ([`append_store`]) under a footer-flip protocol:
//! new block records are written *after* the current footer's trailer, the
//! data is synced, and only then is a fresh footer written at the new tail
//! and synced. The old footer's bytes become dead padding between the last
//! old block and the first new one — readers never look at them, because the
//! footer is located from the end of the file. A crash at any point leaves
//! either the old footer as the last valid one (the append never happened)
//! or the new footer fully durable (the append happened); [`recover_slice`]
//! scans backward to the last CRC-valid footer and [`recover_store`]
//! truncates any garbage tail after it. All writes flow through
//! [`crate::io::StoreIo`], which is how the crash-consistency tests inject
//! faults deterministically ([`crate::io::FaultIo`]).
//!
//! Because an append changes the frame count and the epoch anchor points but
//! must not rewrite the header in place, the footer written by this module
//! (version 2) carries the authoritative `n_frames` and the explicit list of
//! epoch start blocks; the header's `n_frames` is the creation-time count
//! and only a lower bound after appends. Version-1 footers (fixed epoch
//! stride, header-authoritative frame count) are still parsed.
//!
//! Version-1 archives carry neither epochs nor footer, but
//! [`ArchiveIndex::parse`] still accepts them by scanning the block records
//! once: the whole archive is treated as a single epoch, so seeks replay
//! from the start — correct, just not O(epoch).

use crate::io::{MemIo, StoreIo};
use mdz_core::checksum::{crc32, fnv1a64};
use std::ops::Range;

use mdz_core::{fan_out, Compressor, Decisions, Frame, MdzConfig, MdzError, Method, Obs, Result};
use mdz_entropy::{read_uvarint, write_uvarint};
use mdz_lossless::lz77;
use mdz_lossless::StreamLimits;

/// Archive magic (shared with version 1).
pub const MAGIC: [u8; 4] = *b"MDZA";
/// Container version written by [`write_store`].
pub const VERSION_V2: u8 = 2;
/// Trajectory container magic: the first four bytes of every block
/// record's body ([`assemble_container`]).
const TRAJ_MAGIC: [u8; 4] = *b"MDZT";
/// Footer trailer magic, the last four bytes of a version-2 archive.
pub const FOOTER_MAGIC: [u8; 4] = *b"MDZI";
/// Legacy footer layout: block offsets only; frame count and epoch stride
/// come from the header. Still parsed, no longer written.
pub const FOOTER_VERSION: u8 = 1;
/// Footer layout written by [`create_store`]/[`append_store`]: carries the
/// authoritative frame count and explicit epoch start blocks, so appends
/// never rewrite the header.
pub const FOOTER_VERSION_V2: u8 = 2;
/// Fixed trailer size: crc32 (4) + payload length (8) + version (1) + magic (4).
pub const FOOTER_TRAILER_LEN: usize = 17;
/// Header flag bit: coordinates were narrowed to `f32` before compression.
pub const STORE_FLAG_F32: u8 = 0b0000_0001;

/// Coordinate precision the store compresses at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full `f64` coordinates (default).
    #[default]
    F64,
    /// Narrow to `f32` before compression; decoded values are widened back.
    /// The error bound then holds relative to the narrowed values.
    F32,
}

/// Options for [`write_store`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Compressor configuration applied to each axis stream.
    pub cfg: MdzConfig,
    /// Frames per buffer (block).
    pub buffer_size: usize,
    /// Buffers per epoch: every this many buffers each axis stream anchors,
    /// dropping its MT reference, so the epoch's first buffer decodes
    /// standalone. `1` makes every buffer standalone; larger values trade
    /// seek granularity for ratio (MT/VQT predictors keep their history
    /// longer). An anchor keeps the level grid and the ADP candidate, and
    /// ADP trials fall on the first buffer of every
    /// ⌈`cfg.adapt_interval` / `epoch_interval`⌉-th epoch.
    pub epoch_interval: usize,
    /// Coordinate precision.
    pub precision: Precision,
    /// Recorder attached to every encoding compressor, so writing an
    /// archive surfaces pipeline metrics (`core.encode.*`, ADP winner
    /// counts) in a caller registry. No-op (free) by default.
    pub obs: Obs,
}

impl StoreOptions {
    /// Paper-style defaults: 128-frame buffers, 8-buffer epochs, `f64`.
    pub fn new(cfg: MdzConfig) -> Self {
        Self {
            cfg,
            buffer_size: 128,
            epoch_interval: 8,
            precision: Precision::F64,
            obs: Obs::noop(),
        }
    }
}

/// One block record in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute byte offset of the record (its leading length uvarint).
    pub offset: usize,
    /// Index of the first frame stored in this block.
    pub frame_start: usize,
    /// Number of frames stored in this block.
    pub n_frames: usize,
    /// Epoch the block belongs to.
    pub epoch: usize,
}

/// Parsed archive header plus the block index.
#[derive(Debug, Clone)]
pub struct ArchiveIndex {
    /// Container version (1 or 2).
    pub version: u8,
    /// Whether coordinates were narrowed to `f32` before compression.
    pub f32_source: bool,
    /// Atoms per frame.
    pub n_atoms: usize,
    /// Total frames in the archive (from the footer when it carries a frame
    /// count — the header's count is creation-time only).
    pub n_frames: usize,
    /// Frames per buffer.
    pub buffer_size: usize,
    /// Buffers per *decision epoch*: the runs of this many blocks counted
    /// from block 0, which are the epochs [`create_store`] writes (for
    /// version 1: the whole archive is one epoch). An appended segment
    /// also anchors at its first block, which may fall inside a decision
    /// epoch, so use [`ArchiveIndex::epoch_starts`] — not this — to locate
    /// anchors.
    pub epoch_interval: usize,
    /// Block index at which each epoch starts (first entry is always 0,
    /// strictly increasing). The authoritative re-anchor points.
    pub epoch_starts: Vec<usize>,
    /// Element symbols from the metadata block.
    pub elements: Vec<String>,
    /// Per-frame comment lines from the metadata block.
    pub comments: Vec<String>,
    /// One entry per block, in file order.
    pub blocks: Vec<BlockEntry>,
}

impl ArchiveIndex {
    /// Number of epochs the archive divides into.
    pub fn n_epochs(&self) -> usize {
        self.epoch_starts.len()
    }

    /// Block indices belonging to `epoch` (clamped to the block count).
    pub fn epoch_blocks(&self, epoch: usize) -> std::ops::Range<usize> {
        let n = self.blocks.len();
        let start = self.epoch_starts.get(epoch).copied().unwrap_or(n).min(n);
        let end = self.epoch_starts.get(epoch + 1).copied().unwrap_or(n).min(n);
        start..end
    }

    /// Epoch containing `frame` (clamped to the last epoch).
    pub fn epoch_of_frame(&self, frame: usize) -> usize {
        let block = frame / self.buffer_size.max(1);
        epoch_of_block(&self.epoch_starts, block)
    }

    /// Parses a version-1 or version-2 archive into an index without
    /// decoding any frame data.
    pub fn parse(data: &[u8]) -> Result<Self> {
        let header = parse_store_header(data)?;
        let footer = match header.version {
            VERSION_V2 => parse_footer(data, &header)?,
            // Version 1: no footer — scan the record lengths once. The whole
            // archive forms a single epoch (no re-anchor points exist).
            _ => {
                let expected_blocks = header.n_frames.div_ceil(header.buffer_size);
                FooterInfo {
                    offsets: scan_v1_records(data, header.body_start, expected_blocks)?,
                    n_frames: header.n_frames,
                    epoch_starts: vec![0],
                }
            }
        };
        let epoch_interval = if header.version == VERSION_V2 {
            header.epoch_interval.max(1)
        } else {
            footer.offsets.len().max(1)
        };
        let entries = footer
            .offsets
            .iter()
            .enumerate()
            .map(|(i, &offset)| BlockEntry {
                offset,
                frame_start: i * header.buffer_size,
                n_frames: header.buffer_size.min(footer.n_frames - i * header.buffer_size),
                epoch: epoch_of_block(&footer.epoch_starts, i),
            })
            .collect();
        Ok(ArchiveIndex {
            version: header.version,
            f32_source: header.f32_source,
            n_atoms: header.n_atoms,
            n_frames: footer.n_frames,
            buffer_size: header.buffer_size,
            epoch_interval,
            epoch_starts: footer.epoch_starts,
            elements: header.elements,
            comments: header.comments,
            blocks: entries,
        })
    }
}

/// Epoch that block `block` belongs to, given the epoch start list.
fn epoch_of_block(epoch_starts: &[usize], block: usize) -> usize {
    epoch_starts.partition_point(|&s| s <= block).saturating_sub(1)
}

/// Frames one buffer's three per-axis blocks (x, y, z) into the trajectory
/// container a block record holds (FORMAT.md §3).
pub fn assemble_container(blocks: &[Vec<u8>; 3]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.iter().map(Vec::len).sum::<usize>() + 16);
    out.extend_from_slice(&TRAJ_MAGIC);
    for b in blocks {
        write_uvarint(&mut out, b.len() as u64);
        out.extend_from_slice(b);
    }
    out
}

/// Splits a trajectory container into its x, y and z blocks; the inverse
/// of [`assemble_container`].
pub fn split_container(data: &[u8]) -> Result<[&[u8]; 3]> {
    let magic = data.get(..4).ok_or(MdzError::BadHeader("truncated container"))?;
    if magic != TRAJ_MAGIC {
        return Err(MdzError::BadHeader("not an MDZ trajectory container"));
    }
    let mut pos = 4;
    let mut blocks = [&data[0..0]; 3];
    for slot in &mut blocks {
        let len = read_uvarint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or(MdzError::BadHeader("truncated axis block"))?;
        *slot = &data[pos..end];
        pos = end;
    }
    Ok(blocks)
}

/// Reads the block record at `offset`, verifying its FNV-1a checksum, and
/// returns the contained trajectory container bytes.
pub fn record_at(data: &[u8], offset: usize) -> Result<&[u8]> {
    let mut pos = offset;
    if pos >= data.len() {
        return Err(MdzError::Corrupt { what: "block offset past end of archive" });
    }
    let len = read_uvarint(data, &mut pos)? as usize;
    let sum_bytes =
        data.get(pos..pos + 8).ok_or(MdzError::Corrupt { what: "truncated block checksum" })?;
    pos += 8;
    let expected = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= data.len())
        .ok_or(MdzError::Corrupt { what: "truncated block record" })?;
    let block = &data[pos..end];
    if fnv1a64(block) != expected {
        return Err(MdzError::Corrupt { what: "block checksum mismatch" });
    }
    Ok(block)
}

/// Compresses a trajectory into an indexed version-2 archive in memory.
///
/// `elements` and `comments` are stored losslessly (same metadata block as
/// version 1); pass empty slices when the source has none. Convenience
/// wrapper around [`create_store`] over a [`MemIo`].
pub fn write_store(
    frames: &[Frame],
    elements: &[String],
    comments: &[String],
    opts: &StoreOptions,
) -> Result<Vec<u8>> {
    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, frames, elements, comments, opts)?;
    Ok(io.into_bytes())
}

/// Compresses a trajectory into an indexed version-2 archive on `io`,
/// replacing any existing contents.
///
/// Every block is encoded before `io` is touched, so rejected input leaves
/// an existing file as it was. Durability protocol: header and block
/// records are written first and synced, then the footer is written at the
/// tail and synced. The archive is published (readable) only once the
/// footer is durable.
pub fn create_store(
    io: &mut dyn StoreIo,
    frames: &[Frame],
    elements: &[String],
    comments: &[String],
    opts: &StoreOptions,
) -> Result<()> {
    if frames.is_empty() {
        return Err(MdzError::BadInput("trajectory has no frames"));
    }
    let n_atoms = frames[0].len();
    if n_atoms == 0 {
        return Err(MdzError::BadInput("frames have no atoms"));
    }
    if frames.iter().any(|f| f.len() != n_atoms || f.y.len() != n_atoms || f.z.len() != n_atoms) {
        return Err(MdzError::BadInput("ragged frames: atom counts differ"));
    }
    if opts.buffer_size == 0 {
        return Err(MdzError::BadConfig("buffer_size must be positive"));
    }
    if opts.epoch_interval == 0 {
        return Err(MdzError::BadConfig("epoch_interval must be positive"));
    }
    opts.cfg.validate()?;

    let mut head = Vec::new();
    head.extend_from_slice(&MAGIC);
    head.push(VERSION_V2);
    head.push(match opts.precision {
        Precision::F64 => 0,
        Precision::F32 => STORE_FLAG_F32,
    });
    write_uvarint(&mut head, n_atoms as u64);
    write_uvarint(&mut head, frames.len() as u64);
    write_uvarint(&mut head, opts.buffer_size as u64);
    write_uvarint(&mut head, opts.epoch_interval as u64);
    let mut meta = String::new();
    meta.push_str(&elements.join(" "));
    meta.push('\n');
    for c in comments {
        meta.push_str(c);
        meta.push('\n');
    }
    let meta_c = lz77::compress(meta.as_bytes(), lz77::Level::Default);
    write_uvarint(&mut head, meta_c.len() as u64);
    head.extend_from_slice(&meta_c);

    // A new stream has decided nothing yet.
    let records = encode_records(
        frames,
        0,
        &Default::default(),
        opts.buffer_size,
        opts.epoch_interval,
        opts,
        hardware_threads(),
    )?;
    io.truncate(0)?;
    io.write_at(0, &head)?;
    let mut pos = head.len() as u64;
    let offsets = write_records(io, &mut pos, &records)?;
    io.sync()?;

    let epoch_starts = segment_epochs(0..offsets.len(), opts.epoch_interval);
    let footer = footer_bytes(frames.len(), &offsets, &epoch_starts);
    io.write_at(pos, &footer)?;
    io.sync()?;
    Ok(())
}

/// Report returned by [`append_store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// Frames added by this append.
    pub appended_frames: usize,
    /// Block records added by this append.
    pub appended_blocks: usize,
    /// Garbage tail bytes truncated by the implicit recovery pass before
    /// appending (0 for a cleanly closed archive).
    pub recovered_bytes: usize,
    /// Total frames in the archive after the append.
    pub n_frames: usize,
}

/// Appends frames to an existing version-2 archive under the footer-flip
/// protocol (see the module docs): recover to the last valid footer, write
/// the new block records after its trailer, sync the data, then write and
/// sync a fresh footer at the new tail. A crash at any point leaves the
/// archive readable as either the pre-append or the post-append state.
///
/// The archive's geometry wins: frames are blocked by its `buffer_size`
/// and `opts.precision` must match the archive's;
/// `opts.buffer_size`/`opts.epoch_interval` are ignored. The archive's
/// frame count must be a multiple of its buffer size (a partial tail block
/// cannot be extended in place).
///
/// Epochs follow the archive's *decision epochs*: the runs of
/// `epoch_interval` blocks counted from block 0, which are exactly the
/// epochs [`create_store`] writes. The segment's first block anchors an
/// epoch, and so does every decision-epoch start inside the segment; an
/// anchor drops only the MT reference. The appended blocks follow
/// [`create_store`]'s decision rule (module docs): the axis streams take
/// the decisions the archive's earlier ADP trial blocks (under VQ or VQT:
/// block 0) record in their headers — the grid of a VQ-family one, the
/// candidate of the last one — and the trial positions from the block
/// count, without reading any other block, and the segment runs the
/// trials that fall in it. A decision block failing its checksum fails
/// the append with [`MdzError::Corrupt`]. When the archive was written
/// with `opts.cfg`, every appended block codes with the method, grid,
/// quantizer and payload form one [`create_store`] of all the frames would
/// give it.
///
/// The encode picks its workers as [`create_store`]'s does (a one-block
/// segment on the caller's thread, a longer one on every hardware thread);
/// the records do not depend on the worker count.
pub fn append_store(
    io: &mut dyn StoreIo,
    frames: &[Frame],
    opts: &StoreOptions,
) -> Result<AppendReport> {
    append_image(io, frames, opts).map(|(report, _)| report)
}

/// [`append_store`], also returning the archive image it leaves: the bytes
/// it read, cut to the valid prefix and extended by the records and footer
/// it wrote and synced. That image equals the storage's contents, so the
/// live sink publishes it without reading the file again.
pub(crate) fn append_image(
    io: &mut dyn StoreIo,
    frames: &[Frame],
    opts: &StoreOptions,
) -> Result<(AppendReport, Vec<u8>)> {
    let mut data = io.read_all()?;
    let (valid_len, index) = recover_slice(&data)?;
    let recovered_bytes = data.len() - valid_len;
    data.truncate(valid_len);
    if recovered_bytes > 0 {
        io.truncate(valid_len as u64)?;
        io.sync()?;
    }
    if index.version != VERSION_V2 {
        return Err(MdzError::BadInput("append requires a version-2 archive"));
    }
    if frames.is_empty() {
        return Err(MdzError::BadInput("no frames to append"));
    }
    if frames.iter().any(|f| {
        f.len() != index.n_atoms || f.y.len() != index.n_atoms || f.z.len() != index.n_atoms
    }) {
        return Err(MdzError::BadInput("appended frames disagree with archive atom count"));
    }
    if index.n_frames % index.buffer_size != 0 {
        return Err(MdzError::BadInput("append requires the archive's last block to be full"));
    }
    if (opts.precision == Precision::F32) != index.f32_source {
        return Err(MdzError::BadConfig("append precision must match the archive"));
    }
    opts.cfg.validate()?;

    let base_blocks = index.blocks.len();
    let epoch_interval = index.epoch_interval;
    let decided = read_decisions(&data, &index, &opts.cfg, base_blocks)?;
    let records = encode_records(
        frames,
        base_blocks,
        &decided,
        index.buffer_size,
        epoch_interval,
        opts,
        hardware_threads(),
    )?;
    let mut pos = valid_len as u64;
    let new_offsets = write_records(io, &mut pos, &records)?;
    io.sync()?;

    let mut offsets: Vec<usize> = index.blocks.iter().map(|b| b.offset).collect();
    offsets.extend_from_slice(&new_offsets);
    let mut epoch_starts = index.epoch_starts.clone();
    epoch_starts.extend(segment_epochs(base_blocks..offsets.len(), epoch_interval));
    let n_frames = index.n_frames + frames.len();
    let footer = footer_bytes(n_frames, &offsets, &epoch_starts);
    io.write_at(pos, &footer)?;
    io.sync()?;

    data.reserve_exact(pos as usize - valid_len + footer.len());
    for record in &records {
        data.extend_from_slice(record);
    }
    data.extend_from_slice(&footer);
    let report = AppendReport {
        appended_frames: frames.len(),
        appended_blocks: new_offsets.len(),
        recovered_bytes,
        n_frames,
    };
    Ok((report, data))
}

/// The most workers the writer starts: one per hardware thread.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The epochs a segment of `blocks` starts: one at its first block and one
/// at every decision-epoch start (multiple of `epoch_interval`) after it.
fn segment_epochs(blocks: Range<usize>, epoch_interval: usize) -> Vec<usize> {
    let next = (blocks.start / epoch_interval + 1) * epoch_interval;
    std::iter::once(blocks.start).chain((next..blocks.end).step_by(epoch_interval)).collect()
}

/// The blocks of `blocks` where an axis stream decides something. Under
/// ADP these are its trials: the first block of every
/// ⌈`adapt_interval` / `epoch_interval`⌉-th epoch counted from block 0, so
/// a trial always falls on an epoch anchor. Under VQ or VQT it is block 0,
/// whose first snapshot the level grid is detected from. MT decides
/// nothing.
fn decision_blocks(cfg: &MdzConfig, epoch_interval: usize, blocks: Range<usize>) -> Vec<usize> {
    match cfg.method {
        Method::Adaptive => {
            let every = trial_interval(cfg, epoch_interval);
            (blocks.start.next_multiple_of(every)..blocks.end).step_by(every).collect()
        }
        Method::Vq | Method::Vqt => blocks.contains(&0).then_some(0).into_iter().collect(),
        _ => Vec::new(),
    }
}

/// The store's ADP trial interval in blocks: `adapt_interval` rounded up to
/// whole epochs.
fn trial_interval(cfg: &MdzConfig, epoch_interval: usize) -> usize {
    (cfg.adapt_interval as usize).div_ceil(epoch_interval) * epoch_interval
}

/// The decisions the axis streams of the archive `data` made in its first
/// `blocks` blocks under `cfg`, read from the headers of their
/// [`decision_blocks`] alone. A decision block failing its checksum fails
/// with [`MdzError::Corrupt`].
fn read_decisions(
    data: &[u8],
    index: &ArchiveIndex,
    cfg: &MdzConfig,
    blocks: usize,
) -> Result<[Decisions; 3]> {
    let mut decided = [Decisions::default(); 3];
    for b in decision_blocks(cfg, index.epoch_interval, 0..blocks) {
        let axes = split_container(record_at(data, index.blocks[b].offset)?)?;
        for (decisions, block) in decided.iter_mut().zip(axes) {
            decisions.update(block)?;
        }
    }
    Ok(decided)
}

/// One stretch of an axis stream for [`encode_records`] to encode: a
/// decision epoch, or the part of one that a segment holds.
struct StreamJob<'a> {
    frames: &'a [Frame],
    axis: usize,
    /// The decisions in force at the stretch's first block.
    decisions: Decisions,
}

/// Encodes `frames` into one block record per `buffer_size` frames, in
/// block order, as blocks `first_block..` of an archive whose axis streams
/// have made the decisions `decided` in their earlier blocks (all empty for
/// a new archive).
///
/// Two [`fan_out`] passes on up to `workers` threads. The decide pass, one
/// job per axis, encodes only the segment's [`decision_blocks`], in stream
/// order, each after an anchor; under ADP each is a trial. The encode pass
/// then splits the segment at its first block and at every decision-epoch
/// start (the multiples of `epoch_interval`) into (stretch, axis) jobs. Each
/// job anchors, takes up the decisions in force at its first block
/// ([`Compressor::resume`]) and runs no trial or grid detection: a job never
/// spans a trial, because the compressors trial every
/// [`trial_interval`] ≥ `epoch_interval` buffers. A job depends only on
/// its frames and decisions, so the records are byte-identical for any
/// `workers`. A one-block segment runs both passes inline on the caller's
/// thread (DESIGN.md §9).
fn encode_records(
    frames: &[Frame],
    first_block: usize,
    decided: &[Decisions; 3],
    buffer_size: usize,
    epoch_interval: usize,
    opts: &StoreOptions,
    workers: usize,
) -> Result<Vec<Vec<u8>>> {
    let end_block = first_block + frames.len().div_ceil(buffer_size);
    // A one-block segment's jobs encode one buffer each (on `ingest`, each
    // APPEND): starting threads, each with a fresh compressor whose scratch
    // lands in a malloc arena of its own, costs more than a second core
    // saves.
    let workers = if end_block - first_block == 1 { 1 } else { workers };
    let block_frames = |from: usize, to: usize| {
        let start = (from - first_block) * buffer_size;
        &frames[start..frames.len().min((to - first_block) * buffer_size)]
    };
    let mut cfg = opts.cfg.clone();
    cfg.adapt_interval = u32::try_from(trial_interval(&cfg, epoch_interval)).unwrap_or(u32::MAX);
    let decide_at = decision_blocks(&opts.cfg, epoch_interval, first_block..end_block);
    // A pass on `threads` threads records its stage seconds as shares of
    // its wall clock, so they still add up to at most the write's wall time.
    let compressors = |threads: usize| {
        let obs = opts.obs.share(threads);
        let cfg = &cfg;
        move || {
            let mut comp = Compressor::new(cfg.clone());
            comp.set_obs(obs.clone());
            (comp, Vec::new())
        }
    };

    // With nothing to decide the pass runs inline, starting no thread.
    let threads = if decide_at.is_empty() { 1 } else { workers.clamp(1, 3) };
    let made = fan_out(&[0, 1, 2], threads, &opts.obs, compressors(threads), |worker, &axis| {
        let (comp, narrow) = worker;
        let mut decisions = decided[axis];
        decide_at
            .iter()
            .map(|&b| {
                comp.resume(&Decisions { candidate: None, ..decisions });
                let chunk = block_frames(b, b + 1);
                encode_axis_block(comp, narrow, chunk, axis, opts.precision)?;
                decisions = comp.decisions();
                Ok((b, decisions))
            })
            .collect::<Result<Vec<(usize, Decisions)>>>()
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;

    let starts = segment_epochs(first_block..end_block, epoch_interval);
    let mut jobs = Vec::with_capacity(starts.len() * 3);
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(end_block);
        for axis in 0..3 {
            let in_force = made[axis].iter().rev().find(|&&(b, _)| b <= start);
            jobs.push(StreamJob {
                frames: block_frames(start, end),
                axis,
                decisions: in_force.map_or(decided[axis], |&(_, d)| d),
            });
        }
    }
    let threads = workers.clamp(1, jobs.len());
    let streams = fan_out(&jobs, threads, &opts.obs, compressors(threads), |worker, job| {
        let (comp, narrow) = worker;
        comp.resume(&job.decisions);
        job.frames
            .chunks(buffer_size)
            .map(|chunk| encode_axis_block(comp, narrow, chunk, job.axis, opts.precision))
            .collect::<Result<Vec<Vec<u8>>>>()
    });

    let mut records = Vec::with_capacity(end_block - first_block);
    let mut streams = streams.into_iter();
    while let (Some(x), Some(y), Some(z)) = (streams.next(), streams.next(), streams.next()) {
        for ((x, y), z) in x?.into_iter().zip(y?).zip(z?) {
            records.push(block_record(&[x, y, z]));
        }
    }
    Ok(records)
}

/// The block record of one buffer's x, y and z blocks: the container's
/// length, its FNV-1a checksum and the container.
fn block_record(blocks: &[Vec<u8>; 3]) -> Vec<u8> {
    let container = assemble_container(blocks);
    // Length uvarint (at most 10 bytes) + FNV-1a checksum (8).
    let mut record = Vec::with_capacity(container.len() + 18);
    write_uvarint(&mut record, container.len() as u64);
    record.extend_from_slice(&fnv1a64(&container).to_le_bytes());
    record.extend_from_slice(&container);
    record
}

/// Encodes one axis of `chunk` as the next block of `comp`'s stream. The
/// compressor borrows `f64` coordinates in place; `f32` ones are narrowed
/// once into `narrow`, which the worker reuses.
fn encode_axis_block(
    comp: &mut Compressor,
    narrow: &mut Vec<Vec<f32>>,
    chunk: &[Frame],
    axis: usize,
    precision: Precision,
) -> Result<Vec<u8>> {
    fn coords(frame: &Frame, axis: usize) -> &[f64] {
        match axis {
            0 => &frame.x,
            1 => &frame.y,
            _ => &frame.z,
        }
    }
    let mut block = Vec::new();
    match precision {
        Precision::F64 => {
            let snapshots: Vec<&[f64]> = chunk.iter().map(|f| coords(f, axis)).collect();
            comp.compress_buffer_into(&snapshots, &mut block)?;
        }
        Precision::F32 => {
            if narrow.len() < chunk.len() {
                narrow.resize_with(chunk.len(), Vec::new);
            }
            for (snapshot, frame) in narrow.iter_mut().zip(chunk) {
                snapshot.clear();
                snapshot.extend(coords(frame, axis).iter().map(|&v| v as f32));
            }
            comp.compress_buffer_f32_into(&narrow[..chunk.len()], &mut block)?;
        }
    }
    Ok(block)
}

/// Writes `records` back to back from `*pos`, one write call each,
/// advancing `*pos`; returns the absolute offset of each record.
fn write_records(io: &mut dyn StoreIo, pos: &mut u64, records: &[Vec<u8>]) -> Result<Vec<usize>> {
    records
        .iter()
        .map(|record| {
            io.write_at(*pos, record)?;
            let offset = *pos as usize;
            *pos += record.len() as u64;
            Ok(offset)
        })
        .collect()
}

/// Serializes a version-2 footer (payload + trailer) for the given state.
fn footer_bytes(n_frames: usize, offsets: &[usize], epoch_starts: &[usize]) -> Vec<u8> {
    let mut payload = Vec::new();
    write_uvarint(&mut payload, n_frames as u64);
    write_uvarint(&mut payload, offsets.len() as u64);
    let mut prev = 0usize;
    for &off in offsets {
        write_uvarint(&mut payload, (off - prev) as u64);
        prev = off;
    }
    write_uvarint(&mut payload, epoch_starts.len() as u64);
    let mut prev = 0usize;
    for &s in epoch_starts {
        write_uvarint(&mut payload, (s - prev) as u64);
        prev = s;
    }
    let crc = crc32(&payload);
    let mut out = payload;
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&((out.len() - 4) as u64).to_le_bytes());
    out.push(FOOTER_VERSION_V2);
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

/// Report returned by [`recover_store`] and [`crate::StoreReader::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverReport {
    /// Length of the valid archive prefix (position of the last durable
    /// footer's end).
    pub valid_len: usize,
    /// Garbage tail bytes past the last valid footer (0 when the archive
    /// was already cleanly closed).
    pub truncated_bytes: usize,
}

/// Finds the longest valid archive prefix of `data`: the strict parse if it
/// succeeds, otherwise the rightmost prefix ending in a fully CRC-valid
/// footer (the crash-recovery scan). Returns the prefix length and its
/// parsed index. Fails only when no valid footer exists at all (e.g. the
/// header itself is torn).
pub fn recover_slice(data: &[u8]) -> Result<(usize, ArchiveIndex)> {
    let strict_err = match ArchiveIndex::parse(data) {
        Ok(idx) => return Ok((data.len(), idx)),
        Err(e) => e,
    };
    let Ok(header) = parse_store_header(data) else {
        return Err(strict_err);
    };
    if header.version != VERSION_V2 {
        // Version 1 has no footers to scan for; the strict error stands.
        return Err(strict_err);
    }
    let min_end = header.body_start + FOOTER_TRAILER_LEN;
    let mut end = data.len().saturating_sub(1);
    while end >= min_end {
        if data[end - 4..end] == FOOTER_MAGIC {
            if let Ok(idx) = ArchiveIndex::parse(&data[..end]) {
                return Ok((end, idx));
            }
        }
        end -= 1;
    }
    Err(MdzError::Corrupt { what: "no valid footer found; archive is unrecoverable" })
}

/// Truncates `io` back to its last valid footer (no-op when the archive is
/// already cleanly closed). Errors when no valid footer exists.
pub fn recover_store(io: &mut dyn StoreIo) -> Result<RecoverReport> {
    let data = io.read_all()?;
    let (valid_len, _) = recover_slice(&data)?;
    let truncated_bytes = data.len() - valid_len;
    if truncated_bytes > 0 {
        io.truncate(valid_len as u64)?;
        io.sync()?;
    }
    Ok(RecoverReport { valid_len, truncated_bytes })
}

/// Summary returned by [`verify_archive`] for an intact archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Total frames indexed.
    pub n_frames: usize,
    /// Block records checked.
    pub n_blocks: usize,
    /// Epochs the archive divides into.
    pub n_epochs: usize,
    /// Archive length in bytes.
    pub archive_len: usize,
}

/// First integrity fault found by [`verify_archive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFault {
    /// Byte offset of the corrupt region (0 when the header itself is bad;
    /// the valid-prefix length when only the tail is garbage).
    pub offset: usize,
    /// Human-readable description of the fault.
    pub what: String,
}

impl std::fmt::Display for VerifyFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt at byte {}: {}", self.offset, self.what)
    }
}

/// Walks every integrity check in the archive — header, footer CRC, and
/// each block record's FNV checksum — and reports the first corrupt offset.
/// Dead bytes *between* append generations (superseded footers) are legal
/// and not a fault; trailing bytes after the last valid footer are, and so
/// are bytes after a version-1 archive's last block record.
pub fn verify_archive(data: &[u8]) -> std::result::Result<VerifyReport, VerifyFault> {
    let idx = match ArchiveIndex::parse(data) {
        Ok(idx) => idx,
        Err(err) => {
            return Err(match recover_slice(data) {
                Ok((valid_len, _)) => VerifyFault {
                    offset: valid_len,
                    what: format!("trailing bytes after the last valid footer ({err})"),
                },
                Err(_) => VerifyFault { offset: 0, what: err.to_string() },
            })
        }
    };
    let mut records_end = 0;
    for b in &idx.blocks {
        match record_at(data, b.offset) {
            // The container is the record's tail, so its end is the record's.
            Ok(container) => {
                records_end = container.as_ptr_range().end as usize - data.as_ptr() as usize
            }
            Err(err) => return Err(VerifyFault { offset: b.offset, what: err.to_string() }),
        }
    }
    // Version 1 has no footer: its last block record must end the file.
    if idx.version != VERSION_V2 && records_end < data.len() {
        return Err(VerifyFault {
            offset: records_end,
            what: "trailing bytes after the last block record".into(),
        });
    }
    Ok(VerifyReport {
        n_frames: idx.n_frames,
        n_blocks: idx.blocks.len(),
        n_epochs: idx.n_epochs(),
        archive_len: data.len(),
    })
}

struct StoreHeader {
    version: u8,
    f32_source: bool,
    n_atoms: usize,
    n_frames: usize,
    buffer_size: usize,
    epoch_interval: usize,
    elements: Vec<String>,
    comments: Vec<String>,
    /// Offset of the first block record.
    body_start: usize,
}

fn parse_store_header(data: &[u8]) -> Result<StoreHeader> {
    let magic = data.get(..4).ok_or(MdzError::BadHeader("truncated magic"))?;
    if magic != MAGIC {
        return Err(MdzError::BadHeader("not an MDZ archive"));
    }
    let version = *data.get(4).ok_or(MdzError::BadHeader("truncated version"))?;
    if version != 1 && version != VERSION_V2 {
        return Err(MdzError::BadHeader("unsupported archive version"));
    }
    let mut pos = 5;
    let mut f32_source = false;
    if version == VERSION_V2 {
        let flags = *data.get(5).ok_or(MdzError::BadHeader("truncated flags"))?;
        if flags & !STORE_FLAG_F32 != 0 {
            return Err(MdzError::BadHeader("unknown store flags"));
        }
        f32_source = flags & STORE_FLAG_F32 != 0;
        pos = 6;
    }
    let n_atoms = read_uvarint(data, &mut pos)? as usize;
    let n_frames = read_uvarint(data, &mut pos)? as usize;
    let buffer_size = read_uvarint(data, &mut pos)? as usize;
    let epoch_interval =
        if version == VERSION_V2 { read_uvarint(data, &mut pos)? as usize } else { 0 };
    if n_atoms == 0 || n_frames == 0 || buffer_size == 0 {
        return Err(MdzError::BadHeader("zero atom, frame, or buffer count"));
    }
    if version == VERSION_V2 && epoch_interval == 0 {
        return Err(MdzError::BadHeader("zero epoch interval"));
    }
    let meta_len = read_uvarint(data, &mut pos)? as usize;
    let meta_end = pos
        .checked_add(meta_len)
        .filter(|&e| e <= data.len())
        .ok_or(MdzError::BadHeader("truncated metadata"))?;
    // Bound the metadata expansion by a multiple of its compressed size so a
    // forged header cannot force a huge allocation before any checksum runs.
    let budget = meta_len.saturating_mul(64).clamp(1 << 12, 1 << 26);
    let mut meta = Vec::new();
    lz77::decompress_into_limited(
        &data[pos..meta_end],
        &mut meta,
        &StreamLimits::with_max_items(budget),
    )
    .map_err(|_| MdzError::BadHeader("metadata stream is corrupt"))?;
    let meta_text =
        String::from_utf8(meta).map_err(|_| MdzError::BadHeader("metadata is not UTF-8"))?;
    let mut meta_lines = meta_text.lines();
    let elements = meta_lines.next().unwrap_or("").split_whitespace().map(str::to_string).collect();
    let comments = meta_lines.map(str::to_string).collect();
    Ok(StoreHeader {
        version,
        f32_source,
        n_atoms,
        n_frames,
        buffer_size,
        epoch_interval,
        elements,
        comments,
        body_start: meta_end,
    })
}

/// Decoded footer state: block offsets plus (for version-2 footers) the
/// authoritative frame count and epoch anchor list.
struct FooterInfo {
    offsets: Vec<usize>,
    n_frames: usize,
    epoch_starts: Vec<usize>,
}

/// Locates, checksums, and decodes the footer at the end of `data`.
fn parse_footer(data: &[u8], header: &StoreHeader) -> Result<FooterInfo> {
    let len = data.len();
    let body_start = header.body_start;
    if len < body_start + FOOTER_TRAILER_LEN {
        return Err(MdzError::Corrupt { what: "archive too short for footer" });
    }
    if data[len - 4..] != FOOTER_MAGIC {
        return Err(MdzError::Corrupt { what: "footer magic missing" });
    }
    let footer_version = data[len - 5];
    if footer_version != FOOTER_VERSION && footer_version != FOOTER_VERSION_V2 {
        return Err(MdzError::Corrupt { what: "unsupported footer version" });
    }
    let payload_len = u64::from_le_bytes(data[len - 13..len - 5].try_into().unwrap()) as usize;
    let expected_crc = u32::from_le_bytes(data[len - 17..len - 13].try_into().unwrap());
    let payload_end = len - FOOTER_TRAILER_LEN;
    let payload_start = payload_end
        .checked_sub(payload_len)
        .filter(|&s| s >= body_start)
        .ok_or(MdzError::Corrupt { what: "footer length out of range" })?;
    let payload = &data[payload_start..payload_end];
    if crc32(payload) != expected_crc {
        return Err(MdzError::Corrupt { what: "footer checksum mismatch" });
    }
    let mut pos = 0;
    let n_frames = if footer_version == FOOTER_VERSION_V2 {
        let n = read_uvarint(payload, &mut pos)
            .map_err(|_| MdzError::Corrupt { what: "footer frame count is corrupt" })?
            as usize;
        // The header count is frozen at creation time; appends only grow it.
        if n < header.n_frames {
            return Err(MdzError::Corrupt { what: "footer frame count below header count" });
        }
        n
    } else {
        header.n_frames
    };
    let n_blocks = read_uvarint(payload, &mut pos)
        .map_err(|_| MdzError::Corrupt { what: "footer block count is corrupt" })?
        as usize;
    if n_blocks != n_frames.div_ceil(header.buffer_size) {
        return Err(MdzError::Corrupt { what: "footer block count disagrees with frame count" });
    }
    // Each delta is at least one payload byte, so the count is implicitly
    // bounded by the (already CRC-validated) payload size.
    if n_blocks > payload.len() {
        return Err(MdzError::Corrupt { what: "footer block count exceeds payload" });
    }
    let mut offsets = Vec::with_capacity(n_blocks);
    let mut prev = 0usize;
    for i in 0..n_blocks {
        let delta = read_uvarint(payload, &mut pos)
            .map_err(|_| MdzError::Corrupt { what: "footer offset is corrupt" })?
            as usize;
        if i > 0 && delta == 0 {
            return Err(MdzError::Corrupt { what: "footer offsets not increasing" });
        }
        let off = prev
            .checked_add(delta)
            .filter(|&o| o >= body_start && o < payload_start)
            .ok_or(MdzError::Corrupt { what: "footer offset out of range" })?;
        offsets.push(off);
        prev = off;
    }
    let epoch_starts = if footer_version == FOOTER_VERSION_V2 {
        let n_epochs = read_uvarint(payload, &mut pos)
            .map_err(|_| MdzError::Corrupt { what: "footer epoch count is corrupt" })?
            as usize;
        if n_epochs == 0 || n_epochs > n_blocks {
            return Err(MdzError::Corrupt { what: "footer epoch count out of range" });
        }
        let mut starts = Vec::with_capacity(n_epochs);
        let mut prev = 0usize;
        for i in 0..n_epochs {
            let delta = read_uvarint(payload, &mut pos)
                .map_err(|_| MdzError::Corrupt { what: "footer epoch start is corrupt" })?
                as usize;
            if i == 0 && delta != 0 {
                return Err(MdzError::Corrupt { what: "first epoch must start at block 0" });
            }
            if i > 0 && delta == 0 {
                return Err(MdzError::Corrupt { what: "footer epoch starts not increasing" });
            }
            let s = prev
                .checked_add(delta)
                .filter(|&s| s < n_blocks)
                .ok_or(MdzError::Corrupt { what: "footer epoch start out of range" })?;
            starts.push(s);
            prev = s;
        }
        starts
    } else {
        (0..n_blocks).step_by(header.epoch_interval.max(1)).collect()
    };
    if pos != payload.len() {
        return Err(MdzError::Corrupt { what: "footer payload has trailing bytes" });
    }
    Ok(FooterInfo { offsets, n_frames, epoch_starts })
}

/// Scans a version-1 body once, recording each record's start offset.
/// Checksums are deferred to decode time ([`record_at`]).
fn scan_v1_records(data: &[u8], body_start: usize, expected_blocks: usize) -> Result<Vec<usize>> {
    let mut offsets = Vec::new();
    let mut pos = body_start;
    while pos < data.len() && offsets.len() < expected_blocks {
        let start = pos;
        let len = read_uvarint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(8)
            .and_then(|p| p.checked_add(len))
            .filter(|&e| e <= data.len())
            .ok_or(MdzError::Corrupt { what: "truncated v1 block record" })?;
        offsets.push(start);
        pos = end;
    }
    if offsets.len() != expected_blocks {
        return Err(MdzError::Corrupt { what: "v1 archive is missing blocks" });
    }
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdz_core::ErrorBound;
    use std::collections::BTreeSet;

    fn frames(n_frames: usize, n_atoms: usize) -> Vec<Frame> {
        (0..n_frames)
            .map(|t| {
                let coord = |axis: usize| {
                    (0..n_atoms)
                        .map(|i| (i % 7) as f64 * 2.5 + t as f64 * 1e-3 + axis as f64)
                        .collect::<Vec<f64>>()
                };
                Frame::new(coord(0), coord(1), coord(2))
            })
            .collect()
    }

    fn opts() -> StoreOptions {
        let mut o = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        o.buffer_size = 4;
        o.epoch_interval = 2;
        o
    }

    #[test]
    fn index_round_trips_header_fields() {
        let f = frames(19, 12);
        let data = write_store(&f, &["H".into(), "O".into()], &["c0".into()], &opts()).unwrap();
        let idx = ArchiveIndex::parse(&data).unwrap();
        assert_eq!(idx.version, VERSION_V2);
        assert_eq!(idx.n_atoms, 12);
        assert_eq!(idx.n_frames, 19);
        assert_eq!(idx.buffer_size, 4);
        assert_eq!(idx.epoch_interval, 2);
        assert_eq!(idx.blocks.len(), 5);
        assert_eq!(idx.n_epochs(), 3);
        assert_eq!(idx.epoch_starts, vec![0, 2, 4]);
        assert_eq!(idx.elements, vec!["H".to_string(), "O".to_string()]);
        assert_eq!(idx.comments, vec!["c0".to_string()]);
        // Last block holds the 3 tail frames.
        assert_eq!(idx.blocks[4].n_frames, 3);
        assert_eq!(idx.blocks[4].epoch, 2);
        // Every offset must point at a checksummed record.
        for b in &idx.blocks {
            record_at(&data, b.offset).unwrap();
        }
    }

    #[test]
    fn container_splits_into_the_blocks_it_framed() {
        let blocks = [vec![1u8, 2], Vec::new(), vec![3u8; 200]];
        let container = assemble_container(&blocks);
        assert_eq!(split_container(&container).unwrap(), [&[1u8, 2][..], &[], &[3u8; 200]]);
        assert!(split_container(&container[..3]).is_err());
        assert!(split_container(&container[..container.len() - 1]).is_err());
        let mut bad = container;
        bad[0] = b'X';
        assert!(split_container(&bad).is_err());
    }

    #[test]
    fn rejected_create_leaves_the_existing_file_intact() {
        let existing = write_store(&frames(8, 6), &[], &[], &opts()).unwrap();
        let mut io = MemIo::new(existing.clone());
        let no_atoms = frames(5, 0);
        assert!(matches!(
            create_store(&mut io, &no_atoms, &[], &[], &opts()),
            Err(MdzError::BadInput(_))
        ));
        assert!(io.into_bytes() == existing, "a rejected create rewrote the file");
    }

    #[test]
    fn footer_corruption_is_detected() {
        let data = write_store(&frames(10, 6), &[], &[], &opts()).unwrap();
        // Flip one payload byte: CRC mismatch.
        let mut bad = data.clone();
        let n = bad.len();
        bad[n - FOOTER_TRAILER_LEN - 1] ^= 0xff;
        assert!(matches!(ArchiveIndex::parse(&bad), Err(MdzError::Corrupt { .. })));
        // Damage the magic.
        let mut bad = data.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        assert!(matches!(ArchiveIndex::parse(&bad), Err(MdzError::Corrupt { .. })));
        // Truncate the trailer.
        let short = &data[..data.len() - 3];
        assert!(ArchiveIndex::parse(short).is_err());
    }

    /// `data` with its footer rewritten in the legacy version-1 layout:
    /// `n_blocks` and the offset deltas, no frame count or epoch list.
    fn with_v1_footer(data: &[u8], n_blocks: usize, offsets: &[usize]) -> Vec<u8> {
        let n = data.len();
        let payload_len = u64::from_le_bytes(data[n - 13..n - 5].try_into().unwrap()) as usize;
        let mut payload = Vec::new();
        write_uvarint(&mut payload, n_blocks as u64);
        let mut prev = 0;
        for &off in offsets {
            write_uvarint(&mut payload, (off - prev) as u64);
            prev = off;
        }
        let mut out = data[..n - FOOTER_TRAILER_LEN - payload_len].to_vec();
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.push(FOOTER_VERSION);
        out.extend_from_slice(&FOOTER_MAGIC);
        out
    }

    #[test]
    fn legacy_v1_footer_reads_like_the_v2_footer() {
        let data = write_store(&frames(19, 6), &[], &[], &opts()).unwrap();
        let idx = ArchiveIndex::parse(&data).unwrap();
        let offsets: Vec<usize> = idx.blocks.iter().map(|b| b.offset).collect();
        let v1 = with_v1_footer(&data, offsets.len(), &offsets);
        let legacy = ArchiveIndex::parse(&v1).unwrap();
        assert_eq!(legacy.blocks, idx.blocks);
        assert_eq!(legacy.epoch_starts, idx.epoch_starts);
        assert_eq!(legacy.n_frames, idx.n_frames);
        let read = |bytes| crate::StoreReader::open(bytes).unwrap().read_frames(0..19).unwrap();
        assert_eq!(read(v1), read(data.clone()));
        // The header's 19 frames make 5 blocks; a v1 footer claiming
        // another count is refused.
        for n_blocks in [4, 6] {
            let bad = with_v1_footer(&data, n_blocks, &offsets[..n_blocks.min(5)]);
            assert!(matches!(
                ArchiveIndex::parse(&bad),
                Err(MdzError::Corrupt { what: "footer block count disagrees with frame count" })
            ));
        }
    }

    #[test]
    fn record_checksum_mismatch_is_detected() {
        let data = write_store(&frames(10, 6), &[], &[], &opts()).unwrap();
        let idx = ArchiveIndex::parse(&data).unwrap();
        let mut bad = data.clone();
        // Corrupt one byte inside the first block's container body.
        bad[idx.blocks[0].offset + 12] ^= 0x40;
        assert!(matches!(
            record_at(&bad, idx.blocks[0].offset),
            Err(MdzError::Corrupt { what: "block checksum mismatch" })
        ));
    }

    #[test]
    fn append_extends_index_and_preserves_prefix_bytes() {
        let base = write_store(&frames(8, 6), &[], &[], &opts()).unwrap();
        let mut io = MemIo::new(base.clone());
        let extra = frames(6, 6);
        let report = append_store(&mut io, &extra, &opts()).unwrap();
        assert_eq!(report.appended_frames, 6);
        assert_eq!(report.appended_blocks, 2);
        assert_eq!(report.recovered_bytes, 0);
        assert_eq!(report.n_frames, 14);
        let out = io.into_bytes();
        // Footer flip never rewrites published bytes: the base archive is a
        // byte-exact prefix of the appended one.
        assert_eq!(out[..base.len()], base[..]);
        let idx = ArchiveIndex::parse(&out).unwrap();
        assert_eq!(idx.n_frames, 14);
        assert_eq!(idx.blocks.len(), 4);
        // Base had epochs [0], appended segment anchors at block 2.
        assert_eq!(idx.epoch_starts, vec![0, 2]);
        assert_eq!(idx.blocks[3].epoch, 1);
        for b in &idx.blocks {
            record_at(&out, b.offset).unwrap();
        }
        assert!(verify_archive(&out).is_ok());
    }

    #[test]
    fn append_rejects_partial_tail_and_mismatches() {
        // 10 frames at buffer_size 4: partial last block.
        let partial = write_store(&frames(10, 6), &[], &[], &opts()).unwrap();
        let mut io = MemIo::new(partial);
        assert!(matches!(
            append_store(&mut io, &frames(4, 6), &opts()),
            Err(MdzError::BadInput(_))
        ));
        // Atom-count mismatch.
        let base = write_store(&frames(8, 6), &[], &[], &opts()).unwrap();
        let mut io = MemIo::new(base.clone());
        assert!(matches!(
            append_store(&mut io, &frames(4, 7), &opts()),
            Err(MdzError::BadInput(_))
        ));
        // Precision mismatch.
        let mut io = MemIo::new(base);
        let mut f32_opts = opts();
        f32_opts.precision = Precision::F32;
        assert!(matches!(
            append_store(&mut io, &frames(4, 6), &f32_opts),
            Err(MdzError::BadConfig(_))
        ));
    }

    #[test]
    fn append_rejects_a_corrupt_decision_block() {
        // At two buffers per epoch and an `adapt_interval` of 50, the
        // streams decide only at block 0: the ADP trial it ran.
        let base = write_store(&frames(12, 6), &[], &[], &opts()).unwrap();
        let idx = ArchiveIndex::parse(&base).unwrap();
        let mut bad = base.clone();
        bad[idx.blocks[0].offset + 12] ^= 0x40;
        let mut io = MemIo::new(bad.clone());
        assert!(matches!(
            append_store(&mut io, &frames(4, 6), &opts()),
            Err(MdzError::Corrupt { what: "block checksum mismatch" })
        ));
        assert!(io.into_bytes() == bad, "a rejected append wrote to the file");
    }

    #[test]
    fn a_one_block_segment_encodes_on_the_calling_thread() {
        // `fan_out` records one `core.parallel.worker_jobs` observation per
        // worker, and one for a pass it runs inline. A one-block append
        // runs both passes inline on any host: two observations of the
        // three axis jobs.
        let registry = std::sync::Arc::new(mdz_obs::Registry::new());
        let mut o = opts();
        o.obs = Obs::new(registry.clone() as std::sync::Arc<dyn mdz_obs::Recorder>);
        let mut io = MemIo::new(write_store(&frames(8, 6), &[], &[], &opts()).unwrap());
        append_store(&mut io, &frames(4, 6), &o).unwrap();
        let snapshot = registry.snapshot();
        let jobs = snapshot.histogram("core.parallel.worker_jobs").unwrap();
        assert_eq!((jobs.count, jobs.sum), (2, 6.0));
    }

    #[test]
    fn recover_truncates_garbage_tail() {
        let data = write_store(&frames(8, 6), &[], &[], &opts()).unwrap();
        let mut dirty = data.clone();
        dirty.extend_from_slice(b"torn append garbage that never got a footer");
        assert!(ArchiveIndex::parse(&dirty).is_err());
        let (valid_len, idx) = recover_slice(&dirty).unwrap();
        assert_eq!(valid_len, data.len());
        assert_eq!(idx.n_frames, 8);
        let mut io = MemIo::new(dirty);
        let report = recover_store(&mut io).unwrap();
        assert_eq!(report.valid_len, data.len());
        assert_eq!(report.truncated_bytes, 43);
        assert_eq!(io.into_bytes(), data);
    }

    #[test]
    fn verify_reports_first_corrupt_offset() {
        let data = write_store(&frames(8, 6), &[], &[], &opts()).unwrap();
        let ok = verify_archive(&data).unwrap();
        assert_eq!(ok.n_frames, 8);
        assert_eq!(ok.n_blocks, 2);
        // Corrupt the second block body: footer still validates, so verify
        // must pinpoint the record.
        let idx = ArchiveIndex::parse(&data).unwrap();
        let mut bad = data.clone();
        bad[idx.blocks[1].offset + 12] ^= 0x40;
        let fault = verify_archive(&bad).unwrap_err();
        assert_eq!(fault.offset, idx.blocks[1].offset);
        // Garbage tail: fault at the valid-prefix boundary.
        let mut dirty = data.clone();
        dirty.extend_from_slice(&[0xAB; 9]);
        let fault = verify_archive(&dirty).unwrap_err();
        assert_eq!(fault.offset, data.len());
    }

    #[test]
    fn verify_reports_bytes_after_a_v1_archive() {
        let v1 = include_bytes!("../tests/golden/adk_v1_mt.mdz");
        assert_eq!(verify_archive(v1).unwrap().n_blocks, 4);
        let mut dirty = v1.to_vec();
        dirty.extend_from_slice(b"junk");
        let fault = verify_archive(&dirty).unwrap_err();
        assert_eq!(fault.offset, v1.len());
        // Reads stay tolerant of the tail.
        assert_eq!(ArchiveIndex::parse(&dirty).unwrap().n_frames, 8);
    }

    /// `n_blocks` two-frame buffers of 128 atoms in three regimes that
    /// switch every six buffers, across the four-buffer epochs of
    /// [`oracle_options`]: a quiet crystal whose atoms on one site move
    /// alike (so its code streams repeat and LZ77 pays on them), a noisy
    /// crystal, and a quiet liquid whose sites form no level grid. The axes
    /// sit on different planes.
    fn regime_frames(n_blocks: usize) -> Vec<Frame> {
        let mut state = 0x5E71_A10C_u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let liquid: Vec<f64> =
            (0..3 * 128).map(|_| 6.0 + (noise() + noise() + noise() + noise()) * 3.0).collect();
        (0..2 * n_blocks)
            .map(|t| {
                let mut axis = |a: usize| -> Vec<f64> {
                    (0..128)
                        .map(|i| {
                            let site = ((i * 7 + a * 3) % 8) as f64 * (1.5 + a as f64 * 0.25);
                            let drift = t as f64 * 1e-3;
                            match t / 12 % 3 {
                                0 => site + ((t * 8 + i % 8) as f64 * 0.7).sin() * 0.002 + drift,
                                1 => site + noise() * 0.3 + drift,
                                _ => liquid[a * 128 + i] + noise() * 0.004 + drift,
                            }
                        })
                        .collect()
                };
                Frame::new(axis(0), axis(1), axis(2))
            })
            .collect()
    }

    fn oracle_options(method: Method, adapt_interval: u32) -> StoreOptions {
        let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
        opts.cfg = opts.cfg.with_method(method);
        opts.cfg.adapt_interval = adapt_interval;
        opts.buffer_size = 2;
        opts.epoch_interval = 4;
        opts
    }

    /// The decision rule's serial oracle: one compressor per axis fed every
    /// buffer in stream order, anchored at every epoch start, its trials
    /// every `adapt_interval` buffers rounded up to whole epochs. Returns
    /// the records and the methods and payload forms (stored or not) their
    /// blocks code with.
    fn serial_records(
        frames: &[Frame],
        opts: &StoreOptions,
    ) -> (Vec<Vec<u8>>, BTreeSet<String>, BTreeSet<bool>) {
        let epoch = opts.epoch_interval;
        let mut cfg = opts.cfg.clone();
        cfg.adapt_interval = cfg.adapt_interval.div_ceil(epoch as u32) * epoch as u32;
        let mut comps = [0, 1, 2].map(|_| Compressor::new(cfg.clone()));
        let (mut methods, mut forms) = (BTreeSet::new(), BTreeSet::new());
        let records = frames
            .chunks(opts.buffer_size)
            .enumerate()
            .map(|(b, chunk)| {
                let mut axis = 0;
                let blocks = comps.each_mut().map(|comp| {
                    if b % epoch == 0 {
                        comp.reset_stream();
                    }
                    let snapshots: Vec<&[f64]> =
                        chunk.iter().map(|f| [&f.x, &f.y, &f.z][axis].as_slice()).collect();
                    axis += 1;
                    let mut block = Vec::new();
                    comp.compress_buffer_into(&snapshots, &mut block).unwrap();
                    let info = mdz_core::Decompressor::inspect(&block).unwrap();
                    methods.insert(info.method.to_string());
                    forms.insert(info.stored);
                    block
                });
                block_record(&blocks)
            })
            .collect();
        (records, methods, forms)
    }

    #[test]
    fn every_worker_count_encodes_what_the_serial_oracle_does() {
        let n_blocks = 60;
        let frames = regime_frames(n_blocks);
        for method in [Method::Adaptive, Method::Vq, Method::Mt] {
            for adapt_interval in [3, 8, 50] {
                let opts = oracle_options(method, adapt_interval);
                let (want, methods, forms) = serial_records(&frames, &opts);
                // The oracle is only as strong as the decisions it sees:
                // ADP trials that pick different winners, stored and not.
                if method == Method::Adaptive {
                    assert!(methods.len() > 1, "adapt_interval {adapt_interval}: {methods:?}");
                    assert!(forms.len() > 1, "adapt_interval {adapt_interval}: {forms:?}");
                }
                for workers in 1..=4 {
                    let got = encode_records(&frames, 0, &Default::default(), 2, 4, &opts, workers)
                        .unwrap();
                    assert_eq!(got.len(), n_blocks);
                    assert!(
                        got == want,
                        "{method}, adapt_interval {adapt_interval}: {workers} workers"
                    );
                }
            }
        }
    }

    /// The inputs of `tests/golden/store_*.mdz`; the metadata helpers are
    /// only used by the `golden_archives` integration test.
    #[allow(dead_code)]
    mod golden {
        use super::*;
        use mdz_core::Method;

        include!("../tests/support/golden.rs");

        /// The block records of a golden archive from `first_block` on.
        fn records(archive: &[u8], first_block: usize) -> Vec<&[u8]> {
            let idx = ArchiveIndex::parse(archive).unwrap();
            idx.blocks[first_block..]
                .iter()
                .map(|b| {
                    let container = record_at(archive, b.offset).unwrap();
                    let end = container.as_ptr_range().end as usize - archive.as_ptr() as usize;
                    &archive[b.offset..end]
                })
                .collect()
        }

        fn fixture(name: &str) -> Vec<u8> {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
            std::fs::read(dir.join(format!("{name}.mdz"))).unwrap()
        }

        /// `frames` encoded as blocks `first_block..` of a stream that made
        /// the decisions `decided` before them.
        fn encode(
            frames: &[Frame],
            (first_block, decided): (usize, &[Decisions; 3]),
            opts: &StoreOptions,
            workers: usize,
        ) -> Vec<Vec<u8>> {
            let (bs, epoch) = (opts.buffer_size, opts.epoch_interval);
            encode_records(frames, first_block, decided, bs, epoch, opts, workers).unwrap()
        }

        #[test]
        fn every_worker_count_encodes_the_golden_records() {
            let created = golden_frames(GOLDEN_FRAMES, 1);
            let appended = golden_frames(GOLDEN_FRAMES, 2);
            let appended_archive = fixture(GOLDEN_APPENDED);
            let base = GOLDEN_APPEND_BASE / GOLDEN_BUFFER_SIZE;
            let segment = records(&appended_archive, base);
            let adp = golden_options(Method::Adaptive, false);
            let index = ArchiveIndex::parse(&appended_archive).unwrap();
            let decided = read_decisions(&appended_archive, &index, &adp.cfg, base).unwrap();
            for workers in 1..=4 {
                for (name, method, f32) in GOLDEN_CREATED {
                    let archive = fixture(name);
                    let opts = golden_options(method, f32);
                    let got = encode(&created, (0, &Default::default()), &opts, workers);
                    assert!(got == records(&archive, 0), "{name}: {workers} workers");
                }
                let got = encode(&appended, (base, &decided), &adp, workers);
                assert!(got == segment, "{GOLDEN_APPENDED}: {workers} workers");
            }
        }
    }
}
