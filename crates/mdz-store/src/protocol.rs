//! Length-prefixed binary protocol spoken between the server and its clients.
//!
//! Every message — request or response — is framed as a `u32` little-endian
//! body length followed by the body. Request bodies start with an opcode
//! byte, response bodies with a status byte; all integers are `u64` LE.
//!
//! ```text
//! GET     request : op=1 · start u64 · end u64          (end-exclusive)
//! STATS   request : op=2
//! INFO    request : op=3
//! METRICS request : op=4
//! APPEND  request : op=5 · flags u8 (bit0: f32 payload) · n_frames u64
//!                   · n_atoms u64 · per frame: x[n_atoms] · y[n_atoms]
//!                   · z[n_atoms] (f64 LE each, or f32 LE when bit0 is set)
//!
//! OK GET     body : status=0 · start u64 · n_frames u64 · n_atoms u64
//!                   · per frame: x[n_atoms] f64 · y[n_atoms] f64 · z[n_atoms] f64
//! OK STATS   body : status=0 · requests · bytes_out · cache_hits
//!                   · cache_misses · decode_errors · buffers_decoded  (u64 each)
//! OK INFO    body : status=0 · version · n_atoms · n_frames
//!                   · buffer_size · epoch_interval · n_blocks         (u64 each)
//! OK METRICS body : status=0
//!                   · n_counters u32 · per: name_len u16 · name · value u64
//!                   · n_gauges   u32 · per: name_len u16 · name · value u64
//!                   · n_hists    u32 · per: name_len u16 · name · count u64
//!                     · sum f64 · min f64 · max f64 · p50 f64 · p99 f64
//! OK APPEND  body : status=0 · start u64 (first appended frame index)
//!                   · n_frames u64 (total after append) · appended_blocks u64
//! error      body : status≠0 · UTF-8 message (to end of body)
//! ```
//!
//! METRICS is a purely additive verb: version-1 servers answer it with
//! `BadRequest` and version-1 clients simply never send it, so mixed
//! deployments keep working. The BUSY status (load shedding at the
//! connection cap) and the APPEND verb (answered with `BadRequest` by a
//! read-only server) are additive the same way.
//!
//! An OK APPEND response is a durability acknowledgment: the server replies
//! only after the footer-flip append protocol has completed — new blocks
//! synced, then the fresh footer synced — so an acknowledged frame survives
//! a server crash (see `FORMAT.md` §1.2).
//!
//! Both endpoints bound what they will read: servers cap request bodies at
//! [`MAX_REQUEST_BODY`] ([`MAX_APPEND_BODY`] when live appends are
//! enabled), clients cap response bodies at a configurable budget — a
//! hostile peer cannot force either side into an unbounded allocation.
//!
//! Each shared layout has one writer and one reader: the frame payload of
//! GET and APPEND (`put_frames`/`take_frames`, parameterized by the value
//! width and sized by `frames_len`) and the `status · u64×N` record of
//! STATS, INFO and APPEND acks (`encode_record`/`parse_record`). Every
//! parser reads through one bounds-checked `Cursor`, which rejects
//! truncated bodies and trailing bytes.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, IoSlice, Read, Write};

use mdz_core::{Frame, MdzError};
use mdz_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::archive::Precision;
use crate::reader::StatsSnapshot;

/// Largest request body a server will read for the control verbs
/// (GET/STATS/INFO/METRICS). Those requests are tiny and fixed shape;
/// anything larger is hostile or a framing bug.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{Request, MAX_REQUEST_BODY};
///
/// let body = Request::Get { start: 0, end: 100 }.encode();
/// assert!(body.len() <= MAX_REQUEST_BODY);
/// ```
pub const MAX_REQUEST_BODY: usize = 64;

/// Default budget for APPEND request bodies on a live server (64 MiB —
/// roughly 900k atoms × 128 frames of f64 coordinates per request).
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{MAX_APPEND_BODY, MAX_REQUEST_BODY};
///
/// assert!(MAX_APPEND_BODY > MAX_REQUEST_BODY);
/// ```
pub const MAX_APPEND_BODY: usize = 1 << 26;

/// Opcode for a frame-range read.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{Request, OP_GET};
///
/// assert_eq!(Request::Get { start: 0, end: 1 }.encode()[0], OP_GET);
/// ```
pub const OP_GET: u8 = 1;
/// Opcode for a counters snapshot.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{Request, OP_STATS};
///
/// assert_eq!(Request::Stats.encode()[0], OP_STATS);
/// ```
pub const OP_STATS: u8 = 2;
/// Opcode for archive metadata.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{Request, OP_INFO};
///
/// assert_eq!(Request::Info.encode()[0], OP_INFO);
/// ```
pub const OP_INFO: u8 = 3;
/// Opcode for a full metrics snapshot (counters, gauges, histograms).
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{Request, OP_METRICS};
///
/// assert_eq!(Request::Metrics.encode()[0], OP_METRICS);
/// ```
pub const OP_METRICS: u8 = 4;
/// Opcode for a live append of raw frames.
///
/// # Examples
///
/// ```
/// use mdz_core::Frame;
/// use mdz_store::protocol::{Request, OP_APPEND};
/// use mdz_store::Precision;
///
/// let frames = vec![Frame::new(vec![1.0], vec![2.0], vec![3.0])];
/// let body = Request::Append { precision: Precision::F64, frames }.encode();
/// assert_eq!(body[0], OP_APPEND);
/// ```
pub const OP_APPEND: u8 = 5;

/// Flag bit in an APPEND request: coordinates are packed as `f32` LE.
///
/// # Examples
///
/// ```
/// use mdz_core::Frame;
/// use mdz_store::protocol::{Request, APPEND_FLAG_F32};
/// use mdz_store::Precision;
///
/// let frames = vec![Frame::new(vec![1.0], vec![2.0], vec![3.0])];
/// let body = Request::Append { precision: Precision::F32, frames }.encode();
/// assert_eq!(body[1] & APPEND_FLAG_F32, APPEND_FLAG_F32);
/// ```
pub const APPEND_FLAG_F32: u8 = 0b0000_0001;

/// Response status codes.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::Status;
///
/// assert_eq!(Status::from_byte(Status::Busy as u8), Some(Status::Busy));
/// assert_eq!(Status::from_byte(200), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request succeeded; the payload follows.
    Ok = 0,
    /// The request was malformed (unknown opcode, short body, bad frame).
    BadRequest = 1,
    /// The requested frame range lies outside the archive.
    OutOfRange = 2,
    /// Serving the request would exceed a server-side budget.
    LimitExceeded = 3,
    /// The archive bytes failed validation while decoding.
    Corrupt = 4,
    /// An unexpected server-side failure.
    Internal = 5,
    /// The server is at its connection cap and shed this connection; the
    /// request (if any) was not processed and may be retried elsewhere or
    /// after a backoff. Additive like METRICS: version-1 servers never send
    /// it, and older clients surface it as a protocol error.
    Busy = 6,
}

impl Status {
    /// Decodes a wire status byte.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_store::protocol::Status;
    ///
    /// assert_eq!(Status::from_byte(0), Some(Status::Ok));
    /// assert_eq!(Status::from_byte(6), Some(Status::Busy));
    /// assert_eq!(Status::from_byte(99), None);
    /// ```
    pub fn from_byte(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::BadRequest,
            2 => Status::OutOfRange,
            3 => Status::LimitExceeded,
            4 => Status::Corrupt,
            5 => Status::Internal,
            6 => Status::Busy,
            _ => return None,
        })
    }

    /// Maps a decode-path error onto the wire status vocabulary.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_core::MdzError;
    /// use mdz_store::protocol::Status;
    ///
    /// let err = MdzError::BadInput("frame range out of bounds");
    /// assert_eq!(Status::from_error(&err), Status::OutOfRange);
    /// ```
    pub fn from_error(e: &MdzError) -> Status {
        match e {
            MdzError::BadInput(_) => Status::OutOfRange,
            MdzError::LimitExceeded { .. } => Status::LimitExceeded,
            MdzError::Corrupt { .. } | MdzError::BadHeader(_) | MdzError::Stream(_) => {
                Status::Corrupt
            }
            _ => Status::Internal,
        }
    }
}

/// A parsed client request.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::Request;
///
/// let req = Request::Get { start: 3, end: 9 };
/// assert_eq!(Request::parse(&req.encode()).unwrap(), req);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Read frames `start..end` (end-exclusive).
    Get {
        /// First frame index.
        start: u64,
        /// One past the last frame index.
        end: u64,
    },
    /// Snapshot the server's counters.
    Stats,
    /// Describe the served archive.
    Info,
    /// Snapshot every metric the server's registry has recorded.
    Metrics,
    /// Append raw frames to the served archive (live servers only).
    Append {
        /// Wire precision of the coordinate payload. `F32` halves the
        /// request size; the server must have been opened at the matching
        /// store precision.
        precision: Precision,
        /// The frames to compress and append, in order.
        frames: Vec<Frame>,
    },
}

impl Request {
    /// Encodes the request body (unframed).
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_store::protocol::{Request, OP_STATS};
    ///
    /// assert_eq!(Request::Stats.encode(), vec![OP_STATS]);
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Get { start, end } => encode_record(OP_GET, &[*start, *end]),
            Request::Stats => vec![OP_STATS],
            Request::Info => vec![OP_INFO],
            Request::Metrics => vec![OP_METRICS],
            Request::Append { precision, frames } => encode_append(*precision, frames),
        }
    }

    /// Parses a request body.
    ///
    /// The body length is validated against the counts it claims before any
    /// frame is allocated, so a forged header cannot force an oversized
    /// allocation.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_core::Frame;
    /// use mdz_store::protocol::Request;
    /// use mdz_store::Precision;
    ///
    /// let req = Request::Append {
    ///     precision: Precision::F64,
    ///     frames: vec![Frame::new(vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0])],
    /// };
    /// assert_eq!(Request::parse(&req.encode()).unwrap(), req);
    /// assert!(Request::parse(&[99]).is_err());
    /// ```
    pub fn parse(body: &[u8]) -> std::result::Result<Request, &'static str> {
        let mut cur = Cursor { rest: body, fault: "empty request body" };
        let request = match cur.u8()? {
            OP_GET => {
                cur.fault = "GET body must be 17 bytes";
                Request::Get { start: cur.u64()?, end: cur.u64()? }
            }
            OP_APPEND => {
                cur.fault = "short APPEND body";
                let (flags, n_frames, n_atoms) = (cur.u8()?, cur.u64()?, cur.u64()?);
                if flags & !APPEND_FLAG_F32 != 0 {
                    return Err("unknown APPEND flags");
                }
                if n_frames == 0 || n_atoms == 0 {
                    return Err("APPEND carries no frames");
                }
                let precision =
                    if flags & APPEND_FLAG_F32 != 0 { Precision::F32 } else { Precision::F64 };
                let len = frames_len(n_frames as usize, n_atoms as usize, precision)
                    .ok_or("APPEND payload size overflows")?;
                cur.fault = "APPEND body length disagrees with its header";
                let frames = take_frames(cur.tail(len)?, n_atoms as usize, precision);
                Request::Append { precision, frames }
            }
            op => {
                cur.fault = "unknown opcode or trailing bytes";
                match op {
                    OP_STATS => Request::Stats,
                    OP_INFO => Request::Info,
                    OP_METRICS => Request::Metrics,
                    _ => return Err(cur.fault),
                }
            }
        };
        cur.finish()?;
        Ok(request)
    }
}

/// Builds the APPEND request body [`Request::encode`] writes, from
/// borrowed frames.
pub(crate) fn encode_append(precision: Precision, frames: &[Frame]) -> Vec<u8> {
    let flags = if precision == Precision::F32 { APPEND_FLAG_F32 } else { 0 };
    let counts = [frames.len() as u64, frames.first().map_or(0, Frame::len) as u64];
    let mut body = vec![OP_APPEND];
    body.extend(encode_record(flags, &counts));
    put_frames(&mut body, frames, precision);
    body
}

/// Archive metadata reported by an INFO response.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_info, parse_info, StoreInfo};
///
/// let info = StoreInfo {
///     version: 2,
///     n_atoms: 10,
///     n_frames: 1000,
///     buffer_size: 128,
///     epoch_interval: 8,
///     n_blocks: 8,
/// };
/// assert_eq!(parse_info(&encode_info(&info)).unwrap(), info);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreInfo {
    /// Container version (1 or 2).
    pub version: u64,
    /// Atoms per frame.
    pub n_atoms: u64,
    /// Total frames.
    pub n_frames: u64,
    /// Frames per buffer.
    pub buffer_size: u64,
    /// Buffers per epoch.
    pub epoch_interval: u64,
    /// Block (buffer) count.
    pub n_blocks: u64,
}

/// Durability acknowledgment returned by an OK APPEND response.
///
/// Receiving one means the appended frames are on disk under a synced
/// footer: a server crash after the acknowledgment cannot lose them.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_append_ack, parse_append_ack, AppendAck};
///
/// let ack = AppendAck { start: 128, n_frames: 256, appended_blocks: 1 };
/// assert_eq!(parse_append_ack(&encode_append_ack(&ack)).unwrap(), ack);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendAck {
    /// Index of the first frame this append added.
    pub start: u64,
    /// Total frames in the archive after the append.
    pub n_frames: u64,
    /// Block records this append added.
    pub appended_blocks: u64,
}

/// Builds an error response body.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_error, Status};
///
/// let body = encode_error(Status::OutOfRange, "no such frame");
/// assert_eq!(body[0], Status::OutOfRange as u8);
/// assert_eq!(&body[1..], b"no such frame");
/// ```
pub fn encode_error(status: Status, message: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + message.len());
    body.push(status as u8);
    body.extend_from_slice(message.as_bytes());
    body
}

/// Bytes of an OK GET body before its frame payload.
pub(crate) const GET_HEADER_LEN: usize = 25;

/// Builds an OK GET response body from decoded frames.
///
/// # Examples
///
/// ```
/// use mdz_core::Frame;
/// use mdz_store::protocol::{encode_frames, parse_frames};
///
/// let frames = vec![Frame::new(vec![1.0], vec![2.0], vec![3.0])];
/// let (start, back) = parse_frames(&encode_frames(7, 1, &frames)).unwrap();
/// assert_eq!((start, back), (7, frames));
/// ```
pub fn encode_frames(start: u64, n_atoms: usize, frames: &[Frame]) -> Vec<u8> {
    let mut body = encode_record(Status::Ok as u8, &[start, frames.len() as u64, n_atoms as u64]);
    put_frames(&mut body, frames, Precision::F64);
    body
}

/// Parses an OK GET response body (status byte already consumed is NOT
/// assumed: `body` includes it). Returns `(start, frames)`.
///
/// # Examples
///
/// ```
/// use mdz_core::Frame;
/// use mdz_store::protocol::{encode_frames, parse_frames};
///
/// let frames = vec![Frame::new(vec![1.5, 2.5], vec![0.0, 1.0], vec![9.0, 8.0])];
/// let body = encode_frames(0, 2, &frames);
/// assert_eq!(parse_frames(&body).unwrap().1, frames);
/// assert!(parse_frames(&body[..body.len() - 1]).is_err());
/// ```
pub fn parse_frames(body: &[u8]) -> std::result::Result<(u64, Vec<Frame>), &'static str> {
    let mut cur = Cursor::ok(body, "short or non-OK GET body")?;
    let (start, n_frames, n_atoms) = (cur.u64()?, cur.u64()? as usize, cur.u64()? as usize);
    // Zero-atom frames take no payload bytes, so the length check below
    // could not bound how many of them a forged header allocates.
    if n_atoms == 0 && n_frames != 0 {
        return Err("GET body carries frames of zero atoms");
    }
    let len =
        frames_len(n_frames, n_atoms, Precision::F64).ok_or("frame payload size overflows")?;
    cur.fault = "GET body length disagrees with its header";
    Ok((start, take_frames(cur.tail(len)?, n_atoms, Precision::F64)))
}

/// Builds an OK STATS response body.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_stats, parse_stats};
/// use mdz_store::StatsSnapshot;
///
/// let stats = StatsSnapshot { requests: 4, ..Default::default() };
/// assert_eq!(parse_stats(&encode_stats(&stats)).unwrap(), stats);
/// ```
pub fn encode_stats(s: &StatsSnapshot) -> Vec<u8> {
    let values =
        [s.requests, s.bytes_out, s.cache_hits, s.cache_misses, s.decode_errors, s.buffers_decoded];
    encode_record(Status::Ok as u8, &values)
}

/// Parses an OK STATS response body.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_stats, parse_stats};
/// use mdz_store::StatsSnapshot;
///
/// let stats = StatsSnapshot { cache_hits: 2, cache_misses: 1, ..Default::default() };
/// let body = encode_stats(&stats);
/// assert_eq!(parse_stats(&body).unwrap(), stats);
/// assert!(parse_stats(&body[..10]).is_err());
/// ```
pub fn parse_stats(body: &[u8]) -> std::result::Result<StatsSnapshot, &'static str> {
    let [requests, bytes_out, cache_hits, cache_misses, decode_errors, buffers_decoded] =
        parse_record(body, "short or non-OK STATS body")?;
    Ok(StatsSnapshot {
        requests,
        bytes_out,
        cache_hits,
        cache_misses,
        decode_errors,
        buffers_decoded,
    })
}

/// Builds an OK INFO response body.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_info, Status, StoreInfo};
///
/// let info = StoreInfo {
///     version: 2,
///     n_atoms: 3,
///     n_frames: 12,
///     buffer_size: 4,
///     epoch_interval: 2,
///     n_blocks: 3,
/// };
/// assert_eq!(encode_info(&info)[0], Status::Ok as u8);
/// ```
pub fn encode_info(i: &StoreInfo) -> Vec<u8> {
    let values = [i.version, i.n_atoms, i.n_frames, i.buffer_size, i.epoch_interval, i.n_blocks];
    encode_record(Status::Ok as u8, &values)
}

/// Parses an OK INFO response body.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_info, parse_info, StoreInfo};
///
/// let info = StoreInfo {
///     version: 2,
///     n_atoms: 3,
///     n_frames: 12,
///     buffer_size: 4,
///     epoch_interval: 2,
///     n_blocks: 3,
/// };
/// assert_eq!(parse_info(&encode_info(&info)).unwrap(), info);
/// assert!(parse_info(&[0u8; 10]).is_err());
/// ```
pub fn parse_info(body: &[u8]) -> std::result::Result<StoreInfo, &'static str> {
    let [version, n_atoms, n_frames, buffer_size, epoch_interval, n_blocks] =
        parse_record(body, "short or non-OK INFO body")?;
    Ok(StoreInfo { version, n_atoms, n_frames, buffer_size, epoch_interval, n_blocks })
}

/// Builds an OK APPEND response body (the durability acknowledgment).
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_append_ack, AppendAck, Status};
///
/// let body = encode_append_ack(&AppendAck { start: 8, n_frames: 16, appended_blocks: 2 });
/// assert_eq!(body[0], Status::Ok as u8);
/// assert_eq!(body.len(), 25);
/// ```
pub fn encode_append_ack(ack: &AppendAck) -> Vec<u8> {
    encode_record(Status::Ok as u8, &[ack.start, ack.n_frames, ack.appended_blocks])
}

/// Parses an OK APPEND response body.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_append_ack, parse_append_ack, AppendAck};
///
/// let ack = AppendAck { start: 0, n_frames: 8, appended_blocks: 2 };
/// let body = encode_append_ack(&ack);
/// assert_eq!(parse_append_ack(&body).unwrap(), ack);
/// assert!(parse_append_ack(&body[..24]).is_err());
/// ```
pub fn parse_append_ack(body: &[u8]) -> std::result::Result<AppendAck, &'static str> {
    let [start, n_frames, appended_blocks] = parse_record(body, "short or non-OK APPEND body")?;
    Ok(AppendAck { start, n_frames, appended_blocks })
}

/// Builds an OK METRICS response body from a registry snapshot.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_metrics, parse_metrics};
/// use mdz_store::MetricsSnapshot;
///
/// let snap = MetricsSnapshot {
///     counters: vec![("store.requests".into(), 7)],
///     ..Default::default()
/// };
/// assert_eq!(parse_metrics(&encode_metrics(&snap)).unwrap(), snap);
/// ```
pub fn encode_metrics(m: &MetricsSnapshot) -> Vec<u8> {
    fn put_name(body: &mut Vec<u8>, name: &str) {
        // Metric names are short static strings; u16 is generous.
        let len = name.len().min(u16::MAX as usize);
        body.extend_from_slice(&(len as u16).to_le_bytes());
        body.extend_from_slice(&name.as_bytes()[..len]);
    }
    let mut body = vec![Status::Ok as u8];
    for family in [&m.counters, &m.gauges] {
        body.extend_from_slice(&(family.len() as u32).to_le_bytes());
        for (name, value) in family {
            put_name(&mut body, name);
            body.extend_from_slice(&value.to_le_bytes());
        }
    }
    body.extend_from_slice(&(m.histograms.len() as u32).to_le_bytes());
    for h in &m.histograms {
        put_name(&mut body, &h.name);
        body.extend_from_slice(&h.count.to_le_bytes());
        for v in [h.sum, h.min, h.max, h.p50, h.p99] {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    body
}

/// Parses an OK METRICS response body.
///
/// Every length is validated against the remaining bytes before any
/// allocation, so a hostile body cannot claim more entries than it carries.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{encode_metrics, parse_metrics};
/// use mdz_store::MetricsSnapshot;
///
/// let body = encode_metrics(&MetricsSnapshot::default());
/// assert_eq!(parse_metrics(&body).unwrap(), MetricsSnapshot::default());
/// assert!(parse_metrics(&[]).is_err());
/// ```
pub fn parse_metrics(body: &[u8]) -> std::result::Result<MetricsSnapshot, &'static str> {
    let mut cur = Cursor::ok(body, "short or non-OK METRICS body")?;
    cur.fault = "truncated METRICS body";
    let counters = metric_pairs(&mut cur)?;
    let gauges = metric_pairs(&mut cur)?;
    let n_hist = cur.u32()? as usize;
    if n_hist > cur.rest.len() / 50 {
        return Err("METRICS entry count disagrees with body length");
    }
    let mut histograms = Vec::with_capacity(n_hist);
    for _ in 0..n_hist {
        histograms.push(HistogramSnapshot {
            name: metric_name(&mut cur)?,
            count: cur.u64()?,
            sum: cur.f64()?,
            min: cur.f64()?,
            max: cur.f64()?,
            p50: cur.f64()?,
            p99: cur.f64()?,
        });
    }
    cur.fault = "METRICS body has trailing bytes";
    cur.finish()?;
    Ok(MetricsSnapshot { counters, gauges, histograms })
}

/// Reads one counter or gauge family of a METRICS body.
fn metric_pairs(cur: &mut Cursor<'_>) -> std::result::Result<Vec<(String, u64)>, &'static str> {
    let n = cur.u32()? as usize;
    // Each entry needs at least 10 bytes; reject forged counts early.
    if n > cur.rest.len() / 10 {
        return Err("METRICS entry count disagrees with body length");
    }
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((metric_name(cur)?, cur.u64()?));
    }
    Ok(pairs)
}

/// Reads one `name_len u16 · name` field of a METRICS body.
fn metric_name(cur: &mut Cursor<'_>) -> std::result::Result<String, &'static str> {
    let len = usize::from(cur.u16()?);
    let name = std::str::from_utf8(cur.bytes(len)?).map_err(|_| "metric name is not UTF-8")?;
    Ok(name.to_owned())
}

/// Builds `lead · u64×N`: the record of STATS, INFO and APPEND acks (an
/// OK status, then the values), and the head of GET and APPEND bodies.
fn encode_record(lead: u8, values: &[u64]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + 8 * values.len());
    body.push(lead);
    values.iter().for_each(|v| body.extend(v.to_le_bytes()));
    body
}

/// Parses an [`encode_record`] body of `N` values; a non-OK status or any
/// other length reports `fault`.
fn parse_record<const N: usize>(
    body: &[u8],
    fault: &'static str,
) -> std::result::Result<[u64; N], &'static str> {
    let mut cur = Cursor::ok(body, fault)?;
    let mut values = [0; N];
    for v in &mut values {
        *v = cur.u64()?;
    }
    cur.finish().map(|()| values)
}

/// Byte length of `n_frames` frames of `n_atoms` atoms in the frame
/// payload at `precision`'s width, or `None` past `usize::MAX`.
pub(crate) fn frames_len(n_frames: usize, n_atoms: usize, precision: Precision) -> Option<usize> {
    let width = if precision == Precision::F32 { 4 } else { 8 };
    n_frames.checked_mul(n_atoms)?.checked_mul(3 * width)
}

/// Writes the frame payload of GET responses and APPEND requests: per
/// frame `x[n_atoms] · y[n_atoms] · z[n_atoms]`, little-endian values of
/// `precision`'s width.
fn put_frames(body: &mut Vec<u8>, frames: &[Frame], precision: Precision) {
    let n_atoms = frames.first().map_or(0, Frame::len);
    body.reserve(frames_len(frames.len(), n_atoms, precision).unwrap_or(0));
    for axis in frames.iter().flat_map(|f| [&f.x, &f.y, &f.z]) {
        match precision {
            Precision::F64 => axis.iter().for_each(|v| body.extend(v.to_le_bytes())),
            Precision::F32 => axis.iter().for_each(|&v| body.extend((v as f32).to_le_bytes())),
        }
    }
}

/// Reads the frames [`put_frames`] wrote from `values`, a payload whose
/// length the caller checked against [`frames_len`].
fn take_frames(values: &[u8], n_atoms: usize, precision: Precision) -> Vec<Frame> {
    let axis_len = frames_len(1, n_atoms, precision).map_or(usize::MAX, |frame| frame / 3);
    let mut axes = values.chunks_exact(axis_len.max(1)).map(|axis| match precision {
        Precision::F64 => axis.chunks_exact(8).map(|v| f64::from_le_bytes(array(v))).collect(),
        Precision::F32 => {
            axis.chunks_exact(4).map(|v| f32::from_le_bytes(array(v)).into()).collect()
        }
    });
    std::iter::from_fn(|| Some(Frame { x: axes.next()?, y: axes.next()?, z: axes.next()? }))
        .collect()
}

/// Copies a slice of exactly `N` bytes into an array.
fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(bytes);
    out
}

/// The bounds-checked reader of every parser here: a cursor handing out a
/// body's little-endian fields and byte slices front to back. Reading past
/// the end, and bytes left at [`finish`](Cursor::finish), fail with
/// `fault`, the message the parser set for the part it is reading.
struct Cursor<'a> {
    rest: &'a [u8],
    fault: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor past a response's status byte, which must be OK.
    fn ok(body: &'a [u8], fault: &'static str) -> std::result::Result<Self, &'static str> {
        let mut cur = Cursor { rest: body, fault };
        (cur.u8()? == Status::Ok as u8).then_some(cur).ok_or(fault)
    }

    fn bytes(&mut self, n: usize) -> std::result::Result<&'a [u8], &'static str> {
        if n > self.rest.len() {
            return Err(self.fault);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The rest of the body, which must be exactly `n` bytes.
    fn tail(&mut self, n: usize) -> std::result::Result<&'a [u8], &'static str> {
        self.bytes(n).and_then(|tail| self.finish().map(|()| tail))
    }

    fn u8(&mut self) -> std::result::Result<u8, &'static str> {
        self.bytes(1).map(array).map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> std::result::Result<u16, &'static str> {
        self.bytes(2).map(array).map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> std::result::Result<u32, &'static str> {
        self.bytes(4).map(array).map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> std::result::Result<u64, &'static str> {
        self.bytes(8).map(array).map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> std::result::Result<f64, &'static str> {
        self.bytes(8).map(array).map(f64::from_le_bytes)
    }

    fn finish(&self) -> std::result::Result<(), &'static str> {
        self.rest.is_empty().then_some(()).ok_or(self.fault)
    }
}

/// Writes one framed message.
///
/// The length prefix and the body go to `w` in one vectored write, so a
/// socket puts the whole frame on the wire in one call. Writing the
/// 4-byte prefix on its own would leave the body waiting behind Nagle's
/// algorithm for the peer's delayed ACK (~40 ms). A short write is
/// finished with plain writes.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::write_message;
///
/// let mut buf = Vec::new();
/// write_message(&mut buf, &[1, 2, 3]).unwrap();
/// assert_eq!(buf, vec![3, 0, 0, 0, 1, 2, 3]);
/// ```
pub fn write_message(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = (body.len() as u32).to_le_bytes();
    let sent = loop {
        match w.write_vectored(&[IoSlice::new(&len), IoSlice::new(body)]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            sent => break sent?,
        }
    };
    w.write_all(&len[sent.min(len.len())..])?;
    w.write_all(&body[sent.saturating_sub(len.len())..])?;
    w.flush()
}

/// Reads one framed message, refusing bodies larger than `max_body`.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed the
/// connection between messages).
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::{read_message, write_message};
///
/// let mut buf = Vec::new();
/// write_message(&mut buf, &[1, 2, 3]).unwrap();
/// let mut r = buf.as_slice();
/// assert_eq!(read_message(&mut r, 8).unwrap(), Some(vec![1, 2, 3]));
/// assert_eq!(read_message(&mut r, 8).unwrap(), None); // clean EOF
/// assert!(read_message(&mut buf.as_slice(), 2).is_err()); // over budget
/// ```
pub fn read_message(r: &mut impl Read, max_body: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame length"))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_body}-byte budget"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// A violation of the framing layer an incremental decoder cannot recover
/// from (the stream offset of the next frame is unknowable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The 4-byte prefix announced a body larger than the decoder's budget.
    /// Raised *before* any allocation for the announced body.
    Oversized {
        /// The body length the prefix announced.
        announced: usize,
        /// The budget the decoder was constructed with.
        budget: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { announced, budget } => {
                write!(f, "frame of {announced} bytes exceeds the {budget}-byte budget")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental decoder for the length-prefixed framing, for non-blocking
/// readers that receive the stream in arbitrary chunks.
///
/// [`push`](Self::push) appends whatever bytes arrived;
/// [`next_frame`](Self::next_frame) pops complete bodies in order, returning
/// `Ok(None)` while the tail is still partial. The decoder only ever
/// allocates for bytes actually received: an oversized length prefix is
/// rejected from the four prefix bytes alone, before any buffer for the
/// announced body exists. Framing errors are sticky — the stream cannot be
/// resynchronized past a bad prefix, so every later call repeats the error.
///
/// # Examples
///
/// ```
/// use mdz_store::protocol::FrameDecoder;
///
/// let mut dec = FrameDecoder::new(64);
/// // Two frames coalesced into one chunk, the second cut mid-body.
/// dec.push(&[2, 0, 0, 0, 10, 11, 3, 0, 0, 0, 20]);
/// assert_eq!(dec.next_frame().unwrap(), Some(vec![10, 11]));
/// assert_eq!(dec.next_frame().unwrap(), None); // second frame incomplete
/// dec.push(&[21, 22]); // trickle in the rest
/// assert_eq!(dec.next_frame().unwrap(), Some(vec![20, 21, 22]));
/// assert!(!dec.has_partial());
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_body: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// Creates a decoder refusing bodies larger than `max_body`.
    pub fn new(max_body: usize) -> Self {
        Self { buf: Vec::new(), pos: 0, max_body, poisoned: None }
    }

    /// Appends bytes received off the wire. Cheap to call with any chunk
    /// size down to a single byte.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, `Ok(None)` if the buffered tail
    /// is still mid-frame (or empty).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let prefix = &self.buf[self.pos..self.pos + 4];
        let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
        if len > self.max_body {
            let err = FrameError::Oversized { announced: len, budget: self.max_body };
            self.poisoned = Some(err);
            return Err(err);
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        self.compact();
        Ok(Some(body))
    }

    /// Bytes received but not yet consumed by a popped frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a frame has started arriving but is not complete yet (drives
    /// the server's read deadline: a partial frame that stalls is cut off).
    pub fn has_partial(&self) -> bool {
        self.poisoned.is_none() && self.buffered() > 0
    }

    /// Drops the consumed prefix once it dominates the buffer, keeping the
    /// resident size proportional to unconsumed bytes.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in
            [Request::Get { start: 3, end: 999 }, Request::Stats, Request::Info, Request::Metrics]
        {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
        assert!(Request::parse(&[]).is_err());
        assert!(Request::parse(&[OP_GET, 1, 2]).is_err());
        assert!(Request::parse(&[OP_STATS, 0]).is_err());
        assert!(Request::parse(&[OP_METRICS, 0]).is_err());
        assert!(Request::parse(&[99]).is_err());
    }

    #[test]
    fn append_requests_round_trip_both_precisions() {
        let frames = vec![
            Frame::new(vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]),
            Frame::new(vec![-1.5, 0.25], vec![0.0, 9.0], vec![7.0, 8.0]),
        ];
        let f64_req = Request::Append { precision: Precision::F64, frames: frames.clone() };
        assert_eq!(Request::parse(&f64_req.encode()).unwrap(), f64_req);
        // f32 wire precision narrows each coordinate once (these values are
        // exactly representable, so the round trip is exact here).
        let f32_req = Request::Append { precision: Precision::F32, frames };
        assert_eq!(Request::parse(&f32_req.encode()).unwrap(), f32_req);
        let f32_body = f32_req.encode();
        let f64_body = f64_req.encode();
        assert_eq!(f64_body.len() - 18, 2 * (f32_body.len() - 18));
    }

    #[test]
    fn append_request_rejects_forged_and_short_bodies() {
        let frames = vec![Frame::new(vec![1.0], vec![2.0], vec![3.0])];
        let body = Request::Append { precision: Precision::F64, frames }.encode();
        // Truncation and inflation both break the exact-length contract.
        assert!(Request::parse(&body[..body.len() - 1]).is_err());
        let mut long = body.clone();
        long.push(0);
        assert!(Request::parse(&long).is_err());
        // Forged frame count: claims more frames than the body carries.
        let mut forged = body.clone();
        forged[2] = 0xFF;
        assert!(Request::parse(&forged).is_err());
        // Unknown flag bits are reserved.
        let mut flagged = body.clone();
        flagged[1] |= 0b1000_0000;
        assert!(Request::parse(&flagged).is_err());
        // Zero frames or atoms is meaningless.
        assert!(Request::parse(&[OP_APPEND, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
            .is_err());
        assert!(Request::parse(&body[..10]).is_err());
    }

    #[test]
    fn append_ack_round_trips() {
        let ack = AppendAck { start: 128, n_frames: 192, appended_blocks: 4 };
        let body = encode_append_ack(&ack);
        assert_eq!(body.len(), 25);
        assert_eq!(parse_append_ack(&body).unwrap(), ack);
        assert!(parse_append_ack(&body[..24]).is_err());
        let mut bad = body.clone();
        bad[0] = Status::Internal as u8;
        assert!(parse_append_ack(&bad).is_err());
    }

    #[test]
    fn metrics_round_trip() {
        let m = MetricsSnapshot {
            counters: vec![("store.requests".into(), 7), ("server.requests.get".into(), 3)],
            gauges: vec![("core.parallel.queue_depth".into(), 12)],
            histograms: vec![HistogramSnapshot {
                name: "server.request_seconds".into(),
                count: 7,
                sum: 0.42,
                min: 0.01,
                max: 0.2,
                p50: 0.05,
                p99: 0.19,
            }],
        };
        let body = encode_metrics(&m);
        assert_eq!(parse_metrics(&body).unwrap(), m);
        // An empty snapshot round-trips too.
        let empty = MetricsSnapshot::default();
        assert_eq!(parse_metrics(&encode_metrics(&empty)).unwrap(), empty);
        // Truncations, forged counts, and trailing bytes are rejected.
        for cut in [0, 1, 5, body.len() - 1] {
            assert!(parse_metrics(&body[..cut]).is_err(), "cut at {cut}");
        }
        let mut forged = body.clone();
        forged[1] = 0xFF; // counter count low byte
        assert!(parse_metrics(&forged).is_err());
        let mut long = body;
        long.push(0);
        assert!(parse_metrics(&long).is_err());
    }

    #[test]
    fn frame_payload_round_trips() {
        let frames = vec![
            Frame::new(vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]),
            Frame::new(vec![-1.5, 0.25], vec![0.0, 9.0], vec![7.0, 8.0]),
        ];
        let body = encode_frames(42, 2, &frames);
        let (start, back) = parse_frames(&body).unwrap();
        assert_eq!(start, 42);
        assert_eq!(back, frames);
        assert_eq!(body.len(), GET_HEADER_LEN + frames_len(2, 2, Precision::F64).unwrap());
        // Truncated and inflated bodies are rejected.
        assert!(parse_frames(&body[..body.len() - 1]).is_err());
        let mut long = body.clone();
        long.push(0);
        assert!(parse_frames(&long).is_err());
        // Zero-atom frames take no bytes: a forged count must not allocate.
        let mut zero_atoms = encode_frames(0, 0, &[]);
        zero_atoms[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_frames(&zero_atoms).is_err());
    }

    #[test]
    fn stats_and_info_round_trip() {
        let s = StatsSnapshot {
            requests: 1,
            bytes_out: 2,
            cache_hits: 3,
            cache_misses: 4,
            decode_errors: 5,
            buffers_decoded: 6,
        };
        assert_eq!(parse_stats(&encode_stats(&s)).unwrap(), s);
        let i = StoreInfo {
            version: 2,
            n_atoms: 10,
            n_frames: 1000,
            buffer_size: 128,
            epoch_interval: 8,
            n_blocks: 8,
        };
        assert_eq!(parse_info(&encode_info(&i)).unwrap(), i);
    }

    /// Records every `write` and `write_vectored` call it receives,
    /// accepting at most `max_per_call` bytes per call.
    pub(crate) struct CallRecorder {
        pub(crate) calls: Vec<usize>,
        pub(crate) bytes: Vec<u8>,
        pub(crate) max_per_call: usize,
    }

    impl CallRecorder {
        pub(crate) fn new(max_per_call: usize) -> Self {
            Self { calls: Vec::new(), bytes: Vec::new(), max_per_call }
        }
    }

    impl Write for CallRecorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.max_per_call - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            self.calls.push(taken);
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        let get = Request::Get { start: 2, end: 9 }.encode();
        let info = Request::Info.encode();
        let mut w = CallRecorder::new(usize::MAX);
        write_message(&mut w, &get).unwrap();
        write_message(&mut w, &info).unwrap();
        assert_eq!(w.calls, vec![4 + get.len(), 4 + info.len()]);
        let mut wire = Vec::new();
        for body in [&get, &info] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        assert_eq!(w.bytes, wire);
    }

    #[test]
    fn short_writes_still_frame_the_message() {
        let body: Vec<u8> = (0..40).collect();
        let mut expected = 40u32.to_le_bytes().to_vec();
        expected.extend_from_slice(&body);
        for max_per_call in [1, 3, 4, 5, 43] {
            let mut w = CallRecorder::new(max_per_call);
            write_message(&mut w, &body).unwrap();
            assert_eq!(w.bytes, expected, "at most {max_per_call} bytes per call");
        }
    }

    #[test]
    fn framing_enforces_the_budget() {
        let mut buf = Vec::new();
        write_message(&mut buf, &[1, 2, 3]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_message(&mut r, 8).unwrap().unwrap(), vec![1, 2, 3]);
        assert!(read_message(&mut r, 8).unwrap().is_none());
        let mut oversized = Vec::new();
        write_message(&mut oversized, &[0u8; 16]).unwrap();
        assert!(read_message(&mut oversized.as_slice(), 8).is_err());
    }

    #[test]
    fn decoder_reassembles_a_one_byte_trickle() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Get { start: 2, end: 9 }.encode()).unwrap();
        write_message(&mut wire, &Request::Stats.encode()).unwrap();
        let mut dec = FrameDecoder::new(MAX_REQUEST_BODY);
        let mut frames = Vec::new();
        for byte in wire {
            dec.push(&[byte]);
            while let Some(body) = dec.next_frame().unwrap() {
                frames.push(body);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::parse(&frames[0]).unwrap(), Request::Get { start: 2, end: 9 });
        assert_eq!(Request::parse(&frames[1]).unwrap(), Request::Stats);
        assert!(!dec.has_partial());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_splits_two_requests_coalesced_in_one_chunk() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Info.encode()).unwrap();
        write_message(&mut wire, &Request::Metrics.encode()).unwrap();
        let mut dec = FrameDecoder::new(MAX_REQUEST_BODY);
        dec.push(&wire); // one TCP segment carrying both requests
        assert_eq!(dec.next_frame().unwrap().unwrap(), Request::Info.encode());
        assert_eq!(dec.next_frame().unwrap().unwrap(), Request::Metrics.encode());
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_allocating() {
        let mut dec = FrameDecoder::new(64);
        dec.push(&u32::MAX.to_le_bytes());
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err, FrameError::Oversized { announced: u32::MAX as usize, budget: 64 });
        // Nothing beyond the 4 received bytes was ever buffered, and the
        // error is sticky: framing past a bad prefix cannot be trusted.
        assert_eq!(dec.buffered(), 4);
        assert!(!dec.has_partial());
        dec.push(&[0, 0, 0, 0]);
        assert_eq!(dec.next_frame().unwrap_err(), err);
    }

    #[test]
    fn decoder_partial_frame_is_flagged_until_complete() {
        let mut dec = FrameDecoder::new(64);
        assert!(!dec.has_partial());
        dec.push(&[3, 0, 0]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.has_partial(), "mid-prefix counts as a started frame");
        dec.push(&[0, 7, 8]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.has_partial(), "mid-body still partial");
        dec.push(&[9]);
        assert_eq!(dec.next_frame().unwrap(), Some(vec![7, 8, 9]));
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_compaction_keeps_memory_proportional_to_unconsumed_bytes() {
        let mut dec = FrameDecoder::new(64);
        let mut wire = Vec::new();
        for i in 0..4096u32 {
            write_message(&mut wire, &i.to_le_bytes()).unwrap();
        }
        let mut popped = 0;
        for chunk in wire.chunks(7) {
            dec.push(chunk);
            while let Some(body) = dec.next_frame().unwrap() {
                assert_eq!(body, (popped as u32).to_le_bytes());
                popped += 1;
            }
            assert!(dec.buffered() <= 16, "consumed prefix must be dropped");
        }
        assert_eq!(popped, 4096);
    }
}
