//! The serving layer behind `mdz serve`: a sharded `poll(2)` loop — the
//! `net` module — in front of one request-to-response path,
//! `serve_request`.
//!
//! [`ServerConfig::threads`] event shards each run a non-blocking poll
//! loop. Shard 0 owns the one listener and hands accepted connections
//! round-robin to every shard, its own share included. All shards share one
//! [`StoreReader`] clone, so one buffer cache and one table of in-flight
//! decodes: whichever connection decodes a buffer first populates it for
//! the rest. Each request decodes under the reader's
//! [`ReaderOptions::limits`](crate::ReaderOptions::limits); a request that
//! would decode past that budget is refused with [`Status::LimitExceeded`]
//! rather than letting one client monopolize memory.
//!
//! The server runs on Linux and macOS: on any other target [`Server::run`]
//! returns [`std::io::ErrorKind::Unsupported`].
//!
//! # Degradation under hostile load
//!
//! Every per-connection budget is explicit in [`ServerConfig`] or the
//! protocol's body caps:
//!
//! * **Connection cap** — when `max_connections` connections are already
//!   admitted, new connections get a framed [`Status::Busy`] response and
//!   are closed instead of piling up in the accept queue.
//! * **Idle deadline** — a connection that sends no request within
//!   `idle_timeout` is closed (`server.conn.idle_closed`).
//! * **Read deadline** — a request that starts arriving but stalls is cut
//!   off after `read_timeout` (`server.conn.read_timeouts`).
//! * **Write deadline and backpressure** — a connection stops being read
//!   once `max_write_buffer` response bytes wait for it, and a stalled
//!   reader (a peer that requests data and never drains its socket) is
//!   disconnected once its writes make no progress for `write_timeout`
//!   (`server.conn.write_timeouts`).
//! * **Bounded request bodies** — frame lengths are validated against
//!   [`MAX_REQUEST_BODY`] before any allocation ([`MAX_APPEND_BODY`] when
//!   live appends are enabled, since APPEND carries raw coordinate
//!   payloads).
//!
//! Shutdown drains gracefully: within one 50 ms poll tick the listener
//! closes, in-flight requests finish (bounded by the read/write deadlines),
//! and idle connections are closed (`server.drain.closed`).
//!
//! # Live ingest
//!
//! A server built with [`Server::with_append_sink`] also answers APPEND:
//! frames are compressed server-side through [`crate::append_store`]'s
//! footer-flip protocol against the sink's [`StoreIo`], under the sink's
//! per-archive write lock (one append at a time; readers are never blocked).
//! The appended blocks keep their axis streams' encode decisions, as
//! every append does; a one-buffer APPEND encodes on the shard thread
//! that serves it (DESIGN.md §9). The OK response is sent only after the
//! second sync — it is a durability acknowledgment — and the shared
//! [`StoreReader`] is refreshed under the same lock so followers observe
//! the new frames immediately. The refresh takes the image the append
//! itself read and wrote, so each APPEND reads the file once and no I/O
//! runs between the durable footer and the publish. Without a sink,
//! APPEND is answered with [`Status::BadRequest`] (read-only server).

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mdz_core::{Frame, MdzError};
use mdz_obs::Obs;

use crate::archive::{append_image, Precision, StoreOptions};
use crate::io::StoreIo;
use crate::protocol::{
    encode_append_ack, encode_error, encode_frames, encode_info, encode_metrics, encode_stats,
    AppendAck, Request, Status, StoreInfo, MAX_APPEND_BODY, MAX_REQUEST_BODY,
};
use crate::reader::StoreReader;

/// Serving-side budgets and sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event shards: threads each running one poll loop (`mdz serve
    /// --threads`).
    pub threads: usize,
    /// Largest frame count a single GET may request.
    pub max_frames_per_request: usize,
    /// Connections admitted concurrently; beyond this, new connections are
    /// shed with a framed [`Status::Busy`] response.
    pub max_connections: usize,
    /// Budget for a started request to finish arriving (also bounds the
    /// post-error drain that lets an error response reach the peer).
    pub read_timeout: Duration,
    /// Budget for a blocked response write before the connection is cut.
    pub write_timeout: Duration,
    /// How long a connection may sit between requests before it is closed.
    pub idle_timeout: Duration,
    /// Cap on a connection's queued-but-unsent response bytes. Past the
    /// cap the server stops *reading* that connection (backpressure) until
    /// the peer drains its socket; a peer that never drains is killed by
    /// `write_timeout`.
    pub max_write_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            max_frames_per_request: 1 << 20,
            max_connections: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_write_buffer: 4 << 20,
        }
    }
}

/// The poll loop's wait timeout: how often shards wake to check the stop
/// flag and the deadlines when no socket is ready. Bounds how stale a
/// shutdown request can go unnoticed.
pub(crate) const DRAIN_POLL: Duration = Duration::from_millis(50);

/// The framing budget requests are read under, enforced before allocation:
/// [`MAX_REQUEST_BODY`], widened to [`MAX_APPEND_BODY`] when a sink is
/// attached, since APPEND bodies carry raw coordinates and dwarf the
/// control verbs.
pub(crate) fn body_budget(has_sink: bool) -> usize {
    if has_sink {
        MAX_APPEND_BODY.max(MAX_REQUEST_BODY)
    } else {
        MAX_REQUEST_BODY
    }
}

/// The writable side of a live archive: the storage the server appends to,
/// serialized by a per-archive write lock.
///
/// The lock covers the whole footer-flip append (recover → write blocks →
/// sync → footer → sync) *and* the subsequent [`StoreReader::refresh`], so
/// concurrent APPEND requests execute one at a time and the reader's
/// published state advances in footer order. Readers never take this lock —
/// they snapshot the reader's own state and are unaffected by an in-flight
/// append.
pub struct AppendSink {
    io: Mutex<Box<dyn StoreIo>>,
    opts: StoreOptions,
}

impl AppendSink {
    /// Wraps the storage backing the served archive. `opts` configures the
    /// server-side compressor (error bound, method); the archive's own
    /// geometry (buffer size, epoch stride) wins over
    /// `opts.buffer_size`/`opts.epoch_interval` as in [`crate::append_store`].
    /// `opts.precision` is not read: each APPEND carries its own precision,
    /// which must match the archive's.
    pub fn new(io: Box<dyn StoreIo>, opts: StoreOptions) -> Self {
        Self { io: Mutex::new(io), opts }
    }

    /// Runs one locked append + refresh cycle. Returns only after the
    /// appended frames are durable (second sync done) and published to
    /// `reader`.
    pub(crate) fn append(
        &self,
        frames: &[Frame],
        precision: Precision,
        reader: &StoreReader,
    ) -> Result<AppendAck, MdzError> {
        let mut io = self.io.lock().unwrap();
        let mut opts = self.opts.clone();
        opts.precision = precision;
        let (report, image) = append_image(io.as_mut(), frames, &opts)?;
        // Publish the image the append wrote, while still holding the write
        // lock, so a racing append cannot interleave an older image into
        // refresh(). No I/O runs between the durable footer and here.
        reader.refresh(image)?;
        Ok(AppendAck {
            start: (report.n_frames - report.appended_frames) as u64,
            n_frames: report.n_frames as u64,
            appended_blocks: report.appended_blocks as u64,
        })
    }
}

impl std::fmt::Debug for AppendSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendSink").finish_non_exhaustive()
    }
}

/// A bound (but not yet running) store server.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) reader: StoreReader,
    pub(crate) cfg: ServerConfig,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) sink: Option<AppendSink>,
}

/// Shutdown handle for a running [`Server`]; cheap to clone across threads.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the server to stop. Idempotent; safe from any thread. Every
    /// shard observes the flag within one 50 ms poll tick.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port). The
    /// listener's accept backlog is raised to the kernel cap
    /// (`somaxconn`), so a burst of connects queues until shard 0 accepts
    /// it instead of being reset.
    pub fn bind(
        reader: StoreReader,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        crate::net::sys::listen_max_backlog(&listener)?;
        Ok(Server { listener, reader, cfg, stop: Arc::new(AtomicBool::new(false)), sink: None })
    }

    /// Enables live ingest: the server will answer APPEND requests by
    /// compressing into `sink` and refreshing its reader. See the module
    /// docs for the locking and durability discipline.
    pub fn with_append_sink(mut self, sink: AppendSink) -> Server {
        self.sink = Some(sink);
        self
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`run`](Self::run) from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle { stop: Arc::clone(&self.stop) })
    }

    /// Serves connections until [`ServerHandle::shutdown`] is called.
    /// Returns once in-flight requests have finished (deadline-bounded) and
    /// the shards have joined. Fails with
    /// [`Unsupported`](std::io::ErrorKind::Unsupported) on targets other
    /// than Linux and macOS.
    pub fn run(self) -> std::io::Result<()> {
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        return crate::net::run(self);
        #[cfg(not(any(target_os = "linux", target_os = "macos")))]
        {
            drop(self);
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "serving runs on Linux and macOS only",
            ))
        }
    }
}

/// Serves one complete framed request body and returns the encoded
/// response, recording the full per-request metrics vocabulary (opcode and
/// status counters, latency histograms, `store.bytes_in`,
/// `store.requests`) in a fixed order.
///
/// The shards call this for every well-framed request — it is the single
/// request-to-response path, whose bytes and counters
/// `tests/serve_trace.rs` pins against a golden trace.
pub(crate) fn serve_request(
    body: &[u8],
    reader: &StoreReader,
    cfg: &ServerConfig,
    sink: Option<&AppendSink>,
    obs: &Obs,
) -> Vec<u8> {
    let parsed = Request::parse(body);
    // Capture the per-opcode counter name before `respond` consumes the
    // parsed request (APPEND requests own their frame payload).
    let op_counter = opcode_counter(&parsed);
    let request_timer = obs.span("server.request_seconds");
    let response = match parsed {
        Ok(req) => {
            let get_timer =
                matches!(req, Request::Get { .. }).then(|| obs.span("server.get_seconds"));
            let append_timer = matches!(req, Request::Append { .. })
                .then(|| obs.span("server.append.append_seconds"));
            let r = respond(req, reader, cfg, sink, obs);
            if let Some(t) = get_timer {
                t.finish();
            }
            if let Some(t) = append_timer {
                t.finish();
            }
            r
        }
        Err(msg) => encode_error(Status::BadRequest, msg),
    };
    request_timer.finish();
    obs.incr("store.bytes_in", body.len() as u64);
    obs.incr(op_counter, 1);
    obs.incr(status_counter(response.first().copied().unwrap_or(Status::Internal as u8)), 1);
    obs.incr("store.requests", 1);
    obs.incr("store.bytes_out", response.len() as u64);
    response
}

/// The per-opcode request counter a parsed (or unparseable) request bumps.
fn opcode_counter(parsed: &std::result::Result<Request, &'static str>) -> &'static str {
    match parsed {
        Ok(Request::Get { .. }) => "server.requests.get",
        Ok(Request::Stats) => "server.requests.stats",
        Ok(Request::Info) => "server.requests.info",
        Ok(Request::Metrics) => "server.requests.metrics",
        Ok(Request::Append { .. }) => "server.requests.append",
        Err(_) => "server.requests.bad",
    }
}

/// The per-status counter for a response's leading status byte.
pub(crate) fn status_counter(byte: u8) -> &'static str {
    match Status::from_byte(byte) {
        Some(Status::Ok) => "server.status.ok",
        Some(Status::BadRequest) => "server.status.bad_request",
        Some(Status::OutOfRange) => "server.status.out_of_range",
        Some(Status::LimitExceeded) => "server.status.limit_exceeded",
        Some(Status::Corrupt) => "server.status.corrupt",
        Some(Status::Busy) => "server.status.busy",
        Some(Status::Internal) | None => "server.status.internal",
    }
}

/// Computes the response body for one parsed request.
fn respond(
    req: Request,
    reader: &StoreReader,
    cfg: &ServerConfig,
    sink: Option<&AppendSink>,
    obs: &Obs,
) -> Vec<u8> {
    match req {
        Request::Append { precision, frames } => {
            let Some(sink) = sink else {
                return encode_error(
                    Status::BadRequest,
                    "server is read-only (start `mdz serve` with --live to enable APPEND)",
                );
            };
            match sink.append(&frames, precision, reader) {
                Ok(ack) => {
                    obs.incr("server.append.frames", ack.n_frames - ack.start);
                    obs.incr("server.append.blocks", ack.appended_blocks);
                    encode_append_ack(&ack)
                }
                Err(e) => {
                    obs.incr("server.append.errors", 1);
                    // Shape and configuration mismatches are the client's
                    // fault; everything else keeps the decode-path mapping
                    // (an injected storage fault surfaces as Internal).
                    let status = match &e {
                        MdzError::BadInput(_) | MdzError::BadConfig(_) => Status::BadRequest,
                        MdzError::Io { .. } => Status::Internal,
                        other => Status::from_error(other),
                    };
                    encode_error(status, &e.to_string())
                }
            }
        }
        Request::Get { start, end } => {
            if start > end {
                return encode_error(Status::BadRequest, "start exceeds end");
            }
            let span = end - start;
            if span > cfg.max_frames_per_request as u64 {
                return encode_error(
                    Status::LimitExceeded,
                    "requested span exceeds max_frames_per_request",
                );
            }
            let n_frames = reader.index().n_frames as u64;
            if end > n_frames {
                return encode_error(Status::OutOfRange, "frame range past end of archive");
            }
            match reader.read_frames(start as usize..end as usize) {
                Ok(frames) => encode_frames(start, reader.index().n_atoms, &frames),
                Err(e) => encode_error(Status::from_error(&e), &e.to_string()),
            }
        }
        Request::Stats => encode_stats(&reader.stats()),
        Request::Metrics => encode_metrics(&reader.metrics()),
        Request::Info => {
            let idx = reader.index();
            encode_info(&StoreInfo {
                version: u64::from(idx.version),
                n_atoms: idx.n_atoms as u64,
                n_frames: idx.n_frames as u64,
                buffer_size: idx.buffer_size as u64,
                epoch_interval: idx.epoch_interval as u64,
                n_blocks: idx.blocks.len() as u64,
            })
        }
    }
}
