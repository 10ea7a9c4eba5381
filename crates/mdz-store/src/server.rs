//! The `mdzd` serving layer: a TCP accept loop feeding a fixed worker pool,
//! one [`StoreReader`] clone per connection handler.
//!
//! The server is built only on `std::net` / `std::thread`. Each worker owns
//! a per-connection [`DecodeLimits`] (from [`ServerConfig`]); a request that
//! would decode past that budget is refused with [`Status::LimitExceeded`]
//! rather than letting one client monopolize memory. The buffer cache inside
//! the shared [`StoreReader`] makes concurrent overlapping reads cheap:
//! whichever connection decodes a buffer first populates it for the rest.
//!
//! # Degradation under hostile load
//!
//! Every per-connection budget is explicit in [`ServerConfig`]:
//!
//! * **Connection cap** — when `max_connections` handlers are already
//!   admitted, new connections get a framed [`Status::Busy`] response and
//!   are closed instead of piling up in the accept queue.
//! * **Idle deadline** — a connection that sends no request within
//!   `idle_timeout` is closed (`server.conn.idle_closed`).
//! * **Read deadline** — a request that starts arriving but stalls is cut
//!   off after `read_timeout` (`server.conn.read_timeouts`).
//! * **Write deadline** — a stalled reader (a peer that requests data and
//!   never drains its socket) is disconnected once a response write blocks
//!   for `write_timeout` (`server.conn.write_timeouts`), freeing the worker.
//! * **Bounded request bodies** — frame lengths are validated against
//!   `max_request_body` before any allocation (`max_append_body` when live
//!   appends are enabled, since APPEND carries raw coordinate payloads).
//!
//! Shutdown drains gracefully: the accept loop stops admitting, in-flight
//! requests finish (bounded by the read/write deadlines), and idle or queued
//! connections are closed at the next poll tick (`server.drain.closed`).
//!
//! # Live ingest
//!
//! A server built with [`Server::with_append_sink`] also answers APPEND:
//! frames are compressed server-side through [`crate::append_store`]'s
//! footer-flip protocol against the sink's [`StoreIo`], under the sink's
//! per-archive write lock (one append at a time; readers are never blocked).
//! The OK response is sent only after the second sync — it is a durability
//! acknowledgment — and the shared [`StoreReader`] is refreshed under the
//! same lock so followers observe the new frames immediately. Without a
//! sink, APPEND is answered with [`Status::BadRequest`] (read-only server).

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mdz_core::{DecodeLimits, Frame, MdzError};
use mdz_obs::Obs;

use crate::archive::{append_store, Precision, StoreOptions};
use crate::io::StoreIo;
use crate::protocol::{
    encode_append_ack, encode_error, encode_frames, encode_info, encode_metrics, encode_stats,
    read_message, write_message, AppendAck, Request, Status, StoreInfo, MAX_APPEND_BODY,
    MAX_REQUEST_BODY,
};
use crate::reader::StoreReader;

/// Which serving backend a [`Server`] runs.
///
/// Both engines speak the identical wire protocol and share the response
/// path (`respond`), so for the same request trace their responses are
/// byte-identical — the threaded engine doubles as the differential oracle
/// for the event-loop engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The blocking accept loop + fixed worker pool (one connection per
    /// worker at a time). Simple, portable, and the reference behavior.
    #[default]
    Threads,
    /// The sharded non-blocking event loop (the `net` module): epoll on
    /// Linux, kqueue on macOS. Thousands of concurrent connections with
    /// request pipelining; `threads` becomes the shard count.
    Epoll,
}

impl Engine {
    /// Parses a CLI engine name (`threads` or `epoll`).
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "threads" => Some(Engine::Threads),
            "epoll" => Some(Engine::Epoll),
            _ => None,
        }
    }
}

/// Serving-side budgets and sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which backend serves connections (default [`Engine::Threads`]).
    pub engine: Engine,
    /// Worker threads handling connections ([`Engine::Threads`]), or event
    /// shards ([`Engine::Epoll`]). `mdzd` spells this `--threads` with
    /// `--shards` as an alias.
    pub threads: usize,
    /// Largest frame count a single GET may request.
    pub max_frames_per_request: usize,
    /// Decode budget each connection's reads run under.
    pub limits: DecodeLimits,
    /// Connections admitted concurrently; beyond this, new connections are
    /// shed with a framed [`Status::Busy`] response.
    pub max_connections: usize,
    /// Largest request body accepted, enforced before allocation.
    pub max_request_body: usize,
    /// Largest APPEND request body accepted when a sink is attached
    /// (APPEND bodies carry raw coordinates, so they dwarf the control
    /// verbs). Ignored on a read-only server.
    pub max_append_body: usize,
    /// Budget for a started request to finish arriving (also bounds the
    /// post-error drain that lets an error response reach the peer).
    pub read_timeout: Duration,
    /// Budget for a blocked response write before the connection is cut.
    pub write_timeout: Duration,
    /// How long a connection may sit between requests before it is closed.
    pub idle_timeout: Duration,
    /// How often blocked waits wake up to check the stop flag and soft
    /// deadlines: the threaded engine's poll-read cadence and the event
    /// loop's wait timeout. Bounds how stale a shutdown request can go
    /// unnoticed (CLI `--drain-poll-ms`, default 50 ms).
    pub drain_poll: Duration,
    /// Cap on a connection's queued-but-unsent response bytes on the event
    /// engine. Past the cap the server stops *reading* that connection
    /// (backpressure) until the peer drains its socket; a peer that never
    /// drains is killed by `write_timeout`. Ignored by the threaded
    /// engine, whose single in-flight response is bounded by construction.
    pub max_write_buffer: usize,
    /// Whether the event engine may build an `SO_REUSEPORT` listener group
    /// (one accept queue per shard, Linux only). When unavailable or
    /// disabled it falls back to a dispatcher: shard 0 accepts and hands
    /// connections round-robin to the other shards.
    pub reuseport: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            engine: Engine::Threads,
            threads: 4,
            max_frames_per_request: 1 << 20,
            limits: DecodeLimits::default(),
            max_connections: 256,
            max_request_body: MAX_REQUEST_BODY,
            max_append_body: MAX_APPEND_BODY,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            drain_poll: Duration::from_millis(50),
            max_write_buffer: 4 << 20,
            reuseport: true,
        }
    }
}

impl ServerConfig {
    /// The framing budget requests are read under: APPEND bodies carry raw
    /// coordinates, so the budget only widens when a sink is attached.
    pub(crate) fn body_budget(&self, has_sink: bool) -> usize {
        if has_sink {
            self.max_append_body.max(self.max_request_body)
        } else {
            self.max_request_body
        }
    }

    /// `drain_poll` clamped away from zero (a zero poll would spin).
    pub(crate) fn drain_poll_clamped(&self) -> Duration {
        self.drain_poll.max(Duration::from_millis(1))
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
    /// server-side compressor (error bound, method, precision); the
    /// archive's own geometry (buffer size, epoch stride) wins over
    /// `opts.buffer_size`/`opts.epoch_interval` as in [`append_store`].
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
        let report = append_store(io.as_mut(), frames, &opts)?;
        // Publish to followers while still holding the write lock, so a
        // racing append cannot interleave an older image into refresh().
        let data = io.read_all()?;
        reader.refresh(data)?;
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
    /// Extra per-shard listeners when the event engine got an
    /// `SO_REUSEPORT` group at bind time (empty = dispatcher mode; always
    /// empty for the threaded engine).
    pub(crate) shard_listeners: Vec<TcpListener>,
    pub(crate) reader: StoreReader,
    pub(crate) cfg: ServerConfig,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) sink: Option<Arc<AppendSink>>,
}

/// Shutdown handle for a running [`Server`]; cheap to clone across threads.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the accept loop to exit. Idempotent; safe from any thread.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it awake with a throwaway
        // connection so it observes the flag without waiting for a client.
        // A wildcard bind (0.0.0.0 / ::) reports the wildcard as its local
        // address, which is not connectable — substitute loopback.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(target);
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// Under [`Engine::Epoll`] with `reuseport` enabled this tries to bind
    /// one `SO_REUSEPORT` listener per shard so the kernel spreads accepts
    /// across shards; if the platform refuses, it falls back to a single
    /// listener and the dispatcher accept mode. The choice is invisible on
    /// the wire.
    pub fn bind(
        reader: StoreReader,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let mut shard_listeners = Vec::new();
        let listener = if cfg.engine == Engine::Epoll && cfg.reuseport {
            match bind_reuseport_group(&addr, cfg.threads.max(1)) {
                Ok(mut group) => {
                    let primary = group.remove(0);
                    shard_listeners = group;
                    primary
                }
                Err(_) => TcpListener::bind(&addr)?,
            }
        } else {
            TcpListener::bind(&addr)?
        };
        Ok(Server {
            listener,
            shard_listeners,
            reader,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
            sink: None,
        })
    }

    /// Enables live ingest: the server will answer APPEND requests by
    /// compressing into `sink` and refreshing its reader. See the module
    /// docs for the locking and durability discipline.
    pub fn with_append_sink(mut self, sink: AppendSink) -> Server {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`run`](Self::run) from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle { stop: Arc::clone(&self.stop), addr: self.local_addr()? })
    }

    /// Serves connections until [`ServerHandle::shutdown`] is called, on
    /// whichever [`Engine`] the config selects. Returns once in-flight
    /// requests have finished (deadline-bounded) and the workers or shards
    /// have joined.
    pub fn run(self) -> std::io::Result<()> {
        match self.cfg.engine {
            Engine::Threads => self.run_threaded(),
            #[cfg(any(target_os = "linux", target_os = "macos"))]
            Engine::Epoll => crate::net::run(self),
            #[cfg(not(any(target_os = "linux", target_os = "macos")))]
            Engine::Epoll => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the event-loop engine needs epoll (Linux) or kqueue (macOS); use --engine threads",
            )),
        }
    }

    /// The blocking accept loop + worker pool backend.
    fn run_threaded(self) -> std::io::Result<()> {
        let Server { listener, shard_listeners: _, reader, cfg, stop, sink } = self;
        let obs = Obs::new(reader.recorder());
        let body_budget = cfg.body_budget(sink.is_some());
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = cfg.threads.max(1);
        // Admitted-but-unfinished connections (queued + being served).
        let active = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let reader = reader.clone();
                let cfg = cfg.clone();
                let stop = Arc::clone(&stop);
                let active = Arc::clone(&active);
                let sink = sink.clone();
                s.spawn(move || loop {
                    let conn = rx.lock().unwrap().recv();
                    match conn {
                        Ok(stream) => {
                            handle_connection(
                                stream,
                                &reader,
                                &cfg,
                                &stop,
                                sink.as_deref(),
                                body_budget,
                            );
                            active.fetch_sub(1, Ordering::AcqRel);
                        }
                        Err(_) => break, // accept loop gone, queue drained
                    }
                });
            }
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(mut stream) => {
                        if active.load(Ordering::Acquire) >= cfg.max_connections.max(1) {
                            // Shed load with a typed response instead of
                            // letting connections pile up unanswered. The
                            // handshake (read one request, answer BUSY) runs
                            // on a throwaway thread so a slow peer cannot
                            // stall the accept loop; reading the request
                            // first means the close is a clean FIN — closing
                            // with unread bytes would RST the connection and
                            // the client could lose the BUSY response.
                            obs.incr("server.conn.rejected_busy", 1);
                            obs.incr(status_counter(Status::Busy as u8), 1);
                            let obs = obs.clone();
                            let read_timeout = cfg.read_timeout;
                            let write_timeout = cfg.write_timeout;
                            let max_body = body_budget;
                            std::thread::spawn(move || {
                                set_read_timeout(&stream, read_timeout, &obs);
                                set_write_timeout(&stream, write_timeout, &obs);
                                let _ = read_message(&mut stream, max_body);
                                let resp =
                                    encode_error(Status::Busy, "server at connection capacity");
                                let _ = write_message(&mut stream, &resp);
                            });
                            continue;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                        obs.incr("server.conn.accepted", 1);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    // Transient accept errors (peer reset mid-handshake, fd
                    // pressure) should not take the server down.
                    Err(_) => continue,
                }
            }
            drop(tx);
        });
        Ok(())
    }
}

/// Binds `shards` listeners sharing one port via `SO_REUSEPORT` (Linux).
/// The first listener resolves an ephemeral port; the rest join its group.
/// Callers fall back to a single listener + dispatcher on any error.
fn bind_reuseport_group(
    addr: &impl ToSocketAddrs,
    shards: usize,
) -> std::io::Result<Vec<TcpListener>> {
    #[cfg(target_os = "linux")]
    {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        crate::net::sys::reuseport_group(addr, shards)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (addr, shards);
        // macOS SO_REUSEPORT does not load-balance accepts, so the
        // dispatcher is the honest mode everywhere but Linux.
        Err(std::io::Error::new(std::io::ErrorKind::Unsupported, "SO_REUSEPORT group unsupported"))
    }
}

/// Applies a read timeout, counting (rather than ignoring) sockopt failures.
fn set_read_timeout(stream: &TcpStream, timeout: Duration, obs: &Obs) {
    let timeout = timeout.max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(timeout)).is_err() {
        obs.incr("server.sockopt_errors", 1);
    }
}

/// Applies a write timeout, counting (rather than ignoring) sockopt failures.
fn set_write_timeout(stream: &TcpStream, timeout: Duration, obs: &Obs) {
    let timeout = timeout.max(Duration::from_millis(1));
    if stream.set_write_timeout(Some(timeout)).is_err() {
        obs.incr("server.sockopt_errors", 1);
    }
}

/// Outcome of waiting for the next framed request on a connection.
enum NextRequest {
    /// A complete request body arrived.
    Body(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    CleanClose,
    /// No request arrived within the idle deadline.
    IdleTimeout,
    /// The server is shutting down and no request was in flight.
    Draining,
    /// A request started arriving but stalled past the read deadline.
    SlowBody,
    /// Oversized frame length or a prefix truncated mid-frame.
    Malformed,
    /// Hard socket error; nothing more can be read or written.
    Gone,
}

/// Reads one framed request, polling so the idle deadline and the stop flag
/// are observed even while the peer is silent. The 4-byte length prefix is
/// accumulated across poll ticks; the body is then read under the full
/// `read_timeout`.
fn next_request(
    stream: &mut TcpStream,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    obs: &Obs,
    body_budget: usize,
) -> NextRequest {
    use std::io::Read;
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    set_read_timeout(stream, cfg.drain_poll_clamped().min(cfg.idle_timeout), obs);
    let idle_deadline = Instant::now() + cfg.idle_timeout;
    let mut started_at: Option<Instant> = None;
    while filled < 4 {
        if stop.load(Ordering::SeqCst) && filled == 0 {
            return NextRequest::Draining;
        }
        match stream.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return NextRequest::CleanClose,
            Ok(0) => return NextRequest::Malformed,
            Ok(n) => {
                filled += n;
                started_at.get_or_insert_with(Instant::now);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                match started_at {
                    // Mid-prefix stalls run against the read deadline.
                    Some(t) if t.elapsed() >= cfg.read_timeout => return NextRequest::SlowBody,
                    None if Instant::now() >= idle_deadline => return NextRequest::IdleTimeout,
                    _ => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return NextRequest::Gone,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > body_budget {
        return NextRequest::Malformed;
    }
    set_read_timeout(stream, cfg.read_timeout, obs);
    let mut body = vec![0u8; len];
    match stream.read_exact(&mut body) {
        Ok(()) => NextRequest::Body(body),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            NextRequest::SlowBody
        }
        Err(_) => NextRequest::Gone,
    }
}

/// Serves one connection until the peer closes it, a deadline fires, or
/// framing breaks.
///
/// All per-request metrics (opcode and status counters, latency
/// histograms, `store.requests`) are recorded *after* [`respond`] returns,
/// so a METRICS response reflects every request except the in-flight one
/// that produced it.
fn handle_connection(
    mut stream: TcpStream,
    reader: &StoreReader,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    sink: Option<&AppendSink>,
    body_budget: usize,
) {
    let obs = Obs::new(reader.recorder());
    set_write_timeout(&stream, cfg.write_timeout, &obs);
    // Responses are written whole; Nagle + delayed ACK would park small
    // replies for ~40 ms under client-side pipelining.
    let _ = stream.set_nodelay(true);
    loop {
        let body = match next_request(&mut stream, cfg, stop, &obs, body_budget) {
            NextRequest::Body(body) => body,
            NextRequest::CleanClose | NextRequest::Gone => return,
            NextRequest::Draining => {
                obs.incr("server.drain.closed", 1);
                return;
            }
            NextRequest::IdleTimeout => {
                obs.incr("server.conn.idle_closed", 1);
                return;
            }
            NextRequest::SlowBody => {
                // The request never finished arriving; no response can be
                // framed reliably, so just cut the connection.
                obs.incr("server.conn.read_timeouts", 1);
                return;
            }
            NextRequest::Malformed => {
                // Oversized or truncated frame: answer if the socket still
                // writes, then drop the connection — resync is impossible.
                reader.record_failed_request();
                obs.incr("server.requests.bad", 1);
                obs.incr(status_counter(Status::BadRequest as u8), 1);
                let resp = encode_error(Status::BadRequest, "malformed frame");
                let _ = write_message(&mut stream, &resp);
                // Drain (bounded) what the peer already sent before closing,
                // otherwise the kernel RSTs the error response off the wire.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                set_read_timeout(&stream, cfg.read_timeout, &obs);
                let _ = std::io::copy(
                    &mut std::io::Read::take(&mut stream, 1 << 20),
                    &mut std::io::sink(),
                );
                return;
            }
        };
        let response = serve_request(&body, reader, cfg, sink, &obs);
        if let Err(e) = write_message(&mut stream, &response) {
            // A stalled reader shows up as a blocked write hitting the
            // write deadline; count it so operators can see shed peers.
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
                obs.incr("server.conn.write_timeouts", 1);
            }
            return;
        }
        let _ = stream.flush();
    }
}

/// Serves one complete framed request body and returns the encoded
/// response, recording the full per-request metrics vocabulary (opcode and
/// status counters, latency histograms, `store.bytes_in`,
/// `store.requests`) in a fixed order.
///
/// Both engines call this for every well-framed request — it is the single
/// request-to-response path, which is what makes the threaded engine a
/// byte-exact (and counter-exact) differential oracle for the event loop.
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
    reader.record_request(response.len() as u64);
    response
}

/// The per-opcode request counter a parsed (or unparseable) request bumps.
pub(crate) fn opcode_counter(parsed: &std::result::Result<Request, &'static str>) -> &'static str {
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

/// Computes the response body for one parsed request. Shared by both
/// engines — this function being the single response path is what makes
/// the threaded engine a byte-exact differential oracle for the event
/// loop.
pub(crate) fn respond(
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
                    "server is read-only (start mdzd with --live to enable APPEND)",
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
            match reader.read_frames_limited(start as usize..end as usize, &cfg.limits) {
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
