//! The sharded event loop that serves every connection.
//!
//! # Shard ownership
//!
//! `cfg.threads` shards each run their own poll loop and connection map. All
//! of them share one [`StoreReader`] clone, so one buffer cache and one
//! table of in-flight decodes: a shard that finds a buffer being decoded by
//! another shard waits for that decode instead of repeating it. A
//! connection is owned by the shard it was handed to for its whole life;
//! APPENDs run on whichever shard owns their connection, and the
//! [`AppendSink`]'s lock orders them.
//!
//! # Accept and dispatch
//!
//! Shard 0 owns the only listener and hands accepted streams round-robin
//! over everyone's inboxes, its own share included (with one shard the
//! hand-off is a no-op). Admission control is global: `admitted` is a
//! process-wide counter, reported as the `server.net.connections` gauge,
//! and connections over `max_connections` are shed by shard 0 with a framed
//! BUSY answer.
//!
//! # Backpressure invariant
//!
//! A connection's decoded-but-unsent output is bounded by
//! `max_write_buffer`: past the cap the shard stops **reading** (and
//! decoding) that connection until a flush drains the queue below half the
//! cap. A peer that never drains is killed by `write_timeout`. Memory per
//! connection is therefore `O(max_write_buffer + one frame)` by
//! construction.
//!
//! # The poll set
//!
//! Each tick a shard rebuilds its [`PollSet`] from its own state: its wake
//! channel, the listener while it has one, then every connection with the
//! interest [`Conn::interest`] gives it. A connection that is paused or
//! has seen its peer's EOF is not polled for input, so a half-closed peer
//! that stops reading costs nothing until a deadline cuts it.
//!
//! # Shutdown
//!
//! On the stop flag shard 0 closes the listener (dropping the global
//! `accepting` count to zero), every shard stops decoding new work, closes
//! idle connections (`server.drain.closed`), and lets in-flight requests
//! finish under the read/write deadlines. Shards exit when `accepting == 0`
//! and they have no connections or queued handoffs.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mdz_obs::Obs;

use crate::protocol::{encode_error, Status};
use crate::reader::StoreReader;
use crate::server::{
    body_budget, serve_request, status_counter, AppendSink, Server, ServerConfig, DRAIN_POLL,
};

use super::conn::{Conn, ReadOutcome};
use super::sys::{PollSet, Wake};

/// State shared by every shard of one server.
struct SharedState {
    stop: Arc<AtomicBool>,
    /// Admitted connections across all shards (the `max_connections` cap).
    admitted: AtomicUsize,
    /// Round-robin cursor for shard 0's accept handoffs.
    next_shard: AtomicUsize,
    /// Shards still owning an open listener; 0 means no new connection can
    /// ever be admitted or handed off, which gates shard exit.
    accepting: AtomicUsize,
    /// Freshly accepted, already-admitted connections shard 0 handed to
    /// each shard.
    inboxes: Vec<Mutex<VecDeque<TcpStream>>>,
    wakes: Vec<Wake>,
}

/// Runs a [`Server`] until shutdown. Entry point for [`Server::run`].
pub(crate) fn run(server: Server) -> std::io::Result<()> {
    let Server { listener, reader, cfg, stop, sink } = server;
    let shards = cfg.threads.max(1);
    let mut wakes = Vec::with_capacity(shards);
    let mut inboxes = Vec::with_capacity(shards);
    for _ in 0..shards {
        wakes.push(Wake::new()?);
        inboxes.push(Mutex::new(VecDeque::new()));
    }
    let shared = SharedState {
        stop,
        admitted: AtomicUsize::new(0),
        next_shard: AtomicUsize::new(0),
        accepting: AtomicUsize::new(1),
        inboxes,
        wakes,
    };
    let shared = &shared;
    let cfg = &cfg;
    let sink = sink.as_ref();
    // Shard 0 takes the listener; the rest are fed through their inboxes.
    let mut listener = Some(listener);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for id in 0..shards {
            let listener = listener.take();
            let reader = reader.clone();
            let handle = scope.spawn(move || {
                let had_listener = listener.is_some();
                let result = match Shard::new(id, shards, listener, reader, cfg, sink, shared) {
                    Ok(mut shard) => {
                        let r = shard.run();
                        if shard.listener.is_some() {
                            // Error exit before the drain path closed it.
                            shared.accepting.fetch_sub(1, Ordering::SeqCst);
                        }
                        r
                    }
                    Err(e) => {
                        if had_listener {
                            shared.accepting.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(e)
                    }
                };
                if result.is_err() {
                    // One shard dying takes the server down gracefully:
                    // everyone else sees the stop flag and drains.
                    shared.stop.store(true, Ordering::SeqCst);
                    for wake in &shared.wakes {
                        wake.wake();
                    }
                }
                result
            });
            handles.push(handle);
        }
        let mut first_err = Ok(());
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    if first_err.is_ok() {
                        first_err = Err(e);
                    }
                }
                Err(_) => {
                    if first_err.is_ok() {
                        first_err = Err(std::io::Error::other("shard thread panicked"));
                    }
                }
            }
        }
        first_err
    })
}

/// What the deadline sweep decided for one connection.
enum SweepAction {
    /// Close now, bumping the given counter (None = silent).
    Close(RawFd, Option<&'static str>),
    /// A shed connection never sent its request within `read_timeout`:
    /// answer BUSY anyway.
    ShedReply(RawFd),
}

struct Shard<'a> {
    id: usize,
    shards: usize,
    listener: Option<TcpListener>,
    reader: StoreReader,
    cfg: &'a ServerConfig,
    sink: Option<&'a AppendSink>,
    shared: &'a SharedState,
    obs: Obs,
    conns: HashMap<RawFd, Conn>,
    scratch: Vec<u8>,
    body_budget: usize,
    draining: bool,
    /// The `server.net.connections` value this shard last wrote; the gauge
    /// is rewritten only when `admitted` has moved since.
    reported_connections: Option<usize>,
}

impl<'a> Shard<'a> {
    fn new(
        id: usize,
        shards: usize,
        listener: Option<TcpListener>,
        reader: StoreReader,
        cfg: &'a ServerConfig,
        sink: Option<&'a AppendSink>,
        shared: &'a SharedState,
    ) -> std::io::Result<Shard<'a>> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        let obs = Obs::new(reader.recorder());
        let body_budget = body_budget(sink.is_some());
        Ok(Shard {
            id,
            shards,
            listener,
            reader,
            cfg,
            sink,
            shared,
            obs,
            conns: HashMap::new(),
            scratch: vec![0u8; 64 << 10],
            body_budget,
            draining: false,
            reported_connections: None,
        })
    }

    fn run(&mut self) -> std::io::Result<()> {
        let mut set = PollSet::default();
        let wake_fd = self.shared.wakes[self.id].fd();
        loop {
            // The listener precedes the connections, so every accept of a
            // dispatch runs before any of its closes and never reuses the fd
            // of an entry still to come.
            set.clear();
            set.push(wake_fd, true, false);
            if let Some(l) = &self.listener {
                set.push(l.as_raw_fd(), true, false);
            }
            for (&fd, conn) in &self.conns {
                let (read, write) = conn.interest();
                set.push(fd, read, write);
            }
            set.wait(DRAIN_POLL)?;
            if !self.draining && self.shared.stop.load(Ordering::SeqCst) {
                self.start_drain();
            }
            self.drain_inbox();
            let listener_fd = self.listener.as_ref().map(|l| l.as_raw_fd());
            for (fd, readable, writable) in set.ready() {
                if fd == wake_fd {
                    self.shared.wakes[self.id].drain();
                } else if Some(fd) == listener_fd {
                    self.accept_ready();
                } else {
                    self.conn_event(fd, readable, writable);
                }
            }
            self.sweep();
            let admitted = self.shared.admitted.load(Ordering::SeqCst);
            if self.reported_connections != Some(admitted) {
                self.obs.gauge("server.net.connections", admitted as u64);
                self.reported_connections = Some(admitted);
            }
            if self.draining && self.ready_to_exit() {
                return Ok(());
            }
        }
    }

    /// Stops accepting: closes the listener and gives up the accepting
    /// slot. Runs once, on the first tick that observes the stop flag.
    fn start_drain(&mut self) {
        self.draining = true;
        if self.listener.take().is_some() {
            self.shared.accepting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Exit test while draining. The `accepting` load must come first: once
    /// it reads 0 no shard can push another handoff, so a subsequent empty
    /// inbox is conclusively empty.
    fn ready_to_exit(&self) -> bool {
        self.shared.accepting.load(Ordering::SeqCst) == 0
            && self.conns.is_empty()
            && self.shared.inboxes[self.id].lock().unwrap().is_empty()
    }

    fn drain_inbox(&mut self) {
        loop {
            let handoff = self.shared.inboxes[self.id].lock().unwrap().pop_front();
            let Some(stream) = handoff else { return };
            self.install(stream, true);
        }
    }

    /// Accepts until the queue is empty, admitting or shedding each stream.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer reset mid-handshake, fd
                // pressure) should not take the shard down.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.shared.admitted.load(Ordering::SeqCst) >= self.cfg.max_connections.max(1) {
            // Shed with a typed response instead of piling up unanswered;
            // the shed connection is handled locally (it never counts
            // against admission and dies after one BUSY answer).
            self.obs.incr("server.conn.rejected_busy", 1);
            self.obs.incr(status_counter(Status::Busy as u8), 1);
            self.install(stream, false);
            return;
        }
        self.shared.admitted.fetch_add(1, Ordering::SeqCst);
        self.obs.incr("server.conn.accepted", 1);
        let target = self.shared.next_shard.fetch_add(1, Ordering::SeqCst) % self.shards;
        if target == self.id {
            self.install(stream, true);
        } else {
            self.shared.inboxes[target].lock().unwrap().push_back(stream);
            self.shared.wakes[target].wake();
        }
    }

    fn install(&mut self, stream: TcpStream, admitted: bool) {
        match Conn::new(stream, self.body_budget, admitted) {
            Ok(conn) => {
                let fd = conn.fd();
                self.conns.insert(fd, conn);
                // The peer may have sent its request already; this tick's
                // poll set predates the connection, so read it now.
                self.conn_event(fd, true, false);
            }
            Err(_) => {
                if admitted {
                    self.shared.admitted.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    fn conn_event(&mut self, fd: RawFd, readable: bool, writable: bool) {
        if writable {
            self.flush_conn(fd);
        }
        if readable {
            self.read_conn(fd);
        }
    }

    fn flush_conn(&mut self, fd: RawFd) {
        loop {
            let Some(conn) = self.conns.get_mut(&fd) else { return };
            if conn.flush().is_err() {
                self.close(fd, None);
                return;
            }
            let conn = self.conns.get_mut(&fd).expect("present: close not taken");
            if conn.queue_empty() {
                if conn.close_after_flush {
                    if conn.discard_input && !conn.peer_eof {
                        // Let the error response reach the peer before the
                        // FIN: half-close and linger (bounded) for their EOF.
                        conn.start_dying();
                    } else {
                        self.close(fd, None);
                    }
                    return;
                }
                if conn.peer_eof && conn.decoder.buffered() == 0 {
                    self.close(fd, None);
                    return;
                }
            }
            if conn.reading_paused && conn.queued_bytes() <= self.cfg.max_write_buffer / 2 {
                conn.reading_paused = false;
                // Frames decoded before the pause may still be buffered; the
                // socket won't re-signal for them, so pump — and loop to
                // flush what the pump enqueued, otherwise a full kernel
                // buffer would leave the new output unattempted and the
                // write-stall clock unarmed.
                self.pump(fd);
                continue;
            }
            return;
        }
    }

    fn read_conn(&mut self, fd: RawFd) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&fd) else { return };
            if conn.reading_paused {
                return;
            }
            conn.read_some(&mut self.scratch)
        };
        match outcome {
            Err(_) => self.close(fd, None),
            Ok(ReadOutcome::Blocked) => {}
            Ok(ReadOutcome::Progress) => {
                self.pump(fd);
                self.flush_conn(fd);
            }
            Ok(ReadOutcome::Eof) => {
                {
                    let Some(conn) = self.conns.get_mut(&fd) else { return };
                    conn.peer_eof = true;
                }
                // The pump decides what the EOF means: frames already
                // buffered still get served (and answered — the peer may
                // have half-closed), a truncated tail becomes a malformed
                // close, and flush_conn closes once everything drains.
                self.pump(fd);
                self.flush_conn(fd);
                if let Some(conn) = self.conns.get_mut(&fd) {
                    if conn.queue_empty()
                        && conn.decoder.buffered() == 0
                        && !conn.close_after_flush
                        && conn.dying_since.is_none()
                    {
                        self.close(fd, None);
                    }
                }
            }
        }
    }

    /// Decodes and serves every complete frame the connection has buffered,
    /// stopping at backpressure or shed/close transitions.
    fn pump(&mut self, fd: RawFd) {
        let mut served = 0u64;
        // Arm the read deadline only when the decoder is genuinely stuck
        // mid-frame waiting on the peer. A pause (backpressure) or a
        // pending close also leaves bytes buffered, but that stall is ours,
        // not the peer's.
        let mut wants_more_bytes = false;
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&fd) else { return };
                if conn.discard_input || conn.close_after_flush || conn.reading_paused {
                    break;
                }
                conn.decoder.next_frame()
            };
            match frame {
                Ok(None) => {
                    wants_more_bytes = true;
                    break;
                }
                Err(_) => {
                    self.malformed(fd);
                    break;
                }
                Ok(Some(body)) => {
                    let admitted = {
                        let conn = self.conns.get_mut(&fd).expect("checked above");
                        conn.last_activity = Instant::now();
                        conn.admitted
                    };
                    if !admitted {
                        self.shed_reply(fd);
                        break;
                    }
                    let response =
                        serve_request(&body, &self.reader, self.cfg, self.sink, &self.obs);
                    served += 1;
                    let conn = self.conns.get_mut(&fd).expect("checked above");
                    conn.enqueue(response);
                    if conn.queued_bytes() >= self.cfg.max_write_buffer.max(1)
                        && !conn.reading_paused
                    {
                        conn.reading_paused = true;
                        self.obs.incr("server.net.backpressure_stalls", 1);
                    }
                }
            }
        }
        if served > 0 {
            self.obs.observe("server.net.pipeline_depth", served as f64);
        }
        let mut truncated_at_eof = false;
        if let Some(conn) = self.conns.get_mut(&fd) {
            if wants_more_bytes && conn.decoder.has_partial() {
                if conn.peer_eof {
                    // Nothing more will ever complete this frame.
                    truncated_at_eof = true;
                } else if conn.partial_since.is_none() {
                    conn.partial_since = Some(Instant::now());
                }
            } else {
                conn.partial_since = None;
            }
        }
        if truncated_at_eof {
            self.malformed(fd);
        }
    }

    /// Answers BUSY on a shed connection and schedules its close. The BUSY
    /// status counters were already bumped at accept time, so this only
    /// delivers the response.
    fn shed_reply(&mut self, fd: RawFd) {
        if let Some(conn) = self.conns.get_mut(&fd) {
            conn.enqueue(encode_error(Status::Busy, "server at connection capacity"));
            conn.close_after_flush = true;
            conn.partial_since = None;
        }
    }

    /// Handles broken framing (oversized prefix or truncation): count it,
    /// answer BadRequest if the socket still writes, then close — resync
    /// is impossible. The input is drained (bounded by `read_timeout`)
    /// meanwhile, so the kernel does not reset the answer off the wire.
    fn malformed(&mut self, fd: RawFd) {
        self.obs.incr("store.requests", 1);
        self.obs.incr("server.requests.bad", 1);
        self.obs.incr(status_counter(Status::BadRequest as u8), 1);
        if let Some(conn) = self.conns.get_mut(&fd) {
            conn.enqueue(encode_error(Status::BadRequest, "malformed frame"));
            conn.close_after_flush = true;
            conn.discard_input = true;
            conn.reading_paused = false;
            conn.partial_since = None;
        }
    }

    /// The per-tick deadline sweep: write stalls, post-error lingers,
    /// mid-frame read stalls, shed handshakes, idle reap, and drain.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut actions = Vec::new();
        for (&fd, conn) in &self.conns {
            if let Some(t) = conn.write_blocked_since {
                if now.duration_since(t) >= self.cfg.write_timeout {
                    actions.push(SweepAction::Close(fd, Some("server.conn.write_timeouts")));
                    continue;
                }
            }
            if let Some(t) = conn.dying_since {
                if now.duration_since(t) >= self.cfg.read_timeout {
                    actions.push(SweepAction::Close(fd, None));
                    continue;
                }
            }
            if !conn.admitted {
                // A shed connection that never completed a request still
                // gets its BUSY answer after the read deadline.
                if !conn.close_after_flush
                    && now.duration_since(conn.opened_at) >= self.cfg.read_timeout
                {
                    actions.push(SweepAction::ShedReply(fd));
                }
                continue;
            }
            if let Some(t) = conn.partial_since {
                if now.duration_since(t) >= self.cfg.read_timeout {
                    // The request never finished arriving; no response can
                    // be framed reliably, so just cut the connection.
                    actions.push(SweepAction::Close(fd, Some("server.conn.read_timeouts")));
                    continue;
                }
            }
            let idle = !conn.decoder.has_partial() && conn.queue_empty() && !conn.close_after_flush;
            if idle && self.draining {
                actions.push(SweepAction::Close(fd, Some("server.drain.closed")));
                continue;
            }
            if idle && now.duration_since(conn.last_activity) >= self.cfg.idle_timeout {
                actions.push(SweepAction::Close(fd, Some("server.conn.idle_closed")));
            }
        }
        for action in actions {
            match action {
                SweepAction::Close(fd, counter) => self.close(fd, counter),
                SweepAction::ShedReply(fd) => {
                    self.shed_reply(fd);
                    self.flush_conn(fd);
                }
            }
        }
    }

    fn close(&mut self, fd: RawFd, counter: Option<&'static str>) {
        if let Some(conn) = self.conns.remove(&fd) {
            if let Some(name) = counter {
                self.obs.incr(name, 1);
            }
            if conn.admitted {
                self.shared.admitted.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}
