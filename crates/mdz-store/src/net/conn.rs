//! Per-connection state for the reactor: a non-blocking socket, the
//! incremental [`FrameDecoder`], a bounded write queue, and the timestamps
//! the deadline sweep runs against.
//!
//! A `Conn` is owned by exactly one shard for its whole life, so its state
//! is single-threaded by construction.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Instant;

use crate::protocol::FrameDecoder;

/// Per-read scratch cap: one `read` call per slot, bounded so a firehose
/// peer cannot monopolize a shard tick (the next tick's poll reports the
/// rest).
const MAX_READS_PER_TICK: usize = 16;

/// Chunks gathered into one `write_vectored` call (well under `IOV_MAX`).
const MAX_IOVECS: usize = 64;

/// What a read pass against the socket produced.
pub(crate) enum ReadOutcome {
    /// Bytes arrived (frames may now be decodable).
    Progress,
    /// The peer half-closed; no more input will ever arrive.
    Eof,
    /// The socket had nothing for us.
    Blocked,
}

/// One live connection on a shard.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Reassembles length-prefixed requests from arbitrary read chunks.
    pub(crate) decoder: FrameDecoder,
    /// Responses waiting for the socket.
    out: OutQueue,
    /// Whether this connection holds an admission slot. A connection shed
    /// at accept time does not: it answers BUSY to its first request, then
    /// closes.
    pub(crate) admitted: bool,
    /// Close once the write queue drains (BUSY shed, malformed framing).
    pub(crate) close_after_flush: bool,
    /// Input is read and discarded instead of decoded — the bounded drain
    /// that lets an error response reach a peer mid-send without an RST.
    pub(crate) discard_input: bool,
    /// The peer sent EOF; flush what is queued, then close.
    pub(crate) peer_eof: bool,
    /// Backpressure: reads are suspended until the queue drains below half
    /// of `max_write_buffer`.
    pub(crate) reading_paused: bool,
    /// When the connection was accepted (shed-reply deadline).
    pub(crate) opened_at: Instant,
    /// Last time bytes arrived (idle deadline).
    pub(crate) last_activity: Instant,
    /// Since when the decoder has held an incomplete frame (read deadline).
    pub(crate) partial_since: Option<Instant>,
    /// Since when a flush has made no progress (write deadline).
    pub(crate) write_blocked_since: Option<Instant>,
    /// Since when the connection has been lingering after `shutdown(Write)`
    /// waiting for the peer's EOF (bounded by the read deadline).
    pub(crate) dying_since: Option<Instant>,
}

impl Conn {
    /// Wraps an accepted stream; the socket is switched to non-blocking.
    pub(crate) fn new(stream: TcpStream, max_body: usize, admitted: bool) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Responses are written whole; Nagle + delayed ACK would park small
        // replies for ~40 ms under pipelining. Best-effort: a socket that
        // refuses the option still serves correctly.
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(max_body),
            out: OutQueue::default(),
            admitted,
            close_after_flush: false,
            discard_input: false,
            peer_eof: false,
            reading_paused: false,
            opened_at: now,
            last_activity: now,
            partial_since: None,
            write_blocked_since: None,
            dying_since: None,
        })
    }

    /// The socket's fd, the connection's key in its shard.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// True when nothing is waiting to be written.
    pub(crate) fn queue_empty(&self) -> bool {
        self.out.chunks.is_empty()
    }

    /// Unsent response bytes (the backpressure quantity).
    pub(crate) fn queued_bytes(&self) -> usize {
        self.out.bytes
    }

    /// Queues one framed response (4-byte little-endian length prefix, then
    /// the body) without copying the body.
    pub(crate) fn enqueue(&mut self, body: Vec<u8>) {
        self.out.push(body);
    }

    /// Half-closes the write side and starts the bounded EOF linger.
    pub(crate) fn start_dying(&mut self) {
        if self.dying_since.is_none() {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.dying_since = Some(Instant::now());
        }
    }

    /// Writes queued responses until the socket blocks or the queue
    /// empties. Progress clears the write-blocked clock; a block with bytes
    /// still queued starts it (the shard's sweep kills stalled readers from
    /// it). `Err` means the socket is dead.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.chunks.is_empty() {
            match self.out.write_to(&mut self.stream) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(_) => self.write_blocked_since = None,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.write_blocked_since.get_or_insert_with(Instant::now);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_blocked_since = None;
        Ok(())
    }

    /// Pulls available bytes off the socket into the decoder (or the void,
    /// under `discard_input`), bounded per tick. `Err` means the socket is
    /// dead; `Eof` may still leave decodable frames behind.
    pub(crate) fn read_some(&mut self, scratch: &mut [u8]) -> std::io::Result<ReadOutcome> {
        let mut any = false;
        for _ in 0..MAX_READS_PER_TICK {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => {
                    any = true;
                    self.last_activity = Instant::now();
                    if !self.discard_input {
                        self.decoder.push(&scratch[..n]);
                    }
                    if n < scratch.len() {
                        break; // short read: the kernel buffer is drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(if any { ReadOutcome::Progress } else { ReadOutcome::Blocked })
    }

    /// What the shard polls this connection for, as (read, write): input
    /// only while it can be served (not paused by backpressure, no EOF
    /// yet), output only while responses are queued.
    pub(crate) fn interest(&self) -> (bool, bool) {
        (!self.reading_paused && !self.peer_eof, !self.queue_empty())
    }
}

/// Framed responses waiting for the socket. Each response is queued as two
/// chunks, its 4-byte length prefix and its body, so bodies are never
/// copied; chunks are never empty.
#[derive(Default)]
struct OutQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written.
    front_written: usize,
    /// Unsent bytes across `chunks`.
    bytes: usize,
}

impl OutQueue {
    fn push(&mut self, body: Vec<u8>) {
        let prefix = (body.len() as u32).to_le_bytes().to_vec();
        self.bytes += prefix.len() + body.len();
        self.chunks.push_back(prefix);
        if !body.is_empty() {
            self.chunks.push_back(body);
        }
    }

    /// Offers the queued chunks to `sink` in one `write_vectored` call, so
    /// a response's prefix and body leave together (DESIGN.md §10), then
    /// drops whatever `sink` took, across chunk boundaries. Returns the
    /// bytes written.
    fn write_to(&mut self, sink: &mut impl Write) -> std::io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); MAX_IOVECS];
        let mut n_slices = 0;
        for (slot, chunk) in slices.iter_mut().zip(&self.chunks) {
            let skip = if n_slices == 0 { self.front_written } else { 0 };
            *slot = IoSlice::new(&chunk[skip..]);
            n_slices += 1;
        }
        let written = sink.write_vectored(&slices[..n_slices])?;
        self.bytes -= written;
        let mut left = written;
        while left > 0 {
            let front = self.chunks[0].len() - self.front_written;
            if left < front {
                self.front_written += left;
                break;
            }
            left -= front;
            self.chunks.pop_front();
            self.front_written = 0;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::CallRecorder;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn enqueue_and_flush_frame_a_response() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        conn.enqueue(vec![7u8; 10]);
        assert_eq!(conn.queued_bytes(), 14);
        conn.flush().unwrap();
        assert!(conn.queue_empty());
        assert_eq!(conn.queued_bytes(), 0);
        let mut got = [0u8; 14];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got[..4], &10u32.to_le_bytes());
        assert_eq!(&got[4..], &[7u8; 10]);
    }

    #[test]
    fn a_queued_frame_leaves_in_one_write_call() {
        let body: Vec<u8> = (0..10).collect();
        let mut out = OutQueue::default();
        out.push(body.clone());
        let mut sink = CallRecorder::new(usize::MAX);
        assert_eq!(out.write_to(&mut sink).unwrap(), 14);
        assert_eq!(sink.calls, vec![14], "prefix and body in one call");
        assert_eq!(&sink.bytes[..4], &10u32.to_le_bytes());
        assert_eq!(&sink.bytes[4..], &body[..]);
        assert!(out.chunks.is_empty() && out.bytes == 0);
    }

    #[test]
    fn a_short_write_resumes_in_order_across_chunk_boundaries() {
        let (first, second): (Vec<u8>, Vec<u8>) = ((0..10).collect(), (10..16).collect());
        let mut wire = Vec::new();
        for body in [&first, &second] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        let mut out = OutQueue::default();
        out.push(first);
        out.push(second);
        // 6 bytes end inside the first body, 10 more inside the second
        // prefix; the rest then goes out in one call.
        let mut sink = CallRecorder::new(6);
        assert_eq!(out.write_to(&mut sink).unwrap(), 6);
        assert_eq!(out.bytes, wire.len() - 6);
        sink.max_per_call = 10;
        assert_eq!(out.write_to(&mut sink).unwrap(), 10);
        sink.max_per_call = usize::MAX;
        assert_eq!(out.write_to(&mut sink).unwrap(), wire.len() - 16);
        assert_eq!(sink.calls, vec![6, 10, wire.len() - 16]);
        assert_eq!(sink.bytes, wire);
        assert!(out.chunks.is_empty() && out.bytes == 0);
    }

    #[test]
    fn blocked_write_starts_the_stall_clock_and_progress_clears_it() {
        let (client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        // Overwhelm the kernel buffers: the peer never reads.
        for _ in 0..64 {
            conn.enqueue(vec![0u8; 1 << 20]);
        }
        conn.flush().unwrap();
        assert!(conn.write_blocked_since.is_some(), "full socket must block");
        assert!(!conn.queue_empty());
        // Drain the peer side; the next flush makes progress again.
        drop(std::thread::spawn(move || {
            let mut sink = std::io::sink();
            let mut client = client;
            let _ = std::io::copy(&mut client, &mut sink);
        }));
        loop {
            conn.flush().unwrap();
            if conn.queue_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(conn.write_blocked_since.is_none());
    }

    #[test]
    fn interest_reads_while_input_can_be_served_and_writes_while_queued() {
        let (_client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        assert_eq!(conn.interest(), (true, false));
        conn.enqueue(vec![7u8; 10]);
        assert_eq!(conn.interest(), (true, true));
        conn.reading_paused = true;
        assert_eq!(conn.interest(), (false, true), "no read while paused");
        conn.reading_paused = false;
        conn.peer_eof = true;
        assert_eq!(conn.interest(), (false, true), "no read after the peer's EOF");
        conn.flush().unwrap();
        assert_eq!(conn.interest(), (false, false), "no write once the queue drains");
    }

    #[test]
    fn discard_input_reads_without_feeding_the_decoder() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        conn.discard_input = true;
        client.write_all(&[1u8; 256]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut scratch = vec![0u8; 64];
        assert!(matches!(conn.read_some(&mut scratch), Ok(ReadOutcome::Progress)));
        assert_eq!(conn.decoder.buffered(), 0);
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(conn.read_some(&mut scratch), Ok(ReadOutcome::Eof)));
    }
}
