//! A blocking client for the store server's protocol, with an optional
//! retry-with-backoff policy for transient failures and a tail-following
//! reader for live archives.
//!
//! Error classification drives retries: connect failures and I/O timeouts
//! are transient (the request may simply never have reached the server);
//! BUSY is the server shedding load and is retryable after a backoff;
//! every other application error (bad range, corrupt archive, protocol
//! violations, a connection dying mid-response) is *not* retried — the
//! failure is real, or retrying could observe a half-processed request.
//!
//! [`Client::follow`] turns a connection into a [`Follower`] that polls the
//! server's INFO frame count and streams newly durable frames as they land,
//! transparently reconnecting across server restarts (INFO and GET are
//! idempotent, so a retried poll can never double-deliver).

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::Duration;

use mdz_core::Frame;
use mdz_obs::{MetricsSnapshot, Obs};

use crate::archive::Precision;
use crate::protocol::{
    encode_append, frames_len, parse_append_ack, parse_frames, parse_info, parse_metrics,
    parse_stats, read_message, write_message, AppendAck, Request, Status, StoreInfo,
    GET_HEADER_LEN,
};
use crate::reader::StatsSnapshot;

/// Errors a [`Client`] can surface.
///
/// # Examples
///
/// ```
/// use mdz_store::{ClientError, Status};
///
/// let err = ClientError::Server { status: Status::OutOfRange, message: "gone".into() };
/// assert!(err.to_string().contains("OutOfRange"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The TCP connection failed, or the server hung up before its whole
    /// reply arrived; carries the rendered [`std::io::Error`].
    Io(String),
    /// An I/O operation exceeded its deadline (`TimedOut`/`WouldBlock`).
    /// Split from [`ClientError::Io`] so retry policies can treat timeouts
    /// as transient.
    Timeout(String),
    /// The server answered with a non-OK status.
    Server {
        /// The wire status code.
        status: Status,
        /// The server's human-readable message.
        message: String,
    },
    /// The server's bytes violated the protocol.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout(e) => write!(f, "i/o timeout: {e}"),
            ClientError::Server { status, message } => {
                write!(f, "server error ({status:?}): {message}")
            }
            ClientError::Protocol(w) => write!(f, "protocol violation: {w}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                ClientError::Timeout(e.to_string())
            }
            _ => ClientError::Io(e.to_string()),
        }
    }
}

/// Retry policy with decorrelated-jitter backoff.
///
/// Sleep durations follow the decorrelated-jitter scheme: each sleep is
/// drawn uniformly from `base ..= min(cap, prev * 3)`, which spreads
/// retrying clients apart instead of letting them thunder in lockstep.
/// Only transient errors are retried — see [`RetryPolicy::should_retry`].
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use mdz_store::RetryPolicy;
///
/// let policy = RetryPolicy { max_retries: 5, base: Duration::from_millis(10), ..Default::default() };
/// assert_eq!(policy.max_retries, 5);
/// ```
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Minimum (and first) backoff sleep.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter PRNG, making backoff sequences reproducible in
    /// tests. [`RetryPolicy::default`] derives one from the process.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Seed from process identity + wall clock: distinct across client
        // processes so their jitter decorrelates, without any extra deps.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        Self {
            max_retries: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: (u64::from(std::process::id()) << 32) ^ nanos,
        }
    }
}

/// Which stage of a request an error surfaced in; connect-stage I/O errors
/// are transient (nothing was sent), request-stage ones may not be.
///
/// # Examples
///
/// ```
/// use mdz_store::{ClientError, RetryPolicy, RetryStage};
///
/// let io = ClientError::Io("refused".into());
/// let policy = RetryPolicy::default();
/// assert!(policy.should_retry(&io, RetryStage::Connect));
/// assert!(!policy.should_retry(&io, RetryStage::Request));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryStage {
    /// Establishing the TCP connection.
    Connect,
    /// Sending the request / reading the response.
    Request,
}

impl RetryPolicy {
    /// A policy that never retries.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_store::RetryPolicy;
    ///
    /// assert_eq!(RetryPolicy::none().max_retries, 0);
    /// ```
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..Default::default() }
    }

    /// Whether `err`, surfaced at `stage`, is worth retrying.
    ///
    /// Retryable: any connect-stage I/O error, timeouts at either stage,
    /// and BUSY (the server shed load; backing off is what it asked for).
    /// Never retried: application errors (`Server` with any other status),
    /// protocol violations, and request-stage I/O errors such as a server
    /// hanging up before or during its reply — the server may have already
    /// acted on the request.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_store::{ClientError, RetryPolicy, RetryStage, Status};
    ///
    /// let policy = RetryPolicy::default();
    /// let busy = ClientError::Server { status: Status::Busy, message: String::new() };
    /// assert!(policy.should_retry(&busy, RetryStage::Request));
    /// assert!(!policy.should_retry(&ClientError::Protocol("x"), RetryStage::Request));
    /// ```
    pub fn should_retry(&self, err: &ClientError, stage: RetryStage) -> bool {
        match err {
            ClientError::Timeout(_) | ClientError::Server { status: Status::Busy, .. } => true,
            ClientError::Io(_) => stage == RetryStage::Connect,
            ClientError::Server { .. } | ClientError::Protocol(_) => false,
        }
    }
}

/// splitmix64: the tiny deterministic PRNG behind the backoff jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decorrelated-jitter state: yields each backoff sleep in turn.
struct Backoff {
    policy_base: Duration,
    policy_cap: Duration,
    prev: Duration,
    rng: u64,
}

impl Backoff {
    fn new(policy: &RetryPolicy) -> Self {
        let base = policy.base.max(Duration::from_millis(1));
        Backoff {
            policy_base: base,
            policy_cap: policy.cap.max(base),
            prev: base,
            rng: policy.seed,
        }
    }

    fn next_sleep(&mut self) -> Duration {
        let lo = self.policy_base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let span = hi - lo;
        let nanos = lo + splitmix64(&mut self.rng) % span;
        let sleep = Duration::from_nanos(nanos).min(self.policy_cap);
        self.prev = sleep;
        sleep
    }
}

/// Runs `attempt` under `policy`, sleeping with decorrelated jitter between
/// retries. Each attempt reports errors tagged with the [`RetryStage`] they
/// surfaced in; non-retryable errors propagate immediately. Retries are
/// counted on `obs` as `client.retries`.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use mdz_store::{with_retry, ClientError, Obs, RetryPolicy, RetryStage};
///
/// let policy = RetryPolicy { max_retries: 3, base: Duration::from_millis(1), ..Default::default() };
/// let mut calls = 0;
/// let out = with_retry(&policy, &Obs::noop(), || {
///     calls += 1;
///     if calls < 2 { Err((RetryStage::Connect, ClientError::Timeout("slow".into()))) } else { Ok(calls) }
/// });
/// assert_eq!(out.unwrap(), 2);
/// ```
pub fn with_retry<T>(
    policy: &RetryPolicy,
    obs: &Obs,
    mut attempt: impl FnMut() -> Result<T, (RetryStage, ClientError)>,
) -> Result<T, ClientError> {
    let mut backoff = Backoff::new(policy);
    let mut tries_left = policy.max_retries;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err((stage, err)) => {
                if tries_left == 0 || !policy.should_retry(&err, stage) {
                    return Err(err);
                }
                tries_left -= 1;
                obs.incr("client.retries", 1);
                std::thread::sleep(backoff.next_sleep());
            }
        }
    }
}

/// Connects under `policy`, retrying transient connect failures.
///
/// # Examples
///
/// ```no_run
/// use mdz_store::{connect_with_retry, Obs, RetryPolicy};
///
/// let client = connect_with_retry("127.0.0.1:7979", &RetryPolicy::default(), &Obs::noop())?;
/// # Ok::<(), mdz_store::ClientError>(())
/// ```
pub fn connect_with_retry(
    addr: impl ToSocketAddrs,
    policy: &RetryPolicy,
    obs: &Obs,
) -> Result<Client, ClientError> {
    with_retry(policy, obs, || Client::connect(&addr).map_err(|e| (RetryStage::Connect, e)))
}

/// Fetches `range` under `policy`, opening a fresh connection per attempt
/// (GET is idempotent, and a failed connection cannot be reused). Retries
/// connect errors, timeouts, and BUSY per the policy; application errors
/// and mid-response disconnects propagate immediately.
///
/// # Examples
///
/// ```no_run
/// use mdz_store::{get_with_retry, Obs, RetryPolicy};
///
/// let frames = get_with_retry("127.0.0.1:7979", 0..10, &RetryPolicy::default(), &Obs::noop())?;
/// assert_eq!(frames.len(), 10);
/// # Ok::<(), mdz_store::ClientError>(())
/// ```
pub fn get_with_retry(
    addr: impl ToSocketAddrs,
    range: Range<usize>,
    policy: &RetryPolicy,
    obs: &Obs,
) -> Result<Vec<Frame>, ClientError> {
    with_retry(policy, obs, || {
        let mut client = Client::connect(&addr).map_err(|e| (RetryStage::Connect, e))?;
        client.get(range.clone()).map_err(|e| (RetryStage::Request, e))
    })
}

/// A connected server client. One request is in flight at a time; reconnect
/// by constructing a new client.
///
/// # Examples
///
/// ```no_run
/// use mdz_store::Client;
///
/// let mut client = Client::connect("127.0.0.1:7979")?;
/// let info = client.info()?;
/// let tail = client.get(info.n_frames as usize - 1..info.n_frames as usize)?;
/// assert_eq!(tail.len(), 1);
/// # Ok::<(), mdz_store::ClientError>(())
/// ```
pub struct Client {
    stream: TcpStream,
    max_response_bytes: usize,
}

/// The per-client settings a reconnect must re-apply: the socket deadlines
/// set through [`Client::set_timeouts`] and the response-size cap.
#[derive(Debug, Clone, Copy)]
struct Settings {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_response_bytes: usize,
}

impl Default for Settings {
    fn default() -> Self {
        Settings { read_timeout: None, write_timeout: None, max_response_bytes: 1 << 28 }
    }
}

impl Client {
    /// Connects to a running server.
    ///
    /// The socket sets `TCP_NODELAY`: each request is one small write that
    /// waits for its reply, and with Nagle's algorithm on it could sit
    /// ~40 ms in the send buffer waiting for the server's delayed ACK.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let client = Client::connect("127.0.0.1:7979")?;
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with(addr, Settings::default())
    }

    /// Connects and applies `settings` to the new socket.
    fn connect_with(addr: impl ToSocketAddrs, settings: Settings) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(settings.read_timeout)?;
        stream.set_write_timeout(settings.write_timeout)?;
        Ok(Client { stream, max_response_bytes: settings.max_response_bytes })
    }

    /// This client's settings; the deadlines are read back from the socket,
    /// which is where [`set_timeouts`](Self::set_timeouts) keeps them.
    fn settings(&self) -> Result<Settings, ClientError> {
        Ok(Settings {
            read_timeout: self.stream.read_timeout()?,
            write_timeout: self.stream.write_timeout()?,
            max_response_bytes: self.max_response_bytes,
        })
    }

    /// Caps how large a response body this client will read (default 256 MiB).
    /// A call whose response exceeds the cap fails with
    /// [`ClientError::Protocol`] and closes the connection, so every later
    /// call on this client fails with [`ClientError::Io`].
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let client = Client::connect("127.0.0.1:7979")?.with_max_response_bytes(1 << 20);
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn with_max_response_bytes(mut self, max: usize) -> Client {
        self.max_response_bytes = max;
        self
    }

    /// Applies read/write deadlines to the underlying socket, so a stalled
    /// server surfaces as [`ClientError::Timeout`] instead of hanging.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use std::time::Duration;
    /// use mdz_store::Client;
    ///
    /// let client = Client::connect("127.0.0.1:7979")?;
    /// client.set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))?;
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<(), ClientError> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)?;
        Ok(())
    }

    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, ClientError> {
        write_message(&mut self.stream, request)?;
        let body = read_message(&mut self.stream, self.max_response_bytes)
            .map_err(|e| match e.kind() {
                // `read_message` refuses a body past the budget with
                // `InvalidData`. Sending the request again gets the same
                // body, so this is not a transient I/O error. The body is
                // still on the socket, where the next reply would be read
                // from, so the connection ends: every later call on this
                // client fails with an I/O error.
                std::io::ErrorKind::InvalidData => {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    ClientError::Protocol("response exceeds the client's max_response_bytes")
                }
                _ => e.into(),
            })?
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before its reply",
                )
            })?;
        match body.first().copied().and_then(Status::from_byte) {
            Some(Status::Ok) => Ok(body),
            Some(status) => Err(ClientError::Server {
                status,
                message: String::from_utf8_lossy(&body[1..]).into_owned(),
            }),
            None => Err(ClientError::Protocol("unknown response status")),
        }
    }

    /// Fetches the frames in `range` (end-exclusive).
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let mut client = Client::connect("127.0.0.1:7979")?;
    /// let frames = client.get(0..4)?;
    /// assert_eq!(frames.len(), 4);
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn get(&mut self, range: Range<usize>) -> Result<Vec<Frame>, ClientError> {
        let request = Request::Get { start: range.start as u64, end: range.end as u64 };
        let body = self.round_trip(&request.encode())?;
        let (start, frames) = parse_frames(&body).map_err(ClientError::Protocol)?;
        if start != range.start as u64 || frames.len() != range.len() {
            return Err(ClientError::Protocol("response range disagrees with request"));
        }
        Ok(frames)
    }

    /// Fetches the server's counters.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let mut client = Client::connect("127.0.0.1:7979")?;
    /// println!("requests served: {}", client.stats()?.requests);
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let body = self.round_trip(&Request::Stats.encode())?;
        parse_stats(&body).map_err(ClientError::Protocol)
    }

    /// Fetches the served archive's metadata.
    ///
    /// On a live archive the frame count grows between calls; poll this (or
    /// use [`follow`](Self::follow)) to watch for newly durable frames.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let mut client = Client::connect("127.0.0.1:7979")?;
    /// let info = client.info()?;
    /// println!("{} frames x {} atoms", info.n_frames, info.n_atoms);
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn info(&mut self) -> Result<StoreInfo, ClientError> {
        let body = self.round_trip(&Request::Info.encode())?;
        parse_info(&body).map_err(ClientError::Protocol)
    }

    /// Fetches a full metrics snapshot (counters, gauges, histograms).
    ///
    /// The snapshot is taken before the server accounts for the METRICS
    /// request itself, so the returned counters cover every *prior*
    /// request.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let mut client = Client::connect("127.0.0.1:7979")?;
    /// let snap = client.metrics()?;
    /// println!("{}", snap.render_text());
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let body = self.round_trip(&Request::Metrics.encode())?;
        parse_metrics(&body).map_err(ClientError::Protocol)
    }

    /// Appends `frames` to the served archive (live servers only).
    ///
    /// `precision` selects the wire encoding — use [`Precision::F32`]
    /// against an archive created with `--f32` (the server rejects a
    /// mismatch). The returned [`AppendAck`] is a durability
    /// acknowledgment: the server replies only after the appended frames
    /// are synced under a fresh footer, so an acked frame survives a
    /// server crash. On error nothing may be assumed — the append either
    /// never happened or was recovered away; re-check [`info`](Self::info)
    /// before resending (APPEND is not idempotent).
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_core::Frame;
    /// use mdz_store::{Client, Precision};
    ///
    /// let mut client = Client::connect("127.0.0.1:7979")?;
    /// let frame = Frame::new(vec![1.0], vec![2.0], vec![3.0]);
    /// let ack = client.append(&[frame], Precision::F64)?;
    /// println!("archive now holds {} frames", ack.n_frames);
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn append(
        &mut self,
        frames: &[Frame],
        precision: Precision,
    ) -> Result<AppendAck, ClientError> {
        let body = self.round_trip(&encode_append(precision, frames))?;
        parse_append_ack(&body).map_err(ClientError::Protocol)
    }

    /// Turns this connection into a [`Follower`] that streams frames from
    /// `from_frame` onward, polling for newly durable frames as the
    /// archive grows. Reconnects re-apply this client's timeouts and
    /// response cap.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdz_core::{ErrorBound, Frame, MdzConfig};
    /// use mdz_store::{
    ///     write_store, AppendSink, Client, MemIo, Precision, Server, ServerConfig,
    ///     StoreOptions, StoreReader,
    /// };
    ///
    /// let frames: Vec<Frame> = (0..8)
    ///     .map(|t| {
    ///         let axis: Vec<f64> = (0..4).map(|i| i as f64 + t as f64 * 1e-3).collect();
    ///         Frame::new(axis.clone(), axis.clone(), axis)
    ///     })
    ///     .collect();
    /// let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    /// opts.buffer_size = 4;
    /// opts.epoch_interval = 2;
    /// let archive = write_store(&frames[..4], &[], &[], &opts).unwrap();
    ///
    /// // A live server: the sink is a MemIo copy of the served archive.
    /// let reader = StoreReader::open(archive.clone()).unwrap();
    /// let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default())
    ///     .unwrap()
    ///     .with_append_sink(AppendSink::new(Box::new(MemIo::new(archive)), opts));
    /// let addr = server.local_addr().unwrap();
    /// let handle = server.handle().unwrap();
    /// let serving = std::thread::spawn(move || server.run());
    ///
    /// // Appended frames become visible to a follower started at frame 0.
    /// let mut producer = Client::connect(addr).unwrap();
    /// producer.append(&frames[4..], Precision::F64).unwrap();
    /// let mut follower = Client::connect(addr).unwrap().follow(0).unwrap();
    /// let mut seen = Vec::new();
    /// while seen.len() < 8 {
    ///     seen.extend(follower.next_batch().unwrap());
    /// }
    /// assert_eq!(follower.position(), 8);
    ///
    /// handle.shutdown();
    /// serving.join().unwrap().unwrap();
    /// ```
    pub fn follow(self, from_frame: usize) -> Result<Follower, ClientError> {
        let addr = self.stream.peer_addr()?;
        Ok(Follower {
            addr,
            settings: self.settings()?,
            conn: Some(self),
            next: from_frame,
            poll_interval: Duration::from_millis(100),
            obs: Obs::noop(),
        })
    }
}

/// The most frames one [`Follower::next_batch`] fetches, bounding response
/// sizes against the server's per-request limits.
const FOLLOW_MAX_BATCH: usize = 4096;

/// How many frames of `n_atoms` atoms one GET may ask for so that its
/// response body (the GET header, then each frame's f64 payload) fits a
/// client's `max_response_bytes`: at least 1, at most
/// [`FOLLOW_MAX_BATCH`]. A frame too large for the budget is still asked
/// for, and the refusal surfaces as an error.
fn follow_batch(max_response_bytes: usize, n_atoms: usize) -> usize {
    let frame = frames_len(1, n_atoms, Precision::F64).unwrap_or(usize::MAX);
    let fits = max_response_bytes.saturating_sub(GET_HEADER_LEN).checked_div(frame);
    fits.unwrap_or(FOLLOW_MAX_BATCH).clamp(1, FOLLOW_MAX_BATCH)
}

/// A tail-following reader over a live archive: repeatedly polls the
/// server's frame count and fetches whatever landed past its position.
///
/// Followers only ever observe durable frames — the server publishes a
/// frame only once its footer is synced — so the stream a follower emits is
/// a monotonically growing, bit-exact prefix of the archive's offline
/// decode, across server crashes and restarts included. Transient failures
/// (connection refused while the server restarts, timeouts, BUSY shedding)
/// are absorbed by reconnecting and re-polling; real application errors
/// propagate.
///
/// Construct with [`Client::follow`]; see there for a runnable example.
pub struct Follower {
    addr: SocketAddr,
    /// Settings of the client the follower was made from, re-applied on
    /// every reconnect.
    settings: Settings,
    conn: Option<Client>,
    next: usize,
    poll_interval: Duration,
    obs: Obs,
}

impl Follower {
    /// Sets how long [`next_batch`](Self::next_batch) sleeps between polls
    /// when no new frames are available (default 100 ms).
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use std::time::Duration;
    /// use mdz_store::Client;
    ///
    /// let follower = Client::connect("127.0.0.1:7979")?
    ///     .follow(0)?
    ///     .with_poll_interval(Duration::from_millis(250));
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn with_poll_interval(mut self, interval: Duration) -> Follower {
        self.poll_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Attaches a recorder: polls, reconnects, and delivered frames are
    /// counted as `client.follow.*`.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::{Client, Obs};
    ///
    /// let follower = Client::connect("127.0.0.1:7979")?.follow(0)?.with_obs(Obs::noop());
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn with_obs(mut self, obs: Obs) -> Follower {
        self.obs = obs;
        self
    }

    /// The index of the next frame this follower will deliver: everything
    /// before it has already been returned by
    /// [`next_batch`](Self::next_batch).
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mdz_store::Client;
    ///
    /// let follower = Client::connect("127.0.0.1:7979")?.follow(42)?;
    /// assert_eq!(follower.position(), 42);
    /// # Ok::<(), mdz_store::ClientError>(())
    /// ```
    pub fn position(&self) -> usize {
        self.next
    }

    /// Blocks until new durable frames are available past
    /// [`position`](Self::position), then returns them and advances. A
    /// batch holds at most 4096 frames, and no more than fit the client's
    /// response budget ([`Client::with_max_response_bytes`]).
    ///
    /// Transient errors — the server restarting, timeouts, BUSY — are
    /// retried indefinitely at the poll cadence (the follower is a tailing
    /// process; callers bound it by frame count or by dropping it). Fatal
    /// errors (corrupt archive, protocol violations, a single frame larger
    /// than the response budget) propagate.
    pub fn next_batch(&mut self) -> Result<Vec<Frame>, ClientError> {
        loop {
            match self.try_advance() {
                Ok(Some(frames)) => {
                    self.obs.incr("client.follow.frames", frames.len() as u64);
                    return Ok(frames);
                }
                Ok(None) => {
                    self.obs.incr("client.follow.polls_empty", 1);
                    std::thread::sleep(self.poll_interval);
                }
                Err(e) if is_transient_for_follow(&e) => {
                    self.conn = None;
                    self.obs.incr("client.follow.reconnects", 1);
                    std::thread::sleep(self.poll_interval);
                }
                Err(e) => {
                    // The connection may hold the unread rest of a response.
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }

    /// One poll step: INFO, then a GET if the archive has grown. `None`
    /// means no new frames yet. INFO and GET are idempotent, so a failure
    /// here can be retried without double-delivering.
    fn try_advance(&mut self) -> Result<Option<Vec<Frame>>, ClientError> {
        let next = self.next;
        let client = self.connection()?;
        let info = client.info()?;
        let available = info.n_frames as usize;
        if available <= next {
            return Ok(None);
        }
        let batch = follow_batch(client.max_response_bytes, info.n_atoms as usize);
        let end = available.min(next + batch);
        let frames = client.get(next..end)?;
        self.next = end;
        Ok(Some(frames))
    }

    /// The live connection, reconnecting with the original client's
    /// settings if the last one was dropped.
    fn connection(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with(self.addr, self.settings)?);
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }
}

/// Whether a follower should absorb `err` by reconnecting: its requests are
/// idempotent reads, so even a server hanging up before or during its reply
/// (the server was killed) is safe to retry — unlike the general client
/// policy.
fn is_transient_for_follow(err: &ClientError) -> bool {
    matches!(
        err,
        ClientError::Io(_)
            | ClientError::Timeout(_)
            | ClientError::Server { status: Status::Busy, .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_disables_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
    }

    #[test]
    fn follower_reconnect_keeps_client_settings() {
        // The listener never answers: a stalled server.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client =
            Client::connect(listener.local_addr().unwrap()).unwrap().with_max_response_bytes(4096);
        let (read, write) = (Duration::from_millis(100), Duration::from_millis(300));
        client.set_timeouts(Some(read), Some(write)).unwrap();
        let original = client.settings().unwrap();
        let mut follower = client.follow(0).unwrap();
        follower.conn = None; // what a transient error leaves behind

        let conn = follower.connection().unwrap();
        assert_eq!(conn.stream.read_timeout().unwrap(), original.read_timeout);
        assert_eq!(conn.stream.write_timeout().unwrap(), original.write_timeout);
        assert_eq!(conn.max_response_bytes, original.max_response_bytes);
        assert!(conn.stream.nodelay().unwrap());
        // The reconnected follower times out on the stalled server instead
        // of hanging.
        assert!(matches!(follower.try_advance(), Err(ClientError::Timeout(_))));
    }

    #[test]
    fn follow_batch_fits_the_response_budget() {
        // 8 atoms: 192 bytes a frame after the 25-byte header.
        assert_eq!(follow_batch(4096, 8), 21);
        assert_eq!(follow_batch(25 + 192, 8), 1);
        assert_eq!(follow_batch(100, 8), 1, "at least one frame");
        assert_eq!(follow_batch(1 << 28, 8), FOLLOW_MAX_BATCH);
        assert_eq!(follow_batch(1 << 28, 3341), 3347, "a paper-sized ADK frame");
        assert_eq!(follow_batch(4096, 0), FOLLOW_MAX_BATCH);
    }

    #[test]
    fn io_errors_classify_timeouts() {
        let t: ClientError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(t, ClientError::Timeout(_)));
        let io: ClientError =
            std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "no").into();
        assert!(matches!(io, ClientError::Io(_)));
    }

    #[test]
    fn retry_classification_matches_policy() {
        let policy = RetryPolicy::default();
        let timeout = ClientError::Timeout("t".into());
        let io = ClientError::Io("i".into());
        let busy = ClientError::Server { status: Status::Busy, message: String::new() };
        let corrupt = ClientError::Server { status: Status::Corrupt, message: String::new() };
        assert!(policy.should_retry(&timeout, RetryStage::Connect));
        assert!(policy.should_retry(&timeout, RetryStage::Request));
        assert!(policy.should_retry(&io, RetryStage::Connect));
        assert!(!policy.should_retry(&io, RetryStage::Request));
        assert!(policy.should_retry(&busy, RetryStage::Request));
        assert!(!policy.should_retry(&corrupt, RetryStage::Request));
        assert!(!policy.should_retry(&ClientError::Protocol("x"), RetryStage::Request));
    }

    #[test]
    fn follower_transient_classification_covers_restarts() {
        // Everything a dying-and-restarting server can throw at a follower
        // is absorbed: a hang-up before or during a reply is `Io` like a
        // refused connect. Protocol violations and application errors are
        // not.
        assert!(is_transient_for_follow(&ClientError::Io("refused".into())));
        let hang_up = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
        assert!(is_transient_for_follow(&ClientError::from(hang_up)));
        assert!(is_transient_for_follow(&ClientError::Timeout("t".into())));
        assert!(is_transient_for_follow(&ClientError::Server {
            status: Status::Busy,
            message: String::new()
        }));
        assert!(!is_transient_for_follow(&ClientError::Protocol("unknown response status")));
        assert!(!is_transient_for_follow(&ClientError::Protocol(
            "response exceeds the client's max_response_bytes"
        )));
        assert!(!is_transient_for_follow(&ClientError::Server {
            status: Status::Corrupt,
            message: String::new()
        }));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_decorrelated() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed: 0x6d64_7a00,
        };
        let sleeps: Vec<Duration> = {
            let mut b = Backoff::new(&policy);
            (0..8).map(|_| b.next_sleep()).collect()
        };
        let again: Vec<Duration> = {
            let mut b = Backoff::new(&policy);
            (0..8).map(|_| b.next_sleep()).collect()
        };
        assert_eq!(sleeps, again, "same seed, same schedule");
        for s in &sleeps {
            assert!(*s >= policy.base && *s <= policy.cap, "{s:?} out of bounds");
        }
        // A different seed must produce a different schedule.
        let other = Backoff::new(&RetryPolicy { seed: 1, ..policy.clone() });
        let other: Vec<Duration> = {
            let mut b = other;
            (0..8).map(|_| b.next_sleep()).collect()
        };
        assert_ne!(sleeps, other, "seeds decorrelate schedules");
    }

    #[test]
    fn with_retry_stops_on_fatal_and_counts_retries() {
        let registry = std::sync::Arc::new(mdz_obs::Registry::new());
        let obs =
            Obs::new(std::sync::Arc::clone(&registry) as std::sync::Arc<dyn mdz_obs::Recorder>);
        let policy = RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 7,
        };
        // Two transient failures, then success.
        let mut calls = 0;
        let out = with_retry(&policy, &obs, || {
            calls += 1;
            if calls < 3 {
                Err((RetryStage::Connect, ClientError::Timeout("t".into())))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(registry.counter("client.retries"), 2);
        // A fatal error stops immediately.
        let mut calls = 0;
        let out: Result<(), _> = with_retry(&policy, &obs, || {
            calls += 1;
            Err((RetryStage::Request, ClientError::Protocol("broken")))
        });
        assert!(matches!(out, Err(ClientError::Protocol(_))));
        assert_eq!(calls, 1);
        assert_eq!(registry.counter("client.retries"), 2, "fatal errors are not retried");
    }
}
