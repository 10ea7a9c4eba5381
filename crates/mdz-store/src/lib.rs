//! mdz-store: a random-access indexed trajectory store and query server for
//! MDZ archives.
//!
//! The MDZ pipeline is stream-oriented: VQT/MT predictors chain each buffer
//! to its predecessors, so a plain archive only decodes front to back. This
//! crate makes stored trajectories *seekable* and *servable*:
//!
//! * **Indexed archives** ([`archive`]) — container version 2 re-anchors the
//!   compressor every `epoch_interval` buffers and appends a checksummed
//!   footer index of block offsets, so reading any frame costs at most its
//!   epoch's anchor block plus its own block instead of the whole prefix.
//!   Version-1 archives still open (as a single epoch).
//! * **Random-access reads** ([`reader`]) — [`StoreReader::read_frames`]
//!   maps a frame range to the buffers it touches, decodes through an LRU
//!   cache of decoded buffers, and records into a shared metrics [`Registry`]
//!   (core counters also surface as a [`StatsSnapshot`]).
//! * **Serving** ([`server`], [`client`], [`protocol`]) — the server answers
//!   GET/STATS/INFO/METRICS requests over a length-prefixed binary
//!   protocol on TCP from a sharded `poll(2)` event loop, with
//!   per-request decode budgets; no dependency beyond `std` and the
//!   platform C library. METRICS returns the full registry snapshot
//!   ([`MetricsSnapshot`]): request/cache/error counters plus per-request
//!   latency histograms.
//! * **Live ingest** ([`AppendSink`], [`StoreReader::refresh`],
//!   [`Follower`]) — a server started with an append sink also answers
//!   APPEND: frames are compressed server-side under the footer-flip
//!   protocol and acknowledged only once durable, the shared reader
//!   refreshes in place (cached buffers stay valid), and clients tail the
//!   growing archive with [`Client::follow`].
//! * **Crash consistency** ([`io`], [`append_store`], [`recover_store`]) —
//!   archives are appendable under a footer-flip protocol (new blocks, data
//!   sync, new footer, footer sync), all storage flows through the
//!   [`StoreIo`] trait, and a deterministic fault injector ([`FaultIo`])
//!   proves that a crash at any write leaves the archive readable as either
//!   the pre-append or post-append state. [`StoreReader::recover`] and
//!   [`verify_archive`] expose the recovery scan and a full integrity walk.
//!
//! # Example
//!
//! ```
//! use mdz_core::{ErrorBound, Frame, MdzConfig};
//! use mdz_store::{write_store, StoreOptions, StoreReader};
//!
//! let frames: Vec<Frame> = (0..32)
//!     .map(|t| {
//!         let axis: Vec<f64> = (0..10).map(|i| i as f64 + t as f64 * 1e-3).collect();
//!         Frame::new(axis.clone(), axis.clone(), axis)
//!     })
//!     .collect();
//! let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
//! opts.buffer_size = 4;
//! opts.epoch_interval = 2;
//! let archive = write_store(&frames, &[], &[], &opts).unwrap();
//! let reader = StoreReader::open(archive).unwrap();
//! let middle = reader.read_frames(10..14).unwrap();
//! assert_eq!(middle.len(), 4);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code, unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod archive;
pub mod client;
pub mod io;
#[cfg(any(target_os = "linux", target_os = "macos"))]
pub(crate) mod net;
pub mod protocol;
pub mod reader;
pub mod server;

pub use archive::{
    append_store, create_store, recover_slice, recover_store, verify_archive, write_store,
    AppendReport, ArchiveIndex, BlockEntry, Precision, RecoverReport, StoreOptions, VerifyFault,
    VerifyReport,
};
pub use client::{
    connect_with_retry, get_with_retry, with_retry, Client, ClientError, Follower, RetryPolicy,
    RetryStage,
};
pub use io::{FaultIo, FaultMode, FaultPlan, FileIo, MemIo, StoreIo};
pub use mdz_obs::{HistogramSnapshot, MetricsSnapshot, Obs, Registry};
pub use protocol::{AppendAck, FrameDecoder, FrameError, Request, Status, StoreInfo};
pub use reader::{ReaderOptions, RefreshReport, StatsSnapshot, StoreReader};
pub use server::{AppendSink, Server, ServerConfig, ServerHandle};
