//! The serving engine: a raw-syscall epoll/kqueue reactor sharded across
//! `cfg.threads` threads, answering every request through the server's one
//! response path (`serve_request`).
//!
//! Layout: [`sys`] holds the zero-dependency syscall bindings (poller,
//! wake pipe, accept backlog), [`conn`] the per-connection state machine,
//! and [`shard`] the event loop, accept/dispatch, and shutdown
//! choreography. See `DESIGN.md` §15 for the architecture
//! rationale.

mod conn;
mod shard;
pub(crate) mod sys;

pub(crate) use shard::run;
