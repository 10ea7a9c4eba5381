//! The serving engine: a `poll(2)` loop sharded across `cfg.threads`
//! threads, answering every request through the server's one response
//! path (`serve_request`).
//!
//! Layout: [`sys`] holds the zero-dependency foreign calls (`poll`, the
//! accept backlog) and the wake channel, [`conn`] the per-connection state
//! machine, and [`shard`] the event loop, accept/dispatch, and shutdown
//! choreography. See `DESIGN.md` §15 for the architecture
//! rationale.

mod conn;
mod shard;
// The two foreign calls are the only `unsafe` code this crate allows
// (DESIGN.md §7).
#[allow(unsafe_code)]
pub(crate) mod sys;

pub(crate) use shard::run;
