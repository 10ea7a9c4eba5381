//! `mdzd` — serve an MDZ archive over TCP.
//!
//! ```text
//! mdzd <archive.mdz> [addr] [--threads N | --shards N] [--cache-epochs N]
//!      [--max-conns N] [--read-timeout-ms N] [--write-timeout-ms N] [--idle-timeout-ms N]
//!      [--drain-poll-ms N] [--live [--eps REL | --abs ABS] [--f32]]
//! ```
//!
//! `addr` defaults to `127.0.0.1:7979`. The process serves until killed.
//! The archive is opened through the crash-recovery scan, so a file left
//! with a torn append (garbage after the last valid footer) still serves
//! its published frames. Without `--live` the on-disk file is not
//! modified (run `mdz recover` to truncate a torn tail).
//!
//! `--live` enables the APPEND verb: clients stream raw frames, the
//! server compresses them under the given error bound (value-range
//! relative 1e-3 by default) and appends to the archive file under the
//! crash-safe footer-flip protocol, acknowledging only once the new
//! footer is synced. Followers (`mdz follow`) see appended frames as soon
//! as they are durable.
//!
//! Connections are served by a sharded non-blocking event loop (epoll on
//! Linux, kqueue on macOS; other targets cannot serve): `--threads` (alias
//! `--shards`) sets the shard count, and each shard multiplexes
//! thousands of pipelined connections.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mdz_core::{ErrorBound, MdzConfig};
use mdz_store::{
    AppendSink, FileIo, Precision, ReaderOptions, Registry, Server, ServerConfig, StoreOptions,
    StoreReader,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mdzd: {msg}");
            eprintln!(
                "usage: mdzd <archive.mdz> [addr] [--threads N | --shards N] [--cache-epochs N] \
                 [--max-conns N] [--read-timeout-ms N] [--write-timeout-ms N] \
                 [--idle-timeout-ms N] [--drain-poll-ms N] \
                 [--live [--eps REL | --abs ABS] [--f32]]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut archive = None;
    let mut addr = "127.0.0.1:7979".to_string();
    let mut cfg = ServerConfig::default();
    let mut reader_opts = ReaderOptions::default();
    let mut live = false;
    let mut eps = None;
    let mut abs = None;
    let mut f32_source = false;
    let mut args = std::env::args().skip(1);
    fn take_usize(args: &mut impl Iterator<Item = String>, what: &str) -> Result<usize, String> {
        args.next()
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or(format!("{what} needs a positive integer"))
    }
    fn take_f64(args: &mut impl Iterator<Item = String>, what: &str) -> Result<f64, String> {
        args.next().and_then(|v| v.parse::<f64>().ok()).ok_or(format!("{what} needs a number"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // --shards names the same knob: one event loop per thread.
            "--threads" | "--shards" => cfg.threads = take_usize(&mut args, &arg)?,
            "--cache-epochs" => reader_opts.cache_epochs = take_usize(&mut args, "--cache-epochs")?,
            "--max-conns" => cfg.max_connections = take_usize(&mut args, "--max-conns")?,
            "--read-timeout-ms" => {
                cfg.read_timeout =
                    Duration::from_millis(take_usize(&mut args, "--read-timeout-ms")? as u64)
            }
            "--write-timeout-ms" => {
                cfg.write_timeout =
                    Duration::from_millis(take_usize(&mut args, "--write-timeout-ms")? as u64)
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout =
                    Duration::from_millis(take_usize(&mut args, "--idle-timeout-ms")? as u64)
            }
            "--drain-poll-ms" => {
                cfg.drain_poll =
                    Duration::from_millis(take_usize(&mut args, "--drain-poll-ms")? as u64)
            }
            "--live" => live = true,
            "--eps" => eps = Some(take_f64(&mut args, "--eps")?),
            "--abs" => abs = Some(take_f64(&mut args, "--abs")?),
            "--f32" => f32_source = true,
            other if archive.is_none() => archive = Some(other.to_string()),
            other => addr = other.to_string(),
        }
    }
    let path = archive.ok_or("missing archive path")?;
    let data = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
    let (reader, report) =
        StoreReader::recover_with_registry(data, reader_opts, Arc::new(Registry::new()))
            .map_err(|e| format!("open {path}: {e}"))?;
    if report.truncated_bytes > 0 {
        eprintln!(
            "mdzd: {path} has a torn tail: serving the {} valid bytes, ignoring {} garbage \
             bytes (run `mdz recover` to repair the file)",
            report.valid_len, report.truncated_bytes
        );
    }
    let idx = reader.index();
    eprintln!(
        "mdzd: serving {path} (v{}, {} frames × {} atoms, {} blocks, {} epochs)",
        idx.version,
        idx.n_frames,
        idx.n_atoms,
        idx.blocks.len(),
        idx.n_epochs()
    );
    let mut server = Server::bind(reader, &addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    if live {
        // Compression config for server-side appends; the archive's own
        // geometry (buffer size, epoch interval) always wins.
        let bound = match (abs, eps) {
            (Some(a), _) => ErrorBound::Absolute(a),
            (None, Some(r)) => ErrorBound::ValueRangeRelative(r),
            (None, None) => ErrorBound::ValueRangeRelative(1e-3),
        };
        let mut opts = StoreOptions::new(MdzConfig::new(bound));
        opts.precision = if f32_source { Precision::F32 } else { Precision::F64 };
        let io = FileIo::open(&path).map_err(|e| format!("opening {path} for append: {e}"))?;
        server = server.with_append_sink(AppendSink::new(Box::new(io), opts));
        eprintln!("mdzd: live ingest enabled (APPEND accepted, bound {bound:?})");
    }
    eprintln!("mdzd: listening on {}", server.local_addr().map_err(|e| e.to_string())?);
    server.run().map_err(|e| e.to_string())
}
