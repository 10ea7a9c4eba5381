//! `mdz` — command-line trajectory compressor.
//!
//! ```text
//! mdz store      <in.xyz> <out.mdz> [--bs N] [--epoch K] [--f32] [bound/method flags]
//! mdz compress   <in.xyz> <out.mdz> …          # same as store
//! mdz decompress <in.mdz> <out.xyz>
//! mdz info       <in.mdz>
//! mdz extract    <in.mdz> <frame-index>
//! mdz verify     <archive.mdz>                 # integrity walk (every checksum)
//! mdz verify     <original.xyz> <compressed.mdz>  # error-bound check
//! mdz gen        <dataset> <out.xyz> [--scale test|small|full] [--seed N]
//! mdz append     <archive.mdz> <in.xyz> [--f32] [bound/method flags]
//! mdz append     --remote <addr> <in.xyz> [--f32] [--retries N]
//! mdz recover    <archive.mdz>
//! mdz get        <in.mdz> <start..end>
//! mdz serve      <in.mdz> <addr> [--threads N] [--max-conns N] [--read-timeout-ms N]
//!                [--write-timeout-ms N] [--idle-timeout-ms N] [--live [bound/method flags]]
//! mdz query      <addr> <start..end> [--retries N]
//! mdz follow     <addr> [from] [--until N] [--poll-ms N]
//! mdz stats      <addr> [--metrics [--json]]
//! ```
//!
//! `store` (or `compress`) writes the indexed container version 2 (epoch
//! re-anchors + footer index); `get` and `extract` random-access-read it
//! locally; `serve`/`query`/`stats` speak the store's TCP protocol. Every
//! subcommand that reads an archive also opens version 1, as a single
//! epoch. `stats --metrics` fetches the server's full
//! metrics snapshot (counters, gauges, latency histograms) via the
//! METRICS verb; `--json` emits it as schema-tagged JSON instead of the
//! aligned text table.
//!
//! `append` extends an existing v2 archive in place under the footer-flip
//! protocol (crash-safe: a torn append leaves the old archive intact);
//! with `--remote` the frames are sent to a live server (started with
//! `serve --live`) which compresses and appends them
//! server-side, acknowledging only once they are durable. `follow` tails a
//! served archive: it streams frames from `from` (default 0) as they
//! become durable, in the same layout as `get`/`query`, surviving server
//! restarts; `--until N` exits once frame N-1 has been printed.
//! One-argument `verify` walks every block and footer checksum and exits
//! non-zero at the first corrupt offset; two-argument `verify` checks every
//! decoded value against the ε of the block and axis holding it and exits
//! non-zero, naming the axis and block, on the first violation. `recover`
//! truncates a torn tail back to the last valid footer. `query --retries N`
//! retries connect and timeout failures (and BUSY responses) with
//! decorrelated-jitter backoff. `serve` opens the archive through the
//! crash-recovery scan, so an archive with a torn append still serves its
//! published frames (the file itself is only repaired by `recover`, or by
//! the first APPEND of a `--live` server). It runs the sharded `poll(2)`
//! loop with `--threads` shards on Linux and macOS; other targets cannot
//! serve. A `--live` server compresses each APPEND at the precision the
//! APPEND carries, which must match the archive's, so `--f32` does not
//! apply to `serve`.

#![forbid(unsafe_code)]

use mdz::core::{ErrorBound, Frame, MdzConfig, Method};
use mdz::sim::{datasets, DatasetKind, Scale};
use mdz::store::{
    append_store, get_with_retry, recover_store, verify_archive, ArchiveIndex, Client, FileIo,
    Precision, RetryPolicy, Server, ServerConfig, StoreOptions, StoreReader,
};
use mdz::{archive, xyz};
use std::process::exit;
use std::time::Duration;

/// Axis names in block order.
const AXES: [&str; 3] = ["x", "y", "z"];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

fn parse_method(s: &str) -> Method {
    match s.to_ascii_lowercase().as_str() {
        "vq" => Method::Vq,
        "vqt" => Method::Vqt,
        "mt" => Method::Mt,
        "mt2" => Method::Mt2,
        "adaptive" | "adp" => Method::Adaptive,
        _ => fail("unknown method (expected vq|vqt|mt|mt2|adaptive)"),
    }
}

fn parse_dataset(s: &str) -> DatasetKind {
    match s.to_ascii_lowercase().as_str() {
        "copper-a" => DatasetKind::CopperA,
        "copper-b" => DatasetKind::CopperB,
        "helium-a" => DatasetKind::HeliumA,
        "helium-b" => DatasetKind::HeliumB,
        "adk" => DatasetKind::Adk,
        "ifabp" => DatasetKind::Ifabp,
        "pt" => DatasetKind::Pt,
        "lj" => DatasetKind::Lj,
        "hacc-1" => DatasetKind::Hacc1,
        "hacc-2" => DatasetKind::Hacc2,
        _ => fail("unknown dataset (try copper-b, helium-b, adk, lj, …)"),
    }
}

struct Opts {
    positional: Vec<String>,
    eps: Option<f64>,
    abs: Option<f64>,
    bs: usize,
    method: Method,
    scale: Scale,
    seed: u64,
    epoch: usize,
    f32: bool,
    server: ServerConfig,
    metrics: bool,
    json: bool,
    retries: Option<u32>,
    remote: Option<String>,
    live: bool,
    until: Option<usize>,
    poll_ms: u64,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        positional: Vec::new(),
        eps: None,
        abs: None,
        bs: 10,
        method: Method::Adaptive,
        scale: Scale::Small,
        seed: 20220707,
        epoch: 8,
        f32: false,
        server: ServerConfig::default(),
        metrics: false,
        json: false,
        retries: None,
        remote: None,
        live: false,
        until: None,
        poll_ms: 100,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--eps" => o.eps = Some(value("--eps").parse().unwrap_or_else(|_| fail("bad --eps"))),
            "--abs" => o.abs = Some(value("--abs").parse().unwrap_or_else(|_| fail("bad --abs"))),
            "--bs" => o.bs = value("--bs").parse().unwrap_or_else(|_| fail("bad --bs")),
            "--method" => o.method = parse_method(&value("--method")),
            "--epoch" => o.epoch = value("--epoch").parse().unwrap_or_else(|_| fail("bad --epoch")),
            "--f32" => o.f32 = true,
            "--metrics" => o.metrics = true,
            "--json" => o.json = true,
            "--retries" => {
                o.retries =
                    Some(value("--retries").parse().unwrap_or_else(|_| fail("bad --retries")))
            }
            "--remote" => o.remote = Some(value("--remote")),
            "--live" => o.live = true,
            "--until" => {
                o.until = Some(value("--until").parse().unwrap_or_else(|_| fail("bad --until")))
            }
            "--poll-ms" => {
                o.poll_ms = value("--poll-ms").parse().unwrap_or_else(|_| fail("bad --poll-ms"))
            }
            "--threads" => {
                o.server.threads = value(a).parse().unwrap_or_else(|_| fail("bad --threads"))
            }
            "--max-conns" => {
                o.server.max_connections =
                    value(a).parse().unwrap_or_else(|_| fail("bad --max-conns"))
            }
            "--read-timeout-ms" => o.server.read_timeout = millis(a, &value(a)),
            "--write-timeout-ms" => o.server.write_timeout = millis(a, &value(a)),
            "--idle-timeout-ms" => o.server.idle_timeout = millis(a, &value(a)),
            "--seed" => o.seed = value("--seed").parse().unwrap_or_else(|_| fail("bad --seed")),
            "--scale" => {
                o.scale = match value("--scale").as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => fail("bad --scale (test|small|full)"),
                }
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    o
}

/// Parses a millisecond count given to `flag`.
fn millis(flag: &str, v: &str) -> Duration {
    Duration::from_millis(v.parse().unwrap_or_else(|_| fail(&format!("bad {flag}"))))
}

/// Parses a `start..end` frame range.
fn parse_range(s: &str) -> std::ops::Range<usize> {
    let Some((a, b)) = s.split_once("..") else {
        fail("range must look like <start>..<end>");
    };
    let start = a.parse().unwrap_or_else(|_| fail("bad range start"));
    let end = b.parse().unwrap_or_else(|_| fail("bad range end"));
    start..end
}

/// Chooses the error bound from `--abs` / `--eps` (value-range-relative
/// 1e-3 by default).
fn bound_from(o: &Opts) -> ErrorBound {
    match (o.abs, o.eps) {
        (Some(a), _) => ErrorBound::Absolute(a),
        (None, Some(r)) => ErrorBound::ValueRangeRelative(r),
        (None, None) => ErrorBound::ValueRangeRelative(1e-3),
    }
}

/// Prints frames in the same per-atom layout `extract` uses.
fn print_frames(start: usize, frames: &[Frame]) {
    for (off, f) in frames.iter().enumerate() {
        println!("# frame {}", start + off);
        for i in 0..f.len() {
            println!("X {:.10} {:.10} {:.10}", f.x[i], f.y[i], f.z[i]);
        }
    }
}

/// Reads and parses an XYZ trajectory file.
fn read_xyz(path: &str) -> xyz::XyzTrajectory {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    xyz::parse(&text).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")))
}

/// Reads a whole file.
fn read_file(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
}

/// Opens an archive of either container version.
fn open_archive(path: &str) -> StoreReader {
    StoreReader::open(read_file(path)).unwrap_or_else(|e| fail(&format!("opening {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: mdz <compress|decompress|info|extract|verify|gen|store|append|recover|get|serve|query|follow|stats> …");
        exit(2);
    };
    let o = parse_opts(rest);
    match cmd.as_str() {
        "decompress" => {
            let [input, output] = &o.positional[..] else {
                fail("decompress needs <in.mdz> <out.xyz>");
            };
            let traj = archive::decompress(read_file(input))
                .unwrap_or_else(|e| fail(&format!("decompressing {input}: {e}")));
            std::fs::write(output, xyz::write(&traj))
                .unwrap_or_else(|e| fail(&format!("writing {output}: {e}")));
            println!("restored {} frames × {} atoms", traj.frames.len(), traj.frames[0].len());
        }
        "info" => {
            let [input] = &o.positional[..] else {
                fail("info needs <in.mdz>");
            };
            let blob = read_file(input);
            let idx = ArchiveIndex::parse(&blob)
                .unwrap_or_else(|e| fail(&format!("opening {input}: {e}")));
            let methods = archive::method_tally(&blob, &idx)
                .unwrap_or_else(|e| fail(&format!("reading blocks: {e}")));
            let raw = idx.n_frames * idx.n_atoms * 24;
            println!("version:        {}", idx.version);
            println!("atoms:          {}", idx.n_atoms);
            println!("frames:         {}", idx.n_frames);
            println!("buffer size:    {}", idx.buffer_size);
            println!("blocks:         {}", idx.blocks.len());
            println!("epoch interval: {}", idx.epoch_interval);
            println!("epochs:         {}", idx.n_epochs());
            println!("precision:      {}", if idx.f32_source { "f32" } else { "f64" });
            println!("methods:        {methods}");
            println!(
                "size:           {} bytes ({:.1}x vs raw f64)",
                blob.len(),
                raw as f64 / blob.len() as f64
            );
        }
        "verify" => {
            // One-argument form: full integrity walk of an archive — header,
            // every block checksum, and the footer — reporting the first
            // corrupt byte offset and exiting non-zero.
            if let [archive_path] = &o.positional[..] {
                match verify_archive(&read_file(archive_path)) {
                    Ok(r) => {
                        println!(
                            "{archive_path}: ok — {} frames in {} blocks / {} epochs, {} bytes",
                            r.n_frames, r.n_blocks, r.n_epochs, r.archive_len
                        );
                        return;
                    }
                    Err(fault) => fail(&format!("{archive_path}: {fault}")),
                }
            }
            let [orig_path, mdz_path] = &o.positional[..] else {
                fail("verify needs <archive.mdz> or <original.xyz> <compressed.mdz>");
            };
            let orig = read_xyz(orig_path);
            let blob = read_file(mdz_path);
            let archive_len = blob.len();
            let idx = ArchiveIndex::parse(&blob)
                .unwrap_or_else(|e| fail(&format!("opening {mdz_path}: {e}")));
            let dec = archive::decompress(blob.clone())
                .unwrap_or_else(|e| fail(&format!("decompressing {mdz_path}: {e}")));
            if dec.frames.len() != orig.frames.len()
                || dec.frames.first().map(|f| f.len()) != orig.frames.first().map(|f| f.len())
            {
                fail("trajectory shapes differ");
            }
            let axes = archive::check_bound(&orig.frames, &dec.frames, &blob, &idx)
                .unwrap_or_else(|e| fail(&format!("reading blocks: {e}")));
            let mut flat_o = Vec::new();
            let mut flat_d = Vec::new();
            for (a, b) in orig.frames.iter().zip(dec.frames.iter()) {
                for axis in 0..3 {
                    let (sa, sb) = match axis {
                        0 => (&a.x, &b.x),
                        1 => (&a.y, &b.y),
                        _ => (&a.z, &b.z),
                    };
                    flat_o.extend_from_slice(sa);
                    flat_d.extend_from_slice(sb);
                }
            }
            let stats = mdz::analysis::ErrorStats::compute(&flat_o, &flat_d);
            let raw = orig.frames.len() * orig.frames[0].len() * 24;
            println!("frames:     {} × {} atoms", orig.frames.len(), orig.frames[0].len());
            println!(
                "ratio:      {:.1}x ({} → {} bytes)",
                raw as f64 / archive_len as f64,
                raw,
                archive_len
            );
            let max_error = axes.iter().map(|a| a.max_error).fold(0.0, f64::max);
            println!("max error:  {max_error:.3e}");
            for (name, axis) in AXES.iter().zip(&axes) {
                println!("max error {name}: {:.3e} (block ε {:.3e})", axis.max_error, axis.eps);
            }
            println!("NRMSE:      {:.3e}", stats.nrmse);
            println!("PSNR:       {:.1} dB", stats.psnr);
            for (name, axis) in AXES.iter().zip(&axes) {
                if let Some(b) = axis.violation {
                    let block = &idx.blocks[b];
                    fail(&format!(
                        "{mdz_path}: axis {name} of block {b} (frames {}..{}) exceeds the \
                         block's error bound",
                        block.frame_start,
                        block.frame_start + block.n_frames
                    ));
                }
            }
        }
        "extract" => {
            let [input, frame_str] = &o.positional[..] else {
                fail("extract needs <in.mdz> <frame-index>");
            };
            let frame: usize = frame_str.parse().unwrap_or_else(|_| fail("bad frame index"));
            let frames = open_archive(input)
                .read_frames(frame..frame.saturating_add(1))
                .unwrap_or_else(|e| fail(&format!("extracting: {e}")));
            // A one-frame range reads exactly one frame.
            let f = &frames[0];
            println!("{}", f.len());
            println!("frame {frame} extracted from {input}");
            for i in 0..f.len() {
                println!("X {:.10} {:.10} {:.10}", f.x[i], f.y[i], f.z[i]);
            }
        }
        "gen" => {
            let [dataset, output] = &o.positional[..] else {
                fail("gen needs <dataset> <out.xyz>");
            };
            let kind = parse_dataset(dataset);
            let d = datasets::generate(kind, o.scale, o.seed);
            let traj = xyz::XyzTrajectory {
                elements: vec!["X".to_string(); d.atoms()],
                comments: (0..d.len()).map(|t| format!("{} frame {t}", kind.name())).collect(),
                frames: d
                    .snapshots
                    .iter()
                    .map(|s| mdz::core::Frame::new(s.x.clone(), s.y.clone(), s.z.clone()))
                    .collect(),
            };
            std::fs::write(output, xyz::write(&traj))
                .unwrap_or_else(|e| fail(&format!("writing {output}: {e}")));
            println!("wrote {} — {} frames × {} atoms", output, d.len(), d.atoms());
        }
        "compress" | "store" => {
            let [input, output] = &o.positional[..] else {
                fail(&format!("{cmd} needs <in.xyz> <out.mdz>"));
            };
            let traj = read_xyz(input);
            let mut opts = StoreOptions::new(MdzConfig::new(bound_from(&o)).with_method(o.method));
            opts.buffer_size = o.bs;
            opts.epoch_interval = o.epoch;
            opts.precision = if o.f32 { Precision::F32 } else { Precision::F64 };
            let blob = archive::compress(&traj, &opts)
                .unwrap_or_else(|e| fail(&format!("compressing: {e}")));
            std::fs::write(output, &blob)
                .unwrap_or_else(|e| fail(&format!("writing {output}: {e}")));
            let raw = traj.frames.len() * traj.frames[0].len() * 24;
            println!(
                "{} frames × {} atoms in {} epochs: {} → {} bytes ({:.1}x)",
                traj.frames.len(),
                traj.frames[0].len(),
                traj.frames.chunks(o.bs.max(1)).count().div_ceil(o.epoch.max(1)),
                raw,
                blob.len(),
                raw as f64 / blob.len() as f64
            );
        }
        "append" => {
            // Remote form: send the frames to a live server, which compresses
            // and appends them server-side. The printed ack is a durability
            // acknowledgment (the server replied only after the fsync'd
            // footer flip).
            if let Some(addr) = &o.remote {
                let [input] = &o.positional[..] else {
                    fail("append --remote <addr> needs <in.xyz>");
                };
                let traj = read_xyz(input);
                let precision = if o.f32 { Precision::F32 } else { Precision::F64 };
                let policy =
                    RetryPolicy { max_retries: o.retries.unwrap_or(0), ..RetryPolicy::default() };
                let mut client = mdz::store::connect_with_retry(
                    addr.as_str(),
                    &policy,
                    &mdz::store::Obs::noop(),
                )
                .unwrap_or_else(|e| fail(&format!("connecting {addr}: {e}")));
                let ack = client
                    .append(&traj.frames, precision)
                    .unwrap_or_else(|e| fail(&format!("appending: {e}")));
                println!(
                    "appended {} frames in {} blocks at frame {}; archive now holds {} frames",
                    ack.n_frames - ack.start,
                    ack.appended_blocks,
                    ack.start,
                    ack.n_frames
                );
                return;
            }
            let [archive_path, input] = &o.positional[..] else {
                fail("append needs <archive.mdz> <in.xyz> (or --remote <addr> <in.xyz>)");
            };
            let traj = read_xyz(input);
            let mut opts = StoreOptions::new(MdzConfig::new(bound_from(&o)).with_method(o.method));
            opts.precision = if o.f32 { Precision::F32 } else { Precision::F64 };
            let mut io = FileIo::open(archive_path)
                .unwrap_or_else(|e| fail(&format!("opening {archive_path}: {e}")));
            let report = append_store(&mut io, &traj.frames, &opts)
                .unwrap_or_else(|e| fail(&format!("appending: {e}")));
            if report.recovered_bytes > 0 {
                eprintln!(
                    "note: truncated {} garbage bytes from a torn tail before appending",
                    report.recovered_bytes
                );
            }
            println!(
                "appended {} frames in {} blocks; archive now holds {} frames",
                report.appended_frames, report.appended_blocks, report.n_frames
            );
        }
        "recover" => {
            let [archive_path] = &o.positional[..] else {
                fail("recover needs <archive.mdz>");
            };
            let mut io = FileIo::open(archive_path)
                .unwrap_or_else(|e| fail(&format!("opening {archive_path}: {e}")));
            let report =
                recover_store(&mut io).unwrap_or_else(|e| fail(&format!("recovering: {e}")));
            if report.truncated_bytes == 0 {
                println!("{archive_path}: clean — {} bytes, nothing to do", report.valid_len);
            } else {
                println!(
                    "{archive_path}: truncated {} garbage bytes; {} valid bytes remain",
                    report.truncated_bytes, report.valid_len
                );
            }
        }
        "get" => {
            let [input, range_str] = &o.positional[..] else {
                fail("get needs <in.mdz> <start..end>");
            };
            let range = parse_range(range_str);
            let reader = open_archive(input);
            let frames = reader
                .read_frames(range.clone())
                .unwrap_or_else(|e| fail(&format!("reading frames: {e}")));
            print_frames(range.start, &frames);
            let s = reader.stats();
            eprintln!(
                "read {} frames ({} buffers decoded, {} cache hits)",
                frames.len(),
                s.buffers_decoded,
                s.cache_hits
            );
        }
        "serve" => {
            let [input, addr] = &o.positional[..] else {
                fail("serve needs <in.mdz> <addr>");
            };
            // The recovery scan serves the frames a torn append left intact;
            // only `recover` (or a --live server's first APPEND) repairs the file.
            let (reader, report) = StoreReader::recover(read_file(input))
                .unwrap_or_else(|e| fail(&format!("opening store: {e}")));
            if report.truncated_bytes > 0 {
                eprintln!(
                    "mdz: {input} has a torn tail: serving the {} valid bytes, ignoring {} \
                     garbage bytes (run `mdz recover` to repair the file)",
                    report.valid_len, report.truncated_bytes
                );
            }
            let mut server = Server::bind(reader, addr.as_str(), o.server.clone())
                .unwrap_or_else(|e| fail(&format!("binding {addr}: {e}")));
            // --live attaches an append sink on the same file.
            if o.live {
                let io =
                    FileIo::open(input).unwrap_or_else(|e| fail(&format!("opening {input}: {e}")));
                let opts = StoreOptions::new(MdzConfig::new(bound_from(&o)).with_method(o.method));
                server = server.with_append_sink(mdz::store::AppendSink::new(Box::new(io), opts));
            }
            let local = server.local_addr().unwrap_or_else(|e| fail(&format!("local addr: {e}")));
            eprintln!(
                "mdz: serving {input} on {local}{}",
                if o.live { " (live: APPEND enabled)" } else { "" }
            );
            server.run().unwrap_or_else(|e| fail(&format!("serving: {e}")));
        }
        "follow" => {
            let (addr, from) = match &o.positional[..] {
                [addr] => (addr, 0usize),
                [addr, from] => {
                    (addr, from.parse().unwrap_or_else(|_| fail("bad follow start frame")))
                }
                _ => fail("follow needs <addr> [from]"),
            };
            let client = Client::connect(addr.as_str())
                .unwrap_or_else(|e| fail(&format!("connecting {addr}: {e}")));
            let mut follower = client
                .follow(from)
                .unwrap_or_else(|e| fail(&format!("follow: {e}")))
                .with_poll_interval(Duration::from_millis(o.poll_ms));
            eprintln!("following {addr} from frame {from}");
            // Stream until --until (exclusive upper frame index), or forever.
            loop {
                if let Some(until) = o.until {
                    if follower.position() >= until {
                        return;
                    }
                }
                let start = follower.position();
                let mut frames =
                    follower.next_batch().unwrap_or_else(|e| fail(&format!("follow: {e}")));
                if let Some(until) = o.until {
                    frames.truncate(until.saturating_sub(start));
                }
                print_frames(start, &frames);
            }
        }
        "query" => {
            let [addr, range_str] = &o.positional[..] else {
                fail("query needs <addr> <start..end>");
            };
            let range = parse_range(range_str);
            let policy =
                RetryPolicy { max_retries: o.retries.unwrap_or(0), ..RetryPolicy::default() };
            let frames =
                get_with_retry(addr.as_str(), range.clone(), &policy, &mdz::store::Obs::noop())
                    .unwrap_or_else(|e| fail(&format!("query {addr}: {e}")));
            print_frames(range.start, &frames);
            eprintln!("fetched {} frames from {addr}", frames.len());
        }
        "stats" => {
            let [addr] = &o.positional[..] else {
                fail("stats needs <addr>");
            };
            let mut client = Client::connect(addr.as_str())
                .unwrap_or_else(|e| fail(&format!("connecting {addr}: {e}")));
            if o.metrics {
                // One METRICS round trip and nothing else, so the snapshot
                // is not perturbed by extra STATS/INFO requests.
                let m = client.metrics().unwrap_or_else(|e| fail(&format!("metrics: {e}")));
                print!("{}", if o.json { m.to_json() } else { m.render_text() });
                return;
            }
            let s = client.stats().unwrap_or_else(|e| fail(&format!("stats: {e}")));
            let i = client.info().unwrap_or_else(|e| fail(&format!("info: {e}")));
            println!(
                "archive:         v{} · {} frames × {} atoms",
                i.version, i.n_frames, i.n_atoms
            );
            println!("requests:        {}", s.requests);
            println!("bytes out:       {}", s.bytes_out);
            println!("cache hits:      {}", s.cache_hits);
            println!("cache misses:    {}", s.cache_misses);
            println!("decode errors:   {}", s.decode_errors);
            println!("buffers decoded: {}", s.buffers_decoded);
        }
        _ => {
            eprintln!("usage: mdz <compress|decompress|info|extract|verify|gen|store|append|recover|get|serve|query|follow|stats> …");
            exit(2);
        }
    }
}
