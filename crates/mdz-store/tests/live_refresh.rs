//! Live-archive invariants, adversarially exercised.
//!
//! 1. **Monotone bit-exact prefixes** — a reader that refreshes from the
//!    disk image at *every* storage operation of a multi-append sequence
//!    (every fault flavour included) only ever observes a monotonically
//!    growing frame count, and everything it can decode is a bit-exact
//!    prefix of the final fault-free archive. This is the contract that
//!    makes `StoreReader::refresh` safe to run against a file a writer is
//!    actively appending to.
//! 2. **Server-side append crashes are invisible** — a server whose
//!    append sink dies mid-append answers the APPEND with an error, keeps
//!    serving the old state, and the surviving disk image recovers (the
//!    restart path) to exactly that same old state: no torn frames are
//!    ever served to followers.
//! 3. **Followers stream the offline decode** — while a live server takes
//!    appends, every follower tailing from frame 0 streams, bit for bit,
//!    what an offline replay of the same appends decodes.
//! 4. **Concurrent appends tile the archive** — two producers on two shards
//!    append at once, ordered by nothing but the sink's lock: every append
//!    is acked, the acked ranges tile the grown archive, and the file that
//!    results verifies and decodes to what each producer sent.
//! 5. **Followers fetch what their response budget holds** — a backlog
//!    larger than a client's `max_response_bytes` streams in batches that
//!    fit, without a reconnect; a budget smaller than one frame is an
//!    error, not a GET re-sent forever.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::{
    append_store, create_store, verify_archive, AppendSink, Client, ClientError, FaultIo,
    FaultMode, FaultPlan, MemIo, Obs, Precision, Registry, Server, ServerConfig, Status, StoreIo,
    StoreOptions, StoreReader,
};

const N_ATOMS: usize = 12;

fn synth_frames(start: usize, count: usize) -> Vec<Frame> {
    (start..start + count)
        .map(|t| {
            let gen = |axis: usize| -> Vec<f64> {
                (0..N_ATOMS)
                    .map(|i| {
                        let p = (i * 3 + axis) as f64;
                        p + (t as f64 * 0.41 + p * 0.13).sin() * 0.5
                    })
                    .collect()
            };
            Frame::new(gen(0), gen(1), gen(2))
        })
        .collect()
}

fn store_opts() -> StoreOptions {
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    opts
}

fn frame_bits(frames: &[Frame]) -> Vec<u64> {
    let mut bits = Vec::new();
    for f in frames {
        for i in 0..f.len() {
            bits.push(f.x[i].to_bits());
            bits.push(f.y[i].to_bits());
            bits.push(f.z[i].to_bits());
        }
    }
    bits
}

fn decode_bits(reader: &StoreReader, n: usize) -> Vec<u64> {
    frame_bits(&reader.read_frames(0..n).expect("decode"))
}

/// Property: refreshing at every fault point of every append in a sequence
/// yields only monotonically growing, bit-exact prefixes of the final
/// archive.
#[test]
fn refresh_observes_only_monotone_bitexact_prefixes() {
    let opts = store_opts();
    let base = synth_frames(0, 8);
    let appends: Vec<Vec<Frame>> =
        vec![synth_frames(8, 8), synth_frames(16, 4), synth_frames(20, 8)];

    // The fault-free final archive is the reference all prefixes are
    // checked against.
    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let base_image = io.read_all().expect("base image");
    let mut reference = FaultIo::new(base_image.clone());
    for seg in &appends {
        append_store(&mut reference, seg, &opts).expect("reference append");
    }
    let final_image = reference.disk_image();
    let final_reader = StoreReader::open(final_image).expect("final open");
    let final_n = final_reader.index().n_frames;
    let final_bits = decode_bits(&final_reader, final_n);
    let atom_words = N_ATOMS * 3;

    // One long-lived reader refreshes through the whole sequence,
    // observing the file *mid-append* at every storage operation.
    // `FailOp` at op k leaves exactly the first k operations applied —
    // the page-cache view a concurrent reader would get from a writer
    // that has made it that far — so sweeping k walks every intermediate
    // state of the linear history.
    let reader = StoreReader::open(base_image.clone()).expect("open base");
    let mut current = base_image;
    let mut last_seen = reader.index().n_frames;
    for seg in &appends {
        // How many ops does this append perform? (fault-free dry run)
        let mut dry = FaultIo::new(current.clone());
        append_store(&mut dry, seg, &opts).expect("dry append");
        let n_ops = dry.ops_performed();

        for fault_op in 0..n_ops {
            let label = format!("mid-append view at op {fault_op}");
            let mut io = FaultIo::new(current.clone());
            io.set_plan(FaultPlan {
                fault_op,
                mode: FaultMode::FailOp,
                seed: 0x6c69_7665 ^ fault_op as u64,
            });
            append_store(&mut io, seg, &opts)
                .expect_err(&format!("{label}: planned fault must surface"));

            // Refresh the live reader from the partial image. The footer
            // may be absent or half-written; refresh must settle on the
            // last durable footer, never regress, and serve a bit-exact
            // prefix of the final archive.
            let report = reader
                .refresh(io.disk_image())
                .unwrap_or_else(|e| panic!("{label}: refresh failed: {e}"));
            let n = report.n_frames;
            assert!(n >= last_seen, "{label}: view regressed {last_seen} -> {n}");
            assert!(n <= final_n, "{label}: view overshot the final archive");
            last_seen = n;
            let bits = decode_bits(&reader, n);
            assert_eq!(
                bits,
                final_bits[..n * atom_words],
                "{label}: decoded frames are not a bit-exact prefix"
            );
        }

        // The real (fault-free) append, then refresh to the new state.
        let mut io = MemIo::new(current);
        append_store(&mut io, seg, &opts).expect("append");
        current = io.read_all().expect("image");
        // The very last mid-append view (everything but the final sync)
        // already exposed the full footer, so this refresh is a no-op for
        // the frame count — it must still succeed and stay monotone.
        let report = reader.refresh(current.clone()).expect("refresh after append");
        assert!(report.n_frames >= last_seen);
        last_seen = report.n_frames;
    }
    assert_eq!(last_seen, final_n);
    assert_eq!(decode_bits(&reader, final_n), final_bits);
}

/// Crash flavours branch the history: a reader that comes up *after* the
/// crash (the restarted server's) must see a bit-exact prefix of the
/// final archive for every surviving image, across every fault mode.
#[test]
fn every_crash_image_recovers_to_a_bitexact_prefix() {
    let opts = store_opts();
    let base = synth_frames(0, 8);
    let seg = synth_frames(8, 12);

    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let base_image = io.read_all().expect("base image");
    let mut reference = FaultIo::new(base_image.clone());
    append_store(&mut reference, &seg, &opts).expect("reference append");
    let final_reader = StoreReader::open(reference.disk_image()).expect("final open");
    let final_n = final_reader.index().n_frames;
    let final_bits = decode_bits(&final_reader, final_n);
    let atom_words = N_ATOMS * 3;

    let n_ops = {
        let mut dry = FaultIo::new(base_image.clone());
        append_store(&mut dry, &seg, &opts).expect("dry append");
        dry.ops_performed()
    };
    let modes = [FaultMode::FailOp, FaultMode::DropUnsynced, FaultMode::TornWrite];
    for fault_op in 0..n_ops {
        for mode in modes {
            let label = format!("crash at op {fault_op} ({mode:?})");
            let mut io = FaultIo::new(base_image.clone());
            io.set_plan(FaultPlan { fault_op, mode, seed: 0x6372_6173 ^ fault_op as u64 });
            append_store(&mut io, &seg, &opts)
                .expect_err(&format!("{label}: planned fault must surface"));
            let (recovered, _) = StoreReader::recover(io.disk_image())
                .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            let n = recovered.index().n_frames;
            assert!(n == 8 || n == final_n, "{label}: {n} frames is neither pre nor post");
            assert_eq!(
                decode_bits(&recovered, n),
                final_bits[..n * atom_words],
                "{label}: recovered frames are not a bit-exact prefix"
            );
        }
    }
}

/// A server whose append sink crashes mid-append: the client gets an
/// error, readers keep seeing the old state, and the surviving disk image
/// recovers to exactly that state — the restart never exposes torn frames.
#[test]
fn crashed_server_append_is_invisible_to_followers() {
    let opts = store_opts();
    let base = synth_frames(0, 8);
    let extra = synth_frames(8, 8);

    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let base_image = io.read_all().expect("base image");
    let pre_reader = StoreReader::open(base_image.clone()).expect("open");
    let pre_bits = decode_bits(&pre_reader, 8);

    // Sweep every storage op the append performs.
    let n_ops = {
        let mut dry = FaultIo::new(base_image.clone());
        append_store(&mut dry, &extra, &opts).expect("dry append");
        dry.ops_performed()
    };
    for fault_op in 0..n_ops {
        let label = format!("server append crashing at op {fault_op}");
        let mut fault = FaultIo::new(base_image.clone());
        fault.set_plan(FaultPlan {
            fault_op,
            mode: FaultMode::DropUnsynced,
            seed: 0x6d64_7a64 ^ fault_op as u64,
        });

        let reader = StoreReader::open(base_image.clone()).expect("open");
        let server =
            Server::bind(reader, "127.0.0.1:0", ServerConfig { threads: 2, ..Default::default() })
                .expect("bind")
                .with_append_sink(AppendSink::new(Box::new(fault), opts.clone()));
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle().expect("handle");
        let join = std::thread::spawn(move || server.run().unwrap());

        // The append fails with a typed error; nothing hangs or panics.
        let mut producer = Client::connect(addr).expect("connect");
        match producer.append(&extra, Precision::F64) {
            Err(ClientError::Server { status: Status::Internal, .. }) => {}
            other => panic!("{label}: expected Internal, got {other:?}"),
        }

        // Followers still see exactly the pre-append archive.
        let mut follower = Client::connect(addr).expect("connect");
        let info = follower.info().expect("info");
        assert_eq!(info.n_frames, 8, "{label}: served frame count changed");
        let served = follower.get(0..8).expect("get");
        assert_eq!(frame_bits(&served), pre_bits, "{label}: served frames diverged");
        handle.shutdown();
        join.join().expect("server thread");

        // The restart path: replay the identical fault (FaultIo is
        // deterministic, and the sink fails before any post-crash read, so
        // the twin's surviving image is byte-identical to the server's)
        // and reopen it through the recovery scan, exactly as a restarted
        // server would. It must come back as the pre-append archive.
        let mut twin = FaultIo::new(base_image.clone());
        twin.set_plan(FaultPlan {
            fault_op,
            mode: FaultMode::DropUnsynced,
            seed: 0x6d64_7a64 ^ fault_op as u64,
        });
        append_store(&mut twin, &extra, &opts).expect_err("twin fault must surface");
        let (recovered, _) = StoreReader::recover(twin.disk_image())
            .unwrap_or_else(|e| panic!("{label}: restart recovery failed: {e}"));
        assert_eq!(recovered.index().n_frames, 8, "{label}: restart saw torn frames");
        assert_eq!(decode_bits(&recovered, 8), pre_bits, "{label}: restart state diverged");
    }
}

/// A sink-backed server takes appends while followers tail it from frame
/// 0: each ack reports the archive's new frame count, and every follower's
/// stream equals, bit for bit, an offline replay of the same appends.
#[test]
fn followers_stream_what_an_offline_replay_decodes() {
    let opts = store_opts();
    let base = synth_frames(0, 8);
    let appends = [synth_frames(8, 8), synth_frames(16, 4), synth_frames(20, 8)];
    let total = 28;

    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let base_image = io.read_all().expect("base image");
    let reader = StoreReader::open(base_image.clone()).expect("open");
    let server =
        Server::bind(reader, "127.0.0.1:0", ServerConfig { threads: 2, ..Default::default() })
            .expect("bind")
            .with_append_sink(AppendSink::new(
                Box::new(MemIo::new(base_image.clone())),
                opts.clone(),
            ));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run().unwrap());

    let followers: Vec<_> = (0..3)
        .map(|_| {
            let follower = Client::connect(addr).expect("connect").follow(0).expect("follow");
            std::thread::spawn(move || {
                let mut follower = follower.with_poll_interval(Duration::from_millis(2));
                let mut seen = Vec::new();
                while seen.len() < total {
                    seen.extend(follower.next_batch().expect("next_batch"));
                }
                seen
            })
        })
        .collect();

    let mut producer = Client::connect(addr).expect("connect");
    let mut offline = MemIo::new(base_image);
    let mut n = base.len() as u64;
    for seg in &appends {
        let ack = producer.append(seg, Precision::F64).expect("append");
        assert_eq!((ack.start, ack.n_frames), (n, n + seg.len() as u64), "ack");
        n += seg.len() as u64;
        append_store(&mut offline, seg, &opts).expect("offline append");
    }
    let offline =
        StoreReader::open(offline.read_all().expect("offline image")).expect("offline open");
    let want = decode_bits(&offline, total);
    for (i, follower) in followers.into_iter().enumerate() {
        let seen = follower.join().expect("follower thread");
        assert_eq!(frame_bits(&seen), want, "follower {i} diverged from the offline decode");
    }
    handle.shutdown();
    join.join().unwrap();
}

/// Storage the test can still read after the server has taken it as its
/// append sink.
#[derive(Clone)]
struct SharedIo(Arc<Mutex<MemIo>>);

impl StoreIo for SharedIo {
    fn len(&mut self) -> mdz_core::Result<u64> {
        self.0.lock().unwrap().len()
    }

    fn read_all(&mut self) -> mdz_core::Result<Vec<u8>> {
        self.0.lock().unwrap().read_all()
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> mdz_core::Result<()> {
        self.0.lock().unwrap().write_at(offset, buf)
    }

    fn truncate(&mut self, len: u64) -> mdz_core::Result<()> {
        self.0.lock().unwrap().truncate(len)
    }

    fn sync(&mut self) -> mdz_core::Result<()> {
        self.0.lock().unwrap().sync()
    }
}

/// Two producers, one on each of two shards, append one-buffer chunks at
/// the same time while a follower tails. Nothing but the sink's lock
/// orders their appends, and the result must be as if they took turns:
/// every append acked, the acked ranges disjoint and together contiguous,
/// the final file intact, each range within ε of what its producer sent,
/// and the follower's stream equal to an offline decode of the file.
#[test]
fn concurrent_appends_on_two_shards_tile_the_archive() {
    let opts = store_opts();
    let eps = 1e-3;
    let chunks_per_producer = 6;
    let base = synth_frames(0, 8);
    let total = base.len() + 2 * chunks_per_producer * opts.buffer_size;

    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &base, &[], &[], &opts).expect("create");
    let mut storage = SharedIo(Arc::new(Mutex::new(io)));
    let reader = StoreReader::open(storage.read_all().expect("base image")).expect("open");
    let server =
        Server::bind(reader, "127.0.0.1:0", ServerConfig { threads: 2, ..Default::default() })
            .expect("bind")
            .with_append_sink(AppendSink::new(Box::new(storage.clone()), opts.clone()));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run().unwrap());

    // Shard 0 hands accepted connections out round-robin, so the two
    // producers, connected one after the other before anyone else, land on
    // shards 0 and 1.
    let producers: Vec<Client> = (0..2).map(|_| Client::connect(addr).expect("connect")).collect();
    let follower = Client::connect(addr).expect("connect").follow(0).expect("follow");
    let following = std::thread::spawn(move || {
        let mut follower = follower.with_poll_interval(Duration::from_millis(2));
        let mut seen = Vec::new();
        while seen.len() < total {
            seen.extend(follower.next_batch().expect("next_batch"));
        }
        seen
    });

    let start = Arc::new(Barrier::new(producers.len()));
    let appending: Vec<_> = producers
        .into_iter()
        .enumerate()
        .map(|(p, mut producer)| {
            let start = Arc::clone(&start);
            let chunk = opts.buffer_size;
            std::thread::spawn(move || {
                let chunks: Vec<Vec<Frame>> = (0..chunks_per_producer)
                    .map(|i| synth_frames(1000 * (p + 1) + i * chunk, chunk))
                    .collect();
                start.wait();
                chunks
                    .into_iter()
                    .map(|frames| {
                        (producer.append(&frames, Precision::F64).expect("append"), frames)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut acked: Vec<_> =
        appending.into_iter().flat_map(|t| t.join().expect("producer thread")).collect();
    assert_eq!(acked.len(), 2 * chunks_per_producer, "every append is acked");
    acked.sort_by_key(|(ack, _)| ack.start);
    let mut end = base.len() as u64;
    for (ack, frames) in &acked {
        assert_eq!(
            (ack.start, ack.n_frames),
            (end, end + frames.len() as u64),
            "acked ranges must be disjoint and contiguous"
        );
        end = ack.n_frames;
    }
    assert_eq!(end as usize, total);

    let seen = following.join().expect("follower thread");
    handle.shutdown();
    join.join().unwrap();

    let image = storage.read_all().expect("final image");
    assert_eq!(verify_archive(&image).expect("final file verifies").n_frames, total);
    let decoded = StoreReader::open(image).expect("open").read_frames(0..total).expect("decode");
    for (ack, frames) in &acked {
        let back = &decoded[ack.start as usize..ack.n_frames as usize];
        for (sent, got) in frames.iter().zip(back) {
            for (a, b) in [(&sent.x, &got.x), (&sent.y, &got.y), (&sent.z, &got.z)] {
                for (v, w) in a.iter().zip(b) {
                    assert!((v - w).abs() <= eps * (1.0 + 1e-9), "{v} decoded as {w}");
                }
            }
        }
    }
    assert_eq!(
        frame_bits(&seen),
        frame_bits(&decoded),
        "follower diverged from the offline decode"
    );
}

/// Runs `f` on a thread of its own and waits at most `deadline` for it, so
/// a follower that never returns fails the test instead of hanging it. The
/// thread is not joined: past the deadline it is still running, and a
/// panic in it arrives as the channel's disconnect.
fn within<T: Send + 'static>(deadline: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(deadline) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("no result within {deadline:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("the worker thread panicked"),
    }
}

/// A 64-frame backlog of 8-atom frames (217 response bytes for one frame,
/// 12 313 for all 64) tailed through clients whose response budget holds
/// only part of it. With a 4096-byte budget the follower fetches 21-frame
/// batches and never reconnects. With a 100-byte budget, which holds an
/// INFO reply but not one frame, `next_batch` returns an error.
#[test]
fn follower_batches_fit_the_client_response_budget() {
    let frames: Vec<Frame> = synth_frames(0, 64)
        .into_iter()
        .map(|f| Frame::new(f.x[..8].to_vec(), f.y[..8].to_vec(), f.z[..8].to_vec()))
        .collect();
    let mut io = MemIo::new(Vec::new());
    create_store(&mut io, &frames, &[], &[], &store_opts()).expect("create");
    let image = io.read_all().expect("image");
    let want = decode_bits(&StoreReader::open(image.clone()).expect("open"), 64);
    let server = Server::bind(
        StoreReader::open(image).expect("open"),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run().unwrap());
    let deadline = Duration::from_secs(10);

    let registry = Arc::new(Registry::new());
    let mut follower = Client::connect(addr)
        .expect("connect")
        .with_max_response_bytes(4096)
        .follow(0)
        .expect("follow")
        .with_poll_interval(Duration::from_millis(2))
        .with_obs(Obs::new(registry.clone()));
    let seen = within(deadline, move || {
        let mut seen = Vec::new();
        while seen.len() < 64 {
            seen.extend(follower.next_batch().expect("next_batch"));
        }
        seen
    });
    assert_eq!(frame_bits(&seen), want, "followed frames diverged from the local decode");
    assert_eq!(registry.counter("client.follow.reconnects"), 0);

    let mut tiny = Client::connect(addr)
        .expect("connect")
        .with_max_response_bytes(100)
        .follow(0)
        .expect("follow")
        .with_poll_interval(Duration::from_millis(2));
    let got = within(deadline, move || tiny.next_batch());
    assert!(matches!(got, Err(ClientError::Protocol(_))), "{got:?}");

    handle.shutdown();
    join.join().unwrap();
}
