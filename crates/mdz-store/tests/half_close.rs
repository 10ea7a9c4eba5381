//! A peer that pipelines GETs, half-closes its write side and never reads
//! its replies must not hold a shard busy while the write deadline runs:
//! the shard waits for its socket to drain, it does not poll the peer's EOF
//! over and over.
//!
//! The check reads the process's CPU time (utime + stime from
//! `/proc/self/stat`), so it lives in a test binary of its own and runs its
//! two cases one after the other: every busy cycle in the window is the
//! server's.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use mdz_core::{ErrorBound, Frame, MdzConfig};
use mdz_store::{write_store, Request, Server, ServerConfig, StoreOptions, StoreReader};

const N_FRAMES: usize = 128;
const N_ATOMS: usize = 2000;

/// 128 frames × 2000 atoms: a whole-range GET answers about 6 MB, far more
/// than loopback socket buffers hold.
fn make_archive() -> Vec<u8> {
    let frames: Vec<Frame> = (0..N_FRAMES)
        .map(|t| {
            let axis = |off: f64| -> Vec<f64> {
                (0..N_ATOMS).map(|i| (i % 7) as f64 * 1.5 + t as f64 * 1e-3 + off).collect()
            };
            Frame::new(axis(0.0), axis(1.0), axis(2.0))
        })
        .collect();
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 16;
    opts.epoch_interval = 8;
    write_store(&frames, &[], &[], &opts).unwrap()
}

/// This process's user + system CPU time. `/proc` counts it in clock ticks
/// of `USER_HZ`, which is 100 on every Linux target.
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesised command name, from field 3 (state) on;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 10)
}

/// Serves the archive on one shard, sends `gets` whole-range GETs on one
/// connection, half-closes it without reading, and returns the share of a
/// 1.5 s window of the stall that the process spent on a CPU.
fn stalled_cpu_share(archive: &[u8], max_write_buffer: usize, gets: usize) -> f64 {
    let reader = StoreReader::open(archive.to_vec()).unwrap();
    let registry = reader.recorder();
    let cfg = ServerConfig {
        threads: 1,
        max_write_buffer,
        // Far past the test: the stall must last the whole window.
        write_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let server = Server::bind(reader, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut client = TcpStream::connect(addr).unwrap();
    let body = Request::Get { start: 0, end: N_FRAMES as u64 }.encode();
    let mut msg = (body.len() as u32).to_le_bytes().to_vec();
    msg.extend_from_slice(&body);
    client.write_all(&msg.repeat(gets)).unwrap();
    client.shutdown(Shutdown::Write).unwrap();

    // The stall has begun once the server has stopped serving: nothing new
    // for 500 ms after the first reply was queued.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut served = 0;
    let mut since = Instant::now();
    loop {
        let count = registry.counter("store.requests");
        if count != served {
            (served, since) = (count, Instant::now());
        } else if served > 0 && since.elapsed() >= Duration::from_millis(500) {
            break;
        }
        assert!(Instant::now() < deadline, "the server never settled into the stall");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (wall, cpu) = (Instant::now(), cpu_time());
    std::thread::sleep(Duration::from_millis(1500));
    let share = (cpu_time() - cpu).as_secs_f64() / wall.elapsed().as_secs_f64();
    assert_eq!(
        registry.counter("server.conn.write_timeouts"),
        0,
        "the write deadline must not end the stall inside the window"
    );

    // Dropping the client resets the connection; otherwise the drain would
    // wait out the write deadline.
    drop(client);
    handle.shutdown();
    join.join().unwrap();
    share
}

#[test]
fn a_half_closed_peer_that_never_reads_does_not_spin_a_shard() {
    let archive = make_archive();
    // Over the cap: the queue passes `max_write_buffer`, so reading is
    // paused with the EOF still unread.
    let over = stalled_cpu_share(&archive, 1 << 20, 60);
    // Under the cap: every reply is queued, and the EOF is read while the
    // writes are blocked.
    let under = stalled_cpu_share(&archive, 1 << 30, 20);
    assert!(
        over < 0.25 && under < 0.25,
        "a stalled half-closed peer kept the process busy: {:.0}% of the window over the \
         write-buffer cap, {:.0}% under it",
        over * 100.0,
        under * 100.0
    );
}
