//! The server's two foreign calls: `poll(2)`, over a readiness set each
//! shard rebuilds every tick, and `listen(2)`, to raise the accept backlog.
//! The wake channel that interrupts a shard's wait is a `std` socket pair.
//!
//! `std` already links the platform C library, so plain `extern "C"`
//! declarations are enough and the crate stays zero-dependency. `struct
//! pollfd` and the `POLL*` bits are the same on Linux and macOS; only
//! `nfds_t` differs. Every failed call goes through
//! [`std::io::Error::last_os_error`].

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(target_os = "macos")]
type NfdsT = std::ffi::c_uint;

/// `struct pollfd` as declared in `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// One tick's readiness set: each fd with the interest asked for it, and
/// after [`wait`](Self::wait) what the kernel reported.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Empties the set for the next tick, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Adds `fd`, asking for readability and/or writability. Errors and
    /// hangups are reported whatever is asked.
    pub(crate) fn push(&mut self, fd: RawFd, read: bool, write: bool) {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        self.fds.push(PollFd { fd, events, revents: 0 });
    }

    /// Blocks until an entry is ready or `timeout` passes.
    pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        loop {
            // SAFETY: `fds` holds `len` initialised `pollfd`s, which the
            // kernel reads and whose `revents` it writes during the call
            // only; the vector is not touched until the call returns. A
            // closed fd is reported as `POLLNVAL`, not misused.
            let ret = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, ms) };
            if ret >= 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// The entries the last wait found ready, in the order they were
    /// pushed, as (fd, readable, writable). The kernel sets no bit that was
    /// not asked for except an error, a hangup or an invalid fd; those read
    /// as both, so the owner observes them on its next read or write.
    pub(crate) fn ready(&self) -> impl Iterator<Item = (RawFd, bool, bool)> + '_ {
        self.fds.iter().filter(|p| p.revents != 0).map(|p| {
            let failed = p.revents & !(POLLIN | POLLOUT) != 0;
            (p.fd, failed || p.revents & POLLIN != 0, failed || p.revents & POLLOUT != 0)
        })
    }
}

/// Raises `listener`'s accept backlog to the kernel cap. `std` listens with
/// a backlog of 128, so a burst of more simultaneous connects than that
/// overflows the queue before shard 0 accepts them and the excess peers
/// see resets or SYN retries. A negative backlog asks for the cap
/// (`somaxconn`), and calling `listen` again on a listening socket only
/// updates its backlog.
pub(crate) fn listen_max_backlog(listener: &std::net::TcpListener) -> io::Result<()> {
    // SAFETY: `listen` takes no pointers; the fd belongs to `listener`,
    // which the borrow keeps open for the whole call.
    if unsafe { listen(listener.as_raw_fd(), -1) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A shard's wake channel: other shards write a byte to interrupt its
/// [`PollSet::wait`] (inbox handoffs, shard exits).
pub(crate) struct Wake {
    rx: UnixStream,
    tx: UnixStream,
}

impl Wake {
    /// Creates the channel, both ends non-blocking.
    pub(crate) fn new() -> io::Result<Wake> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Wake { rx, tx })
    }

    /// The end the owning shard polls for readability.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Nudges the owning shard. A full channel already guarantees a
    /// pending wakeup, so a failed write is success.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Swallows all pending wakeup bytes.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn poll_reports_the_readiness_asked_for() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();

        let mut set = PollSet::default();
        // A fresh socket with an empty send buffer is writable but not
        // readable.
        set.push(fd, true, true);
        set.wait(Duration::from_millis(200)).unwrap();
        assert_eq!(set.ready().collect::<Vec<_>>(), [(fd, false, true)]);

        client.write_all(b"ping").unwrap();
        set.clear();
        set.push(fd, true, false);
        set.wait(Duration::from_millis(1000)).unwrap();
        assert_eq!(set.ready().collect::<Vec<_>>(), [(fd, true, false)]);
        let mut buf = [0u8; 8];
        assert_eq!((&server).read(&mut buf).unwrap(), 4);

        // Asking for neither leaves pending input and free buffer space
        // unreported.
        client.write_all(b"more").unwrap();
        set.clear();
        set.push(fd, false, false);
        set.wait(Duration::from_millis(50)).unwrap();
        assert_eq!(set.ready().count(), 0, "an fd asked for nothing must be silent");
    }

    #[test]
    fn wake_interrupts_a_wait() {
        let wake = Wake::new().unwrap();
        let mut set = PollSet::default();
        set.push(wake.fd(), true, false);
        // Without a wake the wait times out empty.
        set.wait(Duration::from_millis(20)).unwrap();
        assert_eq!(set.ready().count(), 0);
        wake.wake();
        wake.wake(); // coalesces, never blocks
        set.wait(Duration::from_millis(1000)).unwrap();
        assert_eq!(set.ready().collect::<Vec<_>>(), [(wake.fd(), true, false)]);
        wake.drain();
        set.wait(Duration::from_millis(20)).unwrap();
        assert_eq!(set.ready().count(), 0, "a drained channel goes quiet");
    }
}
