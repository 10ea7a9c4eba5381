//! Minimal raw-syscall bindings for the reactor: an epoll (Linux) / kqueue
//! (macOS) poller, a self-pipe wakeup, and the listener's accept backlog.
//!
//! `std` already links the platform C library, so plain `extern "C"`
//! declarations are enough — the crate stays zero-dependency. Everything
//! here wraps file descriptors in [`std::os::fd::OwnedFd`] so close
//! discipline is by construction, and every return code goes through
//! [`std::io::Error::last_os_error`] on failure.

use std::io;
use std::os::fd::RawFd;

/// One readiness notification out of [`Poller::wait`]. The token is the
/// registered file descriptor (fds are unique while open, which is exactly
/// the lifetime of a registration).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The fd this event fired for.
    pub fd: RawFd,
    /// The fd is readable (includes peer hangup: read to observe EOF).
    pub readable: bool,
    /// The fd accepts writes again.
    pub writable: bool,
}

/// Maps a negative C return into `last_os_error`.
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{cvt, Event};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`: packed on x86-64 (the historic
    /// ABI), naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// A level-triggered epoll instance.
    pub(crate) struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: `epoll_create1` takes no pointers and only returns a
            // new fd or -1.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: `cvt` passed, so `fd` is a freshly created epoll fd
            // that nothing else owns; `OwnedFd` becomes its only closer.
            Ok(Poller { epfd: unsafe { OwnedFd::from_raw_fd(fd) } })
        }

        fn ctl(&self, op: i32, fd: RawFd, read: bool, write: bool) -> io::Result<()> {
            let mut events = EPOLLRDHUP;
            if read {
                events |= EPOLLIN;
            }
            if write {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent { events, data: fd as u64 };
            // SAFETY: `ev` is a live, initialised `epoll_event` that the
            // kernel only reads during the call; `epfd` is open for as long
            // as `self` is. A bad `fd` makes the call fail, not misbehave.
            cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
        }

        /// Registers `fd` with the given interest set.
        pub(crate) fn add(&self, fd: RawFd, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, read, write)
        }

        /// Replaces `fd`'s interest set.
        pub(crate) fn modify(&self, fd: RawFd, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, read, write)
        }

        /// Deregisters `fd`. Safe to call for fds about to be closed.
        pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
            // A non-null event pointer keeps pre-2.6.9 kernel semantics.
            self.ctl(EPOLL_CTL_DEL, fd, false, false)
        }

        /// Blocks up to `timeout` for readiness, filling `out`.
        pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            const MAX_EVENTS: usize = 1024;
            let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let ms = timeout.as_millis().min(i32::MAX as u128).max(1) as i32;
            let n = loop {
                // SAFETY: `raw` holds `MAX_EVENTS` writable events and the
                // kernel writes at most `maxevents` of them; `epfd` is open
                // for as long as `self` is.
                let ret = unsafe {
                    epoll_wait(self.epfd.as_raw_fd(), raw.as_mut_ptr(), MAX_EVENTS as i32, ms)
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            out.clear();
            for ev in raw.iter().take(n) {
                // Field copies, not references: the struct may be packed.
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    fd: data as RawFd,
                    // Errors and hangups surface as readability so the owner
                    // observes the EOF / io error on its next read.
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "macos")]
mod imp {
    use super::{cvt, Event};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_ERROR: u16 = 0x4000;

    /// `struct kevent` as declared in `<sys/event.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Kevent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut std::ffi::c_void,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const Kevent,
            nchanges: i32,
            eventlist: *mut Kevent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
    }

    /// A level-triggered kqueue instance presenting the same API as the
    /// Linux epoll poller.
    pub(crate) struct Poller {
        kq: OwnedFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: `kqueue` takes no arguments and only returns a new fd
            // or -1.
            let fd = cvt(unsafe { kqueue() })?;
            // SAFETY: `cvt` passed, so `fd` is a freshly created kqueue fd
            // that nothing else owns; `OwnedFd` becomes its only closer.
            Ok(Poller { kq: unsafe { OwnedFd::from_raw_fd(fd) } })
        }

        fn change(&self, fd: RawFd, filter: i16, flags: u16) -> io::Result<()> {
            let change = Kevent {
                ident: fd as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: std::ptr::null_mut(),
            };
            // SAFETY: one initialised change record that the kernel only
            // reads; the null event list with `nevents` 0 is never written,
            // and a null timeout is allowed. `kq` is open while `self` is.
            cvt(unsafe {
                kevent(self.kq.as_raw_fd(), &change, 1, std::ptr::null_mut(), 0, std::ptr::null())
            })
            .map(|_| ())
        }

        fn set(&self, fd: RawFd, read: bool, write: bool) -> io::Result<()> {
            // Deleting an absent filter is fine (ENOENT ignored); adding is
            // idempotent, so "modify" and "add" are the same operation.
            for (filter, wanted) in [(EVFILT_READ, read), (EVFILT_WRITE, write)] {
                if wanted {
                    self.change(fd, filter, EV_ADD)?;
                } else {
                    let _ = self.change(fd, filter, EV_DELETE);
                }
            }
            Ok(())
        }

        /// Registers `fd` with the given interest set.
        pub(crate) fn add(&self, fd: RawFd, read: bool, write: bool) -> io::Result<()> {
            self.set(fd, read, write)
        }

        /// Replaces `fd`'s interest set.
        pub(crate) fn modify(&self, fd: RawFd, read: bool, write: bool) -> io::Result<()> {
            self.set(fd, read, write)
        }

        /// Deregisters `fd`.
        pub(crate) fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.set(fd, false, false)
        }

        /// Blocks up to `timeout` for readiness, filling `out`.
        pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            const MAX_EVENTS: usize = 1024;
            let mut raw = [Kevent {
                ident: 0,
                filter: 0,
                flags: 0,
                fflags: 0,
                data: 0,
                udata: std::ptr::null_mut(),
            }; MAX_EVENTS];
            let ts = Timespec {
                tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
                tv_nsec: i64::from(timeout.subsec_nanos()),
            };
            let n = loop {
                // SAFETY: no changes (null list, count 0); `raw` holds
                // `MAX_EVENTS` writable records and the kernel writes at most
                // `nevents` of them; `ts` outlives the call; `kq` is open
                // while `self` is.
                let ret = unsafe {
                    kevent(
                        self.kq.as_raw_fd(),
                        std::ptr::null(),
                        0,
                        raw.as_mut_ptr(),
                        MAX_EVENTS as i32,
                        &ts,
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            out.clear();
            for ev in raw.iter().take(n) {
                let error = ev.flags & EV_ERROR != 0;
                out.push(Event {
                    fd: ev.ident as RawFd,
                    readable: ev.filter == EVFILT_READ || error,
                    writable: ev.filter == EVFILT_WRITE || error,
                });
            }
            Ok(())
        }
    }
}

pub(crate) use imp::Poller;

extern "C" {
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Raises `listener`'s accept backlog to the kernel cap. `std` listens with
/// a backlog of 128, so a burst of more simultaneous connects than that
/// overflows the queue before shard 0 accepts them and the excess peers
/// see resets or SYN retries. A negative backlog asks for the cap
/// (`somaxconn`), and calling `listen` again on a listening socket only
/// updates its backlog.
pub(crate) fn listen_max_backlog(listener: &std::net::TcpListener) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    // SAFETY: `listen` takes no pointers; the fd belongs to `listener`,
    // which the borrow keeps open for the whole call.
    cvt(unsafe { listen(listener.as_raw_fd(), -1) }).map(|_| ())
}

/// A non-blocking self-pipe: other shards write a byte to interrupt this
/// shard's [`Poller::wait`] (inbox handoffs, shard exits).
pub(crate) struct WakePipe {
    rx: std::os::fd::OwnedFd,
    tx: std::os::fd::OwnedFd,
}

impl WakePipe {
    /// Creates the pipe with both ends non-blocking and close-on-exec.
    pub(crate) fn new() -> io::Result<WakePipe> {
        use std::os::fd::FromRawFd;
        let mut fds = [0i32; 2];
        #[cfg(target_os = "linux")]
        {
            const O_NONBLOCK: i32 = 0o4000;
            const O_CLOEXEC: i32 = 0o2000000;
            extern "C" {
                fn pipe2(fds: *mut i32, flags: i32) -> i32;
            }
            // SAFETY: `fds` has room for the two fds `pipe2` writes.
            cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        }
        #[cfg(not(target_os = "linux"))]
        {
            const F_SETFL: i32 = 4;
            const O_NONBLOCK: i32 = 0x0004;
            extern "C" {
                fn pipe(fds: *mut i32) -> i32;
                fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
            }
            // SAFETY: `fds` has room for the two fds `pipe` writes.
            cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
            for fd in fds {
                // SAFETY: `F_SETFL` takes an integer argument, no pointer;
                // `fd` is one of the pipe ends just created.
                cvt(unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) })?;
            }
        }
        Ok(WakePipe {
            // SAFETY: the pipe call succeeded, so both fds are open, and
            // each end is wrapped exactly once, making `OwnedFd` its only
            // closer.
            rx: unsafe { std::os::fd::OwnedFd::from_raw_fd(fds[0]) },
            // SAFETY: as for `rx`.
            tx: unsafe { std::os::fd::OwnedFd::from_raw_fd(fds[1]) },
        })
    }

    /// The readable end, for poller registration.
    pub(crate) fn read_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Nudges the owning shard. A full pipe already guarantees a pending
    /// wakeup, so a short write is success.
    pub(crate) fn wake(&self) {
        use std::os::fd::AsRawFd;
        let byte = 1u8;
        // SAFETY: the kernel reads one byte from `byte`, which outlives the
        // call; `tx` is open while `self` is.
        unsafe { write(self.tx.as_raw_fd(), &byte, 1) };
    }

    /// Swallows all pending wakeup bytes.
    pub(crate) fn drain(&self) {
        use std::os::fd::AsRawFd;
        let mut buf = [0u8; 64];
        // SAFETY: the kernel writes at most `buf.len()` bytes into `buf`;
        // `rx` is open while `self` is.
        while unsafe { read(self.rx.as_raw_fd(), buf.as_mut_ptr(), buf.len()) } > 0 {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_readability_and_writability() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), true, true).unwrap();
        let mut events = Vec::new();
        // A fresh socket with empty send buffer is writable but not readable.
        poller.wait(&mut events, Duration::from_millis(200)).unwrap();
        let ev = events.iter().find(|e| e.fd == server.as_raw_fd()).expect("event");
        assert!(ev.writable && !ev.readable);

        client.write_all(b"ping").unwrap();
        poller.modify(server.as_raw_fd(), true, false).unwrap();
        poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        let ev = events.iter().find(|e| e.fd == server.as_raw_fd()).expect("event");
        assert!(ev.readable);
        let mut buf = [0u8; 8];
        let mut server_ref = &server;
        assert_eq!(server_ref.read(&mut buf).unwrap(), 4);

        poller.remove(server.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        poller.wait(&mut events, Duration::from_millis(50)).unwrap();
        assert!(events.iter().all(|e| e.fd != server.as_raw_fd()), "removed fd must be silent");
    }

    #[test]
    fn wake_pipe_interrupts_a_wait() {
        let pipe = WakePipe::new().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(pipe.read_fd(), true, false).unwrap();
        let mut events = Vec::new();
        // Without a wake the wait times out empty.
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty());
        pipe.wake();
        pipe.wake(); // coalesces, never blocks
        poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fd, pipe.read_fd());
        pipe.drain();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.is_empty(), "drained pipe goes quiet");
    }
}
