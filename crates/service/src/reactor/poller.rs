//! A dependency-free readiness poller in the style of mio.
//!
//! [`Poller`] wraps the operating system's readiness facility — `epoll` on
//! Linux, POSIX `poll(2)` elsewhere on Unix — behind a tiny registration
//! API: register a file descriptor with a `u64` token and an interest set,
//! re-arm it as interests change, and [`Poller::wait`] for batches of
//! [`PollEvent`]s. The vendored dependency set has no `libc`, so the
//! handful of syscalls used here are declared directly; this is the one
//! place in the service crate that needs `unsafe`, and it is confined to
//! the `sys` modules below.
//!
//! [`Waker`] lets other threads interrupt a blocked [`Poller::wait`]. It is
//! built on [`std::os::unix::net::UnixStream::pair`] — plain std, no FFI —
//! with the read end registered like any other fd.

use std::io;
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readiness interest for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the descriptor is readable (or a peer hung up).
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest (reads paused).
    #[cfg(test)]
    pub(crate) const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// No interest (fully paused; stays registered).
    pub(crate) const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable (data, or EOF/hangup — a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition; treat as readable so the error surfaces
    /// through the normal read path.
    pub error: bool,
}

// ---------------------------------------------------------------------------
// Linux backend: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use super::{Interest, PollEvent};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // `struct epoll_event` is packed on x86-64 (and x32) only; every other
    // Linux ABI uses natural alignment. This mirrors glibc's __EPOLL_PACKED.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The epoll instance (closed on drop).
    #[derive(Debug)]
    pub(crate) struct Backend {
        epfd: RawFd,
    }

    impl Backend {
        pub(crate) fn new() -> io::Result<Backend> {
            // SAFETY: epoll_create1 takes a flag word and returns a new fd
            // or -1; no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Backend { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            let evp = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            // SAFETY: `evp` is either null (DEL) or a valid pointer to a
            // live EpollEvent for the duration of the call.
            if unsafe { epoll_ctl(self.epfd, op, fd, evp) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(crate) fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub(crate) fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            const MAX_EVENTS: usize = 256;
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout_ms = match timeout {
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
                None => -1,
            };
            // SAFETY: `events` is a valid, writable buffer of MAX_EVENTS
            // entries; the kernel writes at most `maxevents` of them.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &events[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct owns, exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.read {
            bits |= EPOLLIN;
        }
        if interest.write {
            bits |= EPOLLOUT;
        }
        bits
    }
}

// ---------------------------------------------------------------------------
// Portable Unix backend: poll(2)
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
#[allow(unsafe_code)]
mod sys {
    use super::{Interest, PollEvent};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    /// Registration table driving repeated `poll(2)` calls. O(n) per wait,
    /// which is fine for the platforms that land here; Linux gets epoll.
    #[derive(Debug, Default)]
    pub(crate) struct Backend {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Backend {
        pub(crate) fn new() -> io::Result<Backend> {
            Ok(Backend::default())
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let (mut fds, tokens): (Vec<PollFd>, Vec<u64>) = {
                let reg = self.registered.lock().unwrap();
                reg.iter()
                    .map(|(&fd, &(token, interest))| {
                        let mut events = 0i16;
                        if interest.read {
                            events |= POLLIN;
                        }
                        if interest.write {
                            events |= POLLOUT;
                        }
                        (
                            PollFd {
                                fd,
                                events,
                                revents: 0,
                            },
                            token,
                        )
                    })
                    .unzip()
            };
            let timeout_ms = match timeout {
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
                None => -1,
            };
            // SAFETY: `fds` is a valid, writable slice of PollFd for the
            // duration of the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in fds.iter().zip(&tokens) {
                if pfd.revents != 0 {
                    out.push(PollEvent {
                        token,
                        readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        error: pfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

/// The readiness poller: epoll on Linux, `poll(2)` on other Unix.
#[derive(Debug)]
pub(crate) struct Poller {
    backend: sys::Backend,
}

impl Poller {
    /// A new, empty poller.
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: sys::Backend::new()?,
        })
    }

    /// Register `fd` under `token` with the given interest. The fd must be
    /// deregistered before it is closed.
    pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Change the interest set of a registered fd.
    pub(crate) fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.rearm(fd, token, interest)
    }

    /// Remove a registered fd.
    pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Block until at least one registered fd is ready or the timeout
    /// elapses, appending events to `out` (which is cleared first).
    /// A signal-interrupted wait returns successfully with no events.
    pub(crate) fn wait(
        &self,
        out: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        out.clear();
        self.backend.wait(out, timeout)
    }
}

/// Cross-thread wakeup for a poller, built on a non-blocking socket pair.
///
/// The read end is registered with the poller under a reserved token;
/// [`Waker::wake`] makes that token readable, and the poll loop calls
/// [`Waker::drain`] to reset it.
#[derive(Debug)]
pub(crate) struct Waker {
    read_end: UnixStream,
    write_end: UnixStream,
}

impl Waker {
    /// A new waker; register [`Waker::fd`] with the poller afterwards.
    pub(crate) fn new() -> io::Result<Waker> {
        let (read_end, write_end) = UnixStream::pair()?;
        read_end.set_nonblocking(true)?;
        write_end.set_nonblocking(true)?;
        Ok(Waker {
            read_end,
            write_end,
        })
    }

    /// The fd to register (read interest) under the waker's token.
    pub(crate) fn fd(&self) -> RawFd {
        self.read_end.as_raw_fd()
    }

    /// Make the poller's next (or current) wait return. Safe from any
    /// thread; a full pipe means a wakeup is already pending, which is all
    /// that is needed.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write_end).write(&[1u8]);
    }

    /// Consume pending wakeup bytes after the poller reported readability.
    pub(crate) fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.read_end).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 0, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 0);
        assert!(events[0].readable);
        waker.drain();

        // Drained: quiet again.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        client.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hi");

        // Pause reads, ask for write readiness: an idle socket is writable.
        poller
            .rearm(server.as_raw_fd(), 7, Interest::WRITE)
            .unwrap();
        client.write_all(b"more").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        assert!(
            events.iter().all(|e| e.token != 7 || !e.readable),
            "read interest was paused"
        );

        poller.deregister(server.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }
}
