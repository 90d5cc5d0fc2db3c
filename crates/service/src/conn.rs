//! A unified stream type over Unix-domain and TCP sockets.
//!
//! Server and client both speak the protocol over [`Conn`], so every code
//! path above the transport is identical for both listener families.

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// One connected byte stream, Unix or TCP.
#[derive(Debug)]
pub(crate) enum Conn {
    /// A Unix-domain socket connection.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Conn {
    /// Clone the underlying socket handle (independent cursor; same
    /// connection), so one side can read while the other writes.
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    /// Set the read timeout (None = block forever).
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Switch the socket between blocking and non-blocking mode. The
    /// daemon's reactor runs every accepted socket non-blocking; the client
    /// library keeps its sockets blocking with read timeouts.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// The raw file descriptor, for readiness registration.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Conn::Unix(s) => s.as_raw_fd(),
            Conn::Tcp(s) => s.as_raw_fd(),
        }
    }

    /// Shut down both directions, unblocking any reader on the peer or on
    /// a cloned handle.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// Short peer description for tracing.
    pub(crate) fn peer(&self) -> String {
        match self {
            #[cfg(unix)]
            Conn::Unix(_) => "unix".to_owned(),
            Conn::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp".to_owned()),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}
