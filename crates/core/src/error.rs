//! The unified error type every asha crate's fallible surface converges on.
//!
//! Four PRs of growth left the workspace with three error dialects — ad-hoc
//! `Result<_, String>` in codecs and parsers, a crate-local error
//! enum in `asha-store`, and panics in config constructors. This module
//! replaces all of them with one [`Error`] value: a machine-matchable
//! [`ErrorKind`], a human-readable message, an optional filesystem path,
//! and a context chain that call sites push onto as the error propagates
//! upward (outermost context first, like `anyhow`).
//!
//! `From` impls make `?` work across crate boundaries: `std::io::Error`
//! converts with [`ErrorKind::Io`], and bare `String`/`&str` messages (the
//! legacy codec dialect) convert with [`ErrorKind::Codec`], so hand-rolled
//! JSON decoders keep their terse `ok_or("missing field")?` style while
//! surfacing a real error type.
//!
//! ```
//! use asha_core::error::{Error, ErrorKind, ResultContext};
//!
//! fn parse(text: &str) -> Result<u64, Error> {
//!     text.trim().parse::<u64>().map_err(|e| Error::codec(e.to_string()))
//! }
//!
//! let err = parse("nope").context("reading worker count").unwrap_err();
//! assert_eq!(err.kind(), ErrorKind::Codec);
//! assert!(err.to_string().starts_with("reading worker count: "));
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// Broad category of an [`Error`], for programmatic matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// An underlying I/O operation (filesystem or socket) failed.
    Io,
    /// Stored or received data exists but violates its schema.
    Corrupt,
    /// A required file, experiment, or entity is absent.
    Missing,
    /// An operation does not apply to the current state (duplicate create,
    /// pausing a stopped experiment, ...).
    Invalid,
    /// Encoding or decoding a persisted/wire value failed.
    Codec,
    /// A wire-protocol violation: malformed, oversized, or torn frame,
    /// unsupported version, or an unexpected reply.
    Protocol,
    /// A configuration value failed validation.
    Config,
}

impl ErrorKind {
    /// Stable lowercase name (used on the wire and in logs).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Io => "io",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Missing => "missing",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Codec => "codec",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Config => "config",
        }
    }

    /// Parse a kind name written by [`ErrorKind::as_str`]. Unknown names
    /// (e.g. from a newer peer) fall back to [`ErrorKind::Invalid`].
    pub fn parse(s: &str) -> Self {
        match s {
            "io" => ErrorKind::Io,
            "corrupt" => ErrorKind::Corrupt,
            "missing" => ErrorKind::Missing,
            "codec" => ErrorKind::Codec,
            "protocol" => ErrorKind::Protocol,
            "config" => ErrorKind::Config,
            _ => ErrorKind::Invalid,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The unified asha error: kind + message + optional path + context chain.
///
/// Construct one with the kind-named constructors ([`Error::io`],
/// [`Error::corrupt`], [`Error::missing`], [`Error::invalid`],
/// [`Error::codec`], [`Error::protocol`], [`Error::config`]) and add caller
/// context with [`Error::context`] or the [`ResultContext`] extension
/// trait as it propagates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    message: String,
    path: Option<PathBuf>,
    /// Outermost context first.
    context: Vec<String>,
}

impl Error {
    /// A new error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Error {
            kind,
            message: message.into(),
            path: None,
            context: Vec::new(),
        }
    }

    /// An [`ErrorKind::Io`] error for an operation on `path`.
    pub fn io(path: &Path, err: std::io::Error) -> Self {
        Error::new(ErrorKind::Io, err.to_string()).with_path(path)
    }

    /// An [`ErrorKind::Corrupt`] error for the file at `path`.
    pub fn corrupt(path: &Path, message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Corrupt, message).with_path(path)
    }

    /// An [`ErrorKind::Missing`] error: `what` was looked for and absent.
    pub fn missing(what: impl Into<String>) -> Self {
        Error::new(ErrorKind::Missing, what)
    }

    /// An [`ErrorKind::Invalid`] error.
    pub fn invalid(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Invalid, message)
    }

    /// An [`ErrorKind::Codec`] error.
    pub fn codec(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Codec, message)
    }

    /// An [`ErrorKind::Protocol`] error.
    pub fn protocol(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Protocol, message)
    }

    /// An [`ErrorKind::Config`] error.
    pub fn config(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Config, message)
    }

    /// Attach the filesystem path the error concerns.
    pub(crate) fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Push a layer of caller context; the most recently added context
    /// renders outermost.
    pub fn context(mut self, ctx: impl Into<String>) -> Self {
        self.context.insert(0, ctx.into());
        self
    }

    /// Recast as [`ErrorKind::Corrupt`] at `path`, keeping the message and
    /// context chain — for wrapping decode failures once the offending file
    /// is known.
    pub fn corrupt_at(mut self, path: &Path) -> Self {
        self.kind = ErrorKind::Corrupt;
        self.path = Some(path.to_owned());
        self
    }

    /// The error's category.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The innermost message (no context, no path).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The filesystem path the error concerns, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ctx in &self.context {
            write!(f, "{ctx}: ")?;
        }
        match self.kind {
            ErrorKind::Io => {}
            ErrorKind::Corrupt => write!(f, "corrupt: ")?,
            ErrorKind::Missing => write!(f, "not found: ")?,
            ErrorKind::Invalid => write!(f, "invalid: ")?,
            ErrorKind::Codec => write!(f, "decode: ")?,
            ErrorKind::Protocol => write!(f, "protocol: ")?,
            ErrorKind::Config => write!(f, "config: ")?,
        }
        if let Some(path) = &self.path {
            write!(f, "{}: ", path.display())?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::new(ErrorKind::Io, err.to_string())
    }
}

impl From<String> for Error {
    /// Bare-`String` errors are the legacy codec dialect; they convert as
    /// [`ErrorKind::Codec`] so `?` keeps working in hand-rolled decoders.
    fn from(message: String) -> Self {
        Error::codec(message)
    }
}

impl From<&str> for Error {
    fn from(message: &str) -> Self {
        Error::codec(message)
    }
}

/// Extension adding [`Error::context`] directly on `Result`.
pub trait ResultContext<T> {
    /// Wrap any error with a fixed layer of context.
    fn context(self, ctx: impl Into<String>) -> Result<T, Error>;
    /// Wrap any error with lazily built context.
    fn with_context<F: FnOnce() -> String>(self, f: F) -> Result<T, Error>;
}

impl<T, E: Into<Error>> ResultContext<T> for Result<T, E> {
    fn context(self, ctx: impl Into<String>) -> Result<T, Error> {
        self.map_err(|e| e.into().context(ctx))
    }

    fn with_context<F: FnOnce() -> String>(self, f: F) -> Result<T, Error> {
        self.map_err(|e| e.into().context(f()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_context_kind_path_message() {
        let err = Error::corrupt(Path::new("/tmp/wal.jsonl"), "bad line")
            .context("recovering experiment \"demo\"");
        assert_eq!(
            err.to_string(),
            "recovering experiment \"demo\": corrupt: /tmp/wal.jsonl: bad line"
        );
        assert_eq!(err.kind(), ErrorKind::Corrupt);
        assert_eq!(err.path(), Some(Path::new("/tmp/wal.jsonl")));
    }

    #[test]
    fn string_errors_convert_as_codec() {
        fn inner() -> Result<(), String> {
            Err("missing field".to_owned())
        }
        fn outer() -> Result<(), Error> {
            inner()?;
            Ok(())
        }
        let err = outer().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Codec);
        assert_eq!(err.message(), "missing field");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            ErrorKind::Io,
            ErrorKind::Corrupt,
            ErrorKind::Missing,
            ErrorKind::Invalid,
            ErrorKind::Codec,
            ErrorKind::Protocol,
            ErrorKind::Config,
        ] {
            assert_eq!(ErrorKind::parse(kind.as_str()), kind);
        }
        assert_eq!(ErrorKind::parse("from-the-future"), ErrorKind::Invalid);
    }
}
