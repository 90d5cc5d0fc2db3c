//! Newline-delimited frame decoding with size limits and torn-frame
//! handling.
//!
//! Two layers share one implementation:
//!
//! * [`FrameBuf`] is the sans-io core: an incremental byte accumulator fed
//!   explicitly (e.g. from reactor readiness events) that yields one parsed
//!   [`JsonValue`] per newline-terminated line. Frames are parsed directly
//!   from the accumulation buffer — no per-frame `String` allocation on the
//!   hot path.
//! * [`FrameReader`] wraps a blocking (or timeout-bearing) byte stream
//!   around a [`FrameBuf`] for the client library and tests: it pulls bytes
//!   itself and distinguishes a clean EOF (at a line boundary) from a torn
//!   frame (EOF mid-line) and from a read timeout.

use std::fmt::Display;
use std::io::Read;

use asha_core::Error;
use asha_metrics::JsonValue;

use crate::proto::DEFAULT_MAX_FRAME;

/// Outcome of one [`FrameReader::read_frame`] call: the frame parsed as a
/// [`JsonValue`], or, for the client's reads, as what its parser makes of
/// the line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<T = JsonValue> {
    /// A complete, parsed frame.
    Value(T),
    /// The peer closed the stream at a frame boundary.
    Eof,
    /// The read timed out (or would block) with no complete frame buffered;
    /// call again. Only seen when the stream has a read timeout set (or is
    /// non-blocking).
    TimedOut,
}

/// Incremental, sans-io frame decoder: feed bytes in, take frames out.
///
/// The reactor feeds it from a shared read scratch buffer on readiness
/// events; [`FrameReader`] feeds it from its own stream. Between frames the
/// consumed prefix is compacted away, so steady-state memory is one partial
/// line, not the connection's history.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted by [`FrameBuf::compact`]).
    start: usize,
    max_frame: usize,
}

impl FrameBuf {
    /// An empty decoder with an explicit frame-size limit (bytes, excluding
    /// the newline).
    pub fn new(max_frame: usize) -> Self {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Append raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a partial (newline-less) line is buffered — at EOF this
    /// means the peer tore a frame.
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub(crate) fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Enforce the size limit on a still-incomplete line: a buffered
    /// partial longer than the limit can never become a legal frame, so it
    /// is discarded and reported immediately rather than growing without
    /// bound. Call after [`FrameBuf::next_frame`] returns `None`.
    pub(crate) fn check_overflow(&mut self) -> Result<(), Error> {
        if self.pending_len() > self.max_frame {
            self.buf.clear();
            self.start = 0;
            return Err(Error::protocol(format!(
                "frame exceeds limit of {} bytes without a newline",
                self.max_frame
            )));
        }
        Ok(())
    }

    /// Drop everything buffered (used when abandoning a poisoned stream).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    /// Take the next complete frame, if one is buffered.
    ///
    /// Blank lines are skipped (keepalive-friendly); an oversized or
    /// malformed line is consumed (so the error is not sticky) and returned
    /// as `Some(Err(_))`.
    pub fn next_frame(&mut self) -> Option<Result<JsonValue, Error>> {
        self.next_frame_with(&mut JsonValue::parse)
    }

    /// [`FrameBuf::next_frame`], with `parse` in place of
    /// [`JsonValue::parse`].
    fn next_frame_with<T, E: Display>(
        &mut self,
        parse: &mut impl FnMut(&str) -> Result<T, E>,
    ) -> Option<Result<T, Error>> {
        loop {
            let pending = &self.buf[self.start..];
            let nl = pending.iter().position(|&b| b == b'\n')?;
            if nl > self.max_frame {
                let limit = self.max_frame;
                self.start += nl + 1;
                return Some(Err(Error::protocol(format!(
                    "frame of {nl} bytes exceeds limit of {limit} bytes"
                ))));
            }
            let line = trim_ascii(&pending[..nl]);
            if line.is_empty() {
                self.start += nl + 1;
                continue;
            }
            // Parse straight out of the accumulation buffer; only invalid
            // UTF-8 (which cannot be legal JSON anyway) takes the lossy
            // allocating path so its error message matches what a text
            // parser would report.
            let parsed = match std::str::from_utf8(line) {
                Ok(text) => parse(text),
                Err(_) => parse(&String::from_utf8_lossy(line)),
            };
            let result = parsed.map_err(|e| Error::protocol(format!("malformed frame: {e}")));
            self.start += nl + 1;
            return Some(result);
        }
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

fn trim_ascii(mut bytes: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = bytes {
        if first.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = bytes {
        if last.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// Blocking frame reader over any byte stream: a [`FrameBuf`] plus a read
/// scratch buffer and the stream itself.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    frames: FrameBuf,
    chunk: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream with the default frame-size limit.
    pub fn new(inner: R) -> Self {
        FrameReader::with_max_frame(inner, DEFAULT_MAX_FRAME)
    }

    /// Wrap a stream with an explicit frame-size limit (bytes, excluding
    /// the newline).
    pub fn with_max_frame(inner: R, max_frame: usize) -> Self {
        FrameReader {
            inner,
            frames: FrameBuf::new(max_frame),
            // The daemon writes a stream of pushes 64 KiB at a time (the
            // reactor's write size): one read takes in one write.
            chunk: vec![0u8; 64 * 1024],
        }
    }

    /// Shared access to the underlying stream.
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Read until one complete frame (or EOF / timeout) is available.
    ///
    /// A buffered partial line longer than the frame limit fails
    /// immediately; a partial line at EOF is a torn frame and fails with a
    /// `protocol` error.
    pub fn read_frame(&mut self) -> Result<Frame, Error> {
        self.read_frame_with(JsonValue::parse)
    }

    /// [`FrameReader::read_frame`], with `parse` in place of
    /// [`JsonValue::parse`].
    pub(crate) fn read_frame_with<T, E: Display>(
        &mut self,
        mut parse: impl FnMut(&str) -> Result<T, E>,
    ) -> Result<Frame<T>, Error> {
        loop {
            if let Some(frame) = self.frames.next_frame_with(&mut parse) {
                return frame.map(Frame::Value);
            }
            self.frames.check_overflow()?;
            let n = match self.inner.read(&mut self.chunk) {
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Frame::TimedOut);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::from(e).context("reading frame")),
            };
            if n == 0 {
                if !self.frames.has_partial() {
                    return Ok(Frame::Eof);
                }
                self.frames.clear();
                return Err(Error::protocol("torn frame: stream ended mid-line"));
            }
            self.frames.feed(&self.chunk[..n]);
        }
    }
}

/// Encode one frame as its wire bytes (compact JSON + newline).
pub fn encode_frame(frame: &JsonValue) -> String {
    let mut line = frame.render_compact();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn splits_frames_and_handles_eof() {
        let bytes = b"{\"a\":1}\n\n{\"b\":2}\n".to_vec();
        let mut r = FrameReader::new(Cursor::new(bytes));
        match r.read_frame().unwrap() {
            Frame::Value(v) => assert_eq!(v.get("a").and_then(|x| x.as_u64()), Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        match r.read_frame().unwrap() {
            Frame::Value(v) => assert_eq!(v.get("b").and_then(|x| x.as_u64()), Some(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn torn_frame_at_eof_is_an_error() {
        let mut r = FrameReader::new(Cursor::new(b"{\"a\":1}\n{\"b\":".to_vec()));
        assert!(matches!(r.read_frame().unwrap(), Frame::Value(_)));
        let err = r.read_frame().unwrap_err();
        assert!(err.to_string().contains("torn frame"), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_without_sticking() {
        let big = format!("{{\"pad\":\"{}\"}}\n{{\"ok\":1}}\n", "x".repeat(64));
        let mut r = FrameReader::with_max_frame(Cursor::new(big.into_bytes()), 32);
        assert!(r.read_frame().unwrap_err().to_string().contains("exceeds"));
        match r.read_frame().unwrap() {
            Frame::Value(v) => assert_eq!(v.get("ok").and_then(|x| x.as_u64()), Some(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn framebuf_yields_frames_across_arbitrary_feeds() {
        let wire = b"{\"a\":1}\n{\"b\":2}\n";
        let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
        let mut seen = Vec::new();
        for &byte in wire.iter() {
            fb.feed(&[byte]);
            while let Some(frame) = fb.next_frame() {
                seen.push(frame.unwrap());
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].get("a").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(seen[1].get("b").and_then(|x| x.as_u64()), Some(2));
        assert!(!fb.has_partial());
    }

    #[test]
    fn framebuf_overflow_clears_and_reports() {
        let mut fb = FrameBuf::new(16);
        fb.feed(&[b'x'; 64]);
        assert!(fb.next_frame().is_none());
        assert!(fb.check_overflow().is_err());
        assert_eq!(fb.pending_len(), 0);
    }
}
