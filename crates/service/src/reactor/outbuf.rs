//! Per-connection outgoing frame buffer with partial-write resumption.
//!
//! Producers (worker threads, experiment tailers, status listeners) append
//! whole encoded frames; the reactor drains bytes into the socket whenever
//! it is writable. A write syscall may consume any byte count — including
//! one that ends mid-frame — so the buffer tracks an offset into its front
//! frame and [`OutBuf::consume`] advances across frame boundaries exactly
//! as far as the kernel accepted.
//!
//! # The starved bit
//!
//! A producer whose offer is refused keeps its frame and must learn when
//! to try again. The refusal sets a sticky `starved` mark under the same
//! lock that guards the queue, and [`OutBuf::take_starved`] hands it out
//! exactly once, as soon as an offer could get a different answer (room
//! again, or the buffer closing). Because both sides run under one lock,
//! either the drain sees the mark the refusal set, or the offer sees the
//! room the drain made: the wake-up cannot fall between them.
//!
//! # Two fill marks
//!
//! A woken producer refills the queue the moment it drains, so a stream
//! faster than its reader keeps the queue at its mark for as long as it
//! lasts. File-backed stream frames ([`OutBuf::offer_stream`]) therefore
//! stop an eighth short of the capacity: what they leave free is what
//! lets a lossy push land instead of turning into a `lag` notice, and what
//! keeps the stream alone from holding the connection at the reactor's
//! read-pause mark (the same number), where its own requests —
//! `unsubscribe` among them — would go unread.

use std::collections::VecDeque;

/// Outcome of one capacity-checked append attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The frame was queued.
    Sent,
    /// The queue is at capacity; the caller keeps the frame.
    Full,
    /// The connection is closed; the frame can never be delivered.
    Closed,
}

/// Bounded queue of encoded frames awaiting the socket.
#[derive(Debug)]
pub struct OutBuf {
    frames: VecDeque<String>,
    /// Bytes of the front frame already written to the socket.
    front_written: usize,
    /// Soft capacity (frames) enforced for subscription traffic only;
    /// replies bypass it because request dispatch is paused upstream when
    /// the buffer backs up.
    cap: usize,
    /// No more appends; drain what remains, then the reactor closes the
    /// socket.
    closing: bool,
    /// The socket is gone; everything is discarded.
    closed: bool,
    /// The lowest fill mark an offer was refused at since anybody was last
    /// told that trying again is worthwhile.
    starved: Option<usize>,
}

impl OutBuf {
    /// An empty buffer with the given soft frame capacity.
    pub fn new(cap: usize) -> Self {
        OutBuf {
            frames: VecDeque::new(),
            front_written: 0,
            cap,
            closing: false,
            closed: false,
            starved: None,
        }
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the buffer refuses new frames forever.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Mark the connection as drain-then-close: no new frames, but queued
    /// ones still go out.
    pub fn begin_close(&mut self) {
        self.closing = true;
    }

    /// Mark the connection dead and drop everything queued.
    pub fn close(&mut self) {
        self.closed = true;
        self.closing = true;
        self.frames.clear();
        self.front_written = 0;
    }

    /// Append a frame unconditionally (reply tier — backpressure is applied
    /// upstream by pausing reads). Returns false if the connection is
    /// closed or closing.
    pub fn push_reply(&mut self, frame: String) -> bool {
        if self.closed || self.closing {
            return false;
        }
        self.frames.push_back(frame);
        true
    }

    /// Append a lossy or stream-control frame if there is capacity.
    pub fn offer(&mut self, frame: String) -> Offer {
        self.offer_below(frame, self.cap)
    }

    /// Append a frame of a stream that can always wait (its source is a
    /// file), leaving the last eighth of the capacity to [`OutBuf::offer`].
    pub fn offer_stream(&mut self, frame: String) -> Offer {
        self.offer_below(frame, self.cap - self.cap / 8)
    }

    fn offer_below(&mut self, frame: String, mark: usize) -> Offer {
        if self.closed || self.closing {
            return Offer::Closed;
        }
        if self.frames.len() >= mark {
            self.starved = Some(self.starved.map_or(mark, |m| m.min(mark)));
            return Offer::Full;
        }
        self.frames.push_back(frame);
        Offer::Sent
    }

    /// Whether a refused producer should be woken now: true exactly once
    /// per run of refusals, and only when a retry would no longer be
    /// refused for lack of room. Call after [`OutBuf::consume`],
    /// [`OutBuf::begin_close`] or [`OutBuf::close`], under the same lock.
    pub fn take_starved(&mut self) -> bool {
        let wake = self
            .starved
            .is_some_and(|mark| self.closing || self.frames.len() < mark);
        if wake {
            self.starved = None;
        }
        wake
    }

    /// Copy up to `limit` bytes of queued frames into `scratch` (cleared
    /// first), starting at the resumption point. Returns the byte count
    /// staged; 0 means nothing is queued.
    pub fn stage(&self, scratch: &mut Vec<u8>, limit: usize) -> usize {
        scratch.clear();
        let mut skip = self.front_written;
        for frame in &self.frames {
            if scratch.len() >= limit {
                break;
            }
            let bytes = frame.as_bytes();
            let body = &bytes[skip.min(bytes.len())..];
            skip = 0;
            let room = limit - scratch.len();
            scratch.extend_from_slice(&body[..body.len().min(room)]);
        }
        scratch.len()
    }

    /// Advance past `n` written bytes (as reported by the socket), popping
    /// fully-sent frames and recording the offset into a partially-sent
    /// front frame so the next [`OutBuf::stage`] resumes exactly there.
    pub fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let front_len = match self.frames.front() {
                Some(frame) => frame.len(),
                None => {
                    debug_assert!(false, "consumed more bytes than staged");
                    self.front_written = 0;
                    return;
                }
            };
            let remaining = front_len - self.front_written;
            if n >= remaining {
                self.frames.pop_front();
                self.front_written = 0;
                n -= remaining;
            } else {
                self.front_written += n;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain an OutBuf through writes of `k` bytes at a time and return the
    /// concatenated byte stream the "socket" saw.
    fn drain_in_chunks(out: &mut OutBuf, k: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        loop {
            let staged = out.stage(&mut scratch, 64 * 1024);
            if staged == 0 {
                break;
            }
            let take = staged.min(k);
            wire.extend_from_slice(&scratch[..take]);
            out.consume(take);
        }
        wire
    }

    #[test]
    fn partial_writes_resume_at_every_split_point() {
        let frames = ["{\"a\":1}\n", "{\"bb\":22}\n", "x\n", "{\"ccc\":333}\n"];
        let expected: Vec<u8> = frames.concat().into_bytes();
        for k in 1..=expected.len() {
            let mut out = OutBuf::new(16);
            for f in frames {
                assert!(out.push_reply(f.to_owned()));
            }
            assert_eq!(drain_in_chunks(&mut out, k), expected, "chunk size {k}");
            assert!(out.is_empty());
        }
    }

    #[test]
    fn offer_respects_capacity_and_close() {
        let mut out = OutBuf::new(2);
        assert_eq!(out.offer("a\n".into()), Offer::Sent);
        assert_eq!(out.offer("b\n".into()), Offer::Sent);
        assert_eq!(out.offer("c\n".into()), Offer::Full);
        // Replies bypass the soft cap.
        assert!(out.push_reply("r\n".into()));
        out.consume(4);
        assert_eq!(out.offer("c\n".into()), Offer::Sent);
        out.close();
        assert_eq!(out.offer("d\n".into()), Offer::Closed);
        assert!(!out.push_reply("r\n".into()));
        assert!(out.is_empty());
    }

    fn full(cap: usize) -> OutBuf {
        let mut out = OutBuf::new(cap);
        for _ in 0..cap {
            assert_eq!(out.offer("abcd\n".into()), Offer::Sent);
        }
        out
    }

    #[test]
    fn refused_offer_is_woken_exactly_once_when_room_returns() {
        let mut out = full(2);
        assert!(!out.take_starved(), "nothing refused yet");
        assert_eq!(out.offer("x\n".into()), Offer::Full);
        assert_eq!(out.offer("x\n".into()), Offer::Full);
        assert!(!out.take_starved(), "still full: a retry would be refused");
        out.consume(5);
        assert!(out.take_starved());
        assert!(!out.take_starved(), "one wake-up per run of refusals");
        // The retry succeeds, and a later refusal arms the bit afresh.
        assert_eq!(out.offer("x\n".into()), Offer::Sent);
        assert_eq!(out.offer("y\n".into()), Offer::Full);
        out.consume(5);
        assert!(out.take_starved());
    }

    #[test]
    fn drain_without_a_refused_offer_wakes_nobody() {
        let mut out = full(2);
        out.consume(5);
        assert!(!out.take_starved());
        out.consume(5);
        assert!(!out.take_starved());
    }

    #[test]
    fn partial_write_that_frees_no_frame_wakes_nobody() {
        let mut out = full(2);
        assert_eq!(out.offer("x\n".into()), Offer::Full);
        out.consume(3);
        assert!(!out.take_starved(), "front frame only partly written");
        // Replies bypass the cap, so one freed frame may still leave no room.
        assert!(out.push_reply("r\n".into()));
        out.consume(2);
        assert!(!out.take_starved(), "2 frames queued at cap 2");
        out.consume(5);
        assert!(out.take_starved());
    }

    #[test]
    fn stream_frames_leave_an_eighth_to_the_other_pushes() {
        let mut out = OutBuf::new(16);
        for _ in 0..14 {
            assert_eq!(out.offer_stream("abcd\n".into()), Offer::Sent);
        }
        assert_eq!(out.offer_stream("abcd\n".into()), Offer::Full);
        assert_eq!(out.offer("abcd\n".into()), Offer::Sent);
        assert_eq!(out.offer("abcd\n".into()), Offer::Sent);
        assert_eq!(out.offer("abcd\n".into()), Offer::Full);
        // The wake-up waits for the lower of the marks refused at.
        out.consume(10);
        assert!(
            !out.take_starved(),
            "14 queued: the stream is still refused"
        );
        out.consume(5);
        assert!(out.take_starved());
        assert_eq!(out.offer_stream("abcd\n".into()), Offer::Sent);
        // A queue too shallow to spare a frame gives the stream all of it.
        let mut out = OutBuf::new(4);
        for _ in 0..4 {
            assert_eq!(out.offer_stream("abcd\n".into()), Offer::Sent);
        }
        assert_eq!(out.offer_stream("abcd\n".into()), Offer::Full);
    }

    #[test]
    fn closing_wakes_a_refused_producer() {
        let mut out = full(1);
        assert_eq!(out.offer("x\n".into()), Offer::Full);
        out.begin_close();
        assert!(out.take_starved(), "the retry now answers Closed");
        assert!(!out.take_starved());

        let mut out = full(1);
        assert_eq!(out.offer("x\n".into()), Offer::Full);
        out.close();
        assert!(out.take_starved());
        assert_eq!(out.offer("x\n".into()), Offer::Closed);
    }
}
