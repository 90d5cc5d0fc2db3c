//! Client library for the `asha-serve` protocol.
//!
//! [`Client`] wraps one connection (Unix or TCP), correlates replies by
//! request id, and buffers any push frames that arrive interleaved with
//! replies so nothing is lost while a call is in flight. The `asha-ctl`
//! binary is a thin shell around this type.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use asha_core::Error;
use asha_metrics::JsonValue;
use asha_store::{ExperimentMeta, RunOptions};

use crate::codec::{encode_frame, Frame, FrameReader};
use crate::conn::Conn;
use crate::proto::{Push, PushFields, Reply, Request, WireStatus};

/// A frame as the client reads it. A push is decoded field by field
/// straight from its line ([`JsonValue::parse_fields`]), so the envelope of
/// a pushed event builds no tree and allocates no keys; anything else is
/// parsed again as a tree (a reply, rare on a streaming connection).
enum Incoming {
    Push(PushFields),
    Other(JsonValue),
}

impl Incoming {
    fn parse(text: &str) -> Result<Incoming, impl std::fmt::Display> {
        let mut fields = PushFields::default();
        JsonValue::parse_fields(text, |key, value| fields.offer(key, value))?;
        if fields.is_push() {
            Ok(Incoming::Push(fields))
        } else {
            JsonValue::parse(text).map(Incoming::Other)
        }
    }
}

/// A connected protocol client.
pub struct Client {
    reader: FrameReader<Conn>,
    writer: Conn,
    next_id: u64,
    /// Push frames received while waiting for a reply, in arrival order.
    pending: VecDeque<Push>,
    /// Bound on how long [`Client::call`] waits for its reply (`None`
    /// blocks forever — a dead daemon then hangs the caller).
    call_timeout: Option<Duration>,
    /// The read timeout the socket currently carries, so it is touched
    /// only when the wanted value changes.
    armed: Option<Duration>,
}

/// Read-timeout slice while a bounded wait polls its deadline.
const POLL_SLICE: Duration = Duration::from_millis(50);

impl Client {
    /// Connect over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, Error> {
        let path = path.as_ref();
        let stream = UnixStream::connect(path)
            .map_err(|e| Error::io(path, e).context("connecting to daemon"))?;
        Client::from_conn(Conn::Unix(stream))
    }

    /// Connect over TCP.
    pub fn connect_tcp(addr: &str) -> Result<Client, Error> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::from(e).context(format!("connecting to daemon at {addr}")))?;
        Client::from_conn(Conn::Tcp(stream))
    }

    /// Connect over TCP with a bound on connection establishment, so an
    /// unreachable daemon fails fast instead of hanging in the kernel's
    /// connect retry. (Unix-domain connects are local and resolve
    /// immediately; use [`Client::set_call_timeout`] for dead-daemon
    /// protection there.)
    pub fn connect_tcp_timeout(addr: &str, timeout: Duration) -> Result<Client, Error> {
        use std::net::ToSocketAddrs;
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| Error::from(e).context(format!("resolving daemon address {addr}")))?
            .next()
            .ok_or_else(|| {
                Error::invalid(format!("daemon address {addr:?} resolved to nothing"))
            })?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)
            .map_err(|e| Error::from(e).context(format!("connecting to daemon at {addr}")))?;
        Client::from_conn(Conn::Tcp(stream))
    }

    fn from_conn(conn: Conn) -> Result<Client, Error> {
        let writer = conn
            .try_clone()
            .map_err(|e| Error::from(e).context("cloning connection"))?;
        Ok(Client {
            reader: FrameReader::new(conn),
            writer,
            next_id: 1,
            pending: VecDeque::new(),
            call_timeout: None,
            armed: None,
        })
    }

    /// Bound how long `Client::call` (and every convenience wrapper)
    /// waits for a reply. `None` restores the default: block forever.
    pub fn set_call_timeout(&mut self, timeout: Option<Duration>) {
        self.call_timeout = timeout;
    }

    /// Send one request and block for its reply (bounded by
    /// [`Client::set_call_timeout`], if set). Push frames that arrive
    /// first are buffered for [`Client::next_push`].
    pub(crate) fn call(&mut self, request: &Request) -> Result<Reply, Error> {
        let id = self.next_id;
        self.next_id += 1;
        let line = encode_frame(&request.to_frame(id));
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| Error::from(e).context("sending request"))?;
        let op = request.op();
        let deadline = self.call_timeout.map(|t| Instant::now() + t);
        // Poll in short slices so the deadline is honored even when the
        // daemon never writes a byte; without one, block for real.
        self.arm_read_timeout(deadline.map(|_| POLL_SLICE))?;
        loop {
            match self.reader.read_frame_with(Incoming::parse) {
                Err(e) => break Err(e),
                Ok(Frame::Eof) => {
                    break Err(Error::protocol("connection closed while awaiting reply"))
                }
                Ok(Frame::TimedOut) => {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            break Err(Error::from(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                format!(
                                    "no reply to {op:?} within {:?}",
                                    self.call_timeout.unwrap()
                                ),
                            ))
                            .context("daemon unresponsive"));
                        }
                    }
                }
                Ok(Frame::Value(Incoming::Push(fields))) => match fields.decode() {
                    Ok(push) => self.pending.push_back(push),
                    Err(e) => break Err(e),
                },
                Ok(Frame::Value(Incoming::Other(frame))) => {
                    break Reply::from_frame(&frame, op).and_then(|(got_id, reply)| {
                        if got_id != id {
                            return Err(Error::protocol(format!(
                                "reply id {got_id} does not match request id {id}"
                            )));
                        }
                        reply
                    });
                }
            }
        }
    }

    /// Next push frame: buffered ones first, then the wire. `timeout`
    /// bounds the wait (`None` blocks until a frame or EOF). Returns
    /// `Ok(None)` on timeout or a cleanly closed connection.
    pub fn next_push(&mut self, timeout: Option<Duration>) -> Result<Option<Push>, Error> {
        if let Some(push) = self.pending.pop_front() {
            return Ok(Some(push));
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        // Poll in short slices so a bounded wait stays responsive without
        // reconfiguring the socket per call.
        self.arm_read_timeout(Some(POLL_SLICE))?;
        loop {
            match self.reader.read_frame_with(Incoming::parse) {
                Ok(Frame::Eof) => break Ok(None),
                Ok(Frame::TimedOut) => {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            break Ok(None);
                        }
                    }
                }
                Ok(Frame::Value(Incoming::Push(fields))) => break fields.decode().map(Some),
                // A reply with no in-flight call is a protocol breach.
                Ok(Frame::Value(Incoming::Other(_))) => {
                    break Err(Error::protocol("unsolicited reply frame"))
                }
                Err(e) => break Err(e),
            }
        }
    }

    /// Make the socket's read timeout `want`; returns whether the socket
    /// had to be touched. A stream of pushes, or of calls under one
    /// deadline, sets it once instead of arming and disarming per frame.
    fn arm_read_timeout(&mut self, want: Option<Duration>) -> Result<bool, Error> {
        if self.armed == want {
            return Ok(false);
        }
        self.reader
            .get_ref()
            .set_read_timeout(want)
            .map_err(|e| Error::from(e).context("setting read timeout"))?;
        self.armed = want;
        Ok(true)
    }

    // ---- Convenience wrappers over the request vocabulary ----

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), Error> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(Error::protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Create an experiment (does not start it).
    pub fn create(&mut self, meta: &ExperimentMeta, opts: RunOptions) -> Result<(), Error> {
        self.call(&Request::Create {
            meta: meta.clone(),
            opts,
        })
        .map(|_| ())
    }

    /// Start (or restart) an experiment.
    pub fn start(&mut self, name: &str, opts: RunOptions) -> Result<(), Error> {
        self.call(&Request::Start {
            name: name.to_owned(),
            opts,
        })
        .map(|_| ())
    }

    /// Pause at the next step boundary.
    pub fn pause(&mut self, name: &str) -> Result<(), Error> {
        self.call(&Request::Pause {
            name: name.to_owned(),
        })
        .map(|_| ())
    }

    /// Resume a paused experiment.
    pub fn resume(&mut self, name: &str) -> Result<(), Error> {
        self.call(&Request::Resume {
            name: name.to_owned(),
        })
        .map(|_| ())
    }

    /// Abort (snapshot and stop; resumable later).
    pub fn abort(&mut self, name: &str) -> Result<(), Error> {
        self.call(&Request::Abort {
            name: name.to_owned(),
        })
        .map(|_| ())
    }

    /// One experiment's current status.
    pub fn status(&mut self, name: &str) -> Result<WireStatus, Error> {
        match self.call(&Request::Status {
            name: name.to_owned(),
        })? {
            Reply::Status(s) => Ok(s),
            other => Err(Error::protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// All manifest rows.
    pub fn list(&mut self) -> Result<Vec<WireStatus>, Error> {
        match self.call(&Request::List)? {
            Reply::List(rows) => Ok(rows),
            other => Err(Error::protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Full metrics-plane snapshot as raw JSON (schema
    /// `asha-daemon-metrics-v1`); histograms decode with
    /// [`asha_obs::HistogramSnapshot::from_json`].
    pub fn metrics(&mut self) -> Result<JsonValue, Error> {
        match self.call(&Request::Metrics)? {
            Reply::Metrics(v) => Ok(v),
            other => Err(Error::protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Subscribe to an experiment's live WAL stream from telemetry
    /// sequence `from_seq`; returns the subscription id.
    pub fn subscribe(&mut self, name: &str, from_seq: u64) -> Result<u64, Error> {
        match self.call(&Request::Subscribe {
            name: name.to_owned(),
            from_seq,
        })? {
            Reply::Subscribed { sub } => Ok(sub),
            other => Err(Error::protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Cancel a subscription.
    pub fn unsubscribe(&mut self, sub: u64) -> Result<(), Error> {
        self.call(&Request::Unsubscribe { sub }).map(|_| ())
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        self.call(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use super::*;

    /// Whether the socket itself carries a read timeout (the kernel rounds
    /// the value to its clock tick, so only its presence is compared).
    fn socket_armed(client: &Client) -> bool {
        match client.reader.get_ref() {
            Conn::Unix(s) => s.read_timeout().unwrap().is_some(),
            Conn::Tcp(s) => s.read_timeout().unwrap().is_some(),
        }
    }

    /// A client on one end of a socket pair; the test plays the daemon on
    /// the other.
    fn pair() -> (Client, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        (Client::from_conn(Conn::Unix(ours)).unwrap(), theirs)
    }

    /// The client decodes a push from its text, field by field; the tree
    /// decoder ([`Push::is_push_frame`], [`Push::from_frame`]) is its oracle:
    /// the same push or the same error, and a reply is still a reply.
    #[test]
    fn a_push_read_from_its_text_is_the_push_its_tree_decodes_to() {
        let data =
            r#"{"seq":3,"t":1.5,"ev":"job_end","trial":1,"rung":0,"resource":1,"loss":0.25}"#;
        let state = r#"{"name":"e","status":"running"}"#;
        let frames = [
            format!(r#"{{"v":1,"sub":4,"push":"event","data":{data}}}"#),
            format!(r#"{{"data":{data},"push":"event","sub":4,"v":1}}"#),
            format!(r#"{{"v":1,"sub":4,"push":"status","state":{state}}}"#),
            r#"{"v":1,"sub":4,"push":"lag","dropped":9}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"rewind"}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"end","extra":[1,{"v":2}]}"#.to_owned(),
            // The first of a repeated key wins, as `JsonValue::get` finds it.
            r#"{"v":1,"sub":4,"sub":5,"push":"end","push":"bogus"}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"event","data":1,"data":2}"#.to_owned(),
            // Refused: version, types, missing fields, unknown kinds.
            r#"{"v":2,"sub":4,"push":"end"}"#.to_owned(),
            r#"{"sub":4,"push":"end"}"#.to_owned(),
            r#"{"v":1,"sub":"4","push":"end"}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":7}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"event"}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"status"}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"status","state":{"name":"e"}}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"lag"}"#.to_owned(),
            r#"{"v":1,"sub":4,"push":"bogus"}"#.to_owned(),
            // Not pushes, or not frames at all.
            r#"{"v":1,"id":2,"ok":{"pong":true}}"#.to_owned(),
            "[1,2]".to_owned(),
            "{}".to_owned(),
            r#"{"v":1,"sub":4,"push":"end""#.to_owned(),
            r#"{"v":1,"sub":4,"push":"end"} x"#.to_owned(),
        ];
        for text in &frames {
            let oracle = JsonValue::parse(text).map(|tree| {
                if Push::is_push_frame(&tree) {
                    Ok(Push::from_frame(tree).map_err(|e| e.to_string()))
                } else {
                    Err(tree)
                }
            });
            let read = Incoming::parse(text).map_err(|e| e.to_string());
            match (read, oracle) {
                (Ok(Incoming::Push(fields)), Ok(Ok(push))) => {
                    assert_eq!(fields.decode().map_err(|e| e.to_string()), push, "{text}")
                }
                (Ok(Incoming::Other(got)), Ok(Err(tree))) => assert_eq!(got, tree, "{text}"),
                (Err(got), Err(want)) => assert_eq!(got, want.to_string(), "{text}"),
                (read, _) => panic!("{text}: read as {:?}", read.is_ok()),
            }
        }
    }

    #[test]
    fn read_timeout_is_set_only_when_it_changes() {
        let (mut client, mut daemon) = pair();
        let event = "{\"v\":1,\"sub\":1,\"push\":\"event\",\"data\":{\"seq\":0}}\n";
        let pong = |id: u64| format!("{{\"v\":1,\"id\":{id},\"ok\":{{\"pong\":true}}}}\n");
        let wait = Some(Duration::from_secs(5));

        // push -> push: armed once, then left alone.
        daemon.write_all(event.repeat(2).as_bytes()).unwrap();
        assert!(client.next_push(wait).unwrap().is_some());
        assert_eq!(client.armed, Some(POLL_SLICE));
        assert!(socket_armed(&client));
        assert!(!client.arm_read_timeout(Some(POLL_SLICE)).unwrap());
        assert!(client.next_push(wait).unwrap().is_some());
        assert!(socket_armed(&client));

        // push -> deadline-less call: disarmed, so the read really blocks.
        daemon.write_all(pong(1).as_bytes()).unwrap();
        client.ping().unwrap();
        assert_eq!(client.armed, None);
        assert!(!socket_armed(&client));
        assert!(!client.arm_read_timeout(None).unwrap());

        // call under a deadline -> push: armed once for both.
        client.set_call_timeout(wait);
        daemon.write_all(pong(2).as_bytes()).unwrap();
        client.ping().unwrap();
        assert!(socket_armed(&client));
        assert!(!client.arm_read_timeout(Some(POLL_SLICE)).unwrap());
    }
}
