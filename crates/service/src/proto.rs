//! The `asha-serve` wire protocol: versioned, newline-delimited JSON.
//!
//! Every frame is one JSON object on one line. Three frame families flow
//! over a connection:
//!
//! * **Requests** (client → server): `{"v":1,"id":N,"op":"...",...}`.
//!   `id` is a client-chosen correlation number; the server echoes it.
//! * **Replies** (server → client): `{"v":1,"id":N,"ok":{...}}` on
//!   success, `{"v":1,"id":N,"err":{"kind":"...","msg":"..."}}` on
//!   failure. Error kinds are [`asha_core::ErrorKind`] names, so a client
//!   can rebuild a typed [`Error`] from the wire.
//! * **Pushes** (server → client, unsolicited): `{"v":1,"sub":K,
//!   "push":"...",...}` — live WAL lines, status changes, rewinds, and
//!   end-of-stream marks for streaming subscriptions, none ever dropped.
//!   The `lag` push is still decoded, but this daemon never sends it.
//!
//! # Versioning rules
//!
//! Every frame carries `"v"`. A server answers a request whose version it
//! does not speak with an `err` frame of kind `protocol` (still on the
//! requested `id`), never by closing the connection; unknown *fields* in a
//! known-version frame are ignored, so additive evolution does not bump
//! the version. Pushing the version is reserved for changes that alter the
//! meaning of existing fields.
//!
//! Ops are removed, not versioned: the `stats` request, a projection of
//! the `metrics` frame, is gone, and an old client's `stats` frame gets the
//! `protocol` "unknown op" error any unknown op gets.

use asha_core::{Error, ErrorKind};
use asha_metrics::JsonValue;
use asha_store::{Durability, ExperimentMeta, ExperimentStatus, RunOptions};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default cap on one frame's encoded size (1 MiB). Guards both sides
/// against runaway or hostile peers; `meta` frames for realistic search
/// spaces are a few KiB.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

fn obj(fields: Vec<(&'static str, JsonValue)>) -> JsonValue {
    JsonValue::obj(fields)
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, Error> {
    str_field(v.get(key), key)
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, Error> {
    u64_field(v.get(key), key)
}

/// `value`, the frame's field `key`, as a string.
fn str_field<'a>(value: Option<&'a JsonValue>, key: &str) -> Result<&'a str, Error> {
    value
        .and_then(|s| s.as_str())
        .ok_or_else(|| Error::protocol(format!("frame missing string field {key:?}")))
}

/// `value`, the frame's field `key`, as an integer.
fn u64_field(value: Option<&JsonValue>, key: &str) -> Result<u64, Error> {
    value
        .and_then(|s| s.as_u64())
        .ok_or_else(|| Error::protocol(format!("frame missing integer field {key:?}")))
}

/// Check the `"v"` field of a decoded frame.
pub(crate) fn check_version(v: &JsonValue) -> Result<(), Error> {
    version_field(v.get("v"))
}

fn version_field(value: Option<&JsonValue>) -> Result<(), Error> {
    let version = u64_field(value, "v")?;
    if version != PROTOCOL_VERSION {
        return Err(Error::protocol(format!(
            "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Run options (durability knobs crossing the wire)
// ---------------------------------------------------------------------------

/// Encode [`RunOptions`] for a `create`/`start` request. The sync names
/// (`"never"`/`"always"`) predate the [`Durability`] unification and stay
/// on the wire for compatibility with older peers.
pub fn run_options_to_json(opts: &RunOptions) -> JsonValue {
    let sync = match opts.sync {
        Durability::Flush => JsonValue::Str("never".to_owned()),
        Durability::Sync => JsonValue::Str("always".to_owned()),
        Durability::EveryN(n) => obj(vec![("every_n", JsonValue::Int(n as u64))]),
    };
    obj(vec![
        ("sync", sync),
        ("snapshot_jobs", JsonValue::Int(opts.snapshot_jobs as u64)),
        ("delta_chain", JsonValue::Int(opts.delta_chain as u64)),
    ])
}

/// Decode [`RunOptions`] written by [`run_options_to_json`]; `delta_chain`
/// defaults when absent, and `snapshot_jobs: 0` is the amortised cadence
/// ([`RunOptions::snapshot_jobs`]), not an error. Older clients also send
/// `format`: `binary-v2`, the only dialect written, is ignored under any of
/// its names; anything else is a `config` error rather than a silent switch
/// to binary.
pub fn run_options_from_json(v: &JsonValue) -> Result<RunOptions, Error> {
    let sync = match v.get("sync") {
        Some(JsonValue::Str(s)) if s == "never" || s == "flush" => Durability::Flush,
        Some(JsonValue::Str(s)) if s == "always" || s == "sync" => Durability::Sync,
        Some(other) => Durability::EveryN(get_u64(other, "every_n")? as usize),
        None => return Err(Error::protocol("run options missing sync")),
    };
    let defaults = RunOptions::default();
    if let Some(name) = v.get("format").and_then(|f| f.as_str()) {
        if !matches!(name, "binary-v2" | "binary" | "v2" | "bin") {
            return Err(Error::config(format!("cannot write store format {name:?}")));
        }
    }
    let delta_chain = match v.get("delta_chain") {
        Some(n) => n
            .as_u64()
            .ok_or_else(|| Error::protocol("delta_chain must be an integer"))?
            as usize,
        None => defaults.delta_chain,
    };
    let opts = RunOptions {
        sync,
        snapshot_jobs: get_u64(v, "snapshot_jobs")? as usize,
        delta_chain,
    };
    opts.validate()?;
    Ok(opts)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client request (the `op` vocabulary).
///
/// (No `PartialEq`: [`ExperimentMeta`] intentionally isn't comparable —
/// round-trip tests compare encoded frames instead.)
// `Create` dwarfs the other variants, but requests are transient (one per
// frame, decoded and immediately executed), so boxing would complicate the
// API for no sustained memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Initialize a new experiment (directory + manifest row); does not
    /// start it.
    Create {
        /// Full experiment metadata (same schema as `meta.json`).
        meta: ExperimentMeta,
        /// Durability knobs for the initial snapshot/WAL.
        opts: RunOptions,
    },
    /// Start — or restart after pause/abort/crash, via store recovery —
    /// the named experiment on a daemon worker thread.
    Start {
        /// Experiment name.
        name: String,
        /// Durability knobs for the (re)started run.
        opts: RunOptions,
    },
    /// Pause at the next step boundary (durable snapshot + WAL marker).
    Pause {
        /// Experiment name.
        name: String,
    },
    /// Resume a paused experiment in place.
    Resume {
        /// Experiment name.
        name: String,
    },
    /// Abort: snapshot and stop the worker; the store stays resumable.
    Abort {
        /// Experiment name.
        name: String,
    },
    /// Current manifest status of one experiment.
    Status {
        /// Experiment name.
        name: String,
    },
    /// All manifest rows.
    List,
    /// Full metrics-plane snapshot (request latency histograms, reactor
    /// and worker internals, tailer lag, store durability timings).
    Metrics,
    /// Subscribe to the experiment's live WAL stream. Telemetry events
    /// with `seq < from_seq` are filtered out; store markers always flow.
    Subscribe {
        /// Experiment name.
        name: String,
        /// First telemetry sequence number wanted.
        from_seq: u64,
    },
    /// Cancel a subscription by id.
    Unsubscribe {
        /// Subscription id from [`Reply::Subscribed`].
        sub: u64,
    },
    /// Gracefully shut the daemon down: stop accepting, drain clients,
    /// park running experiments behind durable snapshots, flush the
    /// manifest.
    Shutdown,
}

impl Request {
    /// Stable `op` name.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Create { .. } => "create",
            Request::Start { .. } => "start",
            Request::Pause { .. } => "pause",
            Request::Resume { .. } => "resume",
            Request::Abort { .. } => "abort",
            Request::Status { .. } => "status",
            Request::List => "list",
            Request::Metrics => "metrics",
            Request::Subscribe { .. } => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::Shutdown => "shutdown",
        }
    }

    /// Encode as a request frame with correlation `id`.
    pub fn to_frame(&self, id: u64) -> JsonValue {
        let mut fields = vec![
            ("v", JsonValue::Int(PROTOCOL_VERSION)),
            ("id", JsonValue::Int(id)),
            ("op", JsonValue::Str(self.op().to_owned())),
        ];
        match self {
            Request::Ping | Request::List | Request::Metrics | Request::Shutdown => {}
            Request::Create { meta, opts } => {
                fields.push(("meta", meta.to_json()));
                fields.push(("opts", run_options_to_json(opts)));
            }
            Request::Start { name, opts } => {
                fields.push(("name", JsonValue::Str(name.clone())));
                fields.push(("opts", run_options_to_json(opts)));
            }
            Request::Pause { name }
            | Request::Resume { name }
            | Request::Abort { name }
            | Request::Status { name } => {
                fields.push(("name", JsonValue::Str(name.clone())));
            }
            Request::Subscribe { name, from_seq } => {
                fields.push(("name", JsonValue::Str(name.clone())));
                fields.push(("from_seq", JsonValue::Int(*from_seq)));
            }
            Request::Unsubscribe { sub } => {
                fields.push(("sub", JsonValue::Int(*sub)));
            }
        }
        obj(fields)
    }

    /// Decode a request frame: version check, `id`, then op dispatch.
    pub fn from_frame(v: &JsonValue) -> Result<(u64, Request), Error> {
        check_version(v)?;
        let id = get_u64(v, "id")?;
        let op = get_str(v, "op")?;
        let request = match op {
            "ping" => Request::Ping,
            "list" => Request::List,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            "create" => Request::Create {
                meta: ExperimentMeta::from_json(
                    v.get("meta")
                        .ok_or_else(|| Error::protocol("create frame missing meta"))?,
                )
                .map_err(|e| e.context("create frame meta"))?,
                opts: run_options_from_json(
                    v.get("opts")
                        .ok_or_else(|| Error::protocol("create frame missing opts"))?,
                )?,
            },
            "start" => Request::Start {
                name: get_str(v, "name")?.to_owned(),
                opts: run_options_from_json(
                    v.get("opts")
                        .ok_or_else(|| Error::protocol("start frame missing opts"))?,
                )?,
            },
            "pause" => Request::Pause {
                name: get_str(v, "name")?.to_owned(),
            },
            "resume" => Request::Resume {
                name: get_str(v, "name")?.to_owned(),
            },
            "abort" => Request::Abort {
                name: get_str(v, "name")?.to_owned(),
            },
            "status" => Request::Status {
                name: get_str(v, "name")?.to_owned(),
            },
            "subscribe" => Request::Subscribe {
                name: get_str(v, "name")?.to_owned(),
                from_seq: get_u64(v, "from_seq")?,
            },
            "unsubscribe" => Request::Unsubscribe {
                sub: get_u64(v, "sub")?,
            },
            other => return Err(Error::protocol(format!("unknown op {other:?}"))),
        };
        Ok((id, request))
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// One manifest row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStatus {
    /// Experiment name.
    pub name: String,
    /// Its last durable status.
    pub status: ExperimentStatus,
}

/// A successful reply's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Plain acknowledgement (create/start/pause/resume/abort/unsubscribe/
    /// shutdown).
    Ack,
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Status`].
    Status(WireStatus),
    /// Answer to [`Request::List`].
    List(Vec<WireStatus>),
    /// Answer to [`Request::Metrics`]: the metrics-plane snapshot, kept as
    /// raw JSON (schema `asha-daemon-metrics-v1`) so old clients can pass
    /// newer daemons' snapshots through unharmed.
    Metrics(JsonValue),
    /// Answer to [`Request::Subscribe`]: the subscription's id.
    Subscribed {
        /// Id to match pushes against and to unsubscribe with.
        sub: u64,
    },
}

fn status_to_json(s: &WireStatus) -> JsonValue {
    obj(vec![
        ("name", JsonValue::Str(s.name.clone())),
        ("status", JsonValue::Str(s.status.as_str().to_owned())),
    ])
}

fn status_from_json(v: &JsonValue) -> Result<WireStatus, Error> {
    Ok(WireStatus {
        name: get_str(v, "name")?.to_owned(),
        status: ExperimentStatus::parse(get_str(v, "status")?)
            .map_err(|e| e.context("status reply"))?,
    })
}

impl Reply {
    /// Encode as a success frame on correlation `id`.
    pub fn to_frame(&self, id: u64) -> JsonValue {
        let payload = match self {
            Reply::Ack => obj(vec![]),
            Reply::Pong => obj(vec![("pong", JsonValue::Bool(true))]),
            Reply::Status(s) => status_to_json(s),
            Reply::List(rows) => obj(vec![(
                "experiments",
                JsonValue::Arr(rows.iter().map(status_to_json).collect()),
            )]),
            Reply::Metrics(snapshot) => snapshot.clone(),
            Reply::Subscribed { sub } => obj(vec![("sub", JsonValue::Int(*sub))]),
        };
        obj(vec![
            ("v", JsonValue::Int(PROTOCOL_VERSION)),
            ("id", JsonValue::Int(id)),
            ("ok", payload),
        ])
    }

    /// Encode an error as a failure frame on correlation `id`.
    pub fn error_frame(id: u64, err: &Error) -> JsonValue {
        obj(vec![
            ("v", JsonValue::Int(PROTOCOL_VERSION)),
            ("id", JsonValue::Int(id)),
            (
                "err",
                obj(vec![
                    ("kind", JsonValue::Str(err.kind().as_str().to_owned())),
                    ("msg", JsonValue::Str(err.to_string())),
                ]),
            ),
        ])
    }

    /// Decode a reply frame. The decoded request's `op` picks the payload
    /// shape (an empty `ok` object is an [`Reply::Ack`]). A frame with
    /// `err` decodes to `Err` carrying the peer's kind and message.
    pub fn from_frame(v: &JsonValue, op: &str) -> Result<(u64, Result<Reply, Error>), Error> {
        check_version(v)?;
        let id = get_u64(v, "id")?;
        if let Some(err) = v.get("err") {
            let kind = ErrorKind::parse(get_str(err, "kind")?);
            let msg = get_str(err, "msg")?.to_owned();
            return Ok((id, Err(Error::new(kind, msg))));
        }
        let ok = v
            .get("ok")
            .ok_or_else(|| Error::protocol("reply frame has neither ok nor err"))?;
        let reply = match op {
            "ping" => Reply::Pong,
            "status" => Reply::Status(status_from_json(ok)?),
            "list" => {
                let rows = ok
                    .get("experiments")
                    .and_then(|e| e.as_array())
                    .ok_or_else(|| Error::protocol("list reply missing experiments"))?;
                Reply::List(
                    rows.iter()
                        .map(status_from_json)
                        .collect::<Result<Vec<_>, Error>>()?,
                )
            }
            "metrics" => Reply::Metrics(ok.clone()),
            "subscribe" => Reply::Subscribed {
                sub: get_u64(ok, "sub")?,
            },
            _ => Reply::Ack,
        };
        Ok((id, Ok(reply)))
    }
}

// ---------------------------------------------------------------------------
// Pushes
// ---------------------------------------------------------------------------

/// An unsolicited server → client frame for one subscription.
#[derive(Debug, Clone, PartialEq)]
pub enum Push {
    /// One live WAL line (telemetry event or store marker), verbatim as
    /// parsed JSON.
    Event {
        /// The subscription this belongs to.
        sub: u64,
        /// The WAL line's JSON object.
        data: JsonValue,
    },
    /// Frames were dropped for this subscription. This daemon never sends
    /// it: every push is owed until delivered. The variant stays only
    /// because the benchmark's consumer matches on it; benchmark debt (7),
    /// the typed push, deletes it.
    Lag {
        /// The subscription this belongs to.
        sub: u64,
        /// Frames dropped since the last delivered one.
        dropped: u64,
    },
    /// The experiment's manifest status changed (the supervisor's status
    /// listener posts it to the experiment's tailer). Carries the whole
    /// state, so a subscriber that did not read in time is sent only the
    /// newest status, never a gap.
    Status {
        /// The subscription this belongs to.
        sub: u64,
        /// The experiment's new status row.
        state: WireStatus,
    },
    /// The tailed WAL was rewritten shorter (crash recovery truncated it).
    /// The stream restarts from the top; consumers must reset derived
    /// state.
    Rewind {
        /// The subscription this belongs to.
        sub: u64,
    },
    /// The experiment finished; no further events will flow. The server
    /// closes the subscription after this frame.
    End {
        /// The subscription this belongs to.
        sub: u64,
    },
}

impl Push {
    /// The subscription the push belongs to.
    pub fn sub(&self) -> u64 {
        match self {
            Push::Event { sub, .. }
            | Push::Lag { sub, .. }
            | Push::Status { sub, .. }
            | Push::Rewind { sub }
            | Push::End { sub } => *sub,
        }
    }

    /// Stable `push` name.
    pub fn name(&self) -> &'static str {
        match self {
            Push::Event { .. } => "event",
            Push::Lag { .. } => "lag",
            Push::Status { .. } => "status",
            Push::Rewind { .. } => "rewind",
            Push::End { .. } => "end",
        }
    }

    /// Encode as a push frame.
    pub fn to_frame(&self) -> JsonValue {
        let mut fields = vec![
            ("v", JsonValue::Int(PROTOCOL_VERSION)),
            ("sub", JsonValue::Int(self.sub())),
            ("push", JsonValue::Str(self.name().to_owned())),
        ];
        match self {
            Push::Event { data, .. } => fields.push(("data", data.clone())),
            Push::Lag { dropped, .. } => fields.push(("dropped", JsonValue::Int(*dropped))),
            Push::Status { state, .. } => fields.push(("state", status_to_json(state))),
            Push::Rewind { .. } | Push::End { .. } => {}
        }
        obj(fields)
    }

    /// Decode a push frame. The frame is taken by value so an event's `data`
    /// is moved out of it instead of cloned and then dropped with it.
    pub fn from_frame(v: JsonValue) -> Result<Push, Error> {
        let mut fields = PushFields::default();
        if let JsonValue::Obj(frame) = v {
            for (key, value) in frame {
                fields.offer(&key, value);
            }
        }
        fields.decode()
    }

    /// Whether a decoded frame is a push (has a `push` field) rather than
    /// a reply.
    pub fn is_push_frame(v: &JsonValue) -> bool {
        v.get("push").is_some()
    }
}

/// The fields of a frame that decoding a push reads, each the first under
/// its key, as [`JsonValue::get`] finds it. Filled from a frame's tree
/// ([`Push::from_frame`]) or straight from its text
/// ([`JsonValue::parse_fields`], in the client), so a pushed event costs no
/// tree of its envelope.
#[derive(Debug, Default)]
pub(crate) struct PushFields {
    v: Option<JsonValue>,
    sub: Option<JsonValue>,
    push: Option<JsonValue>,
    data: Option<JsonValue>,
    dropped: Option<JsonValue>,
    state: Option<JsonValue>,
}

impl PushFields {
    /// Keep `value` if a push reads `key` and it is the key's first.
    pub(crate) fn offer(&mut self, key: &str, value: JsonValue) {
        let slot = match key {
            "v" => &mut self.v,
            "sub" => &mut self.sub,
            "push" => &mut self.push,
            "data" => &mut self.data,
            "dropped" => &mut self.dropped,
            "state" => &mut self.state,
            _ => return,
        };
        slot.get_or_insert(value);
    }

    /// Whether the frame is a push (has a `push` field) rather than a
    /// reply: [`Push::is_push_frame`].
    pub(crate) fn is_push(&self) -> bool {
        self.push.is_some()
    }

    /// The push, checked as [`Push::from_frame`] documents.
    pub(crate) fn decode(self) -> Result<Push, Error> {
        version_field(self.v.as_ref())?;
        let sub = u64_field(self.sub.as_ref(), "sub")?;
        Ok(match str_field(self.push.as_ref(), "push")? {
            "event" => Push::Event {
                sub,
                data: self
                    .data
                    .ok_or_else(|| Error::protocol("event push missing data"))?,
            },
            "lag" => Push::Lag {
                sub,
                dropped: u64_field(self.dropped.as_ref(), "dropped")?,
            },
            "status" => Push::Status {
                sub,
                state: status_from_json(
                    self.state
                        .as_ref()
                        .ok_or_else(|| Error::protocol("status push missing state"))?,
                )?,
            },
            "rewind" => Push::Rewind { sub },
            "end" => Push::End { sub },
            other => return Err(Error::protocol(format!("unknown push {other:?}"))),
        })
    }
}
