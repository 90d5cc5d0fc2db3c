//! Tuning-as-a-service for asha: a long-running experiment daemon and its
//! client library.
//!
//! The durable store ([`asha_store`]) made a tuning run a recoverable
//! object; this crate makes it a *shared* one. A single daemon process
//! (`asha-serve`) owns an [`asha_store::ExperimentSupervisor`] root and
//! exposes it to many concurrent clients over Unix-domain and TCP sockets,
//! speaking a versioned newline-delimited JSON protocol built on the same
//! hand-rolled [`asha_metrics::JsonValue`] used everywhere else (the
//! vendored `serde` is a stub).
//!
//! * [`proto`] — the frame vocabulary: requests
//!   (create/start/pause/resume/abort/status/list/metrics/subscribe/…),
//!   replies, typed errors on the wire, and push frames for streaming
//!   subscriptions.
//! * `codec` — newline-delimited framing: the sans-io [`FrameBuf`]
//!   decoder (fed from readiness events) and the blocking [`FrameReader`]
//!   built on it; size limits, torn-frame detection, timeout-aware reads.
//! * `reactor` — the event-driven connection engine (Unix only): one
//!   readiness loop (epoll/`poll`) over every non-blocking socket, driving
//!   a fixed worker pool; per-connection outgoing queues with
//!   partial-write resumption and interest re-arming.
//! * `server` — [`Daemon`]: the reactor plus one tailer thread per
//!   *experiment*, delivering the WAL (each subscriber on its own windowed
//!   tail) and the experiment's status changes; bounded per-client queues
//!   that hold what a subscriber is owed instead of dropping it (a slow
//!   subscriber never stalls a run), graceful drain on shutdown.
//! * `client` — [`Client`]: blocking request/reply with push buffering
//!   and connect/call timeouts; the `asha-ctl` binary in `asha-bench` is a
//!   thin shell over it.
//!
//! # Quick start
//!
//! ```no_run
//! use asha_service::{Client, Daemon, ServeOptions};
//!
//! let mut opts = ServeOptions::new("/tmp/asha-root");
//! opts.unix = Some("/tmp/asha.sock".into());
//! let daemon = Daemon::start(opts).unwrap();
//!
//! let mut client = Client::connect_unix("/tmp/asha.sock").unwrap();
//! client.ping().unwrap();
//! for row in client.list().unwrap() {
//!     println!("{} {}", row.name, row.status.as_str());
//! }
//! client.shutdown().unwrap();
//! daemon.wait().unwrap();
//! ```

// The reactor's poller speaks to epoll/poll through hand-declared FFI; the
// `unsafe` needed for those calls is confined to `reactor::poller`'s sys
// modules and explicitly allowed there. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
mod codec;
mod conn;
mod metrics;
pub mod proto;
#[cfg(unix)]
mod reactor;
mod server;
#[cfg(unix)]
mod tailer;

pub use crate::client::Client;
pub use crate::codec::{encode_frame, Frame, FrameBuf, FrameReader};
pub use crate::metrics::{ServiceMetrics, METRICS_SCHEMA};
pub use crate::proto::{Push, Reply, Request, WireStatus, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
#[cfg(unix)]
pub use crate::reactor::{Offer, OutBuf};
pub use crate::server::{Daemon, ServeOptions};
