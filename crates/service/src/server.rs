//! The `asha-serve` daemon: reactor, worker pool, experiment tailers.
//!
//! # Threading model
//!
//! No async runtime, and no per-connection threads — the daemon is a
//! *fixed* set of threads regardless of how many clients connect:
//!
//! * one **reactor thread** (see [`crate::reactor`]) owning every socket:
//!   both listeners and all accepted connections, non-blocking, driven by
//!   readiness events (epoll on Linux, `poll(2)` elsewhere). It decodes
//!   frames incrementally and drains each connection's outgoing queue with
//!   partial-write resumption;
//! * a **worker pool** (four threads) executing
//!   decoded requests under the supervisor lock, strict FIFO per
//!   connection;
//! * one **tailer thread per experiment** (see the `tailer` module — *not*
//!   per subscription) delivering everything a subscriber receives: the
//!   WAL, each subscriber on its own windowed tail, and the experiment's
//!   status changes, into that subscriber's queue;
//! * one **housekeeping thread** reaping finished experiment workers.
//!
//! # Backpressure
//!
//! Each connection has one bounded outgoing queue. Replies are never
//! dropped; instead the reactor stops *reading* from a connection whose
//! backlog exceeds the high-water mark, so a client that stops draining
//! replies stalls only its own request stream. Subscription traffic never
//! blocks anything else and is never dropped: the experiment's tailer owes
//! each subscriber its `rewind`, newest status, WAL event frames and `end`,
//! and when the queue is full it keeps them until the reactor's next drain
//! of that queue wakes it (at the latest two milliseconds on). Only the
//! tailer thread waits — other subscribers of the same experiment keep
//! receiving. The supervisor's status listener, which runs under the
//! supervisor lock, only posts the change to the tailer and rings it.
//! Event frames fill the queue to seven eighths; the rest is kept for the
//! other pushes.
//!
//! # Graceful shutdown
//!
//! `shutdown` (the request, [`Daemon::begin_shutdown`], or SIGTERM in the
//! binary) stops accepting and reading, aborts running experiments at
//! their next step boundary (each parks behind a durable snapshot and the
//! manifest is flushed), lets tailers push a final `end` frame, and drains
//! every connection's outgoing queue before the process exits.

use std::path::PathBuf;
use std::time::Duration;

#[cfg(not(unix))]
use asha_core::Error;

use crate::proto::DEFAULT_MAX_FRAME;

/// Configuration for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Supervisor root directory (experiment stores live under it).
    pub root: PathBuf,
    /// Unix socket path to listen on (removed and rebound at start,
    /// removed again at shutdown). `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// TCP address to listen on (e.g. `127.0.0.1:7070`; port 0 picks a
    /// free port, see [`Daemon::tcp_addr`]). `None` disables TCP.
    pub tcp: Option<String>,
    /// Maximum encoded frame size accepted from a client.
    pub max_frame: usize,
    /// Depth of each connection's bounded outgoing queue (frames); also
    /// the high-water mark above which the reactor pauses that
    /// connection's reads. At least 1: [`Daemon::start`] refuses 0 as
    /// [`asha_core::ErrorKind::Config`].
    pub queue_depth: usize,
    /// Optional request/response trace: every request and reply frame is
    /// appended as JSONL through [`asha_obs::JsonlWriter`].
    pub trace: Option<PathBuf>,
    /// Optional HTTP listener address (e.g. `127.0.0.1:9090`) answering
    /// `GET /metrics` in Prometheus text exposition format. Served by the
    /// same reactor and worker pool as the protocol listeners.
    pub metrics_addr: Option<String>,
    /// Optional slow-request log: requests whose queue-wait + execute time
    /// crosses [`ServeOptions::slow_threshold`] are appended as JSONL.
    pub slow_log: Option<PathBuf>,
    /// Threshold for the slow-request log.
    pub slow_threshold: Duration,
}

impl ServeOptions {
    /// Options with library defaults and no listeners; enable at least one
    /// of `unix` / `tcp` before [`Daemon::start`].
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeOptions {
            root: root.into(),
            unix: None,
            tcp: None,
            max_frame: DEFAULT_MAX_FRAME,
            queue_depth: 256,
            trace: None,
            metrics_addr: None,
            slow_log: None,
            slow_threshold: Duration::from_secs(1),
        }
    }
}

#[cfg(unix)]
pub use unix_impl::Daemon;

#[cfg(unix)]
mod unix_impl {
    use std::collections::HashMap;
    use std::net::{SocketAddr, TcpListener};
    use std::os::unix::net::UnixListener;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::Duration;

    use asha_core::Error;
    use asha_metrics::JsonValue;
    use asha_obs::JsonlWriter;
    use asha_store::{ExperimentSupervisor, WAL_FILE};

    use super::ServeOptions;
    use crate::codec::encode_frame;
    use crate::metrics::ServiceMetrics;
    use crate::proto::{Reply, Request, WireStatus};
    use crate::reactor::{
        start_reactor, ConnHandle, ConnHandler, Listener, PendingReq, PoolSubmitter, ReactorConfig,
        ReactorFlags, ReactorHandle, Work, WorkerPool,
    };
    use crate::tailer::{SubState, TailerCtx, TailerRegistry};

    /// How long shutdown waits for tailers' `end` frames and connections'
    /// outgoing queues to drain.
    const DRAIN_GRACE: Duration = Duration::from_secs(2);
    /// How often experiment tailers poll the WAL for new lines; also the
    /// reactor's poll timeout (bounds shutdown latency).
    const POLL_INTERVAL: Duration = Duration::from_millis(25);
    /// Worker threads executing requests (the fixed pool the reactor
    /// feeds).
    const WORKERS: usize = 4;

    /// State shared by every daemon thread.
    pub(crate) struct Shared {
        opts: ServeOptions,
        supervisor: Mutex<ExperimentSupervisor>,
        shutdown: Arc<AtomicBool>,
        metrics: Arc<ServiceMetrics>,
        tailers: Arc<TailerRegistry>,
        next_sub: AtomicU64,
        trace: Option<Mutex<JsonlWriter>>,
        slow_log: Option<Mutex<JsonlWriter>>,
    }

    impl Shared {
        fn trace_frame(&self, direction: &str, peer: &str, frame: &JsonValue) {
            if let Some(trace) = &self.trace {
                let line = JsonValue::obj([
                    ("dir", JsonValue::Str(direction.to_owned())),
                    ("peer", JsonValue::Str(peer.to_owned())),
                    ("frame", frame.clone()),
                ])
                .render_compact();
                let mut w = trace.lock().unwrap();
                let _ = w.append_raw(&line);
                let _ = w.commit();
            }
        }

        /// Append one slow-request record (JSONL) if the log is enabled.
        fn log_slow_request(
            &self,
            req_id: u64,
            op: &str,
            peer: &str,
            queue_wait_s: f64,
            execute_s: f64,
        ) {
            if let Some(log) = &self.slow_log {
                let line = JsonValue::obj([
                    ("req_id", JsonValue::Int(req_id)),
                    ("op", JsonValue::Str(op.to_owned())),
                    ("peer", JsonValue::Str(peer.to_owned())),
                    ("queue_wait_s", JsonValue::Num(queue_wait_s)),
                    ("execute_s", JsonValue::Num(execute_s)),
                    ("total_s", JsonValue::Num(queue_wait_s + execute_s)),
                ])
                .render_compact();
                let mut w = log.lock().unwrap();
                let _ = w.append_raw(&line);
                let _ = w.commit();
            }
        }
    }

    /// Service state attached to each connection via the handle's user
    /// slot: the subscriptions it owns, for unsubscribe and teardown.
    #[derive(Default)]
    struct ConnCtx {
        subs: Mutex<HashMap<u64, Arc<SubState>>>,
    }

    /// The reactor → service bridge: frames in, worker visits out.
    struct ServiceHandler {
        shared: Arc<Shared>,
        pool: PoolSubmitter,
    }

    impl ConnHandler for ServiceHandler {
        fn on_open(&self, conn: &Arc<ConnHandle>) {
            if conn.is_http() {
                // Metrics scrapes are not protocol connections; they stay
                // out of the connection counters (the scrape itself is
                // counted by `http_requests`).
                return;
            }
            conn.set_user(Box::new(ConnCtx::default()));
            self.shared.metrics.conn_opened();
        }

        fn on_frame(&self, conn: &Arc<ConnHandle>, frame: JsonValue) {
            // Reactor thread: enqueue only. The worker pool preserves FIFO
            // order per connection via the visit protocol.
            let metrics = &self.shared.metrics;
            let req = PendingReq {
                work: Work::Frame(frame),
                req_id: metrics.next_request_id(),
                enqueued_nanos: metrics.now_nanos(),
            };
            if conn.enqueue_request(req) {
                self.pool.submit(Arc::clone(conn));
            }
        }

        fn on_decode_error(&self, conn: &Arc<ConnHandle>, err: &Error) -> bool {
            // Oversized or malformed frames get a diagnostic before the
            // stream state is trusted again; torn/IO failures end the
            // connection once its queue drains.
            self.shared.metrics.decode_error();
            let frame = Reply::error_frame(0, err);
            self.shared.trace_frame("res", conn.peer(), &frame);
            let _ = conn.push_reply(encode_frame(&frame));
            err.to_string().contains("torn frame") || err.kind() == asha_core::ErrorKind::Io
        }

        fn on_http(&self, conn: &Arc<ConnHandle>, method: &str, path: &str) {
            // Reactor thread: only validate and dispatch. Rendering the
            // exposition walks every histogram, so it runs on a worker.
            if method != "GET" {
                let _ = conn.push_reply(http_response(
                    "405 Method Not Allowed",
                    "text/plain; charset=utf-8",
                    "only GET is supported\n",
                ));
                return;
            }
            if path != "/metrics" && !path.starts_with("/metrics?") {
                let _ = conn.push_reply(http_response(
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "try GET /metrics\n",
                ));
                return;
            }
            let metrics = &self.shared.metrics;
            let req = PendingReq {
                work: Work::HttpGet,
                req_id: metrics.next_request_id(),
                enqueued_nanos: metrics.now_nanos(),
            };
            if conn.enqueue_request(req) {
                self.pool.submit(Arc::clone(conn));
            }
        }

        fn on_room(&self, conn: &Arc<ConnHandle>) {
            // Reactor thread: wake the tailers holding frames for this
            // connection; which of them was refused is not tracked, and a
            // ring nobody waits for costs one loop of an idle tailer.
            if let Some(ctx) = conn.user::<ConnCtx>() {
                let subs = ctx.subs.lock().expect("subscription map poisoned");
                for sub in subs.values() {
                    sub.ring();
                }
            }
        }

        fn on_close(&self, conn: &Arc<ConnHandle>) {
            if conn.is_http() {
                return;
            }
            if let Some(ctx) = conn.user::<ConnCtx>() {
                for (_, sub) in ctx.subs.lock().unwrap().drain() {
                    sub.mark_closed(&self.shared.metrics);
                }
            }
            self.shared.metrics.conn_closed();
        }
    }

    /// A minimal HTTP/1.0 response (the metrics listener speaks just
    /// enough HTTP for `curl` and Prometheus scrapers).
    fn http_response(status: &str, content_type: &str, body: &str) -> String {
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    }

    /// Worker-pool body: execute one queued request and queue its reply.
    fn run_one(shared: &Arc<Shared>, conn: &Arc<ConnHandle>, req: PendingReq) {
        let metrics = &shared.metrics;
        let started = metrics.now_nanos();
        let queue_wait_s = started.saturating_sub(req.enqueued_nanos) as f64 / 1e9;
        match req.work {
            Work::HttpGet => {
                let body = metrics.render_prometheus();
                let _ = conn.push_reply(http_response(
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                ));
            }
            Work::Frame(frame) => {
                shared.trace_frame("req", conn.peer(), &frame);
                let (response, op, ok) = handle_frame(&frame, conn, shared);
                shared.trace_frame("res", conn.peer(), &response);
                let _ = conn.push_reply(encode_frame(&response));
                let execute_s = metrics.now_nanos().saturating_sub(started) as f64 / 1e9;
                metrics.request_observed(op, ok, queue_wait_s, execute_s);
                let total_s = queue_wait_s + execute_s;
                if total_s >= shared.opts.slow_threshold.as_secs_f64() {
                    metrics.slow_request();
                    shared.log_slow_request(req.req_id, op, conn.peer(), queue_wait_s, execute_s);
                }
            }
        }
    }

    /// A running daemon. Start with [`Daemon::start`], stop with a
    /// `shutdown` request, [`Daemon::begin_shutdown`], or (in the binary)
    /// SIGTERM; then [`Daemon::wait`] drains and joins everything.
    pub struct Daemon {
        shared: Arc<Shared>,
        reactor: ReactorHandle,
        pool: WorkerPool,
        housekeeper: JoinHandle<()>,
        final_drain: Arc<AtomicBool>,
        tcp_addr: Option<SocketAddr>,
        metrics_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
    }

    impl Daemon {
        /// Bind the configured listeners, open the supervisor root, and
        /// start serving.
        pub fn start(opts: ServeOptions) -> Result<Daemon, Error> {
            if opts.unix.is_none() && opts.tcp.is_none() {
                return Err(Error::config(
                    "daemon needs a unix socket path or a tcp address",
                ));
            }
            if opts.queue_depth == 0 {
                // Reads would pause at once and for good, and no stream
                // frame would ever fit.
                return Err(Error::config("queue depth must be at least 1"));
            }
            let mut supervisor = ExperimentSupervisor::open(&opts.root)?;
            let shutdown = Arc::new(AtomicBool::new(false));
            let metrics = ServiceMetrics::new();
            // WAL/fsync/snapshot timings flow into the same plane.
            supervisor.set_metrics(metrics.store());

            let tailers = TailerRegistry::new(TailerCtx {
                metrics: Arc::clone(&metrics),
                shutdown: Arc::clone(&shutdown),
                poll_interval: POLL_INTERVAL,
                grace: DRAIN_GRACE,
            });
            // Status changes reach subscribers through the experiment's
            // tailer. The closure captures only the registry — not the
            // supervisor itself — so there is no ownership cycle, and it
            // runs after the manifest write under the supervisor lock, so
            // it only posts and rings and never waits on a subscriber.
            {
                let tailers = Arc::clone(&tailers);
                supervisor.set_status_listener(Arc::new(move |name, status| {
                    tailers.post_status(name, status);
                }));
            }

            let trace = match &opts.trace {
                Some(path) => {
                    Some(Mutex::new(JsonlWriter::create(path).map_err(|e| {
                        Error::io(path, e).context("opening trace log")
                    })?))
                }
                None => None,
            };
            let slow_log = match &opts.slow_log {
                Some(path) => {
                    Some(Mutex::new(JsonlWriter::create(path).map_err(|e| {
                        Error::io(path, e).context("opening slow-request log")
                    })?))
                }
                None => None,
            };

            let unix_path = opts.unix.clone();
            let shared = Arc::new(Shared {
                opts,
                supervisor: Mutex::new(supervisor),
                shutdown: Arc::clone(&shutdown),
                metrics: Arc::clone(&metrics),
                tailers,
                next_sub: AtomicU64::new(1),
                trace,
                slow_log,
            });

            let mut listeners = Vec::new();
            if let Some(path) = &unix_path {
                // A previous unclean exit leaves a stale socket file;
                // rebinding is only possible after removing it.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| Error::io(path, e).context("binding unix socket"))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| Error::io(path, e))?;
                listeners.push(Listener::Unix(listener));
            }
            let mut tcp_addr = None;
            if let Some(addr) = shared.opts.tcp.clone() {
                let listener = TcpListener::bind(&addr)
                    .map_err(|e| Error::from(e).context(format!("binding tcp {addr}")))?;
                tcp_addr = Some(
                    listener
                        .local_addr()
                        .map_err(|e| Error::from(e).context("reading bound tcp address"))?,
                );
                listener.set_nonblocking(true).map_err(Error::from)?;
                listeners.push(Listener::Tcp(listener));
            }
            let mut metrics_addr = None;
            if let Some(addr) = shared.opts.metrics_addr.clone() {
                let listener = TcpListener::bind(&addr)
                    .map_err(|e| Error::from(e).context(format!("binding metrics http {addr}")))?;
                metrics_addr = Some(
                    listener
                        .local_addr()
                        .map_err(|e| Error::from(e).context("reading bound metrics address"))?,
                );
                listener.set_nonblocking(true).map_err(Error::from)?;
                listeners.push(Listener::Http(listener));
            }

            let pool = {
                let shared = Arc::clone(&shared);
                WorkerPool::start(
                    WORKERS,
                    Arc::clone(&metrics),
                    Arc::new(move |conn: &Arc<ConnHandle>, req| {
                        run_one(&shared, conn, req);
                    }),
                )
            };

            let final_drain = Arc::new(AtomicBool::new(false));
            let handler = Arc::new(ServiceHandler {
                shared: Arc::clone(&shared),
                pool: pool.submitter(),
            });
            let reactor = start_reactor(
                ReactorConfig {
                    max_frame: shared.opts.max_frame,
                    high_water: shared.opts.queue_depth,
                    poll_interval: POLL_INTERVAL,
                    grace: DRAIN_GRACE,
                },
                listeners,
                handler,
                ReactorFlags {
                    shutdown: Arc::clone(&shutdown),
                    final_drain: Arc::clone(&final_drain),
                },
                Arc::clone(&metrics),
            )
            .map_err(|e| Error::from(e).context("starting reactor"))?;

            // Housekeeping: reap finished experiment workers so their
            // terminal status lands in the manifest (and status pushes)
            // without any client having to call join.
            let housekeeper = {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("asha-serve-housekeeper".to_owned())
                    .spawn(move || housekeeper(shared))
                    .map_err(Error::from)?
            };

            Ok(Daemon {
                shared,
                reactor,
                pool,
                housekeeper,
                final_drain,
                tcp_addr,
                metrics_addr,
                unix_path,
            })
        }

        /// The actual bound TCP address (useful with port 0).
        pub fn tcp_addr(&self) -> Option<SocketAddr> {
            self.tcp_addr
        }

        /// The actual bound HTTP metrics address (useful with port 0).
        pub fn metrics_addr(&self) -> Option<SocketAddr> {
            self.metrics_addr
        }

        /// Request a graceful shutdown (idempotent, non-blocking).
        pub fn begin_shutdown(&self) {
            self.shared.shutdown.store(true, Ordering::Release);
            self.reactor.wake();
        }

        /// Whether shutdown has been requested (by request, signal, or
        /// [`Daemon::begin_shutdown`]).
        pub fn shutdown_requested(&self) -> bool {
            self.shared.shutdown.load(Ordering::Acquire)
        }

        /// Block until shutdown is requested, then drain: stop accepting,
        /// park running experiments behind durable snapshots, flush the
        /// manifest, let tailers push their final `end` frames, and give
        /// connections a grace period to drain their queues.
        pub fn wait(self) -> Result<(), Error> {
            while !self.shared.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(POLL_INTERVAL);
            }
            self.reactor.wake();
            let Daemon {
                shared,
                reactor,
                pool,
                housekeeper,
                final_drain,
                unix_path,
                ..
            } = self;
            let _ = housekeeper.join();
            // Park running experiments: abort snapshots at the next step
            // boundary and leaves every store resumable; the manifest is
            // rewritten per transition.
            let result = {
                let mut sup = shared.supervisor.lock().unwrap();
                let mut first_err = None;
                let _ = sup.reap_finished();
                for name in sup.active() {
                    if let Err(e) = sup.abort(&name) {
                        first_err.get_or_insert(e);
                    }
                }
                first_err
            };
            // Workers finish queued requests (their replies still flush
            // through the live reactor), then tailers deliver final `end`
            // frames and exit on the flag.
            pool.shutdown_join();
            shared.tailers.join_all();
            // Nothing produces frames anymore: the reactor drains every
            // connection's queue (bounded by the grace window) and exits.
            final_drain.store(true, Ordering::Release);
            reactor.join();
            if let Some(trace) = &shared.trace {
                let _ = trace.lock().unwrap().commit();
            }
            if let Some(slow) = &shared.slow_log {
                let _ = slow.lock().unwrap().commit();
            }
            if let Some(path) = &unix_path {
                let _ = std::fs::remove_file(path);
            }
            match result {
                Some(e) => Err(e.context("parking experiments at shutdown")),
                None => Ok(()),
            }
        }
    }

    fn housekeeper(shared: Arc<Shared>) {
        while !shared.shutdown.load(Ordering::Acquire) {
            {
                let mut sup = shared.supervisor.lock().unwrap();
                let _ = sup.reap_finished();
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Decode and execute one frame. Returns the response plus the op name
    /// and success flag for the metrics plane (`"invalid"` when the frame
    /// never decoded into a known request).
    fn handle_frame(
        frame: &JsonValue,
        conn: &Arc<ConnHandle>,
        shared: &Arc<Shared>,
    ) -> (JsonValue, &'static str, bool) {
        let (id, request) = match Request::from_frame(frame) {
            Ok(pair) => pair,
            Err(e) => {
                // Salvage the id if the frame had one so the client can
                // correlate the failure.
                let id = frame.get("id").and_then(|v| v.as_u64()).unwrap_or(0);
                return (Reply::error_frame(id, &e), "invalid", false);
            }
        };
        let op = request.op();
        match execute(id, request, conn, shared) {
            Ok(reply) => (reply.to_frame(id), op, true),
            Err(e) => (Reply::error_frame(id, &e), op, false),
        }
    }

    fn execute(
        _id: u64,
        request: Request,
        conn: &Arc<ConnHandle>,
        shared: &Arc<Shared>,
    ) -> Result<Reply, Error> {
        match request {
            Request::Ping => Ok(Reply::Pong),
            Request::Create { meta, opts } => {
                let mut sup = shared.supervisor.lock().unwrap();
                sup.create(&meta, opts)?;
                Ok(Reply::Ack)
            }
            Request::Start { name, opts } => {
                let mut sup = shared.supervisor.lock().unwrap();
                sup.start(&name, opts)?;
                Ok(Reply::Ack)
            }
            Request::Pause { name } => {
                let mut sup = shared.supervisor.lock().unwrap();
                sup.pause(&name)?;
                Ok(Reply::Ack)
            }
            Request::Resume { name } => {
                let mut sup = shared.supervisor.lock().unwrap();
                sup.resume(&name)?;
                Ok(Reply::Ack)
            }
            Request::Abort { name } => {
                let mut sup = shared.supervisor.lock().unwrap();
                sup.abort(&name)?;
                Ok(Reply::Ack)
            }
            Request::Status { name } => {
                let sup = shared.supervisor.lock().unwrap();
                let status = sup
                    .status(&name)
                    .ok_or_else(|| Error::missing(format!("experiment {name:?}")))?;
                Ok(Reply::Status(WireStatus { name, status }))
            }
            Request::List => {
                let sup = shared.supervisor.lock().unwrap();
                Ok(Reply::List(
                    sup.experiments()
                        .iter()
                        .map(|e| WireStatus {
                            name: e.name.clone(),
                            status: e.status,
                        })
                        .collect(),
                ))
            }
            Request::Metrics => Ok(Reply::Metrics(shared.metrics.snapshot_json())),
            Request::Subscribe { name, from_seq } => {
                let wal_path = {
                    let sup = shared.supervisor.lock().unwrap();
                    if sup.status(&name).is_none() {
                        return Err(Error::missing(format!("experiment {name:?}")));
                    }
                    sup.experiment_dir(&name).join(WAL_FILE)
                };
                let sub_id = shared.next_sub.fetch_add(1, Ordering::Relaxed);
                let state = SubState::new(sub_id, from_seq, Arc::clone(conn));
                if let Some(ctx) = conn.user::<ConnCtx>() {
                    ctx.subs.lock().unwrap().insert(sub_id, Arc::clone(&state));
                }
                shared.metrics.sub_opened();
                shared.tailers.subscribe(wal_path, name, state);
                Ok(Reply::Subscribed { sub: sub_id })
            }
            Request::Unsubscribe { sub } => {
                let state = conn
                    .user::<ConnCtx>()
                    .and_then(|ctx| ctx.subs.lock().unwrap().remove(&sub))
                    .ok_or_else(|| Error::missing(format!("subscription {sub}")))?;
                state.mark_closed(&shared.metrics);
                Ok(Reply::Ack)
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::Release);
                Ok(Reply::Ack)
            }
        }
    }
}

/// On non-Unix platforms the daemon is unavailable: its reactor is built
/// on Unix readiness APIs (`epoll`/`poll`). The client library and the
/// wire protocol remain fully portable.
#[cfg(not(unix))]
pub struct Daemon {
    never: std::convert::Infallible,
}

#[cfg(not(unix))]
impl Daemon {
    /// Always fails on this platform; see the type-level docs.
    pub fn start(_opts: ServeOptions) -> Result<Daemon, Error> {
        Err(Error::config(
            "the asha-serve daemon requires a Unix platform (its reactor uses poll/epoll)",
        ))
    }

    /// Unreachable (a `Daemon` cannot be constructed on this platform).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        match self.never {}
    }

    /// Unreachable (a `Daemon` cannot be constructed on this platform).
    pub fn begin_shutdown(&self) {
        match self.never {}
    }

    /// Unreachable (a `Daemon` cannot be constructed on this platform).
    pub fn shutdown_requested(&self) -> bool {
        match self.never {}
    }

    /// Unreachable (a `Daemon` cannot be constructed on this platform).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        match self.never {}
    }

    /// Unreachable (a `Daemon` cannot be constructed on this platform).
    pub fn wait(self) -> Result<(), Error> {
        match self.never {}
    }
}
