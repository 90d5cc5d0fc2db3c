//! Event-driven connection engine: a readiness loop over non-blocking
//! sockets driving a fixed worker pool.
//!
//! # Thread inventory
//!
//! The daemon's connection handling is a *fixed* set of threads, however
//! many clients are connected:
//!
//! * **one reactor thread** owns every socket: both listeners, the wakeup
//!   channel, and all accepted connections (non-blocking, registered with
//!   a [`Poller`] — epoll on Linux, `poll(2)` elsewhere on Unix). It
//!   accepts, reads bytes into per-connection [`FrameBuf`]s via one shared
//!   scratch buffer, and drains per-connection [`OutBuf`]s into sockets
//!   with partial-write resumption;
//! * **`workers` pool threads** execute decoded requests (supervisor lock,
//!   store I/O) and append replies to the connection's [`OutBuf`];
//! * the experiment tailers append subscription frames the same way.
//!
//! Producers never touch a socket: they enqueue frames on the shared
//! [`ConnHandle`] and mark it dirty, which wakes the reactor to flush and
//! re-arm write interest.
//!
//! # Per-connection state machine
//!
//! ```text
//!             read readiness              worker pool
//! socket ──▶ FrameBuf ──frames──▶ pending queue ──▶ execute ──┐
//!                                                             ▼
//! socket ◀── OutBuf (partial-write offset) ◀── replies / subscription pushes
//! ```
//!
//! Reads pause (interest re-armed without `read`) while a connection's
//! pending + outgoing backlog exceeds the high-water mark, so a client that
//! stops draining replies stalls only itself — the kernel's socket buffer
//! then backpressures the client. Writes arm only while the [`OutBuf`] is
//! non-empty.

mod outbuf;
mod poller;

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asha_core::Error;
use asha_metrics::JsonValue;

pub use outbuf::{Offer, OutBuf};
pub(crate) use poller::{Interest, PollEvent, Poller, Waker};

use crate::codec::FrameBuf;
use crate::conn::Conn;
use crate::metrics::ServiceMetrics;

/// Token reserved for the reactor's wakeup channel.
const TOKEN_WAKER: u64 = 0;
/// Tokens below this are listeners / control fds; connections start here.
const TOKEN_FIRST_CONN: u64 = 16;
/// Frames one worker visit processes before requeueing the connection, so
/// a pipelining client cannot monopolize a pool thread.
const WORKER_BATCH: usize = 32;
/// Bytes staged per write syscall (also the read scratch size).
const IO_CHUNK: usize = 64 * 1024;
/// Read syscalls per readiness event before yielding to other connections.
const READ_ROUNDS: usize = 4;
/// Maximum bytes of HTTP request head accepted on the metrics listener.
const HTTP_HEAD_MAX: usize = 8 * 1024;

/// Reactor tuning knobs, derived from `ServeOptions`.
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Maximum encoded frame size accepted from a client.
    pub max_frame: usize,
    /// High-water mark (frames) on pending requests + outgoing backlog;
    /// reads pause above it.
    pub high_water: usize,
    /// Poll timeout; bounds how fast the loop notices the shutdown flag.
    pub poll_interval: Duration,
    /// How long the final drain may take before connections are dropped.
    pub grace: Duration,
}

/// Cross-thread doorbell: producers mark a connection dirty and wake the
/// reactor, which flushes its [`OutBuf`] and re-arms interest.
#[derive(Debug)]
pub(crate) struct ReactorNotify {
    dirty: Mutex<Vec<u64>>,
    waker: Waker,
}

impl ReactorNotify {
    fn new() -> std::io::Result<Arc<ReactorNotify>> {
        Ok(Arc::new(ReactorNotify {
            dirty: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        }))
    }

    /// Wake the reactor without marking any connection (shutdown nudges).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn take_dirty(&self, out: &mut Vec<u64>) {
        out.clear();
        std::mem::swap(&mut *self.dirty.lock().unwrap(), out);
    }
}

/// One unit of work queued for the worker pool.
#[derive(Debug)]
pub(crate) enum Work {
    /// A decoded protocol frame.
    Frame(JsonValue),
    /// A `GET /metrics` on the HTTP metrics listener. Only the reactor's
    /// HTTP decode path constructs this, so protocol clients cannot inject
    /// HTTP work.
    HttpGet,
}

/// A queued request with its tracing envelope: the id assigned at decode
/// time and the enqueue timestamp used to measure queue wait.
#[derive(Debug)]
pub(crate) struct PendingReq {
    /// What to execute.
    pub work: Work,
    /// Request id assigned at decode time (for slow-request traces).
    pub req_id: u64,
    /// [`ServiceMetrics::now_nanos`] when the request entered the queue.
    pub enqueued_nanos: u64,
}

#[derive(Debug, Default)]
struct Pending {
    queue: VecDeque<PendingReq>,
    /// A worker visit is scheduled or running for this connection.
    busy: bool,
}

/// Shared per-connection state: everything threads other than the reactor
/// may touch. The socket itself stays reactor-private.
pub(crate) struct ConnHandle {
    token: u64,
    peer: String,
    /// Accepted on the HTTP metrics listener rather than a protocol one.
    http: bool,
    out: Mutex<OutBuf>,
    pending: Mutex<Pending>,
    dirty: AtomicBool,
    /// `now_nanos` of the doorbell ring that set `dirty` (0 = unset);
    /// the reactor differences it to measure wake-to-dispatch latency.
    dirty_at_nanos: AtomicU64,
    closed: AtomicBool,
    notify: Arc<ReactorNotify>,
    metrics: Arc<ServiceMetrics>,
    user: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl std::fmt::Debug for ConnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnHandle")
            .field("token", &self.token)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl ConnHandle {
    fn new(
        token: u64,
        peer: String,
        http: bool,
        cap: usize,
        notify: Arc<ReactorNotify>,
        metrics: Arc<ServiceMetrics>,
    ) -> Arc<ConnHandle> {
        Arc::new(ConnHandle {
            token,
            peer,
            http,
            out: Mutex::new(OutBuf::new(cap)),
            pending: Mutex::new(Pending::default()),
            dirty: AtomicBool::new(false),
            dirty_at_nanos: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            notify,
            metrics,
            user: OnceLock::new(),
        })
    }

    /// Short peer description for tracing.
    pub(crate) fn peer(&self) -> &str {
        &self.peer
    }

    /// Whether this connection arrived on the HTTP metrics listener.
    pub(crate) fn is_http(&self) -> bool {
        self.http
    }

    /// Whether the socket is gone; producers should drop their references.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Attach service-specific state (called once at accept time).
    pub(crate) fn set_user(&self, value: Box<dyn Any + Send + Sync>) {
        let _ = self.user.set(value);
    }

    /// Typed view of the attached service state.
    pub(crate) fn user<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.user.get().and_then(|b| b.downcast_ref::<T>())
    }

    /// Queue a reply frame (never dropped; backpressure is applied by
    /// pausing this connection's reads). Returns false when the socket is
    /// already gone.
    pub(crate) fn push_reply(&self, line: String) -> bool {
        let queued = self.out.lock().unwrap().push_reply(line);
        if queued {
            self.mark_dirty();
        }
        queued
    }

    /// Queue a subscription frame if the bounded outgoing queue has room.
    pub(crate) fn offer_frame(&self, line: String) -> Offer {
        self.offer_with(|out| out.offer(line))
    }

    /// Queue a frame of a file-backed stream, which stops short of the
    /// queue's capacity (see [`OutBuf::offer_stream`]).
    pub(crate) fn offer_stream_frame(&self, line: String) -> Offer {
        self.offer_with(|out| out.offer_stream(line))
    }

    fn offer_with(&self, offer: impl FnOnce(&mut OutBuf) -> Offer) -> Offer {
        if self.is_closed() {
            return Offer::Closed;
        }
        let offer = offer(&mut self.out.lock().expect("outgoing queue poisoned"));
        if offer == Offer::Sent {
            self.mark_dirty();
        }
        offer
    }

    /// Ring the reactor's doorbell for this connection (flush + re-arm).
    pub(crate) fn mark_dirty(&self) {
        if !self.dirty.swap(true, Ordering::AcqRel) {
            // `.max(1)` keeps a 0 reading distinguishable from "unset".
            self.dirty_at_nanos
                .store(self.metrics.now_nanos().max(1), Ordering::Relaxed);
            self.notify.dirty.lock().unwrap().push(self.token);
            self.notify.waker.wake();
        }
    }

    /// Pending requests + queued outgoing frames (read-pause signal).
    fn backlog(&self) -> usize {
        self.pending.lock().unwrap().queue.len() + self.out.lock().unwrap().len()
    }

    /// Enqueue a decoded request; returns true when a worker visit should
    /// be scheduled (none is running or queued).
    pub(crate) fn enqueue_request(&self, req: PendingReq) -> bool {
        let mut p = self.pending.lock().unwrap();
        p.queue.push_back(req);
        if p.busy {
            false
        } else {
            p.busy = true;
            true
        }
    }

    /// Worker side: take the next request, or mark the visit finished when
    /// the queue is empty.
    pub(crate) fn next_request(&self) -> Option<PendingReq> {
        let mut p = self.pending.lock().unwrap();
        match p.queue.pop_front() {
            Some(req) => Some(req),
            None => {
                p.busy = false;
                None
            }
        }
    }

    /// Worker side, at batch end: keep the visit alive if more requests are
    /// queued (returns true → resubmit), otherwise finish it.
    pub(crate) fn yield_visit(&self) -> bool {
        let mut p = self.pending.lock().unwrap();
        if p.queue.is_empty() {
            p.busy = false;
            false
        } else {
            true
        }
    }

    fn idle(&self) -> bool {
        let p = self.pending.lock().unwrap();
        p.queue.is_empty() && !p.busy
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

struct PoolShared {
    queue: Mutex<VecDeque<Arc<ConnHandle>>>,
    cv: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<ServiceMetrics>,
}

/// Cloneable handle for scheduling worker visits.
#[derive(Clone)]
pub(crate) struct PoolSubmitter {
    shared: Arc<PoolShared>,
}

impl PoolSubmitter {
    /// Schedule a worker visit for this connection.
    pub(crate) fn submit(&self, conn: Arc<ConnHandle>) {
        self.shared.metrics.visit_queued();
        self.shared.queue.lock().unwrap().push_back(conn);
        self.shared.cv.notify_one();
    }
}

/// Request executor shared by every worker: runs one queued request for a
/// connection and enqueues its reply.
pub(crate) type RunOne = Arc<dyn Fn(&Arc<ConnHandle>, PendingReq) + Send + Sync>;

/// A fixed pool of worker threads executing requests for connections.
///
/// Each queued entry is one *visit*: the worker drains up to
/// `WORKER_BATCH` pending requests from that connection, then requeues it
/// if more arrived — strict FIFO per connection, fair across connections.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `n` workers; `run_one` executes a single queued request for a
    /// connection and enqueues its reply.
    pub(crate) fn start(n: usize, metrics: Arc<ServiceMetrics>, run_one: RunOne) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
        });
        let threads = (0..n.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let run_one = Arc::clone(&run_one);
                std::thread::Builder::new()
                    .name(format!("asha-serve-worker-{i}"))
                    .spawn(move || worker_main(shared, run_one))
                    .expect("spawning worker thread")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// A handle for scheduling visits (cheap to clone into closures).
    pub(crate) fn submitter(&self) -> PoolSubmitter {
        PoolSubmitter {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Finish queued visits, then stop and join every worker.
    pub(crate) fn shutdown_join(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn worker_main(shared: Arc<PoolShared>, run_one: RunOne) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.cv.wait(queue).unwrap();
            }
        };
        let Some(conn) = conn else { return };
        shared.metrics.visit_dequeued();
        for _ in 0..WORKER_BATCH {
            match conn.next_request() {
                Some(req) => run_one(&conn, req),
                None => break,
            }
        }
        if conn.yield_visit() {
            shared.metrics.visit_queued();
            shared.queue.lock().unwrap().push_back(Arc::clone(&conn));
            shared.cv.notify_one();
        }
        // Replies were queued; make sure the reactor flushes and re-arms
        // (this also unpauses reads the backlog had suspended).
        conn.mark_dirty();
    }
}

// ---------------------------------------------------------------------------
// Listeners and the service hook
// ---------------------------------------------------------------------------

/// A bound, non-blocking listening socket registered with the reactor.
#[derive(Debug)]
pub(crate) enum Listener {
    /// A Unix-domain listener.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
    /// A TCP listener.
    Tcp(std::net::TcpListener),
    /// A TCP listener whose connections speak HTTP (`GET /metrics`)
    /// instead of the length-framed protocol.
    Http(std::net::TcpListener),
}

impl Listener {
    fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) | Listener::Http(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) | Listener::Http(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    fn is_http(&self) -> bool {
        matches!(self, Listener::Http(_))
    }
}

/// Service-side hooks the reactor calls. Decode errors and frames arrive on
/// the reactor thread, so implementations must stay cheap there (dispatch
/// to the pool, don't execute).
pub(crate) trait ConnHandler: Send + Sync + 'static {
    /// A connection was accepted and registered.
    fn on_open(&self, conn: &Arc<ConnHandle>);
    /// One complete frame was decoded. Typically: enqueue + schedule a
    /// worker visit.
    fn on_frame(&self, conn: &Arc<ConnHandle>, frame: JsonValue);
    /// A decode error (malformed, oversized, torn). The connection stays
    /// open: the decoder has already discarded the bad bytes, and a torn
    /// frame is only reported at EOF, where the connection drains anyway.
    fn on_decode_error(&self, conn: &Arc<ConnHandle>, err: &Error);
    /// A complete HTTP request head arrived on an [`Listener::Http`]
    /// connection. The connection drains and closes once a response has
    /// been queued (directly or via the worker pool). Default: ignore,
    /// which closes the connection without a response.
    fn on_http(&self, conn: &Arc<ConnHandle>, method: &str, path: &str) {
        let _ = (conn, method, path);
    }
    /// The connection's bounded outgoing queue refused a frame
    /// ([`Offer::Full`]) and has room again, or is closing: whoever kept
    /// the frame should retry now. Reactor thread; default: ignore.
    fn on_room(&self, conn: &Arc<ConnHandle>) {
        let _ = conn;
    }
    /// The connection is gone (socket closed and deregistered).
    fn on_close(&self, conn: &Arc<ConnHandle>);
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

/// A running reactor thread.
pub(crate) struct ReactorHandle {
    notify: Arc<ReactorNotify>,
    thread: JoinHandle<()>,
}

impl ReactorHandle {
    /// Wake the loop (e.g. after flipping the shutdown flag).
    pub(crate) fn wake(&self) {
        self.notify.wake();
    }

    /// Join the reactor thread (returns after the final drain).
    pub(crate) fn join(self) {
        self.wake();
        let _ = self.thread.join();
    }
}

/// Reactor lifecycle flags shared with the daemon.
#[derive(Debug)]
pub(crate) struct ReactorFlags {
    /// Graceful shutdown requested: stop accepting and reading.
    pub shutdown: Arc<AtomicBool>,
    /// Producers (workers, tailers) are done: drain queues and exit.
    pub final_drain: Arc<AtomicBool>,
}

/// Spawn the reactor thread over the given listeners.
pub(crate) fn start_reactor(
    cfg: ReactorConfig,
    listeners: Vec<Listener>,
    handler: Arc<dyn ConnHandler>,
    flags: ReactorFlags,
    metrics: Arc<ServiceMetrics>,
) -> std::io::Result<ReactorHandle> {
    let notify = ReactorNotify::new()?;
    let poller = Poller::new()?;
    poller.register(notify.waker.fd(), TOKEN_WAKER, Interest::READ)?;
    for (i, listener) in listeners.iter().enumerate() {
        poller.register(listener.raw_fd(), 1 + i as u64, Interest::READ)?;
    }
    let reactor = Reactor {
        cfg,
        poller,
        notify: Arc::clone(&notify),
        listeners,
        handler,
        flags,
        metrics,
        conns: HashMap::new(),
        next_token: AtomicU64::new(TOKEN_FIRST_CONN),
        read_scratch: vec![0u8; IO_CHUNK],
        write_scratch: Vec::with_capacity(IO_CHUNK),
        dirty_scratch: Vec::new(),
        accepting: true,
    };
    let thread = std::thread::Builder::new()
        .name("asha-serve-reactor".to_owned())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle { notify, thread })
}

/// Per-connection input decoder: the length-framed protocol, or a tiny
/// HTTP request-head accumulator for the metrics listener.
enum Decoder {
    Frames(FrameBuf),
    Http(Vec<u8>),
}

/// Reactor-private per-connection state: the socket and its decoder.
struct IoConn {
    conn: Conn,
    decoder: Decoder,
    handle: Arc<ConnHandle>,
    /// Interest currently armed with the poller.
    armed: Interest,
    /// Read side finished (EOF or a dispatched HTTP request): drain, then
    /// close.
    draining: bool,
}

struct Reactor {
    cfg: ReactorConfig,
    poller: Poller,
    notify: Arc<ReactorNotify>,
    listeners: Vec<Listener>,
    handler: Arc<dyn ConnHandler>,
    flags: ReactorFlags,
    metrics: Arc<ServiceMetrics>,
    conns: HashMap<u64, IoConn>,
    next_token: AtomicU64,
    /// One read buffer shared by every connection (bytes immediately move
    /// into the connection's `FrameBuf`).
    read_scratch: Vec<u8>,
    /// One staging buffer for coalesced writes.
    write_scratch: Vec<u8>,
    dirty_scratch: Vec<u64>,
    accepting: bool,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if let Err(e) = self.poller.wait(&mut events, Some(self.cfg.poll_interval)) {
                // A broken poller is unrecoverable; drop every connection.
                eprintln!("asha-serve: reactor poll failed: {e}");
                break;
            }
            // Take the batch out of `self` so handlers can borrow freely.
            let batch = std::mem::take(&mut events);
            let iter_start = (!batch.is_empty()).then(Instant::now);
            for ev in &batch {
                match ev.token {
                    TOKEN_WAKER => {
                        self.notify.waker.drain();
                        let now = self.metrics.now_nanos();
                        let mut dirty = std::mem::take(&mut self.dirty_scratch);
                        self.notify.take_dirty(&mut dirty);
                        for &token in &dirty {
                            if let Some(io) = self.conns.get(&token) {
                                io.handle.dirty.store(false, Ordering::Release);
                                let rung = io.handle.dirty_at_nanos.swap(0, Ordering::Relaxed);
                                if rung != 0 && now >= rung {
                                    self.metrics.wake_to_dispatch((now - rung) as f64 / 1e9);
                                }
                            }
                            self.sync_conn(token);
                        }
                        self.dirty_scratch = dirty;
                    }
                    t if (t as usize) <= self.listeners.len() && t >= 1 => {
                        self.accept_burst(t as usize - 1);
                    }
                    token => {
                        if ev.error {
                            self.close_conn(token);
                            continue;
                        }
                        if ev.readable {
                            self.handle_read(token);
                        }
                        if ev.writable {
                            self.sync_conn(token);
                        }
                    }
                }
            }
            events = batch;
            if let Some(t0) = iter_start {
                self.metrics.reactor_iteration(t0.elapsed().as_secs_f64());
            }

            if self.flags.shutdown.load(Ordering::Acquire) {
                if self.accepting {
                    self.stop_accepting();
                }
                let final_drain = self.flags.final_drain.load(Ordering::Acquire);
                if final_drain {
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + self.cfg.grace);
                    // Close every connection whose queue has drained; give
                    // the rest until the grace deadline.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.sync_conn(token);
                        let done = self
                            .conns
                            .get(&token)
                            .map(|io| io.handle.out.lock().unwrap().is_empty())
                            .unwrap_or(true);
                        if done || Instant::now() >= deadline {
                            self.close_conn(token);
                        }
                    }
                    if self.conns.is_empty() || Instant::now() >= deadline {
                        break;
                    }
                }
            }
        }
        // Tear down whatever remains so producers see closed connections.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    fn stop_accepting(&mut self) {
        for listener in &self.listeners {
            let _ = self.poller.deregister(listener.raw_fd());
        }
        self.accepting = false;
    }

    fn accept_burst(&mut self, listener_idx: usize) {
        if !self.accepting {
            return;
        }
        let http = self.listeners[listener_idx].is_http();
        loop {
            match self.listeners[listener_idx].accept() {
                Ok(conn) => self.register_conn(conn, http),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failures (e.g. the peer reset before we
                // got to it) should not kill the listener.
                Err(_) => break,
            }
        }
    }

    fn register_conn(&mut self, conn: Conn, http: bool) {
        if conn.set_nonblocking(true).is_err() {
            return;
        }
        self.metrics.accept();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let handle = ConnHandle::new(
            token,
            conn.peer(),
            http,
            self.cfg.high_water,
            Arc::clone(&self.notify),
            Arc::clone(&self.metrics),
        );
        if self
            .poller
            .register(conn.raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.handler.on_open(&handle);
        let decoder = if http {
            Decoder::Http(Vec::new())
        } else {
            Decoder::Frames(FrameBuf::new(self.cfg.max_frame))
        };
        self.conns.insert(
            token,
            IoConn {
                conn,
                decoder,
                handle,
                armed: Interest::READ,
                draining: false,
            },
        );
    }

    fn handle_read(&mut self, token: u64) {
        let shutting_down = self.flags.shutdown.load(Ordering::Acquire);
        let Some(io) = self.conns.get_mut(&token) else {
            return;
        };
        if io.draining {
            return;
        }
        let mut eof = false;
        for _ in 0..READ_ROUNDS {
            if shutting_down || io.handle.backlog() >= self.cfg.high_water {
                break;
            }
            match io.conn.read(&mut self.read_scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.metrics.record_bytes_read(n as u64);
                    match &mut io.decoder {
                        Decoder::Frames(frames) => {
                            frames.feed(&self.read_scratch[..n]);
                            let mut decoded_any = false;
                            while let Some(frame) = frames.next_frame() {
                                decoded_any = true;
                                match frame {
                                    Ok(value) => self.handler.on_frame(&io.handle, value),
                                    Err(e) => self.handler.on_decode_error(&io.handle, &e),
                                }
                            }
                            if !decoded_any {
                                if let Err(e) = frames.check_overflow() {
                                    self.handler.on_decode_error(&io.handle, &e);
                                }
                            }
                        }
                        Decoder::Http(head) => {
                            head.extend_from_slice(&self.read_scratch[..n]);
                            if head.len() > HTTP_HEAD_MAX {
                                self.close_conn(token);
                                return;
                            }
                            if let Some((method, path)) = parse_http_head(head) {
                                self.metrics.http_request();
                                self.handler.on_http(&io.handle, &method, &path);
                                // One request per connection: stop reading
                                // and close once the response has flushed.
                                // `begin_close` is NOT called — the worker
                                // still needs to queue the response.
                                io.draining = true;
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if eof {
            let Some(io) = self.conns.get_mut(&token) else {
                return;
            };
            match &mut io.decoder {
                Decoder::Frames(frames) => {
                    if frames.has_partial() {
                        let torn = Error::protocol("torn frame: stream ended mid-line");
                        self.handler.on_decode_error(&io.handle, &torn);
                        frames.clear();
                    }
                    io.draining = true;
                    io.handle.out.lock().unwrap().begin_close();
                }
                Decoder::Http(_) => {
                    // EOF before a complete request head: nothing to answer.
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.sync_conn(token);
    }

    /// Flush the connection's outgoing queue, re-arm interest, and apply
    /// drain-then-close. The single place interest decisions are made.
    fn sync_conn(&mut self, token: u64) {
        let Some(io) = self.conns.get_mut(&token) else {
            return;
        };
        let mut dead = false;
        let mut jammed = false;
        let room = {
            let mut out = io.handle.out.lock().unwrap();
            loop {
                let staged = out.stage(&mut self.write_scratch, IO_CHUNK);
                if staged == 0 {
                    break;
                }
                match io.conn.write(&self.write_scratch[..staged]) {
                    Ok(n) => {
                        self.metrics.record_bytes_written(n as u64);
                        out.consume(n);
                        if n < staged {
                            jammed = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        jammed = true;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // Under the lock the refusal was recorded under, so the drain
            // above and a concurrent offer cannot both miss each other.
            out.take_starved()
        };
        if dead {
            self.close_conn(token);
            return;
        }
        if room {
            self.handler.on_room(&io.handle);
        }
        let drained = io.handle.out.lock().unwrap().is_empty();
        if io.draining && drained && io.handle.idle() {
            self.close_conn(token);
            return;
        }
        let shutting_down = self.flags.shutdown.load(Ordering::Acquire);
        let want = Interest {
            read: !io.draining && !shutting_down && io.handle.backlog() < self.cfg.high_water,
            write: jammed || !drained,
        };
        if io.armed.read && !want.read && !io.draining && !shutting_down {
            // Reads paused purely by the backlog high-water mark.
            self.metrics.read_pause();
        }
        if want != io.armed && self.poller.rearm(io.conn.raw_fd(), token, want).is_ok() {
            io.armed = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(io) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(io.conn.raw_fd());
        io.handle.out.lock().unwrap().close();
        io.handle.closed.store(true, Ordering::Release);
        let _ = io.conn.shutdown();
        self.handler.on_close(&io.handle);
    }
}

/// `(method, path)` from a complete HTTP request head, or `None` until the
/// blank line terminating the head has arrived.
fn parse_http_head(buf: &[u8]) -> Option<(String, String)> {
    let end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n"))?;
    let head = &buf[..end];
    let line = head.split(|&b| b == b'\n').next().unwrap_or(head);
    let line = std::str::from_utf8(line).ok()?.trim_end_matches('\r');
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::parse_http_head;

    #[test]
    fn http_head_parses_at_blank_line() {
        assert_eq!(parse_http_head(b"GET /metrics HTTP/1."), None);
        assert_eq!(
            parse_http_head(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n"),
            Some(("GET".to_owned(), "/metrics".to_owned()))
        );
        assert_eq!(
            parse_http_head(b"GET /metrics\n\n"),
            Some(("GET".to_owned(), "/metrics".to_owned()))
        );
        assert_eq!(parse_http_head(b"\r\n\r\n"), None);
    }
}
