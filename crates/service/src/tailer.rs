//! Per-experiment WAL tailers: one reader thread per experiment serving
//! every subscriber of that experiment.
//!
//! A [`TailerRegistry`] keys tailers by experiment name: the first
//! subscription spawns the experiment's tailer, later ones attach to it,
//! and the thread exits when its last subscriber closes.
//!
//! Each subscriber follows the WAL through its own [`WalTail`], one
//! [`READ_WINDOW`] at a time: a window is read only once everything the
//! last one held has gone out, so a subscriber holds at most one window of
//! records however long the WAL behind it, and a slow one holds back no
//! reads but its own. The tail renders every `binary-v2` record as its
//! JSON line — the event frame's body — and tags it with its `seq` and
//! whether it is the finished marker, so no line is parsed back here; the
//! push envelope (`{"v":1,"sub":K,"push":"event","data":<body>}`) is
//! written around the body in the line's own buffer, so a frame is one
//! `String`. Records below the subscription's `from_seq` are dropped as
//! they are read. Every turn polls every tail, a drained one for its next
//! window and the others only for a rewrite: crash recovery rewrites the
//! WAL, and the tail's rewind detection is how a subscriber hears of it.
//! K subscribers of one experiment decode each record K times.
//!
//! # What a subscriber is owed
//!
//! Everything a subscriber receives goes out on this thread, and nothing
//! owed is ever dropped: a full connection queue leaves it owed until the
//! tailer is woken on room, without ever blocking the tailer on one slow
//! client. Each turn offers, in this order:
//!
//! * a `rewind`, before any record of a rewritten file;
//! * the experiment's newest **status**: the supervisor's listener posts
//!   each change to the tailer's mailbox, and a status not yet queued when
//!   a newer one arrives is replaced by it (a status push carries the whole
//!   state; the WAL's `paused` / `resumed` / `experiment_finished` records
//!   are the history);
//! * the pending WAL **event frames**, file-backed, a gap-free stream at
//!   whatever pace the client reads: as many as the queue takes, in one
//!   hand-off (one lock of the queue, one ring of the reactor), not one a
//!   frame;
//! * `end`, once the finished marker (or, when the daemon drains, whatever
//!   was already read) has gone out.
//!
//! # Waiting
//!
//! A tailer thread never sleeps blind. With a subscriber's queue full it
//! waits on its [`Doorbell`], which the reactor rings the moment a drain
//! makes room in that queue (see the starved bit in `reactor/outbuf.rs`);
//! with nothing to read and nothing to deliver it waits on the same bell,
//! which a new subscriber, a posted status or a closing one rings.
//! [`JAM_PAUSE`] and the poll interval stay as the waits' upper bounds:
//! the file itself rings nothing, one stuck client may hold the others
//! back no longer than the first, and a ring that somehow never came costs
//! what every jam used to.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asha_metrics::push_json_u64;
use asha_store::{ExperimentStatus, WalChunk, WalTail};

use crate::codec::encode_frame;
use crate::metrics::{ServiceMetrics, TailerMetrics};
use crate::proto::{Push, WireStatus};
use crate::reactor::{ConnHandle, Offer};

/// Longest wait for room while a subscriber's connection queue is full.
const JAM_PAUSE: Duration = Duration::from_millis(2);
/// WAL bytes one read may take in, so what a subscriber holds as lines is
/// bounded whatever the length of the WAL behind it.
const READ_WINDOW: u64 = 64 * 1024;

/// What wakes a waiting tailer thread early. Sticky: a ring with nobody
/// waiting is kept for the next wait, so it cannot be lost between a
/// refused offer and the wait that follows it.
#[derive(Default)]
pub(crate) struct Doorbell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    pub(crate) fn ring(&self) {
        *self.rung.lock().expect("doorbell lock poisoned") = true;
        self.cv.notify_one();
    }

    /// Wait for a ring, at most `timeout`; returns whether one came.
    fn wait(&self, timeout: Duration) -> bool {
        let rung = self.rung.lock().expect("doorbell lock poisoned");
        let (mut rung, _) = self
            .cv
            .wait_timeout_while(rung, timeout, |rung| !*rung)
            .expect("doorbell lock poisoned");
        std::mem::take(&mut *rung)
    }
}

/// One live subscription, shared between the experiment's tailer and the
/// owning connection.
pub(crate) struct SubState {
    pub(crate) sub: u64,
    /// Telemetry records with `seq < from_seq` are filtered out; store
    /// markers without a `seq` always flow.
    pub(crate) from_seq: u64,
    conn: Arc<ConnHandle>,
    /// Set by unsubscribe, connection teardown, or end-of-stream.
    closed: AtomicBool,
    /// The doorbell of the tailer thread serving this subscription.
    bell: OnceLock<Arc<Doorbell>>,
}

impl SubState {
    pub(crate) fn new(sub: u64, from_seq: u64, conn: Arc<ConnHandle>) -> Arc<SubState> {
        Arc::new(SubState {
            sub,
            from_seq,
            conn,
            closed: AtomicBool::new(false),
            bell: OnceLock::new(),
        })
    }

    /// Wake the tailer serving this subscription, if one has taken it on.
    pub(crate) fn ring(&self) {
        if let Some(bell) = self.bell.get() {
            bell.ring();
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Close exactly once; the single place `subscriptions_open` falls.
    pub(crate) fn mark_closed(&self, metrics: &ServiceMetrics) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            metrics.sub_closed();
            self.ring();
        }
    }

    /// Book what the connection answered to an offer of one push.
    fn account(&self, metrics: &ServiceMetrics, offer: Offer) -> Offer {
        match offer {
            Offer::Sent => metrics.events_sent(1),
            Offer::Full => {}
            Offer::Closed => self.mark_closed(metrics),
        }
        offer
    }

    /// Offer a push without blocking or dropping: on a full queue the
    /// caller keeps it and retries later.
    fn offer_push(&self, metrics: &ServiceMetrics, push: &Push) -> Offer {
        if self.is_closed() {
            return Offer::Closed;
        }
        let line = encode_frame(&push.to_frame());
        self.account(metrics, self.conn.offer_frame(line))
    }

    /// Offer the pending event frames, front first, in one hand-off to the
    /// connection: as many as its queue takes go under one lock with one
    /// ring of the reactor, and the rest stay in `frames`. Returns how many
    /// went and what the first that stayed was answered (`Sent` if none).
    fn offer_events(
        &self,
        metrics: &ServiceMetrics,
        frames: &mut VecDeque<String>,
    ) -> (usize, Offer) {
        if self.is_closed() {
            return (0, Offer::Closed);
        }
        let (sent, offer) = self.conn.offer_stream_frames(frames);
        metrics.events_sent(sent as u64);
        if offer == Offer::Closed {
            self.mark_closed(metrics);
        }
        (sent, offer)
    }
}

/// Tailer environment, shared by every tailer thread.
pub(crate) struct TailerCtx {
    pub(crate) metrics: Arc<ServiceMetrics>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) poll_interval: Duration,
    /// How long shutdown drain may take before subscribers are dropped.
    pub(crate) grace: Duration,
}

/// Read on from the tail's offset, at most [`READ_WINDOW`] bytes and never
/// past `limit`. (A rewind restarts at byte 0 inside the poll, so that one
/// read may take in as much as the tail had already consumed.)
fn poll_window(tail: &mut WalTail, limit: u64) -> std::io::Result<WalChunk> {
    tail.poll_to(limit.min(tail.offset().saturating_add(READ_WINDOW)))
}

/// One subscriber, as its experiment's tailer follows the WAL for it.
struct Follower {
    state: Arc<SubState>,
    tail: WalTail,
    /// The push envelope up to an event's body,
    /// `{"v":1,"sub":K,"push":"event","data":`.
    head: String,
    /// Event frames of the records at or past `from_seq` that the
    /// connection queue has not taken yet: what one read brought in, at
    /// most.
    pending: VecDeque<String>,
    /// The finished marker has been read: `end` is owed once `pending` is
    /// delivered.
    finished: bool,
    /// The WAL was rewritten: a `rewind` is owed before anything else.
    rewind_owed: bool,
    /// The experiment's newest status, owed before the pending records.
    status_owed: Option<WireStatus>,
}

impl Follower {
    fn new(state: Arc<SubState>, wal_path: &PathBuf) -> Follower {
        let mut head = String::from("{\"v\":1,\"sub\":");
        push_json_u64(&mut head, state.sub);
        head.push_str(",\"push\":\"event\",\"data\":");
        Follower {
            state,
            tail: WalTail::new(wal_path),
            head,
            pending: VecDeque::new(),
            finished: false,
            rewind_owed: false,
            status_owed: None,
        }
    }

    /// One WAL record's rendered line as its event frame, built in the
    /// line's own buffer: the envelope goes in front of the body (the tail
    /// renders with room for it), `}` and the newline after. Field order is
    /// [`Push::to_frame`]'s, so the wire bytes are the same.
    fn event_frame(&self, mut body: String) -> String {
        body.insert_str(0, &self.head);
        body.push_str("}\n");
        body
    }

    /// One turn without blocking: poll the tail, then offer the owed
    /// `rewind`, the owed status, the pending records and the owed `end`,
    /// in that order, until the queue refuses one. Returns (made progress,
    /// hit a full queue).
    fn turn(
        &mut self,
        shutting_down: bool,
        metrics: &ServiceMetrics,
        tm: &TailerMetrics,
    ) -> (bool, bool) {
        if self.state.is_closed() {
            return (false, false);
        }
        let mut progressed = false;
        // A draining daemon reads no more: each subscriber gets what was
        // read, then `end`.
        if !shutting_down {
            // Only a drained tail short of the finished marker reads on;
            // the other polls read nothing and only look for a rewrite.
            let drained = self.pending.is_empty() && !self.finished;
            let limit = if drained {
                u64::MAX
            } else {
                self.tail.offset()
            };
            if let Ok(chunk) = poll_window(&mut self.tail, limit) {
                if chunk.rewound {
                    // Crash recovery rewrote the WAL shorter or with other
                    // bytes: restart the stream.
                    self.pending.clear();
                    self.finished = false;
                    self.rewind_owed = true;
                }
                progressed |= !chunk.lines.is_empty();
                for (body, tag) in chunk.lines.into_iter().zip(chunk.tags) {
                    self.finished |= tag.finished;
                    if tag.seq.is_none_or(|seq| seq >= self.state.from_seq) {
                        self.pending.push_back(self.event_frame(body));
                    }
                }
            }
        }

        let sub = self.state.sub;
        if self.rewind_owed {
            match self.state.offer_push(metrics, &Push::Rewind { sub }) {
                Offer::Sent => self.rewind_owed = false,
                other => return (progressed, other == Offer::Full),
            }
            progressed = true;
        }
        if let Some(state) = &self.status_owed {
            let push = Push::Status {
                sub,
                state: state.clone(),
            };
            match self.state.offer_push(metrics, &push) {
                Offer::Sent => self.status_owed = None,
                other => return (progressed, other == Offer::Full),
            }
            progressed = true;
        }
        if !self.pending.is_empty() {
            let (sent, offer) = self.state.offer_events(metrics, &mut self.pending);
            tm.fanout_frames.add(sent as u64);
            progressed |= sent > 0;
            if offer != Offer::Sent {
                return (progressed, offer == Offer::Full);
            }
        }
        if !self.finished && !shutting_down {
            return (progressed, false);
        }
        match self.state.offer_push(metrics, &Push::End { sub }) {
            Offer::Sent => {
                self.state.mark_closed(metrics);
                (true, false)
            }
            other => (progressed, other == Offer::Full),
        }
    }
}

/// What others leave for a tailer thread to pick up on its next turn.
#[derive(Default)]
struct Mailbox {
    /// Subscribers to attach.
    adds: Vec<Arc<SubState>>,
    /// The newest status posted since the last turn.
    status: Option<ExperimentStatus>,
}

/// What the registry shares with one tailer thread.
#[derive(Default)]
struct Slot {
    /// One lock for both, so a subscriber attached before a status was
    /// posted is owed that status.
    mailbox: Mutex<Mailbox>,
    bell: Arc<Doorbell>,
}

/// Experiment tailers keyed by experiment name: first subscriber spawns,
/// later ones attach, last one out ends the thread.
pub(crate) struct TailerRegistry {
    ctx: Arc<TailerCtx>,
    /// Experiment name → the slot of the tailer thread following its WAL.
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    /// Tailer threads not yet joined: the running ones, and those that
    /// exited since the last spawn.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TailerRegistry {
    pub(crate) fn new(ctx: TailerCtx) -> Arc<TailerRegistry> {
        Arc::new(TailerRegistry {
            ctx: Arc::new(ctx),
            slots: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Attach a subscription to the experiment's tailer, spawning it if
    /// this is the first subscriber.
    pub(crate) fn subscribe(
        self: &Arc<TailerRegistry>,
        wal_path: PathBuf,
        experiment: String,
        state: Arc<SubState>,
    ) {
        let mut slots = self.slots.lock().unwrap();
        let running = slots.get(&experiment).cloned();
        let spawn = running.is_none();
        let slot = running.unwrap_or_default();
        let _ = state.bell.set(Arc::clone(&slot.bell));
        slot.mailbox
            .lock()
            .expect("tailer mailbox poisoned")
            .adds
            .push(state);
        if !spawn {
            // A waiting tailer attaches the newcomer at once.
            slot.bell.ring();
            return;
        }
        slots.insert(experiment.clone(), Arc::clone(&slot));
        let registry = Arc::clone(self);
        let ctx = Arc::clone(&self.ctx);
        let handle = std::thread::Builder::new()
            .name("asha-serve-tailer".to_owned())
            .spawn(move || tailer_main(wal_path, experiment, slot, registry, ctx))
            .expect("spawning tailer thread");
        // Join the tailers that have exited, so the handles kept are the
        // running tailers', not every tailer the daemon ever started.
        let mut threads = self.threads.lock().expect("tailer handles poisoned");
        let (exited, running): (Vec<_>, Vec<_>) =
            threads.drain(..).partition(JoinHandle::is_finished);
        for t in exited {
            let _ = t.join();
        }
        *threads = running;
        threads.push(handle);
    }

    /// Owe every subscriber of `experiment` a push of its new status. Never
    /// waits on a subscriber: the supervisor's listener calls this with the
    /// supervisor lock held. An experiment without a tailer has no
    /// subscriber, and its status goes nowhere.
    pub(crate) fn post_status(&self, experiment: &str, status: ExperimentStatus) {
        let slots = self.slots.lock().expect("tailer registry poisoned");
        if let Some(slot) = slots.get(experiment) {
            slot.mailbox.lock().expect("tailer mailbox poisoned").status = Some(status);
            slot.bell.ring();
        }
    }

    /// Join every tailer thread (call after the shutdown flag is set).
    pub(crate) fn join_all(&self) {
        let threads = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Body of one experiment's tailer thread.
fn tailer_main(
    wal_path: PathBuf,
    experiment: String,
    slot: Arc<Slot>,
    registry: Arc<TailerRegistry>,
    ctx: Arc<TailerCtx>,
) {
    // Counters outlive this thread (a later tailer for the same experiment
    // keeps adding to them); gauges are zeroed on exit.
    let tm = ctx.metrics.tailer(&experiment);
    let mut subs: Vec<Follower> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Attach newly-arrived subscribers, then owe all a posted status.
        let mail = std::mem::take(&mut *slot.mailbox.lock().expect("tailer mailbox poisoned"));
        for state in mail.adds {
            subs.push(Follower::new(state, &wal_path));
        }
        if let Some(status) = mail.status {
            let state = WireStatus {
                name: experiment.clone(),
                status,
            };
            for sub in &mut subs {
                sub.status_owed = Some(state.clone());
            }
        }

        let shutting_down = ctx.shutdown.load(Ordering::Acquire);
        let (mut progressed, mut jammed) = (false, false);
        for sub in &mut subs {
            let (p, j) = sub.turn(shutting_down, &ctx.metrics, &tm);
            progressed |= p;
            jammed |= j;
        }
        subs.retain(|sub| !sub.state.is_closed());
        tm.subscribers.set(subs.len() as i64);
        let most_pending = subs.iter().map(|sub| sub.pending.len()).max();
        tm.lag_records.set(most_pending.unwrap_or(0) as i64);

        if shutting_down
            && Instant::now() >= *drain_deadline.get_or_insert_with(|| Instant::now() + ctx.grace)
        {
            // Out of grace: drop whoever is still owed frames.
            for sub in subs.drain(..) {
                sub.state.mark_closed(&ctx.metrics);
            }
        }
        if subs.is_empty() {
            // Last subscriber left: remove our slot unless someone attached
            // in the meantime (checked under the registry lock so a racing
            // subscribe either lands in our mailbox or spawns a new tailer
            // after removal).
            let mut slots = registry.slots.lock().unwrap();
            if slot
                .mailbox
                .lock()
                .expect("tailer mailbox poisoned")
                .adds
                .is_empty()
            {
                slots.remove(&experiment);
                tm.subscribers.set(0);
                tm.lag_records.set(0);
                return;
            }
            continue;
        }

        if jammed {
            tm.jam_waits.inc();
            if !slot.bell.wait(JAM_PAUSE) {
                tm.jam_timeouts.inc();
            }
        } else if !progressed {
            slot.bell.wait(ctx.poll_interval);
        }
    }
}

// `tailer` itself is compiled on Unix only.
#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::mpsc;

    use asha_core::telemetry::{Event, EventKind};
    use asha_metrics::JsonValue;
    use asha_store::{Durability, StoreEvent, WalRecord, WalWriter};

    use crate::reactor::{
        start_reactor, ConnHandler, Listener, ReactorConfig, ReactorFlags, ReactorHandle,
    };

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asha-tailer-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A telemetry record; `idle` tells one file's records from another's.
    fn idle(seq: u64, idle: usize) -> WalRecord {
        WalRecord::Telemetry(Event {
            seq,
            time: seq as f64,
            kind: EventKind::WorkerIdle { idle },
        })
    }

    fn finished(time: f64) -> WalRecord {
        WalRecord::Meta {
            time,
            event: StoreEvent::ExperimentFinished,
        }
    }

    /// A finished `binary-v2` WAL of `n` telemetry records.
    fn write_wal(path: &std::path::Path, n: u64) {
        let mut wal = WalWriter::create(path, Durability::Flush).unwrap();
        for seq in 0..n {
            wal.append(&idle(seq, 1)).unwrap();
        }
        wal.append(&finished(n as f64)).unwrap();
        wal.sync().unwrap();
    }

    /// The event frames `Push::to_frame` renders for `lines`.
    fn frames(sub: u64, lines: &[String]) -> Vec<u8> {
        lines
            .iter()
            .flat_map(|line| {
                let push = Push::Event {
                    sub,
                    data: JsonValue::parse(line).unwrap(),
                };
                encode_frame(&push.to_frame()).into_bytes()
            })
            .collect()
    }

    fn frame(push: Push) -> Vec<u8> {
        encode_frame(&push.to_frame()).into_bytes()
    }

    /// Read `peer` until what it sent ends with subscription `sub`'s `end`.
    fn read_to_end_of(peer: &mut UnixStream, sub: u64) -> Vec<u8> {
        let end = frame(Push::End { sub });
        let (mut wire, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
        while !wire.ends_with(&end) {
            let n = peer.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed early");
            wire.extend_from_slice(&buf[..n]);
        }
        wire
    }

    /// Hands the test the reactor's handle of each accepted connection,
    /// and rings `subs` on every drain, as the daemon does.
    struct Capture {
        opened: Mutex<mpsc::Sender<Arc<ConnHandle>>>,
        subs: Mutex<Vec<Arc<SubState>>>,
    }

    impl ConnHandler for Capture {
        fn on_open(&self, conn: &Arc<ConnHandle>) {
            self.opened.lock().unwrap().send(Arc::clone(conn)).unwrap();
        }
        fn on_frame(&self, _: &Arc<ConnHandle>, _: JsonValue) {}
        fn on_decode_error(&self, _: &Arc<ConnHandle>, _: &asha_core::Error) {}
        fn on_room(&self, _: &Arc<ConnHandle>) {
            for sub in self.subs.lock().unwrap().iter() {
                sub.ring();
            }
        }
        fn on_close(&self, _: &Arc<ConnHandle>) {}
    }

    /// A reactor on a Unix socket whose connections queue four frames.
    struct Rig {
        socket: PathBuf,
        handler: Arc<Capture>,
        opened: mpsc::Receiver<Arc<ConnHandle>>,
        metrics: Arc<ServiceMetrics>,
        shutdown: Arc<AtomicBool>,
        final_drain: Arc<AtomicBool>,
        reactor: ReactorHandle,
    }

    impl Rig {
        fn start(dir: &std::path::Path) -> Rig {
            let metrics = ServiceMetrics::new();
            let socket = dir.join("sock");
            let listener = UnixListener::bind(&socket).unwrap();
            listener.set_nonblocking(true).unwrap();
            let (opened_tx, opened) = mpsc::channel();
            let handler = Arc::new(Capture {
                opened: Mutex::new(opened_tx),
                subs: Mutex::new(Vec::new()),
            });
            let flags = ReactorFlags {
                shutdown: Arc::new(AtomicBool::new(false)),
                final_drain: Arc::new(AtomicBool::new(false)),
            };
            let (shutdown, final_drain) =
                (Arc::clone(&flags.shutdown), Arc::clone(&flags.final_drain));
            let reactor = start_reactor(
                ReactorConfig {
                    max_frame: 1 << 16,
                    high_water: 4,
                    poll_interval: Duration::from_millis(5),
                    grace: Duration::from_millis(50),
                },
                vec![Listener::Unix(listener)],
                Arc::clone(&handler) as Arc<dyn ConnHandler>,
                flags,
                Arc::clone(&metrics),
            )
            .unwrap();
            Rig {
                socket,
                handler,
                opened,
                metrics,
                shutdown,
                final_drain,
                reactor,
            }
        }

        /// Both ends of a new connection: the client's socket and the
        /// reactor's handle.
        fn connect(&self) -> (UnixStream, Arc<ConnHandle>) {
            let peer = UnixStream::connect(&self.socket).unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let conn = self.opened.recv_timeout(Duration::from_secs(20)).unwrap();
            (peer, conn)
        }

        /// A subscription on `conn` that the reactor's drains wake.
        fn sub(&self, sub: u64, conn: &Arc<ConnHandle>) -> Arc<SubState> {
            let state = SubState::new(sub, 0, Arc::clone(conn));
            self.handler.subs.lock().unwrap().push(Arc::clone(&state));
            state
        }

        fn registry(&self) -> Arc<TailerRegistry> {
            TailerRegistry::new(TailerCtx {
                metrics: Arc::clone(&self.metrics),
                shutdown: Arc::new(AtomicBool::new(false)),
                poll_interval: Duration::from_millis(5),
                grace: Duration::from_millis(50),
            })
        }

        fn stop(self) {
            self.shutdown.store(true, Ordering::Release);
            self.final_drain.store(true, Ordering::Release);
            self.reactor.join();
        }
    }

    #[test]
    fn reads_are_windowed_and_lose_nothing() {
        let dir = tmpdir("window");
        let wal_path = dir.join("wal.jsonl");
        write_wal(&wal_path, 40_000);
        let whole = WalTail::new(&wal_path).poll().unwrap();
        assert_eq!(whole.lines.len(), 40_001);

        let mut tail = WalTail::new(&wal_path);
        let (mut lines, mut tags, mut reads) = (Vec::new(), Vec::new(), 0);
        loop {
            let before = tail.offset();
            let chunk = poll_window(&mut tail, u64::MAX).unwrap();
            assert!(tail.offset() - before <= READ_WINDOW);
            if chunk.lines.is_empty() {
                break;
            }
            reads += 1;
            lines.extend(chunk.lines);
            tags.extend(chunk.tags);
        }
        assert!(reads >= 5, "the WAL is many windows long ({reads} reads)");
        assert_eq!(lines, whole.lines);
        assert_eq!(tags, whole.tags);

        // The window never carries a read past the caller's own bound.
        let mut tail = WalTail::new(&wal_path);
        poll_window(&mut tail, 1_000).unwrap();
        assert_eq!(tail.offset(), 1_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A subscriber attaching to a finished WAL many windows long, behind a
    /// 4-frame queue, holds at most one window of records at a time, and
    /// the client still receives every record's frame, in order, with the
    /// bytes `Push::to_frame` would render, then `end`.
    #[test]
    fn catch_up_holds_one_window_of_a_long_wal() {
        let dir = tmpdir("catchup");
        let wal_path = dir.join("wal.jsonl");
        write_wal(&wal_path, 40_000);
        let whole = WalTail::new(&wal_path).poll().unwrap();
        let mut tail = WalTail::new(&wal_path);
        let mut window = 0;
        loop {
            let read = poll_window(&mut tail, u64::MAX).unwrap().lines.len();
            if read == 0 {
                break;
            }
            window = window.max(read);
        }

        let rig = Rig::start(&dir);
        let (mut peer, conn) = rig.connect();
        let tm = rig.metrics.tailer("long");
        let mut follower = Follower::new(SubState::new(9, 0, conn), &wal_path);
        let (mut wire, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
        let mut most_pending = 0;
        while !follower.state.is_closed() {
            let (_, jammed) = follower.turn(false, &rig.metrics, &tm);
            most_pending = most_pending.max(follower.pending.len());
            if jammed {
                // Make room: whatever was refused sits behind frames the
                // reactor is writing, so this read cannot wait for nothing.
                let n = peer.read(&mut buf).unwrap();
                wire.extend_from_slice(&buf[..n]);
            }
        }
        assert!(
            (1..=window).contains(&most_pending),
            "pending peaked at {most_pending} records; a window holds {window}"
        );

        let expected = [frames(9, &whole.lines), frame(Push::End { sub: 9 })].concat();
        while wire.len() < expected.len() {
            let n = peer.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed early");
            wire.extend_from_slice(&buf[..n]);
        }
        assert!(wire == expected, "the stream differs from the WAL");
        assert_eq!(tm.fanout_frames.get(), whole.lines.len() as u64);
        rig.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A turn hands the reactor every frame it queues at once: it rings the
    /// connection's doorbell once whatever the number, and not at all when
    /// it queues none. Over a WAL hundreds of times the 4-frame queue, the
    /// client still receives every record, gap-free and in order, and
    /// `fanout_frames` counts each once.
    #[test]
    fn a_turn_rings_the_reactor_once_for_all_the_frames_it_queues() {
        let dir = tmpdir("ring");
        let wal_path = dir.join("wal.jsonl");
        write_wal(&wal_path, 2_000);
        let lines = WalTail::new(&wal_path).poll().unwrap().lines;

        let rig = Rig::start(&dir);
        let (mut peer, conn) = rig.connect();
        let tm = rig.metrics.tailer("ring");
        let mut follower = Follower::new(SubState::new(3, 0, Arc::clone(&conn)), &wal_path);
        let rings = || conn.rings.load(Ordering::Relaxed);
        let (mut wire, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
        let (mut turns, mut most_queued) = (0, 0);
        while !follower.state.is_closed() {
            let (frames_before, rings_before) = (tm.fanout_frames.get(), rings());
            let (_, jammed) = follower.turn(false, &rig.metrics, &tm);
            let queued = tm.fanout_frames.get() - frames_before;
            // The turn that sends `end` rings once more, for that push.
            let end = u64::from(follower.state.is_closed());
            assert_eq!(
                rings() - rings_before,
                u64::from(queued > 0) + end,
                "turn {turns} queued {queued} frames"
            );
            most_queued = most_queued.max(queued);
            turns += 1;
            if jammed {
                let n = peer.read(&mut buf).unwrap();
                wire.extend_from_slice(&buf[..n]);
            }
        }
        assert!(most_queued >= 4, "a turn filled the queue: {most_queued}");
        assert!(turns > 10, "the queue refused most of the WAL at first");

        let expected = [frames(3, &lines), frame(Push::End { sub: 3 })].concat();
        while wire.len() < expected.len() {
            let n = peer.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed early");
            wire.extend_from_slice(&buf[..n]);
        }
        assert!(wire == expected, "the stream differs from the WAL");
        assert_eq!(tm.fanout_frames.get(), lines.len() as u64);
        rig.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two subscribers on one WAL, one behind a queue nobody drains. The WAL
    /// is rewritten shorter and regrown past the consumed offset, as a live
    /// resume does: each subscriber hears exactly one `rewind`, then the
    /// rewritten file byte for byte, then `end` — and the one that reads
    /// reaches its `end` while the other is still jammed.
    #[test]
    fn a_rewrite_rewinds_each_subscriber_once_and_a_jam_holds_back_nobody() {
        let dir = tmpdir("rewrite");
        let wal_path = dir.join("wal.jsonl");
        let n = 10_000;
        let mut wal = WalWriter::create(&wal_path, Durability::Flush).unwrap();
        for seq in 0..n {
            wal.append(&idle(seq, 1)).unwrap();
        }
        wal.sync().unwrap();
        let old = WalTail::new(&wal_path).poll().unwrap().lines;

        let rig = Rig::start(&dir);
        let registry = rig.registry();
        let (mut stuck_peer, stuck_conn) = rig.connect();
        let (mut peer, conn) = rig.connect();
        let stuck = rig.sub(1, &stuck_conn);
        registry.subscribe(wal_path.clone(), "rw".to_owned(), Arc::clone(&stuck));
        registry.subscribe(wal_path.clone(), "rw".to_owned(), rig.sub(2, &conn));

        // The reading subscriber takes the whole unfinished file first.
        let old_frames = frames(2, &old);
        let (mut wire, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
        while wire.len() < old_frames.len() {
            let read = peer.read(&mut buf).unwrap();
            assert!(read > 0, "connection closed early");
            wire.extend_from_slice(&buf[..read]);
        }
        let consumed = std::fs::metadata(&wal_path).unwrap().len();

        // Rewrite: other bytes from the first record on, shorter, renamed
        // over the WAL; then regrow it, finished, past the old end.
        let tmp = dir.join("wal.tmp");
        let mut wal = WalWriter::create(&tmp, Durability::Flush).unwrap();
        for seq in 0..100 {
            wal.append(&idle(seq, 2)).unwrap();
        }
        wal.sync().unwrap();
        std::fs::rename(&tmp, &wal_path).unwrap();
        for seq in 100..n + 100 {
            wal.append(&idle(seq, 2)).unwrap();
        }
        wal.append(&finished((n + 100) as f64)).unwrap();
        wal.sync().unwrap();
        assert!(std::fs::metadata(&wal_path).unwrap().len() > consumed);
        let new = WalTail::new(&wal_path).poll().unwrap().lines;

        let after = |sub| {
            [
                frame(Push::Rewind { sub }),
                frames(sub, &new),
                frame(Push::End { sub }),
            ]
            .concat()
        };
        wire.extend(read_to_end_of(&mut peer, 2));
        assert!(wire[..old_frames.len()] == old_frames[..]);
        assert!(
            wire[old_frames.len()..] == after(2)[..],
            "the reading subscriber's stream after the old file"
        );
        assert!(
            !stuck.is_closed(),
            "the jammed subscriber still holds frames when the other ends"
        );

        let wire = read_to_end_of(&mut stuck_peer, 1);
        let tail = after(1);
        assert!(wire.ends_with(&tail), "the jammed subscriber's stream ends");
        let head = &wire[..wire.len() - tail.len()];
        let old_frames = frames(1, &old);
        assert!(
            head.len() < old_frames.len() && old_frames.starts_with(head),
            "before its rewind, the jammed subscriber got part of the old file"
        );
        registry.join_all();
        rig.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Statuses posted while a subscriber's queue is full for good replace
    /// one another: once it reads, it is sent the newest, once, between
    /// two of the event frames it was owed.
    #[test]
    fn a_jammed_subscriber_is_sent_only_the_newest_status() {
        let dir = tmpdir("status");
        let wal_path = dir.join("wal.jsonl");
        write_wal(&wal_path, 10_000);
        let lines = WalTail::new(&wal_path).poll().unwrap().lines;
        let rig = Rig::start(&dir);
        let registry = rig.registry();
        let (mut peer, conn) = rig.connect();
        registry.subscribe(wal_path.clone(), "st".to_owned(), rig.sub(1, &conn));

        // Full for good: over a stretch of waits for room, every one ran
        // out its bound, because nobody drains the queue.
        let tm = rig.metrics.tailer("st");
        let mut last = (tm.jam_waits.get(), tm.jam_timeouts.get());
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = (tm.jam_waits.get(), tm.jam_timeouts.get());
            if now.0 >= last.0 + 3 && now.1 - last.1 == now.0 - last.0 {
                break;
            }
            last = now;
        }
        registry.post_status("st", ExperimentStatus::Paused);
        // Two more jammed turns: the tailer has taken the first status from
        // its mailbox, so the second replaces what the subscriber is owed.
        let waits = tm.jam_waits.get();
        while tm.jam_waits.get() < waits + 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        registry.post_status("st", ExperimentStatus::Running);

        let mut wire = read_to_end_of(&mut peer, 1);
        let status = frame(Push::Status {
            sub: 1,
            state: WireStatus {
                name: "st".to_owned(),
                status: ExperimentStatus::Running,
            },
        });
        let at = wire
            .windows(status.len())
            .position(|w| w == status)
            .expect("the newest status was sent");
        assert!(at == 0 || wire[at - 1] == b'\n', "between two frames");
        wire.drain(at..at + status.len());
        let expected = [frames(1, &lines), frame(Push::End { sub: 1 })].concat();
        assert!(
            wire == expected,
            "the rest of the stream is the WAL, then end"
        );
        registry.join_all();
        rig.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Subscribing after the last subscriber left spawns a new tailer; the
    /// one that exited is joined then, not kept until shutdown.
    #[test]
    fn exited_tailers_are_joined_when_the_next_one_spawns() {
        let dir = tmpdir("reap");
        let wal_path = dir.join("wal.jsonl");
        write_wal(&wal_path, 10);
        let rig = Rig::start(&dir);
        let registry = rig.registry();
        let (mut peer, conn) = rig.connect();
        for sub in 1..=50 {
            registry.subscribe(wal_path.clone(), "reap".to_owned(), rig.sub(sub, &conn));
            read_to_end_of(&mut peer, sub);
            // The tailer exits once its only subscriber has its `end`.
            while !registry
                .threads
                .lock()
                .unwrap()
                .iter()
                .all(JoinHandle::is_finished)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let kept = registry.threads.lock().unwrap().len();
        assert!(kept <= 1, "{kept} tailer handles kept after 50 tailers ran");
        registry.join_all();
        rig.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
}
