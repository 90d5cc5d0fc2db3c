//! Per-experiment WAL tailers: one reader thread per experiment fanning
//! frames out to every subscriber of that experiment.
//!
//! The previous design spawned one tailer thread *per subscription*, so N
//! subscribers of one experiment meant N threads each reading the same WAL
//! from disk. Here a [`TailerRegistry`] keys tailers by WAL path: the
//! first subscription spawns the experiment's tailer, later ones attach to
//! it, and the thread exits when its last subscriber closes.
//!
//! One thread reads each WAL record **once** into a shared backlog; each
//! subscriber owns a cursor into it. The [`WalTail`] renders every
//! `binary-v2` record as its JSON line — the event frame subscribers
//! receive — and tags each line with the two things routing needs (its
//! `seq`, whether it is the finished marker), so no line is parsed back
//! here. The record body is serialized once — per-subscriber frames
//! only wrap it in the cheap push envelope
//! (`{"v":1,"sub":K,"push":"event","data":<body>}`), never re-rendering
//! the payload. The backlog is filled on demand, one [`READ_WINDOW`] at a
//! time, when a Live subscriber has used it up: a subscriber that keeps up
//! with the file is fed from one decode of it, however long it is.
//!
//! # Subscriber phases
//!
//! ```text
//! CatchUp ──(private tail reaches the shared cursor)──▶ Live
//!    ▲                                                   │
//!    └──(falls > backlog cap behind: demoted)────────────┘
//! Live ──(experiment finished / daemon draining)──▶ EndOwed ──▶ Done
//! ```
//!
//! A new subscriber starts in **CatchUp**: a private [`WalTail`] replays
//! the WAL from the start, a window at a time, bounded by the shared
//! tailer's offset so it can never overshoot (nothing at all, for the first
//! subscriber of a fresh tailer), then the subscriber is promoted to
//! **Live** at the backlog's write edge. Live subscribers consume the
//! shared backlog; one that falls further behind than the backlog cap is
//! demoted back to CatchUp (skipping the records it already delivered) so
//! the backlog stays bounded no matter how slow a client reads.
//!
//! # Backpressure tiers (unchanged semantics)
//!
//! * **WAL event frames** are file-backed and never dropped: a full
//!   connection queue makes the tailer hold the subscriber's cursor until
//!   it is woken on room — a gap-free stream at whatever pace the client
//!   reads.
//! * **Status pushes** (delivered by supervisor threads, not here) are
//!   lossy with lag accounting; an owed `lag` notice is flushed before the
//!   next frame that fits.
//! * **Stream-control pushes** (`rewind`, `end`) must arrive: they are
//!   owed per-subscriber and retried every tick, without ever blocking the
//!   tailer on one slow client.
//!
//! # Waiting
//!
//! A tailer thread never sleeps blind. With a subscriber's queue full it
//! waits on its [`Doorbell`], which the reactor rings the moment a drain
//! makes room in that queue (see the starved bit in `reactor/outbuf.rs`);
//! with nothing to read and nothing to deliver it waits on the same bell,
//! which a new subscriber or a closing one rings. [`JAM_PAUSE`] and the
//! poll interval stay as the waits' upper bounds: the file itself rings
//! nothing, one stuck client may hold the others back no longer than the
//! first, and a ring that somehow never came costs what every jam used to.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asha_metrics::push_json_u64;
use asha_store::{LineTag, WalChunk, WalTail};

use crate::codec::encode_frame;
use crate::metrics::{ServiceMetrics, TailerMetrics};
use crate::proto::Push;
use crate::reactor::{ConnHandle, Offer};

/// Shared backlog records kept per tailer before slow Live subscribers are
/// demoted to CatchUp.
const BACKLOG_CAP: usize = 4096;
/// Longest wait for room while a subscriber's connection queue is full.
const JAM_PAUSE: Duration = Duration::from_millis(2);
/// WAL bytes one read may take in, so what a tail materialises as lines is
/// bounded whatever the length of the WAL behind it (about half the
/// backlog cap in records at this repo's record sizes).
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

/// One live subscription, shared between the experiment's tailer, the
/// status-watcher registry, and the owning connection.
pub(crate) struct SubState {
    pub(crate) sub: u64,
    /// Telemetry records with `seq < from_seq` are filtered out; store
    /// markers without a `seq` always flow.
    pub(crate) from_seq: u64,
    conn: Arc<ConnHandle>,
    /// Push frames dropped since the last delivered one; reported to the
    /// subscriber as a `lag` push as soon as a frame fits again.
    dropped: AtomicU64,
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
            dropped: AtomicU64::new(0),
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

    /// Book what the connection answered to an offer.
    fn account(&self, metrics: &ServiceMetrics, offer: Offer) -> Offer {
        match offer {
            Offer::Sent => metrics.event_sent(),
            Offer::Full => {}
            Offer::Closed => self.mark_closed(metrics),
        }
        offer
    }

    fn try_line(&self, metrics: &ServiceMetrics, line: String) -> Offer {
        self.account(metrics, self.conn.offer_frame(line))
    }

    /// Flush any owed `lag` notice; it must precede the next delivered
    /// frame so the gap's position in the stream is unambiguous.
    fn flush_owed(&self, metrics: &ServiceMetrics) -> Offer {
        let owed = self.dropped.load(Ordering::Acquire);
        if owed == 0 {
            return Offer::Sent;
        }
        let lag = Push::Lag {
            sub: self.sub,
            dropped: owed,
        };
        let offer = self.try_line(metrics, encode_frame(&lag.to_frame()));
        if offer == Offer::Sent {
            self.dropped.fetch_sub(owed, Ordering::AcqRel);
        }
        offer
    }

    /// What stands between this subscription and its next frame, if
    /// anything: it is closed, or an owed `lag` notice did not fit.
    fn ready(&self, metrics: &ServiceMetrics) -> Offer {
        if self.is_closed() {
            return Offer::Closed;
        }
        self.flush_owed(metrics)
    }

    /// Offer a push without blocking or dropping: on a full queue the
    /// caller keeps it and retries later.
    fn offer_push(&self, metrics: &ServiceMetrics, push: &Push) -> Offer {
        match self.ready(metrics) {
            Offer::Sent => self.try_line(metrics, encode_frame(&push.to_frame())),
            other => other,
        }
    }

    /// Offer one WAL record's rendered line as an event frame; on a full
    /// queue the caller holds its cursor. The body is wrapped in the push
    /// envelope by hand — field order as [`Push::to_frame`] renders it, so
    /// the wire bytes are the same — and is never re-rendered itself.
    fn offer_event(&self, metrics: &ServiceMetrics, body: &str) -> Offer {
        match self.ready(metrics) {
            Offer::Sent => {
                const HEAD: &str = "{\"v\":1,\"sub\":";
                const MID: &str = ",\"push\":\"event\",\"data\":";
                // 20 digits of `sub` at most, and the closing `}\n`.
                let mut line = String::with_capacity(HEAD.len() + 20 + MID.len() + body.len() + 2);
                line.push_str(HEAD);
                push_json_u64(&mut line, self.sub);
                line.push_str(MID);
                line.push_str(body);
                line.push_str("}\n");
                self.account(metrics, self.conn.offer_stream_frame(line))
            }
            other => other,
        }
    }

    /// Deliver a push that may be dropped under backpressure, with lag
    /// accounting. Status pushes use this: they fire on supervisor /
    /// worker threads, which must never wait on a slow subscriber.
    pub(crate) fn push_lossy(&self, metrics: &ServiceMetrics, push: &Push) {
        match self.offer_push(metrics, push) {
            Offer::Sent | Offer::Closed => {}
            Offer::Full => {
                self.dropped.fetch_add(1, Ordering::AcqRel);
                metrics.event_lagged();
            }
        }
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

/// One WAL record in the shared backlog.
struct Rec {
    /// Telemetry sequence number and finished marker, as the tail read
    /// them off the record.
    tag: LineTag,
    /// The rendered line — the shared serialized body.
    body: String,
}

/// The chunk's records, each line with its tag.
fn recs(chunk: WalChunk) -> impl Iterator<Item = Rec> {
    chunk
        .lines
        .into_iter()
        .zip(chunk.tags)
        .map(|(body, tag)| Rec { tag, body })
}

/// Read on from the tail's offset, at most [`READ_WINDOW`] bytes and never
/// past `limit`. (A rewind restarts at byte 0 inside the poll, so that one
/// read may take in as much as the tail had already consumed.)
fn poll_window(tail: &mut WalTail, limit: u64) -> std::io::Result<WalChunk> {
    tail.poll_to(limit.min(tail.offset().saturating_add(READ_WINDOW)))
}

/// Where one subscriber is in the stream.
enum Phase {
    /// Replaying the WAL through a private tail, bounded by the shared
    /// tailer's offset. `skip` counts already-delivered records (used when
    /// a Live subscriber is demoted); `pending` holds records read but not
    /// yet accepted by the connection queue.
    CatchUp {
        tail: WalTail,
        skip: u64,
        pending: VecDeque<Rec>,
    },
    /// Consuming the shared backlog; `next` is an absolute record index
    /// (records since the last rewind).
    Live { next: u64 },
    /// Everything delivered; the `end` push is owed.
    EndOwed,
    /// Closed; the tailer forgets the subscriber.
    Done,
}

struct SubEntry {
    state: Arc<SubState>,
    phase: Phase,
    /// Stream-control pushes (`rewind`) owed before any further data.
    owed: VecDeque<Push>,
}

impl SubEntry {
    fn new(state: Arc<SubState>, wal_path: &PathBuf) -> SubEntry {
        SubEntry {
            state,
            phase: Phase::CatchUp {
                tail: WalTail::new(wal_path),
                skip: 0,
                pending: VecDeque::new(),
            },
            owed: VecDeque::new(),
        }
    }
}

/// What the registry shares with one tailer thread.
#[derive(Default)]
struct Slot {
    /// Subscribers queued for the tailer to pick up on its next tick.
    adds: Mutex<Vec<Arc<SubState>>>,
    bell: Arc<Doorbell>,
}

/// Experiment tailers keyed by WAL path: first subscriber spawns, later
/// ones attach, last one out ends the thread.
pub(crate) struct TailerRegistry {
    ctx: Arc<TailerCtx>,
    /// WAL path → the slot of the tailer thread following it.
    slots: Mutex<HashMap<PathBuf, Arc<Slot>>>,
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
        let running = slots.get(&wal_path).cloned();
        let spawn = running.is_none();
        let slot = running.unwrap_or_default();
        let _ = state.bell.set(Arc::clone(&slot.bell));
        slot.adds
            .lock()
            .expect("tailer mailbox poisoned")
            .push(state);
        if !spawn {
            // A waiting tailer attaches the newcomer at once.
            slot.bell.ring();
            return;
        }
        slots.insert(wal_path.clone(), Arc::clone(&slot));
        let registry = Arc::clone(self);
        let ctx = Arc::clone(&self.ctx);
        let handle = std::thread::Builder::new()
            .name("asha-serve-tailer".to_owned())
            .spawn(move || tailer_main(wal_path, experiment, slot, registry, ctx))
            .expect("spawning tailer thread");
        self.threads.lock().unwrap().push(handle);
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
    // keeps adding to them); gauges are zeroed on every exit path.
    let tm = ctx.metrics.tailer(&experiment);
    let mut tail = WalTail::new(&wal_path);
    // Shared backlog of records; `base` is the absolute index of the front.
    let mut backlog: VecDeque<Rec> = VecDeque::new();
    let mut base: u64 = 0;
    let mut finished = false;
    let mut subs: Vec<SubEntry> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Attach newly-arrived subscribers.
        {
            let mut mailbox = slot.adds.lock().unwrap();
            for state in mailbox.drain(..) {
                subs.push(SubEntry::new(state, &wal_path));
            }
        }

        let shutting_down = ctx.shutdown.load(Ordering::Acquire);
        let mut read_any = false;

        // Read new WAL records once, into the shared backlog — but only
        // when a Live subscriber has used the backlog up. Reading ahead of
        // every subscriber decodes records nobody takes from here: those
        // catching up read the file themselves, and a backlog grown past
        // its cap sends the Live ones back to do the same. A subscriber
        // that keeps up is thus never held back by one that does not.
        // The poll itself happens every turn, bounded to the tail's own
        // offset when nothing is wanted, even after the finished marker:
        // a restarted experiment rewrites the WAL, and only the tail's
        // rewind detection can tell still-attached subscribers about it.
        if !shutting_down {
            let edge = base + backlog.len() as u64;
            let wanted = subs
                .iter()
                .any(|e| matches!(e.phase, Phase::Live { next } if next >= edge));
            let limit = if wanted { u64::MAX } else { tail.offset() };
            if let Ok(chunk) = poll_window(&mut tail, limit) {
                if chunk.rewound {
                    // Crash recovery rewrote the WAL shorter: restart the
                    // stream; everything derived is stale.
                    backlog.clear();
                    base = 0;
                    finished = false;
                    for entry in &mut subs {
                        if !matches!(entry.phase, Phase::Done) {
                            entry.owed.push_back(Push::Rewind {
                                sub: entry.state.sub,
                            });
                            entry.phase = Phase::CatchUp {
                                tail: WalTail::new(&wal_path),
                                skip: 0,
                                pending: VecDeque::new(),
                            };
                        }
                    }
                }
                for rec in recs(chunk) {
                    read_any = true;
                    finished |= rec.tag.finished;
                    backlog.push_back(rec);
                }
            }
        }
        let end_abs = base + backlog.len() as u64;

        // Advance every subscriber's state machine without blocking.
        let mut progressed = false;
        let mut jammed = false;
        for entry in &mut subs {
            let (p, j) = advance(
                entry,
                &backlog,
                base,
                end_abs,
                finished,
                shutting_down,
                tail.offset(),
                &ctx.metrics,
                &tm,
            );
            progressed |= p;
            jammed |= j;
        }
        subs.retain(|e| !matches!(e.phase, Phase::Done));
        tm.subscribers.set(subs.len() as i64);

        // Trim the backlog to the slowest Live cursor; demote subscribers
        // that fall further behind than the cap so it stays bounded.
        let min_live = subs
            .iter()
            .filter_map(|e| match e.phase {
                Phase::Live { next } => Some(next),
                _ => None,
            })
            .min()
            .unwrap_or(end_abs);
        // Backlog records the slowest Live subscriber has yet to consume.
        tm.lag_records.set((end_abs - min_live.min(end_abs)) as i64);
        if backlog.len() > BACKLOG_CAP {
            let floor = end_abs - BACKLOG_CAP as u64;
            for entry in &mut subs {
                if let Phase::Live { next } = entry.phase {
                    if next < floor {
                        tm.window_evictions.inc();
                        entry.phase = Phase::CatchUp {
                            tail: WalTail::new(&wal_path),
                            skip: next,
                            pending: VecDeque::new(),
                        };
                    }
                }
            }
        }
        let new_base = min_live.min(end_abs).max(base);
        let over_cap = (backlog.len() as u64).saturating_sub(BACKLOG_CAP as u64);
        let new_base = new_base.max(base + over_cap).min(end_abs);
        while base < new_base {
            backlog.pop_front();
            base += 1;
        }

        if subs.is_empty() {
            // Last subscriber left: remove our slot unless someone attached
            // in the meantime (checked under the registry lock so a racing
            // subscribe either lands in our mailbox or spawns a new tailer
            // after removal).
            let mut slots = registry.slots.lock().unwrap();
            if slot.adds.lock().unwrap().is_empty() {
                slots.remove(&wal_path);
                tm.subscribers.set(0);
                tm.lag_records.set(0);
                return;
            }
            continue;
        }

        if shutting_down {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + ctx.grace);
            if Instant::now() >= deadline {
                for entry in &subs {
                    entry.state.mark_closed(&ctx.metrics);
                }
                let mut slots = registry.slots.lock().unwrap();
                slots.remove(&wal_path);
                tm.subscribers.set(0);
                tm.lag_records.set(0);
                return;
            }
        }

        if jammed {
            tm.jam_waits.inc();
            if !slot.bell.wait(JAM_PAUSE) {
                tm.jam_timeouts.inc();
            }
        } else if !read_any && !progressed {
            slot.bell.wait(ctx.poll_interval);
        }
    }
}

/// Advance one subscriber; returns (made progress, hit a full queue).
#[allow(clippy::too_many_arguments)]
fn advance(
    entry: &mut SubEntry,
    backlog: &VecDeque<Rec>,
    base: u64,
    end_abs: u64,
    finished: bool,
    shutting_down: bool,
    main_offset: u64,
    metrics: &Arc<ServiceMetrics>,
    tm: &TailerMetrics,
) -> (bool, bool) {
    let stats = &**metrics;
    let state = Arc::clone(&entry.state);
    if state.is_closed() {
        entry.phase = Phase::Done;
        return (false, false);
    }
    let mut progressed = false;

    // Owed stream-control pushes go out before any further data.
    while let Some(push) = entry.owed.front() {
        match state.offer_push(stats, push) {
            Offer::Sent => {
                entry.owed.pop_front();
                progressed = true;
            }
            Offer::Full => return (progressed, true),
            Offer::Closed => {
                entry.phase = Phase::Done;
                return (progressed, false);
            }
        }
    }

    loop {
        match &mut entry.phase {
            Phase::CatchUp {
                tail,
                skip,
                pending,
            } => {
                // Deliver what the last poll read before reading more.
                while let Some(rec) = pending.front() {
                    if let Some(seq) = rec.tag.seq {
                        if seq < state.from_seq {
                            pending.pop_front();
                            continue;
                        }
                    }
                    match state.offer_event(stats, &rec.body) {
                        Offer::Sent => {
                            tm.fanout_frames.inc();
                            pending.pop_front();
                            progressed = true;
                        }
                        Offer::Full => return (progressed, true),
                        Offer::Closed => {
                            entry.phase = Phase::Done;
                            return (progressed, false);
                        }
                    }
                }
                if tail.offset() >= main_offset {
                    // Caught up to the shared cursor: promote to Live at
                    // the backlog's write edge.
                    entry.phase = Phase::Live { next: end_abs };
                    progressed = true;
                    continue;
                }
                // Read more of the replay, never past the shared cursor so
                // promotion can't skip records.
                match poll_window(tail, main_offset) {
                    Ok(chunk) => {
                        if chunk.rewound {
                            // The file shrank under the private tail; the
                            // shared tailer will rewind everyone on its next
                            // poll — restart this replay from the top now.
                            entry.owed.push_back(Push::Rewind { sub: state.sub });
                            *skip = 0;
                            pending.clear();
                        }
                        let (rewound, was_empty) = (chunk.rewound, chunk.lines.is_empty());
                        for rec in recs(chunk) {
                            if *skip > 0 {
                                *skip -= 1;
                                continue;
                            }
                            pending.push_back(rec);
                        }
                        if rewound {
                            // The chunk's lines are the new file's start;
                            // they are stashed above, but the owed rewind
                            // push (checked at the top of the next advance)
                            // must reach the subscriber before them.
                            return (true, false);
                        }
                        if was_empty {
                            return (progressed, false);
                        }
                    }
                    Err(_) => return (progressed, false),
                }
            }
            Phase::Live { next } => {
                while *next < end_abs {
                    let rec = &backlog[(*next - base) as usize];
                    if let Some(seq) = rec.tag.seq {
                        if seq < state.from_seq {
                            *next += 1;
                            continue;
                        }
                    }
                    match state.offer_event(stats, &rec.body) {
                        Offer::Sent => {
                            tm.fanout_frames.inc();
                            *next += 1;
                            progressed = true;
                        }
                        Offer::Full => return (progressed, true),
                        Offer::Closed => {
                            entry.phase = Phase::Done;
                            return (progressed, false);
                        }
                    }
                }
                if finished || shutting_down {
                    entry.phase = Phase::EndOwed;
                    progressed = true;
                    continue;
                }
                return (progressed, false);
            }
            Phase::EndOwed => {
                let end = Push::End { sub: state.sub };
                return match state.offer_push(stats, &end) {
                    Offer::Sent => {
                        state.mark_closed(stats);
                        entry.phase = Phase::Done;
                        (true, false)
                    }
                    Offer::Full => (progressed, true),
                    Offer::Closed => {
                        entry.phase = Phase::Done;
                        (progressed, false)
                    }
                };
            }
            Phase::Done => return (progressed, false),
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::mpsc;

    use asha_core::telemetry::{Event, EventKind};
    use asha_metrics::JsonValue;
    use asha_store::{Durability, StoreEvent, WalRecord, WalWriter};

    use crate::reactor::{start_reactor, ConnHandler, Listener, ReactorConfig, ReactorFlags};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asha-tailer-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A finished `binary-v2` WAL of `n` telemetry records.
    fn write_wal(path: &std::path::Path, n: u64) {
        let mut wal = WalWriter::create(path, Durability::Flush).unwrap();
        for seq in 0..n {
            wal.append(&WalRecord::telemetry(Event {
                seq,
                time: seq as f64,
                kind: EventKind::WorkerIdle { idle: 1 },
            }))
            .unwrap();
        }
        wal.append(&WalRecord::Meta {
            time: n as f64,
            event: StoreEvent::ExperimentFinished,
        })
        .unwrap();
        wal.sync().unwrap();
    }

    /// Hands the test the reactor's handle of each accepted connection.
    struct Capture(Mutex<mpsc::Sender<Arc<ConnHandle>>>);

    impl ConnHandler for Capture {
        fn on_open(&self, conn: &Arc<ConnHandle>) {
            self.0.lock().unwrap().send(Arc::clone(conn)).unwrap();
        }
        fn on_frame(&self, _: &Arc<ConnHandle>, _: JsonValue) {}
        fn on_decode_error(&self, _: &Arc<ConnHandle>, _: &asha_core::Error) -> bool {
            false
        }
        fn on_close(&self, _: &Arc<ConnHandle>) {}
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
    /// 4-frame queue: catch-up holds one window of records at a time, and
    /// the client still receives every record's frame, in order, with the
    /// bytes `Push::to_frame` would render.
    #[test]
    fn catch_up_holds_one_window_of_a_long_wal() {
        let dir = tmpdir("catchup");
        let wal_path = dir.join("wal.jsonl");
        write_wal(&wal_path, 40_000);
        let whole = WalTail::new(&wal_path).poll().unwrap();
        let wal_len = std::fs::metadata(&wal_path).unwrap().len();

        let metrics = ServiceMetrics::new();
        let socket = dir.join("sock");
        let listener = UnixListener::bind(&socket).unwrap();
        listener.set_nonblocking(true).unwrap();
        let (opened_tx, opened) = mpsc::channel();
        let flags = ReactorFlags {
            shutdown: Arc::new(AtomicBool::new(false)),
            final_drain: Arc::new(AtomicBool::new(false)),
        };
        let (shutdown, final_drain) = (Arc::clone(&flags.shutdown), Arc::clone(&flags.final_drain));
        let reactor = start_reactor(
            ReactorConfig {
                max_frame: 1 << 16,
                high_water: 4,
                poll_interval: Duration::from_millis(5),
                grace: Duration::from_millis(50),
            },
            vec![Listener::Unix(listener)],
            Arc::new(Capture(Mutex::new(opened_tx))),
            flags,
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut peer = UnixStream::connect(&socket).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let conn = opened.recv_timeout(Duration::from_secs(20)).unwrap();

        let tm = metrics.tailer("long");
        let mut entry = SubEntry::new(SubState::new(9, 0, conn), &wal_path);
        let backlog = VecDeque::new();
        let mut wire = Vec::new();
        let mut buf = vec![0u8; 16 * 1024];
        let mut most_pending = 0;
        loop {
            let (_, jammed) = advance(
                &mut entry, &backlog, 0, 0, false, false, wal_len, &metrics, &tm,
            );
            match &entry.phase {
                Phase::CatchUp { pending, .. } => most_pending = most_pending.max(pending.len()),
                Phase::Live { .. } => break,
                _ => panic!("catch-up ends in Live"),
            }
            assert!(
                jammed,
                "a turn that does not finish catch-up hit a full queue"
            );
            // Make room: whatever was refused sits behind frames the
            // reactor is writing, so this read cannot wait for nothing.
            let n = peer.read(&mut buf).unwrap();
            wire.extend_from_slice(&buf[..n]);
        }
        assert!(
            (1..=whole.lines.len() / 4).contains(&most_pending),
            "pending peaked at {most_pending} of {} records",
            whole.lines.len()
        );

        let expected: Vec<u8> = whole
            .lines
            .iter()
            .flat_map(|line| {
                let push = Push::Event {
                    sub: 9,
                    data: JsonValue::parse(line).unwrap(),
                };
                encode_frame(&push.to_frame()).into_bytes()
            })
            .collect();
        while wire.len() < expected.len() {
            let n = peer.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed early");
            wire.extend_from_slice(&buf[..n]);
        }
        assert!(wire == expected, "the stream differs from the WAL");
        assert_eq!(tm.fanout_frames.get(), whole.lines.len() as u64);

        shutdown.store(true, Ordering::Release);
        final_drain.store(true, Ordering::Release);
        reactor.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}
