//! A multi-experiment supervisor: many named durable experiments in one
//! process, each on its own worker thread, with independent pause / resume /
//! abort and a crash-safe manifest.
//!
//! On-disk layout under the supervisor's root:
//!
//! ```text
//! <root>/manifest.json      crash-safe registry: name + status per experiment
//! <root>/<name>/            one experiment store (see [`crate::experiment`])
//! ```
//!
//! The manifest is advisory metadata — each experiment directory is
//! self-contained and recoverable on its own — so a crash between a status
//! change and the manifest rewrite loses nothing: reopening the supervisor
//! downgrades any `running` entry to `interrupted`, and resuming it goes
//! through the same WAL/snapshot recovery as any other restart.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use asha_metrics::JsonValue;
use asha_sim::SimResult;

use crate::binary::{from_tree, Reader};
use crate::experiment::{read_meta, DurableRun, ExperimentMeta, RunOptions};
use crate::snapshot::write_atomic;
use asha_core::Error;

/// Schema tag written into every `manifest.json`.
pub const MANIFEST_SCHEMA: &str = "asha-store-manifest-v1";
/// File name of the supervisor manifest.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Lifecycle state of one supervised experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentStatus {
    /// Directory initialized, never started.
    Created,
    /// A worker thread is driving the run.
    Running,
    /// Paused at a durable snapshot; resumable in-process or after restart.
    Paused,
    /// Ran to completion.
    Finished,
    /// Deliberately stopped before completion (still resumable from disk).
    Aborted,
    /// Was `running` when the supervising process died; resumable via
    /// crash recovery.
    Interrupted,
}

impl ExperimentStatus {
    /// Stable lowercase name used in the manifest.
    pub fn as_str(self) -> &'static str {
        match self {
            ExperimentStatus::Created => "created",
            ExperimentStatus::Running => "running",
            ExperimentStatus::Paused => "paused",
            ExperimentStatus::Finished => "finished",
            ExperimentStatus::Aborted => "aborted",
            ExperimentStatus::Interrupted => "interrupted",
        }
    }

    /// Parse a manifest status name.
    pub fn parse(s: &str) -> Result<Self, Error> {
        Ok(match s {
            "created" => ExperimentStatus::Created,
            "running" => ExperimentStatus::Running,
            "paused" => ExperimentStatus::Paused,
            "finished" => ExperimentStatus::Finished,
            "aborted" => ExperimentStatus::Aborted,
            "interrupted" => ExperimentStatus::Interrupted,
            other => return Err(Error::codec(format!("unknown experiment status {other:?}"))),
        })
    }
}

/// One manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The experiment's name (also its directory name under the root).
    pub name: String,
    /// Last durably recorded status.
    pub status: ExperimentStatus,
}

/// Commands a worker thread obeys at its next step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Pause,
    Abort,
}

/// Shared control cell between the supervisor and one worker thread.
#[derive(Debug)]
struct Control {
    command: Mutex<Command>,
    signal: Condvar,
}

impl Control {
    fn new() -> Arc<Self> {
        Arc::new(Control {
            command: Mutex::new(Command::Run),
            signal: Condvar::new(),
        })
    }

    fn set(&self, cmd: Command) {
        *self.command.lock().unwrap() = cmd;
        self.signal.notify_all();
    }

    fn current(&self) -> Command {
        *self.command.lock().unwrap()
    }

    /// Block until the command is no longer `Pause`; returns the new one.
    fn wait_while_paused(&self) -> Command {
        let mut guard = self.command.lock().unwrap();
        while *guard == Command::Pause {
            guard = self.signal.wait(guard).unwrap();
        }
        *guard
    }
}

/// The outcome a worker thread reports: the run's result, or `None` when it
/// was aborted before finishing.
type WorkerOutcome = Result<Option<SimResult>, Error>;

struct Worker {
    control: Arc<Control>,
    thread: JoinHandle<WorkerOutcome>,
}

/// A callback the supervisor invokes after every durable status change
/// (create, start, pause, resume, abort, finish, reap). The service layer
/// hangs live status subscriptions off this hook; it is called *after* the
/// manifest rewrite, so observers never see a status the disk does not.
pub(crate) type StatusListener = Arc<dyn Fn(&str, ExperimentStatus) + Send + Sync>;

/// Manages many named durable experiments under one root directory.
///
/// Each started experiment runs on its own thread stepping a
/// [`DurableRun`]; the supervisor can pause, resume, or abort any of them
/// independently while the others keep running. All state transitions are
/// recorded in the crash-safe manifest, and every experiment directory
/// remains independently recoverable.
pub struct ExperimentSupervisor {
    root: PathBuf,
    entries: Vec<ManifestEntry>,
    workers: HashMap<String, Worker>,
    listener: Option<StatusListener>,
    metrics: Option<Arc<crate::StoreMetrics>>,
}

impl std::fmt::Debug for ExperimentSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSupervisor")
            .field("root", &self.root)
            .field("entries", &self.entries)
            .field("active_workers", &self.workers.len())
            .finish()
    }
}

impl ExperimentSupervisor {
    /// Open (creating if needed) a supervisor root. Any experiment the
    /// manifest still marks `running` was interrupted by a crash and is
    /// downgraded to [`ExperimentStatus::Interrupted`]. Every listed
    /// experiment written before the redesign is converted to `binary-v2`
    /// in place ([`crate::upgrade::store`]); one it cannot read fails the
    /// open, naming the file.
    pub fn open(root: &Path) -> Result<Self, Error> {
        std::fs::create_dir_all(root).map_err(|e| Error::io(root, e))?;
        let manifest_path = root.join(MANIFEST_FILE);
        let mut entries = if manifest_path.exists() {
            read_manifest(&manifest_path)?
        } else {
            Vec::new()
        };
        let mut interrupted = false;
        for entry in &mut entries {
            crate::upgrade::store(&root.join(&entry.name))?;
            if entry.status == ExperimentStatus::Running {
                entry.status = ExperimentStatus::Interrupted;
                interrupted = true;
            }
        }
        let sup = ExperimentSupervisor {
            root: root.to_owned(),
            entries,
            workers: HashMap::new(),
            listener: None,
            metrics: None,
        };
        if interrupted {
            sup.write_manifest()?;
        }
        Ok(sup)
    }

    /// Install a `StatusListener` notified after every durable status
    /// change. Replaces any previous listener.
    pub fn set_status_listener(&mut self, listener: StatusListener) {
        self.listener = Some(listener);
    }

    /// Attach durability-plane histograms ([`crate::StoreMetrics`]): every
    /// run this supervisor creates or starts records its WAL append/fsync
    /// and snapshot-write latency into the shared cells. Replaces any
    /// previous handle; workers already running keep the one they started
    /// with.
    pub fn set_metrics(&mut self, metrics: Arc<crate::StoreMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Join any worker threads that have finished on their own, recording
    /// their terminal status. Non-blocking: running workers are untouched.
    /// Returns `(name, status)` for each reaped experiment.
    ///
    /// The blocking [`ExperimentSupervisor::join`] needs the caller to know
    /// which experiment to wait on; a daemon serving many clients instead
    /// polls this from a housekeeping loop.
    pub fn reap_finished(&mut self) -> Result<Vec<(String, ExperimentStatus)>, Error> {
        let done: Vec<String> = self
            .workers
            .iter()
            .filter(|(_, w)| w.thread.is_finished())
            .map(|(name, _)| name.clone())
            .collect();
        let mut reaped = Vec::with_capacity(done.len());
        for name in done {
            let worker = self.workers.remove(&name).expect("listed above");
            let outcome = worker
                .thread
                .join()
                .map_err(|_| Error::invalid(format!("worker thread for {name:?} panicked")))?;
            let status = match outcome? {
                Some(_) => ExperimentStatus::Finished,
                None => ExperimentStatus::Aborted,
            };
            self.set_status(&name, status)?;
            reaped.push((name, status));
        }
        Ok(reaped)
    }

    /// The directory of the named experiment.
    pub fn experiment_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Current manifest rows.
    pub fn experiments(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Status of one experiment, if it exists.
    pub fn status(&self, name: &str) -> Option<ExperimentStatus> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.status)
    }

    /// Initialize a new experiment directory (meta, WAL, snapshot 0) and
    /// register it in the manifest. Does not start it.
    pub fn create(&mut self, meta: &ExperimentMeta, opts: RunOptions) -> Result<(), Error> {
        if self.entries.iter().any(|e| e.name == meta.name) {
            return Err(Error::invalid(format!(
                "experiment {:?} already exists",
                meta.name
            )));
        }
        let dir = self.experiment_dir(&meta.name);
        let bench = meta
            .bench
            .build()
            .map_err(|e| e.context(format!("benchmark for {:?}", meta.name)))?;
        // Creating and immediately dropping the run leaves a fully
        // recoverable directory: meta.json, WAL with the created event, and
        // snapshot 0 of the pristine state.
        let mut run = DurableRun::create(&dir, meta, &bench, opts)?;
        if let Some(m) = &self.metrics {
            run.set_metrics(Arc::clone(m));
        }
        drop(run);
        self.entries.push(ManifestEntry {
            name: meta.name.clone(),
            status: ExperimentStatus::Created,
        });
        self.write_manifest()?;
        if let Some(listener) = &self.listener {
            listener(&meta.name, ExperimentStatus::Created);
        }
        Ok(())
    }

    /// Start (or restart after a pause/abort/crash) the named experiment on
    /// a worker thread. The thread recovers from the experiment directory,
    /// so this is the same code path for a fresh start and a post-crash
    /// resume.
    pub fn start(&mut self, name: &str, opts: RunOptions) -> Result<(), Error> {
        if self.workers.contains_key(name) {
            return Err(Error::invalid(format!(
                "experiment {name:?} is already running"
            )));
        }
        self.set_status(name, ExperimentStatus::Running)?;
        let dir = self.experiment_dir(name);
        let control = Control::new();
        let thread_control = Arc::clone(&control);
        let metrics = self.metrics.clone();
        let thread = std::thread::spawn(move || worker_main(dir, opts, thread_control, metrics));
        self.workers
            .insert(name.to_owned(), Worker { control, thread });
        Ok(())
    }

    /// Ask the named experiment to pause at its next step boundary. The
    /// worker persists a snapshot and a `paused` WAL marker, then idles.
    pub fn pause(&mut self, name: &str) -> Result<(), Error> {
        let worker = self
            .workers
            .get(name)
            .ok_or_else(|| Error::missing(format!("running worker for experiment {name:?}")))?;
        worker.control.set(Command::Pause);
        self.set_status(name, ExperimentStatus::Paused)
    }

    /// Resume a paused experiment in place (the worker thread wakes and
    /// continues; no recovery needed).
    pub fn resume(&mut self, name: &str) -> Result<(), Error> {
        let worker = self
            .workers
            .get(name)
            .ok_or_else(|| Error::missing(format!("running worker for experiment {name:?}")))?;
        worker.control.set(Command::Run);
        self.set_status(name, ExperimentStatus::Running)
    }

    /// Abort the named experiment: the worker snapshots and exits at its
    /// next step boundary. The directory remains resumable via
    /// [`ExperimentSupervisor::start`].
    pub fn abort(&mut self, name: &str) -> Result<(), Error> {
        let worker = self
            .workers
            .remove(name)
            .ok_or_else(|| Error::missing(format!("running worker for experiment {name:?}")))?;
        worker.control.set(Command::Abort);
        let outcome = worker
            .thread
            .join()
            .map_err(|_| Error::invalid(format!("worker thread for {name:?} panicked")))?;
        outcome?;
        self.set_status(name, ExperimentStatus::Aborted)
    }

    /// Wait for the named experiment's worker to finish and return its
    /// result (`None` if it was aborted before completing).
    pub fn join(&mut self, name: &str) -> Result<Option<SimResult>, Error> {
        let worker = self
            .workers
            .remove(name)
            .ok_or_else(|| Error::missing(format!("running worker for experiment {name:?}")))?;
        // Make sure a paused worker can actually finish being joined.
        worker.control.set(Command::Run);
        let outcome = worker
            .thread
            .join()
            .map_err(|_| Error::invalid(format!("worker thread for {name:?} panicked")))?;
        let result = outcome?;
        let status = if result.is_some() {
            ExperimentStatus::Finished
        } else {
            ExperimentStatus::Aborted
        };
        self.set_status(name, status)?;
        Ok(result)
    }

    /// Names of experiments with a live worker thread.
    pub fn active(&self) -> Vec<String> {
        let mut names: Vec<String> = self.workers.keys().cloned().collect();
        names.sort();
        names
    }

    fn set_status(&mut self, name: &str, status: ExperimentStatus) -> Result<(), Error> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.name == name)
            .ok_or_else(|| Error::missing(format!("experiment {name:?} in the manifest")))?;
        entry.status = status;
        self.write_manifest()?;
        if let Some(listener) = &self.listener {
            listener(name, status);
        }
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), Error> {
        let rows: Vec<JsonValue> = self
            .entries
            .iter()
            .map(|e| {
                JsonValue::obj([
                    ("name", JsonValue::Str(e.name.clone())),
                    ("status", JsonValue::Str(e.status.as_str().to_owned())),
                ])
            })
            .collect();
        let doc = JsonValue::obj([
            ("schema", JsonValue::Str(MANIFEST_SCHEMA.to_owned())),
            ("experiments", JsonValue::Arr(rows)),
        ]);
        write_atomic(&self.root, MANIFEST_FILE, &[doc.render().as_bytes()]).map(|_| ())
    }
}

/// Read and decode a manifest file.
pub fn read_manifest(path: &Path) -> Result<Vec<ManifestEntry>, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let row = |r: &mut Reader<'_>| {
        r.object(|o| {
            let name = o.get("name", Reader::string)?;
            let status = ExperimentStatus::parse(o.get("status", Reader::str)?)?;
            Ok(ManifestEntry { name, status })
        })
    };
    let manifest = |r: &mut Reader<'_>| {
        r.object(|o| {
            o.schema(&[MANIFEST_SCHEMA])?;
            o.get("experiments", |r| r.list(row))
        })
    };
    JsonValue::parse(&text)
        .map_err(|e| Error::codec(e.to_string()))
        .and_then(|v| from_tree(&v, manifest))
        .map_err(|e| e.corrupt_at(path))
}

/// The body of one experiment's worker thread: recover the run from its
/// directory and step it until it finishes, obeying pause/abort commands at
/// step boundaries.
fn worker_main(
    dir: PathBuf,
    opts: RunOptions,
    control: Arc<Control>,
    metrics: Option<Arc<crate::StoreMetrics>>,
) -> WorkerOutcome {
    let meta = read_meta(&dir)?;
    let bench = meta
        .bench
        .build()
        .map_err(|e| e.context(format!("benchmark for {:?}", meta.name)))?;
    let mut run = DurableRun::resume(&dir, &meta, &bench, opts)?;
    if let Some(m) = metrics {
        run.set_metrics(m);
    }
    loop {
        match control.current() {
            Command::Abort => {
                run.write_snapshot()?;
                return Ok(None);
            }
            Command::Pause => {
                run.mark_paused()?;
                if control.wait_while_paused() == Command::Abort {
                    run.write_snapshot()?;
                    return Ok(None);
                }
                run.mark_resumed()?;
            }
            Command::Run => {
                if !run.step()? {
                    return Ok(Some(run.into_result()));
                }
            }
        }
    }
}
