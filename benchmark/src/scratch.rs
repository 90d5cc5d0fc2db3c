//! The benchmark's scratch root: where stores and sockets live while a run
//! measures.
//!
//! It sits on tmpfs (`/dev/shm`) when there is one, so an fsync is a counted
//! syscall rather than a wait for a shared disk, and never inside the
//! repository. The root is named after the process and removed when the
//! [`Scratch`] drops — on success, failure and panic alike; a root left by a
//! killed run is swept by the next one.

use std::path::{Path, PathBuf};

const PREFIX: &str = "asha-benchmark-";

/// A private scratch directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Sweep stale roots, then create this process's root under the first
    /// base directory that accepts it.
    pub fn create() -> std::io::Result<Scratch> {
        let mut last_err = None;
        // tmpfs first; the OS temp dir where there is none.
        for base in [PathBuf::from("/dev/shm"), std::env::temp_dir()] {
            sweep_stale(&base);
            let root = base.join(format!("{PREFIX}{}", std::process::id()));
            // A same-pid leftover can only be a dead predecessor's.
            let _ = std::fs::remove_dir_all(&root);
            match std::fs::create_dir(&root) {
                Ok(()) => return Ok(Scratch { root }),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one base directory"))
    }

    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Remove every root under `base` whose owning process is gone.
fn sweep_stale(base: &Path) {
    let Ok(entries) = std::fs::read_dir(base) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix(PREFIX)) else {
            continue;
        };
        if pid.parse::<u32>().is_ok() && !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}
