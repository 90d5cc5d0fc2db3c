//! `run_report` refuses a malformed command line as a usage error (exit 2,
//! the usage line on stderr) before it runs anything: a mistyped
//! `--crash-after-jobs` must not run the demo to completion in place of the
//! crash a recovery check asked for. `--snapshot-jobs 0` is no typo: it is
//! the amortised cadence, the default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asha-bench-run-report-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_report(args: &[&str], store: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_report"))
        .args(["--demo", "--seed", "42", "--store"])
        .arg(store)
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    let dir = tmpdir("usage");
    for (args, needle) in [
        (
            &["--crash-after-jobs", "2OO"][..],
            "--crash-after-jobs: not a number",
        ),
        (&["--snapshot-jobs", "-1"], "--snapshot-jobs: not a number"),
        (&["--delta-chain", "eight"], "--delta-chain: not a number"),
        (&["--workers", "25w"], "--workers: not a number"),
        (&["--seed", "4x"], "--seed: not a number"),
        (&["--sampler", "bogus"], "--sampler: unknown kind"),
        (&["--crash-after-jobs"], "--crash-after-jobs needs a value"),
    ] {
        let out = run_report(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: run_report"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started a run");
        assert!(!dir.exists(), "{args:?} wrote a store");
    }
}

/// `--snapshot-jobs 0` asks for the default cadence, so it writes the same
/// checkpoints as no flag at all — not one checkpoint per job.
#[test]
fn snapshot_jobs_zero_is_the_amortised_default() {
    let checkpoints = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "bin"))
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let (zero, default) = (tmpdir("zero"), tmpdir("default"));
    for (dir, args) in [(&zero, &["--snapshot-jobs", "0"][..]), (&default, &[])] {
        let out = run_report(args, dir);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let written = checkpoints(&zero);
    assert!(written.len() < 20, "{} checkpoints", written.len());
    assert!(written == checkpoints(&default), "checkpoints differ");
    for dir in [zero, default] {
        std::fs::remove_dir_all(dir).ok();
    }
}
