//! `run_report` refuses a malformed command line as a usage error (exit 2,
//! the usage line on stderr) before it runs anything: a mistyped
//! `--crash-after-jobs` must not run the demo to completion in place of the
//! crash a recovery check asked for. `--snapshot-jobs 0` is no typo: it is
//! the amortised cadence, the default. Synchronous Hyperband and random
//! search run through the store like every other persistable method.

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

/// A path flag never takes the next flag as its value: `--store
/// --crash-after-jobs 300` must not write a store into a directory named
/// `--crash-after-jobs` and run uninterrupted, and a trailing `--json`,
/// `--store` or `--resume` must not be dropped silently.
#[test]
fn path_flags_without_a_value_are_usage_errors() {
    let cwd = tmpdir("path-flags");
    std::fs::create_dir_all(&cwd).unwrap();
    for args in [
        &["--demo", "--store", "--crash-after-jobs", "300"][..],
        &["--demo", "--json"],
        &["--demo", "--store"],
        &["--resume", "--json", "report.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_report"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("needs a value"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: run_report"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started a run");
        let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
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

/// `--scheduler S` runs durably: crashed after `crash_after` jobs and
/// resumed, the run reports what the uninterrupted one does, byte for byte.
fn a_crashed_run_resumes_to_the_uninterrupted_report(scheduler: &str, crash_after: &str) {
    let (whole, crashed) = (tmpdir(&format!("{scheduler}-whole")), tmpdir(scheduler));
    let reports = tmpdir(&format!("{scheduler}-reports"));
    std::fs::create_dir_all(&reports).unwrap();
    let (whole_json, resumed_json) = (reports.join("whole.json"), reports.join("resumed.json"));
    let method = ["--scheduler", scheduler, "--json"];
    let out = run_report(
        &[&method[..], &[whole_json.to_str().unwrap()]].concat(),
        &whole,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{scheduler}: uninterrupted run: {stderr}"
    );
    let out = run_report(
        &[&method[..2], &["--crash-after-jobs", crash_after]].concat(),
        &crashed,
    );
    assert!(
        !out.status.success(),
        "{scheduler}: the crashed run exited cleanly"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_run_report"))
        .arg("--resume")
        .arg(&crashed)
        .arg("--json")
        .arg(&resumed_json)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{scheduler}: resume: {stderr}");
    let (whole_report, resumed_report) = (
        std::fs::read(&whole_json).unwrap(),
        std::fs::read(&resumed_json).unwrap(),
    );
    assert!(
        whole_report == resumed_report,
        "{scheduler}: the resumed report differs"
    );
    for dir in [whole, crashed, reports] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn a_crashed_hyperband_run_resumes_to_the_uninterrupted_report() {
    a_crashed_run_resumes_to_the_uninterrupted_report("hyperband", "300");
}

/// Every random-search job trains to `R`, so the demo's horizon fits nine
/// of them: the crash comes after five, with every worker still busy.
#[test]
fn a_crashed_random_run_resumes_to_the_uninterrupted_report() {
    a_crashed_run_resumes_to_the_uninterrupted_report("random", "5");
}
