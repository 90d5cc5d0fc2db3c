//! True process-death recovery: run the `run_report` demo through the
//! durable store, kill the process abruptly mid-run (SIGABRT via
//! `std::process::abort`, no cleanup), recover in a fresh process, and
//! require the final report to be byte-identical to an uninterrupted run.
//!
//! A short delta chain (`--delta-chain 4`, checkpoints every 75 jobs) puts
//! the crash at 200 jobs mid-chain — full snapshot, then deltas at 75 and
//! 150 — so recovery must patch binary deltas onto the base snapshot.
//! On failure the scratch directory is left behind for `store_inspect`.

use std::path::Path;
use std::process::Command;

use asha::metrics::JsonValue;

/// `run_report` at the cadence every leg of the flow shares.
fn run_report(args: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_run_report"))
        .args(args)
        .args(["--snapshot-jobs", "75", "--delta-chain", "4"])
        .status()
        .unwrap()
}

fn store_inspect(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_store_inspect"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn killed_store_run_recovers_to_identical_report() {
    let root = std::env::temp_dir().join(format!("asha-bench-kill-recover-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let to = |p: &Path| p.to_str().unwrap().to_owned();
    let ref_dir = to(&root.join("ref"));
    let crash_dir = to(&root.join("crash"));
    let ref_json = to(&root.join("ref.json"));
    let rec_json = to(&root.join("recovered.json"));

    // Uninterrupted reference run.
    let status = run_report(&[
        "--demo", "--seed", "5", "--store", &ref_dir, "--json", &ref_json,
    ]);
    assert!(status.success(), "reference run failed");

    // Same run, killed abruptly after 200 jobs: abort() skips destructors,
    // so nothing buffered is flushed — like a SIGKILL.
    let status = run_report(&[
        "--demo",
        "--seed",
        "5",
        "--store",
        &crash_dir,
        "--crash-after-jobs",
        "200",
    ]);
    assert!(!status.success(), "crashed run must not exit cleanly");

    // The crashed store is binary-v2, the crash landed mid-delta-chain, and
    // every record still decodes to its JSONL rendering.
    let inspect = store_inspect(&[&crash_dir]);
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(inspect.status.success(), "store_inspect failed:\n{text}");
    assert!(text.contains("binary-v2 dialect"), "{text}");
    assert!(text.contains("delta marker"), "{text}");
    // Each checkpoint line names the snapshot layout it restores.
    for kind in ["snap", "delta"] {
        assert!(
            text.lines().any(|line| line.trim_start().starts_with(kind)
                && line.ends_with("bytes (binary-v2, layout v2)")),
            "no {kind} line shows its layout:\n{text}"
        );
    }
    let dump = store_inspect(&["--dump", &crash_dir]);
    assert!(dump.status.success(), "store_inspect --dump failed");

    // Recover in a new process and finish.
    let status = run_report(&["--resume", &crash_dir, "--json", &rec_json]);
    assert!(status.success(), "recovery run failed");

    let reference = std::fs::read(&ref_json).unwrap();
    let recovered = std::fs::read(&rec_json).unwrap();
    assert!(
        reference == recovered,
        "recovered report.json differs from uninterrupted run"
    );
    let report = JsonValue::parse(std::str::from_utf8(&recovered).unwrap()).unwrap();
    assert_eq!(
        report.get("schema").and_then(JsonValue::as_str),
        Some("asha-run-report-v1")
    );
    let completed = report
        .get("jobs")
        .and_then(|jobs| jobs.get("completed"))
        .and_then(JsonValue::as_u64);
    assert!(
        completed > Some(200),
        "run stopped at the crash: {completed:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}
