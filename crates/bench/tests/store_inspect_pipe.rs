//! A binary whose reader has gone away (`store_inspect DIR | head`,
//! `tune_sim ... | head -1`) stops quietly: exit status 0 and no panic on
//! stderr. Every binary prints through `asha_bench::cli`'s stdout; these rows
//! run the ones that print at once, in an empty working directory.

use std::path::Path;
use std::process::{Command, Stdio};

/// Run `exe` with `args` in `cwd`, its stdout a pipe whose read end was
/// closed before the child started, so its first write meets a pipe nobody
/// reads.
fn run_into_a_closed_pipe(exe: &str, args: &[&str], cwd: &Path) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{exe} {args:?}: {stderr}");
}

#[test]
fn a_closed_stdout_ends_the_inspection_quietly() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v1-demo-store");
    let fixture = fixture.to_str().unwrap();
    run_into_a_closed_pipe(
        env!("CARGO_BIN_EXE_store_inspect"),
        &["--dump", fixture],
        &std::env::temp_dir(),
    );
}

#[test]
fn a_closed_stdout_ends_every_printing_binary_quietly() {
    let cwd = std::env::temp_dir().join(format!("asha-bench-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let rows: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_tune_sim"), &["--bench", "svm-vehicle"]),
        (env!("CARGO_BIN_EXE_ablations"), &[]),
        (
            env!("CARGO_BIN_EXE_run_report"),
            &["--demo", "events.jsonl"],
        ),
        (env!("CARGO_BIN_EXE_asha-ctl"), &["--help"]),
    ];
    for (exe, args) in rows {
        run_into_a_closed_pipe(exe, args, &cwd);
    }
    std::fs::remove_dir_all(&cwd).ok();
}
