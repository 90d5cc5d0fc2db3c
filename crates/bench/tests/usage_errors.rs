//! Every binary refuses a malformed command line the same way: exit 2,
//! nothing on stdout and nothing created, before it runs anything. Each
//! case runs in a fresh empty working directory under a deadline; a case
//! still running at the deadline fails and is killed. `asha-ctl` cases name
//! a socket that does not exist, so exit 2 (not a connect error's 1) shows
//! that the whole command line was read before connecting.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a case may run; a usage error takes milliseconds.
const DEADLINE: Duration = Duration::from_secs(10);

/// One command line of a binary: `prefix`, the flags under test, `suffix`.
/// A flag is `"--name value"` (a valid value) or a switch `"--name"`. Every
/// case keeps the first `required` flags, less those it tests, so that the
/// fault it injects is the command line's only one.
struct Row {
    exe: &'static str,
    prefix: &'static [&'static str],
    flags: &'static [&'static str],
    required: usize,
    suffix: &'static [&'static str],
    /// Positionals past the count; empty: no stray case.
    stray: &'static [&'static str],
}

const NO_ARGS: &[&str] = &[];
const CTL: &str = env!("CARGO_BIN_EXE_asha-ctl");
const SERVE: &str = env!("CARGO_BIN_EXE_asha-serve");

/// A binary that takes no arguments.
const fn bare(exe: &'static str) -> Row {
    Row {
        exe,
        prefix: NO_ARGS,
        flags: NO_ARGS,
        required: 0,
        suffix: NO_ARGS,
        stray: &["stray"],
    }
}

/// An `asha-ctl` command after the connection flags, with its flags.
const fn ctl(prefix: &'static [&'static str], flags: &'static [&'static str]) -> Row {
    Row {
        exe: CTL,
        prefix,
        flags,
        required: 0,
        suffix: NO_ARGS,
        stray: &["extra"],
    }
}

const ROWS: &[Row] = &[
    bare(env!("CARGO_BIN_EXE_fig1_promotion_table")),
    bare(env!("CARGO_BIN_EXE_fig2_promotion_trace")),
    bare(env!("CARGO_BIN_EXE_fig7_exec_chaos")),
    bare(env!("CARGO_BIN_EXE_fig7_stragglers")),
    bare(env!("CARGO_BIN_EXE_fig8_time_to_first")),
    bare(env!("CARGO_BIN_EXE_fig9_fabolas")),
    bare(env!("CARGO_BIN_EXE_tables_search_spaces")),
    Row {
        flags: &["--threads 1"],
        ..bare(env!("CARGO_BIN_EXE_ablations"))
    },
    Row {
        prefix: &["fig3"],
        flags: &["--threads 1", "--all", "--list"],
        stray: &["no-such-figure"],
        ..bare(env!("CARGO_BIN_EXE_figures"))
    },
    Row {
        suffix: &["10"],
        stray: &["20"],
        ..bare(env!("CARGO_BIN_EXE_surface_quantiles"))
    },
    Row {
        flags: &["--dump"],
        suffix: &["store"],
        stray: &["other-store"],
        ..bare(env!("CARGO_BIN_EXE_store_inspect"))
    },
    Row {
        flags: &[
            "--bench svm-vehicle",
            "--searcher asha",
            "--workers 2",
            "--horizon 10",
            "--stragglers 0",
            "--drops 0",
            "--seed 1",
        ],
        required: 1,
        ..bare(env!("CARGO_BIN_EXE_tune_sim"))
    },
    Row {
        flags: &[
            "--demo",
            "--workers 25",
            "--json report.json",
            "--seed 1",
            "--scheduler asha",
            "--sampler tpe",
            "--store store",
            "--crash-after-jobs 5",
            "--resume store",
            "--snapshot-jobs 0",
            "--delta-chain 1",
        ],
        required: 1,
        stray: &["a.jsonl", "b.jsonl"],
        ..bare(env!("CARGO_BIN_EXE_run_report"))
    },
    Row {
        flags: &[
            "--root root",
            "--unix serve.sock",
            "--tcp 127.0.0.1:0",
            "--trace trace.jsonl",
            "--queue-depth 8",
            "--max-frame 4096",
            "--metrics-addr 127.0.0.1:0",
            "--slow-log slow.jsonl",
            "--slow-ms 5",
        ],
        required: 2,
        stray: &["stray"],
        ..bare(SERVE)
    },
    Row {
        flags: &[
            "--unix absent.sock",
            "--tcp 127.0.0.1:9",
            "--connect-timeout 1",
            "--timeout 1",
        ],
        required: 1,
        suffix: &["ping"],
        ..ctl(NO_ARGS, NO_ARGS)
    },
    ctl(
        &["--unix", "absent.sock", "create", "exp"],
        &[
            "--preset svm_mnist",
            "--bench-seed 1",
            "--seed 1",
            "--workers 2",
            "--max-time 10",
            "--straggler-std 0",
            "--drop-prob 0",
            "--min-r 1",
            "--max-r 27",
            "--eta 3",
            "--scheduler asha",
            "--sampler tpe",
            "--sync never",
            "--snapshot-jobs 0",
            "--delta-chain 1",
        ],
    ),
    ctl(
        &["--unix", "absent.sock", "start", "exp"],
        &["--sync always", "--snapshot-jobs 0", "--delta-chain 1"],
    ),
    ctl(
        &["--unix", "absent.sock", "top"],
        &["--interval 1", "--count 1"],
    ),
    ctl(&["--unix", "absent.sock", "tail", "exp"], &["--from 0"]),
    ctl(
        &["--unix", "absent.sock", "watch", "exp"],
        &["--from 0", "--out report.json", "--workers 4"],
    ),
    ctl(&["--unix", "absent.sock", "ping"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "list"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "metrics"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "shutdown"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "pause", "exp"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "resume", "exp"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "abort", "exp"], NO_ARGS),
    ctl(&["--unix", "absent.sock", "status", "exp"], NO_ARGS),
];

/// Command lines outside the generated shapes: seconds that are not a
/// duration, malformed thread counts (flag or environment), malformed
/// numbers `asha-ctl` must refuse before connecting, and an unknown command.
const SPECIAL: &[(&str, &str, Option<&str>)] = &[
    (CTL, "--unix absent.sock --connect-timeout nan ping", None),
    (CTL, "--tcp 127.0.0.1:9 --connect-timeout nan ping", None),
    (CTL, "--unix absent.sock --connect-timeout 0 ping", None),
    (CTL, "--unix absent.sock --connect-timeout -1 ping", None),
    (CTL, "--unix absent.sock --timeout inf ping", None),
    (CTL, "--unix absent.sock --timeout 1e300 ping", None),
    (CTL, "--unix absent.sock --timeout -2 ping", None),
    (CTL, "--unix absent.sock top --interval nan", None),
    (CTL, "--unix absent.sock top --interval 0", None),
    (CTL, "--unix absent.sock top --interval inf", None),
    (CTL, "--unix absent.sock watch exp --workers 4x", None),
    (
        CTL,
        "--unix absent.sock create exp --preset svm_mnist --workers 2S",
        None,
    ),
    (CTL, "--unix absent.sock create exp", None),
    (CTL, "--unix absent.sock start", None),
    (CTL, "--unix absent.sock frobnicate", None),
    (CTL, "--unix absent.sock", None),
    (SERVE, "--root root --unix serve.sock --slow-ms 5ms", None),
    (SERVE, "--root root", None),
    (env!("CARGO_BIN_EXE_figures"), "--threads abc fig3", None),
    (env!("CARGO_BIN_EXE_figures"), "fig3", Some("abc")),
    (env!("CARGO_BIN_EXE_ablations"), "", Some("-1")),
    (env!("CARGO_BIN_EXE_store_inspect"), "", None),
];

/// What a case breaks, and the command line that breaks it.
fn cases(row: &Row) -> Vec<(String, Vec<&'static str>)> {
    let tokens = |flag: &'static str| flag.split(' ').collect::<Vec<_>>();
    let name = |flag: &'static str| tokens(flag)[0];
    let with = |skip: &[&str], middle: Vec<&'static str>, suffix: &[&'static str]| {
        let required = row.flags[..row.required].iter().copied();
        let kept = required.filter(|flag| !skip.contains(&name(flag)));
        let mut line = row.prefix.to_vec();
        line.extend(kept.flat_map(tokens));
        line.extend(middle);
        line.extend(suffix);
        line
    };
    let mut cases = Vec::new();
    for (i, &flag) in row.flags.iter().enumerate() {
        if !flag.contains(' ') {
            continue;
        }
        let next = row.flags[(i + 1) % row.flags.len()];
        if next != flag {
            let line = with(
                &[name(flag), name(next)],
                [vec![name(flag)], tokens(next)].concat(),
                row.suffix,
            );
            cases.push((
                format!("{} before {}'s value", name(next), name(flag)),
                line,
            ));
        }
        cases.push((
            format!("{} without its value", name(flag)),
            with(&[name(flag)], vec![name(flag)], &[]),
        ));
    }
    cases.push((
        "an unknown flag".to_owned(),
        with(&[], vec!["--bogus"], row.suffix),
    ));
    if !row.stray.is_empty() {
        let line = with(&[], vec![], &[row.suffix, row.stray].concat());
        cases.push(("a stray positional".to_owned(), line));
    }
    for (i, &flag) in row.flags.iter().enumerate() {
        let repeats = if i < row.required { 1 } else { 2 };
        let line = with(&[], tokens(flag).repeat(repeats), row.suffix);
        cases.push((format!("{} given twice", name(flag)), line));
    }
    cases
}

/// Run `exe args` in a fresh empty directory; a description of every way
/// it fails the contract (exit 2, empty stdout, nothing created).
fn check(
    exe: &str,
    args: &[&str],
    threads_env: Option<&str>,
    scratch: &Path,
    n: usize,
) -> Option<String> {
    let cwd = scratch.join(format!("case-{n}"));
    std::fs::create_dir_all(&cwd).unwrap();
    let (out_path, err_path) = (
        scratch.join(format!("{n}.out")),
        scratch.join(format!("{n}.err")),
    );
    let mut command = Command::new(exe);
    command
        .args(args)
        .current_dir(&cwd)
        .env_remove("ASHA_THREADS")
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(&out_path).unwrap())
        .stderr(std::fs::File::create(&err_path).unwrap());
    if let Some(value) = threads_env {
        command.env("ASHA_THREADS", value);
    }
    let mut child = command.spawn().unwrap();
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let stdout = std::fs::read_to_string(&out_path).unwrap();
    let stderr = std::fs::read_to_string(&err_path).unwrap();
    let left: Vec<PathBuf> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    std::fs::remove_dir_all(&cwd).unwrap();
    let mut faults = Vec::new();
    match status {
        None => faults.push(format!("still running after {DEADLINE:?}")),
        Some(status) if status.code() != Some(2) => faults.push(status.to_string()),
        Some(_) => {}
    }
    if !stdout.is_empty() {
        let first = stdout.lines().find(|line| !line.is_empty());
        faults.push(format!("stdout {:?}", first.unwrap_or_default()));
    }
    if !left.is_empty() {
        faults.push(format!("created {left:?}"));
    }
    if stderr.contains("panicked") {
        faults.push("panicked".to_owned());
    }
    (!faults.is_empty()).then(|| {
        format!(
            "{}: {}",
            faults.join(", "),
            stderr.lines().next().unwrap_or("")
        )
    })
}

#[test]
fn every_malformed_command_line_exits_2_before_anything_runs() {
    let scratch =
        std::env::temp_dir().join(format!("asha-bench-usage-errors-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let mut all: Vec<(String, &str, Vec<&str>, Option<&str>)> = Vec::new();
    for row in ROWS {
        for (what, line) in cases(row) {
            all.push((what, row.exe, line, None));
        }
    }
    for &(exe, line, threads) in SPECIAL {
        let line = line.split_whitespace().collect();
        all.push((
            "a bad value or a missing argument".to_owned(),
            exe,
            line,
            threads,
        ));
    }
    let mut failures = Vec::new();
    for (n, (what, exe, line, threads)) in all.iter().enumerate() {
        if let Some(fault) = check(exe, line, *threads, &scratch, n) {
            let bin = Path::new(exe).file_name().unwrap().to_string_lossy();
            let env = threads.map_or(String::new(), |t| format!("ASHA_THREADS={t} "));
            failures.push(format!("{env}{bin} {} ({what}): {fault}", line.join(" ")));
        }
    }
    std::fs::remove_dir_all(&scratch).unwrap();
    assert!(all.len() > 200, "only {} cases", all.len());
    assert!(
        failures.is_empty(),
        "{} of {} cases failed:\n{}",
        failures.len(),
        all.len(),
        failures.join("\n")
    );
}
