//! `tune_sim` rejects out-of-range flag values as usage errors (exit 2, one
//! `tune_sim: config: ...` line on stderr) instead of tripping the
//! `SimConfig` constructor assertions, and malformed numbers and unknown
//! flags the same way instead of running the default.

use std::process::Command;

#[test]
fn out_of_range_flags_are_usage_errors_not_panics() {
    for (flag, value, needle) in [
        ("--workers", "0", "at least one worker"),
        ("--horizon", "0", "horizon must be positive"),
        ("--drops", "1.5", "drop probability"),
        ("--stragglers", "-1", "straggler std"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tune_sim"))
            .args(["--bench", "svm-vehicle", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with("tune_sim: config: ") && stderr.contains(needle),
            "{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} started a run");
    }
}

/// A malformed number or an unknown flag is refused the same way (exit 2,
/// nothing on stdout), never replaced by the flag's default: `--workers 2S`
/// and `--wrokers 500` must not run 25 workers and `--seed x` must not run
/// seed 0.
#[test]
fn malformed_numbers_are_usage_errors_not_defaults() {
    for (flag, value, needle) in [
        ("--workers", Some("2S"), "--workers: not a number"),
        ("--horizon", Some("4h"), "--horizon: not a number"),
        ("--stragglers", Some("lots"), "--stragglers: not a number"),
        ("--drops", Some("0,1"), "--drops: not a number"),
        ("--seed", Some("x"), "--seed: not a number"),
        ("--seed", None, "--seed needs a value"),
        ("--wrokers", Some("500"), "unknown argument \"--wrokers\""),
        ("stray", None, "unknown argument \"stray\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tune_sim"))
            .args(["--bench", "svm-vehicle", flag])
            .args(value)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value:?}: {stderr}");
        assert!(
            stderr.starts_with("tune_sim: ") && stderr.contains(needle),
            "{flag} {value:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value:?} started a run");
    }
}

/// `surface_quantiles`'s positional sample count follows the same rule.
#[test]
fn surface_quantiles_refuses_a_malformed_sample_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_surface_quantiles"))
        .arg("2k")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("not a number"), "{stderr}");
    assert!(out.stdout.is_empty(), "started sampling");
}
