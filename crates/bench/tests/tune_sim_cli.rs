//! `tune_sim` rejects out-of-range flag values as usage errors (exit 2, one
//! `tune_sim: config: ...` line on stderr) instead of tripping the
//! `SimConfig` constructor assertions.

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
