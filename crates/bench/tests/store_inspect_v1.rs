//! `store_inspect` on a store written before the redesign: it reads the
//! committed `jsonl-v1` fixture in memory, labels what it read as
//! `jsonl-v1`, and writes nothing; after `run_report --resume` has
//! converted a copy, the same store shows `binary-v2` files whose
//! snapshots keep their `v1` layout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every file in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

fn store_inspect(args: &[&Path]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_store_inspect"))
        .args(args)
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "store_inspect failed:\n{text}");
    text
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v1-demo-store")
}

/// The snapshot lines of an inspection.
fn snapshot_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|line| line.trim_start().starts_with("snap "))
        .collect()
}

#[test]
fn dump_of_the_v1_fixture_labels_it_and_writes_nothing() {
    let dir = fixture();
    let before = files(&dir);
    let text = store_inspect(&[Path::new("--dump"), &dir]);
    assert_eq!(files(&dir), before, "inspecting must not touch the store");

    assert_eq!(text.lines().count(), 309, "{text}");
    let snaps = snapshot_lines(&text);
    assert_eq!(snaps.len(), 3, "{text}");
    for line in snaps {
        assert!(line.ends_with("(jsonl-v1, layout v1)"), "{line}");
    }
    assert!(
        text.contains("292 records (288 telemetry + 4 store markers), jsonl-v1 dialect"),
        "{text}"
    );
}

#[test]
fn a_resumed_v1_store_inspects_as_binary_with_v1_layout() {
    let dir = std::env::temp_dir().join(format!("asha-bench-inspect-v1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in files(&fixture()) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let status = Command::new(env!("CARGO_BIN_EXE_run_report"))
        .arg("--resume")
        .arg(&dir)
        .output()
        .unwrap()
        .status;
    assert!(status.success(), "run_report --resume failed");

    assert!(files(&dir)
        .keys()
        .all(|name| !name.starts_with("snap-") || name.ends_with(".bin")));
    let text = store_inspect(&[&dir]);
    let snaps = snapshot_lines(&text);
    assert!(snaps.len() >= 3, "{text}");
    for line in &snaps[..3] {
        assert!(line.ends_with("(binary-v2, layout v1)"), "{line}");
    }
    assert!(!text.contains("jsonl-v1"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
