//! Same seed ⇒ same bytes on disk: re-run the command that generated the
//! committed `dasha-tpe-store` fixture and require every file it writes to
//! equal the fixture byte for byte; and the `v1-demo-store` fixture's
//! `meta.json`, the one file of it today's writer still writes the same. Its `meta.json` and WAL predate the
//! bytes-first checkpoint path (and the scheduler-kind refactor before it);
//! its checkpoints were regenerated once, by this command, when snapshots
//! moved to schema v2. This is the writer's half of the compatibility
//! contract whose reader's half is `asha-store`'s
//! `dasha_tpe_fixture_opens_and_resumes`: whatever changes behind
//! `DurableRun`, the files may not, unless the document format itself
//! changes on purpose.

use std::collections::BTreeMap;
use std::path::Path;
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

#[test]
fn crashed_dasha_tpe_demo_writes_the_committed_fixture() {
    let dir = std::env::temp_dir().join(format!("asha-bench-writer-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // `--crash-after-jobs` aborts the process: no destructor flushes or
    // tidies anything, so this is also what a kill leaves behind.
    let status = Command::new(env!("CARGO_BIN_EXE_run_report"))
        .args(["--demo", "--seed", "42"])
        .args(["--scheduler", "dasha", "--sampler", "tpe"])
        .args(["--snapshot-jobs", "60", "--crash-after-jobs", "100"])
        .arg("--store")
        .arg(&dir)
        .status()
        .unwrap();
    assert!(!status.success(), "the crashed run must not exit cleanly");

    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/dasha-tpe-store");
    let (written, committed) = (files(&dir), files(&fixture));
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        committed.keys().collect::<Vec<_>>(),
        "same files"
    );
    for (name, bytes) in &committed {
        assert!(
            written[name] == *bytes,
            "{name} differs from the committed fixture ({} vs {} bytes); left in {}",
            written[name].len(),
            bytes.len(),
            dir.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `v1-demo-store` is a random-ASHA `--demo --seed 3` store from the same
/// renderer: its checkpoints and WAL are `jsonl-v1`, which nothing writes
/// any more, but its `meta.json` is what the demo writes today.
#[test]
fn random_asha_demo_writes_the_v1_fixtures_meta() {
    let dir = std::env::temp_dir().join(format!("asha-bench-writer-meta-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let status = Command::new(env!("CARGO_BIN_EXE_run_report"))
        .args(["--demo", "--seed", "3", "--crash-after-jobs", "1"])
        .arg("--store")
        .arg(&dir)
        .status()
        .unwrap();
    assert!(!status.success(), "the crashed run must not exit cleanly");

    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v1-demo-store");
    assert!(
        std::fs::read(dir.join("meta.json")).unwrap()
            == std::fs::read(fixture.join("meta.json")).unwrap(),
        "meta.json differs from the committed fixture's; left in {}",
        dir.display()
    );
    std::fs::remove_dir_all(&dir).ok();
}
