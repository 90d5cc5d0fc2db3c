//! `store_inspect` whose reader has gone away (`store_inspect DIR | head`)
//! stops quietly: exit status 0 and no panic on stderr.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_inspection_quietly() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v1-demo-store");
    // Close the read end before the child starts, so its first write meets
    // a pipe nobody reads.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_store_inspect"))
        .arg("--dump")
        .arg(&fixture)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
