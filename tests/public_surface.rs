//! The public surface is a reviewed number. An item stays `pub` only if
//! something outside its crate names it: another crate, a `crates/bench`
//! binary, an integration test, an example, a doctest or `benchmark/`.
//! Everything else is `pub(crate)` or private, because rustc never reports
//! an unused `pub fn` as dead code.
//!
//! This test counts, per crate, the lines of `src/**/*.rs` that declare a
//! public item (`pub fn`, `pub struct`, `pub use`, ... at the start of the
//! line), skipping `src/bin/` and everything after a file's first
//! column-0 `#[cfg(test)]`. It fails on any difference from `SURFACE`, so a
//! new public item is a visible edit of the table below; the failure
//! message prints the replacement table.

use std::fmt::Write;
use std::path::{Path, PathBuf};

/// `(source root, public item declaration lines)`, one row per crate.
#[rustfmt::skip]
const SURFACE: [(&str, usize); 14] = [
    ("crates/baselines/src", 31),
    ("crates/bench/src", 35),
    ("crates/core/src", 139),
    ("crates/exec/src", 37),
    ("crates/math/src", 40),
    ("crates/metrics/src", 60),
    ("crates/ml/src", 26),
    ("crates/obs/src", 77),
    ("crates/service/src", 98),
    ("crates/sim/src", 28),
    ("crates/space/src", 51),
    ("crates/store/src", 137),
    ("crates/surrogate/src", 26),
    ("src", 35),
];

/// The item keywords a counted line starts with, after `pub` and
/// whitespace (`const` also covers `const fn`).
const KEYWORDS: [&str; 10] = [
    "const",
    "unsafe fn",
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "static",
    "mod",
    "use",
];

/// Whether `line` declares a public item: `pub`, whitespace, then one of
/// `KEYWORDS` as a whole word. `pub(crate)` and fields do not count.
fn declares_public_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub") else {
        return false;
    };
    if !rest.starts_with(char::is_whitespace) {
        return false;
    }
    let rest = rest.trim_start();
    KEYWORDS.iter().any(|keyword| {
        rest.strip_prefix(keyword)
            .is_some_and(|after| !after.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
    })
}

/// Every `.rs` file under `dir`; at the top level (`src/`) `bin/` is
/// skipped, since each binary is a crate of its own.
fn sources(dir: &Path, top: bool, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if !(top && path.ends_with("bin")) {
                sources(&path, false, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Public item declarations of one crate's `src/`.
fn public_items(src: &Path) -> usize {
    let mut files = Vec::new();
    sources(src, true, &mut files);
    files
        .iter()
        .map(|file| {
            std::fs::read_to_string(file)
                .unwrap()
                .lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"))
                .filter(|line| declares_public_item(line))
                .count()
        })
        .sum()
}

#[test]
fn public_item_counts_match_the_committed_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots: Vec<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.join("src").is_dir())
        .map(|path| format!("crates/{}/src", path.file_name().unwrap().to_str().unwrap()))
        .collect();
    roots.sort();
    roots.push("src".to_owned());

    let mut table = String::new();
    let mut got = Vec::new();
    for src in &roots {
        let count = public_items(&root.join(src));
        writeln!(table, "    (\"{src}\", {count}),").expect("String write");
        got.push((src.as_str(), count));
    }
    assert!(
        got == SURFACE,
        "the public surface changed; if intended, SURFACE becomes:\n{table}"
    );
}

#[test]
fn the_counter_sees_what_the_rule_says() {
    for line in [
        "pub fn run() {",
        "    pub const fn new() -> Self {",
        "pub const MAX: usize = 3;",
        "pub use crate::wal::{read_wal, WalWriter};",
        "pub mod prelude {",
        "\tpub  struct Pair(u32, u32);",
        "pub unsafe fn raw() {}",
        "pub trait Scheduler {",
        "pub type Result<T> = std::result::Result<T, Error>;",
    ] {
        assert!(declares_public_item(line), "{line:?}");
    }
    for line in [
        "pub(crate) fn run() {",
        "    pub field: u32,",
        "    pub fn_table: Vec<u8>,",
        "// pub fn commented() {}",
        "/// pub struct InDocs;",
        "fn private() {}",
        "pub(super) struct Inner;",
        "    pub usefulness: f64,",
    ] {
        assert!(!declares_public_item(line), "{line:?}");
    }
}
