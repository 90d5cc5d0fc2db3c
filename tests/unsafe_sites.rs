//! Every `unsafe` site is a reviewed line. The library crates
//! `#![forbid(unsafe_code)]`; a crate that needs a few sites says
//! `#![deny(unsafe_code)]` and allows it on one item, next to a
//! `// SAFETY:` comment for each block.
//!
//! This test counts, per production file under `src/` and
//! `crates/*/src` (binaries included, everything after a file's first
//! column-0 `#[cfg(test)]` excluded), the lines whose code — the part
//! before any `//` — uses the `unsafe` keyword or says
//! `allow(unsafe_code)`. It fails on any difference from `SITES`, so a new
//! site, or a site in a new file, is a visible edit of the table below;
//! the failure message prints the replacement table.

use std::fmt::Write;
use std::path::{Path, PathBuf};

/// `(file, unsafe site lines)`, one row per file that has any, sorted.
#[rustfmt::skip]
const SITES: [(&str, usize); 3] = [
    ("crates/bench/src/bin/asha_serve.rs", 1),
    ("crates/math/src/kde.rs", 2),
    ("crates/service/src/reactor/poller.rs", 7),
];

/// Whether `line` is an unsafe site: its code uses `unsafe` as a whole
/// word (so `forbid(unsafe_code)` is not one) or allows `unsafe_code`.
fn is_unsafe_site(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    code.contains("allow(unsafe_code)")
        || code.match_indices("unsafe").any(|(at, word)| {
            let before = code[..at].chars().next_back();
            let after = code[at + word.len()..].chars().next();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
}

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Unsafe site lines of one file's production code.
fn unsafe_sites(file: &Path) -> usize {
    std::fs::read_to_string(file)
        .unwrap()
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| is_unsafe_site(line))
        .count()
}

#[test]
fn unsafe_sites_match_the_committed_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            sources(&src, &mut files);
        }
    }

    let mut got: Vec<(String, usize)> = files
        .iter()
        .map(|file| {
            let name = file.strip_prefix(root).unwrap().to_str().unwrap();
            (name.replace('\\', "/"), unsafe_sites(file))
        })
        .filter(|&(_, sites)| sites > 0)
        .collect();
    got.sort();
    let mut table = String::new();
    for (file, sites) in &got {
        writeln!(table, "    (\"{file}\", {sites}),").expect("String write");
    }
    assert!(
        got.iter().map(|(f, n)| (f.as_str(), *n)).eq(SITES),
        "the unsafe sites changed; if intended, SITES becomes:\n{table}"
    );
}

#[test]
fn the_counter_sees_what_the_rule_says() {
    for line in [
        "    let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), 0) };",
        "        unsafe {",
        "#[allow(unsafe_code)]",
        "unsafe fn raw() {}",
        "unsafe impl Send for Raw {}",
        "    return Some(|k| unsafe { k.run() });",
    ] {
        assert!(is_unsafe_site(line), "{line:?}");
    }
    for line in [
        "#![forbid(unsafe_code)]",
        "#![deny(unsafe_code)]",
        "// SAFETY: the pointer is valid for the whole call.",
        "//! the one place that needs `unsafe`",
        "    let x = 1; // unsafe in a trailing comment",
        "fn unsafely_named() {}",
        "let not_unsafe = 2;",
    ] {
        assert!(!is_unsafe_site(line), "{line:?}");
    }
}
