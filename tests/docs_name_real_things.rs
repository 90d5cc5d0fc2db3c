//! The prose may only name things that exist: every `--bin NAME` and
//! `target/release/NAME` in the documents below is a binary `crates/bench`
//! builds, every committed root-level JSON file or `scripts/` path they
//! name is in the tree, and so is every `.rs` file the three root documents
//! name by its path. A deleted binary, data file or test fails here instead
//! of living on in a README.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
    ".claude/skills/verify/SKILL.md",
];

/// `(document, name)` pairs excused from the existence check: one sentence.
///
/// `benchmark/README.md` l. 8–9 still says `BENCH_sim.json` and
/// `BENCH_service.json` "stay as they are"; both are deleted, but files
/// under `benchmark/` may only change in a benchmark change of their own.
/// Empty this list when that sentence goes.
const ALLOWED_MISSING: [(&str, &str); 2] = [
    ("benchmark/README.md", "BENCH_sim.json"),
    ("benchmark/README.md", "BENCH_service.json"),
];

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')
}

/// Every maximal run of name characters that follows `prefix` in `text`,
/// without trailing sentence punctuation.
fn names_after<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.match_indices(prefix)
        .map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            let end = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
            rest[..end].trim_end_matches('.')
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// Bare `NAME.json` tokens whose name starts with an upper-case letter: by
/// this repo's convention (`BENCHMARK.json`, like `README.md`) a file
/// committed at the root. Lower-case names (`report.json`, `manifest.json`)
/// are run outputs and paths (`/tmp/r.json`) are the reader's own.
fn root_json_names(text: &str) -> Vec<&str> {
    text.split(|c: char| !is_name_char(c) && c != '/')
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            token.ends_with(".json")
                && !token.contains('/')
                && token.starts_with(|c: char| c.is_ascii_uppercase())
        })
        .collect()
}

/// Source files named by path: tokens ending in `.rs` that start at one of
/// the tree's source roots, or at `benchmark/` followed by one (the token
/// then resolves under `benchmark/` as written). A bare `tailer.rs`, a
/// `service/src/…` without its `crates/` and a glob are not paths from the
/// root and are not checked.
fn source_paths(text: &str) -> Vec<&str> {
    const ROOTS: [&str; 4] = ["crates/", "tests/", "src/", "examples/"];
    text.split(|c: char| !is_name_char(c) && c != '/')
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            let from_root = token.strip_prefix("benchmark/").unwrap_or(token);
            token.ends_with(".rs") && ROOTS.iter().any(|root| from_root.starts_with(root))
        })
        .collect()
}

/// Binaries of `crates/bench`: one per `src/bin/*.rs`, plus the names its
/// `[[bin]]` tables give (`asha-serve`, `asha-ctl`).
fn bench_binaries(root: &Path) -> BTreeSet<String> {
    let mut bins = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("crates/bench/src/bin")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            bins.insert(path.file_stem().unwrap().to_str().unwrap().to_owned());
        }
    }
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    let mut in_bin_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bin_table = line == "[[bin]]";
        } else if in_bin_table {
            if let Some(value) = line.strip_prefix("name") {
                let name = value.trim_start().trim_start_matches('=').trim();
                bins.insert(name.trim_matches('"').to_owned());
            }
        }
    }
    bins
}

#[test]
fn documents_name_only_binaries_and_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = bench_binaries(root);
    assert!(
        bins.contains("run_report") && bins.contains("asha-ctl"),
        "binary discovery is broken: {bins:?}"
    );

    let mut problems = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for prefix in ["--bin ", "target/release/"] {
            for name in names_after(&text, prefix) {
                if !bins.contains(name) {
                    problems.push(format!(
                        "{doc}: `{prefix}{name}` is not an asha-bench binary"
                    ));
                }
            }
        }
        let scripts = names_after(&text, "scripts/")
            .into_iter()
            .map(|name| format!("scripts/{name}"));
        let jsons = root_json_names(&text).into_iter().map(str::to_owned);
        // The documents at the root write source paths from the root.
        let sources = if ["README.md", "DESIGN.md", "EXPERIMENTS.md"].contains(&doc) {
            source_paths(&text)
        } else {
            Vec::new()
        };
        let sources = sources.into_iter().map(str::to_owned);
        for path in scripts.chain(jsons).chain(sources) {
            let excused = ALLOWED_MISSING.contains(&(doc, path.as_str()));
            if !excused && !root.join(&path).exists() {
                problems.push(format!("{doc}: `{path}` does not exist"));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_tokenizers_see_what_the_documents_write() {
    let text = "run `cargo run -p asha-bench --bin asha-ctl -- ping`, then \
                ./target/release/tune_sim. See `BENCHMARK.json`, `report.json`, \
                /tmp/Out.json and scripts/service_smoke.sh.";
    assert_eq!(names_after(text, "--bin "), ["asha-ctl"]);
    assert_eq!(names_after(text, "target/release/"), ["tune_sim"]);
    assert_eq!(names_after(text, "scripts/"), ["service_smoke.sh"]);
    assert_eq!(root_json_names(text), ["BENCHMARK.json"]);

    let text = "`crates/service/tests/concurrent_clients.rs::hostile_create_frames`, \
                tests/sim_golden.rs. (`src/tune.rs`, examples/quickstart.rs:12) and \
                `benchmark/src/stats.rs`; but not `tailer.rs`, service/src/tailer.rs, \
                `crates/bench/src/bin/*.rs`, `store/src/{binary,codec}.rs` or crates/core/.";
    assert_eq!(
        source_paths(text),
        [
            "crates/service/tests/concurrent_clients.rs",
            "tests/sim_golden.rs",
            "src/tune.rs",
            "examples/quickstart.rs",
            "benchmark/src/stats.rs"
        ]
    );
}
