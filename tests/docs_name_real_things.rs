//! The prose may only name things that exist: every `--bin NAME` and
//! `target/release/NAME` in the documents below is a binary `crates/bench`
//! builds, every committed root-level JSON file or `scripts/` path they
//! name is in the tree, and so is every `.rs` file the three root documents
//! name by its path. A deleted binary, data file or test fails here instead
//! of living on in a README.
//!
//! DESIGN.md is a ledger whose entries cite the tests that pin them as
//! `path.rs::fn_name`; every such citation in DESIGN.md and README.md must
//! name a `fn` in that file, each ledger entry must carry its What,
//! Invariant and Pinned by, and DESIGN.md stays within `DESIGN_MAX_LINES`.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
    ".claude/skills/verify/SKILL.md",
];

/// The documents whose `path.rs::fn_name` citations must resolve.
const CITING_DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// Where source paths written from the repository root start.
const SOURCE_ROOTS: [&str; 4] = ["crates/", "tests/", "src/", "examples/"];

/// DESIGN.md states each mechanism once; past this it is restating.
const DESIGN_MAX_LINES: usize = 700;

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
    text.split(|c: char| !is_name_char(c) && c != '/')
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            let from_root = token.strip_prefix("benchmark/").unwrap_or(token);
            token.ends_with(".rs") && SOURCE_ROOTS.iter().any(|root| from_root.starts_with(root))
        })
        .collect()
}

/// Every `path.rs::name` citation in `text`, as `(path, name)`: the path is
/// the run of path characters before `.rs::`, the name the last `::`
/// segment after it (`snapshot.rs::Snapshot::from_bytes` cites
/// `from_bytes`).
fn cited_fns(text: &str) -> Vec<(&str, &str)> {
    text.match_indices(".rs::")
        .map(|(at, _)| {
            let before = &text[..at];
            let start = before
                .rfind(|c: char| !is_name_char(c) && c != '/')
                .map_or(0, |i| i + 1);
            let after = &text[at + ".rs::".len()..];
            let end = after
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
                .unwrap_or(after.len());
            let name = after[..end].trim_end_matches(':');
            let name = name.rsplit("::").next().unwrap_or(name);
            (&text[start..at + ".rs".len()], name)
        })
        .collect()
}

/// Whether `source` declares `fn name` (followed by its parameter list or
/// generics, so a longer name that starts with `name` does not count).
fn declares_fn(source: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    source.match_indices(&needle).any(|(at, _)| {
        let boundary = at == 0 || !is_name_char(source[..at].chars().next_back().unwrap());
        let next = source[at + needle.len()..].chars().next();
        boundary && matches!(next, Some('(' | '<'))
    })
}

/// Ledger entries of DESIGN.md (`### ` sections) that lack one of the
/// labels, or whose Pinned by cites no test.
fn incomplete_entries(design: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for section in design.split("\n### ").skip(1) {
        let entry = section.split("\n## ").next().unwrap_or(section);
        let title = entry.lines().next().unwrap_or_default();
        for label in ["**What:**", "**Invariant:**", "**Pinned by:**"] {
            if !entry.contains(label) {
                problems.push(format!("DESIGN.md: `{title}` has no {label}"));
            }
        }
        if let Some((_, pinned)) = entry.split_once("**Pinned by:**") {
            let pinned = pinned.split("\n- **").next().unwrap_or(pinned);
            if !pinned.contains(".rs::") {
                problems.push(format!("DESIGN.md: `{title}` pins no `path.rs::fn`"));
            }
        }
    }
    problems
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
fn cited_tests_exist_and_design_stays_a_ledger() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut problems = Vec::new();
    let mut cited = 0;
    for doc in CITING_DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for (path, name) in cited_fns(&text) {
            cited += 1;
            if !SOURCE_ROOTS.iter().any(|root| path.starts_with(root)) {
                problems.push(format!("{doc}: cite `{path}::{name}` from the repo root"));
                continue;
            }
            match std::fs::read_to_string(root.join(path)) {
                Ok(source) if declares_fn(&source, name) => {}
                Ok(_) => problems.push(format!("{doc}: `{path}` has no `fn {name}`")),
                Err(_) => problems.push(format!("{doc}: `{path}` does not exist")),
            }
        }
    }
    assert!(cited > 0, "citation discovery is broken");

    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let lines = design.lines().count();
    if lines > DESIGN_MAX_LINES {
        problems.push(format!(
            "DESIGN.md is {lines} lines, over {DESIGN_MAX_LINES}: cite, do not restate"
        ));
    }
    problems.extend(incomplete_entries(&design));
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

    let text = "**Pinned by:** `crates/core/src/rung.rs::cache_test`,\n  \
                `crates/store/src/snapshot.rs::Snapshot::from_bytes` and delta.rs::oracle.";
    assert_eq!(
        cited_fns(text),
        [
            ("crates/core/src/rung.rs", "cache_test"),
            ("crates/store/src/snapshot.rs", "from_bytes"),
            ("delta.rs", "oracle")
        ]
    );
    let source = "fn helper_longer() {}\n    pub fn helper<T>(x: T) {}\nfn other(){}";
    assert!(declares_fn(source, "helper"));
    assert!(declares_fn(source, "other"));
    assert!(!declares_fn(source, "helper_long"));
    assert!(!declares_fn(source, "elper"));

    let design = "## 7. Core\n\n### 7.1 Good\n\n- **What:** a\n- **Invariant:** b\n\
                  - **Pinned by:** `tests/x.rs::y`.\n\n### 7.2 Bad\n\n- **What:** a\n\
                  - **Pinned by:** nothing.\n- **Measured by:** `z.rs::w`\n\n## 8. Next\n";
    assert_eq!(
        incomplete_entries(design),
        [
            "DESIGN.md: `7.2 Bad` has no **Invariant:**",
            "DESIGN.md: `7.2 Bad` pins no `path.rs::fn`"
        ]
    );
}
