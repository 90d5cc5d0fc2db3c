//! Runs the table-driven figures of [`asha_bench::FIGURES`].
//!
//! ```text
//! figures NAME...   run the named figures, in the order given
//! figures --all     run every row of the table
//! figures --list    print the names
//! ```
//!
//! `--threads N`, else `ASHA_THREADS`, sets the trial-level parallelism
//! (default 0: one thread per core); output is byte-identical for any value.
//! A malformed count from either source is a usage error (exit 2).

use asha_bench::cli::Cli;
use asha_bench::outln;
use asha_bench::{Figure, FIGURES};

const CLI: Cli = Cli {
    bin: "figures",
    synopsis: "[--threads N] (--all | --list | NAME...)",
    flags: &["--threads N", "--all", "--list"],
    positionals: usize::MAX,
};

fn main() {
    let args = CLI.parse();
    let threads = args.threads();
    if args.has("--list") {
        for figure in FIGURES {
            outln!("{}", figure.name);
        }
        return;
    }
    let mut selected: Vec<&Figure> = Vec::new();
    if args.has("--all") {
        selected.extend(FIGURES);
    }
    for name in &args.positionals {
        match FIGURES.iter().find(|f| f.name == name) {
            Some(figure) => selected.push(figure),
            None => args.usage_error(format!("unknown figure `{name}` (see --list)")),
        }
    }
    if selected.is_empty() {
        args.usage_error("no figure named (see --list)");
    }
    for figure in selected {
        figure.run(threads);
    }
}
