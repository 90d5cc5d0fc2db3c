//! Runs the table-driven figures of [`asha_bench::FIGURES`].
//!
//! ```text
//! figures NAME...   run the named figures, in the order given
//! figures --all     run every row of the table
//! figures --list    print the names
//! ```
//!
//! `--threads N` / `ASHA_THREADS` set the trial-level parallelism; output is
//! byte-identical for any value.

use asha_bench::{threads_from_args, Figure, FIGURES};

fn main() {
    let mut selected: Vec<&Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => drop(args.next()),
            a if a.starts_with("--threads=") => {}
            "--all" => selected.extend(FIGURES),
            "--list" => {
                for figure in FIGURES {
                    println!("{}", figure.name);
                }
                return;
            }
            name => match FIGURES.iter().find(|f| f.name == name) {
                Some(figure) => selected.push(figure),
                None => usage(&format!("unknown figure `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        usage("no figure named");
    }
    let threads = threads_from_args();
    for figure in selected {
        figure.run(threads);
    }
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("figures: {problem}");
    eprintln!("usage: figures [--threads N] (--all | --list | NAME...)");
    eprintln!("figures: {}", names.join(" "));
    std::process::exit(2);
}
