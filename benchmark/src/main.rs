//! The repo's benchmark: four one-CPU workloads driven through the public
//! API of the `asha` facade. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! asha-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! asha-benchmark aa [--seeds N] [--seconds S] [--quick]
//! ```
//!
//! Run it through `run.sh`, which builds it and pins it to one CPU.

mod aa;
mod harness;
mod scratch;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Metric, Tally};
use scratch::Scratch;

/// One run's command line.
#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    format!(
        "usage: asha-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       asha-benchmark aa [--seeds <n>] [--seconds <s>] [--quick]",
        workloads::NAMES.join("|")
    )
}

/// `--flag value` pairs and bare `--quick`, checked where they enter.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = if name == "quick" {
            "1".to_owned()
        } else {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone()
        };
        flags.push((name.to_owned(), value));
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.iter().rev().find(|(n, _)| n == name) {
        Some((_, v)) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot read {v:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace", "quick"])?;
    let run = RunArgs {
        workload: flag(&flags, "workload", None)?,
        seed: flag(&flags, "seed", None)?,
        seconds: flag(&flags, "seconds", None)?,
        trace: match flag::<u8>(&flags, "trace", Some(0))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        quick: flag(&flags, "quick", Some(0u8))? == 1,
    };
    if !workloads::NAMES.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(run)
}

/// The untraced run of one workload: both end-to-end metrics.
fn run_untraced(process_start: Instant, args: &RunArgs, scratch: &Scratch) -> (Vec<Metric>, Tally) {
    let size = workloads::size(&args.workload, args.quick);
    let workload = workloads::build(&args.workload, args.seed, size, scratch.path());
    let m = harness::measure(process_start, workload.as_ref(), size.passes(args.seconds));
    let metrics = vec![
        Metric::new("work_per_s", m.work_per_s, "1/s"),
        Metric::new("setup_s", m.setup_s, "s"),
    ];
    (metrics, m.tally)
}

/// The traced run: the named workload at its own size, the other three at
/// `--quick` size, each contributing the per-layer metrics it is home to.
fn run_traced(args: &RunArgs, scratch: &Scratch) -> (Vec<Metric>, Tally) {
    let mut metrics = Vec::new();
    let mut tally = Tally::default();
    for name in workloads::NAMES {
        let named = name == args.workload;
        let size = workloads::size(name, args.quick || !named);
        let workload = workloads::build(name, args.seed, size, scratch.path());
        // A third of the untraced run's passes each way — the traced run
        // makes them twice, plus the warm-up — and one for the side panels.
        let passes = if named {
            size.passes(args.seconds).div_ceil(3)
        } else {
            1
        };
        let traced = harness::trace(workload.as_ref(), passes);
        metrics.extend(workload.layers(&traced));
        if named {
            metrics.extend([
                Metric::new("trace.overhead_ratio", traced.overhead_ratio, "ratio"),
                Metric::new(
                    "trace.unattributed_share",
                    traced.unattributed_share(),
                    "share",
                ),
            ]);
            match write_spans(args, &traced.spans) {
                Ok(path) => eprintln!("spans: {} written to {path}", traced.spans.len()),
                Err(e) => eprintln!("spans: not written: {e}"),
            }
        }
        tally.absorb(traced.tally);
    }
    metrics.push(Metric::new("proc.peak_rss_mb", peak_rss_mb(), "MB"));
    (metrics, tally)
}

/// The span file goes beside the executable, in the build directory: inside
/// the checkout, outside the tracked tree.
fn write_spans(args: &RunArgs, spans: &[trace::Span]) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    trace::write_json(&path, &args.workload, args.seed, spans)?;
    Ok(path.display().to_string())
}

/// `VmHWM` of this process, in MB (0 where `/proc` has none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print every metric by name with its unit, then the one-line result.
fn report(args: &RunArgs, metrics: &[Metric], tally: &Tally) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}

fn run(process_start: Instant, args: &[String]) -> Result<(), String> {
    if args.first().is_some_and(|a| a == "aa") {
        return aa::run(&args[1..]);
    }
    let args = parse_run(args)?;
    // Dropped — and the scratch root with it — on every way out of this
    // function, a panic's unwinding included.
    let scratch = Scratch::create().map_err(|e| format!("creating the scratch root: {e}"))?;
    let (metrics, tally) = if args.trace {
        run_traced(&args, &scratch)
    } else {
        run_untraced(process_start, &args, &scratch)
    };
    drop(scratch);
    report(&args, &metrics, &tally);
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(process_start, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("asha-benchmark: {why}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
