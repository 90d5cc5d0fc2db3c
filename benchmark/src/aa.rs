//! `aa`: the benchmark judging itself by the driver's rule.
//!
//! Two alternating sets of runs of the *same* build, every run with another
//! seed. Per workload and end-to-end metric it prints both medians, both
//! spreads (interquartile range ÷ median) and whether the pair passes: each
//! `work_per_s` spread within the metric's bound, and the second median no
//! worse than the first by more than the bound.

use std::process::Command;

use asha::metrics::JsonValue;

use crate::stats::{median, spread};
use crate::{flag, parse_flags, workloads};

struct MetricRule {
    name: &'static str,
    bound: f64,
    higher_is_better: bool,
    /// Whether the run-to-run spread is held to the bound too.
    spread_gated: bool,
}

/// The end-to-end metrics as `BENCHMARK.json` states them.
const RULES: [MetricRule; 2] = [
    MetricRule {
        name: "work_per_s",
        bound: 0.20,
        higher_is_better: true,
        spread_gated: true,
    },
    MetricRule {
        name: "setup_s",
        bound: 0.25,
        higher_is_better: false,
        spread_gated: false,
    },
];

/// One untraced run as a child process (it inherits this process's CPU
/// affinity); returns the value of every rule's metric.
fn child_run(workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = JsonValue::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: outputs were not correct"));
    }
    RULES
        .iter()
        .map(|rule| {
            result
                .get("metrics")
                .and_then(|m| m.get(rule.name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {}", rule.name))
        })
        .collect()
}

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["seeds", "seconds", "workload", "quick"])?;
    let seeds: u64 = flag(&flags, "seeds", Some(10))?;
    let seconds: f64 = flag(&flags, "seconds", Some(20.0))?;
    let quick = flag(&flags, "quick", Some(0u8))? == 1;
    let only: String = flag(&flags, "workload", Some(String::new()))?;
    if seeds < 2 {
        return Err("--seeds must be at least 2".to_owned());
    }

    println!("| workload | metric | median A | median B | spread A | spread B | B vs A | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for workload in workloads::NAMES
        .iter()
        .filter(|w| only.is_empty() || **w == only)
    {
        // sets[set][rule] = that metric's values over the set's seeds.
        let mut sets = [vec![Vec::new(); RULES.len()], vec![Vec::new(); RULES.len()]];
        for k in 0..seeds {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = 1_000 + 2 * k + set as u64;
                let run = child_run(workload, seed, seconds, quick)?;
                eprintln!(
                    "aa: {workload} set {} seed {seed}: {run:?}",
                    ["A", "B"][set]
                );
                for (slot, value) in values.iter_mut().zip(run) {
                    slot.push(value);
                }
            }
        }
        for (r, rule) in RULES.iter().enumerate() {
            let (a, b) = (&sets[0][r], &sets[1][r]);
            let (med_a, med_b) = (median(a), median(b));
            let (spread_a, spread_b) = (spread(a), spread(b));
            // How much worse B's median is than A's, as a share of A's.
            let worse = if rule.higher_is_better {
                (med_a - med_b) / med_a
            } else {
                (med_b - med_a) / med_a
            };
            let pass = worse <= rule.bound
                && (!rule.spread_gated || (spread_a <= rule.bound && spread_b <= rule.bound));
            all_pass &= pass;
            println!(
                "| {workload} | {} | {med_a:.4} | {med_b:.4} | {spread_a:.4} | {spread_b:.4} | {:+.4} | {} | {} |",
                rule.name,
                -worse,
                rule.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    if all_pass {
        Ok(())
    } else {
        Err("the two sets disagree beyond the benchmark's own bounds".to_owned())
    }
}
