//! `benchmark --aa`: every workload twice, in opposite orders, each run
//! a process of its own (so `peak_rss_mb` is that run's), and each
//! end-to-end metric's two values against its bound.

use crate::run::{Args, Outcome};
use crate::workloads;
use serde::Deserialize;
use std::process::Command;

/// An end-to-end metric as `BENCHMARK.json` states it: `bound` is the
/// share by which it may worsen before that counts as a regression.
#[derive(Deserialize)]
struct Bounded {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct Contract {
    end_to_end: Vec<Bounded>,
}

fn one_run(args: &Args, workload: &str) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("{workload}: last line is not a result: {e}"))
}

/// Runs the comparison; `Ok(false)` when a metric of the second set is
/// worse than the first by more than its bound, or a run is incorrect.
pub fn run(args: &Args) -> Result<bool, String> {
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    let contract: Contract =
        serde_json::from_str(&contract).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let first: Vec<Outcome> = workloads::NAMES
        .iter()
        .map(|w| one_run(args, w))
        .collect::<Result<_, _>>()?;
    let mut second: Vec<Outcome> = workloads::NAMES
        .iter()
        .rev()
        .map(|w| one_run(args, w))
        .collect::<Result<_, _>>()?;
    second.reverse();

    let mut ok = true;
    println!("| workload | metric | first | second | second worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for ((workload, a), b) in workloads::NAMES.iter().zip(&first).zip(&second) {
        if !(a.correct && b.correct) {
            println!(
                "| {workload} | correct | {} | {} | | | BREACH |",
                a.correct, b.correct
            );
            ok = false;
        }
        for Bounded {
            name: metric,
            better,
            bound,
        } in &contract.end_to_end
        {
            let (x, y) = match (a.metrics.get(metric), b.metrics.get(metric)) {
                (Some(x), Some(y)) => (x.value, y.value),
                _ => return Err(format!("{workload} did not print {metric}")),
            };
            let worse_by = if better == "higher" {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let breach = worse_by > *bound;
            ok &= !breach;
            println!(
                "| {workload} | {metric} | {x:.4} | {y:.4} | {:+.2} % | {:.0} % | {} |",
                100.0 * worse_by,
                100.0 * bound,
                if breach { "BREACH" } else { "" },
            );
        }
    }
    println!(
        "{}",
        if ok {
            "A/A: every metric within its bound"
        } else {
            "A/A: BREACH"
        }
    );
    Ok(ok)
}
