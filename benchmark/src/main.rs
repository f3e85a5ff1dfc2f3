//! `benchmark --workload <name> --seed <n> --seconds <s> --trace 0|1 [--smoke]`
//! runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and every metric by name and unit.
//! `benchmark --aa` compares two sets of runs of the same code.

mod aa;
mod host;
mod lanes;
mod metrics;
mod probe;
mod run;
mod stats;
mod sut;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]
       benchmark --aa [--seed <n>] [--seconds <s>] [--smoke]";

struct Cli {
    args: run::Args,
    aa: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        args: run::Args {
            workload: String::new(),
            seed: 1,
            seconds: workloads::FULL_SECONDS,
            trace: false,
            smoke: false,
        },
        aa: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.args.workload = value()?,
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.args.smoke = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !cli.aa && cli.args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.aa {
        return match aa::run(&cli.args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("benchmark --aa: {why}");
                ExitCode::from(2)
            }
        };
    }
    match run::run(&cli.args, process_start) {
        Ok(outcome) => {
            println!(
                "{}",
                serde_json::to_string(&outcome).expect("an outcome serializes")
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
