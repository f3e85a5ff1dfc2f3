//! One run of one workload: set-up, the verification trial, the trials
//! behind the noise guard, and the metrics they give.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe::{self, Aggregate, Span};
use crate::workloads::{self, LayerValues, Size, Trial, Workload, FULL_SECONDS};
use crate::{host, lanes, stats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's output.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// Times the whole set-up is done, spread over the run; `setup_s` is the
/// median.
const SETUPS: usize = 5;
/// A trial is run again when a calibration loop next to it took this
/// much longer than the fastest one of the run …
const CALIBRATION_SLACK: f64 = 1.25;
/// … at most this many times.
const MAX_RETRIES: u32 = 3;
/// Trials stop early once measuring has taken this multiple of
/// `--seconds` (a host much slower than the reference one).
const OVERRUN: f64 = 1.25;

/// What the trials of a run add up to.
#[derive(Default)]
struct Measured {
    tps: Vec<f64>,
    p50_us: Vec<f64>,
    p95_us: Vec<f64>,
    latency_samples: usize,
    cpu_us_per_commit: Vec<f64>,
    begun: u64,
    failed: u64,
    /// Wall time of the traced trials and the part inside layer calls.
    generator_ns: u64,
    tracked_ns: u64,
    spans: BTreeMap<u16, Aggregate>,
    span_count: u64,
    first_traced: Vec<Span>,
}

impl Measured {
    fn add(&mut self, trial: &Trial, latencies: &mut [u32]) {
        self.tps.push(trial.commit_tps());
        if !latencies.is_empty() {
            latencies.sort_unstable();
            self.p50_us
                .push(f64::from(stats::percentile(latencies, 0.50)) / 1e3);
            self.p95_us
                .push(f64::from(stats::percentile(latencies, 0.95)) / 1e3);
            self.latency_samples += latencies.len();
        }
        self.cpu_us_per_commit
            .push(trial.cpu_ns as f64 / 1e3 / trial.committed.max(1) as f64);
        self.begun += trial.begun;
        self.failed += trial.failed;
        if !trial.spans.is_empty() {
            probe::aggregate(&trial.spans, &mut self.spans);
            self.span_count += trial.spans.len() as u64;
            self.tracked_ns += top_level_ns(&trial.spans);
            self.generator_ns += trial.wall_ns;
            if self.first_traced.is_empty() {
                self.first_traced.clone_from(&trial.spans);
            }
        }
    }
}

/// Share of a run's trials that do better than the value reported.
const BEST_SHARE: f64 = 0.05;

/// The end-to-end value of per-trial figures: the one a twentieth of the
/// trials beat. This host disturbs a run for seconds at a time and almost
/// always by taking speed away, so the median moves with the share of the
/// run that was disturbed, while the trials least disturbed repeat. Not
/// the single best trial: one lucky burst should not set the result
/// (README, "Why the best twentieth").
fn best_twentieth(values: &[f64], higher_is_better: bool) -> f64 {
    let mut ascending = values.to_vec();
    ascending.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let share = if higher_is_better {
        1.0 - BEST_SHARE
    } else {
        BEST_SHARE
    };
    stats::percentile(&ascending, share)
}

/// Time inside layer calls made directly for a request or a trial —
/// these never overlap on one thread, so their sum is busy time.
fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.name != probe::REQUEST)
        .filter(|s| s.parent == probe::NONE || spans[s.parent as usize].name == probe::REQUEST)
        .map(|s| s.end - s.start)
        .sum()
}

struct Guard {
    best_ns: u64,
    /// The calibration after the previous trial, which is also the one
    /// before the next.
    last_ns: u64,
    calibrations: Vec<f64>,
    retries: u32,
}

impl Guard {
    fn calibrate(&mut self) -> u64 {
        let ns = host::calibrate();
        self.best_ns = self.best_ns.min(ns);
        self.last_ns = ns;
        ns
    }

    fn noisy(&self, ns: u64) -> bool {
        ns as f64 > self.best_ns as f64 * CALIBRATION_SLACK
    }
}

/// Runs one trial behind the noise guard: the calibration loop runs
/// between every two trials, and a trial is run again if the loop before
/// or after it shows the host was busy.
fn guarded_trial(
    workload: &mut dyn Workload,
    guard: &mut Guard,
    latencies: &mut Vec<u32>,
    traced: bool,
) -> Result<Trial, String> {
    let mut attempts = 0;
    loop {
        let before = guard.last_ns;
        latencies.clear();
        probe::set_tracing(traced);
        let trial = workload.trial(latencies);
        probe::set_tracing(false);
        let trial = trial?;
        let after = guard.calibrate();
        if attempts < MAX_RETRIES && (guard.noisy(before) || guard.noisy(after)) {
            attempts += 1;
            guard.retries += 1;
            continue;
        }
        guard.calibrations.push(before.max(after) as f64);
        return Ok(trial);
    }
}

/// One complete set-up, timed from `start`: builds the workload from the
/// seed and runs the warm-up trials.
fn set_up(
    name: &str,
    seed: u64,
    size: Size,
    latencies: &mut Vec<u32>,
    start: Instant,
) -> Result<(Box<dyn Workload>, f64), String> {
    let mut workload = workloads::set_up(name, seed, size.txns)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    for _ in 0..size.warmups {
        latencies.clear();
        workload
            .trial(latencies)
            .map_err(|e| format!("warm-up trial: {e}"))?;
    }
    Ok((workload, start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let size = if args.smoke {
        workloads::smoke_size(name)
    } else {
        workloads::full_size(name)
    }
    .ok_or_else(|| format!("unknown workload `{name}`; one of {:?}", workloads::NAMES))?;
    let facts = host::facts();
    fs::create_dir_all(crate::sut::wal_root())
        .map_err(|e| format!("creating benchmark/out: {e}"))?;
    println!(
        "workload {name} seed {} trace {} smoke {} | nproc {} | cpu {} | load {} | commit {} | wal on {} ({}), flush left out",
        args.seed,
        u8::from(args.trace),
        args.smoke,
        facts.nproc,
        facts.cpu_model,
        facts.load_average,
        facts.git_commit,
        crate::sut::wal_root().display(),
        host::filesystem_of(&crate::sut::wal_root()),
    );

    // The first set-up, timed from process start: it builds the workload
    // from the seed and runs the warm-up trials. The others are spread
    // over the run, so that a slow spell of the host covers one of them
    // and not all.
    let mut guard = Guard {
        best_ns: u64::MAX,
        last_ns: 0,
        calibrations: Vec::new(),
        retries: 0,
    };
    let mut latencies: Vec<u32> = Vec::with_capacity(size.txns);
    let (mut workload, first) = set_up(name, args.seed, size, &mut latencies, process_start)?;
    let mut setups = vec![first];
    for _ in 0..3 {
        guard.calibrate();
    }

    let verdict = workload.verify();
    if let Err(why) = &verdict {
        println!("INCORRECT: {why}");
    }

    let trials = planned_trials(size, args);
    let (steal0, ticks0) = host::cpu_ticks();
    let measuring = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds as f64 * OVERRUN);
    let mut untraced = Measured::default();
    let mut traced = Measured::default();
    let mut wrong: Option<String> = None;
    for i in 0..trials {
        if i >= 3 && measuring.elapsed() > deadline {
            println!(
                "stopped after {i} of {trials} trials: {}s budget overrun",
                args.seconds
            );
            break;
        }
        if (i + 1) % trials.div_ceil(SETUPS) == 0 && setups.len() < SETUPS {
            setups.push(set_up(name, args.seed, size, &mut latencies, Instant::now())?.1);
        }
        // A traced run traces two trials in three; the third is the
        // untraced reference for the tracing overhead.
        let trace_this = args.trace && i % 3 != 0;
        match guarded_trial(workload.as_mut(), &mut guard, &mut latencies, trace_this) {
            Ok(trial) => {
                if trace_this {
                    &mut traced
                } else {
                    &mut untraced
                }
                .add(&trial, &mut latencies);
            }
            Err(why) => {
                println!("INCORRECT: trial {i}: {why}");
                wrong = Some(why);
                break;
            }
        }
    }
    let (steal1, ticks1) = host::cpu_ticks();
    let correct = verdict.is_ok() && wrong.is_none();

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    };
    let all = if args.trace { &traced } else { &untraced };
    if all.tps.is_empty() {
        return Err("no trial completed".to_string());
    }
    println!(
        "trials {} x {} txns | set-ups {} | calibration best {} ns, median {:.0} ns, worst kept {:.0} ns | retries {} | per-trial commit_tps: {}",
        all.tps.len(),
        size.txns,
        setups.iter().map(|s| format!("{s:.3}s")).collect::<Vec<_>>().join(" "),
        guard.best_ns,
        stats::median(&guard.calibrations),
        guard.calibrations.iter().copied().fold(0.0, f64::max),
        guard.retries,
        all.tps.iter().map(|t| format!("{t:.0}")).collect::<Vec<_>>().join(" "),
    );
    let spread = stats::quartiles(&all.tps);
    println!(
        "commit_tps best twentieth {:.0} median {:.0} quartiles {:.0}..{:.0}",
        best_twentieth(&all.tps, true),
        stats::median(&all.tps),
        spread.0,
        spread.1,
    );

    if !args.trace {
        let (p50, p95) = workload.fixed_latency_us().unwrap_or_else(|| {
            (
                best_twentieth(&untraced.p50_us, false),
                best_twentieth(&untraced.p95_us, false),
            )
        });
        println!(
            "latency: {} samples over {} trials; p95 has {} samples beyond it per trial",
            untraced.latency_samples,
            untraced.p50_us.len().max(1),
            untraced.latency_samples / untraced.p50_us.len().max(1) / 20,
        );
        let values = [
            stats::median(&setups),
            best_twentieth(&untraced.tps, true),
            p50,
            p95,
            best_twentieth(&untraced.cpu_us_per_commit, false),
            host::peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            put(name, unit, value);
        }
    } else {
        let mut layer = LayerValues::new();
        let lanes_start = Instant::now();
        lanes::run_all(args.seed, lane_budget(args), &mut layer)?;
        layer.insert("bench.lanes_s", lanes_start.elapsed().as_secs_f64());
        workload.layer_values(&mut layer);
        for (span, metric, scale) in SPAN_METRICS {
            let a = traced.spans.get(&span).copied().unwrap_or_default();
            layer.insert(metric, a.self_ns_per_call() / scale);
        }
        let reference = if untraced.tps.is_empty() {
            &traced.tps
        } else {
            &untraced.tps
        };
        let generator_ns = traced.generator_ns.max(1) as f64;
        let untracked_ns = generator_ns - traced.tracked_ns as f64;
        layer.insert(
            "bench.trace_overhead_share",
            1.0 - best_twentieth(&traced.tps, true) / best_twentieth(reference, true),
        );
        layer.insert("bench.untracked_share", untracked_ns / generator_ns);
        layer.insert(
            "bench.generator_ns_per_txn",
            untracked_ns / traced.begun.max(1) as f64,
        );
        layer.insert(
            "bench.calib_drift_share",
            stats::median(&guard.calibrations) / guard.best_ns as f64 - 1.0,
        );
        layer.insert(
            "bench.steal_share",
            (steal1 - steal0) as f64 / (ticks1 - ticks0).max(1) as f64,
        );
        layer.insert(
            "bench.trial_iqr_share",
            if traced.tps.len() >= 2 {
                stats::iqr_share(&traced.tps)
            } else {
                0.0
            },
        );
        layer.insert("bench.retries", f64::from(guard.retries));
        layer.insert("bench.trials", traced.tps.len() as f64);
        layer.insert("bench.traced_spans", traced.span_count as f64);
        print_layer_shares(&traced.spans);
        write_trace(name, &traced).map_err(|e| format!("writing the trace: {e}"))?;
        for (name, unit) in PER_LAYER {
            put(name, unit, layer.get(name).copied().unwrap_or(0.0));
        }
    }
    Ok(Outcome {
        correct,
        attempted: all.begun.max(1),
        failed: all.failed,
        metrics,
    })
}

/// Span name → the per-layer metric holding its mean self time, and the
/// divisor from ns to the metric's unit.
const SPAN_METRICS: [(u16, &str, f64); 12] = [
    (probe::MGR_BEGIN, "core.manager.begin_ns", 1.0),
    (probe::MGR_BEGIN_RO, "core.manager.begin_read_only_ns", 1.0),
    (probe::MGR_COMMIT, "core.manager.commit_ns", 1.0),
    (probe::DYN_INVOKE, "core.engine.dynamic.invoke_ns", 1.0),
    (probe::DYN_BLOCKED, "core.engine.dynamic.blocked_ns", 1.0),
    (probe::HYB_INVOKE, "core.engine.hybrid.invoke_ns", 1.0),
    (probe::HYB_READ_AT, "core.engine.hybrid.read_at_ns", 1.0),
    (probe::REC_PREPARE, "core.recovery.prepare_ns", 1.0),
    (probe::REC_COMMIT, "core.recovery.commit_ns", 1.0),
    (probe::WAL_APPEND, "durability.wal.append_ns", 1.0),
    (probe::WAL_SYNC, "durability.wal.sync_ns", 1.0),
    (probe::DIST_STEP, "dist.service.wall_us_per_event", 1e3),
];

/// The frozen trial count scaled by `--seconds`; a traced run does half
/// of them (a third of those untraced, as the overhead reference).
fn planned_trials(size: Size, args: &Args) -> usize {
    if args.smoke {
        return size.trials;
    }
    let scaled = (size.trials as u64 * args.seconds).div_ceil(FULL_SECONDS) as usize;
    if args.trace {
        (scaled * 3 / 8).max(3)
    } else {
        scaled.max(3)
    }
}

/// Wall time each lane may take: all lanes together about a third of
/// `--seconds`.
fn lane_budget(args: &Args) -> Duration {
    if args.smoke {
        Duration::from_millis(5)
    } else {
        Duration::from_secs_f64(args.seconds as f64 / 3.0 / lanes::COUNT as f64)
    }
}

/// Prints where the traced time went: self time by span name, as a share
/// of all time inside layer calls.
fn print_layer_shares(spans: &BTreeMap<u16, Aggregate>) {
    let calls = || spans.iter().filter(|(name, _)| **name != probe::REQUEST);
    let total: u64 = calls().map(|(_, a)| a.self_ns).sum();
    println!(
        "self time by layer call (share of {:.1} ms inside calls):",
        total as f64 / 1e6
    );
    for (name, a) in calls() {
        println!(
            "  {:<32} {:>9} calls {:>9.0} ns/call self {:>6.1} %",
            probe::name_of(*name),
            a.count,
            a.self_ns_per_call(),
            100.0 * a.self_ns as f64 / total.max(1) as f64,
        );
    }
}

/// Most spans of one trial written out in full; the rest are summarised.
const TRACE_FILE_SPANS: usize = 200_000;

/// Writes `benchmark/out/trace-<workload>.json`: the aggregate by span
/// name over all traced trials, and the first traced trial's spans.
fn write_trace(workload: &str, traced: &Measured) -> io::Result<()> {
    let path = format!("benchmark/out/trace-{workload}.json");
    let mut out = BufWriter::new(fs::File::create(&path)?);
    writeln!(out, "{{\"workload\":\"{workload}\",\"aggregate\":[")?;
    let mut first = true;
    for (name, a) in &traced.spans {
        let comma = if std::mem::take(&mut first) { "" } else { "," };
        writeln!(
            out,
            "{comma}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            probe::name_of(*name),
            a.count,
            a.total_ns,
            a.self_ns
        )?;
    }
    writeln!(
        out,
        "],\"first_traced_trial_spans\":{},\"spans\":[",
        traced.first_traced.len()
    )?;
    for (i, s) in traced
        .first_traced
        .iter()
        .take(TRACE_FILE_SPANS)
        .enumerate()
    {
        let comma = if i == 0 { "" } else { "," };
        let parent = if s.parent == probe::NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        let txn = if s.txn == probe::NONE {
            -1
        } else {
            i64::from(s.txn)
        };
        writeln!(
            out,
            "{comma}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"txn\":{txn}}}",
            probe::name_of(s.name),
            s.start,
            s.end
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()?;
    println!("trace written to {path}");
    Ok(())
}
