//! The experiment harness: the paper's comparisons and the correctness
//! gates, one registry entry each.
//!
//! ```text
//! experiments [--smoke] [NAME... | all]
//! ```
//!
//! [`EXPERIMENTS`] is the whole command line: the names, what each one
//! shows, and the flags each accepts. No name (or `all`) runs every
//! entry; an unknown name or a flag an entry does not accept is an error
//! (the usage text, generated from the table, goes to stderr). `--smoke`
//! shrinks every workload to a CI wiring check. Entries that write a
//! report take `--json=PATH` (default `BENCH_<name>.json`). An entry
//! fails by returning a [`GateFailure`]; `main` prints it and exits
//! non-zero — no gate depends on a wall clock. `EXPERIMENTS.md` records
//! the paper's claim next to each table, and names the `benchmark/`
//! metric for everything this binary used to time.

use atomicity_bench::engines::Engine;
use atomicity_bench::enumerate::{enumerate_histories, standard_programs};
use atomicity_bench::explore::{engine_factory, explore, property_verifier, Script};
use atomicity_bench::table::{f1, pct, Table};
use atomicity_bench::workloads::audit::{run_audit, AuditParams};
use atomicity_bench::workloads::bank::run_bank_ablation;
use atomicity_bench::workloads::bank::{run_bank, BankParams};
use atomicity_bench::workloads::lamport::{run_lamport, AuditMode, LamportParams};
use atomicity_bench::workloads::queue::{paper_history_verdicts, run_queue, QueueParams};
use atomicity_bench::workloads::recovery::{
    run_crash_sweep, run_crash_sweep_with, run_distributed_audits, run_lossy, run_recovery_cost,
};
use atomicity_bench::workloads::skew::{run_skew, SkewParams};
use atomicity_lint::{certify, Property, SynthSuite};
use atomicity_spec::atomicity::{is_atomic, is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
use atomicity_spec::well_formed::WellFormedness;
use atomicity_spec::{op, paper, ObjectId, SystemSpec};
use std::process::ExitCode;

/// One runnable entry of the harness.
struct Experiment {
    /// What the command line calls it.
    name: &'static str,
    /// The `== NAME: title` header, and its line of the usage text.
    title: &'static str,
    /// Options it accepts besides the universal `--smoke`, spelled as the
    /// usage text shows them (`--replay=SEED`).
    flags: &'static [&'static str],
    /// Runs it; `Err` is a failed gate.
    run: fn(&Args) -> Result<(), GateFailure>,
}

/// Why an experiment's gate failed. `main` reports it and exits non-zero.
struct GateFailure(String);

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        title: "bank account — data-dependent admission vs locking (paper §5.1)",
        flags: &[],
        run: e1_bank,
    },
    Experiment {
        name: "e2",
        title: "FIFO queue — interleaved enqueues & the scheduler model (paper §5.1)",
        flags: &[],
        run: e2_queue,
    },
    Experiment {
        name: "e3",
        title: "long read-only audits (paper §4.2.3)",
        flags: &[],
        run: e3_audit,
    },
    Experiment {
        name: "e4",
        title: "Lamport's banking problem (paper §4.3.3)",
        flags: &[],
        run: e4_lamport,
    },
    Experiment {
        name: "e5",
        title: "relating the three properties (paper §4.2.3, §4.3.3)",
        flags: &[],
        run: e5_enumeration,
    },
    Experiment {
        name: "e6",
        title: "recovery — crash sweep over two-phase commit (paper §1, §3)",
        flags: &["--disk"],
        run: e6_recovery,
    },
    Experiment {
        name: "e7",
        title: "clock-skew sensitivity of static atomicity (paper §4.2.3)",
        flags: &[],
        run: e7_skew,
    },
    Experiment {
        name: "e9",
        title: "static analysis — hand-table gaps & linear-time certification (DESIGN.md §5)",
        flags: &[],
        run: e9_static_analysis,
    },
    Experiment {
        name: "e10",
        title: "observability — txn tracing, latency histograms, abort taxonomy (DESIGN.md §6)",
        flags: &["--json=PATH"],
        run: e10_observability,
    },
    Experiment {
        name: "e12",
        title: "deterministic simulation — seed sweep with failure shrinking (DESIGN.md §8)",
        flags: &[
            "--json=PATH",
            "--seeds=N",
            "--replay=SEED",
            "--demo-lost-ack",
        ],
        run: e12_simulation,
    },
    Experiment {
        name: "e13",
        title: "conflict-table synthesis — generated tables & minimality gaps (DESIGN.md §5)",
        flags: &[],
        run: e13_synthesis,
    },
    Experiment {
        name: "e14",
        title: "contended admission — the synthesized table grants under contention",
        flags: &[],
        run: e14_contention,
    },
    Experiment {
        name: "e15",
        title: "partitioned scale-out & dependency-logged recovery, certified bit-equal",
        flags: &["--json=PATH", "--replay=SEED"],
        run: e15_scaleout,
    },
    Experiment {
        name: "e16",
        title: "online streaming atomicity certifier",
        flags: &["--json=PATH", "--demo-violation"],
        run: e16_online,
    },
    Experiment {
        name: "a1",
        title: "ablation — dynamic admission bound (DESIGN.md §4)",
        flags: &[],
        run: a1_ablation,
    },
    Experiment {
        name: "v1",
        title: "exhaustive schedule exploration (model checking the engines)",
        flags: &[],
        run: v1_model_check,
    },
    Experiment {
        name: "lint",
        title: "synthesis gate + nondeterminism scan (the CI gate)",
        flags: &["--json=PATH", "--demo-unsound"],
        run: run_lint,
    },
];

/// The part of an option that identifies it: `--replay=` of
/// `--replay=SEED`, or the whole of a bare `--disk`.
fn option_key(option: &str) -> &str {
    option.find('=').map_or(option, |at| &option[..=at])
}

/// The parsed command line.
struct Args {
    /// Experiment names, as given.
    names: Vec<String>,
    /// Every `--option`, as given.
    options: Vec<String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Self {
        let (options, names) = argv.partition(|a| a.starts_with("--"));
        Args { names, options }
    }

    fn has(&self, flag: &str) -> bool {
        self.options.iter().any(|o| o == flag)
    }

    /// The value of a `--key=VALUE` option.
    fn value(&self, key: &str) -> Option<&str> {
        self.options.iter().find_map(|o| o.strip_prefix(key))
    }

    /// The value of a numeric `--key=N` option; a value that is not a
    /// number is an error, not an absent option.
    fn number(&self, key: &str) -> Result<Option<u64>, GateFailure> {
        self.value(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| GateFailure(format!("{key}{v}: not a number")))
            })
            .transpose()
    }

    /// CI-wiring sizes instead of the full ones.
    fn smoke(&self) -> bool {
        self.has("--smoke")
    }

    /// Where `name`'s report goes: `--json=PATH`, or `BENCH_<name>.json`.
    fn json(&self, name: &str) -> String {
        self.value("--json=")
            .map_or_else(|| format!("BENCH_{name}.json"), str::to_string)
    }

    /// The entries to run, in registry order — or what is wrong with the
    /// command line: an unknown name, or an option one of the selected
    /// entries does not accept.
    fn select(&self) -> Result<Vec<&'static Experiment>, String> {
        for name in &self.names {
            if name != "all" && !EXPERIMENTS.iter().any(|e| e.name == name) {
                return Err(format!("unknown experiment `{name}`"));
            }
        }
        let all = self.names.is_empty() || self.names.iter().any(|n| n == "all");
        let selected: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| all || self.names.iter().any(|n| n == e.name))
            .collect();
        for option in self.options.iter().filter(|o| *o != "--smoke") {
            let key = option_key(option);
            if let Some(e) = selected
                .iter()
                .find(|e| !e.flags.iter().any(|f| option_key(f) == key))
            {
                return Err(format!("`{}` does not accept `{option}`", e.name));
            }
        }
        Ok(selected)
    }
}

fn usage() -> String {
    let mut text = String::from(
        "usage: experiments [--smoke] [NAME... | all]\n\n  \
         --smoke  CI-wiring sizes; accepted by every experiment\n\n",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<5} {}\n", e.name, e.title));
        if !e.flags.is_empty() {
            text.push_str(&format!("        [{}]\n", e.flags.join("] [")));
        }
    }
    text
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let selected = match args.select() {
        Ok(selected) => selected,
        Err(problem) => {
            eprintln!("experiments: {problem}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for e in selected {
        println!("== {}: {}\n", e.name.to_uppercase(), e.title);
        if let Err(GateFailure(why)) = (e.run)(&args) {
            eprintln!("{} FAILED: {why}", e.name.to_uppercase());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Writes an experiment's JSON report.
fn write_report(path: &str, json: String) -> Result<(), GateFailure> {
    std::fs::write(path, json).map_err(|e| GateFailure(format!("cannot write {path}: {e}")))?;
    println!("report written to {path}\n");
    Ok(())
}

/// E16: the online streaming certifier — verdict equality against the
/// post-hoc certifier per property engine, the long-horizon retained-set
/// memory gate, and (with `--demo-violation`) the forged mid-stream
/// violation demonstration. The workload panics on a failed gate.
fn e16_online(args: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::workloads::e16::{run_e16, E16Params};

    let mut params = if args.smoke() {
        E16Params::smoke()
    } else {
        E16Params::full()
    };
    if args.has("--demo-violation") {
        params.demo_violation = true;
    }

    let report = run_e16(&params);

    let mut table = Table::new(vec![
        "seed",
        "engine",
        "mode",
        "committed",
        "online",
        "post-hoc",
        "peak",
    ])
    .with_title(format!(
        "equality: online vs post-hoc verdicts, {} threads x {} txns on {} accounts",
        params.threads, params.equality_txns, params.accounts
    ));
    for row in &report.equality {
        table.row(vec![
            row.seed.to_string(),
            row.engine.clone(),
            row.mode.clone(),
            row.committed.to_string(),
            row.online_verdict.clone(),
            row.post_hoc_verdict.clone(),
            row.peak_retained.to_string(),
        ]);
    }
    println!("{table}");

    let h = &report.horizon;
    let mut table = Table::new(vec![
        "committed",
        "observed",
        "peak retained",
        "bound",
        "verdict",
        "gauge peak",
    ])
    .with_title(format!(
        "long horizon: retiring monitor over {} threads x {} txns (destructive tap)",
        params.threads, params.horizon_txns
    ));
    table.row(vec![
        h.committed.to_string(),
        h.observed.to_string(),
        h.peak_retained.to_string(),
        h.retained_bound.to_string(),
        h.verdict.clone(),
        h.metrics_retained_peak.to_string(),
    ]);
    println!("{table}");

    if let Some(d) = &report.demo {
        println!(
            "demo: forged non-atomic pair flagged at stamp {} of {} observed events ({})\n",
            d.flagged_at_stamp, d.observed, d.verdict
        );
    }

    write_report(&args.json("e16"), report.to_json())
}

/// E15: the partitioned service — shard-count scaling of the open-loop
/// workload in simulated time, and dependency-logged parallel recovery
/// certified bit-equal to serial value-log replay. A full run gates on
/// the scale-out; `--replay=SEED` instead checks that one seed replays
/// bit-identically.
fn e15_scaleout(args: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::workloads::e15::{run_e15, run_scaling_point, E15Params};

    let mut params = if args.smoke() {
        E15Params::smoke()
    } else {
        E15Params::full()
    };

    if let Some(seed) = args.number("--replay=")? {
        // Replay gate: the same seed, twice, at the largest shard count,
        // must be bit-identical.
        params.seed = seed;
        let shards = params.shard_counts.iter().copied().max().unwrap_or(1);
        let a = run_scaling_point(&params, shards);
        let b = run_scaling_point(&params, shards);
        println!(
            "replay seed {seed} at {shards} shards: trace {:#018x} / {:#018x}, state {:#018x} / {:#018x}",
            a.trace_hash, b.trace_hash, a.state_digest, b.state_digest
        );
        if (a.trace_hash, a.state_digest) != (b.trace_hash, b.state_digest) {
            return Err(GateFailure(format!(
                "seed {seed} did not replay identically"
            )));
        }
        println!("replay is bit-identical\n");
        return Ok(());
    }

    let report = run_e15(&params);

    let mut table = Table::new(vec![
        "shards",
        "submitted",
        "committed",
        "aborted",
        "decided by (ms)",
        "commits/sec",
    ])
    .with_title(format!(
        "open-loop bank transfers over {} accounts: {} clients x {} txns/tick x {} ticks (simulated time)",
        params.accounts, params.clients, params.requests_per_tick, params.ticks
    ));
    for row in &report.scaling {
        table.row(vec![
            row.shards.to_string(),
            row.submitted.to_string(),
            row.committed.to_string(),
            row.aborted.to_string(),
            format!("{:.1}", row.decided_by_us as f64 / 1000.0),
            f1(row.commits_per_sec),
        ]);
    }
    println!("{table}");

    let mut table = Table::new(vec!["commits", "log", "bytes", "edges", "pruned"]).with_title(format!(
        "recovery: serial value replay vs {}-thread dependency-graph replay (states certified equal)",
        params.threads
    ));
    for row in &report.recovery {
        table.row(vec![
            row.commits.to_string(),
            if row.dep_logged { "dep" } else { "value" }.into(),
            row.log_bytes.to_string(),
            row.edges.to_string(),
            row.pruned_commuting.to_string(),
        ]);
    }
    println!("{table}");

    write_report(&args.json("e15"), report.to_json())?;

    if args.smoke() {
        return Ok(());
    }

    // The gate: the distinct-key workload must actually scale — the top
    // shard count beats one shard by at least 2x commits/sec of simulated
    // time, which is deterministic for the seed.
    let single = report
        .scaling
        .iter()
        .min_by_key(|r| r.shards)
        .expect("scaling rows");
    let top = report
        .scaling
        .iter()
        .max_by_key(|r| r.shards)
        .expect("scaling rows");
    if top.commits_per_sec < 2.0 * single.commits_per_sec {
        return Err(GateFailure(format!(
            "{} shards reached {:.0} commits/sec, less than 2x the single-shard {:.0}",
            top.shards, top.commits_per_sec, single.commits_per_sec
        )));
    }
    println!(
        "gate: {}x scale-out at {} shards\n",
        f1(top.commits_per_sec / single.commits_per_sec),
        top.shards
    );
    Ok(())
}

/// E1 (§5.1): bank-account concurrency vs. locking, swept over headroom.
fn e1_bank(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let headrooms = [2.0, 1.0, 0.5, 0.1];
    let engines = [
        Engine::Dynamic,
        Engine::Hybrid,
        Engine::Static,
        Engine::CommutativityLocking,
        Engine::TwoPhaseLocking,
    ];
    let mut table = Table::new(vec![
        "engine",
        "headroom",
        "txn/s",
        "withdrawn",
        "insufficient",
        "aborted",
    ])
    .with_title("withdraw-only clients on one shared account");
    for &headroom in &headrooms {
        let params = BankParams {
            threads: 4,
            txns_per_thread: if smoke { 10 } else { 40 },
            amount: 5,
            headroom,
            hold_micros: if smoke { 200 } else { 500 },
        };
        for engine in engines {
            let out = run_bank(engine, &params);
            table.row(vec![
                engine.label().into(),
                format!("{headroom:.1}"),
                f1(out.throughput),
                out.withdrawn.to_string(),
                out.insufficient.to_string(),
                out.aborted.to_string(),
            ]);
        }
    }
    println!("{table}");
    Ok(())
}

/// E2 (§5.1, Fig 5-1): FIFO queue producers + the scheduler-model claim.
fn e2_queue(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let params = QueueParams {
        producers: 4,
        txns_per_producer: if smoke { 5 } else { 20 },
        batch: 4,
        hold_micros: if smoke { 200 } else { 500 },
    };
    let mut table = Table::new(vec!["engine", "txn/s", "committed", "aborted", "drained"])
        .with_title("concurrent enqueue batches");
    for engine in [
        Engine::Dynamic,
        Engine::Hybrid,
        Engine::Static,
        Engine::CommutativityLocking,
        Engine::TwoPhaseLocking,
    ] {
        let out = run_queue(engine, &params);
        table.row(vec![
            engine.label().into(),
            f1(out.throughput),
            out.committed.to_string(),
            out.aborted.to_string(),
            out.drained.to_string(),
        ]);
    }
    println!("{table}");

    let (dynamic_ok, scheduler_ok) = paper_history_verdicts();
    let mut verdicts = Table::new(vec!["model", "admits paper's 1,2,1,2 history?"])
        .with_title("the paper's literal queue history (enqueues interleaved, dequeues 1,2,1,2)");
    verdicts.row(vec![
        "dynamic atomicity (checker)".into(),
        yesno(dynamic_ok),
    ]);
    verdicts.row(vec![
        "scheduler model (Figure 5-1)".into(),
        yesno(scheduler_ok),
    ]);
    println!("{verdicts}");
    Ok(())
}

/// E3 (§4.2.3): long read-only audits against short updates.
fn e3_audit(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let params = AuditParams {
        shards: 4,
        keys_per_shard: 4,
        initial_balance: 1_000,
        updaters: 3,
        txns_per_updater: if smoke { 10 } else { 40 },
        auditors: 2,
        audits_per_auditor: if smoke { 4 } else { 16 },
        hold_micros: 100,
        audit_hold_micros: if smoke { 1_000 } else { 2_000 },
    };
    let mut table = Table::new(vec![
        "engine",
        "updates/s",
        "upd aborts",
        "audits ok",
        "audit aborts",
        "audit ms",
        "inconsistent",
    ])
    .with_title("transfers + full-scan audits");
    for engine in Engine::PROPERTIES {
        let out = run_audit(engine, &params);
        table.row(vec![
            engine.label().into(),
            f1(out.update_throughput),
            out.updates_aborted.to_string(),
            out.audits_committed.to_string(),
            out.audits_aborted.to_string(),
            f1(out.audit_latency.as_secs_f64() * 1_000.0),
            out.audits_inconsistent.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// E4 (§4.3.3): Lamport's banking problem.
fn e4_lamport(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let params = LamportParams {
        shards: 4,
        keys_per_shard: 4,
        initial_balance: 1_000,
        transferrers: 3,
        txns_per_transferrer: if smoke { 15 } else { 60 },
        transfer_hold_micros: 500,
        audits: if smoke { 20 } else { 60 },
        audit_hold_micros: 500,
    };
    let mut table = Table::new(vec![
        "audit discipline",
        "audits",
        "torn audits",
        "torn %",
        "transfers/s",
        "transfer aborts",
    ])
    .with_title("transfers + audits under three audit disciplines");
    for mode in AuditMode::ALL {
        let out = run_lamport(mode, &params);
        table.row(vec![
            mode.label().into(),
            out.audits.to_string(),
            out.torn_audits.to_string(),
            pct(out.torn_audits, out.audits),
            f1(out.transfer_throughput),
            out.transfers_aborted.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// E5 (§4.2.3, §4.3.3): witnesses + exhaustive classification counts.
fn e5_enumeration(_: &Args) -> Result<(), GateFailure> {
    // Part A: the paper's witness histories, classified by the checkers.
    let set = paper::set_system();
    let mut witnesses = Table::new(vec![
        "history (paper §)",
        "atomic",
        "dynamic",
        "static",
        "hybrid",
    ])
    .with_title("the paper's example histories, as classified by the checkers");
    let na = || "n/a".to_string();
    {
        let h = paper::perm_example();
        witnesses.row(vec![
            "§3 perm example".into(),
            yesno(is_atomic(&h, &set)),
            yesno(is_dynamic_atomic(&h, &set)),
            na(),
            na(),
        ]);
        let h = paper::atomic_not_dynamic();
        witnesses.row(vec![
            "§4.1 atomic-not-dynamic".into(),
            yesno(is_atomic(&h, &set)),
            yesno(is_dynamic_atomic(&h, &set)),
            na(),
            na(),
        ]);
        let h = paper::dynamic_example();
        witnesses.row(vec![
            "§4.1 dynamic".into(),
            yesno(is_atomic(&h, &set)),
            yesno(is_dynamic_atomic(&h, &set)),
            na(),
            na(),
        ]);
        let h = paper::atomic_not_static();
        witnesses.row(vec![
            "§4.2 atomic-not-static".into(),
            yesno(is_atomic(&h, &set)),
            na(),
            yesno(is_static_atomic(&h, &set)),
            na(),
        ]);
        let h = paper::static_example();
        witnesses.row(vec![
            "§4.2 static".into(),
            yesno(is_atomic(&h, &set)),
            na(),
            yesno(is_static_atomic(&h, &set)),
            na(),
        ]);
        let h = paper::atomic_not_hybrid();
        witnesses.row(vec![
            "§4.3 atomic-not-hybrid".into(),
            yesno(is_atomic(&h, &set)),
            na(),
            na(),
            yesno(is_hybrid_atomic(&h, &set)),
        ]);
        let h = paper::hybrid_example();
        witnesses.row(vec![
            "§4.3 hybrid".into(),
            yesno(is_atomic(&h, &set)),
            na(),
            na(),
            yesno(is_hybrid_atomic(&h, &set)),
        ]);
        let bank = paper::bank_system();
        let h = paper::bank_concurrent_withdraws();
        witnesses.row(vec![
            "§5.1 concurrent withdraws".into(),
            yesno(is_atomic(&h, &bank)),
            yesno(is_dynamic_atomic(&h, &bank)),
            na(),
            na(),
        ]);
        let q = paper::queue_system();
        let h = paper::queue_interleaved_enqueues();
        witnesses.row(vec![
            "§5.1 queue 1,2,1,2".into(),
            yesno(is_atomic(&h, &q)),
            yesno(is_dynamic_atomic(&h, &q)),
            na(),
            na(),
        ]);
        // Well-formedness witnesses (asserted, not tabulated).
        assert!(WellFormedness::Static.is_well_formed(&paper::static_wf_example()));
        assert!(!WellFormedness::Static.is_well_formed(&paper::static_wf_counterexample()));
        assert!(WellFormedness::Hybrid.is_well_formed(&paper::hybrid_wf_example()));
        assert!(!WellFormedness::Hybrid.is_well_formed(&paper::hybrid_wf_counterexample()));
    }
    println!("{witnesses}");

    // Part B: exhaustive counts.
    let x = ObjectId::new(1);
    let spec = SystemSpec::new().with_object(x, atomicity_spec::specs::IntSetSpec::new());
    let summary = enumerate_histories(x, &spec, &standard_programs());
    let mut counts = Table::new(vec!["class", "histories"]).with_title(format!(
        "exhaustive classification of {} interleavings (a: member(3), b: insert(3), c: member(3))",
        summary.total
    ));
    counts.row(vec!["well-formed".into(), summary.total.to_string()]);
    counts.row(vec!["atomic".into(), summary.atomic.to_string()]);
    counts.row(vec!["dynamic atomic".into(), summary.dynamic.to_string()]);
    counts.row(vec![
        "static atomic (start-order ts)".into(),
        summary.static_start.to_string(),
    ]);
    counts.row(vec![
        "hybrid atomic (commit-order ts)".into(),
        summary.hybrid_commit.to_string(),
    ]);
    counts.row(vec![
        "dynamic, not static".into(),
        summary.dynamic_not_static.to_string(),
    ]);
    counts.row(vec![
        "static, not dynamic".into(),
        summary.static_not_dynamic.to_string(),
    ]);
    counts.row(vec![
        "hybrid, not dynamic".into(),
        summary.hybrid_not_dynamic.to_string(),
    ]);
    counts.row(vec![
        "dynamic, not hybrid (must be 0)".into(),
        summary.dynamic_not_hybrid.to_string(),
    ]);
    counts.row(vec![
        "producible by commut-locking".into(),
        summary.commut_lock_producible.to_string(),
    ]);
    counts.row(vec![
        "producible by 2PL".into(),
        summary.rw_lock_producible.to_string(),
    ]);
    println!("{counts}");
    Ok(())
}

/// E6 (§1, §3): recoverability — crash sweep + recovery-cost comparison.
/// With `disk`, the sweep's stable logs are the real on-disk WAL.
fn e6_recovery(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let disk = args.has("--disk");
    let transfers = if smoke { 3 } else { 6 };
    let stride = if smoke { 4 } else { 2 };
    let (out, backend) = if disk {
        use atomicity_core::recovery::DurableLog;
        use atomicity_durable::{SyncPolicy, Wal, WalOptions};
        use std::sync::Arc;

        let base = std::env::temp_dir().join(format!("atomicity-e6-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let factory = |run: u64, node: atomicity_sim::NodeId| {
            let dir = base.join(format!("run{run}-n{}", node.raw()));
            let (wal, _) = Wal::open(
                &dir,
                WalOptions {
                    sync: SyncPolicy::SyncEach,
                    ..WalOptions::default()
                },
            )
            .expect("open per-node WAL");
            Arc::new(wal) as Arc<dyn DurableLog>
        };
        let out = run_crash_sweep_with(transfers, stride, 17, &factory);
        let _ = std::fs::remove_dir_all(&base);
        (out, "on-disk WAL (sync-each)")
    } else {
        (
            run_crash_sweep(transfers, stride, 17),
            "in-memory StableLog",
        )
    };
    let mut table = Table::new(vec!["metric", "value"]).with_title(format!(
        "crash of every node at every {stride}-th event of a {transfers}-transfer run \
         [logs: {backend}]"
    ));
    table.row(vec!["crash points tested".into(), out.points.to_string()]);
    table.row(vec![
        "atomic + conserved at".into(),
        format!("{}/{}", out.atomic_points, out.points),
    ]);
    table.row(vec!["txns committed".into(), out.committed.to_string()]);
    table.row(vec!["txns aborted".into(), out.aborted.to_string()]);
    table.row(vec!["recoveries".into(), out.recoveries.to_string()]);
    table.row(vec![
        "intentions redone".into(),
        out.redo_records.to_string(),
    ]);
    table.row(vec!["in-doubt resolved".into(), out.in_doubt.to_string()]);
    println!("{table}");

    let mut costs = Table::new(vec![
        "txns",
        "committed %",
        "redo µs",
        "undo µs",
        "redone",
        "undone",
    ])
    .with_title("recovery cost: intentions-list redo vs undo-log rollback");
    for &fraction in &[0.95, 0.5, 0.05] {
        let row = run_recovery_cost(if smoke { 100 } else { 400 }, fraction);
        costs.row(vec![
            row.total_ops.to_string(),
            format!("{:.0}%", fraction * 100.0),
            row.redo_time.as_micros().to_string(),
            row.undo_time.as_micros().to_string(),
            row.redone_ops.to_string(),
            row.undone_txns.to_string(),
        ]);
    }
    println!("{costs}");

    let mut lossy = Table::new(vec![
        "loss %",
        "dup %",
        "committed",
        "aborted",
        "lost",
        "duplicated",
        "resends",
        "atomic",
    ])
    .with_title("unreliable network: vote retransmission keeps two-phase commit atomic");
    for (drop_p, dup_p) in [(0.0, 0.0), (0.1, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)] {
        let row = run_lossy(if smoke { 8 } else { 20 }, drop_p, dup_p, 17);
        lossy.row(vec![
            format!("{:.0}%", drop_p * 100.0),
            format!("{:.0}%", dup_p * 100.0),
            row.committed.to_string(),
            row.aborted.to_string(),
            row.lost.to_string(),
            row.duplicated.to_string(),
            row.resends.to_string(),
            if row.atomic { "yes" } else { "NO" }.into(),
        ]);
    }
    println!("{lossy}");

    let mut audits = Table::new(vec![
        "loss %",
        "dup %",
        "audits",
        "torn",
        "committed",
        "aborted",
        "crashes",
    ])
    .with_title("distributed timestamped audits under failures (§4.3, cluster scale)");
    for (drop_p, dup_p) in [(0.0, 0.0), (0.15, 0.1)] {
        let out = run_distributed_audits(if smoke { 10 } else { 24 }, drop_p, dup_p, 31);
        audits.row(vec![
            format!("{:.0}%", drop_p * 100.0),
            format!("{:.0}%", dup_p * 100.0),
            out.audits.to_string(),
            out.torn.to_string(),
            out.committed.to_string(),
            out.aborted.to_string(),
            out.crashes.to_string(),
        ]);
    }
    println!("{audits}");
    Ok(())
}

/// A1 (ablation, DESIGN.md §4): the dynamic engine's permutation-check
/// bound is the concurrency knob — `max_check = 1` serializes like a
/// lock, larger bounds approach full data-dependent admission.
fn a1_ablation(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let params = BankParams {
        threads: 4,
        txns_per_thread: if smoke { 10 } else { 40 },
        amount: 5,
        headroom: 2.0,
        hold_micros: if smoke { 200 } else { 500 },
    };
    let mut table = Table::new(vec!["max_check", "txn/s", "withdrawn", "aborted"])
        .with_title("E1 workload, dynamic engine, varying permutation-check bound");
    for max_check in [1usize, 2, 3, 4, 6] {
        let out = run_bank_ablation(max_check, &params);
        table.row(vec![
            max_check.to_string(),
            f1(out.throughput),
            out.withdrawn.to_string(),
            out.aborted.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// E7 (§4.2.3): timestamp skew sensitivity.
fn e7_skew(args: &Args) -> Result<(), GateFailure> {
    let smoke = args.smoke();
    let mut table = Table::new(vec!["engine", "skew", "committed", "ts aborts", "abort %"])
        .with_title("read-modify-write updates with per-worker clock skew");
    for &skew in &[0u64, 10, 100, 1_000] {
        for engine in [Engine::Static, Engine::Hybrid] {
            let params = SkewParams {
                workers: 4,
                txns_per_worker: if smoke { 15 } else { 50 },
                skew_ticks: skew,
                keys: 8,
                hold_micros: 50,
            };
            let out = run_skew(engine, &params);
            let total = out.committed + out.ts_aborts + out.other_aborts;
            table.row(vec![
                engine.label().into(),
                skew.to_string(),
                out.committed.to_string(),
                out.ts_aborts.to_string(),
                pct(out.ts_aborts, total),
            ]);
        }
    }
    println!("{table}");
    Ok(())
}

/// V1: exhaustive schedule exploration — every interleaving of the §5.1
/// scenarios, verified against the checkers.
fn v1_model_check(_: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::engines::Engine;
    use atomicity_core::Protocol;
    use atomicity_spec::specs::{BankAccountSpec, FifoQueueSpec};

    let mut table = Table::new(vec![
        "scenario",
        "engine",
        "schedules",
        "blocked edges",
        "wedged",
        "forced aborts",
    ])
    .with_title("every interleaving verified against the protocol's property");

    // §5.1 bank, headroom vs tight, per property engine.
    for (balance, label) in [(100i64, "bank headroom"), (5, "bank tight")] {
        for (engine, protocol) in [
            (Engine::Dynamic, Protocol::Dynamic),
            (Engine::Static, Protocol::Static),
            (Engine::Hybrid, Protocol::Hybrid),
        ] {
            let factory = engine_factory(engine, vec![BankAccountSpec::with_initial(balance)]);
            let scripts = vec![
                Script::update(vec![(0, atomicity_spec::op("withdraw", [4]))]),
                Script::update(vec![(0, atomicity_spec::op("withdraw", [3]))]),
                Script::update(vec![(0, atomicity_spec::op("deposit", [2]))]),
            ];
            let spec = atomicity_spec::SystemSpec::new()
                .with_object(ObjectId::new(1), BankAccountSpec::with_initial(balance));
            let stats = explore(&factory, &scripts, &property_verifier(protocol, spec));
            table.row(vec![
                label.into(),
                engine.label().into(),
                stats.leaves.to_string(),
                stats.blocked_edges.to_string(),
                stats.stuck.to_string(),
                stats.forced_aborts.to_string(),
            ]);
        }
    }
    // §5.1 queue, dynamic vs serial locking.
    for engine in [Engine::Dynamic, Engine::CommutativityLocking] {
        let factory = engine_factory(engine, vec![FifoQueueSpec::new()]);
        let scripts = vec![
            Script::update(vec![
                (0, atomicity_spec::op("enqueue", [1])),
                (0, atomicity_spec::op("enqueue", [2])),
            ]),
            Script::update(vec![
                (0, atomicity_spec::op("enqueue", [1])),
                (0, atomicity_spec::op("enqueue", [2])),
            ]),
        ];
        let spec =
            atomicity_spec::SystemSpec::new().with_object(ObjectId::new(1), FifoQueueSpec::new());
        let stats = explore(
            &factory,
            &scripts,
            &property_verifier(Protocol::Dynamic, spec),
        );
        table.row(vec![
            "queue interleave".into(),
            engine.label().into(),
            stats.leaves.to_string(),
            stats.blocked_edges.to_string(),
            stats.stuck.to_string(),
            stats.forced_aborts.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// E10: the observability layer itself — per-engine latency percentiles
/// and the abort-reason taxonomy over the contended variant of the stress
/// workload (all workers share one account), exported as JSON. The gate
/// is on admission counts: an engine that reports none is mute wiring.
fn e10_observability(args: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::report::ObservabilityReport;
    use atomicity_bench::workloads::stress::{run_stress, StressParams};

    let smoke = args.smoke();
    let (threads, txns) = if smoke { (2, 20) } else { (4, 250) };
    // A modest in-transaction hold keeps the shared lock occupied long
    // enough for the block/abort instrumentation to observe real waits.
    let params = StressParams {
        threads,
        txns_per_thread: txns,
        ops_per_txn: 4,
        hold_micros: if smoke { 20 } else { 50 },
        collect_metrics: true,
        shared_objects: 1,
        ..StressParams::default()
    };
    let outcomes: Vec<_> = Engine::ALL
        .iter()
        .map(|&e| run_stress(e, &params))
        .collect();
    let report = ObservabilityReport::new(&params, &outcomes);

    let fmt_ns = |v: Option<u64>| v.map_or_else(|| "-".into(), |n| n.to_string());
    let mut table = Table::new(vec![
        "engine",
        "txn/s",
        "invoke p50",
        "invoke p95",
        "invoke p99",
        "block p95",
        "commit p95",
        "aborted",
        "trace ev",
    ])
    .with_title(format!(
        "{threads} workers x {txns} txns on ONE shared account; latencies in ns"
    ));
    for row in &report.engines {
        table.row(vec![
            row.engine.clone(),
            f1(row.throughput),
            fmt_ns(row.invoke_ns.p50),
            fmt_ns(row.invoke_ns.p95),
            fmt_ns(row.invoke_ns.p99),
            fmt_ns(row.block_ns.p95),
            fmt_ns(row.commit_ns.p95),
            row.aborted.to_string(),
            row.trace_events.to_string(),
        ]);
    }
    println!("{table}");

    let mut reasons = Table::new(vec!["engine", "reason", "count"])
        .with_title("abort causes recorded at the error sites (may exceed txn aborts)");
    let mut any = false;
    for row in &report.engines {
        for (reason, count) in &row.abort_reasons {
            any = true;
            reasons.row(vec![row.engine.clone(), reason.clone(), count.to_string()]);
        }
    }
    if any {
        println!("{reasons}");
    } else {
        println!("(no aborts recorded on this run)\n");
    }

    write_report(&args.json("e10"), report.to_json())?;

    let silent = report.silent_engines();
    if !silent.is_empty() {
        return Err(GateFailure(format!(
            "engines with zero admissions: {silent:?}"
        )));
    }
    Ok(())
}

/// E14: contended admission on ONE shared account — 8 workers, every
/// engine's history certified, and the synthesized table must actually
/// grant admissions on the two engines that consult it.
fn e14_contention(_: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::workloads::e14::{run_e14, E14Params, E14_ENGINES};

    let params = E14Params::default();
    let mut table = Table::new(vec![
        "engine",
        "committed",
        "aborted",
        "fast adm",
        "blocks",
        "reads",
    ])
    .with_title(format!(
        "{} workers x {} txns x {} deposits on ONE shared account; every run certified",
        params.threads, params.txns_per_thread, params.ops_per_txn
    ));
    let mut mute = Vec::new();
    for engine in E14_ENGINES {
        let out = run_e14(engine, &params);
        table.row(vec![
            engine.label().into(),
            out.committed.to_string(),
            out.aborted.to_string(),
            out.stats.fast_admissions.to_string(),
            out.stats.blocks.to_string(),
            out.reads_committed.to_string(),
        ]);
        if matches!(engine, Engine::Dynamic | Engine::Hybrid) && out.stats.fast_admissions == 0 {
            mute.push(engine.label());
        }
    }
    println!("{table}");
    if !mute.is_empty() {
        return Err(GateFailure(format!(
            "zero table admissions at {} threads: {mute:?}",
            params.threads
        )));
    }
    Ok(())
}

/// E12: the deterministic-simulation seed sweep — full fault matrix per
/// seed, checkpointed invariants, failure shrinking, replayable seeds.
fn e12_simulation(args: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::workloads::e12::{run_seed, run_sweep, E12Params, FaultPlan};

    let mut params = if args.smoke() {
        E12Params::smoke()
    } else {
        E12Params::full()
    };
    if let Some(n) = args.number("--seeds=")? {
        params.seeds = n;
    }
    let demo_lost_ack = args.has("--demo-lost-ack");
    params.demo_lost_ack = demo_lost_ack;

    if let Some(seed) = args.number("--replay=")? {
        // Replay gate: the same seed, twice, must be bit-identical.
        let plan = FaultPlan::full(params.transfers);
        let a = run_seed(seed, &plan, &params);
        let b = run_seed(seed, &plan, &params);
        println!(
            "replay seed {seed}: trace {:#018x} / {:#018x}, state {:#018x} / {:#018x}",
            a.trace_hash, b.trace_hash, a.state_digest, b.state_digest
        );
        if (a.trace_hash, a.state_digest) != (b.trace_hash, b.state_digest) {
            return Err(GateFailure(format!(
                "seed {seed} did not replay identically"
            )));
        }
        println!("replay is bit-identical\n");
        return Ok(());
    }

    let report = run_sweep(&params);

    let mut table = Table::new(vec!["metric", "value"]).with_title(format!(
        "{} seeds x {} transfers, all fault classes enabled",
        report.seeds, params.transfers
    ));
    table.row(vec![
        "txns committed".into(),
        report.faults.committed.to_string(),
    ]);
    table.row(vec![
        "txns aborted".into(),
        report.faults.aborted.to_string(),
    ]);
    table.row(vec!["crashes".into(), report.faults.crashes.to_string()]);
    table.row(vec![
        "  of which MTTF".into(),
        report.faults.mttf_crashes.to_string(),
    ]);
    table.row(vec![
        "recoveries".into(),
        report.faults.recoveries.to_string(),
    ]);
    table.row(vec!["messages lost".into(), report.faults.lost.to_string()]);
    table.row(vec![
        "messages duplicated".into(),
        report.faults.duplicated.to_string(),
    ]);
    table.row(vec![
        "messages reordered".into(),
        report.faults.reordered.to_string(),
    ]);
    table.row(vec![
        "messages cut by partitions".into(),
        report.faults.cut.to_string(),
    ]);
    table.row(vec!["resends".into(), report.faults.resends.to_string()]);
    table.row(vec![
        "invariant checks".into(),
        report.invariant_checks.to_string(),
    ]);
    table.row(vec![
        "violations".into(),
        report.violations.len().to_string(),
    ]);
    println!("{table}");

    for case in &report.violations {
        println!(
            "VIOLATION seed {}: {}\n  shrunk to [{}]: {}\n  replay: experiments e12 --replay={} (trace {})",
            case.seed, case.detail, case.minimal_schedule, case.minimal_detail, case.seed, case.trace_hash
        );
    }

    write_report(&args.json("e12"), report.to_json())?;

    if demo_lost_ack {
        // The gate inverts: the sweep must catch and fully shrink the bug.
        let caught = report
            .violations
            .iter()
            .any(|c| !c.minimal_plan.drop && !c.minimal_plan.mttf && c.minimal_plan.transfers <= 2);
        if !caught {
            return Err(GateFailure(
                "injected lost-ack bug was not caught and shrunk".into(),
            ));
        }
        println!(
            "demo: injected bug caught on {} seed(s) and shrunk to a minimal reproducer\n",
            report.violations.len()
        );
    } else if !report.violations.is_empty() {
        return Err(GateFailure(format!(
            "{} violating seed(s); replay with --replay=<seed>",
            report.violations.len()
        )));
    }
    Ok(())
}

/// E9 (DESIGN.md §5): the static-analysis passes as an experiment — the
/// gap verdict for every hand-written conflict table, and the linear-time
/// certifier against the exhaustive checkers on a real multi-thread
/// history.
fn e9_static_analysis(args: &Args) -> Result<(), GateFailure> {
    use atomicity_bench::workloads::stress::{stress_history, StressParams};
    use atomicity_spec::specs::BankAccountSpec;

    println!("{}", gap_table(atomicity_bench::synthesized_suite()));

    let threads = 4;
    let txns = if args.smoke() { 50 } else { 200 };
    let params = StressParams {
        threads,
        txns_per_thread: txns,
        ops_per_txn: 4,
        ..StressParams::default()
    };
    let (h, spec) = stress_history(Engine::Dynamic, &params);
    let cert = certify(Property::Dynamic, &h, &spec);
    if !cert.is_certified() {
        return Err(GateFailure(format!(
            "certifier rejected a recorded history: {cert}"
        )));
    }
    let exhaustive_ok = (0..threads).all(|t| {
        let oid = ObjectId::new(t as u32 + 1);
        let os = SystemSpec::new().with_object(oid, BankAccountSpec::new());
        is_dynamic_atomic(&h.project_object(oid), &os)
    });
    if !exhaustive_ok {
        return Err(GateFailure(
            "exhaustive checker rejected the history".into(),
        ));
    }

    let mut cmp = Table::new(vec!["checker", "verdict"]).with_title(format!(
        "post-hoc verification of one stress history ({threads} threads × {txns} txns, {} events, dynamic)",
        h.len()
    ));
    cmp.row(vec![
        format!("linear-time certifier ({})", cert.method.label()),
        "certified".into(),
    ]);
    cmp.row(vec![
        "exhaustive per-object checker".into(),
        "atomic".into(),
    ]);
    println!("{cmp}");
    Ok(())
}

/// E13 (DESIGN.md §5): conflict-table synthesis — the generated tables
/// the engines lock with, the hand-table minimality gap report, and the
/// recoverability asymmetries.
fn e13_synthesis(_: &Args) -> Result<(), GateFailure> {
    let suite = atomicity_bench::synthesized_suite();

    let mut table = Table::new(vec![
        "adt",
        "spec",
        "universe",
        "states",
        "rules",
        "commute",
        "asymmetries",
    ])
    .with_title("machine-synthesized conflict tables (pairwise forward commutativity)");
    for s in &suite.syntheses {
        table.row(vec![
            s.table.adt.clone(),
            s.table.spec.clone(),
            s.table.universe.len().to_string(),
            s.table.states_explored.to_string(),
            s.table.rules.len().to_string(),
            s.table.commuting_rules().to_string(),
            s.asymmetries.len().to_string(),
        ]);
    }
    println!("{table}");

    println!("{}", gap_table(suite));

    for g in &suite.gaps {
        for e in &g.over_conservative {
            println!(
                "lost concurrency in `{}`: ({}, {}) [{}] — {}",
                g.hand_table, e.p, e.q, e.relation, e.witness
            );
        }
    }
    println!();
    for s in &suite.syntheses {
        let shown = s.asymmetries.len().min(3);
        for a in &s.asymmetries[..shown] {
            println!("recoverability asymmetry in `{}`: {}", s.table.adt, a);
        }
        if s.asymmetries.len() > shown {
            println!(
                "  (+{} more asymmetries in `{}`)",
                s.asymmetries.len() - shown,
                s.table.adt
            );
        }
    }
    println!();
    Ok(())
}

/// Every hand-written conflict table against the synthesized relation
/// for its ADT, one row per table.
fn gap_table(suite: &SynthSuite) -> Table {
    let mut gaps = Table::new(vec![
        "hand table",
        "adt",
        "justified",
        "data-dep",
        "over-conservative",
        "unsound",
        "verdict",
    ])
    .with_title("hand-written tables vs the synthesized relation (minimality report)");
    for g in &suite.gaps {
        gaps.row(vec![
            g.hand_table.clone(),
            g.adt.clone(),
            g.justified.len().to_string(),
            g.data_dependent.len().to_string(),
            g.over_conservative.len().to_string(),
            g.unsound.len().to_string(),
            if g.minimal { "minimal" } else { "gap" }.to_string(),
        ]);
    }
    gaps
}

/// Scans the workspace sources for nondeterminism escape hatches: the
/// strict deterministic-simulation rules over `crates/sim`, the
/// reproduce-by-seed rules (unseeded RNG) over every crate. Paths resolve
/// relative to this crate's manifest, so the scan works from any working
/// directory as long as the source tree is present.
fn nondet_findings() -> std::io::Result<Vec<atomicity_lint::NondetFinding>> {
    use atomicity_lint::nondet::read_sources_recursive;
    use atomicity_lint::{scan_nondeterminism, NondetConfig};
    let crates_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut findings = Vec::new();
    let sim = read_sources_recursive(&crates_root.join("sim/src"), "sim/")?;
    findings.extend(scan_nondeterminism(
        &sim,
        &NondetConfig::deterministic_sim(),
    ));
    // The partitioned service must be as deterministic as the simulator
    // it is built on: same strict rules (no wall clocks, no ambient
    // randomness). Its recovery *timings* live in the bench crate.
    let dist = read_sources_recursive(&crates_root.join("dist/src"), "dist/")?;
    findings.extend(scan_nondeterminism(
        &dist,
        &NondetConfig::deterministic_sim(),
    ));
    for krate in [
        "adts",
        "analysis",
        "baselines",
        "bench",
        "certify",
        "core",
        "dist",
        "durability",
        "sim",
        "spec",
    ] {
        let files =
            read_sources_recursive(&crates_root.join(krate).join("src"), &format!("{krate}/"))?;
        findings.extend(scan_nondeterminism(&files, &NondetConfig::workspace()));
    }
    Ok(findings)
}

/// Re-proves a generated table from scratch against its own spec and
/// universe — the independent soundness check `lint` gates on.
fn verify_generated(
    table: &atomicity_core::ConflictTable,
    config: &atomicity_lint::SynthConfig,
) -> Vec<atomicity_lint::SoundnessViolation> {
    use atomicity_lint::synth::{
        bank_universe, escrow_universe, map_universe, queue_universe, semiqueue_universe,
        set_universe,
    };
    use atomicity_lint::verify_table;
    use atomicity_spec::specs::{
        BankAccountSpec, EscrowCounterSpec, FifoQueueSpec, IntSetSpec, KvMapSpec, SemiqueueSpec,
    };
    match table.adt.as_str() {
        "bank" => verify_table(&BankAccountSpec::new(), &bank_universe(), config, table),
        "queue" => verify_table(&FifoQueueSpec::new(), &queue_universe(), config, table),
        "set" => verify_table(&IntSetSpec::new(), &set_universe(), config, table),
        "semiqueue" => verify_table(&SemiqueueSpec::new(), &semiqueue_universe(), config, table),
        "map" => verify_table(&KvMapSpec::new(), &map_universe(), config, table),
        "escrow" => verify_table(&EscrowCounterSpec::new(), &escrow_universe(), config, table),
        other => vec![atomicity_lint::SoundnessViolation {
            p: op("?", [] as [i64; 0]),
            q: op("?", [] as [i64; 0]),
            detail: format!("no verification universe for adt `{other}`"),
        }],
    }
}

/// The synthesis section of the lint gate: re-prove every generated table,
/// diff every hand table, write the gap-report JSON to `json_path`.
/// Returns the error count. With `demo_unsound` the generated bank table is corrupted
/// (withdraw/withdraw forced to commute) before verification to
/// demonstrate the failure path.
fn synthesis_gate(demo_unsound: bool, json_path: &str) -> Result<usize, GateFailure> {
    let config = atomicity_lint::SynthConfig::default();
    let suite = atomicity_bench::synthesized_suite();
    let mut errors = 0usize;

    for s in &suite.syntheses {
        let mut table = s.table.clone();
        if demo_unsound && table.adt == "bank" {
            for rule in &mut table.rules {
                if rule.p_name == "withdraw" && rule.q_name == "withdraw" {
                    rule.commutes = true;
                }
            }
        }
        let violations = verify_generated(&table, &config);
        println!(
            "synthesized `{}` table{}: {} rules ({} commuting) over {} states — {} soundness violation(s)",
            table.adt,
            if demo_unsound && table.adt == "bank" {
                " (CORRUPTED: withdraw/withdraw forced to commute)"
            } else {
                ""
            },
            table.rules.len(),
            table.commuting_rules(),
            table.states_explored,
            violations.len(),
        );
        for v in &violations {
            println!("  ERROR unsound entry ({}, {}): {}", v.p, v.q, v.detail);
        }
        for o in s.unsupported() {
            println!("  warning: {o} is accepted in no explored state; its pairs are not diffed");
        }
        errors += violations.len();
    }

    println!();
    for g in &suite.gaps {
        println!(
            "gap report `{}` vs synthesized `{}`: {} justified, {} data-dependent, {} over-conservative, {} unsound — {}",
            g.hand_table,
            g.adt,
            g.justified.len(),
            g.data_dependent.len(),
            g.over_conservative.len(),
            g.unsound.len(),
            if g.minimal { "minimal" } else { "NOT minimal" },
        );
        for e in &g.unsound {
            println!(
                "  ERROR hand table admits non-commuting ({}, {}): {}",
                e.p, e.q, e.witness
            );
        }
        for e in &g.over_conservative {
            println!(
                "  warning: hand table rejects ({}, {}) but it {}",
                e.p, e.q, e.witness
            );
        }
        errors += g.unsound.len();
    }

    #[derive(serde::Serialize)]
    struct SynthGapReport {
        tables: Vec<atomicity_core::ConflictTable>,
        gaps: Vec<atomicity_lint::HandTableGap>,
        asymmetries: Vec<String>,
    }
    let report = SynthGapReport {
        tables: suite.syntheses.iter().map(|s| s.table.clone()).collect(),
        gaps: suite.gaps.clone(),
        asymmetries: suite
            .syntheses
            .iter()
            .flat_map(|s| {
                s.asymmetries
                    .iter()
                    .map(move |a| format!("{}: {}", s.table.adt, a))
            })
            .collect(),
    };
    println!();
    write_report(json_path, serde_json::to_string_pretty(&report).unwrap())?;
    Ok(errors)
}

/// The `lint` subcommand: the synthesis gate and the nondeterminism scan —
/// failing on any generated-table soundness violation, unsound or
/// asymmetric hand-table entry, or nondeterminism finding.
/// Over-conservative hand-table entries are warnings — reported, never
/// fatal. `--demo-unsound` corrupts the generated bank table to
/// demonstrate the failure path.
fn run_lint(args: &Args) -> Result<(), GateFailure> {
    let mut errors = synthesis_gate(args.has("--demo-unsound"), &args.json("synth_gap"))?;
    match nondet_findings() {
        Ok(findings) => {
            println!("nondeterminism scan: {} finding(s)", findings.len());
            for f in &findings {
                println!("  ERROR {f}");
            }
            errors += findings.len();
        }
        Err(e) => println!("nondeterminism scan: skipped (sources unavailable: {e})"),
    }
    if errors > 0 {
        return Err(GateFailure(format!("{errors} error(s)")));
    }
    println!("\nlint: clean");
    Ok(())
}

fn yesno(b: bool) -> String {
    if b { "yes" } else { "no" }.into()
}
