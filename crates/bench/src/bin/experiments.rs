//! The experiment harness: regenerates every comparison in the paper.
//!
//! ```text
//! experiments [--quick] [e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 | all]
//! experiments e6 [--disk]
//! experiments e10 [--smoke] [--json=PATH]
//! experiments e11 [--smoke] [--json=PATH]
//! experiments e12 [--smoke] [--seeds=N] [--json=PATH] [--demo-lost-ack] [--replay=SEED]
//! experiments e14 [--smoke] [--json=PATH]
//! experiments e15 [--smoke] [--json=PATH] [--replay=SEED]
//! experiments e16 [--smoke] [--json=PATH] [--demo-violation]
//! experiments lint [--synth] [--json=PATH] [--demo-unsound]
//! ```
//!
//! Each experiment prints one or more tables; `EXPERIMENTS.md` records the
//! paper's qualitative claim next to a captured run of this binary.
//!
//! `lint` is the CI gate: it audits every hand-written conflict table
//! against the relation derived from its sequential specification, scans
//! the engine sources for lock-ordering cycles, and scans the workspace
//! for nondeterminism escape hatches (wall clocks in the deterministic
//! simulator, unseeded RNG anywhere), exiting non-zero on any unsound
//! table entry, asymmetric entry, lock cycle, or nondeterminism finding.
//! `--synth` additionally runs the conflict-table **synthesis** pass:
//! every generated table is re-proved sound from scratch, every hand table
//! is diffed against the synthesized relation, and the full gap report is
//! written as JSON (default `BENCH_synth_gap.json`, override with
//! `--json=PATH`). `--demo-unsound` corrupts a bank table (the hand one,
//! or the generated one under `--synth`) to demonstrate (and test) the
//! failure path.
//!
//! `e6 --disk` replays the crash sweep with every node's stable log
//! backed by the real on-disk WAL (`atomicity-durable`, sync-each policy)
//! instead of the in-memory simulated one.
//!
//! `e10` and `e11` additionally write their reports as JSON (defaults
//! `BENCH_e10.json` / `BENCH_e11.json`, override with `--json=PATH`);
//! `--smoke` shrinks the workloads to CI wiring checks. `e10` exits
//! non-zero if any engine reports zero admissions — a mute metrics
//! pipeline — and a full (non-smoke) `e11` exits non-zero if group commit
//! fails to beat sync-each by at least 2× at the highest thread count.
//!
//! `e14` is the contended admission sweep: the dynamic and hybrid
//! engines (synthesized table installed), their replay-only reference
//! rows and the lock baselines are measured on ONE shared account across
//! thread counts, with hybrid read-only auditors driving the seqlock read
//! path and every run re-certified by the linear certifier. It writes
//! `BENCH_e14.json` and gates within the run: any run fails if the table
//! grants no admission at the highest thread count, and a full run
//! additionally requires dynamic and hybrid to reach at least 4x their
//! replay-only reference there.
//!
//! `e12` is the deterministic-simulation seed sweep: every seed runs the
//! cluster under the full fault matrix with checkpointed invariant
//! checkers, shrinking any violation to a minimal reproducer. It writes
//! `BENCH_e12.json` and exits non-zero on any violation.
//! `--demo-lost-ack` injects a known atomicity bug and instead exits
//! non-zero unless the sweep catches *and shrinks* it; `--replay=SEED`
//! runs one seed twice and exits non-zero unless the replay is
//! bit-identical (trace hash and state digest).
//!
//! `e15` drives the partitioned transaction service (`atomicity-dist`):
//! an open-loop bank workload is swept over shard counts in simulated
//! time, and per-shard intentions logs of growing sizes are recovered
//! both by serial value replay and by dependency-graph parallel replay
//! (footprints pruned with the synthesized commutativity relation, final
//! states certified equal). It writes `BENCH_e15.json`; a full run exits
//! non-zero unless the top shard count commits at least 2x the
//! single-shard rate and parallel dependency recovery beats serial
//! replay on the largest dependency-logged log. `--replay=SEED` instead
//! runs one scaling point twice and exits non-zero unless the runs are
//! bit-identical.
//!
//! `e16` is the online streaming certifier (`atomicity-certify`): every
//! property engine runs a contended bank workload with an online monitor
//! consuming the live stamp stream, and the final online certificate
//! must agree with the post-hoc linear certifier over the same run's
//! snapshot; a long-horizon dynamic run (≥10x the E10 history) gates the
//! monitor's retained-set high-water mark against the open-transaction
//! footprint; and an A/B/C timing sweep gates the certifier's throughput
//! cost against twice the metrics budget (full runs only). It writes
//! `BENCH_e16.json`. `--demo-violation` forges a non-atomic pair into
//! the live log mid-run and exits non-zero unless the monitor flags it
//! at the offending commit.

use atomicity_bench::engines::map_commutativity;
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
use atomicity_lint::lockorder::read_sources;
use atomicity_lint::{
    audit_lock_order, audit_table, certify, standard_audits, AuditConfig, LockOrderReport,
    PairClass, Property, TableAudit,
};
use atomicity_spec::atomicity::{is_atomic, is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
use atomicity_spec::well_formed::WellFormedness;
use atomicity_spec::{op, paper, ObjectId, SystemSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let disk = args.iter().any(|a| a == "--disk");
    let json_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--json="))
        .map(str::to_string);
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wanted.contains(&"lint") {
        std::process::exit(run_lint(
            args.iter().any(|a| a == "--demo-unsound"),
            args.iter().any(|a| a == "--synth"),
            json_path.as_deref(),
        ));
    }
    let run_all = wanted.is_empty() || wanted.contains(&"all");
    let want = |name: &str| run_all || wanted.contains(&name);

    if want("e1") {
        e1_bank(quick);
    }
    if want("e2") {
        e2_queue(quick);
    }
    if want("e3") {
        e3_audit(quick);
    }
    if want("e4") {
        e4_lamport(quick);
    }
    if want("e5") {
        e5_enumeration();
    }
    if want("e6") {
        e6_recovery(quick, disk);
    }
    if want("e7") {
        e7_skew(quick);
    }
    if want("e8") {
        e8_stress(quick);
    }
    if want("e9") {
        e9_static_analysis(quick);
    }
    if want("e10") {
        e10_observability(
            quick,
            smoke,
            json_path.as_deref().unwrap_or("BENCH_e10.json"),
        );
    }
    if want("e11") {
        e11_wal(
            quick,
            smoke,
            json_path.as_deref().unwrap_or("BENCH_e11.json"),
        );
    }
    if want("e12") {
        let seeds = args
            .iter()
            .find_map(|a| a.strip_prefix("--seeds="))
            .and_then(|s| s.parse::<u64>().ok());
        let replay = args
            .iter()
            .find_map(|a| a.strip_prefix("--replay="))
            .and_then(|s| s.parse::<u64>().ok());
        e12_simulation(
            smoke,
            seeds,
            args.iter().any(|a| a == "--demo-lost-ack"),
            replay,
            json_path.as_deref().unwrap_or("BENCH_e12.json"),
        );
    }
    if want("e13") {
        e13_synthesis();
    }
    if want("e14") {
        e14_contention(
            quick,
            smoke,
            json_path.as_deref().unwrap_or("BENCH_e14.json"),
        );
    }
    if want("e15") {
        let replay = args
            .iter()
            .find_map(|a| a.strip_prefix("--replay="))
            .and_then(|s| s.parse::<u64>().ok());
        // --quick runs the smoke shape: the full sweep's wall-clock
        // recovery gates belong to dedicated full runs, not the
        // all-experiments quick lane.
        e15_scaleout(
            smoke || quick,
            replay,
            json_path.as_deref().unwrap_or("BENCH_e15.json"),
        );
    }
    if want("a1") {
        a1_ablation(quick);
    }
    if want("v1") {
        v1_model_check();
    }
    if want("e16") {
        // --quick runs the smoke shape: sub-percent timing gates belong
        // to dedicated full runs, not the all-experiments quick lane.
        e16_online(
            smoke || quick,
            args.iter().any(|a| a == "--demo-violation"),
            json_path.as_deref().unwrap_or("BENCH_e16.json"),
        );
    }
}

/// E16: the online streaming certifier — verdict equality against the
/// post-hoc certifier per property engine, the long-horizon retained-set
/// memory gate, the throughput-overhead gate, and (with
/// `--demo-violation`) the forged mid-stream violation demonstration.
fn e16_online(smoke: bool, demo: bool, json_path: &str) {
    use atomicity_bench::workloads::e16::{run_e16, E16Params};

    println!("== E16: online streaming atomicity certifier\n");
    let mut params = if smoke {
        E16Params::smoke()
    } else {
        E16Params::full()
    };
    if demo {
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

    let o = &report.overhead;
    let mut table = Table::new(vec![
        "bare tx/s",
        "metrics tx/s",
        "online tx/s",
        "metrics cost",
        "online cost",
        "budget",
        "gated",
    ])
    .with_title(format!(
        "overhead: median of {} trials x {} txns/thread",
        params.overhead_trials, params.overhead_txns
    ));
    table.row(vec![
        f1(o.bare_tps),
        f1(o.metrics_tps),
        f1(o.online_tps),
        format!("{:.2}%", o.metrics_overhead * 100.0),
        format!("{:.2}%", o.online_overhead * 100.0),
        format!("{:.2}%", o.budget * 100.0),
        o.gated.to_string(),
    ]);
    println!("{table}");
    if !o.headroom {
        println!(
            "note: no spare core for the certifier pump (available_parallelism <= {} \
             worker threads); overhead reported ungated\n",
            params.threads
        );
    }

    if let Some(d) = &report.demo {
        println!(
            "demo: forged non-atomic pair flagged at stamp {} of {} observed events ({})\n",
            d.flagged_at_stamp, d.observed, d.verdict
        );
    }

    std::fs::write(json_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("report written to {json_path}\n");
}

/// E15: the partitioned service — shard-count scaling of the open-loop
/// workload, and dependency-logged parallel recovery vs serial value-log
/// replay. Full runs gate on both claims; `--replay=SEED` instead checks
/// that one seed replays bit-identically.
fn e15_scaleout(smoke: bool, replay: Option<u64>, json_path: &str) {
    use atomicity_bench::workloads::e15::{run_e15, run_scaling_point, E15Params};

    println!("== E15: partitioned scale-out & dependency-logged parallel recovery\n");
    let mut params = if smoke {
        E15Params::smoke()
    } else {
        E15Params::full()
    };

    if let Some(seed) = replay {
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
            eprintln!("E15 FAILED: seed {seed} did not replay identically");
            std::process::exit(1);
        }
        println!("replay is bit-identical\n");
        return;
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
        "open-loop bank transfers over {} accounts: {} clients x {} txns/tick x {} ticks",
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

    let mut table = Table::new(vec![
        "commits",
        "log",
        "bytes",
        "serial (ms)",
        "parallel (ms)",
        "speedup",
        "edges",
        "pruned",
    ])
    .with_title(format!(
        "recovery: serial value replay vs {}-thread dependency-graph replay (states certified equal)",
        params.threads
    ));
    for row in &report.recovery {
        table.row(vec![
            row.commits.to_string(),
            if row.dep_logged { "dep" } else { "value" }.into(),
            row.log_bytes.to_string(),
            format!("{:.2}", row.serial_ns as f64 / 1e6),
            format!("{:.2}", row.parallel_ns as f64 / 1e6),
            format!("{:.1}x", row.speedup),
            row.edges.to_string(),
            row.pruned_commuting.to_string(),
        ]);
    }
    println!("{table}");

    std::fs::write(json_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("report written to {json_path}\n");

    if smoke {
        return;
    }

    // Gate 1: the distinct-key workload must actually scale — the top
    // shard count beats one shard by at least 2x commits/sec.
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
        eprintln!(
            "E15 FAILED: {} shards reached {:.0} commits/sec, less than 2x the single-shard {:.0}",
            top.shards, top.commits_per_sec, single.commits_per_sec
        );
        std::process::exit(1);
    }
    // Gate 2: at the largest log, dependency-logged parallel recovery
    // must beat the serial value replay it is certified against.
    let largest = report
        .recovery
        .iter()
        .filter(|r| r.dep_logged)
        .max_by_key(|r| r.commits)
        .expect("recovery rows");
    if largest.parallel_ns >= largest.serial_ns {
        eprintln!(
            "E15 FAILED: parallel dependency recovery ({:.2} ms) did not beat serial value replay ({:.2} ms) at {} commits",
            largest.parallel_ns as f64 / 1e6,
            largest.serial_ns as f64 / 1e6,
            largest.commits
        );
        std::process::exit(1);
    }
    println!(
        "gates: {}x scale-out at {} shards; {:.1}x recovery speedup at {} commits\n",
        f1(top.commits_per_sec / single.commits_per_sec),
        top.shards,
        largest.speedup,
        largest.commits
    );
}

/// E1 (§5.1): bank-account concurrency vs. locking, swept over headroom.
fn e1_bank(quick: bool) {
    println!("== E1: bank account — data-dependent admission vs locking (paper §5.1)\n");
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
            txns_per_thread: if quick { 10 } else { 40 },
            amount: 5,
            headroom,
            hold_micros: if quick { 200 } else { 500 },
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
}

/// E2 (§5.1, Fig 5-1): FIFO queue producers + the scheduler-model claim.
fn e2_queue(quick: bool) {
    println!("== E2: FIFO queue — interleaved enqueues & the scheduler model (paper §5.1)\n");
    let params = QueueParams {
        producers: 4,
        txns_per_producer: if quick { 5 } else { 20 },
        batch: 4,
        hold_micros: if quick { 200 } else { 500 },
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
}

/// E3 (§4.2.3): long read-only audits against short updates.
fn e3_audit(quick: bool) {
    println!("== E3: long read-only audits (paper §4.2.3)\n");
    let params = AuditParams {
        shards: 4,
        keys_per_shard: 4,
        initial_balance: 1_000,
        updaters: 3,
        txns_per_updater: if quick { 10 } else { 40 },
        auditors: 2,
        audits_per_auditor: if quick { 4 } else { 16 },
        hold_micros: 100,
        audit_hold_micros: if quick { 1_000 } else { 2_000 },
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
}

/// E4 (§4.3.3): Lamport's banking problem.
fn e4_lamport(quick: bool) {
    println!("== E4: Lamport's banking problem (paper §4.3.3)\n");
    let params = LamportParams {
        shards: 4,
        keys_per_shard: 4,
        initial_balance: 1_000,
        transferrers: 3,
        txns_per_transferrer: if quick { 15 } else { 60 },
        transfer_hold_micros: 500,
        audits: if quick { 20 } else { 60 },
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
}

/// E5 (§4.2.3, §4.3.3): witnesses + exhaustive classification counts.
fn e5_enumeration() {
    println!("== E5: relating the three properties (paper §4.2.3, §4.3.3)\n");

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
}

/// E6 (§1, §3): recoverability — crash sweep + recovery-cost comparison.
/// With `disk`, the sweep's stable logs are the real on-disk WAL.
fn e6_recovery(quick: bool, disk: bool) {
    println!("== E6: recovery — crash sweep over two-phase commit (paper §1, §3)\n");
    let transfers = if quick { 3 } else { 6 };
    let stride = if quick { 4 } else { 2 };
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
        let row = run_recovery_cost(if quick { 100 } else { 400 }, fraction);
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
        let row = run_lossy(if quick { 8 } else { 20 }, drop_p, dup_p, 17);
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
        let out = run_distributed_audits(if quick { 10 } else { 24 }, drop_p, dup_p, 31);
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
}

/// E8 (DESIGN.md §2): recorder contention under threaded stress —
/// throughput vs. thread count per engine, then the sharded recorder
/// against the single-mutex baseline.
fn e8_stress(quick: bool) {
    use atomicity_bench::workloads::stress::{run_stress, StressParams, STRESS_ENGINES};

    println!("== E8: threaded stress — sharded history recording (DESIGN.md §2)\n");
    let txns = if quick { 50 } else { 200 };
    let mut table = Table::new(vec![
        "engine",
        "threads",
        "txn/s",
        "committed",
        "aborted",
        "events",
        "blocks",
    ])
    .with_title("per-thread accounts; the shared recorder is the serialization point");
    for engine in STRESS_ENGINES {
        for threads in [1usize, 2, 4, 8] {
            let params = StressParams {
                threads,
                txns_per_thread: txns,
                ops_per_txn: 4,
                hold_micros: 0,
                coarse_log: false,
                verify: false,
                exhaustive: false,
                collect_metrics: false,
                shared_objects: 0,
            };
            let out = run_stress(engine, &params);
            table.row(vec![
                engine.label().into(),
                threads.to_string(),
                f1(out.throughput),
                out.committed.to_string(),
                out.aborted.to_string(),
                out.events.to_string(),
                out.stats.blocks.to_string(),
            ]);
        }
    }
    println!("{table}");

    let mut recorder = Table::new(vec!["recorder", "shards", "threads", "txn/s", "events"])
        .with_title("sharded recorder vs the single-mutex baseline (dynamic engine)");
    for coarse in [false, true] {
        for threads in [1usize, 4, 8] {
            let params = StressParams {
                threads,
                txns_per_thread: txns,
                ops_per_txn: 8,
                hold_micros: 0,
                coarse_log: coarse,
                verify: false,
                exhaustive: false,
                collect_metrics: false,
                shared_objects: 0,
            };
            let out = run_stress(Engine::Dynamic, &params);
            recorder.row(vec![
                if coarse { "coarse" } else { "sharded" }.into(),
                out.log_shards.to_string(),
                threads.to_string(),
                f1(out.throughput),
                out.events.to_string(),
            ]);
        }
    }
    println!("{recorder}");
}

/// A1 (ablation, DESIGN.md §4): the dynamic engine's permutation-check
/// bound is the concurrency knob — `max_check = 1` serializes like a
/// lock, larger bounds approach full data-dependent admission.
fn a1_ablation(quick: bool) {
    println!("== A1: ablation — dynamic admission bound (DESIGN.md §4)\n");
    let params = BankParams {
        threads: 4,
        txns_per_thread: if quick { 10 } else { 40 },
        amount: 5,
        headroom: 2.0,
        hold_micros: if quick { 200 } else { 500 },
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
}

/// E7 (§4.2.3): timestamp skew sensitivity.
fn e7_skew(quick: bool) {
    println!("== E7: clock-skew sensitivity of static atomicity (paper §4.2.3)\n");
    let mut table = Table::new(vec!["engine", "skew", "committed", "ts aborts", "abort %"])
        .with_title("read-modify-write updates with per-worker clock skew");
    for &skew in &[0u64, 10, 100, 1_000] {
        for engine in [Engine::Static, Engine::Hybrid] {
            let params = SkewParams {
                workers: 4,
                txns_per_worker: if quick { 15 } else { 50 },
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
}

/// V1: exhaustive schedule exploration — every interleaving of the §5.1
/// scenarios, verified against the checkers.
fn v1_model_check() {
    use atomicity_bench::engines::Engine;
    use atomicity_core::Protocol;
    use atomicity_spec::specs::{BankAccountSpec, FifoQueueSpec};

    println!("== V1: exhaustive schedule exploration (model checking the engines)\n");
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
}

/// E9 (DESIGN.md §5): the static-analysis passes as an experiment — the
/// audit verdict for every hand-written conflict table, the derived lock
/// ordering, and the linear-time certifier against the exhaustive
/// checkers on a real E8 history.
/// E10: the observability layer itself — per-engine latency percentiles
/// and the abort-reason taxonomy over a contended variant of the E8
/// stress workload (all workers share one account), exported as JSON.
fn e10_observability(quick: bool, smoke: bool, json_path: &str) {
    use atomicity_bench::report::ObservabilityReport;
    use atomicity_bench::workloads::stress::{run_stress, StressParams};

    println!("== E10: observability — txn tracing, latency histograms, abort taxonomy (DESIGN.md \u{a7}6)\n");
    let (threads, txns) = if smoke {
        (2, 20)
    } else if quick {
        (4, 60)
    } else {
        (4, 250)
    };
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

    std::fs::write(json_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("report written to {json_path}\n");

    let silent = report.silent_engines();
    if !silent.is_empty() {
        eprintln!("E10 FAILED: engines with zero admissions: {silent:?}");
        std::process::exit(1);
    }
}

/// E14: contended admission on ONE shared account — the dynamic and
/// hybrid engines beside their replay-only reference rows and the lock
/// baselines, gated within the run.
fn e14_contention(quick: bool, smoke: bool, json_path: &str) {
    use atomicity_bench::report::ContentionReport;
    use atomicity_bench::workloads::e14::{e14_matrix, run_e14, E14Params};

    println!("== E14: contended admission — synthesized table vs replay-only reference\n");
    let params = if smoke {
        E14Params::smoke()
    } else if quick {
        E14Params::quick()
    } else {
        E14Params::full()
    };

    let mut outcomes = Vec::new();
    for &threads in &params.threads {
        for (engine, reference) in e14_matrix() {
            outcomes.push(run_e14(engine, reference, threads, &params));
        }
    }
    let report = ContentionReport::new(&params, &outcomes);

    let mut table = Table::new(vec![
        "engine",
        "row",
        "threads",
        "txn/s",
        "committed",
        "aborted",
        "fast adm",
        "blocks",
        "reads",
    ])
    .with_title(format!(
        "{} txns/worker x {} deposits on ONE shared account; every run certified",
        params.txns_per_thread, params.ops_per_txn
    ));
    for row in &report.rows {
        table.row(vec![
            row.engine.clone(),
            if row.reference { "replay-only" } else { "" }.to_string(),
            row.threads.to_string(),
            f1(row.throughput),
            row.committed.to_string(),
            row.aborted.to_string(),
            row.fast_admissions.to_string(),
            row.blocks.to_string(),
            row.reads_committed.to_string(),
        ]);
    }
    println!("{table}");

    std::fs::write(json_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("report written to {json_path}\n");

    // The gates compare rows of this run: at the top thread count the
    // table must actually grant admissions (every run), and a full run
    // must put each engine at least 4x above its replay-only reference.
    // Smoke/quick runs are too small to measure a ratio.
    let top = params.threads.iter().copied().max().unwrap_or(0);
    for engine in [Engine::Dynamic, Engine::Hybrid] {
        let cell = |reference| {
            report
                .row(engine.label(), reference, top)
                .expect("the matrix runs every engine with and without the table")
        };
        let (with_table, replay_only) = (cell(false), cell(true));
        let speedup = with_table.throughput / replay_only.throughput;
        println!(
            "{engine}: {:.1} txn/s at {top} threads vs replay-only {:.1} — {speedup:.1}x",
            with_table.throughput, replay_only.throughput
        );
        if with_table.fast_admissions == 0 {
            eprintln!("E14 FAILED: {engine} recorded zero table admissions at {top} threads");
            std::process::exit(1);
        }
        if !smoke && !quick && speedup < 4.0 {
            eprintln!(
                "E14 FAILED: {engine} at {top} threads is {speedup:.1}x its replay-only \
                 reference, need >= 4x"
            );
            std::process::exit(1);
        }
    }
    println!();
}

/// E11 (DESIGN.md §7): WAL commit throughput — group commit vs.
/// sync-each across writer-thread counts and batching windows, exported
/// as JSON. A full run gates on group commit beating sync-each ≥2× at
/// the highest thread count.
fn e11_wal(quick: bool, smoke: bool, json_path: &str) {
    use atomicity_bench::workloads::wal::{run_wal_bench, WalBenchParams};

    println!("== E11: durability — WAL group commit vs sync-each (DESIGN.md \u{a7}7)\n");
    let params = if smoke {
        WalBenchParams::smoke()
    } else if quick {
        WalBenchParams::quick()
    } else {
        WalBenchParams::full()
    };
    let report = run_wal_bench(&params);

    let fmt_ns = |v: Option<u64>| v.map_or_else(|| "-".into(), |n| n.to_string());
    let mut table = Table::new(vec![
        "mode",
        "window µs",
        "threads",
        "commit/s",
        "fsyncs",
        "mean batch",
        "flush p50 ns",
        "flush p95 ns",
    ])
    .with_title(format!(
        "{} txns/thread, 2 records + 1 durable sync per txn",
        params.txns_per_thread
    ));
    for row in &report.rows {
        table.row(vec![
            row.mode.clone(),
            row.window_us.map_or_else(|| "-".into(), |w| w.to_string()),
            row.threads.to_string(),
            f1(row.commits_per_sec),
            row.fsyncs.to_string(),
            f1(row.mean_batch),
            fmt_ns(row.flush_ns.p50),
            fmt_ns(row.flush_ns.p95),
        ]);
    }
    println!("{table}");

    let top_threads = params.threads.iter().copied().max().unwrap_or(0);
    let speedup = report.group_commit_speedup(top_threads);
    if let Some(s) = speedup {
        println!("group-commit speedup over sync-each at {top_threads} threads: {s:.1}x\n");
    }

    std::fs::write(json_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("report written to {json_path}\n");

    // The CI/acceptance gate: batching fsyncs must actually pay. Smoke
    // runs are too small to measure and only check wiring.
    if !smoke && !quick {
        match speedup {
            Some(s) if s >= 2.0 => {}
            other => {
                eprintln!("E11 FAILED: group-commit speedup at {top_threads} threads was {other:?}, need >= 2x");
                std::process::exit(1);
            }
        }
    }
}

/// E12: the deterministic-simulation seed sweep — full fault matrix per
/// seed, checkpointed invariants, failure shrinking, replayable seeds.
fn e12_simulation(
    smoke: bool,
    seeds: Option<u64>,
    demo_lost_ack: bool,
    replay: Option<u64>,
    json_path: &str,
) {
    use atomicity_bench::workloads::e12::{run_seed, run_sweep, E12Params, FaultPlan};

    println!("== E12: deterministic simulation — seed sweep with failure shrinking (DESIGN.md \u{a7}8)\n");
    let mut params = if smoke {
        E12Params::smoke()
    } else {
        E12Params::full()
    };
    if let Some(n) = seeds {
        params.seeds = n;
    }
    params.demo_lost_ack = demo_lost_ack;

    if let Some(seed) = replay {
        // Replay gate: the same seed, twice, must be bit-identical.
        let plan = FaultPlan::full(params.transfers);
        let a = run_seed(seed, &plan, &params, true);
        let b = run_seed(seed, &plan, &params, true);
        println!(
            "replay seed {seed}: trace {:#018x} / {:#018x}, state {:#018x} / {:#018x}",
            a.trace_hash, b.trace_hash, a.state_digest, b.state_digest
        );
        if (a.trace_hash, a.state_digest) != (b.trace_hash, b.state_digest) {
            eprintln!("E12 FAILED: seed {seed} did not replay identically");
            std::process::exit(1);
        }
        println!("replay is bit-identical\n");
        return;
    }

    let report = run_sweep(&params);

    let mut table = Table::new(vec!["metric", "value"]).with_title(format!(
        "{} seeds x {} transfers, all fault classes enabled",
        report.seeds, params.transfers
    ));
    table.row(vec!["seeds/sec".into(), f1(report.seeds_per_sec)]);
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
        "checker overhead".into(),
        format!("{:.1}%", report.checker_overhead_pct),
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

    std::fs::write(json_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("report written to {json_path}\n");

    if demo_lost_ack {
        // The gate inverts: the sweep must catch and fully shrink the bug.
        let caught = report
            .violations
            .iter()
            .any(|c| !c.minimal_plan.drop && !c.minimal_plan.mttf && c.minimal_plan.transfers <= 2);
        if !caught {
            eprintln!("E12 FAILED: injected lost-ack bug was not caught and shrunk");
            std::process::exit(1);
        }
        println!(
            "demo: injected bug caught on {} seed(s) and shrunk to a minimal reproducer\n",
            report.violations.len()
        );
    } else if !report.violations.is_empty() {
        eprintln!(
            "E12 FAILED: {} violating seed(s); replay with --replay=<seed>",
            report.violations.len()
        );
        std::process::exit(1);
    }
}

fn e9_static_analysis(quick: bool) {
    use atomicity_bench::workloads::stress::{stress_history, StressParams};
    use atomicity_spec::specs::BankAccountSpec;
    use std::time::Instant;

    println!("== E9: static analysis — table audits & linear-time certification (DESIGN.md §5)\n");
    let mut table = Table::new(vec![
        "table",
        "spec",
        "pairs",
        "commute",
        "conflict",
        "conservative",
        "unsound",
        "states",
    ])
    .with_title("hand-written conflict tables vs the relation derived from each spec");
    for audit in all_table_audits() {
        let (mut commute, mut conflict, mut conservative, mut unsound) = (0, 0, 0, 0);
        for f in &audit.findings {
            match f.class {
                PairClass::AgreeCommute => commute += 1,
                PairClass::AgreeConflict => conflict += 1,
                PairClass::Conservative { .. } => conservative += 1,
                PairClass::Unsound(_) | PairClass::Asymmetric => unsound += 1,
                PairClass::Unsupported => {}
            }
        }
        table.row(vec![
            audit.table.clone(),
            audit.spec_name.clone(),
            audit.findings.len().to_string(),
            commute.to_string(),
            conflict.to_string(),
            conservative.to_string(),
            unsound.to_string(),
            audit.states_explored.to_string(),
        ]);
    }
    println!("{table}");

    match lock_order_report() {
        Ok(report) if report.is_clean() => {
            println!(
                "derived lock order ({} locks, {} edges): {}\n",
                report.locks.len(),
                report.edges.len(),
                report.order.join(" < ")
            );
        }
        Ok(report) => println!("lock-order audit found cycles: {:?}\n", report.cycles),
        Err(e) => println!("lock-order audit skipped (sources unavailable: {e})\n"),
    }

    let threads = 4;
    let txns = if quick { 50 } else { 200 };
    let params = StressParams {
        threads,
        txns_per_thread: txns,
        ops_per_txn: 4,
        hold_micros: 0,
        coarse_log: false,
        verify: false,
        exhaustive: false,
        collect_metrics: false,
        shared_objects: 0,
    };
    let (h, spec) = stress_history(Engine::Dynamic, &params);
    let t0 = Instant::now();
    let cert = certify(Property::Dynamic, &h, &spec);
    let linear = t0.elapsed();
    assert!(
        cert.is_certified(),
        "E9: certifier rejected a recorded history: {cert}"
    );
    let t0 = Instant::now();
    let mut exhaustive_ok = true;
    for t in 0..threads {
        let oid = ObjectId::new(t as u32 + 1);
        let ph = h.project_object(oid);
        let os = SystemSpec::new().with_object(oid, BankAccountSpec::new());
        exhaustive_ok &= is_dynamic_atomic(&ph, &os);
    }
    let exhaustive = t0.elapsed();
    assert!(exhaustive_ok, "E9: exhaustive checker rejected the history");

    let mut cmp = Table::new(vec!["checker", "wall µs", "verdict"]).with_title(format!(
        "post-hoc verification of one E8 history ({threads} threads × {txns} txns, dynamic)"
    ));
    cmp.row(vec![
        format!("linear-time certifier ({})", cert.method.label()),
        linear.as_micros().to_string(),
        "certified".into(),
    ]);
    cmp.row(vec![
        "exhaustive per-object checker".into(),
        exhaustive.as_micros().to_string(),
        "atomic".into(),
    ]);
    println!("{cmp}");
    println!(
        "certifier speedup: {:.1}×\n",
        exhaustive.as_secs_f64() / linear.as_secs_f64().max(1e-9)
    );
}

/// E13 (DESIGN.md §5): conflict-table synthesis — the generated tables
/// the engines lock with, the hand-table minimality gap report, the
/// recoverability asymmetries, and the dependency-footprint extraction.
fn e13_synthesis() {
    println!(
        "== E13: conflict-table synthesis — generated tables & minimality gaps (DESIGN.md §5)\n"
    );
    let suite = full_synth_suite();

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
    println!("{gaps}");

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

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/workloads");
    match atomicity_lint::nondet::read_sources_recursive(&root, "bench/workloads/") {
        Ok(files) => {
            let report = atomicity_lint::extract_footprints(&files);
            let mut fp = Table::new(vec!["file", "function", "reads", "writes", "unknown"])
                .with_title("static dependency footprints of the workload transaction programs");
            for f in &report.functions {
                fp.row(vec![
                    f.file.clone(),
                    f.function.clone(),
                    f.reads.join(" "),
                    f.writes.join(" "),
                    f.unknown.join(" "),
                ]);
            }
            println!("{fp}");
            println!(
                "{} writer function(s), {} read-only — the dependency-logging seed for parallel recovery\n",
                report.writers(),
                report.read_only()
            );
        }
        Err(e) => println!("footprint extraction skipped (sources unavailable: {e})\n"),
    }
}

/// The full synthesis suite: the workspace-standard one plus the bench
/// kv-map hand table's gap report (the map hand table lives in this crate,
/// so `atomicity-lint` cannot diff it itself).
fn full_synth_suite() -> atomicity_lint::SynthSuite {
    let mut suite = atomicity_bench::synthesized_suite().clone();
    let map = suite
        .synthesis("map")
        .expect("map table synthesized")
        .clone();
    suite.gaps.push(atomicity_lint::gap_against(
        &map,
        "map_commutativity",
        &map_commutativity,
    ));
    suite
}

/// Every hand-written conflict table in the workspace, audited against
/// its specification: the four baseline tables plus the bench kv-map
/// table.
fn all_table_audits() -> Vec<TableAudit> {
    let config = AuditConfig::default();
    let mut audits = standard_audits(&config);
    audits.push(audit_table(
        "map_commutativity",
        "KvMapSpec",
        &atomicity_spec::specs::KvMapSpec::new(),
        &atomicity_lint::synth::map_universe(),
        map_commutativity,
        &config,
    ));
    audits
}

/// Scans the lock-holding sources (core, engines, baselines, the
/// simulator, and the partitioned service) for the lock-order audit.
/// Paths resolve relative to this crate's manifest, so the scan works
/// from any working directory as long as the source tree is present.
fn lock_order_report() -> std::io::Result<LockOrderReport> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let files = read_sources(&[
        &root.join("core/src"),
        &root.join("core/src/engine"),
        &root.join("baselines/src"),
        &root.join("sim/src"),
        &root.join("dist/src"),
    ])?;
    Ok(audit_lock_order(&files))
}

/// Scans the workspace sources for nondeterminism escape hatches: the
/// strict deterministic-simulation rules over `crates/sim`, the
/// reproduce-by-seed rules (unseeded RNG) over every crate.
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
/// universe — the independent soundness check `lint --synth` gates on.
fn verify_generated(
    table: &atomicity_core::ConflictTable,
    config: &atomicity_lint::SynthConfig,
) -> Vec<atomicity_lint::SoundnessViolation> {
    use atomicity_lint::audit::{bank_universe, queue_universe, semiqueue_universe, set_universe};
    use atomicity_lint::synth::{escrow_universe, map_universe};
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
/// diff every hand table, write the gap-report JSON. Returns the error
/// count. With `demo_unsound` the generated bank table is corrupted
/// (withdraw/withdraw forced to commute) before verification to
/// demonstrate the failure path.
fn run_synth_lint(demo_unsound: bool, json_path: Option<&str>) -> usize {
    let config = atomicity_lint::SynthConfig::default();
    let suite = full_synth_suite();
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
    let path = json_path.unwrap_or("BENCH_synth_gap.json");
    match std::fs::write(path, serde_json::to_string_pretty(&report).unwrap()) {
        Ok(()) => println!("\ngap report written to {path}"),
        Err(e) => {
            println!("\nERROR writing gap report to {path}: {e}");
            errors += 1;
        }
    }
    errors
}

/// The `lint` subcommand: conflict-table audits, the lock-order scan, and
/// the nondeterminism scan — plus, with `--synth`, the synthesis gate —
/// exiting non-zero on any unsound entry, asymmetric entry, lock cycle,
/// or nondeterminism finding. Conservative entries are warnings —
/// reported, never fatal.
fn run_lint(demo_unsound: bool, synth: bool, json_path: Option<&str>) -> i32 {
    println!("== atomicity-lint: conflict-table audit + lock-order audit + nondeterminism scan\n");
    let mut audits = all_table_audits();
    if demo_unsound {
        audits.push(audit_table(
            "bank_commutativity (CORRUPTED: withdraw/withdraw forced to commute)",
            "BankAccountSpec",
            &atomicity_spec::specs::BankAccountSpec::new(),
            &atomicity_lint::audit::bank_universe(),
            |p, q| {
                (p.name() == "withdraw" && q.name() == "withdraw")
                    || atomicity_baselines::bank_commutativity(p, q)
            },
            &AuditConfig::default(),
        ));
    }
    let mut errors = 0usize;
    for audit in &audits {
        let unsound: Vec<_> = audit.errors().collect();
        let warnings: Vec<_> = audit.warnings().collect();
        println!(
            "table `{}` vs {}: {} pairs over {} states{} — {} unsound, {} conservative",
            audit.table,
            audit.spec_name,
            audit.findings.len(),
            audit.states_explored,
            if audit.truncated > 0 {
                " (state sample TRUNCATED)"
            } else {
                ""
            },
            unsound.len(),
            warnings.len(),
        );
        for f in &unsound {
            match &f.class {
                PairClass::Unsound(cx) => {
                    println!("  ERROR unsound entry ({}, {}): {}", f.p, f.q, cx)
                }
                _ => println!("  ERROR {} entry ({}, {})", f.class.label(), f.p, f.q),
            }
        }
        for f in &warnings {
            if let PairClass::Conservative {
                commuting_states,
                total_states,
            } = &f.class
            {
                println!(
                    "  warning: ({}, {}) rejected by the table but commutes in {}/{} states",
                    f.p, f.q, commuting_states, total_states
                );
            }
        }
        errors += unsound.len();
    }
    println!();
    match lock_order_report() {
        Ok(report) => {
            println!(
                "lock-order audit: {} locks, {} acquisition edges",
                report.locks.len(),
                report.edges.len()
            );
            if report.is_clean() {
                println!("  derived order: {}", report.order.join(" < "));
            } else {
                for cycle in &report.cycles {
                    println!("  ERROR lock-order cycle: {}", cycle.join(" -> "));
                    errors += 1;
                }
            }
        }
        // Not an error: the lint still gates the tables when the binary
        // runs from an installed artifact without the source tree.
        Err(e) => println!("lock-order audit: skipped (sources unavailable: {e})"),
    }
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
    if synth {
        println!();
        errors += run_synth_lint(demo_unsound, json_path);
    }
    if errors > 0 {
        println!("\nlint: {errors} error(s)");
        1
    } else {
        println!("\nlint: clean");
        0
    }
}

fn yesno(b: bool) -> String {
    if b { "yes" } else { "no" }.into()
}
