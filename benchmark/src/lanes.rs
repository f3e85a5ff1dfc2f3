//! Lanes: short side-runs of a traced run, each calling one layer's
//! public functions on its own so the layer has a number even where no
//! span can be put around it from outside (the history recorder, the
//! frame codec, the certifier's `observe`), plus the comparisons the
//! paper makes (`K`, no table, lock baselines). A lane does a fixed unit
//! of work again and again until its wall budget is spent, and reports
//! time per unit; every traced run of every workload runs all of them.

use crate::sut::{self, HotGuard};
use crate::workloads::audit::{self, Certify};
use crate::workloads::{durable, hot, LayerValues};
use crate::{stats, workloads::Workload};
use atomicity_certify::OnlineCertifier;
use atomicity_core::recovery::{DurableLog, LogRecord, RecordKind};
use atomicity_core::{
    AdmissionRequest, AtomicObject, CommutesRel, HistoryLog, KeyFootprint, TxnError,
};
use atomicity_dist::deplog::{
    committed_records, map_commutes, parallel_replay, serial_replay, DepGraph,
};
use atomicity_dist::{ShardKvSpec, WorkloadKind};
use atomicity_durable::frame::{encode_frame, read_frame, FrameRead};
use atomicity_durable::SyncPolicy;
use atomicity_lint::{certify, Property};
use atomicity_sim::SimRng;
use atomicity_spec::{op, ActivityId, Event, ObjectId, SequentialSpec, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many lanes [`run_all`] runs, for dividing a run's lane time.
pub const COUNT: u32 = 22;

/// Repeats `unit` until `budget` of wall time is spent (at least once).
/// `unit` returns how much it did and how long the timed part took.
/// Gives (work done, seconds timed).
fn repeat(budget: Duration, mut unit: impl FnMut() -> (u64, Duration)) -> (f64, f64) {
    let start = Instant::now();
    let (mut work, mut timed) = (0u64, Duration::ZERO);
    loop {
        let (w, t) = unit();
        work += w;
        timed += t;
        if start.elapsed() >= budget {
            return (work as f64, timed.as_secs_f64().max(1e-9));
        }
    }
}

fn ns_per(work_and_secs: (f64, f64)) -> f64 {
    work_and_secs.1 * 1e9 / work_and_secs.0.max(1.0)
}

fn per_s(work_and_secs: (f64, f64)) -> f64 {
    work_and_secs.0 / work_and_secs.1
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

pub fn run_all(seed: u64, budget: Duration, into: &mut LayerValues) -> Result<(), String> {
    let root = SimRng::new(seed);

    let (table, took) = timed(sut::synthesized_bank_table);
    into.insert("analysis.synth.suite_ms", took.as_secs_f64() * 1e3);

    spec_lane(budget, into);
    hot_lanes(&root, budget, &table, into);
    threads2_lane(&root, budget, &table, into);
    admission_lanes(budget, &table, into);
    static_lane(&root, budget, into);
    let events = log_lanes(&root, budget, &table, into);
    certify_lanes(&root, budget, &table, &events, into);
    restart_lanes(&root, into)?;
    wal_lanes(&root, budget, into)?;
    frame_lanes(budget, into);
    deplog_lanes(&root, into)?;
    cluster_lane(seed, budget, into);
    Ok(())
}

fn spec_lane(budget: Duration, into: &mut LayerValues) {
    let spec = sut::bank_spec();
    let ops = [
        op("deposit", [5]),
        op("withdraw", [3]),
        op("balance", [] as [i64; 0]),
    ];
    let steps = repeat(budget, || {
        timed(|| {
            let mut state = spec.initial();
            for i in 0..3_000 {
                state = spec.step(&state, &ops[i % 3]).swap_remove(0).1;
            }
            black_box(state);
            3_000
        })
    });
    into.insert("spec.bank.step_ns", ns_per(steps));
}

/// The hot account's script at other interleaving depths, without the
/// table, and under the two lock baselines; and `TxnManager::abort`.
fn hot_lanes(
    root: &SimRng,
    budget: Duration,
    table: &Arc<dyn CommutesRel>,
    into: &mut LayerValues,
) {
    let script = hot::script(&mut root.split("hot", 0), 300);
    let lane = |guard: HotGuard, k: usize| {
        let mut tally = hot::Tally::default();
        let commits = repeat(budget, || {
            let (mgr, account) = sut::hot_account(guard, table);
            let (t, took) =
                timed(|| hot::drive(&mgr, account.as_ref(), &script, k, &mut Vec::new(), None));
            tally.add(&t);
            (t.committed, took)
        });
        (
            per_s(commits),
            tally.admitted as f64 / (tally.admitted + tally.blocked).max(1) as f64,
        )
    };
    into.insert(
        "core.engine.dynamic.replay_lane_tps",
        lane(HotGuard::DynamicReplayOnly, hot::K).0,
    );
    into.insert(
        "core.engine.dynamic.k2_lane_tps",
        lane(HotGuard::DynamicWithTable, 2).0,
    );
    into.insert(
        "core.engine.dynamic.k6_lane_tps",
        lane(HotGuard::DynamicWithTable, 6).0,
    );
    let (tps, admit) = lane(HotGuard::TwoPhaseLocking, hot::K);
    into.insert("baselines.rw_2pl.hot_lane_tps", tps);
    into.insert("baselines.rw_2pl.hot_admit_share", admit);
    let (tps, admit) = lane(HotGuard::CommutativityLocking, hot::K);
    into.insert("baselines.commutativity_lock.hot_lane_tps", tps);
    into.insert("baselines.commutativity_lock.hot_admit_share", admit);

    let (mgr, account) = sut::hot_account(HotGuard::DynamicWithTable, table);
    let aborts = repeat(budget, || {
        let mut took = Duration::ZERO;
        for _ in 0..200 {
            let txn = mgr.begin();
            account
                .try_invoke(&txn, op("deposit", [1]))
                .expect("a lone deposit is admitted");
            took += timed(|| mgr.abort(txn)).1;
        }
        (200, took)
    });
    into.insert("core.manager.abort_ns", ns_per(aborts));
}

/// Two threads on the hot account through the blocking `invoke`: what the
/// scheduler makes of real overlap. Its spread is printed; it gates
/// nothing.
fn threads2_lane(
    root: &SimRng,
    budget: Duration,
    table: &Arc<dyn CommutesRel>,
    into: &mut LayerValues,
) {
    let scripts = [
        hot::script(&mut root.split("threads2", 0), 150),
        hot::script(&mut root.split("threads2", 1), 150),
    ];
    let (mut tps, mut kills, mut begun) = (Vec::new(), 0u64, 0u64);
    let start = Instant::now();
    while tps.len() < 3 || (start.elapsed() < budget && tps.len() < 64) {
        let (mgr, account) = sut::hot_account(HotGuard::DynamicWithTable, table);
        let (outcomes, took) = timed(|| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = scripts
                    .iter()
                    .map(|script| {
                        let (mgr, account) = (&mgr, &account);
                        scope.spawn(move || {
                            let (mut committed, mut killed) = (0u64, 0u64);
                            'txns: for ops in script {
                                let txn = mgr.begin();
                                for operation in ops {
                                    match account.invoke(&txn, operation.clone()) {
                                        Ok(_) => {}
                                        Err(TxnError::Deadlock { .. }) => {
                                            mgr.abort(txn);
                                            killed += 1;
                                            continue 'txns;
                                        }
                                        Err(e) => panic!("threads2 lane: {e}"),
                                    }
                                }
                                mgr.commit(txn).expect("an admitted transaction commits");
                                committed += 1;
                            }
                            (committed, killed)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("lane thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        let committed: u64 = outcomes.iter().map(|o| o.0).sum();
        kills += outcomes.iter().map(|o| o.1).sum::<u64>();
        begun += scripts.iter().map(|s| s.len() as u64).sum::<u64>();
        tps.push(committed as f64 / took.as_secs_f64());
    }
    println!(
        "threads2 lane: {} runs, commit_tps median {:.0}, IQR {:.1} % of it (scheduler-dependent, not gated)",
        tps.len(),
        stats::median(&tps),
        100.0 * stats::iqr_share(&tps),
    );
    into.insert("core.engine.dynamic.threads2_lane_tps", stats::median(&tps));
    into.insert(
        "core.deadlock.kills_per_ktxn",
        kills as f64 * 1e3 / begun.max(1) as f64,
    );
}

/// `admit_one` against `admit_batch` on commuting deposits: one lock
/// acquisition per request against one per 16.
fn admission_lanes(budget: Duration, table: &Arc<dyn CommutesRel>, into: &mut LayerValues) {
    const BATCH: usize = 16;
    let (mgr, account) = sut::hot_account(HotGuard::DynamicWithTable, table);
    let lane = |batched: bool| {
        repeat(budget / 2, || {
            let mut took = Duration::ZERO;
            for _ in 0..50 {
                let txn = mgr.begin();
                account.register_txn(&txn);
                let requests: Vec<_> = (0..BATCH)
                    .map(|_| AdmissionRequest::from_txn(&txn, op("deposit", [1])))
                    .collect();
                took += timed(|| {
                    if batched {
                        black_box(account.admit_batch(&requests));
                    } else {
                        for request in &requests {
                            black_box(account.admit_one(request));
                        }
                    }
                })
                .1;
                mgr.commit(txn).expect("admitted deposits commit");
            }
            (50 * BATCH as u64, took)
        })
    };
    into.insert("core.admission.admit_one_ns", ns_per(lane(false)));
    into.insert("core.admission.admit_batch_ns_per_req", ns_per(lane(true)));
}

/// `spread_audit`'s traffic, one generator, under the static engine.
fn static_lane(root: &SimRng, budget: Duration, into: &mut LayerValues) {
    let script = audit::script(&mut root.split("static", 0), 1_000);
    let mut invoke = (0u64, Duration::ZERO);
    let commits = repeat(budget, || {
        let (mgr, accounts) = sut::static_bank(audit::ACCOUNTS);
        timed(|| {
            for step in &script {
                let txn = if step.read_only {
                    mgr.begin_read_only()
                } else {
                    mgr.begin()
                };
                for (account, operation) in &step.ops {
                    let object = &accounts[*account as usize];
                    let (result, took) = timed(|| object.try_invoke(&txn, operation.clone()));
                    result.expect("timestamps only grow on one thread");
                    invoke = (invoke.0 + 1, invoke.1 + took);
                }
                mgr.commit(txn).expect("an admitted transaction commits");
            }
            script.len() as u64
        })
    });
    into.insert("core.engine.static_ts.spread_lane_tps", per_s(commits));
    into.insert(
        "core.engine.static_ts.invoke_ns",
        ns_per((invoke.0 as f64, invoke.1.as_secs_f64())),
    );
}

/// Runs `spread_audit`'s traffic from one generator and hands back the
/// events it recorded, in stamp order.
fn recorded_events(root: &SimRng, table: &Arc<dyn CommutesRel>, txns: usize) -> Vec<(u64, Event)> {
    let log = HistoryLog::new();
    let (mgr, accounts) = sut::hybrid_bank(audit::ACCOUNTS, table, log.clone());
    let script = audit::script(&mut root.split("events", 0), txns);
    audit::generate(&mgr, &accounts, script, None, &mut Vec::new());
    log.merged_events().collect()
}

/// The history recorder alone: `record`, `snapshot`, and a tap's `poll`.
fn log_lanes(
    root: &SimRng,
    budget: Duration,
    table: &Arc<dyn CommutesRel>,
    into: &mut LayerValues,
) -> Vec<(u64, Event)> {
    let events = recorded_events(root, table, 2_000);
    let mut snapshot = (0u64, Duration::ZERO);
    let mut poll = (0u64, Duration::ZERO);
    let record = repeat(budget, || {
        let log = HistoryLog::new();
        let batch: Vec<Event> = events.iter().map(|(_, e)| e.clone()).collect();
        let mut tap = log.tap();
        let recorded = timed(|| {
            for event in batch {
                log.record(event);
            }
            events.len() as u64
        });
        snapshot = (
            snapshot.0 + 1,
            snapshot.1 + timed(|| black_box(log.snapshot())).1,
        );
        let (polled, took) = timed(|| {
            let mut seen = 0u64;
            while tap.poll(|_, _| seen += 1) > 0 {}
            seen
        });
        poll = (poll.0 + polled, poll.1 + took);
        recorded
    });
    into.insert("core.log.record_ns", ns_per(record));
    into.insert(
        "core.log.snapshot_ms",
        snapshot.1.as_secs_f64() * 1e3 / snapshot.0.max(1) as f64,
    );
    into.insert(
        "core.log.tap_poll_ns_per_event",
        ns_per((poll.0 as f64, poll.1.as_secs_f64())),
    );
    events
}

/// The certifiers alone: the online monitor's `observe` and the post-hoc
/// `certify` over the same events, and one generator with and without
/// the pump thread attached.
fn certify_lanes(
    root: &SimRng,
    budget: Duration,
    table: &Arc<dyn CommutesRel>,
    events: &[(u64, Event)],
    into: &mut LayerValues,
) {
    let system = sut::bank_system(audit::ACCOUNTS);
    let observed = repeat(budget, || {
        let mut monitor =
            OnlineCertifier::new(Property::Hybrid, system.clone(), Some(Arc::clone(table)));
        timed(|| {
            for (stamp, event) in events {
                black_box(monitor.observe(*stamp, event));
            }
            events.len() as u64
        })
    });
    into.insert("certify.observe_ns_per_event", ns_per(observed));

    let history: atomicity_spec::History = events.iter().map(|(_, e)| e.clone()).collect();
    let posthoc = repeat(budget, || {
        timed(|| {
            black_box(certify(Property::Hybrid, &history, &system));
            events.len() as u64
        })
    });
    into.insert(
        "analysis.certify.posthoc_ms_per_kevent",
        ns_per(posthoc) * 1e3 / 1e6,
    );

    let lane = |certify: Certify| {
        let mut w =
            audit::Audit::set_up_with_table(root.split("overhead", 0), 3_000, certify, table);
        let commits = repeat(budget / 2, || {
            let trial = w.trial(&mut Vec::new()).expect("lane trial");
            (trial.committed, Duration::from_nanos(trial.wall_ns))
        });
        per_s(commits)
    };
    into.insert(
        "certify.overhead_share",
        1.0 - lane(Certify::PumpThread) / lane(Certify::Off),
    );
}

/// Restart from a log of `RESTART_COMMITS` commits: `Wal::open` and
/// `IntentionsStore::recover`, as `durable_bank`'s set-up does them.
fn restart_lanes(root: &SimRng, into: &mut LayerValues) -> Result<(), String> {
    let dir = sut::wal_root().join(format!("lane-restart-{}", std::process::id()));
    let script = durable::script(&mut root.split("restart", 0), durable::RESTART_COMMITS);
    let commits = script.len() as f64;
    let restart = durable::write_and_restart(&dir, script)?;
    into.insert("durability.wal.open_ms", restart.open_ns as f64 / 1e6);
    into.insert(
        "core.recovery.recover_ms_per_ktxn",
        restart.recover_ns as f64 / 1e3 / commits,
    );
    Ok(())
}

/// The log with its flush left in, on the sandbox's disk: informational,
/// and the only lanes that wait for a device.
fn wal_lanes(root: &SimRng, budget: Duration, into: &mut LayerValues) -> Result<(), String> {
    let dir = sut::wal_root().join(format!("lane-disk-{}", std::process::id()));
    let io_err = |e: std::io::Error| format!("wal lane: {e}");
    let record = |i: u32| LogRecord {
        txn: ActivityId::new(i + 1),
        object: sut::HOT,
        kind: RecordKind::Prepare {
            ops: vec![(op("deposit", [7]), Value::ok())],
        },
    };

    sut::remove_wal(&dir);
    let wal = sut::flushing_wal(&dir, SyncPolicy::SyncEach).map_err(io_err)?;
    let mut next = 0;
    let appends = repeat(budget, || {
        timed(|| {
            for _ in 0..20 {
                wal.append(record(next));
                next += 1;
            }
            20
        })
    });
    into.insert("durability.wal.disk_sync_us", ns_per(appends) / 1e3);
    drop(wal);

    sut::remove_wal(&dir);
    let wal = sut::flushing_wal(
        &dir,
        SyncPolicy::GroupCommit {
            window: Duration::from_micros(200),
        },
    )
    .map_err(io_err)?;
    let scripts = [
        durable::script(&mut root.split("group", 0), 40),
        durable::script(&mut root.split("group", 1), 40),
    ];
    let mut round = 0u32;
    let commits = repeat(budget, || {
        round += 1;
        timed(|| {
            std::thread::scope(|scope| {
                for (t, script) in scripts.iter().enumerate() {
                    let store = sut::durable_account(Arc::new(wal.clone()));
                    scope.spawn(move || {
                        for (i, ops) in script.iter().enumerate() {
                            let txn = ActivityId::new(round * 1_000 + t as u32 * 100 + i as u32);
                            store.prepare(txn, ops.clone());
                            store.commit(txn);
                        }
                    });
                }
            });
            scripts.iter().map(|s| s.len() as u64).sum()
        })
    });
    into.insert("durability.wal.group_commit_lane_tps", per_s(commits));
    let (stats, took) = timed(|| wal.checkpoint());
    stats.map_err(io_err)?;
    into.insert("durability.wal.checkpoint_ms", took.as_secs_f64() * 1e3);
    // Not dropped: the flusher thread may still hold the strong reference
    // it took for its last flush, and if ours goes first `WalInner::drop`
    // runs on the flusher and joins itself (panic, EDEADLK). Leaked, the
    // flusher stays parked until the process exits.
    std::mem::forget(wal);
    sut::remove_wal(&dir);
    Ok(())
}

fn frame_lanes(budget: Duration, into: &mut LayerValues) {
    let record = LogRecord {
        txn: ActivityId::new(12_345),
        object: sut::HOT,
        kind: RecordKind::Prepare {
            ops: vec![
                (op("deposit", [57]), Value::ok()),
                (op("withdraw", [31]), Value::ok()),
            ],
        },
    };
    let encoded = repeat(budget / 2, || {
        timed(|| {
            for _ in 0..1_000 {
                black_box(encode_frame(black_box(&record)));
            }
            1_000
        })
    });
    let frame = encode_frame(&record);
    let decoded = repeat(budget / 2, || {
        timed(|| {
            for _ in 0..1_000 {
                assert!(matches!(
                    read_frame(black_box(&frame), 0),
                    FrameRead::Record { .. }
                ));
            }
            1_000
        })
    });
    into.insert("durability.frame.encode_ns", ns_per(encoded));
    into.insert("durability.frame.decode_ns", ns_per(decoded));
}

/// Recovery of one shard's dependency-logged commit log: graph build,
/// parallel replay on two threads, and the serial value replay it must
/// equal.
fn deplog_lanes(root: &SimRng, into: &mut LayerValues) -> Result<(), String> {
    const COMMITS: u32 = 2_000;
    let mix = atomicity_dist::Workload::new(WorkloadKind::Marketplace, 2_000, 0.0, 1, 64);
    let mut rng = root.split("deplog", 0);
    let (spec, object) = (ShardKvSpec::new(), ObjectId::new(1));
    let mut log = Vec::with_capacity(2 * COMMITS as usize);
    for i in 0..COMMITS {
        let (txn, ops) = (ActivityId::new(i + 1), mix.next_txn(&mut rng, i));
        let footprint = KeyFootprint::from_ops(&spec, &ops);
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::Prepare { ops },
        });
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::CommitDep { footprint },
        });
    }
    let (graph, build) = timed(|| DepGraph::build(committed_records(&log), map_commutes()));
    let (parallel, parallel_took) = timed(|| parallel_replay(&graph, 2));
    let (serial, serial_took) = timed(|| serial_replay(&log));
    if parallel != serial {
        return Err("dependency-logged parallel replay differs from serial replay".to_string());
    }
    let stats = graph.stats();
    into.insert("dist.deplog.build_ms", build.as_secs_f64() * 1e3);
    into.insert(
        "dist.deplog.parallel_replay_ms",
        parallel_took.as_secs_f64() * 1e3,
    );
    into.insert(
        "dist.deplog.serial_replay_ms",
        serial_took.as_secs_f64() * 1e3,
    );
    into.insert(
        "dist.deplog.pruned_share",
        stats.pruned_commuting as f64 / stats.checked_pairs.max(1) as f64,
    );
    Ok(())
}

/// Eight seeds of the single-coordinator simulator under its full fault
/// matrix: the baseline its fold into `dist` must keep.
fn cluster_lane(seed: u64, budget: Duration, into: &mut LayerValues) {
    let (mut events, mut committed, mut aborted) = (0u64, 0u64, 0u64);
    let seeds = repeat(budget, || {
        timed(|| {
            for i in 0..8 {
                let mut cluster = sut::faulty_cluster(seed.wrapping_mul(8).wrapping_add(i));
                cluster.run_events(60_000);
                cluster.heal();
                let stats = cluster.stats();
                events += stats.events;
                committed += stats.committed;
                aborted += stats.aborted;
            }
            8
        })
    });
    into.insert("sim.cluster.seeds_per_s", per_s(seeds));
    into.insert(
        "sim.cluster.wall_us_per_event",
        seeds.1 * 1e6 / events.max(1) as f64,
    );
    into.insert(
        "sim.cluster.abort_share",
        aborted as f64 / (committed + aborted).max(1) as f64,
    );
}
