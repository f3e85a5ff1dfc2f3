//! Golden runs: fixed `DistService` configurations must reproduce
//! exactly the runs recorded in `golden_runs.txt` — trace hash, state
//! digest, every `DistStats` counter, and each transaction's simulated
//! submit and decision times. The file was captured from the service as
//! it was while `atomicity-dist` still had its own coordinator, shard
//! node, message set and event loop, before they were folded into the
//! one two-phase-commit core of `atomicity-sim`. Protocol refactors may
//! move code; they may not move a single event.

use atomicity_dist::{CrashPlan, DistConfig, DistService, WorkloadKind};
use atomicity_sim::FaultConfig;
use atomicity_spec::ActivityId;
use std::fmt::Write;

/// The benchmark's `dist_market` service at `seed`.
fn market(seed: u64) -> DistConfig {
    DistConfig {
        seed,
        shards: 4,
        clients: 4,
        requests_per_tick: 4,
        workload: WorkloadKind::Marketplace,
        accounts: 100_000,
        listings: 1_024,
        dep_logging: true,
        faults: FaultConfig::reliable(50, 500),
        ..DistConfig::default()
    }
}

/// The service's own smoke configuration.
fn smoke() -> DistConfig {
    DistConfig {
        seed: 11,
        shards: 4,
        clients: 3,
        requests_per_tick: 3,
        ticks: 8,
        accounts: 10_000,
        ..DistConfig::default()
    }
}

/// Steps `config` to quiescence, writing its fingerprints, its counters
/// and one line per transaction: submit time, decision time, outcome.
fn record(out: &mut String, name: &str, config: DistConfig) {
    let mut service = DistService::new(config);
    let mut submitted_at: Vec<u64> = Vec::new();
    let mut decided: Vec<Option<(u64, bool)>> = Vec::new();
    let mut seen = 0;
    loop {
        let before = service.stats().submitted;
        if !service.step_event() {
            break;
        }
        let (now, stats) = (service.now(), service.stats());
        for _ in before..stats.submitted {
            submitted_at.push(now);
            decided.push(None);
        }
        if stats.committed + stats.aborted > seen {
            seen = stats.committed + stats.aborted;
            for (i, slot) in decided.iter_mut().enumerate() {
                if slot.is_none() {
                    // Transactions are numbered from 1 in submission order.
                    *slot = service
                        .decision(ActivityId::new(i as u32 + 1))
                        .map(|c| (now, c));
                }
            }
        }
    }
    writeln!(out, "== {name}").unwrap();
    writeln!(out, "trace_hash {:#018x}", service.trace_hash()).unwrap();
    writeln!(out, "state_digest {:#018x}", service.state_digest()).unwrap();
    writeln!(out, "{:?}", service.stats()).unwrap();
    writeln!(out, "verify {:?}", service.verify()).unwrap();
    for (i, (submit, decision)) in submitted_at.iter().zip(&decided).enumerate() {
        match decision {
            Some((at, commit)) => {
                let outcome = if *commit { "commit" } else { "abort" };
                writeln!(out, "T{} {submit} {at} {outcome}", i + 1).unwrap();
            }
            None => writeln!(out, "T{} {submit} undecided", i + 1).unwrap(),
        }
    }
}

fn transcript() -> String {
    let mut out = String::new();
    for seed in 1..=3 {
        record(&mut out, &format!("market seed={seed}"), market(seed));
    }
    record(
        &mut out,
        "smoke lossy",
        DistConfig {
            faults: FaultConfig {
                drop_probability: 0.05,
                duplicate_probability: 0.05,
                reorder_probability: 0.1,
                ..FaultConfig::default()
            },
            ..smoke()
        },
    );
    record(
        &mut out,
        "smoke crash",
        DistConfig {
            crashes: vec![CrashPlan {
                at: 2_500,
                shard: 1,
                downtime: 3_000,
            }],
            ..smoke()
        },
    );
    out
}

#[test]
fn service_runs_match_the_golden_file() {
    let actual = transcript();
    let golden = include_str!("golden_runs.txt");
    assert!(
        actual == golden,
        "service runs moved; actual transcript:\n{actual}"
    );
}
