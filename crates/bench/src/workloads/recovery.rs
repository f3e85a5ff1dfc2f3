//! E6 — online recoverability under crashes (§1, §3).
//!
//! Two halves:
//!
//! 1. **Crash sweep** over the distributed simulation: a transfer workload
//!    runs while a participant node crashes at every event index in turn.
//!    At every crash point, after healing, the all-or-nothing property and
//!    money conservation must hold — the executable content of
//!    "recoverability" in the paper's definition of atomicity.
//! 2. **Recovery-cost comparison**: intentions-list (redo) recovery cost
//!    scales with *committed* history, undo-log recovery cost with
//!    *uncommitted* operations — the trade the paper's §5.1 model-freedom
//!    argument is about.

use atomicity_core::recovery::{DurableLog, IntentionsStore, StableLog, UndoStore};
use atomicity_sim::{Cluster, NodeId, SimConfig};
use atomicity_spec::specs::KvMapSpec;
use atomicity_spec::{op, ActivityId, ObjectId, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one crash-sweep run.
#[derive(Debug, Clone)]
pub struct CrashSweepOutcome {
    /// Crash points exercised (event-index × node pairs).
    pub points: u64,
    /// Crash points at which atomicity and conservation held (must equal
    /// `points`).
    pub atomic_points: u64,
    /// Transactions committed across all runs.
    pub committed: u64,
    /// Transactions aborted across all runs.
    pub aborted: u64,
    /// Node recoveries performed.
    pub recoveries: u64,
    /// Committed intentions redone during recovery.
    pub redo_records: u64,
    /// In-doubt transactions resolved by asking the coordinator.
    pub in_doubt: u64,
}

/// Sweeps a crash of every node over every `stride`-th event index of a
/// transfer workload, each node backed by the in-memory simulated log.
pub fn run_crash_sweep(transfers: usize, stride: u64, seed: u64) -> CrashSweepOutcome {
    run_crash_sweep_with(transfers, stride, seed, &|_, _| {
        Arc::new(StableLog::new()) as Arc<dyn DurableLog>
    })
}

/// The crash sweep over an arbitrary durable-log factory. `factory` is
/// called with `(run, node)` — `run` counts the clusters built so far —
/// and must return a *fresh, empty* log for that pair (for the on-disk
/// WAL: a distinct directory per run × node). This is the `experiments
/// e6 --disk` path that replays the whole sweep on the real WAL.
pub fn run_crash_sweep_with(
    transfers: usize,
    stride: u64,
    seed: u64,
    factory: &dyn Fn(u64, NodeId) -> Arc<dyn DurableLog>,
) -> CrashSweepOutcome {
    let base_cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut run = 0u64;
    let mut cluster = |cfg: SimConfig| {
        let c = Cluster::with_log_factory(cfg, |id| factory(run, id));
        run += 1;
        c
    };
    // Baseline: how many events does the un-crashed run process?
    let baseline_events = {
        let mut c = cluster(base_cfg.clone());
        submit_all(&mut c, transfers);
        c.run_to_quiescence();
        c.stats().events
    };

    let mut out = CrashSweepOutcome {
        points: 0,
        atomic_points: 0,
        committed: 0,
        aborted: 0,
        recoveries: 0,
        redo_records: 0,
        in_doubt: 0,
    };
    let mut crash_at = 0u64;
    while crash_at <= baseline_events {
        for node in 0..base_cfg.nodes {
            let mut c = cluster(base_cfg.clone());
            submit_all(&mut c, transfers);
            c.schedule_crash(crash_at, NodeId::new(node), 30_000);
            c.run_to_quiescence();
            c.heal();
            out.points += 1;
            let ok = c.verify_atomicity().is_ok() && c.verify_conservation().is_ok();
            if ok {
                out.atomic_points += 1;
            }
            let stats = c.stats();
            out.committed += stats.committed;
            out.aborted += stats.aborted;
            out.recoveries += stats.recoveries;
            out.redo_records += stats.redo_records;
            out.in_doubt += stats.in_doubt;
        }
        crash_at += stride;
    }
    out
}

/// One row of the lossy-network sweep.
#[derive(Debug, Clone)]
pub struct LossyRow {
    /// Injected message-loss probability.
    pub drop_probability: f64,
    /// Injected duplication probability.
    pub duplicate_probability: f64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (vote timeouts from lost prepares/acks).
    pub aborted: u64,
    /// Messages lost in transit.
    pub lost: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Vote retransmissions.
    pub resends: u64,
    /// Whether atomicity and conservation held after healing.
    pub atomic: bool,
}

/// Runs a transfer workload over an unreliable network and reports the
/// outcome: whatever the loss/duplication rate, atomicity must hold.
pub fn run_lossy(transfers: usize, drop_p: f64, dup_p: f64, seed: u64) -> LossyRow {
    let mut cluster = Cluster::new(SimConfig {
        seed,
        drop_probability: drop_p,
        duplicate_probability: dup_p,
        ..SimConfig::default()
    });
    submit_all(&mut cluster, transfers);
    cluster.run_to_quiescence();
    cluster.heal();
    let atomic = cluster.verify_atomicity().is_ok() && cluster.verify_conservation().is_ok();
    let (stats, net) = (cluster.stats(), cluster.network_stats());
    LossyRow {
        drop_probability: drop_p,
        duplicate_probability: dup_p,
        committed: stats.committed,
        aborted: stats.aborted,
        lost: net.lost,
        duplicated: net.duplicated,
        resends: stats.resends,
        atomic,
    }
}

/// Outcome of the distributed-audit scenario.
#[derive(Debug, Clone)]
pub struct DistributedAuditOutcome {
    /// Audits completed.
    pub audits: u64,
    /// Audits observing a non-conserved total (must be 0).
    pub torn: u64,
    /// Transfers committed.
    pub committed: u64,
    /// Transfers aborted.
    pub aborted: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Messages lost in transit.
    pub lost: u64,
}

/// Runs transfers with interleaved timestamped audits over an unreliable
/// network with a node crash; every audit must observe the conserved
/// grand total (§4.3 read-only activities, distributed).
pub fn run_distributed_audits(
    transfers: usize,
    drop_p: f64,
    dup_p: f64,
    seed: u64,
) -> DistributedAuditOutcome {
    let mut cluster = Cluster::new(SimConfig {
        seed,
        drop_probability: drop_p,
        duplicate_probability: dup_p,
        ..SimConfig::default()
    });
    let expected = cluster.account_count() * SimConfig::default().initial_balance;
    let n = cluster.account_count();
    for i in 0..transfers as i64 {
        let (from, to) = (i % n, (i * 3 + 1) % n);
        if from != to {
            cluster.submit_transfer(from, to, 5);
        }
        if i % 3 == 0 {
            cluster.submit_audit();
        }
        cluster.run_events(4);
    }
    cluster.schedule_crash(cluster.stats().events + 2, NodeId::new(1), 20_000);
    cluster.run_to_quiescence();
    cluster.heal();
    cluster
        .verify_atomicity()
        .expect("atomicity under failures");
    cluster
        .verify_conservation()
        .expect("conservation under failures");
    let torn = cluster
        .audit_results()
        .iter()
        .filter(|(_, total)| *total != expected)
        .count() as u64;
    let stats = cluster.stats();
    DistributedAuditOutcome {
        audits: cluster.audit_results().len() as u64,
        torn,
        committed: stats.committed,
        aborted: stats.aborted,
        crashes: stats.crashes,
        lost: cluster.network_stats().lost,
    }
}

fn submit_all(cluster: &mut Cluster, transfers: usize) {
    let n = cluster.account_count();
    for i in 0..transfers as i64 {
        let from = i % n;
        let to = (i * 7 + 3) % n;
        if from != to {
            cluster.submit_transfer(from, to, 5);
        }
    }
}

/// One row of the recovery-cost comparison.
#[derive(Debug, Clone)]
pub struct RecoveryCostRow {
    /// Total operations applied before the crash.
    pub total_ops: usize,
    /// Fraction of transactions committed before the crash.
    pub committed_fraction: f64,
    /// Intentions-list (redo) recovery time.
    pub redo_time: Duration,
    /// Undo-log recovery time.
    pub undo_time: Duration,
    /// Operations redone by intentions recovery.
    pub redone_ops: usize,
    /// Operations undone by undo recovery.
    pub undone_txns: usize,
}

/// Measures recovery cost for both strategies on the same operation
/// stream: `txns` single-op transactions, of which the first
/// `committed_fraction` are committed when the crash hits.
pub fn run_recovery_cost(txns: usize, committed_fraction: f64) -> RecoveryCostRow {
    let object = ObjectId::new(1);
    let committed_count = (txns as f64 * committed_fraction).round() as usize;

    // Intentions-list store.
    let redo = IntentionsStore::new(KvMapSpec::new(), object, StableLog::new());
    for i in 0..txns {
        let txn = ActivityId::new(i as u32 + 1);
        redo.prepare(txn, vec![(op("adjust", [i as i64 % 8, 1]), Value::ok())]);
        if i < committed_count {
            redo.commit(txn);
        }
    }
    redo.crash();
    let begun = Instant::now();
    let outcome = redo.recover();
    let redo_time = begun.elapsed();

    // Undo store over the same stream.
    let undo = UndoStore::new(KvMapSpec::new(), object);
    for i in 0..txns {
        let txn = ActivityId::new(i as u32 + 1);
        undo.apply(txn, (op("adjust", [i as i64 % 8, 1]), Value::ok()));
        if i < committed_count {
            undo.commit(txn);
        }
    }
    let begun = Instant::now();
    let undone = undo.recover();
    let undo_time = begun.elapsed();

    RecoveryCostRow {
        total_ops: txns,
        committed_fraction,
        redo_time,
        undo_time,
        redone_ops: outcome.redone.len(),
        undone_txns: undone.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_crash_sweep_is_fully_atomic() {
        let out = run_crash_sweep(3, 3, 11);
        assert!(out.points > 0);
        assert_eq!(out.atomic_points, out.points, "{out:?}");
        assert!(out.recoveries >= out.points, "every crash recovers");
    }

    #[test]
    fn disk_backed_crash_sweep_matches_in_memory() {
        use atomicity_durable::{SyncPolicy, Wal, WalOptions};

        let base =
            std::env::temp_dir().join(format!("atomicity-e6-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let factory = |run: u64, node: NodeId| {
            let dir = base.join(format!("run{run}-n{}", node.raw()));
            let (wal, info) = Wal::open(
                &dir,
                WalOptions {
                    sync: SyncPolicy::SyncEach,
                    ..WalOptions::default()
                },
            )
            .expect("open node WAL");
            assert_eq!(info.records, 0, "factory must hand out fresh logs");
            Arc::new(wal) as Arc<dyn DurableLog>
        };
        let disk = run_crash_sweep_with(2, 6, 11, &factory);
        let _ = std::fs::remove_dir_all(&base);

        // The sweep is deterministic in everything but the log backend, so
        // the on-disk WAL must reproduce the in-memory outcome exactly.
        let memory = run_crash_sweep(2, 6, 11);
        assert!(disk.points > 0);
        assert_eq!(disk.atomic_points, disk.points, "{disk:?}");
        assert_eq!(disk.committed, memory.committed);
        assert_eq!(disk.aborted, memory.aborted);
        assert_eq!(disk.redo_records, memory.redo_records);
        assert_eq!(disk.in_doubt, memory.in_doubt);
    }

    #[test]
    fn lossy_runs_stay_atomic_across_rates() {
        for (drop_p, dup_p) in [(0.0, 0.0), (0.2, 0.0), (0.0, 0.3), (0.3, 0.2)] {
            let row = run_lossy(12, drop_p, dup_p, 7);
            assert!(row.atomic, "loss {drop_p} dup {dup_p}: {row:?}");
            assert_eq!(row.committed + row.aborted, 12);
        }
    }

    #[test]
    fn distributed_audits_never_torn() {
        for (drop_p, dup_p) in [(0.0, 0.0), (0.2, 0.1)] {
            let out = run_distributed_audits(15, drop_p, dup_p, 31);
            assert!(out.audits > 0);
            assert_eq!(out.torn, 0, "{out:?}");
        }
    }

    #[test]
    fn recovery_costs_scale_opposite_ways() {
        let mostly_committed = run_recovery_cost(200, 0.95);
        let mostly_uncommitted = run_recovery_cost(200, 0.05);
        // Redo work follows committed count; undo work follows
        // uncommitted count.
        assert_eq!(mostly_committed.redone_ops, 190);
        assert_eq!(mostly_committed.undone_txns, 10);
        assert_eq!(mostly_uncommitted.redone_ops, 10);
        assert_eq!(mostly_uncommitted.undone_txns, 190);
    }

    #[test]
    fn recovered_states_agree_between_strategies() {
        let object = ObjectId::new(1);
        let redo = IntentionsStore::new(KvMapSpec::new(), object, StableLog::new());
        let undo = UndoStore::new(KvMapSpec::new(), object);
        for i in 0..20u32 {
            let txn = ActivityId::new(i + 1);
            let pair = (op("adjust", [i64::from(i % 4), 1]), Value::ok());
            redo.prepare(txn, vec![pair.clone()]);
            undo.apply(txn, pair);
            if i % 3 != 0 {
                redo.commit(txn);
                undo.commit(txn);
            }
        }
        redo.crash();
        let _ = redo.recover();
        let _ = undo.recover();
        assert_eq!(redo.committed_frontier(), undo.state());
    }
}
