//! E15 — partitioned scale-out and dependency-logged parallel recovery.
//!
//! Two halves, one report (`BENCH_e15.json`):
//!
//! 1. **Scale-out.** The same open-loop bank workload — "millions of
//!    users" hitting mostly-distinct accounts — is pushed through the
//!    partitioned service ([`DistService`]) at increasing shard counts.
//!    Because shards carry a service-time model (`per_batch + per_op·n`),
//!    commits/sec of *simulated* time is a real capacity measure: one
//!    shard saturates and queues, sixteen shards drain the same offered
//!    load almost embarrassingly in parallel. Simulated time makes every
//!    row seed-deterministic (`trace_hash`/`state_digest` replay
//!    bit-for-bit).
//!
//! 2. **Recovery.** Marketplace logs of increasing length are recovered
//!    two ways: serially through the production value-log path
//!    ([`serial_replay`], i.e. [`IntentionsStore::recover`]), and in
//!    parallel from the dependency graph the `CommitDep` footprints
//!    describe ([`parallel_replay`]). Both states are certified equal on
//!    every run. Rows pair dependency-logged logs with plain value logs
//!    of the same history, so the table shows what footprints cost in log
//!    bytes and how much of the graph the synthesized commutativity
//!    relation prunes. How long either replay *takes* is the benchmark's
//!    `dist.deplog.{serial_replay_ms, parallel_replay_ms, build_ms}`.
//!
//! [`IntentionsStore::recover`]: atomicity_core::recovery::IntentionsStore::recover

use crate::report::ReportHeader;
use atomicity_core::{KeyFootprint, LogRecord, RecordKind};
use atomicity_dist::deplog::{
    committed_records, map_commutes, parallel_replay, serial_replay, DepGraph,
};
use atomicity_dist::{DistConfig, DistService, ShardKvSpec, Workload, WorkloadKind};
use atomicity_durable::frame::encode_frame;
use atomicity_sim::SimRng;
use atomicity_spec::{ActivityId, ObjectId};
use serde::{Deserialize, Serialize};

/// Parameters of one E15 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E15Params {
    /// Root seed for the service runs and the generated recovery logs.
    pub seed: u64,
    /// Shard counts swept by the scale-out half.
    pub shard_counts: Vec<u32>,
    /// Open-loop client streams per run.
    pub clients: usize,
    /// Transactions per client per tick.
    pub requests_per_tick: u32,
    /// Ticks per client.
    pub ticks: u64,
    /// Account keyspace ("users"); large ⇒ distinct-key traffic.
    pub accounts: u64,
    /// Committed-transaction counts swept by the recovery half.
    pub recovery_commits: Vec<usize>,
    /// Replay worker threads for the parallel recovery.
    pub threads: usize,
    /// Marketplace listing slots in the recovery logs (small ⇒ real
    /// non-commuting `set` chains in the dependency graph).
    pub listings: u64,
}

impl E15Params {
    /// The full sweep the committed `BENCH_e15.json` records.
    ///
    /// The offered load (clients × requests/tick per tick interval) is
    /// sized to several times one shard's service capacity, so the sweep
    /// measures how many shards the load actually needs rather than how
    /// fast the clients submit.
    pub fn full() -> Self {
        E15Params {
            seed: 1,
            shard_counts: vec![1, 2, 4, 8, 16],
            clients: 8,
            requests_per_tick: 64,
            ticks: 40,
            accounts: 1_000_000,
            recovery_commits: vec![1_000, 5_000, 20_000],
            threads: 8,
            listings: 64,
        }
    }

    /// CI wiring check: seconds, not minutes.
    pub fn smoke() -> Self {
        E15Params {
            shard_counts: vec![1, 8],
            clients: 2,
            requests_per_tick: 64,
            ticks: 4,
            accounts: 10_000,
            recovery_commits: vec![300],
            threads: 4,
            ..E15Params::full()
        }
    }

    /// The service configuration for one shard count of the sweep.
    ///
    /// The coordinator timeout is stretched far past the drain time of
    /// the deliberately-overloaded single-shard point: this sweep
    /// measures capacity, not overload shedding, so backlogged
    /// transactions must commit late instead of timing out.
    pub fn service_config(&self, shards: u32) -> DistConfig {
        DistConfig {
            seed: self.seed,
            shards,
            clients: self.clients,
            requests_per_tick: self.requests_per_tick,
            ticks: self.ticks,
            accounts: self.accounts,
            workload: WorkloadKind::Bank,
            dep_logging: true,
            txn_timeout: 10_000_000,
            resolve_timeout: 2_000_000,
            ..DistConfig::default()
        }
    }
}

/// One shard count of the scale-out sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Shard count.
    pub shards: u32,
    /// Transactions submitted / committed / aborted.
    pub submitted: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Simulated time of the last decision (µs).
    pub decided_by_us: u64,
    /// Committed transactions per second of simulated time.
    pub commits_per_sec: f64,
    /// Replay fingerprint: the run's rolling trace hash.
    pub trace_hash: u64,
    /// Replay fingerprint: digest of final states + decisions.
    pub state_digest: u64,
}

/// Runs one service at `shards` and reduces it to a row.
pub fn run_scaling_point(params: &E15Params, shards: u32) -> ScalingRow {
    let mut service = DistService::new(params.service_config(shards));
    service.run_to_quiescence();
    service
        .verify()
        .unwrap_or_else(|e| panic!("E15 scale-out run at {shards} shards is unsound: {e}"));
    let stats = service.stats();
    let decided_by_us = stats.last_decision_at.max(1);
    ScalingRow {
        shards,
        submitted: stats.submitted,
        committed: stats.committed,
        aborted: stats.aborted,
        decided_by_us,
        commits_per_sec: stats.committed as f64 * 1e6 / decided_by_us as f64,
        trace_hash: service.trace_hash(),
        state_digest: service.state_digest(),
    }
}

/// Generates a marketplace history of `commits` committed transactions
/// as one shard's durable log — `CommitDep` records carrying footprints
/// when `dep_logged`, plain value-log `Commit` records otherwise.
pub fn generate_log(seed: u64, commits: usize, listings: u64, dep_logged: bool) -> Vec<LogRecord> {
    let spec = ShardKvSpec::new();
    let workload = Workload::new(WorkloadKind::Marketplace, 10_000, 0.2, 16, listings);
    let mut rng = SimRng::new(seed);
    let object = ObjectId::new(1);
    let mut log = Vec::with_capacity(commits * 2);
    for i in 0..commits {
        let txn = ActivityId::new(i as u32 + 1);
        let ops = workload.next_txn(&mut rng, i as u32);
        let kind = if dep_logged {
            RecordKind::CommitDep {
                footprint: KeyFootprint::from_ops(&spec, &ops),
            }
        } else {
            RecordKind::Commit
        };
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::Prepare { ops },
        });
        log.push(LogRecord { txn, object, kind });
    }
    log
}

/// One (log size, logging mode) cell of the recovery comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryRow {
    /// Committed transactions in the log.
    pub commits: usize,
    /// Log records (prepares + outcomes).
    pub records: usize,
    /// On-disk size of the log under the WAL frame encoding (bytes).
    pub log_bytes: usize,
    /// Whether commit records carried footprints (`CommitDep`).
    pub dep_logged: bool,
    /// Dependency edges kept.
    pub edges: usize,
    /// Candidate pairs pruned as commuting (the data-dependent win).
    pub pruned_commuting: usize,
    /// Replay worker threads.
    pub threads: usize,
}

/// Runs both recovery strategies over one generated log and certifies
/// that they agree.
///
/// # Panics
///
/// Panics if the parallel state diverges from the serial state — that
/// would mean the synthesized commutativity relation is unsound.
pub fn run_recovery_point(
    seed: u64,
    commits: usize,
    listings: u64,
    dep_logged: bool,
    threads: usize,
) -> RecoveryRow {
    let log = generate_log(seed, commits, listings, dep_logged);
    let log_bytes: usize = log.iter().map(|r| encode_frame(r).len()).sum();

    let serial_state = serial_replay(&log);
    let graph = DepGraph::build(committed_records(&log), map_commutes());
    let parallel_state = parallel_replay(&graph, threads);
    assert_eq!(
        parallel_state, serial_state,
        "E15 recovery divergence at {commits} commits (dep_logged={dep_logged})"
    );
    let stats = graph.stats();
    RecoveryRow {
        commits,
        records: log.len(),
        log_bytes,
        dep_logged,
        edges: stats.edges,
        pruned_commuting: stats.pruned_commuting,
        threads,
    }
}

/// The E15 report (`BENCH_e15.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E15Report {
    /// Self-identifying header; `topology` records the swept shard
    /// counts.
    pub header: ReportHeader,
    /// The parameters the rows were measured under.
    pub params: E15Params,
    /// Scale-out rows, one per shard count.
    pub scaling: Vec<ScalingRow>,
    /// Recovery rows, two per log size (dependency-logged and value-logged).
    pub recovery: Vec<RecoveryRow>,
}

impl E15Report {
    /// Serializes for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("E15 report serializes")
    }

    /// Parses a committed artifact.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Runs the full experiment: the shard-count sweep, then the recovery
/// comparison at every log size in both logging modes.
pub fn run_e15(params: &E15Params) -> E15Report {
    let scaling: Vec<ScalingRow> = params
        .shard_counts
        .iter()
        .map(|&shards| run_scaling_point(params, shards))
        .collect();
    let mut recovery = Vec::new();
    for &commits in &params.recovery_commits {
        for dep_logged in [true, false] {
            recovery.push(run_recovery_point(
                params.seed,
                commits,
                params.listings,
                dep_logged,
                params.threads,
            ));
        }
    }
    let topology = params
        .shard_counts
        .iter()
        .map(|s| format!("coordinator+{s}sh"))
        .collect::<Vec<_>>()
        .join("+");
    E15Report {
        header: ReportHeader::new("e15").with_topology(topology),
        params: params.clone(),
        scaling,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_scales_and_replays_deterministically() {
        let params = E15Params::smoke();
        let a = run_e15(&params);
        assert_eq!(a.scaling.len(), params.shard_counts.len());
        let one = &a.scaling[0];
        let eight = a.scaling.last().unwrap();
        assert_eq!(one.submitted, eight.submitted, "same offered load");
        assert!(
            eight.commits_per_sec > one.commits_per_sec,
            "8 shards ({:.0}/s) must outrun 1 shard ({:.0}/s) on distinct keys",
            eight.commits_per_sec,
            one.commits_per_sec
        );
        // Same seed ⇒ bit-identical rows.
        let b = run_e15(&params);
        for (x, y) in a.scaling.iter().zip(&b.scaling) {
            assert_eq!(
                (x.trace_hash, x.state_digest),
                (y.trace_hash, y.state_digest)
            );
        }
    }

    #[test]
    fn recovery_rows_certify_and_count_log_overheads() {
        let dep = run_recovery_point(5, 400, 16, true, 4);
        let val = run_recovery_point(5, 400, 16, false, 4);
        assert_eq!(dep.commits, 400);
        assert_eq!(dep.records, val.records);
        assert!(
            dep.log_bytes > val.log_bytes,
            "footprints cost log bytes: {} vs {}",
            dep.log_bytes,
            val.log_bytes
        );
        assert!(dep.pruned_commuting > 0, "bank halves of orders commute");
        assert!(dep.edges > 0, "contended listings conflict");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_e15(&E15Params {
            shard_counts: vec![1, 2],
            recovery_commits: vec![50],
            clients: 1,
            ticks: 2,
            ..E15Params::smoke()
        });
        let back = E15Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.header.experiment, "e15");
        assert_eq!(
            back.header.schema_version,
            crate::report::REPORT_SCHEMA_VERSION
        );
        assert_eq!(back.header.topology, "coordinator+1sh+coordinator+2sh");
        assert_eq!(back.scaling.len(), 2);
        assert_eq!(back.recovery.len(), 2);
    }
}
