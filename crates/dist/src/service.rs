//! The partitioned service: the one two-phase-commit core of
//! `atomicity-sim` configured for scale-out.
//!
//! [`DistService`] adds what only the service has: a [`ShardMap`] routes
//! keys, open-loop client streams draw transactions from a [`Workload`],
//! shards commit with dependency footprints when asked, planned shard
//! outages fire at simulated times, and [`DistService::verify`] checks
//! the finished run. Coordinator batching, the shards' service-time
//! model, re-votes, timeouts, crashes and recovery are the core's
//! ([`Simulator`]). Time is logical, every random draw comes from split
//! [`SimRng`] streams, and the event queue breaks ties by insertion
//! order — a run is a pure function of [`DistConfig::seed`], checkable
//! via [`DistService::trace_hash`] and [`DistService::state_digest`].

use crate::kv::ShardKvSpec;
use crate::shard::ShardMap;
use crate::workload::{Workload, WorkloadKind, LISTING_BASE};
use atomicity_core::recovery::{DurableLog, StableLog};
use atomicity_sim::{
    fnv1a, FaultConfig, Network, Node, NodeId, PartitionSchedule, ProtocolParams, SimEvent, SimRng,
    Simulator,
};
use atomicity_spec::ActivityId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A planned shard outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Simulated time of the crash.
    pub at: u64,
    /// The shard that crashes.
    pub shard: u32,
    /// How long it stays down before restarting and recovering.
    pub downtime: u64,
}

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Root seed; everything derives from it.
    pub seed: u64,
    /// Number of shards (partitions).
    pub shards: u32,
    /// Number of open-loop client streams.
    pub clients: usize,
    /// Transactions each client submits per tick.
    pub requests_per_tick: u32,
    /// Simulated microseconds between a client's ticks.
    pub tick_interval: u64,
    /// Ticks per client (bounds the run).
    pub ticks: u64,
    /// Batching window: a newly non-empty coordinator queue flushes after
    /// this long (or immediately when it fills).
    pub batch_window: u64,
    /// Maximum transactions per batch.
    pub max_batch: usize,
    /// Coordinator vote-collection timeout per transaction.
    pub txn_timeout: u64,
    /// A prepared shard re-votes after this long without a decision.
    pub resolve_timeout: u64,
    /// Bound on re-vote attempts per (shard, transaction).
    pub max_resolve_attempts: u32,
    /// Shard service time per operation in a batch.
    pub per_op_cost: u64,
    /// Shard service time per batch (the amortizable part).
    pub per_batch_cost: u64,
    /// Commit with dependency footprints (`CommitDep`) instead of plain
    /// value-log commits.
    pub dep_logging: bool,
    /// The transaction mix.
    pub workload: WorkloadKind,
    /// Account keyspace size ("users").
    pub accounts: u64,
    /// Fraction of account picks redirected to the hot set.
    pub hot_fraction: f64,
    /// Hot-set size.
    pub hot_accounts: u64,
    /// Marketplace listing slots.
    pub listings: u64,
    /// Network fault model (applied to every link).
    pub faults: FaultConfig,
    /// Planned shard outages. A crash of a shard that is already down
    /// does nothing.
    pub crashes: Vec<CrashPlan>,
    /// Keep the full event trace in memory (the rolling hash is always
    /// maintained).
    pub record_trace: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            seed: 1,
            shards: 4,
            clients: 4,
            requests_per_tick: 4,
            tick_interval: 1_000,
            ticks: 10,
            batch_window: 200,
            max_batch: 64,
            txn_timeout: 60_000,
            resolve_timeout: 25_000,
            max_resolve_attempts: 50,
            per_op_cost: 5,
            per_batch_cost: 40,
            dep_logging: true,
            workload: WorkloadKind::Bank,
            accounts: 1_000_000,
            hot_fraction: 0.0,
            hot_accounts: 64,
            listings: 1_024,
            faults: FaultConfig::reliable(50, 500),
            crashes: Vec::new(),
            record_trace: false,
        }
    }
}

/// Counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Transactions submitted by clients.
    pub submitted: u64,
    /// Transactions decided commit.
    pub committed: u64,
    /// Transactions decided abort.
    pub aborted: u64,
    /// Aborts caused by the vote-collection timeout.
    pub timeout_aborts: u64,
    /// Events processed.
    pub events: u64,
    /// Message copies delivered (per destination endpoint).
    pub deliveries: u64,
    /// Shard crashes injected.
    pub crashes: u64,
    /// Shard recoveries completed.
    pub recoveries: u64,
    /// In-doubt transactions found by shard recoveries.
    pub in_doubt: u64,
    /// Simulated time of the last processed event (the makespan). Note
    /// that this includes the tail of already-moot transaction-timeout
    /// events; use [`DistStats::last_decision_at`] for throughput.
    pub makespan: u64,
    /// Simulated time at which the last transaction was decided — the
    /// end of useful work, excluding the timeout tail.
    pub last_decision_at: u64,
}

/// The partitioned service: all state of one deterministic run.
#[derive(Debug)]
pub struct DistService {
    config: DistConfig,
    map: ShardMap,
    core: Simulator<ShardKvSpec>,
    client_rngs: Vec<SimRng>,
    client_ticks_left: Vec<u64>,
    workload: Workload,
}

impl DistService {
    /// Builds the service and schedules the client streams and planned
    /// crashes.
    pub fn new(config: DistConfig) -> Self {
        assert!(config.shards > 0, "a service needs at least one shard");
        let root = SimRng::new(config.seed);
        let network = Network::new(
            root.split("dist-net", 0),
            config.faults.clone(),
            PartitionSchedule::new(),
        );
        let nodes = (0..config.shards)
            .map(|i| {
                let log: Arc<dyn DurableLog> = Arc::new(StableLog::new());
                Node::new(NodeId::new(i), ShardKvSpec::new(), log, config.dep_logging)
            })
            .collect();
        let params = ProtocolParams {
            max_batch: config.max_batch,
            batch_window: config.batch_window,
            txn_timeout: config.txn_timeout,
            resolve_timeout: config.resolve_timeout,
            max_resolve_attempts: config.max_resolve_attempts,
            per_op_cost: config.per_op_cost,
            per_batch_cost: config.per_batch_cost,
            record_trace: config.record_trace,
            demo_lost_ack: false,
        };
        let mut core = Simulator::new(params, network, nodes);
        for client in 0..config.clients {
            // Stagger first ticks across the interval so clients do not
            // arrive in lockstep (still fully deterministic).
            let offset = 1 + (client as u64 * config.tick_interval) / config.clients.max(1) as u64;
            core.schedule(offset, SimEvent::ClientTick(client));
        }
        for plan in config.crashes.iter().filter(|p| p.shard < config.shards) {
            let (node, down_for) = (NodeId::new(plan.shard), plan.downtime.max(1));
            core.schedule(plan.at, SimEvent::Crash { node, down_for });
        }
        DistService {
            map: ShardMap::new(config.shards),
            core,
            client_rngs: (0..config.clients)
                .map(|i| root.split("dist-client", i as u64))
                .collect(),
            client_ticks_left: vec![config.ticks; config.clients],
            workload: Workload::new(
                config.workload,
                config.accounts,
                config.hot_fraction,
                config.hot_accounts,
                config.listings,
            ),
            config,
        }
    }

    /// A client's tick: submit its burst and schedule its next tick.
    fn tick(&mut self, client: usize) {
        if self.client_ticks_left[client] == 0 {
            return;
        }
        self.client_ticks_left[client] -= 1;
        for _ in 0..self.config.requests_per_tick {
            let seq = self.core.submitted() as u32 + 1;
            let ops = self.workload.next_txn(&mut self.client_rngs[client], seq);
            self.core.submit(self.map.partition(&ops));
        }
        if self.client_ticks_left[client] > 0 {
            let at = self.core.now() + self.config.tick_interval;
            self.core.schedule(at, SimEvent::ClientTick(client));
        }
    }

    /// Processes one scheduled event; returns `false` when the queue is
    /// drained.
    pub fn step_event(&mut self) -> bool {
        match self.core.next_event() {
            None => return false,
            Some(SimEvent::ClientTick(client)) => self.tick(client),
            Some(event) => self.core.handle(event),
        }
        true
    }

    /// Runs until no events remain. Terminates: client streams are
    /// finite, retransmissions are attempt-bounded, and every admitted
    /// transaction is decided by votes or by its timeout.
    pub fn run_to_quiescence(&mut self) {
        while self.step_event() {}
    }

    /// Run counters.
    pub fn stats(&self) -> DistStats {
        let s = self.core.stats();
        DistStats {
            submitted: self.core.submitted(),
            committed: s.committed,
            aborted: s.aborted,
            timeout_aborts: s.timeout_aborts,
            events: s.events,
            deliveries: s.messages,
            crashes: s.crashes,
            recoveries: s.recoveries,
            in_doubt: s.in_doubt,
            makespan: self.core.now(),
            last_decision_at: s.last_decision_at,
        }
    }

    /// The rolling hash of the run's trace lines — equal across runs with
    /// equal configs, the replay fingerprint.
    pub fn trace_hash(&self) -> u64 {
        self.core.trace_hash()
    }

    /// The recorded trace lines (empty unless
    /// [`DistConfig::record_trace`]).
    pub fn trace(&self) -> &[String] {
        self.core.trace()
    }

    /// A digest of the final observable state: every shard's committed
    /// key/value state plus every durable decision.
    ///
    /// # Panics
    ///
    /// Panics if a shard is still crashed.
    pub fn state_digest(&self) -> u64 {
        let mut d = 0u64;
        let mut mix = |bytes: &[u8]| d = d.rotate_left(7) ^ fnv1a(bytes);
        for node in self.core.nodes() {
            mix(&u64::from(node.id().raw()).to_le_bytes());
            for (k, v) in node.state() {
                mix(&k.to_le_bytes());
                mix(&v.to_le_bytes());
            }
        }
        for (txn, commit) in self.core.coordinator().decisions() {
            mix(&u64::from(txn.raw()).to_le_bytes());
            mix(&[u8::from(commit)]);
        }
        d
    }

    /// Checks the run's end-to-end invariants:
    ///
    /// 1. every shard is up and every admitted transaction is decided;
    /// 2. every participant's durable outcome agrees with the
    ///    coordinator's decision (atomic commitment);
    /// 3. money is conserved — account balances (keys below
    ///    [`LISTING_BASE`]) sum to zero across all shards, since every
    ///    committed transfer's deltas cancel and aborted ones must leave
    ///    no trace.
    pub fn verify(&self) -> Result<(), String> {
        let nodes = self.core.nodes();
        if let Some(down) = nodes.iter().find(|n| !n.is_up()) {
            return Err(format!("shard {} still crashed", down.id()));
        }
        let coordinator = self.core.coordinator();
        if coordinator.undecided() > 0 {
            return Err(format!(
                "{} transactions admitted but never decided",
                coordinator.undecided()
            ));
        }
        for (txn, decided) in coordinator.decisions() {
            for node in nodes.iter().filter(|n| n.prepared(txn)) {
                match node.outcome(txn) {
                    Some(learned) if learned != decided => {
                        return Err(format!(
                            "outcome disagreement: {txn} decided {decided} but {} applied {learned}",
                            node.id()
                        ));
                    }
                    None if decided => {
                        return Err(format!(
                            "committed {txn} never applied at prepared shard {}",
                            node.id()
                        ));
                    }
                    _ => {}
                }
            }
        }
        let total: i64 = nodes
            .iter()
            .flat_map(|n| n.state())
            .filter(|(k, _)| *k < LISTING_BASE)
            .map(|(_, v)| v)
            .sum();
        if total != 0 {
            return Err(format!("conservation violated: balances sum to {total}"));
        }
        Ok(())
    }

    /// The committed key/value state of shard `i`.
    pub fn shard_state(&self, i: u32) -> BTreeMap<i64, i64> {
        self.core.node(NodeId::new(i)).state()
    }

    /// Shard `i`'s durable log (for the offline recovery experiments).
    pub fn shard_log(&self, i: u32) -> &dyn DurableLog {
        self.core.node(NodeId::new(i)).stable_log()
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// The coordinator's durable decision for `txn`, if any.
    pub fn decision(&self, txn: ActivityId) -> Option<bool> {
        self.core.coordinator().decision(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> DistConfig {
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

    #[test]
    fn reliable_run_commits_everything_and_verifies() {
        let mut s = DistService::new(smoke_config());
        s.run_to_quiescence();
        let stats = s.stats();
        assert_eq!(stats.submitted, 3 * 3 * 8);
        assert_eq!(stats.committed, stats.submitted);
        assert_eq!(stats.aborted, 0);
        s.verify().unwrap();
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let mut s = DistService::new(DistConfig {
                seed,
                ..smoke_config()
            });
            s.run_to_quiescence();
            (s.trace_hash(), s.state_digest(), s.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds diverge");
    }

    #[test]
    fn lossy_network_still_reaches_agreement() {
        let mut s = DistService::new(DistConfig {
            faults: FaultConfig {
                drop_probability: 0.05,
                duplicate_probability: 0.05,
                reorder_probability: 0.1,
                ..FaultConfig::default()
            },
            ..smoke_config()
        });
        s.run_to_quiescence();
        let stats = s.stats();
        assert_eq!(stats.committed + stats.aborted, stats.submitted);
        s.verify().unwrap();
    }

    #[test]
    fn crash_and_recovery_preserve_atomicity() {
        let mut s = DistService::new(DistConfig {
            crashes: vec![CrashPlan {
                at: 2_500,
                shard: 1,
                downtime: 3_000,
            }],
            ..smoke_config()
        });
        s.run_to_quiescence();
        let stats = s.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.committed + stats.aborted, stats.submitted);
        s.verify().unwrap();
    }

    #[test]
    fn a_crash_of_a_down_shard_neither_crashes_nor_recovers_it() {
        // The second outage falls inside the first: the shard stays down
        // until the first one ends, and recovers once.
        let mut s = DistService::new(DistConfig {
            crashes: vec![
                CrashPlan {
                    at: 2_000,
                    shard: 1,
                    downtime: 4_000,
                },
                CrashPlan {
                    at: 3_000,
                    shard: 1,
                    downtime: 1_000,
                },
            ],
            ..smoke_config()
        });
        while s.now() < 4_500 {
            assert!(s.step_event());
        }
        assert!(!s.core.node(NodeId::new(1)).is_up(), "back before t=6000");
        s.run_to_quiescence();
        let stats = s.stats();
        assert_eq!((stats.crashes, stats.recoveries), (1, 1));
        assert_eq!(stats.committed + stats.aborted, stats.submitted);
        s.verify().unwrap();
    }

    #[test]
    fn marketplace_mix_verifies_conservation_over_accounts_only() {
        let mut s = DistService::new(DistConfig {
            workload: WorkloadKind::Marketplace,
            listings: 32,
            ..smoke_config()
        });
        s.run_to_quiescence();
        assert!(s.stats().committed > 0);
        s.verify().unwrap();
    }
}
