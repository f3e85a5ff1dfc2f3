//! The cluster: the deterministic event loop that owns the nodes, the
//! fault-injecting network, the two-phase-commit coordinator, crash
//! injection (scheduled and MTTF-driven), checkpointed invariant
//! checking, and the replayable event trace.
//!
//! Everything here is a pure function of [`SimConfig`] (most importantly
//! its seed): logical time advances only when events are processed, every
//! random draw comes from a [`SimRng`] stream split per component, and
//! all iteration is over ordered maps — so the same seed replays the same
//! run bit-for-bit, which [`Cluster::trace_hash`] and
//! [`Cluster::state_digest`] make checkable.

use crate::invariant::{InvariantChecker, Violation};
use crate::message::{Endpoint, Message, NodeId, SimEvent};
use crate::model::{Action, ClientRequest, DeterministicClient, DeterministicNode, NodeTimer};
use crate::network::{FaultConfig, NetStats, Network};
use crate::node::Node;
use crate::partition::{PartitionSchedule, PartitionWindow};
use crate::queue::EventQueue;
use crate::rng::{fnv1a, SimRng};
use atomicity_core::{AbortReason, MetricsRegistry};
use atomicity_spec::specs::KvMapSpec;
use atomicity_spec::{op, ActivityId, Event, History, ObjectId, OpResult, SystemSpec, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Mean-time-to-failure crash injection: each node's failure clock draws
/// crash and repair intervals from its own random stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfConfig {
    /// Mean uptime between a node's crashes (simulated microseconds).
    pub mean_uptime: u64,
    /// Mean downtime before the node restarts and recovers.
    pub mean_downtime: u64,
    /// Bound on MTTF crashes per node, so runs terminate.
    pub max_crashes_per_node: u32,
}

impl Default for MttfConfig {
    fn default() -> Self {
        MttfConfig {
            mean_uptime: 30_000,
            mean_downtime: 8_000,
            max_crashes_per_node: 2,
        }
    }
}

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of nodes; account `k` lives on node `k % nodes`.
    pub nodes: u32,
    /// Accounts per node.
    pub accounts_per_node: u32,
    /// Initial balance of every account.
    pub initial_balance: i64,
    /// Root RNG seed: the run is a pure function of this value.
    pub seed: u64,
    /// Minimum one-way message latency (simulated microseconds).
    pub min_latency: u64,
    /// Maximum one-way message latency.
    pub max_latency: u64,
    /// Coordinator prepare timeout: missing votes ⇒ abort.
    pub prepare_timeout: u64,
    /// Interval at which a recovered node re-asks for in-doubt outcomes.
    pub retry_interval: u64,
    /// Probability a message is lost in transit (deterministic per seed).
    pub drop_probability: f64,
    /// Probability each potential extra copy of a message is delivered.
    pub duplicate_probability: f64,
    /// How long a participant waits for a decision before re-sending its
    /// vote (and the coordinator its prepare).
    pub decision_timeout: u64,
    /// Bound on retransmissions per message.
    pub max_resends: u32,
    /// Bound on extra copies per message (duplication factor).
    pub max_duplicates: u32,
    /// Probability a delivery is deferred by a reorder boost.
    pub reorder_probability: f64,
    /// Maximum extra delay added to a reordered delivery.
    pub reorder_extra: u64,
    /// Explicit partition windows (see [`PartitionWindow`]).
    pub partitions: Vec<PartitionWindow>,
    /// Mean-time-to-failure crash injection; `None` disables it.
    pub mttf: Option<MttfConfig>,
    /// Run the registered invariant checkers every this many processed
    /// events; `0` checks only at [`Cluster::heal`].
    pub checkpoint_every: u64,
    /// Record a formatted line per processed event (see
    /// [`Cluster::trace`]); the rolling [`Cluster::trace_hash`] is kept
    /// either way.
    pub record_trace: bool,
    /// Record the run as a [`History`] (invoke/respond at prepare,
    /// commit-timestamp/abort at decision) for the certifier checker.
    pub record_history: bool,
    /// Inject the demonstration bug: the coordinator, having committed,
    /// presumes abort for the last participant (as if its ack had been
    /// lost) and tells it so — a durable all-or-nothing violation the
    /// invariant checkers must catch.
    pub demo_lost_ack: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 4,
            accounts_per_node: 4,
            initial_balance: 100,
            seed: 42,
            min_latency: 50,
            max_latency: 500,
            prepare_timeout: 5_000,
            retry_interval: 1_000,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            decision_timeout: 2_000,
            max_resends: 8,
            max_duplicates: 1,
            reorder_probability: 0.0,
            reorder_extra: 2_000,
            partitions: Vec::new(),
            mttf: None,
            checkpoint_every: 0,
            record_trace: false,
            record_history: false,
            demo_lost_ack: false,
        }
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Transactions the coordinator decided to commit.
    pub committed: u64,
    /// Transactions the coordinator decided to abort (timeouts).
    pub aborted: u64,
    /// Messages delivered (including drops to down nodes).
    pub messages: u64,
    /// Messages dropped because the destination was down.
    pub dropped: u64,
    /// Messages lost in transit (network loss injection).
    pub lost: u64,
    /// Extra message copies delivered (duplication injection).
    pub duplicated: u64,
    /// Deliveries deferred by a reorder boost.
    pub reordered: u64,
    /// Messages refused because the link crossed an active partition.
    pub cut: u64,
    /// Vote/prepare retransmissions performed.
    pub resends: u64,
    /// Node crashes injected (scheduled and MTTF).
    pub crashes: u64,
    /// Crashes due to the MTTF failure clocks specifically.
    pub mttf_crashes: u64,
    /// Coordinator crashes injected.
    pub coordinator_crashes: u64,
    /// Node recoveries performed.
    pub recoveries: u64,
    /// Committed intentions redone during recoveries.
    pub redo_records: u64,
    /// In-doubt transactions found during recoveries.
    pub in_doubt: u64,
    /// Individual invariant checks run at checkpoints.
    pub invariant_checks: u64,
    /// Events processed.
    pub events: u64,
}

#[derive(Debug)]
struct PendingTxn {
    participants: Vec<NodeId>,
    acks: BTreeSet<NodeId>,
}

#[derive(Debug, Clone, Copy)]
enum CrashTarget {
    Node(NodeId),
    Coordinator,
}

#[derive(Debug, Clone, Copy)]
struct CrashPoint {
    at_event: u64,
    target: CrashTarget,
    down_for: u64,
}

/// A simulated distributed transaction system: sharded bank accounts,
/// two-phase commit, fault-injecting network, crashes, recovery, and
/// checkpointed invariant checking.
///
/// See the crate docs for an end-to-end example.
pub struct Cluster {
    cfg: SimConfig,
    time: u64,
    queue: EventQueue,
    nodes: Vec<Node>,
    network: Network,
    /// The run's root stream; only split from, never drawn from.
    root: SimRng,
    /// Latency draws for audit submissions.
    audit_rng: SimRng,
    /// Per-node failure clocks.
    mttf_rngs: Vec<SimRng>,
    mttf_count: Vec<u32>,
    next_txn: u32,
    /// Coordinator durable state: decided outcomes (never lost — the
    /// coordinator is modeled as reliable; participant crashes are the
    /// interesting failures for recoverability).
    decisions: BTreeMap<ActivityId, bool>,
    pending: BTreeMap<ActivityId, PendingTxn>,
    /// Intentions per (txn, node), kept by the coordinator for retransmission.
    staged: BTreeMap<(ActivityId, NodeId), Vec<OpResult>>,
    crash_plan: Vec<CrashPoint>,
    coordinator_up: bool,
    /// Commit timestamps assigned at decision time (hybrid atomicity for
    /// the distributed setting); shared counter with audit timestamps.
    commit_ts: BTreeMap<ActivityId, u64>,
    ts_clock: u64,
    /// Completed audits: (timestamp, observed grand total).
    audit_results: Vec<(u64, i64)>,
    next_audit: usize,
    stats: SimStats,
    /// Observability sink (disabled unless [`Cluster::enable_metrics`] is
    /// called): transaction begin/commit/abort counts and the
    /// submit-to-decision latency histogram in simulated time.
    metrics: MetricsRegistry,
    /// Simulated submission time per undecided transaction.
    submit_times: BTreeMap<ActivityId, u64>,
    /// Deterministic workload sources (`None` transiently while ticking).
    clients: Vec<Option<Box<dyn DeterministicClient>>>,
    /// Checkpoint invariants (`mem::take`n while running, so a checker
    /// sees the cluster without itself).
    checkers: Vec<Box<dyn InvariantChecker>>,
    violations: Vec<Violation>,
    /// The recorded run, when [`SimConfig::record_history`] is set.
    history: Option<History>,
    /// Formatted processed events, when [`SimConfig::record_trace`] is set.
    trace: Vec<String>,
    trace_hash: u64,
    /// Called with the node id before each recovery — the hook through
    /// which a simulated restart re-opens the real on-disk WAL.
    restart_hook: Option<Box<dyn FnMut(NodeId)>>,
    /// `(txn, node)` pairs the demo bug lied to (told abort on a commit).
    demo_victims: BTreeSet<(ActivityId, NodeId)>,
    /// Set by [`Cluster::heal`]: failure injection is over, drain cleanly.
    quiescing: bool,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("cfg", &self.cfg)
            .field("time", &self.time)
            .field("stats", &self.stats)
            .field("violations", &self.violations)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Creates the cluster with all accounts at their initial balance,
    /// each node backed by the in-memory simulated stable log.
    pub fn new(cfg: SimConfig) -> Self {
        Cluster::with_log_factory(cfg, |_id| {
            Arc::new(atomicity_core::recovery::StableLog::new()) as _
        })
    }

    /// Creates the cluster with each node's durable log supplied by
    /// `factory` — the hook for running the same protocol and crash
    /// sweeps over the on-disk WAL (`experiments e6 --disk`, and the
    /// simulated-restart tests via `RestartableWal`). The factory must
    /// hand out logs that sync on the calling thread (no background
    /// flusher) or the simulation loses determinism.
    pub fn with_log_factory(
        cfg: SimConfig,
        factory: impl Fn(NodeId) -> Arc<dyn atomicity_core::DurableLog>,
    ) -> Self {
        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|n| {
                let accounts = (0..cfg.accounts_per_node)
                    .map(|i| ((i * cfg.nodes + n) as i64, cfg.initial_balance));
                let id = NodeId::new(n);
                let mut node = Node::with_log(id, accounts, factory(id));
                node.configure_retransmit(cfg.decision_timeout, cfg.max_resends);
                node
            })
            .collect();
        let root = SimRng::new(cfg.seed);
        let faults = FaultConfig {
            min_latency: cfg.min_latency,
            max_latency: cfg.max_latency,
            drop_probability: cfg.drop_probability,
            duplicate_probability: cfg.duplicate_probability,
            max_duplicates: cfg.max_duplicates,
            reorder_probability: cfg.reorder_probability,
            reorder_extra: cfg.reorder_extra,
        };
        let mut schedule = PartitionSchedule::new();
        for w in &cfg.partitions {
            schedule.add(w.clone());
        }
        let network = Network::new(root.split("network", 0), faults, schedule);
        let mttf_rngs: Vec<SimRng> = (0..cfg.nodes)
            .map(|n| root.split("mttf", u64::from(n)))
            .collect();
        let history = cfg.record_history.then(History::new);
        let mut cluster = Cluster {
            audit_rng: root.split("audit", 0),
            mttf_count: vec![0; cfg.nodes as usize],
            mttf_rngs,
            root,
            network,
            cfg,
            time: 0,
            queue: EventQueue::new(),
            nodes,
            next_txn: 1,
            decisions: BTreeMap::new(),
            pending: BTreeMap::new(),
            staged: BTreeMap::new(),
            crash_plan: Vec::new(),
            coordinator_up: true,
            commit_ts: BTreeMap::new(),
            ts_clock: 0,
            audit_results: Vec::new(),
            next_audit: 0,
            stats: SimStats::default(),
            metrics: MetricsRegistry::disabled(),
            submit_times: BTreeMap::new(),
            clients: Vec::new(),
            checkers: Vec::new(),
            violations: Vec::new(),
            history,
            trace: Vec::new(),
            trace_hash: fnv1a(b"trace"),
            restart_hook: None,
            demo_victims: BTreeSet::new(),
            quiescing: false,
        };
        if cluster.cfg.mttf.is_some() {
            for n in 0..cluster.cfg.nodes {
                cluster.schedule_next_mttf(NodeId::new(n), 0);
            }
        }
        cluster
    }

    /// Turns on metrics collection: subsequent transactions are counted
    /// in a fresh [`MetricsRegistry`], with the commit-path histogram fed
    /// the submit-to-decision latency in **simulated** nanoseconds (one
    /// simulated time unit = 1µs).
    pub fn enable_metrics(&mut self) {
        self.metrics = MetricsRegistry::new();
    }

    /// The cluster's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The configuration this cluster runs under.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current logical time (simulated microseconds).
    pub fn now(&self) -> u64 {
        self.time
    }

    /// The node an account lives on.
    pub fn home_of(&self, account: i64) -> NodeId {
        NodeId::new((account.rem_euclid(i64::from(self.cfg.nodes))) as u32)
    }

    /// Total number of accounts.
    pub fn account_count(&self) -> i64 {
        i64::from(self.cfg.nodes) * i64::from(self.cfg.accounts_per_node)
    }

    /// The conserved grand total: every account at its initial balance.
    pub fn initial_total(&self) -> i64 {
        self.account_count() * self.cfg.initial_balance
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The network's traffic counters.
    pub fn network_stats(&self) -> NetStats {
        *self.network.stats()
    }

    /// The coordinator's durable decision for `txn`, if made.
    pub fn decision(&self, txn: ActivityId) -> Option<bool> {
        self.decisions.get(&txn).copied()
    }

    /// Every decided transaction with its outcome, in transaction order.
    pub fn decided(&self) -> Vec<(ActivityId, bool)> {
        self.decisions.iter().map(|(&t, &c)| (t, c)).collect()
    }

    /// The participants of `txn` (empty if unknown).
    pub fn participants_of(&self, txn: ActivityId) -> Vec<NodeId> {
        self.pending
            .get(&txn)
            .map(|p| p.participants.clone())
            .unwrap_or_default()
    }

    /// The system specification of the cluster's shards (object `n+1` is
    /// node `n`'s account map) — what the certifier checks the recorded
    /// history against.
    pub fn system_spec(&self) -> SystemSpec {
        let mut spec = SystemSpec::new();
        for n in 0..self.cfg.nodes {
            let accounts = (0..self.cfg.accounts_per_node)
                .map(|i| ((i * self.cfg.nodes + n) as i64, self.cfg.initial_balance));
            spec = spec.with_object(ObjectId::new(n + 1), KvMapSpec::with_initial(accounts));
        }
        spec
    }

    /// The recorded history, when [`SimConfig::record_history`] is set.
    pub fn history(&self) -> Option<&History> {
        self.history.as_ref()
    }

    /// Registers a checkpoint invariant (see
    /// [`SimConfig::checkpoint_every`]; [`Cluster::heal`] always runs a
    /// final checkpoint).
    pub fn add_checker(&mut self, checker: Box<dyn InvariantChecker>) {
        self.checkers.push(checker);
    }

    /// Invariant violations observed so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Registers a deterministic workload client and schedules its first
    /// tick now; returns its index. Split its stream off
    /// [`Cluster::client_rng`] so its draws stay isolated.
    pub fn add_client(&mut self, client: Box<dyn DeterministicClient>) -> usize {
        let index = self.clients.len();
        self.clients.push(Some(client));
        self.queue
            .schedule(self.time, SimEvent::ClientTick { client: index });
        index
    }

    /// The dedicated random stream for client `index`.
    pub fn client_rng(&self, index: u64) -> SimRng {
        self.root.split("client", index)
    }

    /// Installs a hook called with the node id just before every node
    /// recovery — the place to re-open an on-disk WAL from its directory
    /// so a simulated restart exercises the real recovery path.
    pub fn set_restart_hook(&mut self, hook: impl FnMut(NodeId) + 'static) {
        self.restart_hook = Some(Box::new(hook));
    }

    /// The formatted event trace (empty unless
    /// [`SimConfig::record_trace`] is set).
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Rolling order-sensitive hash of every processed event — equal
    /// between two runs iff they processed identical event sequences.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// An order-insensitive digest of the externally observable final
    /// state: decisions, commit timestamps, per-node durable state, audit
    /// results, and counters. Two runs of the same seed must agree.
    pub fn state_digest(&self) -> u64 {
        let mut s = String::new();
        for (txn, commit) in &self.decisions {
            let _ = write!(s, "d{txn}={commit};");
        }
        for (txn, ts) in &self.commit_ts {
            let _ = write!(s, "c{txn}={ts};");
        }
        for node in &self.nodes {
            let committed = node.committed_total_at(|t| self.decisions.get(&t) == Some(&true));
            let _ = write!(
                s,
                "n{}:up={},log={},total={};",
                node.id(),
                node.is_up(),
                node.stable_log_len(),
                committed
            );
        }
        for (ts, total) in &self.audit_results {
            let _ = write!(s, "a{ts}={total};");
        }
        let _ = write!(s, "{:?}", self.stats);
        fnv1a(s.as_bytes())
    }

    /// Schedules a crash of `node` just before the `at_event`-th processed
    /// event; the node recovers after `down_for` simulated microseconds.
    pub fn schedule_crash(&mut self, at_event: u64, node: NodeId, down_for: u64) {
        self.crash_plan.push(CrashPoint {
            at_event,
            target: CrashTarget::Node(node),
            down_for,
        });
    }

    /// Schedules a crash of the *coordinator* just before the
    /// `at_event`-th processed event. Its decision log is durable;
    /// participants block (classic two-phase commit) and re-send their
    /// votes until it returns after `down_for`.
    pub fn schedule_coordinator_crash(&mut self, at_event: u64, down_for: u64) {
        self.crash_plan.push(CrashPoint {
            at_event,
            target: CrashTarget::Coordinator,
            down_for,
        });
    }

    /// Whether the coordinator is currently up.
    pub fn coordinator_is_up(&self) -> bool {
        self.coordinator_up
    }

    /// Submits a timestamped read-only audit (§4.3 in the distributed
    /// setting): it takes the next timestamp and will observe exactly the
    /// transfers committed with smaller timestamps, retrying until those
    /// are applied at every participant. The result appears in
    /// [`Cluster::audit_results`].
    pub fn submit_audit(&mut self) -> usize {
        self.ts_clock += 1;
        let ts = self.ts_clock;
        let id = self.next_audit;
        self.next_audit += 1;
        let at = self.time
            + self
                .audit_rng
                .range(self.cfg.min_latency, self.cfg.max_latency);
        self.queue.schedule(at, SimEvent::AuditAttempt { id, ts });
        id
    }

    /// Completed audits as (timestamp, observed grand total) pairs.
    pub fn audit_results(&self) -> &[(u64, i64)] {
        &self.audit_results
    }

    /// Whether every committed transaction with commit timestamp below
    /// `ts` has been durably applied at each of its participants.
    fn audit_ready(&self, ts: u64) -> bool {
        for (txn, &cts) in &self.commit_ts {
            if cts >= ts {
                continue;
            }
            let Some(pending) = self.pending.get(txn) else {
                continue;
            };
            for &node in &pending.participants {
                let n = &self.nodes[node.raw() as usize];
                if !n.is_up() || n.outcome(*txn) != Some(true) {
                    return false;
                }
            }
        }
        true
    }

    fn perform_audit(&mut self, id: usize, ts: u64) {
        let include: Vec<ActivityId> = self
            .commit_ts
            .iter()
            .filter(|(_, &cts)| cts < ts)
            .map(|(&t, _)| t)
            .collect();
        let total: i64 = self
            .nodes
            .iter()
            .map(|n| n.committed_total_at(|t| include.contains(&t)))
            .sum();
        self.audit_results.push((ts, total));
        let _ = id;
    }

    /// Hands a message to the network; every planned copy becomes a
    /// delivery event. Network counters are mirrored into [`SimStats`].
    fn send(&mut self, src: Endpoint, dst: Endpoint, message: Message) {
        for at in self.network.plan(self.time, src, dst) {
            self.queue.schedule(
                at,
                SimEvent::Deliver {
                    dst,
                    message: message.clone(),
                },
            );
        }
        let net = *self.network.stats();
        self.stats.lost = net.lost;
        self.stats.duplicated = net.duplicated;
        self.stats.reordered = net.reordered;
        self.stats.cut = net.cut;
    }

    /// Submits a transfer moving `amount` from `from` to `to` (global
    /// account ids) at the current simulated time. Returns the
    /// transaction's identity.
    pub fn submit_transfer(&mut self, from: i64, to: i64, amount: i64) -> ActivityId {
        let txn = ActivityId::new(self.next_txn);
        self.next_txn += 1;
        self.metrics.txn_begun(txn);
        self.submit_times.insert(txn, self.time);
        let mut per_node: BTreeMap<NodeId, Vec<OpResult>> = BTreeMap::new();
        per_node
            .entry(self.home_of(from))
            .or_default()
            .push((op("adjust", [from, -amount]), Value::ok()));
        per_node
            .entry(self.home_of(to))
            .or_default()
            .push((op("adjust", [to, amount]), Value::ok()));
        let participants: Vec<NodeId> = per_node.keys().copied().collect();
        for (node, ops) in &per_node {
            self.staged.insert((txn, *node), ops.clone());
            self.send(
                Endpoint::Coordinator,
                Endpoint::Node(*node),
                Message::Prepare {
                    txn,
                    ops: ops.clone(),
                },
            );
            let at = self.time + self.cfg.decision_timeout;
            self.queue.schedule(
                at,
                SimEvent::ResendPrepare {
                    txn,
                    node: *node,
                    attempt: 1,
                },
            );
        }
        self.queue.schedule(
            self.time + self.cfg.prepare_timeout,
            SimEvent::Timeout { txn },
        );
        self.pending.insert(
            txn,
            PendingTxn {
                participants,
                acks: BTreeSet::new(),
            },
        );
        txn
    }

    /// Processes events until the queue drains (or `max_events`).
    pub fn run_to_quiescence(&mut self) -> &SimStats {
        self.run_events(u64::MAX)
    }

    /// Processes at most `max_events` events.
    pub fn run_events(&mut self, max_events: u64) -> &SimStats {
        let mut processed_now = 0;
        while processed_now < max_events {
            // Crash injection is keyed on the global processed-event count.
            let due: Vec<CrashPoint> = self
                .crash_plan
                .iter()
                .filter(|c| c.at_event <= self.stats.events)
                .copied()
                .collect();
            self.crash_plan.retain(|c| c.at_event > self.stats.events);
            for c in due {
                match c.target {
                    CrashTarget::Node(node) => self.crash(node, c.down_for),
                    CrashTarget::Coordinator => self.crash_coordinator(c.down_for),
                }
            }
            let Some(scheduled) = self.queue.pop() else {
                break;
            };
            self.time = self.time.max(scheduled.time);
            self.stats.events += 1;
            processed_now += 1;
            let line = format!("{:>10} {:?}", self.time, scheduled.event);
            self.trace_hash = self.trace_hash.rotate_left(5) ^ fnv1a(line.as_bytes());
            if self.cfg.record_trace {
                self.trace.push(line);
            }
            self.handle(scheduled.event);
            if self.cfg.checkpoint_every > 0
                && self.stats.events.is_multiple_of(self.cfg.checkpoint_every)
            {
                self.run_checkpoint();
            }
        }
        &self.stats
    }

    fn crash(&mut self, node: NodeId, down_for: u64) {
        let n = &mut self.nodes[node.raw() as usize];
        if !n.is_up() {
            return;
        }
        n.crash();
        self.stats.crashes += 1;
        self.queue
            .schedule(self.time + down_for, SimEvent::Recover { node });
    }

    fn crash_coordinator(&mut self, down_for: u64) {
        if !self.coordinator_up {
            return;
        }
        self.coordinator_up = false;
        self.stats.coordinator_crashes += 1;
        self.queue
            .schedule(self.time + down_for, SimEvent::CoordinatorRecover);
    }

    /// Schedules the next MTTF crash of `node` at `extra_delay` plus a
    /// drawn uptime from now.
    fn schedule_next_mttf(&mut self, node: NodeId, extra_delay: u64) {
        let Some(mttf) = self.cfg.mttf else {
            return;
        };
        let i = node.raw() as usize;
        let uptime = self.mttf_rngs[i].around(mttf.mean_uptime);
        self.queue.schedule(
            self.time + extra_delay + uptime,
            SimEvent::MttfCrash { node },
        );
    }

    /// Runs recovery on `node` (restart hook first, so on-disk logs
    /// re-open), accounts for it, and kicks off in-doubt resolution.
    fn restart_node(&mut self, node: NodeId) {
        if let Some(hook) = self.restart_hook.as_mut() {
            hook(node);
        }
        let outcome = self.nodes[node.raw() as usize].recover();
        self.stats.recoveries += 1;
        self.stats.redo_records += outcome.redone.len() as u64;
        self.stats.in_doubt += outcome.in_doubt.len() as u64;
        for txn in outcome.in_doubt {
            self.resolve_or_retry(node, txn);
        }
    }

    fn handle(&mut self, event: SimEvent) {
        match event {
            SimEvent::Deliver {
                dst: Endpoint::Node(node),
                message,
            } => {
                self.stats.messages += 1;
                let i = node.raw() as usize;
                if !self.nodes[i].online() {
                    self.stats.dropped += 1;
                    return;
                }
                // History bookkeeping needs the pre-delivery durable
                // state: was this prepare/decision fresh?
                let fresh_prepare = match &message {
                    Message::Prepare { txn, .. } => !self.nodes[i].prepared(*txn),
                    _ => false,
                };
                let fresh_decision = match &message {
                    Message::Decision { txn, .. } => self.nodes[i].outcome(*txn).is_none(),
                    _ => false,
                };
                if fresh_prepare {
                    if let Message::Prepare { txn, ops } = &message {
                        self.record_prepare_events(node, *txn, ops);
                    }
                }
                let actions = self.nodes[i].on_message(self.time, &message);
                if fresh_decision {
                    if let Message::Decision { txn, commit } = &message {
                        self.record_outcome_event(node, *txn, *commit);
                    }
                }
                self.process_actions(node, actions);
            }
            SimEvent::Deliver {
                dst: Endpoint::Coordinator,
                message,
            } => {
                self.stats.messages += 1;
                if !self.coordinator_up {
                    self.stats.dropped += 1;
                    return;
                }
                if let Message::PrepareAck { txn, node } = message {
                    if let Some(&commit) = self.decisions.get(&txn) {
                        // Already decided: the participant evidently has
                        // not heard — re-send the decision (the demo bug
                        // keeps lying to its victims).
                        let commit = commit && !self.demo_victims.contains(&(txn, node));
                        self.send(
                            Endpoint::Coordinator,
                            Endpoint::Node(node),
                            Message::Decision { txn, commit },
                        );
                        return;
                    }
                    let all_acked = match self.pending.get_mut(&txn) {
                        Some(p) => {
                            p.acks.insert(node);
                            p.acks.len() == p.participants.len()
                        }
                        None => false,
                    };
                    if all_acked {
                        self.decide(txn, true);
                    }
                }
            }
            SimEvent::Timeout { txn } => {
                if !self.coordinator_up {
                    // The coordinator cannot decide while down; retry the
                    // timeout after it recovers.
                    let at = self.time + self.cfg.retry_interval;
                    self.queue.schedule(at, SimEvent::Timeout { txn });
                    return;
                }
                if !self.decisions.contains_key(&txn) {
                    self.decide(txn, false);
                }
            }
            SimEvent::Recover { node } => {
                self.restart_node(node);
            }
            SimEvent::RetryResolve { node, txn } => {
                if self.nodes[node.raw() as usize].is_up() {
                    self.resolve_or_retry(node, txn);
                }
            }
            SimEvent::ResendAck { node, txn, attempt } => {
                let actions = self.nodes[node.raw() as usize]
                    .on_timer(self.time, &NodeTimer::ResendAck { txn, attempt });
                if actions.iter().any(|a| matches!(a, Action::Send { .. })) {
                    self.stats.resends += 1;
                }
                self.process_actions(node, actions);
            }
            SimEvent::ResendPrepare { txn, node, attempt } => {
                let undecided = !self.decisions.contains_key(&txn);
                let unacked = self
                    .pending
                    .get(&txn)
                    .map(|p| !p.acks.contains(&node))
                    .unwrap_or(false);
                if self.coordinator_up && undecided && unacked && attempt <= self.cfg.max_resends {
                    if let Some(ops) = self.staged.get(&(txn, node)).cloned() {
                        self.stats.resends += 1;
                        self.send(
                            Endpoint::Coordinator,
                            Endpoint::Node(node),
                            Message::Prepare { txn, ops },
                        );
                        let at = self.time + self.cfg.decision_timeout;
                        self.queue.schedule(
                            at,
                            SimEvent::ResendPrepare {
                                txn,
                                node,
                                attempt: attempt + 1,
                            },
                        );
                    }
                }
            }
            SimEvent::CoordinatorRecover => {
                self.coordinator_up = true;
            }
            SimEvent::AuditAttempt { id, ts } => {
                if self.quiescing && !self.audit_ready(ts) {
                    // Failure injection is over: the coordinator answers
                    // lingering in-doubt queries directly so audits (and
                    // the run) terminate.
                    self.force_resolve_decided();
                }
                if self.audit_ready(ts) {
                    self.perform_audit(id, ts);
                } else if self.quiescing {
                    // Still not ready after everything healed and every
                    // in-doubt query was answered: some participant holds
                    // an outcome that contradicts its decision. Waiting
                    // longer cannot fix that — perform the audit anyway
                    // so it observes (and the checkers flag) the torn
                    // state instead of retrying forever.
                    self.perform_audit(id, ts);
                } else {
                    let at = self.time + self.cfg.retry_interval;
                    self.queue.schedule(at, SimEvent::AuditAttempt { id, ts });
                }
            }
            SimEvent::MttfCrash { node } => {
                let Some(mttf) = self.cfg.mttf else {
                    return;
                };
                if self.quiescing {
                    return;
                }
                let i = node.raw() as usize;
                if self.mttf_count[i] >= mttf.max_crashes_per_node {
                    return;
                }
                self.mttf_count[i] += 1;
                let downtime = self.mttf_rngs[i].around(mttf.mean_downtime);
                self.stats.mttf_crashes += 1;
                self.crash(node, downtime);
                self.schedule_next_mttf(node, downtime);
            }
            SimEvent::ClientTick { client } => {
                let Some(mut c) = self.clients.get_mut(client).and_then(Option::take) else {
                    return;
                };
                let turn = c.tick(self.time);
                self.clients[client] = Some(c);
                for request in turn.requests {
                    match request {
                        ClientRequest::Transfer { from, to, amount } => {
                            self.submit_transfer(from, to, amount);
                        }
                        ClientRequest::Audit => {
                            self.submit_audit();
                        }
                    }
                }
                if let Some(delay) = turn.next_tick {
                    self.queue
                        .schedule(self.time + delay, SimEvent::ClientTick { client });
                }
            }
        }
    }

    /// Executes a node's requested actions (sends and timers).
    fn process_actions(&mut self, node: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { dst, message } => {
                    self.send(Endpoint::Node(node), dst, message);
                }
                Action::Timer {
                    delay,
                    timer: NodeTimer::ResendAck { txn, attempt },
                } => {
                    self.queue.schedule(
                        self.time + delay,
                        SimEvent::ResendAck { node, txn, attempt },
                    );
                }
            }
        }
    }

    fn decide(&mut self, txn: ActivityId, commit: bool) {
        self.decisions.insert(txn, commit);
        // Simulated-time latency from submission to the decision; the
        // remove also makes a duplicate decision metrics-silent.
        let sim_ns = self.submit_times.remove(&txn).map(|t0| {
            let delta = self.time.saturating_sub(t0);
            delta.saturating_mul(1_000)
        });
        if commit {
            self.stats.committed += 1;
            self.ts_clock += 1;
            self.commit_ts.insert(txn, self.ts_clock);
            if sim_ns.is_some() {
                self.metrics.txn_committed(txn, sim_ns);
            }
        } else {
            self.stats.aborted += 1;
            if sim_ns.is_some() {
                self.metrics
                    .txn_aborted(txn, Some(AbortReason::PrepareFailed));
            }
        }
        let participants = self
            .pending
            .get(&txn)
            .map(|p| p.participants.clone())
            .unwrap_or_default();
        let last = participants.len().saturating_sub(1);
        for (idx, node) in participants.into_iter().enumerate() {
            let mut outcome = commit;
            if commit && self.cfg.demo_lost_ack && idx == last && last > 0 {
                // The injected bug: having committed, the coordinator
                // presumes abort for the last participant (as if its ack
                // had never arrived) and durably tells it so.
                outcome = false;
                self.demo_victims.insert((txn, node));
            }
            self.send(
                Endpoint::Coordinator,
                Endpoint::Node(node),
                Message::Decision {
                    txn,
                    commit: outcome,
                },
            );
        }
    }

    fn resolve_or_retry(&mut self, node: NodeId, txn: ActivityId) {
        match self.decisions.get(&txn) {
            Some(&commit) => {
                let i = node.raw() as usize;
                let fresh = self.nodes[i].outcome(txn).is_none();
                self.nodes[i].resolve(txn, commit);
                if fresh {
                    self.record_outcome_event(node, txn, commit);
                }
            }
            None => {
                let at = self.time + self.cfg.retry_interval;
                self.queue
                    .schedule(at, SimEvent::RetryResolve { node, txn });
            }
        }
    }

    /// Resolves, at every up node, each decided transaction that is
    /// durably prepared but still outcome-less — the coordinator
    /// answering in-doubt queries directly once failure injection is over.
    fn force_resolve_decided(&mut self) {
        for (txn, commit) in self.decided() {
            for node in self.participants_of(txn) {
                let i = node.raw() as usize;
                if self.nodes[i].is_up()
                    && self.nodes[i].prepared(txn)
                    && self.nodes[i].outcome(txn).is_none()
                {
                    self.nodes[i].resolve(txn, commit);
                    self.record_outcome_event(node, txn, commit);
                }
            }
        }
    }

    /// Runs every registered invariant checker once, recording failures.
    fn run_checkpoint(&mut self) {
        if self.checkers.is_empty() {
            return;
        }
        let mut checkers = std::mem::take(&mut self.checkers);
        for checker in &mut checkers {
            self.stats.invariant_checks += 1;
            if let Err(detail) = checker.check(self) {
                self.violations.push(Violation {
                    time: self.time,
                    events: self.stats.events,
                    checker: checker.name().to_string(),
                    detail,
                });
            }
        }
        self.checkers = checkers;
    }

    fn record_prepare_events(&mut self, node: NodeId, txn: ActivityId, ops: &[OpResult]) {
        let Some(history) = self.history.as_mut() else {
            return;
        };
        let object = ObjectId::new(node.raw() + 1);
        for (operation, value) in ops {
            history.push(Event::invoke(txn, object, operation.clone()));
            history.push(Event::respond(txn, object, value.clone()));
        }
    }

    fn record_outcome_event(&mut self, node: NodeId, txn: ActivityId, commit: bool) {
        let ts = self.commit_ts.get(&txn).copied();
        let Some(history) = self.history.as_mut() else {
            return;
        };
        let object = ObjectId::new(node.raw() + 1);
        if commit {
            // A commit outcome always has a coordinator timestamp.
            if let Some(ts) = ts {
                history.push(Event::commit_ts(txn, object, ts));
            }
        } else {
            history.push(Event::abort(txn, object));
        }
    }

    /// Access to a node (inspection).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.raw() as usize]
    }

    /// All node identifiers.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.cfg.nodes).map(NodeId::new).collect()
    }

    /// Ends failure injection and settles the cluster: forces every node
    /// up (running recovery, through the restart hook where installed),
    /// resolves lingering in-doubt transactions, drains the queue, and
    /// runs a final invariant checkpoint — the "eventually everything
    /// heals" endpoint of a scenario. MTTF crashes no longer fire after
    /// this.
    pub fn heal(&mut self) {
        self.quiescing = true;
        for n in 0..self.cfg.nodes {
            if !self.nodes[n as usize].is_up() {
                self.restart_node(NodeId::new(n));
            }
        }
        self.force_resolve_decided();
        self.run_to_quiescence();
        self.force_resolve_decided();
        self.run_checkpoint();
    }

    /// Verifies all-or-nothing: for every decided transaction, each
    /// participant's durable outcome matches the coordinator's decision
    /// (prepared-but-unresolved participants only allowed while in doubt).
    ///
    /// # Errors
    ///
    /// Describes the first violated transaction.
    pub fn verify_atomicity(&self) -> Result<(), String> {
        for (&txn, &commit) in &self.decisions {
            let participants = match self.pending.get(&txn) {
                Some(p) => &p.participants,
                None => continue,
            };
            for &node in participants {
                let n = self.node(node);
                match n.outcome(txn) {
                    Some(o) if o == commit => {}
                    Some(o) => {
                        return Err(format!(
                            "txn {txn} decided {commit} but {node} recorded {o}"
                        ))
                    }
                    None => {
                        // Never prepared (prepare lost to a crash) is fine
                        // only for aborted transactions.
                        if commit && n.prepared(txn) {
                            return Err(format!("txn {txn} committed but {node} left it in doubt"));
                        }
                        if commit && !n.prepared(txn) {
                            return Err(format!("txn {txn} committed but {node} never prepared"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Verifies conservation: the committed grand total equals the initial
    /// grand total (transfers move money, they never create it).
    ///
    /// # Errors
    ///
    /// Reports the delta if violated.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let expected = self.initial_total();
        let actual: i64 = self.nodes.iter().map(Node::committed_total).sum();
        if actual == expected {
            Ok(())
        } else {
            Err(format!("total {actual} != expected {expected}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{OnlineCertifierCheck, StandardChecker};
    use crate::model::TransferClient;

    #[test]
    fn metrics_track_decisions_in_simulated_time() {
        let mut cluster = Cluster::new(SimConfig::default());
        cluster.enable_metrics();
        for i in 0..5 {
            cluster.submit_transfer(i, i + 1, 1);
        }
        cluster.run_to_quiescence();
        let snap = cluster.metrics().snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.txns_begun, 5);
        assert_eq!(
            snap.txns_committed + snap.txns_aborted,
            5,
            "every submitted transfer must be decided"
        );
        assert_eq!(snap.commit_ns.count, snap.txns_committed);
        if snap.txns_committed > 0 {
            // Decisions take at least one message round trip of simulated
            // time, so the histogram carries nonzero latencies.
            assert!(snap.commit_ns.percentile(0.5).unwrap_or(0) > 0);
        }
    }

    #[test]
    fn disabled_metrics_cost_nothing_and_count_nothing() {
        let mut cluster = Cluster::new(SimConfig::default());
        cluster.submit_transfer(0, 1, 1);
        cluster.run_to_quiescence();
        let snap = cluster.metrics().snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.txns_begun, 0);
    }

    #[test]
    fn transfer_commits_and_conserves() {
        let mut cluster = Cluster::new(SimConfig::default());
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.run_to_quiescence();
        assert_eq!(cluster.decision(txn), Some(true));
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.aborted, 0);
    }

    #[test]
    fn many_transfers_deterministic() {
        let run = |seed| {
            let mut cluster = Cluster::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            for i in 0..50 {
                let from = i % cluster.account_count();
                let to = (i * 7 + 3) % cluster.account_count();
                if from != to {
                    cluster.submit_transfer(from, to, 5);
                }
            }
            cluster.run_to_quiescence();
            cluster.verify_atomicity().unwrap();
            cluster.verify_conservation().unwrap();
            cluster.stats().clone()
        };
        assert_eq!(run(7), run(7), "same seed must reproduce identical runs");
        assert_eq!(run(7).aborted, 0);
    }

    #[test]
    fn crash_before_prepare_aborts_atomically() {
        let mut cluster = Cluster::new(SimConfig::default());
        // Crash the destination node before any event processes.
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.schedule_crash(0, cluster.home_of(1), 60_000);
        cluster.run_to_quiescence();
        cluster.heal();
        assert_eq!(
            cluster.decision(txn),
            Some(false),
            "missing vote must abort"
        );
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn crash_after_prepare_recovers_commit() {
        let mut cluster = Cluster::new(SimConfig::default());
        let txn = cluster.submit_transfer(0, 1, 30);
        // Let prepares and acks flow (events 0..4), then crash a
        // participant before the decision reaches it.
        cluster.run_events(4);
        let victim = cluster.home_of(0);
        cluster.schedule_crash(cluster.stats().events, victim, 20_000);
        cluster.run_to_quiescence();
        cluster.heal();
        assert_eq!(cluster.decision(txn), Some(true));
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
        assert!(cluster.stats().recoveries >= 1);
    }

    #[test]
    fn crash_sweep_every_event_point_stays_atomic() {
        // The E6 core loop in miniature: crash each node at every event
        // index of a single transfer; atomicity and conservation must hold
        // at every point.
        let baseline = {
            let mut c = Cluster::new(SimConfig::default());
            c.submit_transfer(0, 1, 30);
            c.run_to_quiescence();
            c.stats().events
        };
        for crash_at in 0..=baseline {
            for node in 0..SimConfig::default().nodes {
                let mut c = Cluster::new(SimConfig::default());
                let txn = c.submit_transfer(0, 1, 30);
                c.schedule_crash(crash_at, NodeId::new(node), 30_000);
                c.run_to_quiescence();
                c.heal();
                assert!(
                    c.decision(txn).is_some(),
                    "crash@{crash_at} {node}: undecided after heal"
                );
                c.verify_atomicity()
                    .unwrap_or_else(|e| panic!("crash@{crash_at} n{node}: {e}"));
                c.verify_conservation()
                    .unwrap_or_else(|e| panic!("crash@{crash_at} n{node}: {e}"));
            }
        }
    }

    #[test]
    fn lossy_network_still_terminates_and_stays_atomic() {
        let mut cluster = Cluster::new(SimConfig {
            drop_probability: 0.25,
            duplicate_probability: 0.15,
            seed: 99,
            ..SimConfig::default()
        });
        for i in 0..20i64 {
            let n = cluster.account_count();
            let (from, to) = (i % n, (i * 3 + 1) % n);
            if from != to {
                cluster.submit_transfer(from, to, 5);
            }
        }
        cluster.run_to_quiescence();
        cluster.heal();
        let stats = cluster.stats().clone();
        assert!(stats.lost > 0, "loss injection must fire");
        assert!(stats.duplicated > 0, "duplication injection must fire");
        assert!(stats.committed > 0, "retransmission must recover commits");
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn long_coordinator_outage_aborts_safely() {
        // The coordinator is down past the vote timeout: on recovery the
        // rescheduled timeout fires first and the transfer is (correctly,
        // presumed-abort) aborted — atomically at every participant.
        let mut cluster = Cluster::new(SimConfig::default());
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.schedule_coordinator_crash(1, 15_000);
        cluster.run_to_quiescence();
        cluster.heal();
        assert!(cluster.coordinator_is_up());
        assert_eq!(cluster.decision(txn), Some(false));
        assert!(cluster.stats().coordinator_crashes >= 1);
        assert!(cluster.stats().resends > 0, "votes must be re-sent");
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
        // The system is healthy again: a new transfer commits.
        let txn2 = cluster.submit_transfer(2, 3, 10);
        cluster.run_to_quiescence();
        assert_eq!(cluster.decision(txn2), Some(true));
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn short_coordinator_outage_is_bridged_by_vote_resends() {
        // Downtime shorter than the vote timeout: the acks lost during the
        // outage are re-sent after recovery and the transfer commits.
        let mut cluster = Cluster::new(SimConfig {
            decision_timeout: 1_200,
            ..SimConfig::default()
        });
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.schedule_coordinator_crash(1, 3_000);
        cluster.run_to_quiescence();
        cluster.heal();
        assert_eq!(cluster.decision(txn), Some(true));
        assert!(cluster.stats().resends > 0, "votes must be re-sent");
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn coordinator_and_node_crash_together() {
        let mut cluster = Cluster::new(SimConfig::default());
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.schedule_coordinator_crash(2, 20_000);
        cluster.schedule_crash(3, cluster.home_of(0), 10_000);
        cluster.run_to_quiescence();
        cluster.heal();
        assert!(cluster.decision(txn).is_some());
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn duplicated_decisions_apply_once() {
        let mut cluster = Cluster::new(SimConfig {
            duplicate_probability: 1.0, // every message duplicated
            seed: 3,
            ..SimConfig::default()
        });
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.run_to_quiescence();
        assert_eq!(cluster.decision(txn), Some(true));
        // Idempotent application: the debited/credited amounts are exact.
        cluster.verify_conservation().unwrap();
        cluster.verify_atomicity().unwrap();
        assert!(cluster.stats().duplicated > 0);
    }

    #[test]
    fn distributed_audits_always_see_conserved_totals() {
        // Audits interleaved with transfers, a node crash, message loss,
        // and duplication: every completed audit must observe exactly the
        // conserved grand total — hybrid atomicity's read-only guarantee,
        // distributed.
        let mut cluster = Cluster::new(SimConfig {
            drop_probability: 0.15,
            duplicate_probability: 0.1,
            seed: 23,
            ..SimConfig::default()
        });
        let expected = cluster.account_count() * 100;
        for i in 0..15i64 {
            let n = cluster.account_count();
            let (from, to) = (i % n, (i * 3 + 1) % n);
            if from != to {
                cluster.submit_transfer(from, to, 5);
            }
            if i % 3 == 0 {
                cluster.submit_audit();
            }
            // Let a slice of the protocol run between submissions.
            cluster.run_events(4);
        }
        cluster.schedule_crash(cluster.stats().events + 2, NodeId::new(1), 20_000);
        cluster.run_to_quiescence();
        cluster.heal();
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
        let results = cluster.audit_results();
        assert!(!results.is_empty(), "audits must complete");
        for (ts, total) in results {
            assert_eq!(*total, expected, "audit@{ts} observed a torn total");
        }
    }

    #[test]
    fn audit_timestamps_partition_commits() {
        // An audit submitted between two transfers sees the first and not
        // the second.
        let mut cluster = Cluster::new(SimConfig::default());
        let t1 = cluster.submit_transfer(0, 1, 30);
        cluster.run_to_quiescence();
        assert_eq!(cluster.decision(t1), Some(true));
        cluster.submit_audit();
        let t2 = cluster.submit_transfer(2, 3, 10);
        cluster.run_to_quiescence();
        assert_eq!(cluster.decision(t2), Some(true));
        let results = cluster.audit_results();
        assert_eq!(results.len(), 1);
        // Totals are conserved whichever transfers are included, so the
        // partition is visible through per-node snapshots instead.
        let expected = cluster.account_count() * 100;
        assert_eq!(results[0].1, expected);
        // t1 (ts 1) is included by an audit at ts 2, t2 (ts 3) is not.
        let n0 = cluster.home_of(0);
        let with_t1 = cluster.node(n0).committed_total_at(|t| t == t1);
        let without = cluster.node(n0).committed_total_at(|_| false);
        assert_eq!(with_t1, without - 30, "t1 debited 30 at node n0");
    }

    #[test]
    fn home_placement_is_stable() {
        let cluster = Cluster::new(SimConfig::default());
        for k in 0..cluster.account_count() {
            assert_eq!(cluster.home_of(k).raw() as i64, k % 4);
        }
    }

    fn full_fault_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            drop_probability: 0.1,
            duplicate_probability: 0.1,
            max_duplicates: 2,
            reorder_probability: 0.2,
            reorder_extra: 1_500,
            partitions: vec![PartitionWindow::new(
                5_000,
                12_000,
                [Endpoint::Node(NodeId::new(1))],
            )],
            mttf: Some(MttfConfig {
                mean_uptime: 20_000,
                mean_downtime: 6_000,
                max_crashes_per_node: 1,
            }),
            checkpoint_every: 50,
            record_history: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn full_fault_matrix_with_checkers_stays_clean() {
        let mut cluster = Cluster::new(full_fault_config(1234));
        cluster.add_checker(Box::new(StandardChecker));
        let certifier = OnlineCertifierCheck::hybrid(&cluster);
        cluster.add_checker(Box::new(certifier));
        let rng = cluster.client_rng(0);
        let accounts = cluster.account_count();
        cluster.add_client(Box::new(TransferClient::new(rng, accounts, 12)));
        cluster.run_events(20_000);
        cluster.heal();
        assert!(
            cluster.violations().is_empty(),
            "clean run flagged: {:?}",
            cluster.violations()
        );
        assert!(cluster.stats().invariant_checks > 0, "checkpoints must run");
        assert!(cluster.stats().mttf_crashes > 0, "failure clocks must fire");
        let post_hoc = atomicity_lint::certify(
            atomicity_lint::Property::Hybrid,
            cluster.history().expect("history recorded"),
            &cluster.system_spec(),
        );
        assert!(
            !matches!(post_hoc.verdict, atomicity_lint::Verdict::Refuted(_)),
            "{post_hoc}"
        );
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn demo_lost_ack_is_caught_by_the_checkers() {
        let mut cluster = Cluster::new(SimConfig {
            demo_lost_ack: true,
            checkpoint_every: 10,
            ..SimConfig::default()
        });
        cluster.add_checker(Box::new(StandardChecker));
        cluster.submit_transfer(0, 1, 30);
        cluster.run_to_quiescence();
        cluster.heal();
        assert!(
            !cluster.violations().is_empty(),
            "the injected bug must be detected"
        );
        assert!(cluster.verify_atomicity().is_err());
    }

    #[test]
    fn partition_cuts_traffic_and_heals() {
        // Partition node 1 away long enough that prepares to it die, then
        // heal: the transfer must still terminate atomically.
        let mut cluster = Cluster::new(SimConfig {
            partitions: vec![PartitionWindow::new(
                0,
                120_000,
                [Endpoint::Node(NodeId::new(1))],
            )],
            ..SimConfig::default()
        });
        let txn = cluster.submit_transfer(0, 1, 30);
        cluster.run_to_quiescence();
        cluster.heal();
        assert!(cluster.stats().cut > 0, "partition must cut traffic");
        assert_eq!(
            cluster.decision(txn),
            Some(false),
            "unreachable participant must abort the transfer"
        );
        cluster.verify_atomicity().unwrap();
        cluster.verify_conservation().unwrap();
    }

    #[test]
    fn trace_and_state_digests_reproduce_per_seed() {
        let run = |seed: u64| {
            let mut cluster = Cluster::new(SimConfig {
                record_trace: true,
                ..full_fault_config(seed)
            });
            let rng = cluster.client_rng(0);
            let accounts = cluster.account_count();
            cluster.add_client(Box::new(TransferClient::new(rng, accounts, 8)));
            cluster.run_events(20_000);
            cluster.heal();
            (cluster.trace_hash(), cluster.state_digest())
        };
        assert_eq!(run(77), run(77), "same seed, same run");
        assert_ne!(run(77), run(78), "different seeds diverge");
    }
}
