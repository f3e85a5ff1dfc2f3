//! The cluster: sharded bank accounts over the one two-phase-commit core
//! ([`Simulator`]), one transaction per message, with what only this
//! façade has — accounts at an initial balance, workload clients,
//! timestamped audits, history recording, checkpointed invariant
//! checking, crash injection by event index and by MTTF failure clocks,
//! the restart hook, and [`Cluster::heal`].
//!
//! Everything here is a pure function of [`SimConfig`] (most importantly
//! its seed): logical time advances only when events are processed, every
//! random draw comes from a [`SimRng`] stream split per component, and
//! all iteration is over ordered maps — so the same seed replays the same
//! run bit-for-bit, which [`Cluster::trace_hash`] and
//! [`Cluster::state_digest`] make checkable.

use crate::coordinator::Coordinator;
use crate::invariant::{InvariantChecker, Violation};
use crate::message::{Endpoint, Message, NodeId, SimEvent};
use crate::model::{ClientRequest, DeterministicClient};
use crate::network::{FaultConfig, NetStats, Network};
use crate::node::Node;
use crate::partition::{PartitionSchedule, PartitionWindow};
use crate::rng::{fnv1a, SimRng};
use crate::simulator::{ProtocolParams, SimStats, Simulator};
use atomicity_core::DurableLog;
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
    /// Coordinator vote-collection timeout: missing votes ⇒ abort.
    pub prepare_timeout: u64,
    /// Interval at which an audit whose snapshot is not yet applied at
    /// every participant retries.
    pub retry_interval: u64,
    /// Probability a message is lost in transit (deterministic per seed).
    pub drop_probability: f64,
    /// Probability each potential extra copy of a message is delivered.
    pub duplicate_probability: f64,
    /// How long a prepared participant waits for a decision before
    /// re-sending its vote.
    pub decision_timeout: u64,
    /// Bound on vote re-sends per (participant, transaction).
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
    /// Keep the protocol's trace lines in memory (see
    /// [`Cluster::trace`]); the rolling [`Cluster::trace_hash`] is kept
    /// either way.
    pub record_trace: bool,
    /// Record the run as a [`History`] (invoke/respond at prepare,
    /// commit-timestamp/abort at decision) for the certifier checker.
    pub record_history: bool,
    /// Inject the demonstration bug: the coordinator, having committed,
    /// presumes abort for the last participant (as if its vote had been
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

/// A simulated distributed transaction system: sharded bank accounts,
/// two-phase commit, fault-injecting network, crashes, recovery, and
/// checkpointed invariant checking.
///
/// See the crate docs for an end-to-end example.
pub struct Cluster {
    cfg: SimConfig,
    core: Simulator<KvMapSpec>,
    /// The run's root stream; only split from, never drawn from.
    root: SimRng,
    /// Latency draws for audit submissions.
    audit_rng: SimRng,
    /// Per-node failure clocks.
    mttf_rngs: Vec<SimRng>,
    mttf_count: Vec<u32>,
    /// Every submitted transfer's participants.
    participants: BTreeMap<ActivityId, Vec<NodeId>>,
    /// Crash events, each injected just before the processed-event
    /// count reaches its index.
    crash_plan: Vec<(u64, SimEvent)>,
    /// Completed audits: (timestamp, observed grand total).
    audit_results: Vec<(u64, i64)>,
    /// Deterministic workload sources.
    clients: Vec<Box<dyn DeterministicClient>>,
    /// Checkpoint invariants (`mem::take`n while running, so a checker
    /// sees the cluster without itself).
    checkers: Vec<Box<dyn InvariantChecker>>,
    violations: Vec<Violation>,
    /// The recorded run, when [`SimConfig::record_history`] is set.
    history: Option<History>,
    /// Called with the node id before each recovery — the hook through
    /// which a simulated restart re-opens the real on-disk WAL.
    restart_hook: Option<Box<dyn FnMut(NodeId)>>,
    /// Set by [`Cluster::heal`]: failure injection is over, drain cleanly.
    quiescing: bool,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("cfg", &self.cfg)
            .field("time", &self.now())
            .field("stats", self.stats())
            .field("violations", &self.violations)
            .finish_non_exhaustive()
    }
}

/// Node `n`'s accounts at their initial balance.
fn shard_spec(cfg: &SimConfig, n: u32) -> KvMapSpec {
    KvMapSpec::with_initial(
        (0..cfg.accounts_per_node).map(|i| ((i * cfg.nodes + n) as i64, cfg.initial_balance)),
    )
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
        factory: impl Fn(NodeId) -> Arc<dyn DurableLog>,
    ) -> Self {
        let nodes = (0..cfg.nodes)
            .map(|n| {
                let id = NodeId::new(n);
                Node::new(id, shard_spec(&cfg, n), factory(id), false)
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
        let schedule = cfg
            .partitions
            .iter()
            .cloned()
            .fold(PartitionSchedule::new(), PartitionSchedule::with);
        let network = Network::new(root.split("network", 0), faults, schedule);
        // One transaction per message, answered at arrival: the
        // per-transaction protocol is the batch-of-one configuration.
        let params = ProtocolParams {
            max_batch: 1,
            txn_timeout: cfg.prepare_timeout,
            resolve_timeout: cfg.decision_timeout,
            max_resolve_attempts: cfg.max_resends,
            record_trace: cfg.record_trace,
            demo_lost_ack: cfg.demo_lost_ack,
            ..ProtocolParams::default()
        };
        let mut cluster = Cluster {
            core: Simulator::new(params, network, nodes),
            audit_rng: root.split("audit", 0),
            mttf_count: vec![0; cfg.nodes as usize],
            mttf_rngs: (0..cfg.nodes)
                .map(|n| root.split("mttf", u64::from(n)))
                .collect(),
            root,
            history: cfg.record_history.then(History::new),
            cfg,
            participants: BTreeMap::new(),
            crash_plan: Vec::new(),
            audit_results: Vec::new(),
            clients: Vec::new(),
            checkers: Vec::new(),
            violations: Vec::new(),
            restart_hook: None,
            quiescing: false,
        };
        if cluster.cfg.mttf.is_some() {
            for node in cluster.node_ids() {
                cluster.schedule_next_mttf(node, 0);
            }
        }
        cluster
    }

    /// The current logical time (simulated microseconds).
    pub fn now(&self) -> u64 {
        self.core.now()
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
        self.core.stats()
    }

    /// The network's traffic counters (loss, duplication, reordering,
    /// partition cuts).
    pub fn network_stats(&self) -> NetStats {
        self.core.network_stats()
    }

    /// The coordinator's durable decision for `txn`, if made.
    pub fn decision(&self, txn: ActivityId) -> Option<bool> {
        self.core.coordinator().decision(txn)
    }

    /// The coordinator: decisions and commit timestamps.
    pub fn coordinator(&self) -> &Coordinator {
        self.core.coordinator()
    }

    /// The participants of `txn` (empty if unknown).
    pub fn participants_of(&self, txn: ActivityId) -> &[NodeId] {
        self.participants.get(&txn).map_or(&[], Vec::as_slice)
    }

    /// The system specification of the cluster's shards (object `n+1` is
    /// node `n`'s account map) — what the certifier checks the recorded
    /// history against.
    pub fn system_spec(&self) -> SystemSpec {
        (0..self.cfg.nodes).fold(SystemSpec::new(), |spec, n| {
            spec.with_object(ObjectId::new(n + 1), shard_spec(&self.cfg, n))
        })
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
        self.clients.push(client);
        self.core
            .schedule(self.core.now(), SimEvent::ClientTick(index));
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

    /// The protocol's trace lines (empty unless
    /// [`SimConfig::record_trace`] is set).
    pub fn trace(&self) -> &[String] {
        self.core.trace()
    }

    /// Rolling order-sensitive hash of the protocol's trace lines —
    /// equal between two runs of the same configuration.
    pub fn trace_hash(&self) -> u64 {
        self.core.trace_hash()
    }

    /// An order-insensitive digest of the externally observable final
    /// state: decisions, commit timestamps, per-node durable state, audit
    /// results, and counters. Two runs of the same seed must agree.
    pub fn state_digest(&self) -> u64 {
        let coordinator = self.core.coordinator();
        let mut s = String::new();
        for (txn, commit) in coordinator.decisions() {
            let _ = write!(s, "d{txn}={commit};");
        }
        for (txn, ts) in coordinator.commit_timestamps() {
            let _ = write!(s, "c{txn}={ts};");
        }
        for node in self.core.nodes() {
            let committed = node.committed_total_at(|t| coordinator.decision(t) == Some(true));
            let _ = write!(
                s,
                "n{}:up={},log={},total={};",
                node.id(),
                node.is_up(),
                node.stable_log().len(),
                committed
            );
        }
        for (ts, total) in &self.audit_results {
            let _ = write!(s, "a{ts}={total};");
        }
        let _ = write!(s, "{:?}", self.stats());
        fnv1a(s.as_bytes())
    }

    /// Schedules a crash of `node` just before the `at_event`-th processed
    /// event; the node recovers after `down_for` simulated microseconds.
    pub fn schedule_crash(&mut self, at_event: u64, node: NodeId, down_for: u64) {
        let crash = SimEvent::Crash { node, down_for };
        self.crash_plan.push((at_event, crash));
    }

    /// Schedules a crash of the *coordinator* just before the
    /// `at_event`-th processed event. Its decision log is durable;
    /// participants block (classic two-phase commit) and re-send their
    /// votes until it returns after `down_for`.
    pub fn schedule_coordinator_crash(&mut self, at_event: u64, down_for: u64) {
        let crash = SimEvent::CoordinatorCrash(down_for);
        self.crash_plan.push((at_event, crash));
    }

    /// Whether the coordinator is currently up.
    pub fn coordinator_is_up(&self) -> bool {
        self.core.coordinator().is_up()
    }

    /// Submits a timestamped read-only audit (§4.3 in the distributed
    /// setting): it takes the next timestamp and will observe exactly the
    /// transfers committed with smaller timestamps, retrying until those
    /// are applied at every participant. The result appears in
    /// [`Cluster::audit_results`]; returns the audit's timestamp.
    pub fn submit_audit(&mut self) -> u64 {
        let ts = self.core.coordinator.next_timestamp();
        let at = self.now()
            + self
                .audit_rng
                .range(self.cfg.min_latency, self.cfg.max_latency);
        self.core.schedule(at, SimEvent::AuditAttempt(ts));
        ts
    }

    /// Completed audits as (timestamp, observed grand total) pairs.
    pub fn audit_results(&self) -> &[(u64, i64)] {
        &self.audit_results
    }

    /// Whether every commit in `included` is durably applied at each of
    /// its participants.
    fn applied_everywhere(&self, included: &BTreeSet<ActivityId>) -> bool {
        included.iter().all(|&txn| {
            self.participants_of(txn).iter().all(|&node| {
                let n = self.node(node);
                n.is_up() && n.outcome(txn) == Some(true)
            })
        })
    }

    fn attempt_audit(&mut self, ts: u64) {
        let included: BTreeSet<ActivityId> = self
            .core
            .coordinator()
            .commit_timestamps()
            .filter(|&(_, cts)| cts < ts)
            .map(|(txn, _)| txn)
            .collect();
        if self.quiescing && !self.applied_everywhere(&included) {
            // Failure injection is over: the coordinator answers
            // lingering in-doubt queries directly so audits (and the run)
            // terminate.
            self.force_resolve_decided();
        }
        // Still not applied after everything healed and every in-doubt
        // query was answered means some participant holds an outcome that
        // contradicts its decision. Waiting longer cannot fix that — the
        // audit observes (and the checkers flag) the torn state instead
        // of retrying forever.
        if self.quiescing || self.applied_everywhere(&included) {
            let total = self
                .core
                .nodes()
                .iter()
                .map(|n| n.committed_total_at(|t| included.contains(&t)))
                .sum();
            self.audit_results.push((ts, total));
        } else {
            let at = self.now() + self.cfg.retry_interval;
            self.core.schedule(at, SimEvent::AuditAttempt(ts));
        }
    }

    /// Submits a transfer moving `amount` from `from` to `to` (global
    /// account ids) at the current simulated time. Returns the
    /// transaction's identity.
    pub fn submit_transfer(&mut self, from: i64, to: i64, amount: i64) -> ActivityId {
        let mut per_node: BTreeMap<NodeId, Vec<OpResult>> = BTreeMap::new();
        for (account, delta) in [(from, -amount), (to, amount)] {
            let adjust = (op("adjust", [account, delta]), Value::ok());
            let home = self.home_of(account);
            per_node.entry(home).or_default().push(adjust);
        }
        let participants = per_node.keys().copied().collect();
        let txn = self.core.submit(per_node);
        self.participants.insert(txn, participants);
        txn
    }

    /// Processes events until the queue drains.
    pub fn run_to_quiescence(&mut self) -> &SimStats {
        self.run_events(u64::MAX)
    }

    /// Processes at most `max_events` events.
    pub fn run_events(&mut self, max_events: u64) -> &SimStats {
        for _ in 0..max_events {
            // Crash injection is keyed on the global processed-event count.
            let events = self.stats().events;
            let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.crash_plan)
                .into_iter()
                .partition(|&(at_event, _)| at_event <= events);
            self.crash_plan = later;
            for (_, crash) in due {
                self.core.handle(crash);
            }
            let Some(event) = self.core.next_event() else {
                break;
            };
            self.handle(event);
            let every = self.cfg.checkpoint_every;
            if every > 0 && self.stats().events.is_multiple_of(every) {
                self.run_checkpoint();
            }
        }
        self.stats()
    }

    fn handle(&mut self, event: SimEvent) {
        match event {
            SimEvent::ClientTick(client) => {
                let now = self.now();
                let turn = self.clients[client].tick(now);
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
                    let at = self.now() + delay;
                    self.core.schedule(at, SimEvent::ClientTick(client));
                }
            }
            SimEvent::AuditAttempt(ts) => self.attempt_audit(ts),
            SimEvent::MttfCrash(node) => {
                let Some(mttf) = self.cfg.mttf else {
                    return;
                };
                let i = node.raw() as usize;
                if self.quiescing || self.mttf_count[i] >= mttf.max_crashes_per_node {
                    return;
                }
                self.mttf_count[i] += 1;
                let downtime = self.mttf_rngs[i].around(mttf.mean_downtime);
                self.core.stats.mttf_crashes += 1;
                self.core.crash(node, downtime);
                self.schedule_next_mttf(node, downtime);
            }
            SimEvent::Recover(node) => self.restart_node(node),
            SimEvent::Deliver {
                dst: Endpoint::Node(node),
                message,
            } if self.history.is_some() => self.deliver_recorded(node, message),
            event => self.core.handle(event),
        }
    }

    /// Delivers `message` to `node`, recording the history events it
    /// causes: an invoke/respond pair per operation of a freshly staged
    /// transaction, and the outcome of each freshly learned decision.
    fn deliver_recorded(&mut self, node: NodeId, message: Message) {
        let (n, object) = (self.core.node(node), ObjectId::new(node.raw() + 1));
        let history = self.history.as_mut().expect("called only while recording");
        let mut learning = Vec::new();
        match &message {
            // A down node drops the message: nothing happens to record.
            _ if !n.is_up() => {}
            Message::PrepareBatch { txns, .. } => {
                for (txn, ops) in txns.iter().filter(|(txn, _)| !n.prepared(*txn)) {
                    for (operation, value) in ops {
                        history.push(Event::invoke(*txn, object, operation.clone()));
                        history.push(Event::respond(*txn, object, value.clone()));
                    }
                }
            }
            Message::DecisionBatch { decisions } => {
                learning.extend(
                    decisions
                        .iter()
                        .map(|&(txn, _)| txn)
                        .filter(|&txn| n.outcome(txn).is_none()),
                );
            }
            Message::VoteBatch { .. } => {}
        }
        let dst = Endpoint::Node(node);
        self.core.handle(SimEvent::Deliver { dst, message });
        for txn in learning {
            record_outcome(self.history.as_mut(), &self.core, node, txn);
        }
    }

    /// Schedules the next MTTF crash of `node` at `extra_delay` plus a
    /// drawn uptime from now.
    fn schedule_next_mttf(&mut self, node: NodeId, extra_delay: u64) {
        let Some(mttf) = self.cfg.mttf else {
            return;
        };
        let uptime = self.mttf_rngs[node.raw() as usize].around(mttf.mean_uptime);
        let at = self.now() + extra_delay + uptime;
        self.core.schedule(at, SimEvent::MttfCrash(node));
    }

    /// Recovers a down `node` (restart hook first, so on-disk logs
    /// re-open); the core then re-votes its in-doubt transactions.
    fn restart_node(&mut self, node: NodeId) {
        if self.node(node).is_up() {
            return;
        }
        if let Some(hook) = self.restart_hook.as_mut() {
            hook(node);
        }
        self.core.recover(node);
    }

    /// Resolves, at every up node, each decided transaction that is
    /// durably prepared but still outcome-less — the coordinator
    /// answering in-doubt queries directly once failure injection is over.
    fn force_resolve_decided(&mut self) {
        let (core, mut history) = (&self.core, self.history.as_mut());
        for (txn, commit) in core.coordinator().decisions() {
            for &node in &self.participants[&txn] {
                let n = core.node(node);
                if n.is_up() && n.prepared(txn) && n.outcome(txn).is_none() {
                    n.learn_outcome(txn, commit);
                    record_outcome(history.as_deref_mut(), core, node, txn);
                }
            }
        }
    }

    /// Runs every registered invariant checker once, recording failures.
    fn run_checkpoint(&mut self) {
        let mut checkers = std::mem::take(&mut self.checkers);
        for checker in &mut checkers {
            self.core.stats.invariant_checks += 1;
            if let Err(detail) = checker.check(self) {
                self.violations.push(Violation {
                    time: self.now(),
                    events: self.stats().events,
                    checker: checker.name().to_string(),
                    detail,
                });
            }
        }
        self.checkers = checkers;
    }

    /// Access to a node (inspection).
    pub fn node(&self, id: NodeId) -> &Node<KvMapSpec> {
        self.core.node(id)
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
        for node in self.node_ids() {
            self.restart_node(node);
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
        let coordinator = self.core.coordinator();
        for (txn, commit) in coordinator.decisions() {
            for &node in self.participants_of(txn) {
                let n = self.node(node);
                match n.outcome(txn) {
                    Some(o) if o == commit => {}
                    Some(o) => {
                        return Err(format!(
                            "txn {txn} decided {commit} but {node} recorded {o}"
                        ))
                    }
                    // Never prepared (prepare lost to a crash) is fine
                    // only for aborted transactions.
                    None if commit => {
                        let state = if n.prepared(txn) {
                            "left it in doubt"
                        } else {
                            "never prepared"
                        };
                        return Err(format!("txn {txn} committed but {node} {state}"));
                    }
                    None => {}
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
        let actual: i64 = self.core.nodes().iter().map(Node::committed_total).sum();
        if actual == expected {
            Ok(())
        } else {
            Err(format!("total {actual} != expected {expected}"))
        }
    }
}

/// Records `node`'s durable outcome of `txn` in `history`, if recording.
fn record_outcome(
    history: Option<&mut History>,
    core: &Simulator<KvMapSpec>,
    node: NodeId,
    txn: ActivityId,
) {
    let Some(history) = history else {
        return;
    };
    let object = ObjectId::new(node.raw() + 1);
    match core.node(node).outcome(txn) {
        // A commit outcome always has a coordinator timestamp.
        Some(true) => {
            if let Some(ts) = core.coordinator().commit_timestamp(txn) {
                history.push(Event::commit_ts(txn, object, ts));
            }
        }
        Some(false) => history.push(Event::abort(txn, object)),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{OnlineCertifierCheck, StandardChecker};
    use crate::model::TransferClient;

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
        let (stats, net) = (cluster.stats().clone(), cluster.network_stats());
        assert!(net.lost > 0, "loss injection must fire");
        assert!(net.duplicated > 0, "duplication injection must fire");
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
        assert!(cluster.network_stats().duplicated > 0);
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
        assert!(
            cluster.network_stats().cut > 0,
            "partition must cut traffic"
        );
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
