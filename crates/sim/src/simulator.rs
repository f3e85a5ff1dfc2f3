//! The one two-phase-commit core: the event queue, the fault-injecting
//! network, the batching [`Coordinator`] and the participant [`Node`]s.
//!
//! The simulator owns time, the queue and the network. A façade — the
//! single-object [`crate::Cluster`] or the partitioned service of
//! `atomicity-dist` — builds the nodes, submits transactions with
//! [`Simulator::submit`] and drives the one loop:
//! [`Simulator::next_event`] advances logical time, [`Simulator::handle`]
//! runs every protocol event, and the façade runs the events it
//! scheduled itself (client ticks, audits, failure clocks). The trace
//! is a rolling hash over one line per submission, staged batch, timeout
//! abort, crash, recovery and abandoned re-vote.

use crate::coordinator::{Coordinator, FlushReq};
use crate::message::{Endpoint, Message, NodeId, SimEvent};
use crate::network::{NetStats, Network};
use crate::node::Node;
use crate::queue::EventQueue;
use crate::rng::Fnv1a;
use atomicity_spec::{ActivityId, OpResult, SequentialSpec};
use std::collections::BTreeMap;
use std::fmt;

/// The protocol's knobs, set by each façade from its own configuration
/// (`Default` zeroes them all; a façade sets every one it relies on).
#[derive(Debug, Clone, Default)]
pub struct ProtocolParams {
    /// Maximum transactions per batch (1 = one transaction per message).
    pub max_batch: usize,
    /// Batching window: a newly non-empty coordinator queue flushes after
    /// this long (or immediately when it fills).
    pub batch_window: u64,
    /// Coordinator vote-collection timeout per transaction.
    pub txn_timeout: u64,
    /// A prepared participant re-votes after this long without a decision.
    pub resolve_timeout: u64,
    /// Bound on re-votes per (participant, transaction).
    pub max_resolve_attempts: u32,
    /// Participant service time per operation in a batch.
    pub per_op_cost: u64,
    /// Participant service time per batch (the amortizable part).
    pub per_batch_cost: u64,
    /// Keep the trace lines in memory (the rolling hash is always kept).
    pub record_trace: bool,
    /// Inject the coordinator's lost-ack lie (see [`Coordinator::new`]).
    pub demo_lost_ack: bool,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Transactions the coordinator decided to commit.
    pub committed: u64,
    /// Transactions the coordinator decided to abort.
    pub aborted: u64,
    /// Aborts decided by the vote-collection timeout.
    pub timeout_aborts: u64,
    /// Messages delivered (including drops to down endpoints).
    pub messages: u64,
    /// Messages dropped because the destination was down.
    pub dropped: u64,
    /// Votes re-sent by participants awaiting a decision.
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
    /// Simulated time at which the last transaction was decided.
    pub last_decision_at: u64,
}

/// The simulated two-phase-commit system over participants whose data
/// follows `S`. See the module docs.
#[derive(Debug)]
pub struct Simulator<S: SequentialSpec> {
    params: ProtocolParams,
    now: u64,
    queue: EventQueue,
    network: Network,
    pub(crate) coordinator: Coordinator,
    nodes: Vec<Node<S>>,
    next_txn: u32,
    next_batch: u64,
    /// Coordinator flushes and timeouts that fell due while it was down,
    /// rescheduled when it recovers.
    parked: Vec<SimEvent>,
    trace: Vec<String>,
    trace_hash: u64,
    pub(crate) stats: SimStats,
}

impl<S: SequentialSpec> Simulator<S> {
    /// Builds the system over `nodes` (node `i` must have id `i`).
    pub fn new(params: ProtocolParams, network: Network, nodes: Vec<Node<S>>) -> Self {
        Simulator {
            coordinator: Coordinator::new(params.max_batch, params.demo_lost_ack),
            params,
            now: 0,
            queue: EventQueue::new(),
            network,
            nodes,
            next_txn: 1,
            next_batch: 0,
            parked: Vec::new(),
            trace: Vec::new(),
            trace_hash: 0,
            stats: SimStats::default(),
        }
    }

    /// The current logical time (simulated microseconds).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The network's traffic counters.
    pub(crate) fn network_stats(&self) -> NetStats {
        *self.network.stats()
    }

    /// The coordinator (decisions, timestamps, participants).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Every participant, in id order.
    pub fn nodes(&self) -> &[Node<S>] {
        &self.nodes
    }

    /// One participant.
    pub fn node(&self, id: NodeId) -> &Node<S> {
        &self.nodes[id.raw() as usize]
    }

    /// Transactions submitted so far (they are numbered from 1).
    pub fn submitted(&self) -> u64 {
        u64::from(self.next_txn - 1)
    }

    /// The recorded trace lines (empty unless
    /// [`ProtocolParams::record_trace`]).
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// The rolling hash of the run's trace lines — equal across runs
    /// with equal configurations, the replay fingerprint.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: u64, event: SimEvent) {
        self.queue.schedule(at, event);
    }

    /// Folds one trace line into the hash; the line is built only when
    /// the trace is recorded.
    fn note(&mut self, line: fmt::Arguments<'_>) {
        let mut h = Fnv1a::default();
        fmt::write(&mut h, line).expect("hashing cannot fail");
        self.trace_hash = self.trace_hash.rotate_left(5) ^ h.0;
        if self.params.record_trace {
            self.trace.push(line.to_string());
        }
    }

    /// Submits a transaction split into per-participant slices at the
    /// current time: the coordinator queues the prepares and arms the
    /// vote-collection timeout. Returns the transaction's identity.
    pub fn submit(&mut self, slices: BTreeMap<NodeId, Vec<OpResult>>) -> ActivityId {
        let txn = ActivityId::new(self.next_txn);
        self.next_txn += 1;
        let shards = slices.len();
        let now = self.now;
        self.note(format_args!("t={now} submit {txn} shards={shards}"));
        let reqs = self.coordinator.admit(txn, slices);
        self.schedule_flushes(reqs, SimEvent::FlushPrepares);
        let at = self.now + self.params.txn_timeout;
        self.schedule(at, SimEvent::TxnTimeout(txn));
        txn
    }

    /// Pops the earliest event and advances logical time to it; `None`
    /// when the queue is drained.
    pub fn next_event(&mut self) -> Option<SimEvent> {
        let scheduled = self.queue.pop()?;
        self.now = self.now.max(scheduled.time);
        self.stats.events += 1;
        Some(scheduled.event)
    }

    /// Runs one protocol event.
    ///
    /// # Panics
    ///
    /// Panics on a façade event (`ClientTick`, `AuditAttempt`,
    /// `MttfCrash`): those are the façade's to run.
    pub fn handle(&mut self, event: SimEvent) {
        let decided = self.stats.committed + self.stats.aborted;
        let now = self.now;
        match event {
            SimEvent::FlushPrepares(_) | SimEvent::FlushDecisions(_) | SimEvent::TxnTimeout(_)
                if !self.coordinator.is_up() =>
            {
                self.parked.push(event);
            }
            SimEvent::FlushPrepares(shard) => {
                let (txns, more) = self.coordinator.drain_prepares(shard);
                if more {
                    self.schedule(now, event);
                }
                if !txns.is_empty() {
                    let batch = self.next_batch;
                    self.next_batch += 1;
                    let (src, dst) = (Endpoint::Coordinator, Endpoint::Node(shard));
                    self.send(now, src, dst, Message::PrepareBatch { batch, txns });
                }
            }
            SimEvent::FlushDecisions(shard) => {
                let (decisions, more) = self.coordinator.drain_decisions(shard);
                if more {
                    self.schedule(now, event);
                }
                if !decisions.is_empty() {
                    let (src, dst) = (Endpoint::Coordinator, Endpoint::Node(shard));
                    self.send(now, src, dst, Message::DecisionBatch { decisions });
                }
            }
            SimEvent::Deliver { dst, message } => self.deliver(dst, message),
            SimEvent::TxnTimeout(txn) => {
                let reqs = self.coordinator.on_timeout(txn, &mut self.stats);
                if !reqs.is_empty() {
                    self.note(format_args!("t={now} timeout-abort {txn}"));
                }
                self.schedule_flushes(reqs, SimEvent::FlushDecisions);
            }
            SimEvent::Crash { node, down_for } => self.crash(node, down_for),
            SimEvent::Recover(node) => self.recover(node),
            SimEvent::ResolveNudge {
                shard,
                txn,
                attempt,
            } => self.nudge(shard, txn, attempt),
            SimEvent::CoordinatorCrash(down_for) if self.coordinator.is_up() => {
                self.coordinator.set_up(false);
                self.stats.coordinator_crashes += 1;
                self.note(format_args!("t={now} crash coordinator"));
                self.schedule(now + down_for, SimEvent::CoordinatorRecover);
            }
            SimEvent::CoordinatorCrash(_) => {}
            SimEvent::CoordinatorRecover => {
                self.coordinator.set_up(true);
                self.note(format_args!("t={now} recover coordinator"));
                for event in std::mem::take(&mut self.parked) {
                    self.schedule(now, event);
                }
            }
            SimEvent::ClientTick(_) | SimEvent::AuditAttempt(_) | SimEvent::MttfCrash(_) => {
                panic!("façade event reached the protocol: {event:?}")
            }
        }
        if self.stats.committed + self.stats.aborted > decided {
            self.stats.last_decision_at = now;
        }
    }

    /// Sends `message` over the simulated network at time `at`,
    /// scheduling one delivery event per planned copy.
    fn send(&mut self, at: u64, src: Endpoint, dst: Endpoint, message: Message) {
        let times = self.network.plan(at, src, dst);
        if let Some((&last, copies)) = times.split_last() {
            for &t in copies {
                let message = message.clone();
                self.schedule(t, SimEvent::Deliver { dst, message });
            }
            self.schedule(last, SimEvent::Deliver { dst, message });
        }
    }

    fn schedule_flushes(&mut self, reqs: Vec<FlushReq>, flush: fn(NodeId) -> SimEvent) {
        for r in reqs {
            let delay = if r.immediate {
                0
            } else {
                self.params.batch_window
            };
            self.schedule(self.now + delay, flush(r.shard));
        }
    }

    /// Re-votes from `shard` for `txns` at time `at`, and arms a nudge
    /// per transaction in case no decision comes back.
    fn revote(&mut self, at: u64, shard: NodeId, txns: Vec<ActivityId>, attempt: u32) {
        let nudge_at = at + self.params.resolve_timeout;
        for &txn in &txns {
            let nudge = SimEvent::ResolveNudge {
                shard,
                txn,
                attempt,
            };
            self.schedule(nudge_at, nudge);
        }
        let (src, dst) = (Endpoint::Node(shard), Endpoint::Coordinator);
        self.send(at, src, dst, Message::VoteBatch { shard, txns });
    }

    fn deliver(&mut self, dst: Endpoint, message: Message) {
        self.stats.messages += 1;
        let up = match dst {
            Endpoint::Node(n) => self.nodes[n.raw() as usize].is_up(),
            Endpoint::Coordinator => self.coordinator.is_up(),
        };
        if !up {
            self.stats.dropped += 1;
            return;
        }
        let (now, per_batch, per_op) = (
            self.now,
            self.params.per_batch_cost,
            self.params.per_op_cost,
        );
        match (dst, message) {
            (Endpoint::Node(n), Message::PrepareBatch { batch, txns }) => {
                let node = &mut self.nodes[n.raw() as usize];
                let ops = txns.iter().map(|(_, ops)| ops.len()).sum();
                let done = node.book_work(now, ops, per_batch, per_op);
                let ids: Vec<ActivityId> = txns.iter().map(|&(txn, _)| txn).collect();
                for (txn, ops) in txns {
                    node.prepare(txn, ops);
                }
                let staged = ids.len();
                self.note(format_args!(
                    "t={now} {n} staged batch={batch} txns={staged}"
                ));
                self.revote(done, n, ids, 0);
            }
            (Endpoint::Node(n), Message::DecisionBatch { decisions }) => {
                let node = &mut self.nodes[n.raw() as usize];
                node.book_work(now, decisions.len(), per_batch, per_op);
                for (txn, commit) in decisions {
                    node.learn_outcome(txn, commit);
                }
            }
            (Endpoint::Coordinator, Message::VoteBatch { shard, txns }) => {
                let reqs = self.coordinator.record_votes(shard, &txns, &mut self.stats);
                self.schedule_flushes(reqs, SimEvent::FlushDecisions);
            }
            // Misrouted combinations cannot be constructed by this loop.
            _ => {}
        }
    }

    /// A prepared participant still without an outcome re-votes, up to
    /// the attempt bound.
    fn nudge(&mut self, shard: NodeId, txn: ActivityId, attempt: u32) {
        let node = &self.nodes[shard.raw() as usize];
        if !node.is_up() || node.outcome(txn).is_some() || !node.prepared(txn) {
            return;
        }
        if attempt >= self.params.max_resolve_attempts {
            let now = self.now;
            self.note(format_args!("t={now} {shard} gave up resolving {txn}"));
            return;
        }
        self.stats.resends += 1;
        self.revote(self.now, shard, vec![txn], attempt + 1);
    }

    /// Crashes `node` for `down_for` simulated microseconds; a crash of a
    /// node that is already down does nothing and schedules nothing.
    pub(crate) fn crash(&mut self, node: NodeId, down_for: u64) {
        let n = &mut self.nodes[node.raw() as usize];
        if !n.is_up() {
            return;
        }
        n.crash();
        self.stats.crashes += 1;
        let now = self.now;
        self.note(format_args!("t={now} crash {node}"));
        self.schedule(self.now + down_for, SimEvent::Recover(node));
    }

    /// Restarts a down `node`: log recovery, then a re-vote for every
    /// in-doubt transaction — the coordinator either completes the vote
    /// set or answers with the durable decision. A live node is left
    /// alone.
    pub(crate) fn recover(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.raw() as usize];
        if n.is_up() {
            return;
        }
        let outcome = n.recover();
        let (redone, in_doubt) = (outcome.redone.len(), outcome.in_doubt.len());
        self.stats.recoveries += 1;
        self.stats.redo_records += redone as u64;
        self.stats.in_doubt += in_doubt as u64;
        let now = self.now;
        self.note(format_args!(
            "t={now} recover {node} redone={redone} in_doubt={in_doubt}"
        ));
        if in_doubt > 0 {
            self.revote(now, node, outcome.in_doubt, 0);
        }
    }
}
