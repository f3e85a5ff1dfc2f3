//! Identities, protocol messages and events of the simulated network.

use atomicity_spec::{ActivityId, OpResult};
use std::fmt;

/// Identifies a node (guardian host) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A network endpoint: a participant node or the coordinator. Partition
/// schedules and per-link fault configurations key on endpoint pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// The two-phase-commit coordinator (also the clients' ingress).
    Coordinator,
    /// A participant node.
    Node(NodeId),
}

/// A network message of the two-phase-commit protocol. Every
/// coordinator↔participant message carries a *batch*: the coordinator
/// queues prepares and decisions per participant and flushes a queue on
/// a window or when it fills, so a participant absorbs one network round
/// and one log force for many transactions. A batch of one is the
/// per-transaction protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Coordinator → participant: durably stage each transaction's
    /// intentions and vote for the whole batch at once.
    PrepareBatch {
        /// Batch sequence number.
        batch: u64,
        /// Each transaction with its (operation, result) pairs homed at
        /// the receiving participant, in execution order.
        txns: Vec<(ActivityId, Vec<OpResult>)>,
    },
    /// Participant → coordinator: the listed transactions are durably
    /// prepared here (one yes-vote each).
    VoteBatch {
        /// The voting participant.
        shard: NodeId,
        /// The transactions voted for.
        txns: Vec<ActivityId>,
    },
    /// Coordinator → participant: durable outcomes (`true` = commit).
    DecisionBatch {
        /// The decided transactions.
        decisions: Vec<(ActivityId, bool)>,
    },
}

/// An event in the simulation's queue. The protocol's own events are
/// handled by [`crate::Simulator::handle`]; `ClientTick`, `AuditAttempt`
/// and `MttfCrash` belong to the façade that scheduled them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// Workload client `.0` wakes up to submit requests.
    ClientTick(usize),
    /// The coordinator flushes participant `.0`'s prepare queue.
    FlushPrepares(NodeId),
    /// The coordinator flushes participant `.0`'s decision queue.
    FlushDecisions(NodeId),
    /// Deliver a message to an endpoint (dropped if the endpoint is down).
    Deliver {
        /// Destination endpoint.
        dst: Endpoint,
        /// Payload.
        message: Message,
    },
    /// The coordinator's vote-collection timeout for transaction `.0`.
    TxnTimeout(ActivityId),
    /// A node crashes (a no-op if it is already down).
    Crash {
        /// The crashing node.
        node: NodeId,
        /// How long it stays down before recovering.
        down_for: u64,
    },
    /// Crashed node `.0` restarts and runs log recovery.
    Recover(NodeId),
    /// A prepared participant that has seen no decision for a transaction
    /// re-votes, bounded by an attempt counter — the liveness path across
    /// lost votes and decisions and crash-recovered in-doubt state.
    ResolveNudge {
        /// The asking participant.
        shard: NodeId,
        /// The undecided transaction.
        txn: ActivityId,
        /// Retransmission attempt number (bounded).
        attempt: u32,
    },
    /// The coordinator crashes for `.0` simulated microseconds (a no-op
    /// if it is already down); its decision log is durable.
    CoordinatorCrash(u64),
    /// The crashed coordinator restarts.
    CoordinatorRecover,
    /// The timestamped read-only audit with timestamp `.0` attempts to
    /// complete (§4.3: it must see exactly the committed updates with
    /// commit timestamps below its own; it retries until those are
    /// applied at every node).
    AuditAttempt(u64),
    /// Node `.0`'s mean-time-to-failure crash clock fires.
    MttfCrash(NodeId),
}
