//! A participant: a guardian host with recoverable stable storage.

use crate::message::NodeId;
use atomicity_core::recovery::{DurableLog, IntentionsStore, RecoveryOutcome};
use atomicity_spec::{ActivityId, ObjectId, OpResult, SequentialSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One participant of two-phase commit: its partition of the data behind
/// an intentions-list recoverable store, a liveness flag, and a
/// service-time model.
///
/// Crashing loses the volatile cache but not the stable log; recovery
/// redoes committed intentions and reports the in-doubt transactions. A
/// delivered batch costs `per_batch + per_op · |ops|` simulated
/// microseconds, worked off one batch at a time (`busy_until`), so a
/// saturated node queues — "more shards" is a real throughput curve. At
/// zero cost the node answers the instant a message arrives.
#[derive(Debug)]
pub struct Node<S: SequentialSpec> {
    id: NodeId,
    up: bool,
    store: IntentionsStore<S>,
    /// Commit with dependency footprints (`RecordKind::CommitDep`) when
    /// set; plain value-log commits otherwise.
    dep_logging: bool,
    /// Simulated time until which the node is busy with earlier batches.
    busy_until: u64,
    crash_count: u64,
}

impl<S: SequentialSpec> Node<S> {
    /// Creates a live node whose object (id `id + 1`) starts in `spec`'s
    /// initial state and persists to `log`. The log should sync on the
    /// caller's thread (like `SyncPolicy::SyncEach`) to keep the
    /// simulation deterministic.
    pub fn new(id: NodeId, spec: S, log: Arc<dyn DurableLog>, dep_logging: bool) -> Self {
        Node {
            id,
            up: true,
            store: IntentionsStore::shared(spec, ObjectId::new(id.raw() + 1), log),
            dep_logging,
            busy_until: 0,
            crash_count: 0,
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is currently up (a down node drops deliveries).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// How many times this node has crashed.
    pub fn crash_count(&self) -> u64 {
        self.crash_count
    }

    /// Books `ops` operations of batch work arriving at `now` into the
    /// service-time model and returns the simulated time at which the
    /// batch finishes processing.
    pub(crate) fn book_work(&mut self, now: u64, ops: usize, per_batch: u64, per_op: u64) -> u64 {
        let start = self.busy_until.max(now);
        self.busy_until = start + per_batch + per_op * ops as u64;
        self.busy_until
    }

    /// Durably stages a transaction's intentions (the prepare vote).
    pub(crate) fn prepare(&self, txn: ActivityId, mut ops: Vec<OpResult>) {
        debug_assert!(self.up, "prepare delivered to a down node");
        // The log keeps the intentions for the run's life.
        ops.shrink_to_fit();
        self.store.prepare(txn, ops);
    }

    /// Applies a durable outcome: commit (dependency-logged or plain, per
    /// construction) or abort. Idempotent: the first outcome wins.
    pub fn learn_outcome(&self, txn: ActivityId, commit: bool) {
        if !commit {
            self.store.abort(txn);
        } else if self.dep_logging {
            self.store.commit_dependency_logged(txn);
        } else {
            self.store.commit(txn);
        }
    }

    /// Crashes the node: volatile state is lost, stable storage survives.
    pub(crate) fn crash(&mut self) {
        self.up = false;
        self.crash_count += 1;
        self.store.crash();
    }

    /// Restarts the node and replays the stable log; returns the recovery
    /// outcome (including in-doubt transactions).
    pub(crate) fn recover(&mut self) -> RecoveryOutcome {
        self.up = true;
        self.store.recover()
    }

    /// The durable outcome of `txn` at this node, if any.
    pub fn outcome(&self, txn: ActivityId) -> Option<bool> {
        self.store.outcome(txn)
    }

    /// Whether `txn` is durably prepared here.
    pub fn prepared(&self, txn: ActivityId) -> bool {
        self.store.prepared(txn)
    }

    /// The node's durable log (its length is a recovery cost proxy; its
    /// records are the input of offline recovery experiments).
    pub fn stable_log(&self) -> &dyn DurableLog {
        self.store.stable_log()
    }
}

impl<S: SequentialSpec<State = BTreeMap<i64, i64>>> Node<S> {
    /// The committed key/value state of the node's partition.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed and has not recovered.
    pub fn state(&self) -> BTreeMap<i64, i64> {
        self.store
            .committed_frontier()
            .into_iter()
            .next()
            .unwrap_or_default()
    }

    /// The committed total of this node's values.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed and has not recovered.
    pub fn committed_total(&self) -> i64 {
        self.state().values().sum()
    }

    /// The total of this node's values as of a timestamped snapshot:
    /// exactly the committed transactions selected by `include` are
    /// applied (served from the durable log, so the answer is independent
    /// of when it is asked — the essence of hybrid read-only activities).
    pub fn committed_total_at(&self, include: impl Fn(ActivityId) -> bool) -> i64 {
        self.store
            .replay_committed_subset(include)
            .first()
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::recovery::StableLog;
    use atomicity_spec::specs::KvMapSpec;
    use atomicity_spec::{op, Value};

    fn txn(n: u32) -> ActivityId {
        ActivityId::new(n)
    }

    fn node(accounts: &[(i64, i64)], dep_logging: bool) -> Node<KvMapSpec> {
        let spec = KvMapSpec::with_initial(accounts.iter().copied());
        Node::new(
            NodeId::new(0),
            spec,
            Arc::new(StableLog::new()),
            dep_logging,
        )
    }

    fn adjust(key: i64, delta: i64) -> Vec<OpResult> {
        vec![(op("adjust", [key, delta]), Value::ok())]
    }

    #[test]
    fn prepare_commit_updates_total() {
        let node = node(&[(1, 100), (2, 100)], false);
        node.prepare(txn(1), adjust(1, -30));
        node.learn_outcome(txn(1), true);
        assert_eq!(node.committed_total(), 170);
        assert_eq!(node.outcome(txn(1)), Some(true));
    }

    #[test]
    fn crash_then_recover_preserves_committed() {
        let mut node = node(&[(1, 100)], false);
        node.prepare(txn(1), adjust(1, 50));
        node.learn_outcome(txn(1), true);
        node.prepare(txn(2), adjust(1, 7));
        node.crash();
        assert!(!node.is_up());
        let outcome = node.recover();
        assert_eq!(outcome.redone, vec![txn(1)]);
        assert_eq!(outcome.in_doubt, vec![txn(2)]);
        assert_eq!(node.committed_total(), 150);
        node.learn_outcome(txn(2), false);
        assert_eq!(node.committed_total(), 150);
        assert_eq!(node.crash_count(), 1);
    }

    #[test]
    fn abort_leaves_balance_untouched() {
        let node = node(&[(1, 100)], false);
        node.prepare(txn(1), adjust(1, -100));
        node.learn_outcome(txn(1), false);
        assert_eq!(node.committed_total(), 100);
        assert_eq!(node.outcome(txn(1)), Some(false));
        assert!(node.prepared(txn(1)));
    }

    #[test]
    fn stage_commit_crash_recover_round_trip() {
        let mut node = node(&[], true);
        node.prepare(txn(1), adjust(10, 5));
        node.prepare(txn(2), adjust(10, 7));
        node.prepare(txn(3), adjust(11, -2));
        node.learn_outcome(txn(1), true);
        node.learn_outcome(txn(2), true);
        node.learn_outcome(txn(3), false);
        assert_eq!(node.state().get(&10), Some(&12));
        assert_eq!(node.state().get(&11), None);

        node.crash();
        let outcome = node.recover();
        assert_eq!(outcome.redone.len(), 2);
        assert_eq!(outcome.discarded.len(), 1);
        assert_eq!(node.state().get(&10), Some(&12));
    }

    #[test]
    fn in_doubt_survives_crash() {
        let mut node = node(&[], false);
        node.prepare(txn(9), adjust(1, 1));
        node.crash();
        let outcome = node.recover();
        assert_eq!(outcome.in_doubt, vec![txn(9)]);
        node.learn_outcome(txn(9), true);
        assert_eq!(node.state().get(&1), Some(&1));
    }

    #[test]
    fn service_time_model_queues() {
        let mut node = node(&[], false);
        assert_eq!(node.book_work(100, 10, 50, 2), 170);
        // Arrives while busy: queues behind the first batch.
        assert_eq!(node.book_work(120, 10, 50, 2), 240);
        // Arrives after an idle gap: starts at its arrival time.
        assert_eq!(node.book_work(1000, 1, 50, 2), 1052);
        // At zero cost a node answers at arrival.
        assert_eq!(node.book_work(2000, 9, 0, 0), 2000);
    }
}
