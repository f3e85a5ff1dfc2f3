//! The batching two-phase-commit coordinator: pure protocol state whose
//! methods return *flush requests* — which per-participant queue needs a
//! flush event, now (it filled) or after the batching window — instead
//! of touching the network or the queue.
//!
//! Safety is the presumed-nothing argument: a decision is in the durable
//! table before any participant learns it, commit needs a full vote set,
//! and the vote-collection timeout decides abort. Liveness is
//! participant-driven ([`crate::SimEvent::ResolveNudge`]): a re-vote for
//! a decided transaction re-enqueues the decision. A crashed coordinator
//! ([`Coordinator::set_up`]) keeps its tables; the event loop drops its
//! deliveries and holds its flushes and timeouts until it is back.

use crate::message::NodeId;
use crate::simulator::SimStats;
use atomicity_spec::{ActivityId, OpResult};
use std::collections::{BTreeMap, BTreeSet};

/// A queue the event loop must arrange to flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlushReq {
    /// The participant whose queue needs flushing.
    pub(crate) shard: NodeId,
    /// `true` when the queue filled and should flush now rather than at
    /// the end of the batching window.
    pub(crate) immediate: bool,
}

/// Per-participant queues flushed in batches of at most `max_batch`: a
/// queue arms a flush when it becomes non-empty and asks for an
/// immediate one when it fills.
#[derive(Debug)]
struct Batches<T> {
    max_batch: usize,
    queues: BTreeMap<NodeId, Vec<T>>,
    armed: BTreeSet<NodeId>,
}

impl<T> Batches<T> {
    fn new(max_batch: usize) -> Self {
        let (queues, armed) = (BTreeMap::new(), BTreeSet::new());
        Batches {
            max_batch,
            queues,
            armed,
        }
    }

    fn push(&mut self, shard: NodeId, item: T, reqs: &mut Vec<FlushReq>) {
        let queue = self.queues.entry(shard).or_default();
        queue.push(item);
        let full = queue.len() >= self.max_batch;
        if self.armed.insert(shard) || full {
            reqs.push(FlushReq {
                shard,
                immediate: full,
            });
        }
    }

    /// Takes the next batch for `shard`, disarming its flush once the
    /// queue is empty; returns it and whether more remain queued.
    fn drain(&mut self, shard: NodeId) -> (Vec<T>, bool) {
        let queue = self.queues.entry(shard).or_default();
        let batch: Vec<T> = queue.drain(..queue.len().min(self.max_batch)).collect();
        let more = !queue.is_empty();
        if !more {
            self.armed.remove(&shard);
        }
        (batch, more)
    }
}

/// The coordinator: per-participant prepare and decision queues, the
/// vote table, and the durable decision log with commit timestamps.
#[derive(Debug)]
pub struct Coordinator {
    up: bool,
    prepares: Batches<(ActivityId, Vec<OpResult>)>,
    outcomes: Batches<(ActivityId, bool)>,
    /// Each undecided transaction's participants and votes so far.
    pending: BTreeMap<ActivityId, (Vec<NodeId>, Vec<NodeId>)>,
    /// The durable decisions: a commit carries its timestamp, drawn from
    /// the counter that also stamps audits (hybrid atomicity,
    /// distributed); an abort carries none.
    decisions: BTreeMap<ActivityId, Option<u64>>,
    ts_clock: u64,
    /// `Some` injects the demonstration bug — having committed, tell the
    /// last participant abort, as if its vote had been lost — and holds
    /// the `(txn, participant)` pairs lied to.
    lied_to: Option<BTreeSet<(ActivityId, NodeId)>>,
}

impl Coordinator {
    /// Creates an idle, live coordinator flushing batches of at most
    /// `max_batch` transactions; `demo_lost_ack` injects the lost-ack lie.
    pub fn new(max_batch: usize, demo_lost_ack: bool) -> Self {
        let max_batch = max_batch.max(1);
        Coordinator {
            up: true,
            prepares: Batches::new(max_batch),
            outcomes: Batches::new(max_batch),
            pending: BTreeMap::new(),
            decisions: BTreeMap::new(),
            ts_clock: 0,
            lied_to: demo_lost_ack.then(BTreeSet::new),
        }
    }

    /// Admits a transaction split into per-participant slices: queues
    /// each slice and registers the vote set. Returns the prepare queues
    /// that now need a flush event.
    pub(crate) fn admit(
        &mut self,
        txn: ActivityId,
        slices: BTreeMap<NodeId, Vec<OpResult>>,
    ) -> Vec<FlushReq> {
        let mut reqs = Vec::new();
        self.pending
            .insert(txn, (slices.keys().copied().collect(), Vec::new()));
        for (shard, ops) in slices {
            self.prepares.push(shard, (txn, ops), &mut reqs);
        }
        reqs
    }

    /// Takes the next prepare batch for `shard`, plus whether more remain
    /// queued (the caller schedules another flush).
    pub(crate) fn drain_prepares(
        &mut self,
        shard: NodeId,
    ) -> (Vec<(ActivityId, Vec<OpResult>)>, bool) {
        self.prepares.drain(shard)
    }

    /// Takes the next decision batch for `shard`; same contract as
    /// [`Coordinator::drain_prepares`].
    pub(crate) fn drain_decisions(&mut self, shard: NodeId) -> (Vec<(ActivityId, bool)>, bool) {
        self.outcomes.drain(shard)
    }

    /// Records `shard`'s yes-votes. A full vote set decides commit; a
    /// vote for an already-decided transaction re-enqueues the decision
    /// to the voter (the retransmission path). Decisions are counted in
    /// `stats`. Returns decision queues that now need a flush event.
    pub(crate) fn record_votes(
        &mut self,
        shard: NodeId,
        txns: &[ActivityId],
        stats: &mut SimStats,
    ) -> Vec<FlushReq> {
        let mut reqs = Vec::new();
        for &txn in txns {
            if let Some(decided) = self.decision(txn) {
                // The demonstration bug keeps lying to its victims.
                let lie = self
                    .lied_to
                    .as_ref()
                    .is_some_and(|l| l.contains(&(txn, shard)));
                self.outcomes.push(shard, (txn, decided && !lie), &mut reqs);
                continue;
            }
            // A vote for a transaction never admitted decides nothing.
            let complete = self
                .pending
                .get_mut(&txn)
                .is_some_and(|(participants, votes)| {
                    if !votes.contains(&shard) {
                        votes.push(shard);
                    }
                    votes.len() == participants.len()
                });
            if complete {
                self.decide(txn, true, stats, &mut reqs);
            }
        }
        reqs
    }

    /// The vote-collection timeout fired: aborts the transaction if it
    /// is still undecided. Returns decision queues needing a flush.
    pub(crate) fn on_timeout(&mut self, txn: ActivityId, stats: &mut SimStats) -> Vec<FlushReq> {
        let mut reqs = Vec::new();
        if self.pending.contains_key(&txn) {
            stats.timeout_aborts += 1;
            self.decide(txn, false, stats, &mut reqs);
        }
        reqs
    }

    fn decide(
        &mut self,
        txn: ActivityId,
        commit: bool,
        stats: &mut SimStats,
        reqs: &mut Vec<FlushReq>,
    ) {
        // Durable-first: the decision is in the table before any
        // participant can learn it.
        let ts = commit.then(|| self.next_timestamp());
        self.decisions.insert(txn, ts);
        if commit {
            stats.committed += 1;
        } else {
            stats.aborted += 1;
        }
        let (participants, _) = self
            .pending
            .remove(&txn)
            .expect("only pending txns are decided");
        let last = participants.len().saturating_sub(1);
        for (i, shard) in participants.into_iter().enumerate() {
            let mut outcome = commit;
            if let Some(lied_to) = self
                .lied_to
                .as_mut()
                .filter(|_| commit && i == last && i > 0)
            {
                lied_to.insert((txn, shard));
                outcome = false;
            }
            self.outcomes.push(shard, (txn, outcome), reqs);
        }
    }

    /// Draws the next timestamp (audits share the commit counter).
    pub(crate) fn next_timestamp(&mut self) -> u64 {
        self.ts_clock += 1;
        self.ts_clock
    }

    /// Crashes (`false`) or restarts (`true`) the coordinator; its tables
    /// are durable either way.
    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Whether the coordinator is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The durable decision for `txn` (`true` = commit), if one exists.
    pub fn decision(&self, txn: ActivityId) -> Option<bool> {
        self.decisions.get(&txn).map(Option::is_some)
    }

    /// Every durable decision (transaction, commit), in transaction order.
    pub fn decisions(&self) -> impl Iterator<Item = (ActivityId, bool)> + '_ {
        self.decisions.iter().map(|(&t, ts)| (t, ts.is_some()))
    }

    /// Every commit with its timestamp, in transaction order.
    pub fn commit_timestamps(&self) -> impl Iterator<Item = (ActivityId, u64)> + '_ {
        self.decisions
            .iter()
            .filter_map(|(&t, ts)| Some((t, (*ts)?)))
    }

    /// The commit timestamp of `txn`, if it committed.
    pub fn commit_timestamp(&self, txn: ActivityId) -> Option<u64> {
        self.decisions.get(&txn).copied().flatten()
    }

    /// Transactions admitted but not yet decided.
    pub fn undecided(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::{op, Value};

    fn slices(pairs: &[(u32, i64, i64)]) -> BTreeMap<NodeId, Vec<OpResult>> {
        let mut m: BTreeMap<NodeId, Vec<OpResult>> = BTreeMap::new();
        for &(shard, key, delta) in pairs {
            m.entry(NodeId::new(shard))
                .or_default()
                .push((op("adjust", [key, delta]), Value::ok()));
        }
        m
    }

    #[test]
    fn full_votes_decide_commit() {
        let (mut c, mut stats) = (Coordinator::new(8, false), SimStats::default());
        let txn = ActivityId::new(1);
        let reqs = c.admit(txn, slices(&[(0, 1, -5), (1, 2, 5)]));
        assert_eq!(reqs.len(), 2, "both shard queues newly armed");
        assert!(reqs.iter().all(|r| !r.immediate));

        let (batch, more) = c.drain_prepares(NodeId::new(0));
        assert!(batch.len() == 1 && !more);
        assert!(c
            .record_votes(NodeId::new(0), &[txn], &mut stats)
            .is_empty());
        assert_eq!(c.decision(txn), None, "one vote is not enough");
        let reqs = c.record_votes(NodeId::new(1), &[txn], &mut stats);
        assert_eq!(c.decision(txn), Some(true));
        assert_eq!(reqs.len(), 2, "decisions queued to both participants");
        assert_eq!(stats.committed, 1);
        assert_eq!(c.commit_timestamp(txn), Some(1));
        assert_eq!(c.undecided(), 0);
    }

    #[test]
    fn timeout_aborts_and_late_vote_gets_the_decision_resent() {
        let (mut c, mut stats) = (Coordinator::new(8, false), SimStats::default());
        let txn = ActivityId::new(2);
        c.admit(txn, slices(&[(0, 1, -5), (1, 2, 5)]));
        c.record_votes(NodeId::new(0), &[txn], &mut stats);
        c.on_timeout(txn, &mut stats);
        assert_eq!(c.decision(txn), Some(false));
        assert_eq!(stats.timeout_aborts, 1);
        // The abort flushes out (and, say, is lost in transit) …
        let (batch, _) = c.drain_decisions(NodeId::new(1));
        assert_eq!(batch, vec![(txn, false)]);
        // … so the slow shard eventually re-votes. The re-vote for a
        // decided transaction must be answered with the decision again,
        // not ignored.
        let reqs = c.record_votes(NodeId::new(1), &[txn], &mut stats);
        assert_eq!(
            reqs,
            vec![FlushReq {
                shard: NodeId::new(1),
                immediate: false
            }]
        );
        let (batch, _) = c.drain_decisions(NodeId::new(1));
        assert_eq!(batch, vec![(txn, false)]);
    }

    #[test]
    fn full_queue_requests_immediate_flush_and_drains_in_chunks() {
        let mut c = Coordinator::new(2, false);
        let mut immediate = 0;
        for i in 0..5 {
            let reqs = c.admit(ActivityId::new(i), slices(&[(0, i64::from(i), 1)]));
            immediate += reqs.iter().filter(|r| r.immediate).count();
        }
        assert!(immediate >= 2, "filling to max_batch demands a flush");
        let (b1, more1) = c.drain_prepares(NodeId::new(0));
        assert_eq!(b1.len(), 2);
        assert!(more1);
        let (b2, _) = c.drain_prepares(NodeId::new(0));
        assert_eq!(b2.len(), 2);
        let (b3, more3) = c.drain_prepares(NodeId::new(0));
        assert_eq!(b3.len(), 1);
        assert!(!more3);
        assert_eq!(c.drain_prepares(NodeId::new(0)), (Vec::new(), false));
    }

    #[test]
    fn duplicate_votes_are_idempotent() {
        let (mut c, mut stats) = (Coordinator::new(8, false), SimStats::default());
        let txn = ActivityId::new(3);
        c.admit(txn, slices(&[(0, 1, 1), (1, 2, 1)]));
        c.record_votes(NodeId::new(0), &[txn], &mut stats);
        c.record_votes(NodeId::new(0), &[txn], &mut stats);
        assert_eq!(c.decision(txn), None, "same shard voting twice is one vote");
    }

    #[test]
    fn the_lost_ack_lie_tells_the_last_participant_abort_every_time() {
        let (mut c, mut stats) = (Coordinator::new(1, true), SimStats::default());
        let txn = ActivityId::new(4);
        c.admit(txn, slices(&[(0, 1, -1), (1, 2, 1)]));
        c.record_votes(NodeId::new(0), &[txn], &mut stats);
        c.record_votes(NodeId::new(1), &[txn], &mut stats);
        assert_eq!(c.decision(txn), Some(true));
        assert_eq!(c.drain_decisions(NodeId::new(0)).0, vec![(txn, true)]);
        assert_eq!(c.drain_decisions(NodeId::new(1)).0, vec![(txn, false)]);
        c.record_votes(NodeId::new(1), &[txn], &mut stats);
        assert_eq!(c.drain_decisions(NodeId::new(1)).0, vec![(txn, false)]);
    }
}
