//! The transaction manager: lifecycle, timestamps, and the commit protocol.

use crate::clock::LamportClock;
use crate::deadlock::{DeadlockPolicy, WaitDecision, WaitGraph};
use crate::error::TxnError;
use crate::log::HistoryLog;
use crate::object::Participant;
use crate::sync::{Mutex, Rank};
use crate::trace::MetricsRegistry;
use crate::txn::{Txn, TxnKind};
use atomicity_spec::{ActivityId, History, Timestamp};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Which local atomicity property the system is run under.
///
/// The paper's central design rule is that **every object in a system must
/// satisfy the same local atomicity property** (§4); the protocol choice
/// is therefore made once, at the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Dynamic atomicity (§4.1): no timestamps; serialization order
    /// emerges from commit order; conflicts block.
    Dynamic,
    /// Static atomicity (§4.2): every transaction takes a timestamp at
    /// start; conflicts with already-returned results abort.
    Static,
    /// Hybrid atomicity (§4.3): updates run dynamically and take
    /// timestamps at commit; read-only transactions take timestamps at
    /// start and read committed versions without interfering.
    Hybrid,
}

/// The transaction manager.
///
/// Creates transactions, assigns timestamps per the chosen [`Protocol`],
/// drives the two-phase commit across participants, arbitrates deadlocks,
/// and records every commit/abort into the shared [`HistoryLog`].
///
/// The manager keeps no table of transactions: each [`Txn`] handle owns
/// its record (the objects it touched), and committing or aborting
/// consumes it.
///
/// Cloning is cheap and yields a handle to the **same** manager (workload
/// threads each hold a clone).
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol};
/// let mgr = TxnManager::new(Protocol::Dynamic);
/// let t = mgr.begin();
/// mgr.commit(t).unwrap();
/// ```
#[derive(Clone)]
pub struct TxnManager {
    inner: Arc<ManagerInner>,
}

pub(crate) struct ManagerInner {
    protocol: Protocol,
    policy: DeadlockPolicy,
    next_id: AtomicU32,
    clock: Arc<LamportClock>,
    log: HistoryLog,
    /// Serializes hybrid commit-timestamp assignment + version installation
    /// against read-only initiation, so a reader's timestamp cleanly
    /// partitions "committed before" from "committed after".
    commit_gate: Mutex<()>,
    waits: Mutex<WaitGraph>,
    /// Fast-path flag mirroring "the wait graph has at least one waiter".
    /// Maintained under the `waits` lock; read without it by `finish`, so
    /// commits and aborts skip the wait-graph mutex entirely while nothing
    /// is blocked (the common case in low-contention workloads).
    has_waiters: AtomicBool,
    /// The observability sink shared by the manager and every object
    /// built against it. Disabled (no-op) unless configured through
    /// [`ManagerBuilder::metrics`].
    metrics: MetricsRegistry,
}

/// Configures and builds a [`TxnManager`].
///
/// ```
/// use atomicity_core::{DeadlockPolicy, MetricsRegistry, Protocol, TxnManager};
/// let mgr = TxnManager::builder(Protocol::Hybrid)
///     .policy(DeadlockPolicy::WaitDie)
///     .metrics(MetricsRegistry::new())
///     .build();
/// assert!(mgr.metrics().is_enabled());
/// ```
#[derive(Debug)]
pub struct ManagerBuilder {
    protocol: Protocol,
    policy: DeadlockPolicy,
    log: HistoryLog,
    metrics: MetricsRegistry,
}

impl ManagerBuilder {
    /// The deadlock policy (default: [`DeadlockPolicy::Detect`]).
    pub fn policy(mut self, policy: DeadlockPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The history log to record into (default: a fresh sharded log).
    pub fn log(mut self, log: HistoryLog) -> Self {
        self.log = log;
        self
    }

    /// The metrics registry to report into (default: disabled).
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builds the manager.
    pub fn build(self) -> TxnManager {
        TxnManager {
            inner: Arc::new(ManagerInner {
                protocol: self.protocol,
                policy: self.policy,
                next_id: AtomicU32::new(1),
                clock: Arc::new(LamportClock::new()),
                log: self.log,
                commit_gate: Mutex::new(Rank::ManagerCommitGate, ()),
                waits: Mutex::new(Rank::ManagerWaits, WaitGraph::new()),
                has_waiters: AtomicBool::new(false),
                metrics: self.metrics,
            }),
        }
    }
}

/// How [`TxnManager::finish`] ends a transaction at its participants.
enum Outcome {
    Committed,
    Aborted,
}

impl TxnManager {
    /// Creates a manager running the given protocol with the default
    /// deadlock policy ([`DeadlockPolicy::Detect`]).
    pub fn new(protocol: Protocol) -> Self {
        Self::with_policy(protocol, DeadlockPolicy::default())
    }

    /// Creates a manager with an explicit deadlock policy.
    pub fn with_policy(protocol: Protocol, policy: DeadlockPolicy) -> Self {
        Self::with_log(protocol, policy, HistoryLog::new())
    }

    /// Creates a manager recording into an explicitly configured log.
    ///
    /// Objects built against this manager obtain the log through
    /// [`TxnManager::log`], so this is the hook benchmarks use to compare
    /// recorder configurations (e.g. `HistoryLog::with_shards(1)` vs. the
    /// default sharded log).
    pub fn with_log(protocol: Protocol, policy: DeadlockPolicy, log: HistoryLog) -> Self {
        Self::builder(protocol).policy(policy).log(log).build()
    }

    /// Starts configuring a manager: protocol plus optional deadlock
    /// policy, history log, and metrics registry.
    pub fn builder(protocol: Protocol) -> ManagerBuilder {
        ManagerBuilder {
            protocol,
            policy: DeadlockPolicy::default(),
            log: HistoryLog::new(),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// The protocol this manager runs.
    pub fn protocol(&self) -> Protocol {
        self.inner.protocol
    }

    /// The shared metrics registry (objects are constructed with handles
    /// onto it; disabled unless configured via [`ManagerBuilder`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The shared history log (objects are constructed with a clone of it).
    pub fn log(&self) -> HistoryLog {
        self.inner.log.clone()
    }

    /// A snapshot of the history recorded so far.
    pub fn history(&self) -> History {
        self.inner.log.snapshot()
    }

    /// The manager's logical clock.
    pub fn clock(&self) -> Arc<LamportClock> {
        Arc::clone(&self.inner.clock)
    }

    /// Starts an update transaction.
    ///
    /// Under [`Protocol::Static`] a start timestamp is drawn from the
    /// clock; under the other protocols updates carry no start timestamp.
    pub fn begin(&self) -> Txn {
        let ts = match self.inner.protocol {
            Protocol::Static => Some(self.inner.clock.tick()),
            Protocol::Dynamic | Protocol::Hybrid => None,
        };
        self.make_txn(TxnKind::Update, ts)
    }

    /// Starts an update transaction with an explicit start timestamp
    /// (static protocol only — models skewed clocks, experiment E7).
    ///
    /// The caller is responsible for timestamp **uniqueness** across
    /// transactions; the clock is advanced past `ts` so subsequent
    /// automatic timestamps stay monotone.
    pub fn begin_at(&self, ts: Timestamp) -> Txn {
        self.inner.clock.observe(ts);
        self.make_txn(TxnKind::Update, Some(ts))
    }

    /// Starts a read-only transaction.
    ///
    /// Under [`Protocol::Hybrid`] the start timestamp is drawn while
    /// holding the commit gate, so it falls strictly between two update
    /// commits; under [`Protocol::Static`] it is an ordinary start
    /// timestamp; under [`Protocol::Dynamic`] read-only transactions are
    /// indistinguishable from updates (the information is unused — §4.3.3).
    pub fn begin_read_only(&self) -> Txn {
        let ts = match self.inner.protocol {
            Protocol::Static => Some(self.inner.clock.tick()),
            Protocol::Hybrid => {
                let _gate = self.inner.commit_gate.lock();
                Some(self.inner.clock.tick())
            }
            Protocol::Dynamic => None,
        };
        self.make_txn(TxnKind::ReadOnly, ts)
    }

    /// Starts a read-only transaction at an explicit timestamp
    /// (time-travel reads under hybrid or static; uniqueness is the
    /// caller's responsibility).
    pub fn begin_read_only_at(&self, ts: Timestamp) -> Txn {
        self.inner.clock.observe(ts);
        self.make_txn(TxnKind::ReadOnly, Some(ts))
    }

    fn make_txn(&self, kind: TxnKind, start_ts: Option<Timestamp>) -> Txn {
        let id = ActivityId::new(self.inner.next_id.fetch_add(1, Ordering::SeqCst));
        self.inner.metrics.txn_begun(id);
        Txn {
            id,
            kind,
            start_ts,
            participants: RefCell::new(Vec::new()),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Commits `txn`: prepares every participant, assigns the commit
    /// timestamp when the protocol calls for one, installs effects, and
    /// records commit events.
    ///
    /// Returns the commit timestamp for hybrid updates, the start
    /// timestamp for static transactions, `None` otherwise.
    ///
    /// The handle is consumed, so a completed transaction cannot be
    /// committed (or aborted) again:
    ///
    /// ```compile_fail,E0382
    /// use atomicity_core::{Protocol, TxnManager};
    /// let mgr = TxnManager::new(Protocol::Dynamic);
    /// let t = mgr.begin();
    /// mgr.commit(t).unwrap();
    /// mgr.commit(t).unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// [`TxnError::PrepareFailed`] if a participant vetoed; the
    /// transaction has then been aborted at every participant.
    pub fn commit(&self, txn: Txn) -> Result<Option<Timestamp>, TxnError> {
        let id = txn.id;
        let participants = txn.participants.into_inner();
        let sw = self.inner.metrics.stopwatch();

        // Phase 1: prepare.
        self.inner.metrics.txn_prepare(id);
        for p in &participants {
            if let Err(_veto) = p.prepare(id) {
                self.finish(id, &participants, Outcome::Aborted);
                self.inner
                    .metrics
                    .txn_aborted(id, Some(crate::AbortReason::PrepareFailed));
                return Err(TxnError::PrepareFailed {
                    txn: id,
                    object: p.object_id(),
                });
            }
        }

        // Phase 2: install, with a commit timestamp where required.
        let commit_ts = match (self.inner.protocol, txn.kind) {
            (Protocol::Hybrid, TxnKind::Update) => {
                // The gate's invariant is only about timestamp assignment
                // and version installation racing read-only initiation, so
                // the critical section is exactly that: tick + installs.
                // Waking waiters happens after the gate is released.
                let ts = {
                    let _gate = self.inner.commit_gate.lock();
                    let ts = self.inner.clock.tick();
                    for p in &participants {
                        p.commit(id, Some(ts));
                    }
                    ts
                };
                self.complete(id);
                Some(ts)
            }
            _ => {
                self.finish(id, &participants, Outcome::Committed);
                txn.start_ts
            }
        };
        self.inner.metrics.txn_committed(id, sw.elapsed_ns());
        Ok(commit_ts)
    }

    /// Aborts `txn`, discarding its effects at every participant and
    /// recording abort events.
    pub fn abort(&self, txn: Txn) {
        let id = txn.id;
        self.finish(id, &txn.participants.into_inner(), Outcome::Aborted);
        self.inner.metrics.txn_aborted(id, None);
    }

    /// Ends the transaction at every participant, then wakes its waiters.
    fn finish(&self, id: ActivityId, participants: &[Arc<dyn Participant>], outcome: Outcome) {
        for p in participants {
            match outcome {
                Outcome::Committed => p.commit(id, None),
                Outcome::Aborted => p.abort(id),
            }
        }
        self.complete(id);
    }

    /// Clears the waits-for edges into a completed transaction.
    ///
    /// When nothing is blocked (`has_waiters` false) the wait-graph lock is
    /// skipped entirely. The flag is maintained under the `waits` lock and
    /// cannot miss a waiter on `id`: the waiter set it while holding an
    /// object lock that `id`'s participants had still to take.
    fn complete(&self, id: ActivityId) {
        if self.inner.has_waiters.load(Ordering::SeqCst) {
            let mut waits = self.inner.waits.lock();
            waits.clear_target(id);
            self.inner
                .has_waiters
                .store(waits.waiter_count() > 0, Ordering::SeqCst);
        }
    }

    /// Number of transactions currently blocked in waits.
    pub fn blocked_count(&self) -> usize {
        self.inner.waits.lock().waiter_count()
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("protocol", &self.inner.protocol)
            .field("policy", &self.inner.policy)
            .finish()
    }
}

impl ManagerInner {
    /// See [`crate::engine::invoke_blocking`]: every holder is active.
    pub(crate) fn request_wait(
        &self,
        waiter: ActivityId,
        holders: &BTreeSet<ActivityId>,
    ) -> WaitDecision {
        let mut waits = self.waits.lock();
        let decision = waits.request_wait(waiter, holders, self.policy);
        self.has_waiters
            .store(waits.waiter_count() > 0, Ordering::SeqCst);
        decision
    }

    pub(crate) fn clear_wait(&self, waiter: ActivityId) {
        let mut waits = self.waits.lock();
        waits.clear_waiter(waiter);
        self.has_waiters
            .store(waits.waiter_count() > 0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::ObjectId;
    use std::sync::atomic::AtomicUsize;

    /// A participant that counts protocol callbacks.
    #[derive(Default)]
    struct Probe {
        prepared: AtomicUsize,
        committed: AtomicUsize,
        aborted: AtomicUsize,
        veto: bool,
    }

    impl Participant for Probe {
        fn object_id(&self) -> ObjectId {
            ObjectId::new(1)
        }

        fn prepare(&self, txn: ActivityId) -> Result<(), TxnError> {
            self.prepared.fetch_add(1, Ordering::SeqCst);
            if self.veto {
                Err(TxnError::PrepareFailed {
                    txn,
                    object: self.object_id(),
                })
            } else {
                Ok(())
            }
        }

        fn commit(&self, _txn: ActivityId, _ts: Option<Timestamp>) {
            self.committed.fetch_add(1, Ordering::SeqCst);
        }

        fn abort(&self, _txn: ActivityId) {
            self.aborted.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn commit_runs_two_phases() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let probe = Arc::new(Probe::default());
        let t = mgr.begin();
        t.register(Arc::clone(&probe) as Arc<dyn Participant>);
        assert_eq!(mgr.commit(t).unwrap(), None);
        assert_eq!(probe.prepared.load(Ordering::SeqCst), 1);
        assert_eq!(probe.committed.load(Ordering::SeqCst), 1);
        assert_eq!(probe.aborted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn veto_aborts_everywhere() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let probe = Arc::new(Probe {
            veto: true,
            ..Probe::default()
        });
        let t = mgr.begin();
        t.register(Arc::clone(&probe) as Arc<dyn Participant>);
        let err = mgr.commit(t).unwrap_err();
        assert!(matches!(err, TxnError::PrepareFailed { .. }));
        assert_eq!(probe.prepared.load(Ordering::SeqCst), 1);
        assert_eq!(probe.aborted.load(Ordering::SeqCst), 1);
        assert_eq!(probe.committed.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn registration_is_idempotent_per_object() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let probe = Arc::new(Probe::default());
        let t = mgr.begin();
        t.register(Arc::clone(&probe) as Arc<dyn Participant>);
        t.register(Arc::clone(&probe) as Arc<dyn Participant>);
        mgr.commit(t).unwrap();
        assert_eq!(probe.committed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn static_protocol_assigns_start_timestamps() {
        let mgr = TxnManager::new(Protocol::Static);
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        let (a, b) = (t1.start_ts().unwrap(), t2.start_ts().unwrap());
        assert!(b > a);
        assert_eq!(mgr.commit(t2).unwrap(), Some(b));
        mgr.abort(t1);
    }

    #[test]
    fn hybrid_updates_get_commit_timestamps_in_order() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let t1 = mgr.begin();
        assert_eq!(t1.start_ts(), None);
        let t2 = mgr.begin();
        let ts1 = mgr.commit(t1).unwrap().unwrap();
        let r = mgr.begin_read_only();
        let tr = r.start_ts().unwrap();
        let ts2 = mgr.commit(t2).unwrap().unwrap();
        assert!(ts1 < tr && tr < ts2);
        mgr.commit(r).unwrap();
    }

    #[test]
    fn explicit_timestamps_advance_clock() {
        let mgr = TxnManager::new(Protocol::Static);
        let t = mgr.begin_at(500);
        assert_eq!(t.start_ts(), Some(500));
        mgr.abort(t);
        let t2 = mgr.begin();
        assert!(t2.start_ts().unwrap() > 500);
        mgr.abort(t2);
    }

    #[test]
    fn abort_after_commit_is_noop() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let probe = Arc::new(Probe::default());
        let t = mgr.begin();
        t.register(Arc::clone(&probe) as Arc<dyn Participant>);
        mgr.commit(t).unwrap();
        // The committed handle is gone; a later transaction's abort never
        // reaches the object the committed one touched.
        mgr.abort(mgr.begin());
        assert_eq!(probe.committed.load(Ordering::SeqCst), 1);
        assert_eq!(probe.aborted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn builder_wires_metrics_through_lifecycle() {
        let mgr = TxnManager::builder(Protocol::Dynamic)
            .metrics(MetricsRegistry::new())
            .build();
        assert!(mgr.metrics().is_enabled());
        let t1 = mgr.begin();
        mgr.commit(t1).unwrap();
        let t2 = mgr.begin();
        mgr.abort(t2);
        let probe = Arc::new(Probe {
            veto: true,
            ..Probe::default()
        });
        let t3 = mgr.begin();
        t3.register(Arc::clone(&probe) as Arc<dyn Participant>);
        assert!(mgr.commit(t3).is_err());
        let snap = mgr.metrics().snapshot();
        assert_eq!(snap.txns_begun, 3);
        assert_eq!(snap.txns_committed, 1);
        assert_eq!(snap.txns_aborted, 2);
        assert_eq!(snap.abort_reasons["prepare_failed"], 1);
        assert_eq!(snap.commit_ns.count, 1);
        use crate::trace::TraceKind;
        let kinds: Vec<TraceKind> = mgr
            .metrics()
            .trace_events()
            .records
            .iter()
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Begin,
                TraceKind::Prepare,
                TraceKind::Commit,
                TraceKind::Begin,
                TraceKind::Abort,
                TraceKind::Begin,
                TraceKind::Prepare,
                TraceKind::Abort,
            ]
        );
    }

    #[test]
    fn default_manager_metrics_are_disabled() {
        let mgr = TxnManager::new(Protocol::Static);
        assert!(!mgr.metrics().is_enabled());
        let t = mgr.begin();
        mgr.commit(t).unwrap();
        assert_eq!(mgr.metrics().snapshot().txns_begun, 0);
    }
}
