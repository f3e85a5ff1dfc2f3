//! The hybrid-atomicity engine (§4.3).
//!
//! Updates are processed exactly as under dynamic atomicity
//! (state-dependent admission over intentions lists, conflicts block);
//! when an update commits, the manager assigns it a **commit timestamp**
//! from the Lamport clock (consistent with `precedes` by construction)
//! and the object installs the new committed state as a **version**
//! keyed by that timestamp.
//!
//! Read-only transactions choose their timestamps at start and are served
//! from the version chain: a reader with timestamp `t` sees exactly the
//! committed updates with timestamps less than `t` — it never blocks,
//! never aborts, and never interferes with updates (§4.3.3: "audits under
//! the implementation of hybrid atomicity do not interfere with any
//! updates").

use crate::admission::{Admission, AdmissionOutcome, AdmissionRequest, SeqlockCell};
use crate::conflict::CommutesRel;
use crate::engine::{
    attempt, candidates, invalid_operation, invoke_blocking, DynamicCore, Engine, Intentions,
    DEFAULT_MAX_CHECK,
};
use crate::error::TxnError;
use crate::manager::TxnManager;
use crate::object::{AtomicObject, Participant};
use crate::stats::StatsSnapshot;
use crate::sync::{Condvar, Mutex, Rank};
use crate::trace::ObjectMetrics;
use crate::txn::{Txn, TxnKind};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, SequentialSpec, Timestamp, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Weak};

/// An atomic object guaranteeing **hybrid atomicity** for a sequential
/// specification `S`.
///
/// Use under [`crate::Protocol::Hybrid`]: updates from
/// [`crate::TxnManager::begin`], audits from
/// [`crate::TxnManager::begin_read_only`].
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol, HybridObject, AtomicObject};
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{op, ObjectId, Value};
///
/// let mgr = TxnManager::new(Protocol::Hybrid);
/// let acct = HybridObject::new(ObjectId::new(1), BankAccountSpec::new(), &mgr);
/// let t = mgr.begin();
/// acct.invoke(&t, op("deposit", [10]))?;
/// mgr.commit(t)?;
/// let audit = mgr.begin_read_only();
/// assert_eq!(acct.invoke(&audit, op("balance", [] as [i64; 0]))?, Value::from(10));
/// mgr.commit(audit)?;
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
pub struct HybridObject<S: SequentialSpec> {
    /// Update admission, exactly as under dynamic atomicity.
    core: DynamicCore<S>,
    mu: Mutex<Inner<S>>,
    cv: Condvar,
    /// The newest committed version, published for the lock-free read
    /// path. The manager's commit gate orders every publish with
    /// timestamp below a reader's start timestamp before that reader
    /// begins, so a reader whose timestamp exceeds the published
    /// version's never needs the version chain (and never takes `mu`).
    latest: SeqlockCell<(Timestamp, Vec<S::State>)>,
    /// Read-only transactions that have touched this object. Kept outside
    /// `mu` so the read path never contends with update admission.
    readers: Mutex<BTreeSet<ActivityId>>,
    self_ref: Weak<HybridObject<S>>,
}

pub(crate) struct Inner<S: SequentialSpec> {
    /// The update transactions' intentions over the newest committed
    /// state frontier.
    updates: Intentions<S>,
    /// Committed versions, ascending by commit timestamp: each is the
    /// same allocation its commit published to `latest`.
    versions: Vec<Arc<(Timestamp, Vec<S::State>)>>,
}

impl<S: SequentialSpec> HybridObject<S> {
    /// Creates the object and wires it to the manager's history log.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager) -> Arc<Self> {
        Self::with_max_check(id, spec, mgr, DEFAULT_MAX_CHECK)
    }

    /// Creates the object with a custom concurrent-admission bound.
    pub fn with_max_check(id: ObjectId, spec: S, mgr: &TxnManager, max_check: usize) -> Arc<Self> {
        Self::build(id, spec, mgr, max_check, None)
    }

    /// Creates the object with a state-independent commutativity relation
    /// consulted before permutation replay (see
    /// [`DynamicObject::with_relation`](crate::DynamicObject::with_relation)
    /// — update admission is identical under hybrid atomicity).
    pub fn with_relation(
        id: ObjectId,
        spec: S,
        mgr: &TxnManager,
        rel: Arc<dyn CommutesRel>,
    ) -> Arc<Self> {
        Self::build(id, spec, mgr, DEFAULT_MAX_CHECK, Some(rel))
    }

    fn build(
        id: ObjectId,
        spec: S,
        mgr: &TxnManager,
        max_check: usize,
        table: Option<Arc<dyn CommutesRel>>,
    ) -> Arc<Self> {
        let (core, updates) = DynamicCore::new(id, spec, mgr, max_check, table);
        Arc::new_cyclic(|self_ref| HybridObject {
            core,
            mu: Mutex::new(
                Rank::HybridMu,
                Inner {
                    updates,
                    versions: Vec::new(),
                },
            ),
            cv: Condvar::new(),
            latest: SeqlockCell::new(),
            readers: Mutex::new(Rank::HybridReaders, BTreeSet::new()),
            self_ref: self_ref.clone(),
        })
    }

    /// Contention statistics for this object.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.metrics.stats()
    }

    /// Number of retained committed versions.
    pub fn version_count(&self) -> usize {
        self.mu.lock().versions.len()
    }

    /// Discards versions no longer needed by readers with timestamps
    /// `>= horizon` (the newest version strictly below the horizon is
    /// retained as their snapshot base).
    pub fn truncate_versions_below(&self, horizon: Timestamp) {
        let mut inner = self.mu.lock();
        let keep_from = inner
            .versions
            .partition_point(|v| v.0 < horizon)
            .saturating_sub(1);
        inner.versions.drain(..keep_from);
    }

    /// The state frontier a reader with timestamp `ts` observes — the
    /// newest version committed strictly before `ts` — and whether it
    /// came off the mutex-free seqlock path.
    ///
    /// Lock-free case: the manager's commit gate serializes commit-
    /// timestamp assignment and version publication against read-only
    /// starts, so every version with timestamp below `ts` is published
    /// before the reader begins, and published versions are monotone in
    /// timestamp. Hence if the published newest version predates `ts`, it
    /// *is* the reader's snapshot. Only historical readers (pinned below
    /// the newest version) fall back to the version chain under `mu`.
    fn read_snapshot(&self, ts: Timestamp) -> (Vec<S::State>, bool) {
        let Some(latest) = self.latest.load() else {
            // Nothing published: no update with a timestamp below `ts`
            // has committed, so the reader sees the initial state.
            return (vec![self.core.spec.initial()], true);
        };
        if latest.0 < ts {
            return (latest.1.clone(), true);
        }
        let inner = self.mu.lock();
        let idx = inner.versions.partition_point(|v| v.0 < ts);
        let states = match idx.checked_sub(1) {
            Some(newest_before) => inner.versions[newest_before].1.clone(),
            None => vec![self.core.spec.initial()],
        };
        (states, false)
    }

    /// One read-only admission against the reader's timestamped snapshot.
    /// Never touches `mu` unless the read is historical, and never blocks.
    fn admit_read_only(&self, req: &AdmissionRequest) -> AdmissionOutcome {
        let (me, id) = (req.txn, self.core.id);
        let operation = &req.operation;
        let Some(ts) = req.start_ts else {
            return AdmissionOutcome::Rejected(TxnError::ProtocolMismatch {
                object: id,
                detail: "read-only transactions require a start timestamp".into(),
            });
        };
        if !self.core.spec.is_read_only(operation) {
            return AdmissionOutcome::Rejected(TxnError::ProtocolMismatch {
                object: id,
                detail: format!("operation {operation} may modify state"),
            });
        }
        let invoke_sw = self.core.metrics.stopwatch();
        let (states, fast) = self.read_snapshot(ts);
        let mut results = candidates(&self.core.spec, &states, operation);
        if results.is_empty() {
            return invalid_operation(id, operation);
        }
        let v = results.remove(0);
        let mut events = Vec::with_capacity(3);
        if self.readers.lock().insert(me) {
            events.push(Event::initiate(me, id, ts));
        }
        events.push(Event::invoke(me, id, operation.clone()));
        events.push(Event::respond(me, id, v.clone()));
        self.core.log.record_all(events);
        if fast {
            self.core.metrics.record_fast_admission();
        }
        self.core.metrics.record_admission(me, &invoke_sw);
        AdmissionOutcome::Admitted(v)
    }
}

impl<S: SequentialSpec> Engine<Inner<S>> for HybridObject<S> {
    fn meter(&self) -> &ObjectMetrics {
        &self.core.metrics
    }

    fn admission_step(
        &self,
        inner: &mut Inner<S>,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome {
        self.core
            .admission_step(&mut inner.updates, request, invoked)
    }

    fn record_invoke(&self, _inner: &mut Inner<S>, request: &AdmissionRequest) {
        self.core.record_invoke(request);
    }
}

impl<S: SequentialSpec> Admission for HybridObject<S> {
    fn register_txn(&self, txn: &Txn) {
        txn.register(
            self.self_ref
                .upgrade()
                .expect("HybridObject used after its Arc was dropped"),
        );
    }

    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome {
        match request.kind {
            TxnKind::ReadOnly => self.admit_read_only(request),
            TxnKind::Update => {
                let mut inner = self.mu.lock();
                attempt(self, &mut inner, request)
            }
        }
    }

    fn admit_batch(&self, requests: &[AdmissionRequest]) -> Vec<AdmissionOutcome> {
        // Two passes: read-only requests go through the mutex-free read
        // path first (they are timestamp-serialized, so their outcome is
        // independent of the updates in the batch), then every update is
        // admitted under a single acquisition of `mu`.
        let mut outcomes: Vec<Option<AdmissionOutcome>> = requests
            .iter()
            .map(|r| match r.kind {
                TxnKind::ReadOnly => Some(self.admit_read_only(r)),
                TxnKind::Update => None,
            })
            .collect();
        if outcomes.iter().any(Option::is_none) {
            let mut inner = self.mu.lock();
            for (slot, r) in outcomes.iter_mut().zip(requests) {
                if slot.is_none() {
                    *slot = Some(attempt(self, &mut inner, r));
                }
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every request answered"))
            .collect()
    }
}

impl<S: SequentialSpec> AtomicObject for HybridObject<S> {
    fn metrics(&self) -> ObjectMetrics {
        self.core.metrics.clone()
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        if txn.kind() == TxnKind::ReadOnly {
            // Read-only invocations never block.
            return self.try_invoke(txn, operation);
        }
        self.register_txn(txn);
        let request = AdmissionRequest::from_txn(txn, operation);
        let invoke_sw = self.core.metrics.stopwatch();
        let mut inner = self.mu.lock();
        invoke_blocking(self, txn, &request, &mut inner, &self.cv, &invoke_sw)
    }

    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.core.id)
    }
}

impl<S: SequentialSpec> Participant for HybridObject<S> {
    fn object_id(&self) -> ObjectId {
        self.core.id
    }

    fn commit(&self, txn: ActivityId, ts: Option<Timestamp>) {
        let id = self.core.id;
        // A transaction is either a reader or an updater here, never
        // both, so the two sets can be checked sequentially.
        if self.readers.lock().remove(&txn) {
            self.core.log.record(Event::commit(txn, id));
            self.core.metrics.record_commit(txn);
            self.cv.notify_all();
            return;
        }
        let mut inner = self.mu.lock();
        self.core.install(&mut inner.updates, txn);
        match ts {
            Some(t) => {
                // One copy of the frontier, kept as a version and
                // published as the newest one.
                let version = Arc::new((t, inner.updates.committed.clone()));
                inner.versions.push(Arc::clone(&version));
                // Publish under `mu` so published versions stay monotone
                // in timestamp; the manager's commit gate orders this
                // before any reader with a larger timestamp begins.
                self.latest.publish(version);
                self.core.log.record(Event::commit_ts(txn, id, t));
            }
            None => {
                // Degenerate use without commit timestamps (not hybrid
                // well-formed, but keeps the object usable under other
                // protocols in tests).
                self.core.log.record(Event::commit(txn, id));
            }
        }
        self.core.metrics.record_commit(txn);
        self.cv.notify_all();
    }

    fn abort(&self, txn: ActivityId) {
        if self.readers.lock().remove(&txn) {
            self.core.log.record(Event::abort(txn, self.core.id));
            self.core.metrics.record_abort(txn);
            return;
        }
        let mut inner = self.mu.lock();
        inner.updates.pending.remove(&txn);
        self.core.log.record(Event::abort(txn, self.core.id));
        self.core.metrics.record_abort(txn);
        self.cv.notify_all();
    }
}

impl<S: SequentialSpec> std::fmt::Debug for HybridObject<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridObject")
            .field("id", &self.core.id)
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Protocol;
    use atomicity_spec::atomicity::is_hybrid_atomic;
    use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
    use atomicity_spec::well_formed::WellFormedness;
    use atomicity_spec::{op, SystemSpec};

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    fn bal() -> Operation {
        op("balance", [] as [i64; 0])
    }

    #[test]
    fn updates_and_reader_produce_hybrid_atomic_history() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let t1 = mgr.begin();
        acct.invoke(&t1, op("deposit", [10])).unwrap();
        mgr.commit(t1).unwrap();
        let audit = mgr.begin_read_only();
        let t2 = mgr.begin();
        acct.invoke(&t2, op("deposit", [5])).unwrap();
        mgr.commit(t2).unwrap();
        // The audit began before t2 committed: it must see 10, not 15.
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(10));
        mgr.commit(audit).unwrap();

        let h = mgr.history();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(WellFormedness::Hybrid.is_well_formed(&h));
        assert!(is_hybrid_atomic(&h, &spec));
    }

    #[test]
    fn readers_never_block_on_active_updates() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let w = mgr.begin();
        acct.invoke(&w, op("deposit", [100])).unwrap(); // uncommitted
        let audit = mgr.begin_read_only();
        // Non-blocking even though w holds intentions.
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(0));
        mgr.commit(audit).unwrap();
        mgr.commit(w).unwrap();
        let h = mgr.history();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_hybrid_atomic(&h, &spec));
    }

    #[test]
    fn readers_do_not_block_updates() {
        // Under dynamic atomicity a balance observation blocks deposits;
        // under hybrid the audit reads a version and the deposit proceeds.
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let audit = mgr.begin_read_only();
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(0));
        let w = mgr.begin();
        // Admitted immediately — the audit holds no intentions.
        acct.invoke(&w, op("deposit", [5])).unwrap();
        mgr.commit(w).unwrap();
        // The audit keeps seeing its snapshot.
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(0));
        mgr.commit(audit).unwrap();
        let h = mgr.history();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(WellFormedness::Hybrid.is_well_formed(&h));
        assert!(is_hybrid_atomic(&h, &spec));
    }

    #[test]
    fn reader_rejects_mutating_operations() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let audit = mgr.begin_read_only();
        let err = acct.invoke(&audit, op("deposit", [1])).unwrap_err();
        assert!(matches!(err, TxnError::ProtocolMismatch { .. }));
        mgr.abort(audit);
    }

    #[test]
    fn concurrent_updates_use_dynamic_admission() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let setup = mgr.begin();
        acct.invoke(&setup, op("deposit", [10])).unwrap();
        mgr.commit(setup).unwrap();
        let b = mgr.begin();
        let c = mgr.begin();
        assert_eq!(acct.invoke(&b, op("withdraw", [4])).unwrap(), Value::ok());
        assert_eq!(acct.invoke(&c, op("withdraw", [3])).unwrap(), Value::ok());
        mgr.commit(c).unwrap();
        mgr.commit(b).unwrap();
        let h = mgr.history();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(WellFormedness::Hybrid.is_well_formed(&h));
        assert!(is_hybrid_atomic(&h, &spec));
    }

    #[test]
    fn version_chain_serves_historical_reads() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let set = HybridObject::new(x(), IntSetSpec::new(), &mgr);
        let mut commit_timestamps = Vec::new();
        for i in 0..3 {
            let t = mgr.begin();
            set.invoke(&t, op("insert", [i])).unwrap();
            commit_timestamps.push(mgr.commit(t).unwrap().unwrap());
        }
        assert_eq!(set.version_count(), 3);
        // A reader pinned between the first and second commit sees size 1.
        let pinned = mgr.begin_read_only_at(commit_timestamps[0] + 1);
        assert!(commit_timestamps[0] < commit_timestamps[1]);
        assert_eq!(
            set.invoke(&pinned, op("size", [] as [i64; 0])).unwrap(),
            Value::from(1)
        );
        mgr.commit(pinned).unwrap();
    }

    #[test]
    fn truncation_keeps_snapshot_base() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let set = HybridObject::new(x(), IntSetSpec::new(), &mgr);
        let mut ts = Vec::new();
        for i in 0..5 {
            let t = mgr.begin();
            set.invoke(&t, op("insert", [i])).unwrap();
            ts.push(mgr.commit(t).unwrap().unwrap());
        }
        set.truncate_versions_below(ts[3]);
        assert!(set.version_count() >= 2);
        // A reader just above ts[3] still gets the right snapshot.
        let r = mgr.begin_read_only_at(ts[3] + 1);
        assert!(ts[3] < ts[4]);
        assert_eq!(
            set.invoke(&r, op("size", [] as [i64; 0])).unwrap(),
            Value::from(4)
        );
        mgr.commit(r).unwrap();
    }

    #[test]
    fn reader_ignores_prepared_but_uncommitted_updates() {
        // An update holding intentions (not yet committed) is invisible to
        // readers regardless of timing: versions are keyed by commit
        // timestamps only.
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let w = mgr.begin();
        acct.invoke(&w, op("deposit", [100])).unwrap();
        let audit = mgr.begin_read_only();
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(0));
        mgr.commit(w).unwrap();
        // The audit's timestamp predates w's commit timestamp: it keeps
        // seeing 0 even after w commits.
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(0));
        mgr.commit(audit).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_hybrid_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn repeatable_reads_across_many_commits() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let ctr = HybridObject::new(x(), IntSetSpec::new(), &mgr);
        let audit = mgr.begin_read_only();
        for i in 0..5 {
            let t = mgr.begin();
            ctr.invoke(&t, op("insert", [i])).unwrap();
            mgr.commit(t).unwrap();
            // The audit's view never moves.
            assert_eq!(
                ctr.invoke(&audit, op("size", [] as [i64; 0])).unwrap(),
                Value::from(0)
            );
        }
        mgr.commit(audit).unwrap();
        let spec = SystemSpec::new().with_object(x(), IntSetSpec::new());
        assert!(is_hybrid_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn stats_track_reader_and_update_activity() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        acct.invoke(&t, op("deposit", [5])).unwrap();
        mgr.commit(t).unwrap();
        let audit = mgr.begin_read_only();
        acct.invoke(&audit, bal()).unwrap();
        mgr.commit(audit).unwrap();
        let snap = acct.stats();
        assert_eq!(snap.admissions, 2);
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.blocks, 0, "hybrid audits never block");
    }

    #[test]
    fn aborted_update_leaves_no_version() {
        let mgr = TxnManager::new(Protocol::Hybrid);
        let acct = HybridObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        acct.invoke(&t, op("deposit", [9])).unwrap();
        mgr.abort(t);
        assert_eq!(acct.version_count(), 0);
        let audit = mgr.begin_read_only();
        assert_eq!(acct.invoke(&audit, bal()).unwrap(), Value::from(0));
        mgr.commit(audit).unwrap();
        let h = mgr.history();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_hybrid_atomic(&h, &spec));
    }
}
