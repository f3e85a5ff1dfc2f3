//! The lock-based deferred-update object both locking baselines are.
//!
//! Strict two-phase locking *is* commutativity locking under the relation
//! "both operations are read-only", so [`TwoPhaseLockedObject`] and
//! [`CommutativityLockedObject`] are one object, [`LockedObject`],
//! parameterised by its [`LockRelation`].
//!
//! [`TwoPhaseLockedObject`]: crate::TwoPhaseLockedObject
//! [`CommutativityLockedObject`]: crate::CommutativityLockedObject

use crate::locks::ModeLock;
use crate::{invalid_operation, Deferred};
use atomicity_core::sync::{Mutex, Rank};
use atomicity_core::trace::ObjectMetrics;
use atomicity_core::{
    Admission, AdmissionOutcome, AdmissionRequest, AtomicObject, HistoryLog, Participant, Txn,
    TxnError, TxnManager,
};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, SequentialSpec, Timestamp, Value};
use std::sync::{Arc, Weak};

/// The state-independent compatibility relation a [`LockedObject`] locks
/// by: the mode an operation takes, and which modes two different
/// transactions may hold at once.
pub trait LockRelation<S>: Send + Sync + 'static {
    /// What the lock table stores per acquired operation.
    type Mode: Clone + Send + 'static;

    /// The mode `operation` must hold before it executes.
    fn mode(&self, spec: &S, operation: &Operation) -> Self::Mode;

    /// Whether two transactions may hold `a` and `b` at the same time.
    fn compatible(&self, a: &Self::Mode, b: &Self::Mode) -> bool;
}

/// An object protected by operation locks held to commit (strict
/// two-phase), with deferred updates: an invocation waits until its mode
/// is compatible, per `R`, with every mode held by other active
/// transactions; intentions are applied at commit, matching the recovery
/// model the locking literature assumes.
pub struct LockedObject<S: SequentialSpec, R: LockRelation<S>> {
    id: ObjectId,
    spec: S,
    relation: R,
    log: HistoryLog,
    lock: ModeLock<R::Mode>,
    state: Mutex<Deferred<S>>,
    metrics: ObjectMetrics,
    self_ref: Weak<LockedObject<S, R>>,
}

impl<S: SequentialSpec, R: LockRelation<S>> LockedObject<S, R> {
    /// Creates the object locking by `relation` — for
    /// [`CommutativityLockedObject`](crate::CommutativityLockedObject) any
    /// [`CommutesRel`](atomicity_core::CommutesRel), in particular a
    /// machine-generated [`ConflictTable`](atomicity_core::ConflictTable)
    /// from the `atomicity-lint` synthesis pass — and wires it to the
    /// manager's history log.
    pub fn with_relation(id: ObjectId, spec: S, mgr: &TxnManager, relation: R) -> Arc<Self> {
        let state = Mutex::new(Rank::LockedState, Deferred::new(&spec));
        Arc::new_cyclic(|self_ref| LockedObject {
            id,
            spec,
            relation,
            log: mgr.log(),
            lock: ModeLock::new(),
            state,
            metrics: mgr.metrics().object(id),
            self_ref: self_ref.clone(),
        })
    }

    /// Number of transactions currently holding locks here.
    pub fn holder_count(&self) -> usize {
        self.lock.holder_count()
    }

    /// Executes `operation` for `me`, whose lock mode is already held.
    fn execute_locked(&self, me: ActivityId, operation: Operation) -> Result<Value, TxnError> {
        let invalid = invalid_operation(self.id, &operation);
        let mut st = self.state.lock();
        st.execute(&self.spec, me, operation).ok_or(invalid)
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> AtomicObject for LockedObject<S, R> {
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.id)
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.register_txn(txn);
        let me = txn.id();
        // Validity pre-check so ill-typed operations leave no events.
        let results = self.state.lock().results_for(&self.spec, me, &operation);
        if results.is_empty() {
            return Err(invalid_operation(self.id, &operation));
        }
        self.log
            .record(Event::invoke(me, self.id, operation.clone()));
        let mode = || self.relation.mode(&self.spec, &operation);
        let compatible = |a: &R::Mode, b: &R::Mode| self.relation.compatible(a, b);
        let invoke_sw = self.metrics.stopwatch();
        // Fast path first so the blocking path (and its wait timing) is
        // only entered when the lock is actually contended.
        if !self.lock.try_acquire(txn, mode(), compatible) {
            self.metrics.record_block_round(me);
            let block_sw = self.metrics.stopwatch();
            if let Err(e) = self.lock.acquire(txn, self.id, mode(), compatible) {
                if matches!(e, TxnError::Deadlock { .. }) {
                    self.metrics.record_deadlock_kill(me);
                }
                return Err(e);
            }
            self.metrics.record_block_wait(&block_sw);
        }
        let v = self.execute_locked(me, operation)?;
        self.metrics.record_admission(me, &invoke_sw);
        self.log.record(Event::respond(me, self.id, v.clone()));
        Ok(v)
    }

    fn metrics(&self) -> ObjectMetrics {
        self.metrics.clone()
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> Admission for LockedObject<S, R> {
    fn register_txn(&self, txn: &Txn) {
        txn.register(
            self.self_ref
                .upgrade()
                .expect("LockedObject used after its Arc was dropped"),
        );
    }

    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome {
        let me = request.txn;
        let operation = &request.operation;
        let mode = self.relation.mode(&self.spec, operation);
        let invoke_sw = self.metrics.stopwatch();
        if let Err(holders) = self
            .lock
            .try_acquire_id(me, mode, |a, b| self.relation.compatible(a, b))
        {
            self.metrics.record_block_round(me);
            return AdmissionOutcome::Blocked { holders };
        }
        // Lock taken; execute and record invoke+respond atomically. On an
        // invalid operation the mode stays held until commit/abort, as in
        // the blocking path.
        match self.execute_locked(me, operation.clone()) {
            Ok(v) => {
                self.metrics.record_admission(me, &invoke_sw);
                self.log.record_all([
                    Event::invoke(me, self.id, operation.clone()),
                    Event::respond(me, self.id, v.clone()),
                ]);
                AdmissionOutcome::Admitted(v)
            }
            Err(e) => AdmissionOutcome::Rejected(e),
        }
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> Participant for LockedObject<S, R> {
    fn object_id(&self) -> ObjectId {
        self.id
    }

    fn commit(&self, txn: ActivityId, ts: Option<Timestamp>) {
        let mut st = self.state.lock();
        st.install(&self.spec, txn);
        let event = match ts {
            Some(t) => Event::commit_ts(txn, self.id, t),
            None => Event::commit(txn, self.id),
        };
        self.metrics.record_commit(txn);
        self.log.record(event);
        drop(st);
        self.lock.release_all(txn);
    }

    fn abort(&self, txn: ActivityId) {
        self.state.lock().discard(txn);
        self.metrics.record_abort(txn);
        self.log.record(Event::abort(txn, self.id));
        self.lock.release_all(txn);
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> std::fmt::Debug for LockedObject<S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedObject")
            .field("id", &self.id)
            .finish()
    }
}
