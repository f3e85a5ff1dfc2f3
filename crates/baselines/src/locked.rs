//! The lock-based deferred-update object both locking baselines are.
//!
//! Strict two-phase locking *is* commutativity locking under the relation
//! "both operations are read-only", so [`TwoPhaseLockedObject`] and
//! [`CommutativityLockedObject`] are one object, [`LockedObject`],
//! parameterised by its [`LockRelation`].
//!
//! [`TwoPhaseLockedObject`]: crate::TwoPhaseLockedObject
//! [`CommutativityLockedObject`]: crate::CommutativityLockedObject

use crate::{invalid_operation, Deferred};
use atomicity_core::engine::{attempt, invoke_blocking, Engine};
use atomicity_core::sync::{Condvar, Mutex, Rank};
use atomicity_core::trace::ObjectMetrics;
use atomicity_core::{
    Admission, AdmissionOutcome, AdmissionRequest, AtomicObject, HistoryLog, Participant, Txn,
    TxnError, TxnManager,
};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, SequentialSpec, Timestamp, Value};
use std::collections::{BTreeMap, BTreeSet};
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

/// What a [`LockedObject`]'s one mutex guards: the deferred updates and,
/// per active transaction, the modes it holds.
struct Locked<S: SequentialSpec, M> {
    deferred: Deferred<S>,
    held: BTreeMap<ActivityId, Vec<M>>,
}

/// An object protected by operation locks held to commit (strict
/// two-phase), with deferred updates: an invocation waits until its mode
/// is compatible, per `R`, with every mode held by other active
/// transactions; intentions are applied at commit, matching the recovery
/// model the locking literature assumes.
///
/// It admits through the engines' one step ([`Engine`]) and blocks in
/// their one wait loop ([`invoke_blocking`]), so it refuses, blocks and
/// counts exactly as they do.
pub struct LockedObject<S: SequentialSpec, R: LockRelation<S>> {
    id: ObjectId,
    spec: S,
    relation: R,
    log: HistoryLog,
    state: Mutex<Locked<S, R::Mode>>,
    cv: Condvar,
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
        let locked = Locked {
            deferred: Deferred::new(&spec),
            held: BTreeMap::new(),
        };
        Arc::new_cyclic(|self_ref| LockedObject {
            id,
            spec,
            relation,
            log: mgr.log(),
            state: Mutex::new(Rank::LockedState, locked),
            cv: Condvar::new(),
            metrics: mgr.metrics().object(id),
            self_ref: self_ref.clone(),
        })
    }

    /// Number of transactions currently holding locks here.
    pub fn holder_count(&self) -> usize {
        self.state.lock().held.len()
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> Engine<Locked<S, R::Mode>> for LockedObject<S, R> {
    fn meter(&self) -> &ObjectMetrics {
        &self.metrics
    }

    /// Validity first, as in every engine: an operation the specification
    /// never permits is rejected with nothing recorded and no mode taken.
    /// Then the mode: held incompatibly by another transaction, the
    /// request is blocked on those holders; otherwise it is taken, the
    /// intention appended and invoke (unless logged) and respond recorded.
    fn admission_step(
        &self,
        st: &mut Locked<S, R::Mode>,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome {
        let me = request.txn;
        let operation = &request.operation;
        let results = st.deferred.results_for(&self.spec, me, operation);
        let Some(v) = results.into_iter().next() else {
            return AdmissionOutcome::Rejected(invalid_operation(self.id, operation));
        };
        let mode = self.relation.mode(&self.spec, operation);
        let holders: BTreeSet<ActivityId> = st
            .held
            .iter()
            .filter(|(id, modes)| {
                **id != me && modes.iter().any(|m| !self.relation.compatible(&mode, m))
            })
            .map(|(id, _)| *id)
            .collect();
        if !holders.is_empty() {
            return AdmissionOutcome::Blocked { holders };
        }
        st.held.entry(me).or_default().push(mode);
        st.deferred.intend(me, operation.clone(), v.clone());
        let invoke = (!invoked).then(|| Event::invoke(me, self.id, operation.clone()));
        self.log.record_all(
            invoke
                .into_iter()
                .chain([Event::respond(me, self.id, v.clone())]),
        );
        AdmissionOutcome::Admitted(v)
    }

    fn record_invoke(&self, _st: &mut Locked<S, R::Mode>, request: &AdmissionRequest) {
        self.log.record(Event::invoke(
            request.txn,
            self.id,
            request.operation.clone(),
        ));
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> AtomicObject for LockedObject<S, R> {
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.id)
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.register_txn(txn);
        let request = AdmissionRequest::from_txn(txn, operation);
        let invoke_sw = self.metrics.stopwatch();
        let mut st = self.state.lock();
        invoke_blocking(self, txn, &request, &mut st, &self.cv, &invoke_sw)
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
        attempt(self, &mut self.state.lock(), request)
    }

    fn admit_batch(&self, requests: &[AdmissionRequest]) -> Vec<AdmissionOutcome> {
        let mut st = self.state.lock();
        requests.iter().map(|r| attempt(self, &mut st, r)).collect()
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> Participant for LockedObject<S, R> {
    fn object_id(&self) -> ObjectId {
        self.id
    }

    fn commit(&self, txn: ActivityId, ts: Option<Timestamp>) {
        let mut st = self.state.lock();
        st.deferred.install(&self.spec, txn);
        st.held.remove(&txn);
        let event = match ts {
            Some(t) => Event::commit_ts(txn, self.id, t),
            None => Event::commit(txn, self.id),
        };
        self.metrics.record_commit(txn);
        self.log.record(event);
        self.cv.notify_all();
    }

    fn abort(&self, txn: ActivityId) {
        let mut st = self.state.lock();
        st.deferred.discard(txn);
        st.held.remove(&txn);
        self.metrics.record_abort(txn);
        self.log.record(Event::abort(txn, self.id));
        self.cv.notify_all();
    }
}

impl<S: SequentialSpec, R: LockRelation<S>> std::fmt::Debug for LockedObject<S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedObject")
            .field("id", &self.id)
            .finish()
    }
}
