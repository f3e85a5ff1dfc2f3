//! Strict two-phase locking with read/write locks.

use crate::locks::{LockMode, ModeLock};
use crate::{invalid_operation, Deferred};
use atomicity_core::stats::StatsSnapshot;
use atomicity_core::trace::ObjectMetrics;
use atomicity_core::{
    Admission, AdmissionOutcome, AdmissionRequest, AtomicObject, HistoryLog, Participant, Txn,
    TxnError, TxnManager,
};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, SequentialSpec, Timestamp, Value};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// An object protected by strict two-phase read/write locking.
///
/// Every operation is classified only as a reader
/// ([`SequentialSpec::is_read_only`]) or a writer; readers share, writers
/// exclude. This is the coarsest conventional protocol — the floor the
/// paper's data-dependent protocols are measured against. Updates are
/// deferred (intentions applied at commit), matching the recovery model
/// the locking literature assumes.
///
/// Histories produced by this object are always dynamic atomic (2PL is a
/// sub-protocol of dynamic atomicity) — it simply admits far fewer
/// interleavings than [`atomicity_core::DynamicObject`].
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol, AtomicObject};
/// use atomicity_baselines::TwoPhaseLockedObject;
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{op, ObjectId};
///
/// let mgr = TxnManager::new(Protocol::Dynamic);
/// let acct = TwoPhaseLockedObject::new(ObjectId::new(1), BankAccountSpec::new(), &mgr);
/// let t = mgr.begin();
/// acct.invoke(&t, op("deposit", [5]))?;
/// mgr.commit(t)?;
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
pub struct TwoPhaseLockedObject<S: SequentialSpec> {
    id: ObjectId,
    spec: S,
    log: HistoryLog,
    lock: ModeLock<LockMode>,
    state: Mutex<Deferred<S>>,
    metrics: ObjectMetrics,
    self_ref: Weak<TwoPhaseLockedObject<S>>,
}

impl<S: SequentialSpec> TwoPhaseLockedObject<S> {
    /// Creates the object and wires it to the manager's history log.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager) -> Arc<Self> {
        let state = Mutex::new(Deferred::new(&spec));
        Arc::new_cyclic(|self_ref| TwoPhaseLockedObject {
            id,
            spec,
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

    /// A snapshot of this object's contention counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.metrics.stats()
    }
}

impl<S: SequentialSpec> AtomicObject for TwoPhaseLockedObject<S> {
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.id)
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        if !txn.is_active() {
            return Err(TxnError::NotActive { txn: txn.id() });
        }
        self.register_txn(txn);
        let me = txn.id();
        let mode = self.mode_of(&operation);
        // Validity pre-check so ill-typed operations leave no events.
        let results = self.state.lock().results_for(&self.spec, me, &operation);
        if results.is_empty() {
            return Err(invalid_operation(self.id, &operation));
        }
        self.log
            .record(Event::invoke(me, self.id, operation.clone()));
        let invoke_sw = self.metrics.stopwatch();
        // Fast path first so the blocking path (and its wait timing) is
        // only entered when the lock is actually contended.
        if !self.lock.try_acquire(txn, mode, |a, b| a.compatible(*b)) {
            self.metrics.record_block_round(me);
            let block_sw = self.metrics.stopwatch();
            if let Err(e) = self
                .lock
                .acquire(txn, self.id, mode, |a, b| a.compatible(*b))
            {
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

impl<S: SequentialSpec> TwoPhaseLockedObject<S> {
    fn mode_of(&self, operation: &Operation) -> LockMode {
        if self.spec.is_read_only(operation) {
            LockMode::Read
        } else {
            LockMode::Write
        }
    }

    /// Executes `operation` for `me`, whose lock mode is already held.
    fn execute_locked(&self, me: ActivityId, operation: Operation) -> Result<Value, TxnError> {
        let invalid = invalid_operation(self.id, &operation);
        let mut st = self.state.lock();
        st.execute(&self.spec, me, operation).ok_or(invalid)
    }
}

impl<S: SequentialSpec> Admission for TwoPhaseLockedObject<S> {
    fn register_txn(&self, txn: &Txn) {
        txn.register(
            self.self_ref
                .upgrade()
                .expect("TwoPhaseLockedObject used after its Arc was dropped"),
        );
    }

    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome {
        let me = request.txn;
        let operation = &request.operation;
        let mode = self.mode_of(operation);
        let invoke_sw = self.metrics.stopwatch();
        if let Err(holders) = self.lock.try_acquire_id(me, mode, |a, b| a.compatible(*b)) {
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

impl<S: SequentialSpec> Participant for TwoPhaseLockedObject<S> {
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

impl<S: SequentialSpec> std::fmt::Debug for TwoPhaseLockedObject<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoPhaseLockedObject")
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::Protocol;
    use atomicity_spec::atomicity::is_dynamic_atomic;
    use atomicity_spec::specs::BankAccountSpec;
    use atomicity_spec::{op, SystemSpec};
    use std::time::Duration;

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    #[test]
    fn serial_transactions_work() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        acct.invoke(&t, op("deposit", [10])).unwrap();
        assert_eq!(
            acct.invoke(&t, op("balance", [] as [i64; 0])).unwrap(),
            Value::from(10)
        );
        mgr.commit(t).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn concurrent_withdrawals_block_under_2pl() {
        // The exact workload the dynamic engine admits concurrently (§5.1)
        // serializes under 2PL: the second withdraw waits for the first.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let setup = mgr.begin();
        acct.invoke(&setup, op("deposit", [10])).unwrap();
        mgr.commit(setup).unwrap();

        let b = mgr.begin();
        acct.invoke(&b, op("withdraw", [4])).unwrap();
        let acct2 = Arc::clone(&acct);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let c = mgr2.begin();
            let v = acct2.invoke(&c, op("withdraw", [3])).unwrap();
            mgr2.commit(c).unwrap();
            v
        });
        std::thread::sleep(Duration::from_millis(30));
        // c must still be blocked on the write lock.
        assert_eq!(acct.holder_count(), 1);
        mgr.commit(b).unwrap();
        assert_eq!(h.join().unwrap(), Value::ok());
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn concurrent_readers_share() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let a = mgr.begin();
        let b = mgr.begin();
        acct.invoke(&a, op("balance", [] as [i64; 0])).unwrap();
        acct.invoke(&b, op("balance", [] as [i64; 0])).unwrap();
        assert_eq!(acct.holder_count(), 2);
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
    }

    #[test]
    fn deadlock_reported_not_hung() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let x1 = TwoPhaseLockedObject::new(ObjectId::new(1), BankAccountSpec::new(), &mgr);
        let x2 = TwoPhaseLockedObject::new(ObjectId::new(2), BankAccountSpec::new(), &mgr);
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        x1.invoke(&t1, op("deposit", [1])).unwrap();
        x2.invoke(&t2, op("deposit", [1])).unwrap();
        let x1b = Arc::clone(&x1);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let r = x1b.invoke(&t2, op("deposit", [1]));
            let died = r.is_err();
            if died {
                mgr2.abort(t2);
            } else {
                mgr2.commit(t2).unwrap();
            }
            died
        });
        std::thread::sleep(Duration::from_millis(20));
        let r1 = x2.invoke(&t1, op("deposit", [1]));
        let t1_died = r1.is_err();
        if t1_died {
            mgr.abort(t1);
        } else {
            mgr.commit(t1).unwrap();
        }
        let t2_died = h.join().unwrap();
        assert!(t1_died || t2_died);
    }

    #[test]
    fn try_invoke_reports_would_block() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let a = mgr.begin();
        acct.invoke(&a, op("deposit", [1])).unwrap(); // write lock held
        let b = mgr.begin();
        let err = acct
            .try_invoke(&b, op("balance", [] as [i64; 0]))
            .unwrap_err();
        assert!(matches!(err, TxnError::WouldBlock { .. }));
        // Nothing was recorded for the refused attempt.
        let events_before = mgr.history().len();
        let _ = acct.try_invoke(&b, op("deposit", [2]));
        assert_eq!(mgr.history().len(), events_before);
        mgr.commit(a).unwrap();
        // Lock released: the retry succeeds.
        assert!(acct.try_invoke(&b, op("deposit", [2])).is_ok());
        mgr.commit(b).unwrap();
    }

    #[test]
    fn aborted_writes_invisible() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        acct.invoke(&t, op("deposit", [99])).unwrap();
        mgr.abort(t);
        let t2 = mgr.begin();
        assert_eq!(
            acct.invoke(&t2, op("balance", [] as [i64; 0])).unwrap(),
            Value::from(0)
        );
        mgr.commit(t2).unwrap();
    }
}
