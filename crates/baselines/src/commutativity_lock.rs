//! Commutativity-table locking (Schwarz & Spector 82).

use crate::locks::ModeLock;
use crate::{invalid_operation, Deferred};
use atomicity_core::trace::ObjectMetrics;
use atomicity_core::{
    Admission, AdmissionOutcome, AdmissionRequest, AtomicObject, CommutesRel, HistoryLog,
    Participant, Txn, TxnError, TxnManager,
};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, SequentialSpec, Timestamp, Value};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// A static commutativity predicate over operations: `true` iff the two
/// operations commute **in every state** — the state-independent relation
/// the conventional locking protocols are built on.
///
/// Function pointers of this type implement
/// [`CommutesRel`](atomicity_core::CommutesRel), as do the generated
/// [`ConflictTable`](atomicity_core::ConflictTable)s from `atomicity-lint`;
/// [`CommutativityLockedObject::with_relation`] accepts either.
pub type Commutes = fn(&Operation, &Operation) -> bool;

/// The §5.1 commutativity table for the bank account: only
/// deposit/deposit and balance/balance pairs commute; `withdraw` conflicts
/// with everything (its outcome is state-dependent), and `balance`
/// conflicts with both mutators.
pub fn bank_commutativity(p: &Operation, q: &Operation) -> bool {
    matches!(
        (p.name(), q.name()),
        ("deposit", "deposit") | ("balance", "balance")
    )
}

/// The FIFO-queue table: *nothing* commutes — `enqueue(1)` does not
/// commute with `enqueue(2)` (§5.1), dequeues are order-sensitive, and
/// observers conflict with mutators. Only identical-argument observers
/// commute.
pub fn queue_commutativity(p: &Operation, q: &Operation) -> bool {
    matches!(
        (p.name(), q.name()),
        ("front", "front") | ("len", "len") | ("front", "len") | ("len", "front")
    )
}

/// The integer-set table, argument-dependent: operations on *different*
/// elements always commute; on the same element, insert/insert and
/// delete/delete commute (idempotent), member/member commutes, but a
/// mutator conflicts with an observer of the same element. `size`
/// conflicts with every mutator.
pub fn set_commutativity(p: &Operation, q: &Operation) -> bool {
    let (pn, qn) = (p.name(), q.name());
    if pn == "size" || qn == "size" {
        return pn == "member" || qn == "member" || (pn == "size" && qn == "size");
    }
    match (p.int_arg(0), q.int_arg(0)) {
        (Some(i), Some(j)) if i != j => true,
        _ => matches!(
            (pn, qn),
            ("insert", "insert") | ("delete", "delete") | ("member", "member")
        ),
    }
}

/// An object protected by operation-level locks with a **static
/// commutativity table**.
///
/// An invocation waits until its operation commutes (per the table) with
/// every operation held by other active transactions; locks are held to
/// commit (strict two-phase). This is the protocol of
/// [Schwarz & Spector 82] / [Korth 81]: type-specific, but blind to the
/// current state — so two `withdraw`s never run concurrently even when
/// the balance covers both, which is exactly the §5.1 gap to dynamic
/// atomicity.
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol, AtomicObject};
/// use atomicity_baselines::{CommutativityLockedObject, bank_commutativity};
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{op, ObjectId};
///
/// let mgr = TxnManager::new(Protocol::Dynamic);
/// let acct = CommutativityLockedObject::new(
///     ObjectId::new(1), BankAccountSpec::new(), &mgr, bank_commutativity);
/// let t = mgr.begin();
/// acct.invoke(&t, op("deposit", [5]))?;
/// mgr.commit(t)?;
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
pub struct CommutativityLockedObject<S: SequentialSpec> {
    id: ObjectId,
    spec: S,
    commutes: Arc<dyn CommutesRel>,
    log: HistoryLog,
    lock: ModeLock<Operation>,
    state: Mutex<Deferred<S>>,
    metrics: ObjectMetrics,
    self_ref: Weak<CommutativityLockedObject<S>>,
}

impl<S: SequentialSpec> CommutativityLockedObject<S> {
    /// Creates the object with the given hand-written commutativity table.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager, commutes: Commutes) -> Arc<Self> {
        Self::with_relation(id, spec, mgr, Arc::new(commutes))
    }

    /// Creates the object with any [`CommutesRel`] — in particular a
    /// machine-generated [`ConflictTable`](atomicity_core::ConflictTable)
    /// from the `atomicity-lint` synthesis pass.
    pub fn with_relation(
        id: ObjectId,
        spec: S,
        mgr: &TxnManager,
        commutes: Arc<dyn CommutesRel>,
    ) -> Arc<Self> {
        let state = Mutex::new(Deferred::new(&spec));
        Arc::new_cyclic(|self_ref| CommutativityLockedObject {
            id,
            spec,
            commutes,
            log: mgr.log(),
            lock: ModeLock::new(),
            state,
            metrics: mgr.metrics().object(id),
            self_ref: self_ref.clone(),
        })
    }

    /// Number of transactions currently holding operation locks here.
    pub fn holder_count(&self) -> usize {
        self.lock.holder_count()
    }
}

impl<S: SequentialSpec> AtomicObject for CommutativityLockedObject<S> {
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.id)
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        if !txn.is_active() {
            return Err(TxnError::NotActive { txn: txn.id() });
        }
        self.register_txn(txn);
        let me = txn.id();
        // Validity pre-check so ill-typed operations leave no events.
        let results = self.state.lock().results_for(&self.spec, me, &operation);
        if results.is_empty() {
            return Err(invalid_operation(self.id, &operation));
        }
        self.log
            .record(Event::invoke(me, self.id, operation.clone()));
        let commutes = |a: &Operation, b: &Operation| self.commutes.commutes(a, b);
        let invoke_sw = self.metrics.stopwatch();
        // Fast path first so block-wait time is only measured under
        // contention.
        if !self.lock.try_acquire(txn, operation.clone(), commutes) {
            self.metrics.record_block_round(me);
            let block_sw = self.metrics.stopwatch();
            if let Err(e) = self.lock.acquire(txn, self.id, operation.clone(), commutes) {
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

impl<S: SequentialSpec> CommutativityLockedObject<S> {
    /// Executes `operation` for `me`, whose operation lock is already held.
    fn execute_locked(&self, me: ActivityId, operation: Operation) -> Result<Value, TxnError> {
        let invalid = invalid_operation(self.id, &operation);
        let mut st = self.state.lock();
        st.execute(&self.spec, me, operation).ok_or(invalid)
    }
}

impl<S: SequentialSpec> Admission for CommutativityLockedObject<S> {
    fn register_txn(&self, txn: &Txn) {
        txn.register(
            self.self_ref
                .upgrade()
                .expect("CommutativityLockedObject used after its Arc was dropped"),
        );
    }

    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome {
        let me = request.txn;
        let operation = &request.operation;
        let commutes = |a: &Operation, b: &Operation| self.commutes.commutes(a, b);
        let invoke_sw = self.metrics.stopwatch();
        if let Err(holders) = self.lock.try_acquire_id(me, operation.clone(), commutes) {
            self.metrics.record_block_round(me);
            return AdmissionOutcome::Blocked { holders };
        }
        // Mode taken; on an invalid operation it stays held until
        // commit/abort, as in the blocking path.
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

impl<S: SequentialSpec> Participant for CommutativityLockedObject<S> {
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

impl<S: SequentialSpec> std::fmt::Debug for CommutativityLockedObject<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommutativityLockedObject")
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::Protocol;
    use atomicity_spec::atomicity::is_dynamic_atomic;
    use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
    use atomicity_spec::{op, SystemSpec};
    use std::time::Duration;

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    #[test]
    fn tables_match_the_paper() {
        // §5.1: two deposits commute...
        assert!(bank_commutativity(&op("deposit", [3]), &op("deposit", [5])));
        // ...two withdraws do not...
        assert!(!bank_commutativity(
            &op("withdraw", [4]),
            &op("withdraw", [3])
        ));
        // ...nor deposit with withdraw.
        assert!(!bank_commutativity(
            &op("deposit", [1]),
            &op("withdraw", [3])
        ));
        // §5.1: enqueue(1) does not commute with enqueue(2).
        assert!(!queue_commutativity(
            &op("enqueue", [1]),
            &op("enqueue", [2])
        ));
        // Set: different elements commute, same element mutator/observer
        // conflicts.
        assert!(set_commutativity(&op("insert", [1]), &op("member", [2])));
        assert!(!set_commutativity(&op("insert", [1]), &op("member", [1])));
        assert!(set_commutativity(&op("insert", [1]), &op("insert", [1])));
        assert!(!set_commutativity(
            &op("insert", [1]),
            &op("size", [] as [i64; 0])
        ));
    }

    #[test]
    fn concurrent_deposits_admitted() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct =
            CommutativityLockedObject::new(x(), BankAccountSpec::new(), &mgr, bank_commutativity);
        let a = mgr.begin();
        let b = mgr.begin();
        acct.invoke(&a, op("deposit", [5])).unwrap();
        acct.invoke(&b, op("deposit", [7])).unwrap(); // concurrent
        assert_eq!(acct.holder_count(), 2);
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn concurrent_withdrawals_blocked_despite_headroom() {
        // Balance 10 covers both withdrawals, but the static table cannot
        // know that: the second withdraw blocks — the paper's suboptimality
        // demonstration.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct =
            CommutativityLockedObject::new(x(), BankAccountSpec::new(), &mgr, bank_commutativity);
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
        assert_eq!(acct.holder_count(), 1, "second withdraw must be blocked");
        mgr.commit(b).unwrap();
        assert_eq!(h.join().unwrap(), Value::ok());
    }

    #[test]
    fn try_invoke_respects_the_table() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct =
            CommutativityLockedObject::new(x(), BankAccountSpec::new(), &mgr, bank_commutativity);
        let a = mgr.begin();
        acct.invoke(&a, op("deposit", [5])).unwrap();
        let b = mgr.begin();
        // Deposits commute: admitted without blocking.
        assert!(acct.try_invoke(&b, op("deposit", [7])).is_ok());
        // Withdraw conflicts with the held deposits: refused.
        let err = acct.try_invoke(&b, op("withdraw", [1])).unwrap_err();
        assert!(matches!(err, TxnError::WouldBlock { .. }));
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
    }

    #[test]
    fn set_operations_on_disjoint_elements_share() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let set = CommutativityLockedObject::new(x(), IntSetSpec::new(), &mgr, set_commutativity);
        let a = mgr.begin();
        let b = mgr.begin();
        set.invoke(&a, op("insert", [1])).unwrap();
        set.invoke(&b, op("insert", [2])).unwrap();
        set.invoke(&b, op("member", [3])).unwrap();
        assert_eq!(set.holder_count(), 2);
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        let spec = SystemSpec::new().with_object(x(), IntSetSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn generated_conflict_table_drives_the_lock() {
        use atomicity_core::{ArgRelation, ConflictRule, ConflictTable};
        // A miniature machine-generated table: deposits share, everything
        // else conflicts (missing rule => conflict, conservatively).
        let table = ConflictTable {
            adt: "bank".to_string(),
            spec: "BankAccountSpec".to_string(),
            depth: 2,
            states_explored: 0,
            truncated: 0,
            universe: vec!["deposit(3)".to_string(), "deposit(5)".to_string()],
            rules: vec![ConflictRule {
                p_name: "deposit".to_string(),
                q_name: "deposit".to_string(),
                relation: ArgRelation::DistinctKey,
                commutes: true,
                instance_pairs: 1,
            }],
        };
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = CommutativityLockedObject::with_relation(
            x(),
            BankAccountSpec::new(),
            &mgr,
            Arc::new(table),
        );
        let a = mgr.begin();
        let b = mgr.begin();
        acct.invoke(&a, op("deposit", [3])).unwrap();
        acct.invoke(&b, op("deposit", [5])).unwrap();
        assert_eq!(acct.holder_count(), 2);
        // No rule covers withdraw: the generated table conservatively
        // blocks it while the deposits hold the lock.
        assert!(acct.try_invoke(&mgr.begin(), op("withdraw", [1])).is_err());
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }
}
