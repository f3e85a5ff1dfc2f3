//! The dynamic-atomicity engine (§4.1).
//!
//! Deferred update with **state-dependent admission**: the object holds the
//! committed abstract state plus, per active transaction, the *intentions
//! list* of (operation, result) pairs it has executed. A new invocation is
//! admitted with result `v` only if every permutation of the active
//! transactions' intention lists (with the caller's extended by the new
//! pair) replays successfully from the committed state — i.e. all
//! serialization orders of the concurrent transactions remain acceptable,
//! which is exactly what dynamic atomicity requires of orders not pinned
//! by `precedes`.
//!
//! This state-dependent test is what separates the engine from
//! commutativity-table locking: two withdrawals are admitted concurrently
//! *when the balance covers both* (the paper's §5.1 example), and
//! interleaved enqueues on a FIFO queue are admitted (the §5.1
//! scheduler-model counterexample), while genuinely order-sensitive
//! interleavings still block.

use crate::admission::{Admission, AdmissionOutcome, AdmissionRequest};
use crate::conflict::CommutesRel;
use crate::engine::{attempt, invoke_blocking, DynamicCore, Engine, Intentions, DEFAULT_MAX_CHECK};
use crate::error::TxnError;
use crate::manager::TxnManager;
use crate::object::{AtomicObject, Participant};
use crate::stats::StatsSnapshot;
use crate::sync::{Condvar, Mutex, Rank};
use crate::trace::ObjectMetrics;
use crate::txn::Txn;
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, SequentialSpec, Timestamp, Value};
use std::sync::{Arc, Weak};

/// An atomic object guaranteeing **dynamic atomicity** for a sequential
/// specification `S`.
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol, DynamicObject, AtomicObject};
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{op, ObjectId, Value};
///
/// let mgr = TxnManager::new(Protocol::Dynamic);
/// let acct = DynamicObject::new(ObjectId::new(1), BankAccountSpec::new(), &mgr);
/// let t = mgr.begin();
/// acct.invoke(&t, op("deposit", [10]))?;
/// mgr.commit(t)?;
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
pub struct DynamicObject<S: SequentialSpec> {
    core: DynamicCore<S>,
    mu: Mutex<Intentions<S>>,
    cv: Condvar,
    self_ref: Weak<DynamicObject<S>>,
}

impl<S: SequentialSpec> DynamicObject<S> {
    /// Creates the object and wires it to the manager's history log.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager) -> Arc<Self> {
        Self::with_max_check(id, spec, mgr, DEFAULT_MAX_CHECK)
    }

    /// Creates the object with a custom bound on the number of concurrent
    /// intention lists checked exhaustively (above it, conflicts are
    /// assumed).
    pub fn with_max_check(id: ObjectId, spec: S, mgr: &TxnManager, max_check: usize) -> Arc<Self> {
        Self::build(id, spec, mgr, max_check, None)
    }

    /// Creates the object with a state-independent commutativity relation
    /// (typically a machine-synthesized
    /// [`ConflictTable`](crate::ConflictTable)): a deterministic operation
    /// commuting with every pending operation of every other active
    /// transaction is admitted directly — no permutation replay, and no
    /// conservative block above the `max_check` bound. Pairs the relation
    /// does not admit fall back to the state-dependent replay check, so
    /// the engine stays strictly more permissive than table locking.
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
        let (core, initial) = DynamicCore::new(id, spec, mgr, max_check, table);
        Arc::new_cyclic(|self_ref| DynamicObject {
            core,
            mu: Mutex::new(Rank::DynamicMu, initial),
            cv: Condvar::new(),
            self_ref: self_ref.clone(),
        })
    }

    /// Contention statistics for this object.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.metrics.stats()
    }

    /// The object's sequential specification.
    pub fn spec(&self) -> &S {
        &self.core.spec
    }

    /// A copy of the committed abstract state set (for inspection/tests).
    pub fn committed_states(&self) -> Vec<S::State> {
        self.mu.lock().committed.clone()
    }

    /// Number of transactions with pending intentions at this object.
    pub fn active_count(&self) -> usize {
        self.mu.lock().pending.len()
    }
}

impl<S: SequentialSpec> Engine<Intentions<S>> for DynamicObject<S> {
    fn meter(&self) -> &ObjectMetrics {
        &self.core.metrics
    }

    fn admission_step(
        &self,
        state: &mut Intentions<S>,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome {
        self.core.admission_step(state, request, invoked)
    }

    fn record_invoke(&self, _state: &mut Intentions<S>, request: &AdmissionRequest) {
        self.core.record_invoke(request);
    }
}

impl<S: SequentialSpec> Admission for DynamicObject<S> {
    fn register_txn(&self, txn: &Txn) {
        txn.register(
            self.self_ref
                .upgrade()
                .expect("DynamicObject used after its Arc was dropped"),
        );
    }

    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome {
        let mut state = self.mu.lock();
        attempt(self, &mut state, request)
    }

    fn admit_batch(&self, requests: &[AdmissionRequest]) -> Vec<AdmissionOutcome> {
        let mut state = self.mu.lock();
        requests
            .iter()
            .map(|r| attempt(self, &mut state, r))
            .collect()
    }
}

impl<S: SequentialSpec> AtomicObject for DynamicObject<S> {
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.core.id)
    }

    fn metrics(&self) -> ObjectMetrics {
        self.core.metrics.clone()
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.register_txn(txn);
        let request = AdmissionRequest::from_txn(txn, operation);
        let invoke_sw = self.core.metrics.stopwatch();
        let mut state = self.mu.lock();
        invoke_blocking(self, txn, &request, &mut state, &self.cv, &invoke_sw)
    }
}

impl<S: SequentialSpec> Participant for DynamicObject<S> {
    fn object_id(&self) -> ObjectId {
        self.core.id
    }

    fn commit(&self, txn: ActivityId, ts: Option<Timestamp>) {
        let mut state = self.mu.lock();
        self.core.install(&mut state, txn);
        let event = match ts {
            Some(t) => Event::commit_ts(txn, self.core.id, t),
            None => Event::commit(txn, self.core.id),
        };
        self.core.log.record(event);
        self.core.metrics.record_commit(txn);
        self.cv.notify_all();
    }

    fn abort(&self, txn: ActivityId) {
        let mut state = self.mu.lock();
        state.pending.remove(&txn);
        self.core.log.record(Event::abort(txn, self.core.id));
        self.core.metrics.record_abort(txn);
        self.cv.notify_all();
    }
}

impl<S: SequentialSpec> std::fmt::Debug for DynamicObject<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicObject")
            .field("id", &self.core.id)
            .field("active", &self.active_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Protocol;
    use atomicity_spec::atomicity::{is_atomic, is_dynamic_atomic};
    use atomicity_spec::specs::{BankAccountSpec, FifoQueueSpec, SemiqueueSpec};
    use atomicity_spec::{op, SystemSpec};
    use std::time::Duration;

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    #[test]
    fn serial_transactions_round_trip() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        assert_eq!(acct.invoke(&t, op("deposit", [10])).unwrap(), Value::ok());
        assert_eq!(
            acct.invoke(&t, op("balance", [] as [i64; 0])).unwrap(),
            Value::from(10)
        );
        mgr.commit(t).unwrap();
        let t2 = mgr.begin();
        assert_eq!(
            acct.invoke(&t2, op("balance", [] as [i64; 0])).unwrap(),
            Value::from(10)
        );
        mgr.commit(t2).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        let h = mgr.history();
        assert!(is_dynamic_atomic(&h, &spec));
    }

    #[test]
    fn concurrent_withdrawals_with_headroom_are_admitted() {
        // Paper §5.1: balance 10 covers withdraw(4) and withdraw(3) in
        // either order, so both run concurrently without blocking.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let setup = mgr.begin();
        acct.invoke(&setup, op("deposit", [10])).unwrap();
        mgr.commit(setup).unwrap();

        let b = mgr.begin();
        let c = mgr.begin();
        assert_eq!(acct.invoke(&b, op("withdraw", [4])).unwrap(), Value::ok());
        // c is admitted while b is still uncommitted.
        assert_eq!(acct.invoke(&c, op("withdraw", [3])).unwrap(), Value::ok());
        mgr.commit(c).unwrap();
        mgr.commit(b).unwrap();

        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn insufficient_headroom_blocks_until_commit() {
        // Balance 5: withdraw(4) and withdraw(3) cannot both succeed; the
        // second blocks until the first commits, then gets
        // insufficient_funds.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let setup = mgr.begin();
        acct.invoke(&setup, op("deposit", [5])).unwrap();
        mgr.commit(setup).unwrap();

        let b = mgr.begin();
        assert_eq!(acct.invoke(&b, op("withdraw", [4])).unwrap(), Value::ok());

        let acct2 = Arc::clone(&acct);
        let mgr2_handle = std::thread::spawn({
            let c = mgr.begin();
            move || {
                let v = acct2.invoke(&c, op("withdraw", [3])).unwrap();
                (c, v)
            }
        });
        // Give the second withdrawal a moment to block, then commit b.
        std::thread::sleep(Duration::from_millis(30));
        mgr.commit(b).unwrap();
        let (c, v) = mgr2_handle.join().unwrap();
        assert_eq!(v, BankAccountSpec::insufficient_funds());
        mgr.commit(c).unwrap();

        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn interleaved_enqueues_are_admitted() {
        // Paper §5.1 scheduler-model counterexample: a and b interleave
        // enqueues; the engine admits all four without blocking.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let q = DynamicObject::new(x(), FifoQueueSpec::new(), &mgr);
        let a = mgr.begin();
        let b = mgr.begin();
        q.invoke(&a, op("enqueue", [1])).unwrap();
        q.invoke(&b, op("enqueue", [1])).unwrap();
        q.invoke(&a, op("enqueue", [2])).unwrap();
        q.invoke(&b, op("enqueue", [2])).unwrap();
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        let c = mgr.begin();
        let deq = || op("dequeue", [] as [i64; 0]);
        // Commit order a-b: the committed queue is a's elements then b's.
        assert_eq!(q.invoke(&c, deq()).unwrap(), Value::from(1));
        assert_eq!(q.invoke(&c, deq()).unwrap(), Value::from(2));
        assert_eq!(q.invoke(&c, deq()).unwrap(), Value::from(1));
        assert_eq!(q.invoke(&c, deq()).unwrap(), Value::from(2));
        mgr.commit(c).unwrap();

        let spec = SystemSpec::new().with_object(x(), FifoQueueSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn order_sensitive_reads_block_writers() {
        // A balance observation pins the state: a concurrent deposit would
        // invalidate it in one order, so the deposit blocks until the
        // reader commits.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let r = mgr.begin();
        assert_eq!(
            acct.invoke(&r, op("balance", [] as [i64; 0])).unwrap(),
            Value::from(0)
        );
        let acct2 = Arc::clone(&acct);
        let writer = std::thread::spawn({
            let w = mgr.begin();
            move || {
                let v = acct2.invoke(&w, op("deposit", [5])).unwrap();
                (w, v)
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        // Writer must still be blocked.
        assert_eq!(acct.active_count(), 1);
        mgr.commit(r).unwrap();
        let (w, v) = writer.join().unwrap();
        assert_eq!(v, Value::ok());
        mgr.commit(w).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let x1 = DynamicObject::new(ObjectId::new(1), BankAccountSpec::new(), &mgr);
        let x2 = DynamicObject::new(ObjectId::new(2), BankAccountSpec::new(), &mgr);
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        // t1 reads x1, t2 reads x2; then each deposits at the other's
        // object: classic cross deadlock.
        x1.invoke(&t1, op("balance", [] as [i64; 0])).unwrap();
        x2.invoke(&t2, op("balance", [] as [i64; 0])).unwrap();
        let x1b = Arc::clone(&x1);
        let mgr2 = mgr.clone();
        // Each side resolves its own transaction immediately, so whichever
        // one the deadlock policy kills unblocks the other.
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
        assert!(
            t1_died || t2_died,
            "at least one side must die to break the cycle"
        );
        let spec = SystemSpec::new()
            .with_object(ObjectId::new(1), BankAccountSpec::new())
            .with_object(ObjectId::new(2), BankAccountSpec::new());
        assert!(is_atomic(&mgr.history(), &spec));
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        acct.invoke(&t, op("deposit", [100])).unwrap();
        mgr.abort(t);
        let t2 = mgr.begin();
        assert_eq!(
            acct.invoke(&t2, op("balance", [] as [i64; 0])).unwrap(),
            Value::from(0)
        );
        mgr.commit(t2).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn invalid_operation_records_nothing() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        let err = acct.invoke(&t, op("frob", [1])).unwrap_err();
        assert!(matches!(err, TxnError::InvalidOperation { .. }));
        assert!(mgr.history().is_empty());
        mgr.commit(t).unwrap();
    }

    #[test]
    fn stats_count_blocks_and_admissions() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let r = mgr.begin();
        acct.invoke(&r, op("balance", [] as [i64; 0])).unwrap();
        let acct2 = Arc::clone(&acct);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let w = mgr2.begin();
            acct2.invoke(&w, op("deposit", [5])).unwrap();
            mgr2.commit(w).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        mgr.commit(r).unwrap();
        h.join().unwrap();
        let snap = acct.stats();
        assert_eq!(snap.admissions, 2);
        assert!(snap.blocks >= 1, "the deposit must have blocked");
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.deadlock_kills, 0);
    }

    #[test]
    fn nondeterministic_semiqueue_preserves_branches() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let q = DynamicObject::new(x(), SemiqueueSpec::new(), &mgr);
        let t = mgr.begin();
        q.invoke(&t, op("enq", [1])).unwrap();
        q.invoke(&t, op("enq", [2])).unwrap();
        mgr.commit(t).unwrap();
        let t2 = mgr.begin();
        let v = q.invoke(&t2, op("deq", [] as [i64; 0])).unwrap();
        assert!(v == Value::from(1) || v == Value::from(2));
        mgr.commit(t2).unwrap();
        let spec = SystemSpec::new().with_object(x(), SemiqueueSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn pairwise_fine_but_triple_conflicts() {
        // Balance 10: any two withdraw(4)s fit, three do not — the third
        // must block until one of the first two resolves, then observe
        // insufficient funds (if both commit).
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let setup = mgr.begin();
        acct.invoke(&setup, op("deposit", [10])).unwrap();
        mgr.commit(setup).unwrap();

        let a = mgr.begin();
        let b = mgr.begin();
        assert_eq!(acct.invoke(&a, op("withdraw", [4])).unwrap(), Value::ok());
        assert_eq!(acct.invoke(&b, op("withdraw", [4])).unwrap(), Value::ok());

        let acct2 = Arc::clone(&acct);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let c = mgr2.begin();
            let v = acct2.invoke(&c, op("withdraw", [4])).unwrap();
            mgr2.commit(c).unwrap();
            v
        });
        std::thread::sleep(Duration::from_millis(30));
        // c must be blocked: only a and b hold intentions.
        assert_eq!(acct.active_count(), 2);
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        assert_eq!(h.join().unwrap(), BankAccountSpec::insufficient_funds());
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn blocked_txn_proceeds_after_conflicting_abort() {
        // The conflicting transaction aborts instead of committing: the
        // blocked withdrawal then succeeds against the unchanged balance.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::new(x(), BankAccountSpec::new(), &mgr);
        let setup = mgr.begin();
        acct.invoke(&setup, op("deposit", [5])).unwrap();
        mgr.commit(setup).unwrap();

        let b = mgr.begin();
        assert_eq!(acct.invoke(&b, op("withdraw", [4])).unwrap(), Value::ok());
        let acct2 = Arc::clone(&acct);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let c = mgr2.begin();
            let v = acct2.invoke(&c, op("withdraw", [3])).unwrap();
            mgr2.commit(c).unwrap();
            v
        });
        std::thread::sleep(Duration::from_millis(30));
        mgr.abort(b);
        assert_eq!(h.join().unwrap(), Value::ok(), "abort frees the funds");
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn max_check_above_the_ceiling_blocks_rather_than_wraps() {
        // 32 pending lists plus the caller's: a 32-bit subset mask wraps
        // to "no list left to check", which would grant a 33rd withdrawal
        // from a balance of 32. The bound is clamped, so the engine blocks
        // before it builds a mask at all.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::with_max_check(x(), BankAccountSpec::with_initial(32), &mgr, 64);
        let holders: Vec<Txn> = (0..32).map(|_| mgr.begin()).collect();
        {
            let mut state = acct.mu.lock();
            for t in &holders {
                state
                    .pending
                    .insert(t.id(), vec![(op("withdraw", [1]), Value::ok())]);
            }
        }
        let late = mgr.begin();
        let refused = acct.try_invoke(&late, op("withdraw", [1]));
        assert!(
            matches!(refused, Err(TxnError::WouldBlock { .. })),
            "{refused:?}"
        );
    }

    #[test]
    fn many_commutative_writers_scale_past_check_bound() {
        // More concurrent writers than max_check: the engine conservatively
        // serializes the excess, but everything still completes and the
        // history stays dynamic atomic.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = DynamicObject::with_max_check(x(), BankAccountSpec::new(), &mgr, 3);
        let mut handles = Vec::new();
        for _ in 0..6 {
            let acct = Arc::clone(&acct);
            let mgr = mgr.clone();
            handles.push(std::thread::spawn(move || {
                let t = mgr.begin();
                match acct.invoke(&t, op("deposit", [1])) {
                    Ok(_) => {
                        mgr.commit(t).unwrap();
                        true
                    }
                    Err(_) => {
                        mgr.abort(t);
                        false
                    }
                }
            }));
        }
        let committed = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        assert!(committed >= 1);
        let t = mgr.begin();
        let v = acct.invoke(&t, op("balance", [] as [i64; 0])).unwrap();
        assert_eq!(v, Value::from(committed as i64));
        mgr.commit(t).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_dynamic_atomic(&mgr.history(), &spec));
    }
}
