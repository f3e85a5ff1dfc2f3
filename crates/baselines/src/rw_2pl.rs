//! Strict two-phase locking with read/write locks.

use crate::locked::{LockRelation, LockedObject};
use atomicity_core::TxnManager;
use atomicity_spec::{ObjectId, Operation, SequentialSpec};
use std::sync::Arc;

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
pub type TwoPhaseLockedObject<S> = LockedObject<S, ReadWrite>;

/// Classical read/write lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared mode — compatible with other shared holders.
    Read,
    /// Exclusive mode — compatible with nothing.
    Write,
}

impl LockMode {
    /// Standard r/w compatibility: only read/read is compatible.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Read, LockMode::Read))
    }
}

/// The read/write relation derived from [`SequentialSpec::is_read_only`]:
/// an operation locks in [`LockMode::Read`] if it is read-only, else in
/// [`LockMode::Write`].
#[derive(Debug)]
pub struct ReadWrite;

impl<S: SequentialSpec> LockRelation<S> for ReadWrite {
    type Mode = LockMode;

    fn mode(&self, spec: &S, operation: &Operation) -> LockMode {
        if spec.is_read_only(operation) {
            LockMode::Read
        } else {
            LockMode::Write
        }
    }

    fn compatible(&self, a: &LockMode, b: &LockMode) -> bool {
        a.compatible(*b)
    }
}

impl<S: SequentialSpec> LockedObject<S, ReadWrite> {
    /// Creates the object and wires it to the manager's history log.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager) -> Arc<Self> {
        Self::with_relation(id, spec, mgr, ReadWrite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::{AtomicObject, Protocol, TxnError};
    use atomicity_spec::atomicity::is_dynamic_atomic;
    use atomicity_spec::specs::BankAccountSpec;
    use atomicity_spec::{op, SystemSpec, Value};
    use std::time::{Duration, Instant};

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    fn balance() -> Operation {
        op("balance", [] as [i64; 0])
    }

    #[test]
    fn rw_compatibility_matrix() {
        assert!(LockMode::Read.compatible(LockMode::Read));
        assert!(!LockMode::Read.compatible(LockMode::Write));
        assert!(!LockMode::Write.compatible(LockMode::Read));
        assert!(!LockMode::Write.compatible(LockMode::Write));
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
    fn reacquisition_by_holder_is_immediate() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let t = mgr.begin();
        acct.invoke(&t, balance()).unwrap();
        // Upgrading against only one's own read mode must not block.
        assert_eq!(acct.try_invoke(&t, op("deposit", [3])), Ok(Value::ok()));
        assert_eq!(acct.holder_count(), 1);
        mgr.commit(t).unwrap();
    }

    #[test]
    fn writer_waits_for_the_readers_to_commit() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let reader = mgr.begin();
        acct.invoke(&reader, balance()).unwrap();
        let acct2 = Arc::clone(&acct);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let writer = mgr2.begin();
            acct2.invoke(&writer, op("deposit", [5])).unwrap();
            mgr2.commit(writer).unwrap();
        });
        let blocked = || acct.metrics().stats().blocks > 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while !blocked() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(blocked(), "the writer must block behind the reader");
        assert_eq!(acct.holder_count(), 1, "and take nothing while it waits");
        mgr.commit(reader).unwrap();
        h.join().unwrap();
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
    fn shared_readers_coexist() {
        // A second reader is admitted at once beside the first, and
        // aborting both releases both shared holds.
        let mgr = TxnManager::new(Protocol::Dynamic);
        let acct = TwoPhaseLockedObject::new(x(), BankAccountSpec::new(), &mgr);
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        assert_eq!(acct.try_invoke(&t1, balance()), Ok(Value::from(0)));
        assert_eq!(acct.try_invoke(&t2, balance()), Ok(Value::from(0)));
        assert_eq!(acct.holder_count(), 2);
        mgr.abort(t1);
        mgr.abort(t2);
        assert_eq!(acct.holder_count(), 0);
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
        let frob = || op("frob", [1]);
        let invalid = |r| matches!(r, Err(TxnError::InvalidOperation { .. }));
        let a = mgr.begin();
        let b = mgr.begin();
        // Uncontended, an invalid operation is refused and takes no mode,
        // so another transaction's write is admitted.
        assert!(invalid(acct.try_invoke(&b, frob())));
        assert!(acct.try_invoke(&a, op("deposit", [1])).is_ok()); // write lock held
        let err = acct.try_invoke(&b, balance()).unwrap_err();
        assert!(matches!(err, TxnError::WouldBlock { .. }));
        // Contended, it is still invalid, from either entry point.
        assert!(invalid(acct.try_invoke(&b, frob())));
        assert!(invalid(acct.invoke(&b, frob())));
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
