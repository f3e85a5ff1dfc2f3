//! Commutativity-table locking (Schwarz & Spector 82).

use crate::locked::{LockRelation, LockedObject};
use atomicity_core::{CommutesRel, TxnManager};
use atomicity_spec::{ObjectId, Operation, SequentialSpec};
use std::sync::Arc;

/// A static commutativity predicate over operations: `true` iff the two
/// operations commute **in every state** — the state-independent relation
/// the conventional locking protocols are built on.
///
/// Function pointers of this type implement
/// [`CommutesRel`](atomicity_core::CommutesRel), as do the generated
/// [`ConflictTable`](atomicity_core::ConflictTable)s from `atomicity-lint`;
/// [`CommutativityLockedObject::with_relation`](LockedObject::with_relation)
/// accepts either.
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

/// The kv-map table: different keys always commute; same-key
/// `adjust`/`adjust` commutes; observers commute with observers.
/// Whole-map scans (`sum`, `size`) conflict with every mutator.
pub fn map_commutativity(p: &Operation, q: &Operation) -> bool {
    let observer = |n: &str| matches!(n, "get" | "sum" | "size");
    let scan = |n: &str| matches!(n, "sum" | "size");
    if observer(p.name()) && observer(q.name()) {
        return true;
    }
    if scan(p.name()) || scan(q.name()) {
        return false;
    }
    match (p.int_arg(0), q.int_arg(0)) {
        (Some(i), Some(j)) if i != j => true,
        _ => matches!((p.name(), q.name()), ("adjust", "adjust")),
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
pub type CommutativityLockedObject<S> = LockedObject<S, Arc<dyn CommutesRel>>;

/// The lock mode is the operation itself; two holders are compatible iff
/// the table says their operations commute.
impl<S: SequentialSpec> LockRelation<S> for Arc<dyn CommutesRel> {
    type Mode = Operation;

    fn mode(&self, _spec: &S, operation: &Operation) -> Operation {
        operation.clone()
    }

    fn compatible(&self, a: &Operation, b: &Operation) -> bool {
        self.commutes(a, b)
    }
}

impl<S: SequentialSpec> LockedObject<S, Arc<dyn CommutesRel>> {
    /// Creates the object with the given hand-written commutativity table.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager, commutes: Commutes) -> Arc<Self> {
        Self::with_relation(id, spec, mgr, Arc::new(commutes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::{AtomicObject, Protocol, TxnError};
    use atomicity_spec::atomicity::is_dynamic_atomic;
    use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
    use atomicity_spec::{op, SystemSpec, Value};
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
        let invalid = |r| matches!(r, Err(TxnError::InvalidOperation { .. }));
        let a = mgr.begin();
        // An invalid operation is refused and takes no mode.
        assert!(invalid(acct.try_invoke(&a, op("frob", [1]))));
        acct.invoke(&a, op("deposit", [5])).unwrap();
        let b = mgr.begin();
        // Deposits commute: admitted without blocking.
        assert!(acct.try_invoke(&b, op("deposit", [7])).is_ok());
        // Withdraw conflicts with the held deposits: refused.
        let err = acct.try_invoke(&b, op("withdraw", [1])).unwrap_err();
        assert!(matches!(err, TxnError::WouldBlock { .. }));
        // Under the same conflict, an invalid operation is still invalid.
        let c = mgr.begin();
        assert!(invalid(acct.try_invoke(&c, op("frob", [1]))));
        assert!(invalid(acct.invoke(&c, op("frob", [1]))));
        mgr.abort(c);
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

    #[test]
    fn map_table_shape() {
        assert!(map_commutativity(
            &op("adjust", [1, 5]),
            &op("adjust", [1, 9])
        ));
        assert!(map_commutativity(&op("put", [1, 5]), &op("put", [2, 9])));
        assert!(!map_commutativity(&op("put", [1, 5]), &op("put", [1, 9])));
        assert!(!map_commutativity(
            &op("adjust", [1, 5]),
            &op("sum", [] as [i64; 0])
        ));
        assert!(map_commutativity(
            &op("get", [1]),
            &op("sum", [] as [i64; 0])
        ));
    }
}
