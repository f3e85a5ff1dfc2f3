//! The one blocking `invoke` loop (`core::engine::invoke_blocking`), held
//! to the same contract on all three engines: however many rounds an
//! invocation waits it leaves exactly one invoke and one respond event,
//! and an invocation the deadlock policy kills leaves a history that is
//! still well-formed once the transaction aborts.

use atomicity_core::{
    AtomicObject, DeadlockPolicy, DynamicObject, HybridObject, Protocol, StaticObject, TxnError,
    TxnManager,
};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::well_formed::WellFormedness;
use atomicity_spec::{op, ActivityId, EventKind, History, ObjectId, Operation};
use std::sync::Arc;

const X: ObjectId = ObjectId::new(1);

/// One engine's account at `X` and a pair of operations such that
/// the second must wait while the transaction that ran the first —
/// begun earlier — is still open.
struct Scenario {
    well_formed: WellFormedness,
    mgr: TxnManager,
    object: Arc<dyn AtomicObject>,
    first: Operation,
    second: Operation,
}

fn blocking_scenarios(policy: DeadlockPolicy) -> Vec<Scenario> {
    let balance = || op("balance", [] as [i64; 0]);
    let deposit = || op("deposit", [5]);
    let mgr = |protocol| TxnManager::builder(protocol).policy(policy).build();
    let (d, h, s) = (
        mgr(Protocol::Dynamic),
        mgr(Protocol::Hybrid),
        mgr(Protocol::Static),
    );
    vec![
        // A pending balance observation blocks a deposit (§4.1).
        Scenario {
            well_formed: WellFormedness::Basic,
            object: DynamicObject::new(X, BankAccountSpec::new(), &d),
            mgr: d,
            first: balance(),
            second: deposit(),
        },
        Scenario {
            well_formed: WellFormedness::Hybrid,
            object: HybridObject::new(X, BankAccountSpec::new(), &h),
            mgr: h,
            first: balance(),
            second: deposit(),
        },
        // A reader waits for an earlier-timestamp uncommitted writer
        // (§4.2).
        Scenario {
            well_formed: WellFormedness::Static,
            object: StaticObject::new(X, BankAccountSpec::new(), &s),
            mgr: s,
            first: deposit(),
            second: balance(),
        },
    ]
}

fn count(h: &History, who: ActivityId, pick: impl Fn(&EventKind) -> bool) -> usize {
    h.iter()
        .filter(|e| e.activity == who && pick(&e.kind))
        .count()
}

#[test]
fn a_blocking_invoke_records_one_invoke_and_one_respond_however_long_it_waits() {
    const ROUNDS: u64 = 3;
    for scenario in blocking_scenarios(DeadlockPolicy::Detect) {
        let Scenario {
            well_formed,
            mgr,
            object,
            first,
            second,
        } = scenario;
        let holder = mgr.begin();
        object.invoke(&holder, first).unwrap();
        let waiter = mgr.begin();
        let who = waiter.id();
        let blocked = std::thread::spawn({
            let object = Arc::clone(&object);
            move || {
                object.invoke(&waiter, second).unwrap();
                waiter
            }
        });
        // Every round the waiter steps and is refused counts one
        // block; hold the conflict until it has gone round enough.
        while object.metrics().stats().blocks < ROUNDS {
            std::thread::yield_now();
        }
        mgr.commit(holder).unwrap();
        let waiter = blocked.join().unwrap();
        mgr.commit(waiter).unwrap();

        let h = mgr.history();
        assert_eq!(
            count(&h, who, |k| matches!(k, EventKind::Invoke(_))),
            1,
            "{well_formed:?}"
        );
        assert_eq!(
            count(&h, who, |k| matches!(k, EventKind::Respond(_))),
            1,
            "{well_formed:?}"
        );
        assert!(well_formed.is_well_formed(&h), "{well_formed:?}: {h:?}");
        let stats = object.metrics().stats();
        assert!(stats.blocks >= ROUNDS, "{well_formed:?}");
        assert_eq!(stats.admissions, 2, "{well_formed:?}");
    }
}

#[test]
fn a_die_decision_leaves_a_well_formed_history_after_abort() {
    // Wait-die: the younger requester may not wait for the older
    // holder, so the blocking invoke dies on its first round.
    for scenario in blocking_scenarios(DeadlockPolicy::WaitDie) {
        let Scenario {
            well_formed,
            mgr,
            object,
            first,
            second,
        } = scenario;
        let holder = mgr.begin();
        object.invoke(&holder, first).unwrap();
        let victim = mgr.begin();
        let who = victim.id();
        let err = object.invoke(&victim, second).unwrap_err();
        assert!(
            matches!(err, TxnError::Deadlock { txn, object } if txn == who && object == X),
            "{well_formed:?}: {err:?}"
        );
        mgr.abort(victim);
        mgr.commit(holder).unwrap();

        let h = mgr.history();
        assert_eq!(
            count(&h, who, |k| matches!(k, EventKind::Invoke(_))),
            1,
            "{well_formed:?}"
        );
        assert_eq!(
            count(&h, who, |k| matches!(k, EventKind::Respond(_))),
            0,
            "{well_formed:?}"
        );
        assert_eq!(
            count(&h, who, |k| matches!(k, EventKind::Abort)),
            1,
            "{well_formed:?}"
        );
        assert!(well_formed.is_well_formed(&h), "{well_formed:?}: {h:?}");
        let stats = object.metrics().stats();
        assert_eq!(
            (stats.deadlock_kills, stats.blocks),
            (1, 1),
            "{well_formed:?}"
        );
    }
}
