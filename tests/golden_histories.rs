//! Golden histories: fixed single-threaded scripts driven through
//! `invoke` and through `try_invoke` on the dynamic, hybrid and static
//! engines must record exactly the event sequence in
//! `golden_histories.txt`, which was captured from the engines as they
//! were before the three admission paths were collapsed into one step
//! and one blocking loop; the `depth3` sections at its end were captured
//! from the engines that still walked every permutation of the pending
//! lists, before the state-dependent check became a subset programme;
//! the `2pl` and `commut-lock` sections after them were captured from
//! the two lock baselines while each still had its own object.
//! Admission refactors may move code; they may not move events.

use atomicity::baselines::{bank_commutativity, CommutativityLockedObject, TwoPhaseLockedObject};
use atomicity::bench::synthesized_suite;
use atomicity::core::{
    AtomicObject, CommutesRel, DynamicObject, HybridObject, Protocol, StaticObject, Txn, TxnError,
    TxnManager,
};
use atomicity::spec::specs::BankAccountSpec;
use atomicity::spec::{op, ObjectId, Operation, Value};
use std::fmt::Write;
use std::sync::Arc;

const X: ObjectId = ObjectId::new(1);

type Entry = fn(&dyn AtomicObject, &Txn, Operation) -> Result<Value, TxnError>;

type Build = fn(&TxnManager) -> Arc<dyn AtomicObject>;

fn via_invoke(o: &dyn AtomicObject, t: &Txn, operation: Operation) -> Result<Value, TxnError> {
    o.invoke(t, operation)
}

fn via_try_invoke(o: &dyn AtomicObject, t: &Txn, operation: Operation) -> Result<Value, TxnError> {
    o.try_invoke(t, operation)
}

fn spec() -> BankAccountSpec {
    BankAccountSpec::with_initial(10)
}

fn bank_table() -> Arc<dyn CommutesRel> {
    Arc::new(
        synthesized_suite()
            .table("bank")
            .expect("synthesized bank table")
            .clone(),
    )
}

fn dynamic(table: bool, mgr: &TxnManager) -> Arc<dyn AtomicObject> {
    if table {
        DynamicObject::with_relation(X, spec(), mgr, bank_table())
    } else {
        DynamicObject::new(X, spec(), mgr)
    }
}

fn hybrid(table: bool, mgr: &TxnManager) -> Arc<dyn AtomicObject> {
    if table {
        HybridObject::with_relation(X, spec(), mgr, bank_table())
    } else {
        HybridObject::new(X, spec(), mgr)
    }
}

fn balance() -> Operation {
    op("balance", [] as [i64; 0])
}

/// Appends one call's outcome to the transcript.
fn call(out: &mut String, entry: Entry, o: &dyn AtomicObject, t: &Txn, operation: Operation) {
    let shown = operation.to_string();
    match entry(o, t, operation) {
        Ok(v) => writeln!(out, "  {shown} -> {v}").unwrap(),
        Err(e) => writeln!(out, "  {shown} -> error: {e}").unwrap(),
    }
}

fn dump(out: &mut String, mgr: &TxnManager) {
    for e in mgr.history().iter() {
        writeln!(out, "  {e}").unwrap();
    }
}

/// Script A never blocks, so it runs through either entry point:
/// concurrent commuting updates, an ill-typed operation, a commit, an
/// abort, and a final read.
fn updates_without_blocking(
    out: &mut String,
    entry: Entry,
    mgr: &TxnManager,
    o: &dyn AtomicObject,
) {
    let (a, b, c) = (mgr.begin(), mgr.begin(), mgr.begin());
    call(out, entry, o, &a, op("deposit", [5]));
    call(out, entry, o, &b, op("withdraw", [4]));
    call(out, entry, o, &c, op("frob", [1]));
    call(out, entry, o, &a, op("withdraw", [3]));
    call(out, entry, o, &c, op("deposit", [2]));
    mgr.commit(b).unwrap();
    mgr.abort(c);
    mgr.commit(a).unwrap();
    let d = mgr.begin();
    call(out, entry, o, &d, balance());
    mgr.commit(d).unwrap();
}

/// Script B is for `try_invoke` only: a refused attempt records nothing
/// and the retry after the holder commits is admitted.
fn refused_then_admitted(out: &mut String, mgr: &TxnManager, o: &dyn AtomicObject) {
    let (a, b) = (mgr.begin(), mgr.begin());
    call(out, via_try_invoke, o, &a, balance());
    call(out, via_try_invoke, o, &b, op("deposit", [5]));
    mgr.commit(a).unwrap();
    call(out, via_try_invoke, o, &b, op("deposit", [5]));
    mgr.commit(b).unwrap();
}

/// The static engine's own cases: out-of-timestamp-order execution, a
/// wait on an earlier uncommitted writer (refused under `try_invoke`
/// only), and a must-abort refusal that records initiate + invoke.
fn static_script(
    out: &mut String,
    entry: Entry,
    nonblocking: bool,
    mgr: &TxnManager,
    o: &dyn AtomicObject,
) {
    let (early, late, third) = (mgr.begin(), mgr.begin(), mgr.begin());
    call(out, entry, o, &late, op("deposit", [5]));
    call(out, entry, o, &early, op("withdraw", [4]));
    if nonblocking {
        call(out, entry, o, &third, balance());
    }
    mgr.commit(late).unwrap();
    mgr.commit(early).unwrap();
    call(out, entry, o, &third, balance());
    mgr.commit(third).unwrap();
    let (e, f) = (mgr.begin(), mgr.begin());
    call(out, entry, o, &f, balance());
    mgr.commit(f).unwrap();
    call(out, entry, o, &e, op("deposit", [1]));
    mgr.abort(e);
}

fn hybrid_reader(out: &mut String, entry: Entry, mgr: &TxnManager, o: &dyn AtomicObject) {
    let r = mgr.begin_read_only();
    call(out, entry, o, &r, balance());
    call(out, entry, o, &r, op("deposit", [1]));
    mgr.commit(r).unwrap();
}

/// Script C, `try_invoke` only, is the state-dependent check at depth 3:
/// four open transactions interleave withdrawals the balance of 10 covers
/// in every order, then the first one it does not is refused — as are a
/// read and, until the depositor commits, the retry beside an uncommitted
/// deposit.
fn covered_withdrawals_at_depth_three(out: &mut String, mgr: &TxnManager, o: &dyn AtomicObject) {
    let (a, b, c, d) = (mgr.begin(), mgr.begin(), mgr.begin(), mgr.begin());
    for t in [&a, &b, &c, &d] {
        call(out, via_try_invoke, o, t, op("withdraw", [2]));
    }
    call(out, via_try_invoke, o, &a, op("withdraw", [1]));
    call(out, via_try_invoke, o, &b, op("withdraw", [2]));
    call(out, via_try_invoke, o, &c, balance());
    call(out, via_try_invoke, o, &d, op("deposit", [5]));
    call(out, via_try_invoke, o, &b, op("withdraw", [2]));
    mgr.commit(d).unwrap();
    call(out, via_try_invoke, o, &b, op("withdraw", [2]));
    mgr.abort(c);
    mgr.commit(a).unwrap();
    mgr.commit(b).unwrap();
    let e = mgr.begin();
    call(out, via_try_invoke, o, &e, balance());
    mgr.commit(e).unwrap();
}

fn transcript() -> String {
    let mut out = String::new();
    let entries: [(&str, Entry, bool); 2] = [
        ("invoke", via_invoke, false),
        ("try_invoke", via_try_invoke, true),
    ];
    for (entry_name, entry, nonblocking) in entries {
        for table in [false, true] {
            let label = if table { "table" } else { "replay" };

            writeln!(out, "dynamic/{label}/{entry_name}").unwrap();
            let mgr = TxnManager::new(Protocol::Dynamic);
            let o = dynamic(table, &mgr);
            updates_without_blocking(&mut out, entry, &mgr, o.as_ref());
            if nonblocking {
                refused_then_admitted(&mut out, &mgr, o.as_ref());
            }
            dump(&mut out, &mgr);

            writeln!(out, "hybrid/{label}/{entry_name}").unwrap();
            let mgr = TxnManager::new(Protocol::Hybrid);
            let o = hybrid(table, &mgr);
            updates_without_blocking(&mut out, entry, &mgr, o.as_ref());
            hybrid_reader(&mut out, entry, &mgr, o.as_ref());
            if nonblocking {
                refused_then_admitted(&mut out, &mgr, o.as_ref());
            }
            dump(&mut out, &mgr);
        }

        writeln!(out, "static/{entry_name}").unwrap();
        let mgr = TxnManager::new(Protocol::Static);
        let o = StaticObject::new(X, spec(), &mgr);
        static_script(&mut out, entry, nonblocking, &mgr, o.as_ref());
        dump(&mut out, &mgr);
    }
    for table in [false, true] {
        let label = if table { "table" } else { "replay" };

        writeln!(out, "dynamic/{label}/depth3").unwrap();
        let mgr = TxnManager::new(Protocol::Dynamic);
        let o = dynamic(table, &mgr);
        covered_withdrawals_at_depth_three(&mut out, &mgr, o.as_ref());
        dump(&mut out, &mgr);

        writeln!(out, "hybrid/{label}/depth3").unwrap();
        let mgr = TxnManager::new(Protocol::Hybrid);
        let o = hybrid(table, &mgr);
        covered_withdrawals_at_depth_three(&mut out, &mgr, o.as_ref());
        dump(&mut out, &mgr);
    }
    // The lock baselines, `try_invoke` only: one thread cannot drive a
    // blocking `invoke` past a lock conflict. Under locking, script A's
    // requests that conflict with another holder are refused.
    let locked: [(&str, Build); 3] = [
        ("2pl", |mgr| TwoPhaseLockedObject::new(X, spec(), mgr)),
        ("commut-lock/hand", |mgr| {
            CommutativityLockedObject::new(X, spec(), mgr, bank_commutativity)
        }),
        ("commut-lock/table", |mgr| {
            CommutativityLockedObject::with_relation(X, spec(), mgr, bank_table())
        }),
    ];
    for (label, build) in locked {
        writeln!(out, "{label}/try_invoke").unwrap();
        let mgr = TxnManager::new(Protocol::Dynamic);
        let o = build(&mgr);
        updates_without_blocking(&mut out, via_try_invoke, &mgr, o.as_ref());
        refused_then_admitted(&mut out, &mgr, o.as_ref());
        dump(&mut out, &mgr);
    }
    out
}

#[test]
fn scripted_histories_match_the_golden_file() {
    let actual = transcript();
    let golden = include_str!("golden_histories.txt");
    assert!(
        actual == golden,
        "recorded histories moved; actual transcript:\n{actual}"
    );
}
