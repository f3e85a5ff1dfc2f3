//! Cross-cutting properties of the unified [`Admission`] API.
//!
//! Four guarantees the design leans on:
//!
//! 1. **Batch ≡ sequential** — [`Admission::admit_batch`] (one lock
//!    acquisition draining many requests) must admit exactly what the
//!    same requests admitted one [`Admission::admit_one`] call at a time,
//!    outcome for outcome, on every engine and baseline. Proptested over
//!    random scripts of deposits, withdrawals and balance reads spread
//!    across transactions.
//!
//! 2. **Hybrid updates ≡ dynamic** — §4.3 processes updates "exactly as
//!    under dynamic atomicity", and the two engines share one admission
//!    core to make that true by construction. For the same request
//!    sequence over every synthesized ADT they must return identical
//!    outcomes and record identical invoke/respond events — the guard
//!    against the two re-forking.
//!
//! 3. **Guarded ≡ replayed** — the bank account decides "every order of
//!    the intentions lists replays" by a guard, in one pass over them,
//!    where the dynamic engine would otherwise replay them in every
//!    order. A bank account and the same account with the guard hidden
//!    must return identical outcomes and record identical events, with
//!    the conflict table installed and without.
//!
//! 4. **Seqlock reads are invisible** — under threaded contention the
//!    hybrid mutex-free read path may only serve committed,
//!    timestamp-consistent snapshots: per-reader balances are monotone
//!    (deposit-only workload), the final history is certified by the
//!    linear certifier, and the committed balance matches the oracle.

use atomicity_bench::{synthesized_suite, Engine};
use atomicity_core::{
    Admission, AdmissionOutcome, AdmissionRequest, CommutesRel, DynamicObject, Protocol, TxnManager,
};
use atomicity_lint::synth::{
    bank_universe, escrow_universe, map_universe, queue_universe, semiqueue_universe, set_universe,
};
use atomicity_lint::{certify, Property};
use atomicity_spec::specs::{
    BankAccountSpec, EscrowCounterSpec, FifoQueueSpec, IntSetSpec, KvMapSpec, SemiqueueSpec,
};
use atomicity_spec::{
    op, Event, EventKind, ObjectId, OpResult, Operation, SequentialSpec, SystemSpec, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One scripted request: (transaction slot, operation selector, amount).
type Step = (usize, u8, i64);

const TXN_SLOTS: usize = 4;

fn operation_of(selector: u8, amount: i64) -> Operation {
    match selector {
        0 => op("deposit", [amount]),
        1 => op("withdraw", [amount]),
        _ => op("balance", [] as [i64; 0]),
    }
}

/// Replays `script` against a fresh engine instance, admitting either
/// through one `admit_batch` call or request-by-request. Transaction
/// slots map to transactions begun in a fixed order, so mirrored runs
/// see identical activity ids and (Lamport) timestamps.
fn run_script(engine: Engine, batched: bool, script: &[Step]) -> Vec<AdmissionOutcome> {
    let handle = engine.builder().build();
    let obj = handle.account(ObjectId::new(1), 10);
    let mgr = handle.manager();
    let txns: Vec<_> = (0..TXN_SLOTS).map(|_| mgr.begin()).collect();

    let requests: Vec<AdmissionRequest> = script
        .iter()
        .map(|&(t, sel, n)| AdmissionRequest::from_txn(&txns[t], operation_of(sel, n)))
        .collect();
    let mut seen = BTreeSet::new();
    for &(t, _, _) in script {
        if seen.insert(t) {
            obj.register_txn(&txns[t]);
        }
    }
    if batched {
        obj.admit_batch(&requests)
    } else {
        requests.iter().map(|r| obj.admit_one(r)).collect()
    }
}

/// One step of the hybrid-vs-dynamic mirror: (transaction slot, action,
/// operation index). Action 0 commits the slot's transaction, 1 aborts
/// it (a fresh one takes the slot), anything else requests
/// `universe[index % len]`.
type MirrorStep = (usize, u8, usize);

/// Drives `script` through `engine` (dynamic or hybrid, synthesized table
/// of `adt` installed) and returns the outcomes and the invoke/respond
/// events the object recorded.
fn mirror_run<S: SequentialSpec>(
    engine: Engine,
    adt: &str,
    spec: S,
    universe: &[Operation],
    script: &[MirrorStep],
) -> (Vec<AdmissionOutcome>, Vec<Event>) {
    let table: Arc<dyn CommutesRel> = Arc::new(
        synthesized_suite()
            .table(adt)
            .expect("every shipped ADT has a synthesized table")
            .clone(),
    );
    let handle = engine.builder().build();
    let obj = handle.make(ObjectId::new(1), spec, table);
    drive(handle.manager(), obj.as_ref(), universe, script)
}

/// Runs `script` against `obj`, whose transactions `mgr` manages, and
/// returns the outcomes and the invoke/respond events recorded.
fn drive(
    mgr: &TxnManager,
    obj: &dyn Admission,
    universe: &[Operation],
    script: &[MirrorStep],
) -> (Vec<AdmissionOutcome>, Vec<Event>) {
    let mut txns: Vec<_> = (0..TXN_SLOTS).map(|_| mgr.begin()).collect();
    let mut outcomes = Vec::new();
    for &(slot, action, index) in script {
        match action {
            0 | 1 => {
                let done = std::mem::replace(&mut txns[slot], mgr.begin());
                if action == 0 {
                    mgr.commit(done).expect("admitted intentions commit");
                } else {
                    mgr.abort(done);
                }
            }
            _ => {
                let operation = universe[index % universe.len()].clone();
                outcomes.push(obj.try_admit(&txns[slot], operation));
            }
        }
    }
    let events = mgr
        .history()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Invoke(_) | EventKind::Respond(_)))
        .cloned()
        .collect();
    (outcomes, events)
}

fn assert_hybrid_mirrors_dynamic<S: SequentialSpec + Clone>(
    adt: &str,
    spec: S,
    universe: &[Operation],
    script: &[MirrorStep],
) -> Result<(), TestCaseError> {
    let dynamic = mirror_run(Engine::Dynamic, adt, spec.clone(), universe, script);
    let hybrid = mirror_run(Engine::Hybrid, adt, spec, universe, script);
    prop_assert!(
        dynamic.0 == hybrid.0,
        "{} outcomes diverged: dynamic {:?} vs hybrid {:?}",
        adt,
        dynamic.0,
        hybrid.0
    );
    prop_assert!(
        dynamic.1 == hybrid.1,
        "{} events diverged: dynamic {:?} vs hybrid {:?}",
        adt,
        dynamic.1,
        hybrid.1
    );
    Ok(())
}

/// A specification that is `S` in every respect but one: it has no guard,
/// so the dynamic engine decides every contended admission by replaying
/// the intentions lists.
struct Unguarded<S>(S);

impl<S: SequentialSpec> SequentialSpec for Unguarded<S> {
    type State = S::State;

    fn initial(&self) -> S::State {
        self.0.initial()
    }

    fn step(&self, state: &S::State, op: &Operation) -> Vec<(Value, S::State)> {
        self.0.step(state, op)
    }

    fn apply(&self, state: &mut S::State, op: &Operation, expected: &Value) -> Option<bool> {
        self.0.apply(state, op, expected)
    }

    fn apply_undoable(
        &self,
        state: &mut S::State,
        op: &Operation,
        expected: &Value,
        undo: &mut Vec<OpResult>,
    ) -> Option<bool> {
        self.0.apply_undoable(state, op, expected, undo)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        self.0.is_read_only(op)
    }
}

/// Drives `script` through a dynamic bank account over `spec`, with the
/// synthesized bank table installed or with none.
fn bank_run<S: SequentialSpec<State = i64>>(
    spec: S,
    table: bool,
    script: &[MirrorStep],
) -> (Vec<AdmissionOutcome>, Vec<Event>) {
    let mgr = TxnManager::new(Protocol::Dynamic);
    let id = ObjectId::new(1);
    let obj = if table {
        let table: Arc<dyn CommutesRel> = Arc::new(
            synthesized_suite()
                .table("bank")
                .expect("the bank has a synthesized table")
                .clone(),
        );
        DynamicObject::with_relation(id, spec, &mgr, table)
    } else {
        DynamicObject::new(id, spec, &mgr)
    };
    drive(&mgr, obj.as_ref(), &bank_universe(), script)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `admit_batch` admits exactly the same set — same outcomes, same
    /// values, same blockers — as sequential `admit_one`, on every
    /// engine and baseline.
    #[test]
    fn batch_admission_equals_sequential(
        script in prop::collection::vec((0..TXN_SLOTS, 0u8..3, 1i64..16), 1..24)
    ) {
        for engine in Engine::ALL {
            let batch = run_script(engine, true, &script);
            let sequential = run_script(engine, false, &script);
            prop_assert!(
                batch == sequential,
                "engine {} diverged: batch {:?} vs sequential {:?}",
                engine,
                batch,
                sequential
            );
        }
    }

    /// Update admission under the hybrid engine is update admission under
    /// the dynamic engine: same outcomes (values and blockers), same
    /// invoke/respond events, for every synthesized ADT.
    #[test]
    fn hybrid_update_admission_equals_dynamic(
        script in prop::collection::vec((0..TXN_SLOTS, 0u8..8, 0usize..16), 1..32)
    ) {
        assert_hybrid_mirrors_dynamic(
            "bank", BankAccountSpec::with_initial(10), &bank_universe(), &script)?;
        assert_hybrid_mirrors_dynamic("queue", FifoQueueSpec::new(), &queue_universe(), &script)?;
        assert_hybrid_mirrors_dynamic("set", IntSetSpec::new(), &set_universe(), &script)?;
        assert_hybrid_mirrors_dynamic(
            "semiqueue", SemiqueueSpec::new(), &semiqueue_universe(), &script)?;
        assert_hybrid_mirrors_dynamic(
            "map", KvMapSpec::with_initial([(1, 5)]), &map_universe(), &script)?;
        assert_hybrid_mirrors_dynamic(
            "escrow", EscrowCounterSpec::with_initial(6), &escrow_universe(), &script)?;
    }

    /// The bank account's guard admits what the subset programme admits:
    /// a dynamic account and the same account without its guard return
    /// identical outcomes and record identical invoke/respond events, with
    /// the synthesized table installed and without.
    #[test]
    fn bank_guard_admission_equals_replay(
        script in prop::collection::vec((0..TXN_SLOTS, 0u8..8, 0usize..16), 1..32)
    ) {
        for table in [true, false] {
            let guarded = bank_run(BankAccountSpec::with_initial(10), table, &script);
            let replayed = bank_run(Unguarded(BankAccountSpec::with_initial(10)), table, &script);
            prop_assert!(
                guarded == replayed,
                "table {}: guarded {:?} vs replayed {:?}",
                table,
                guarded,
                replayed
            );
        }
    }
}

/// Threaded stress on the hybrid mutex-free read path: concurrent
/// deposit writers against seqlock readers. Readers must never observe a
/// torn or regressing snapshot, the history must certify, and the
/// committed balance must equal the committed deposits.
#[test]
fn seqlock_reads_stay_consistent_under_threaded_stress() {
    const WRITERS: usize = 4;
    const TXNS_PER_WRITER: usize = 40;
    const OPS_PER_TXN: usize = 2;
    const READERS: usize = 3;
    const READS_PER_READER: usize = 150;

    let handle = Engine::Hybrid.builder().build();
    let obj = handle.account(ObjectId::new(1), 0);
    let mgr = handle.manager().clone();

    let mut threads = Vec::new();
    for _ in 0..WRITERS {
        let mgr = mgr.clone();
        let obj = Arc::clone(&obj);
        threads.push(std::thread::spawn(move || {
            let mut committed = 0u64;
            for _ in 0..TXNS_PER_WRITER {
                let txn = mgr.begin();
                let ok = (0..OPS_PER_TXN).all(|_| obj.invoke(&txn, op("deposit", [1])).is_ok());
                if ok && mgr.commit(txn).is_ok() {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let max_balance = (WRITERS * TXNS_PER_WRITER * OPS_PER_TXN) as i64;
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let mgr = mgr.clone();
        let obj = Arc::clone(&obj);
        readers.push(std::thread::spawn(move || {
            let mut last = 0i64;
            for _ in 0..READS_PER_READER {
                let txn = mgr.begin_read_only();
                let v = obj
                    .read_at(&txn, op("balance", [] as [i64; 0]))
                    .expect("read-only balance");
                mgr.commit(txn).expect("read-only commit");
                let balance = v.as_int().expect("balance is an integer");
                assert!(
                    (last..=max_balance).contains(&balance),
                    "seqlock read regressed or tore: {balance} after {last}"
                );
                last = balance;
            }
        }));
    }
    let committed: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("writer panicked"))
        .sum();
    for r in readers {
        r.join().expect("reader panicked");
    }
    assert_eq!(committed, (WRITERS * TXNS_PER_WRITER) as u64);

    // The mutex-free path actually engaged, and stayed invisible: the
    // history certifies and the balance matches the oracle.
    assert!(obj.metrics().stats().fast_admissions > 0);
    let spec = SystemSpec::new().with_object(ObjectId::new(1), BankAccountSpec::new());
    let cert = certify(Property::Hybrid, &mgr.history(), &spec);
    assert!(cert.is_certified(), "{cert}");
    let probe = mgr.begin();
    let balance = obj
        .invoke(&probe, op("balance", [] as [i64; 0]))
        .expect("final balance");
    mgr.commit(probe).expect("probe commit");
    assert_eq!(balance, Value::from(committed as i64 * OPS_PER_TXN as i64));
}
