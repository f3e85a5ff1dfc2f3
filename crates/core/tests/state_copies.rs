//! How many times replaying a frontier copies the state. A specification
//! whose `step` copies the state before changing it — as every map-shaped
//! one does — pays O(state) per copy, so these counts are what keeps a
//! committed or recovered key/value map from being copied per operation,
//! or, when the specification names inverses, at all.

use atomicity_core::engine::{replay_frontier, replay_into};
use atomicity_core::recovery::{IntentionsStore, StableLog};
use atomicity_spec::{op, ActivityId, ObjectId, OpResult, Operation, SequentialSpec, Value};
use std::cell::Cell;

thread_local! {
    /// Clones of [`Copied`] made on this thread (a test runs on one).
    static COPIES: Cell<usize> = const { Cell::new(0) };
}

/// A balance that counts its clones.
#[derive(Debug, PartialEq)]
struct Copied(i64);

impl Clone for Copied {
    fn clone(&self) -> Self {
        COPIES.with(|c| c.set(c.get() + 1));
        Copied(self.0)
    }
}

/// Deposits into a [`Copied`] balance: `step` copies the state and changes
/// the copy, `apply` changes the state in place, and `apply_undoable` does
/// so leaving the opposite deposit as the inverse.
struct Deposits;

impl SequentialSpec for Deposits {
    type State = Copied;

    fn initial(&self) -> Copied {
        Copied(0)
    }

    fn step(&self, state: &Copied, op: &Operation) -> Vec<(Value, Copied)> {
        match (op.name(), op.int_arg(0)) {
            ("deposit", Some(n)) => {
                let mut next = state.clone();
                next.0 += n;
                vec![(Value::ok(), next)]
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Copied, op: &Operation, expected: &Value) -> Option<bool> {
        match (op.name(), op.int_arg(0)) {
            ("deposit", Some(n)) if expected.is_ok_unit() => {
                state.0 += n;
                Some(true)
            }
            _ => Some(false),
        }
    }

    fn apply_undoable(
        &self,
        state: &mut Copied,
        op: &Operation,
        expected: &Value,
        undo: &mut Vec<OpResult>,
    ) -> Option<bool> {
        let replayed = self.apply(state, op, expected)?;
        if replayed {
            let n = op
                .int_arg(0)
                .expect("a deposit that replayed has an amount");
            undo.push((atomicity_spec::op("deposit", [-n]), Value::ok()));
        }
        Some(replayed)
    }
}

/// [`Deposits`] without inverses: `apply_undoable` keeps its default.
struct CopyingDeposits;

impl SequentialSpec for CopyingDeposits {
    type State = Copied;

    fn initial(&self) -> Copied {
        Deposits.initial()
    }

    fn step(&self, state: &Copied, op: &Operation) -> Vec<(Value, Copied)> {
        Deposits.step(state, op)
    }

    fn apply(&self, state: &mut Copied, op: &Operation, expected: &Value) -> Option<bool> {
        Deposits.apply(state, op, expected)
    }
}

/// Deposits of 1, 2, …, `k`.
fn deposits(k: i64) -> Vec<OpResult> {
    (1..=k).map(|n| (op("deposit", [n]), Value::ok())).collect()
}

/// The clones `f` makes.
fn copies(f: impl FnOnce()) -> usize {
    let before = COPIES.with(Cell::get);
    f();
    COPIES.with(Cell::get) - before
}

#[test]
fn committing_one_operation_copies_no_state() {
    let store = IntentionsStore::new(CopyingDeposits, ObjectId::new(1), StableLog::new());
    let txn = ActivityId::new(1);
    store.prepare(txn, deposits(1));
    assert_eq!(copies(|| store.commit(txn)), 0);
    assert_eq!(store.committed_frontier(), vec![Copied(1)]);
}

#[test]
fn committing_a_list_copies_no_state_given_inverses() {
    for k in [2, 8] {
        let store = IntentionsStore::new(Deposits, ObjectId::new(1), StableLog::new());
        let txn = ActivityId::new(1);
        store.prepare(txn, deposits(k));
        assert_eq!(copies(|| store.commit(txn)), 0, "a list of {k}");
        assert_eq!(store.committed_frontier(), vec![Copied((1..=k).sum())]);
    }
}

/// The clones a recovery of `n` commits of `k` deposits each makes.
fn recovery_copies<S: SequentialSpec<State = Copied>>(spec: S, n: u32, k: i64) -> usize {
    let store = IntentionsStore::new(spec, ObjectId::new(1), StableLog::new());
    for t in 1..=n {
        store.prepare(ActivityId::new(t), deposits(k));
        store.commit(ActivityId::new(t));
    }
    store.crash();
    let made = copies(|| {
        store.recover();
    });
    let per_commit: i64 = (1..=k).sum();
    assert_eq!(
        store.committed_frontier(),
        vec![Copied(i64::from(n) * per_commit)]
    );
    made
}

#[test]
fn recovery_copies_once_per_longer_commit_and_never_for_one_operation() {
    const N: u32 = 40;
    for (k, want) in [(1, 0), (2, N as usize)] {
        assert_eq!(
            recovery_copies(CopyingDeposits, N, k),
            want,
            "{N} commits of {k} operations"
        );
    }
}

#[test]
fn recovery_copies_no_state_given_inverses() {
    const N: u32 = 40;
    for k in [1, 2, 8] {
        assert_eq!(
            recovery_copies(Deposits, N, k),
            0,
            "{N} commits of {k} operations"
        );
    }
}

#[test]
fn a_refused_list_is_rolled_back_without_a_copy() {
    let mut frontier = vec![Copied(5)];
    let mut list = deposits(3);
    list.push((op("withdraw", [1]), Value::ok()));
    let mut replayed = true;
    assert_eq!(
        copies(|| replayed = replay_into(&Deposits, &mut frontier, &list)),
        0
    );
    assert!(!replayed);
    assert_eq!(frontier, vec![Copied(5)]);
}

#[test]
fn replaying_a_list_from_one_state_copies_it_once() {
    for k in [1, 2, 8] {
        let list = deposits(k);
        let mut after = Vec::new();
        assert_eq!(
            copies(|| after = replay_frontier(&Deposits, &[Copied(0)], &list)),
            1,
            "a list of {k}"
        );
        assert_eq!(after, vec![Copied((1..=k).sum())]);
    }
}
