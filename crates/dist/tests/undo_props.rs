//! Property tests of the specifications that name inverses
//! (`SequentialSpec::apply_undoable`): the key/value map, the integer set
//! and the shard map, each over its conflict-synthesis universe.
//!
//! - Applying an operation and then its inverses, in reverse, gives back
//!   the state it started from; a refused operation leaves no inverse.
//! - `replay_into` on a one-state frontier, which moves the state in place
//!   and rolls it back on a refusal, leaves the frontier exactly as it was
//!   for a list refused at any position, and agrees with `replay_frontier`
//!   on a list that replays.

use atomicity_dist::ShardKvSpec;
use atomicity_lint::synth::{map_universe, set_universe};
use atomicity_spec::specs::{IntSetSpec, KvMapSpec};
use atomicity_spec::{replay_frontier, replay_into, OpResult, Operation, SequentialSpec, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The state a walk through `universe` reaches: each pick applies one
/// universe operation with the one result the specification gives.
fn walk<S: SequentialSpec>(spec: &S, universe: &[Operation], picks: &[usize]) -> S::State {
    let mut state = spec.initial();
    for &which in picks {
        if let Some((_, next)) = spec.step(&state, &universe[which % universe.len()]).pop() {
            state = next;
        }
    }
    state
}

/// Runs `property` on each overriding specification with its universe.
fn every_undoable_spec(
    property: &impl Fn(&'static str, &dyn Check) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    property("map", &(KvMapSpec::new(), map_universe()))?;
    property("set", &(IntSetSpec::new(), set_universe()))?;
    property("shard", &(ShardKvSpec::new(), ShardKvSpec::universe()))
}

/// The two properties, over one specification and its universe.
trait Check {
    fn undo_restores(&self, name: &'static str, case: &UndoCase) -> Result<(), TestCaseError>;
    fn refusal_rolls_back(&self, name: &str, case: &ListCase) -> Result<(), TestCaseError>;
}

/// A state (by its walk), an operation of the universe or an ill-typed
/// one under a universe name, and a result: one some universe operation
/// returns in that state, `nil`, or a symbol none returns.
struct UndoCase {
    walk: Vec<usize>,
    operation: usize,
    result: usize,
}

/// A state (by its walk) and a list of universe operations, each with the
/// result it returns there.
struct ListCase {
    walk: Vec<usize>,
    list: Vec<usize>,
}

/// Per specification: operations applied, and operations refused.
static UNDONE: Mutex<BTreeMap<&str, [usize; 2]>> = Mutex::new(BTreeMap::new());

impl<S: SequentialSpec> Check for (S, Vec<Operation>) {
    fn undo_restores(&self, name: &'static str, case: &UndoCase) -> Result<(), TestCaseError> {
        let (spec, universe) = self;
        let state = walk(spec, universe, &case.walk);
        let which = case.operation % (2 * universe.len());
        let op = match universe.get(which) {
            Some(op) => op.clone(),
            None => Operation::new(universe[which - universe.len()].name(), [Value::sym("x")]),
        };
        let mut results: Vec<Value> = universe
            .iter()
            .flat_map(|o| spec.step(&state, o))
            .map(|(v, _)| v)
            .collect();
        results.extend([Value::Nil, Value::sym("wrong")]);
        let expected = &results[case.result % results.len()];

        let mut applied = state.clone();
        let want = spec.apply(&mut applied, &op, expected);
        let mut moved = state.clone();
        let mut undo = Vec::new();
        let answer = spec.apply_undoable(&mut moved, &op, expected, &mut undo);
        prop_assert!(
            answer == want && moved == applied,
            "{name}: apply_undoable({op} -> {expected}) on {state:?} answered {answer:?} \
             leaving {moved:?}; apply says {want:?} leaving {applied:?}"
        );
        if answer != Some(true) {
            prop_assert!(
                undo.is_empty(),
                "{name}: {op} was refused but left {undo:?}"
            );
        }
        for (inverse, result) in undo.iter().rev() {
            prop_assert_eq!(spec.apply(&mut moved, inverse, result), Some(true));
        }
        prop_assert!(
            moved == state,
            "{name}: undoing {op} -> {expected} by {undo:?} left {moved:?}, not {state:?}"
        );
        UNDONE
            .lock()
            .expect("no case panics holding it")
            .entry(name)
            .or_default()[usize::from(answer != Some(true))] += 1;
        Ok(())
    }

    fn refusal_rolls_back(&self, name: &str, case: &ListCase) -> Result<(), TestCaseError> {
        let (spec, universe) = self;
        let state = walk(spec, universe, &case.walk);
        let mut now = state.clone();
        let mut list: Vec<OpResult> = Vec::new();
        for &which in &case.list {
            let op = universe[which % universe.len()].clone();
            let (result, next) = spec.step(&now, &op).pop().expect("universe ops are total");
            list.push((op, result));
            now = next;
        }
        let mut frontier = vec![state.clone()];
        prop_assert!(replay_into(spec, &mut frontier, &list));
        prop_assert_eq!(
            &frontier,
            &replay_frontier(spec, std::slice::from_ref(&state), &list)
        );
        for i in 0..list.len() {
            let mut refused = list.clone();
            refused[i].1 = Value::sym("wrong");
            let mut frontier = vec![state.clone()];
            prop_assert!(!replay_into(spec, &mut frontier, &refused));
            prop_assert!(
                frontier == [state.clone()],
                "{name}: a list refused at {i} of {} left {frontier:?}, not {state:?}",
                list.len()
            );
        }
        Ok(())
    }
}

proptest! {
    fn inverses_restore_the_state(
        walk in prop::collection::vec(0..64usize, 0..8),
        operation in 0..64usize,
        result in 0..64usize,
    ) {
        let case = UndoCase { walk, operation, result };
        every_undoable_spec(&|name, spec| spec.undo_restores(name, &case))?;
    }

    #[test]
    fn a_refused_list_leaves_the_frontier_as_it_was(
        walk in prop::collection::vec(0..64usize, 0..8),
        list in prop::collection::vec(0..64usize, 1..7),
    ) {
        let case = ListCase { walk, list };
        every_undoable_spec(&|name, spec| spec.refusal_rolls_back(name, &case))?;
    }
}

#[test]
fn apply_then_undo_returns_the_original_state() {
    inverses_restore_the_state();
    let undone = UNDONE.lock().expect("no case panics holding it");
    assert_eq!(undone.len(), 3);
    for (name, [applied, refused]) in undone.iter() {
        assert!(
            *applied > 0 && *refused > 0,
            "{name}: {applied} applied, {refused} refused — one side untested"
        );
    }
}
