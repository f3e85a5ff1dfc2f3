//! The shard object's sequential specification: the workspace key/value
//! map plus a blind overwrite.
//!
//! Everything the partitioned service stages must be *blind*: the
//! coordinator records (operation, result) pairs at submission, before
//! any shard has executed anything, so a staged result must be correct in
//! every state. `adjust(k,d)→ok` is blind; `put(k,v)→old` is not (its
//! result depends on the current binding). [`ShardKvSpec`] therefore
//! extends [`KvMapSpec`] with `set(k,v)→ok` — the blind overwrite — which
//! also gives the dependency graph its non-commutative edges: two `set`s
//! of the same key do not commute (last writer wins), while two `adjust`s
//! do. That contrast is exactly Weihl's data-dependent conflict relation,
//! and the recovery experiments lean on both halves of it.

use atomicity_lint::synth::map_universe;
use atomicity_spec::specs::KvMapSpec;
use atomicity_spec::{op, OpResult, Operation, SequentialSpec, Value};
use std::collections::BTreeMap;

/// [`KvMapSpec`] extended with the blind overwrite
/// `set(k,v) → ok`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardKvSpec {
    inner: KvMapSpec,
}

impl ShardKvSpec {
    /// Creates the specification with an empty initial map.
    pub fn new() -> Self {
        ShardKvSpec {
            inner: KvMapSpec::new(),
        }
    }

    /// The operation universe for conflict-table synthesis over this
    /// spec: the map universe of `atomicity-lint` plus `set` instances in
    /// the same-key / identical / distinct-key patterns the bucketing
    /// needs.
    pub fn universe() -> Vec<Operation> {
        let mut u = map_universe();
        u.push(op("set", [1, 5]));
        u.push(op("set", [1, 7]));
        u.push(op("set", [2, 9]));
        u
    }
}

impl SequentialSpec for ShardKvSpec {
    type State = BTreeMap<i64, i64>;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match op.name() {
            "set" if op.args().len() == 2 => match (op.int_arg(0), op.int_arg(1)) {
                (Some(k), Some(v)) => {
                    let mut s = state.clone();
                    s.insert(k, v);
                    vec![(Value::ok(), s)]
                }
                _ => Vec::new(),
            },
            _ => self.inner.step(state, op),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        match (op.name(), op.args().len(), op.int_arg(0), op.int_arg(1)) {
            ("set", 2, Some(k), Some(v)) => {
                let replayed = expected.is_ok_unit();
                if replayed {
                    state.insert(k, v);
                }
                Some(replayed)
            }
            _ => self.inner.apply(state, op, expected),
        }
    }

    /// A `set` is undone by the `set` of the old value, or by `remove` if
    /// the key had none; the map's operations by the map's inverses.
    fn apply_undoable(
        &self,
        state: &mut Self::State,
        op: &Operation,
        expected: &Value,
        undo: &mut Vec<OpResult>,
    ) -> Option<bool> {
        match (op.name(), op.args().len(), op.int_arg(0), op.int_arg(1)) {
            ("set", 2, Some(k), Some(v)) if expected.is_ok_unit() => {
                match state.insert(k, v) {
                    Some(old) if old == v => {}
                    Some(old) => undo.push((
                        Operation::new("set", [k, old].map(Value::from)),
                        Value::ok(),
                    )),
                    None => undo.push((Operation::new("remove", [Value::from(k)]), Value::from(v))),
                }
                Some(true)
            }
            _ => self.inner.apply_undoable(state, op, expected, undo),
        }
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        self.inner.is_read_only(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex;

    #[test]
    fn set_is_a_blind_overwrite() {
        let m = ShardKvSpec::new();
        assert!(m.accepts_serial(&[
            (op("set", [1, 5]), Value::ok()),
            (op("set", [1, 7]), Value::ok()),
            (op("get", [1]), Value::from(7)),
        ]));
        // The result is `ok` in every state — blind, hence stageable.
        assert!(!m.accepts_serial(&[(op("set", [1, 5]), Value::from(5))]));
        assert!(!m.is_read_only(&op("set", [1, 5])));
    }

    #[test]
    fn inherited_map_operations_still_work() {
        let m = ShardKvSpec::new();
        assert!(m.accepts_serial(&[
            (op("adjust", [3, 10]), Value::ok()),
            (op("sum", [] as [i64; 0]), Value::from(10)),
        ]));
        assert!(m.step(&BTreeMap::new(), &op("set", [1])).is_empty());
    }

    /// How often `apply` moved the state and how often it refused.
    static ANSWERS: Mutex<[usize; 2]> = Mutex::new([0; 2]);

    proptest! {
        /// `apply` on a state some prefix of the synthesis universe
        /// reaches, for an operation of the universe or an ill-typed one
        /// under a universe name, against a result some operation of the
        /// universe returns there, `nil`, or a symbol none returns.
        fn apply_matches_step(
            prefix in prop::collection::vec(0..64usize, 0..8),
            pick in (0..64usize, 0..64usize),
        ) {
            let spec = ShardKvSpec::new();
            let universe = ShardKvSpec::universe();
            let mut state = spec.initial();
            for which in prefix {
                let (_, next) = spec.step(&state, &universe[which % universe.len()]).remove(0);
                state = next;
            }
            let (operation, result) = pick;
            let which = operation % (2 * universe.len());
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
            let expected = &results[result % results.len()];

            let mut reached = spec.step(&state, &op);
            reached.retain(|(v, _)| v == expected);
            prop_assert!(reached.len() <= 1, "the shard specification is deterministic");
            let mut moved = state.clone();
            let answer = spec.apply(&mut moved, &op, expected);
            let (want, after) = match reached.pop() {
                Some((_, next)) => (Some(true), next),
                None => (Some(false), state.clone()),
            };
            prop_assert!(
                answer == want && moved == after,
                "apply({op} -> {expected}) on {state:?} answered {answer:?} leaving {moved:?}; \
                 step says {want:?} leaving {after:?}"
            );
            ANSWERS.lock().expect("no case panics holding it")[usize::from(answer == Some(false))] += 1;
        }
    }

    #[test]
    fn apply_gives_steps_answer_on_shard_states() {
        apply_matches_step();
        let [moved, refused] = *ANSWERS.lock().expect("no case panics holding it");
        assert!(
            moved > 0 && refused > 0,
            "{moved} moved, {refused} refused — one side untested"
        );
    }
}
