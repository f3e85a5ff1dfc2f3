//! The integer-set object of §2–§3.

use super::update_if;
use crate::spec::{OpResult, Operation, SequentialSpec};
use crate::value::Value;
use std::collections::BTreeSet;

/// A set of integers with `insert(i)→ok`, `delete(i)→ok`, `member(i)→bool`,
/// and a read-only `size→int` (§2).
///
/// `insert` of a present element and `delete` of an absent element are
/// permitted and return `ok` (idempotent semantics), matching the paper's
/// examples where `insert(3)` always terminates with `ok`.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::IntSetSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let s = IntSetSpec::new();
/// assert!(s.accepts_serial(&[
///     (op("insert", [3]), Value::ok()),
///     (op("member", [3]), Value::from(true)),
///     (op("delete", [3]), Value::ok()),
///     (op("member", [3]), Value::from(false)),
/// ]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntSetSpec {
    initial: BTreeSet<i64>,
}

impl IntSetSpec {
    /// Creates the specification with the empty set as initial state.
    pub fn new() -> Self {
        IntSetSpec {
            initial: BTreeSet::new(),
        }
    }

    /// Creates the specification with a given initial membership.
    pub fn with_initial(elements: impl IntoIterator<Item = i64>) -> Self {
        IntSetSpec {
            initial: elements.into_iter().collect(),
        }
    }
}

impl SequentialSpec for IntSetSpec {
    type State = BTreeSet<i64>;

    fn initial(&self) -> Self::State {
        self.initial.clone()
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match (op.name(), op.int_arg(0)) {
            ("insert", Some(i)) if op.args().len() == 1 => {
                let mut s = state.clone();
                s.insert(i);
                vec![(Value::ok(), s)]
            }
            ("delete", Some(i)) if op.args().len() == 1 => {
                let mut s = state.clone();
                s.remove(&i);
                vec![(Value::ok(), s)]
            }
            ("member", Some(i)) if op.args().len() == 1 => {
                vec![(Value::from(state.contains(&i)), state.clone())]
            }
            ("size", None) if op.args().is_empty() => {
                vec![(Value::from(state.len() as i64), state.clone())]
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let replayed = match (op.name(), op.int_arg(0)) {
            ("insert", Some(i)) if op.args().len() == 1 => update_if(expected.is_ok_unit(), || {
                state.insert(i);
            }),
            ("delete", Some(i)) if op.args().len() == 1 => update_if(expected.is_ok_unit(), || {
                state.remove(&i);
            }),
            ("member", Some(i)) if op.args().len() == 1 => {
                expected.as_bool() == Some(state.contains(&i))
            }
            ("size", None) if op.args().is_empty() => expected.as_int() == Some(state.len() as i64),
            _ => false,
        };
        Some(replayed)
    }

    /// The inverse of an `insert` that added the element is its `delete`,
    /// and the other way round; one that found the set as it left it has
    /// none.
    fn apply_undoable(
        &self,
        state: &mut Self::State,
        op: &Operation,
        expected: &Value,
        undo: &mut Vec<OpResult>,
    ) -> Option<bool> {
        let inverse = match (op.name(), op.int_arg(0)) {
            ("insert", Some(i)) if !state.contains(&i) => Some(("delete", i)),
            ("delete", Some(i)) if state.contains(&i) => Some(("insert", i)),
            _ => None,
        };
        let replayed = self.apply(state, op, expected)?;
        if let (true, Some((name, i))) = (replayed, inverse) {
            undo.push((crate::spec::op(name, [i]), Value::ok()));
        }
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        matches!(op.name(), "member" | "size")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    #[test]
    fn paper_serial_sequence_accepted() {
        // §3: insert(3) then member(3)→true is acceptable serially.
        let s = IntSetSpec::new();
        assert!(s.accepts_serial(&[
            (op("insert", [3]), Value::ok()),
            (op("member", [3]), Value::from(true)),
        ]));
    }

    #[test]
    fn paper_unacceptable_sequence_rejected() {
        // §3: member(2)→true on the initially-empty set is not acceptable.
        let s = IntSetSpec::new();
        assert!(!s.accepts_serial(&[(op("member", [2]), Value::from(true))]));
    }

    #[test]
    fn delete_removes_membership() {
        let s = IntSetSpec::new();
        assert!(s.accepts_serial(&[
            (op("insert", [3]), Value::ok()),
            (op("delete", [3]), Value::ok()),
            (op("member", [3]), Value::from(false)),
        ]));
        assert!(!s.accepts_serial(&[
            (op("insert", [3]), Value::ok()),
            (op("delete", [3]), Value::ok()),
            (op("member", [3]), Value::from(true)),
        ]));
    }

    #[test]
    fn idempotent_mutators() {
        let s = IntSetSpec::new();
        assert!(s.accepts_serial(&[
            (op("insert", [1]), Value::ok()),
            (op("insert", [1]), Value::ok()),
            (op("delete", [9]), Value::ok()),
            (op("size", [] as [i64; 0]), Value::from(1)),
        ]));
    }

    #[test]
    fn initial_membership_respected() {
        let s = IntSetSpec::with_initial([7, 8]);
        assert!(s.accepts_serial(&[(op("member", [7]), Value::from(true))]));
        assert!(s.accepts_serial(&[(op("size", [] as [i64; 0]), Value::from(2))]));
    }

    #[test]
    fn read_only_classification() {
        let s = IntSetSpec::new();
        assert!(s.is_read_only(&op("member", [1])));
        assert!(s.is_read_only(&op("size", [] as [i64; 0])));
        assert!(!s.is_read_only(&op("insert", [1])));
        assert!(!s.is_read_only(&op("delete", [1])));
    }

    #[test]
    fn ill_typed_rejected() {
        let s = IntSetSpec::new();
        assert!(s
            .step(&BTreeSet::new(), &op("insert", [] as [i64; 0]))
            .is_empty());
        assert!(s.step(&BTreeSet::new(), &op("insert", [1, 2])).is_empty());
        assert!(s
            .step(&BTreeSet::new(), &op("member", [Value::from(true)]))
            .is_empty());
    }
}
