//! A bounded buffer: capacity-limited, weakly ordered.

use super::update_if;
use crate::spec::{Operation, SequentialSpec};
use crate::value::Value;
use std::collections::BTreeMap;

/// A bounded, weakly ordered buffer of integers.
///
/// `put(i)` stores an element and returns `ok`, or returns `full`
/// (leaving the buffer unchanged) when the buffer already holds
/// `capacity` elements; `take` removes and returns **some** element
/// (non-deterministic, like the semiqueue), or `nil` when empty;
/// `count` is read-only.
///
/// The bounded buffer is the producer-side mirror of the §5.1 bank
/// account: two `put`s commute exactly when there is room for both, and
/// two `take`s commute exactly when there are two elements to take — a
/// state-dependent fact invisible to commutativity tables.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::BoundedBufferSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let b = BoundedBufferSpec::with_capacity(1);
/// assert!(b.accepts_serial(&[
///     (op("put", [7]), Value::ok()),
///     (op("put", [8]), Value::sym("full")),
///     (op("take", [] as [i64; 0]), Value::from(7)),
/// ]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedBufferSpec {
    capacity: u32,
}

impl BoundedBufferSpec {
    /// Creates the specification with the given capacity.
    pub fn with_capacity(capacity: u32) -> Self {
        BoundedBufferSpec { capacity }
    }

    /// The buffer's capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The result symbol for a rejected `put`.
    pub fn full() -> Value {
        Value::sym(FULL)
    }
}

const FULL: &str = "full";

impl Default for BoundedBufferSpec {
    fn default() -> Self {
        BoundedBufferSpec { capacity: 8 }
    }
}

/// Multiset state: element → multiplicity, no zero entries.
pub type BufferState = BTreeMap<i64, u32>;

fn size(state: &BufferState) -> u32 {
    state.values().sum()
}

impl SequentialSpec for BoundedBufferSpec {
    type State = BufferState;

    fn initial(&self) -> Self::State {
        BufferState::new()
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match op.name() {
            "put" if op.args().len() == 1 => match op.int_arg(0) {
                Some(i) => {
                    if size(state) >= self.capacity {
                        vec![(Self::full(), state.clone())]
                    } else {
                        let mut s = state.clone();
                        *s.entry(i).or_insert(0) += 1;
                        vec![(Value::ok(), s)]
                    }
                }
                None => Vec::new(),
            },
            "take" if op.args().is_empty() => {
                if state.is_empty() {
                    return vec![(Value::Nil, state.clone())];
                }
                state
                    .keys()
                    .map(|&i| {
                        let mut s = state.clone();
                        match s.get_mut(&i) {
                            Some(n) if *n > 1 => *n -= 1,
                            _ => {
                                s.remove(&i);
                            }
                        }
                        (Value::from(i), s)
                    })
                    .collect()
            }
            "count" if op.args().is_empty() => {
                vec![(Value::from(i64::from(size(state))), state.clone())]
            }
            _ => Vec::new(),
        }
    }

    /// `take` has one outcome per present element, but each returns its
    /// own element, so the recorded result picks at most one of them.
    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let replayed = match (op.name(), op.args().len()) {
            ("put", 1) => match op.int_arg(0) {
                Some(_) if size(state) >= self.capacity => expected.is_sym(FULL),
                Some(i) => update_if(expected.is_ok_unit(), || {
                    *state.entry(i).or_insert(0) += 1;
                }),
                None => false,
            },
            ("take", 0) => match expected {
                Value::Nil => state.is_empty(),
                Value::Int(i) => match state.get_mut(i) {
                    Some(n) if *n > 1 => {
                        *n -= 1;
                        true
                    }
                    Some(_) => {
                        state.remove(i);
                        true
                    }
                    None => false,
                },
                _ => false,
            },
            ("count", 0) => expected.as_int() == Some(i64::from(size(state))),
            _ => false,
        };
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        op.name() == "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    fn take() -> Operation {
        op("take", [] as [i64; 0])
    }

    #[test]
    fn capacity_is_enforced() {
        let b = BoundedBufferSpec::with_capacity(2);
        assert!(b.accepts_serial(&[
            (op("put", [1]), Value::ok()),
            (op("put", [2]), Value::ok()),
            (op("put", [3]), BoundedBufferSpec::full()),
            (op("count", [] as [i64; 0]), Value::from(2)),
        ]));
        // Claiming ok on a full buffer is rejected.
        assert!(!b.accepts_serial(&[
            (op("put", [1]), Value::ok()),
            (op("put", [2]), Value::ok()),
            (op("put", [3]), Value::ok()),
        ]));
    }

    #[test]
    fn take_is_nondeterministic() {
        let b = BoundedBufferSpec::default();
        for want in [1i64, 2] {
            assert!(b.accepts_serial(&[
                (op("put", [1]), Value::ok()),
                (op("put", [2]), Value::ok()),
                (take(), Value::from(want)),
            ]));
        }
        assert!(b.accepts_serial(&[(take(), Value::Nil)]));
    }

    #[test]
    fn freeing_space_reenables_puts() {
        let b = BoundedBufferSpec::with_capacity(1);
        assert!(b.accepts_serial(&[
            (op("put", [1]), Value::ok()),
            (take(), Value::from(1)),
            (op("put", [2]), Value::ok()),
        ]));
    }

    #[test]
    fn order_dependence_of_put_and_take_near_capacity() {
        // With one free slot, put-then-put differs by order from
        // put-then-take-then-put — the state dependence the engines
        // exploit.
        let b = BoundedBufferSpec::with_capacity(1);
        assert!(b.accepts_serial(&[(take(), Value::Nil), (op("put", [1]), Value::ok()),]));
        assert!(!b.accepts_serial(&[(op("put", [1]), Value::ok()), (op("put", [2]), Value::ok()),]));
    }

    #[test]
    fn read_only_classification() {
        let b = BoundedBufferSpec::default();
        assert!(b.is_read_only(&op("count", [] as [i64; 0])));
        assert!(!b.is_read_only(&op("put", [1])));
        assert!(!b.is_read_only(&take()));
    }

    #[test]
    fn ill_typed_rejected() {
        let b = BoundedBufferSpec::default();
        assert!(b
            .step(&BufferState::new(), &op("put", [] as [i64; 0]))
            .is_empty());
        assert!(b.step(&BufferState::new(), &op("take", [1])).is_empty());
    }
}
