//! The counter object from the optimality proof (§4.1).

use crate::spec::{Operation, SequentialSpec};
use crate::value::Value;

/// A counter whose single operation `increment` increments the state and
/// returns the resulting value (§4.1).
///
/// Its serial sequences have the form `increment→1, increment→2, …`, which
/// makes every serial history serializable in **exactly one** order — the
/// property the paper exploits to prove dynamic atomicity optimal.
///
/// Also provides a read-only `value` operation (returning the current
/// count) used by workloads; the paper's construction only needs
/// `increment`.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::CounterSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let c = CounterSpec::new();
/// assert!(c.accepts_serial(&[
///     (op("increment", [] as [i64; 0]), Value::from(1)),
///     (op("increment", [] as [i64; 0]), Value::from(2)),
/// ]));
/// assert!(!c.accepts_serial(&[
///     (op("increment", [] as [i64; 0]), Value::from(2)),
/// ]));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSpec {
    _private: (),
}

impl CounterSpec {
    /// Creates the counter specification (initial state 0).
    pub fn new() -> Self {
        CounterSpec { _private: () }
    }
}

impl SequentialSpec for CounterSpec {
    type State = i64;

    fn initial(&self) -> Self::State {
        0
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match op.name() {
            "increment" if op.args().is_empty() => {
                vec![(Value::from(state + 1), state + 1)]
            }
            "value" if op.args().is_empty() => vec![(Value::from(*state), *state)],
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let next = match op.name() {
            "increment" if op.args().is_empty() => *state + 1,
            "value" if op.args().is_empty() => *state,
            _ => return Some(false),
        };
        // Both operations return the count they leave.
        let replayed = expected.as_int() == Some(next);
        if replayed {
            *state = next;
        }
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        op.name() == "value"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    fn inc() -> Operation {
        op("increment", [] as [i64; 0])
    }

    #[test]
    fn increments_return_running_count() {
        let c = CounterSpec::new();
        assert!(c.accepts_serial(&[
            (inc(), Value::from(1)),
            (inc(), Value::from(2)),
            (inc(), Value::from(3)),
        ]));
    }

    #[test]
    fn wrong_count_rejected() {
        let c = CounterSpec::new();
        assert!(!c.accepts_serial(&[(inc(), Value::from(1)), (inc(), Value::from(3))]));
        assert!(!c.accepts_serial(&[(inc(), Value::from(0))]));
    }

    #[test]
    fn value_is_read_only() {
        let c = CounterSpec::new();
        let val = op("value", [] as [i64; 0]);
        assert!(c.is_read_only(&val));
        assert!(!c.is_read_only(&inc()));
        assert!(c.accepts_serial(&[
            (inc(), Value::from(1)),
            (val.clone(), Value::from(1)),
            (inc(), Value::from(2)),
        ]));
        assert!(!c.accepts_serial(&[(val, Value::from(5))]));
    }

    #[test]
    fn ill_typed_operations_rejected() {
        let c = CounterSpec::new();
        assert!(c.step(&0, &op("increment", [1])).is_empty());
        assert!(c.step(&0, &op("bogus", [] as [i64; 0])).is_empty());
    }
}
