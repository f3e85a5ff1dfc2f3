//! A plain read/write register.

use crate::spec::{Operation, SequentialSpec};
use crate::value::Value;

/// A single-cell read/write register: `write(v)→ok`, `read→v`.
///
/// The degenerate abstract type on which every type-specific protocol in
/// this repository collapses to its classical read/write ancestor: the
/// dynamic engine behaves like strict two-phase locking, the static engine
/// like Reed's multi-version scheme. Used by the baselines and by tests
/// that compare against the literature's read/write model.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::RegisterSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let r = RegisterSpec::new();
/// assert!(r.accepts_serial(&[
///     (op("write", [7]), Value::ok()),
///     (op("read", [] as [i64; 0]), Value::from(7)),
/// ]));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegisterSpec {
    initial: i64,
}

impl RegisterSpec {
    /// Creates the specification with initial value 0.
    pub fn new() -> Self {
        RegisterSpec { initial: 0 }
    }

    /// Creates the specification with a given initial value.
    pub fn with_initial(value: i64) -> Self {
        RegisterSpec { initial: value }
    }
}

impl SequentialSpec for RegisterSpec {
    type State = i64;

    fn initial(&self) -> Self::State {
        self.initial
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match (op.name(), op.int_arg(0)) {
            ("write", Some(v)) if op.args().len() == 1 => vec![(Value::ok(), v)],
            ("read", None) if op.args().is_empty() => vec![(Value::from(*state), *state)],
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let (replayed, next) = match (op.name(), op.int_arg(0)) {
            ("write", Some(v)) if op.args().len() == 1 => (expected.is_ok_unit(), v),
            ("read", None) if op.args().is_empty() => (expected.as_int() == Some(*state), *state),
            _ => (false, *state),
        };
        if replayed {
            *state = next;
        }
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        op.name() == "read"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    #[test]
    fn reads_see_last_write() {
        let r = RegisterSpec::new();
        assert!(r.accepts_serial(&[
            (op("read", [] as [i64; 0]), Value::from(0)),
            (op("write", [3]), Value::ok()),
            (op("write", [5]), Value::ok()),
            (op("read", [] as [i64; 0]), Value::from(5)),
        ]));
        assert!(!r.accepts_serial(&[
            (op("write", [3]), Value::ok()),
            (op("read", [] as [i64; 0]), Value::from(4)),
        ]));
    }

    #[test]
    fn initial_value_respected() {
        let r = RegisterSpec::with_initial(42);
        assert!(r.accepts_serial(&[(op("read", [] as [i64; 0]), Value::from(42))]));
    }

    #[test]
    fn read_only_classification() {
        let r = RegisterSpec::new();
        assert!(r.is_read_only(&op("read", [] as [i64; 0])));
        assert!(!r.is_read_only(&op("write", [1])));
    }

    #[test]
    fn ill_typed_rejected() {
        let r = RegisterSpec::new();
        assert!(r.step(&0, &op("write", [] as [i64; 0])).is_empty());
        assert!(r.step(&0, &op("read", [1])).is_empty());
    }
}
