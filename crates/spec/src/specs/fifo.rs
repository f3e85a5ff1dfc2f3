//! The first-in-first-out queue of §5.1.

use super::update_if;
use crate::spec::{Operation, SequentialSpec};
use crate::value::Value;
use std::collections::VecDeque;

/// A FIFO queue of integers: `enqueue(i)→ok` appends at the back,
/// `dequeue→i` removes from the front (§5.1); `dequeue` on an empty queue
/// returns `nil`. A read-only `front` peeks without removing, and `len`
/// reports the size.
///
/// This is the object of the paper's scheduler-model counterexample:
/// `enqueue(1)` does not commute with `enqueue(2)`, yet dynamic atomicity
/// admits interleaved enqueues by concurrent activities.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::FifoQueueSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let q = FifoQueueSpec::new();
/// assert!(q.accepts_serial(&[
///     (op("enqueue", [1]), Value::ok()),
///     (op("enqueue", [2]), Value::ok()),
///     (op("dequeue", [] as [i64; 0]), Value::from(1)),
///     (op("dequeue", [] as [i64; 0]), Value::from(2)),
/// ]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FifoQueueSpec {
    _private: (),
}

impl FifoQueueSpec {
    /// Creates the specification (initially empty queue).
    pub fn new() -> Self {
        FifoQueueSpec { _private: () }
    }
}

impl SequentialSpec for FifoQueueSpec {
    type State = VecDeque<i64>;

    fn initial(&self) -> Self::State {
        VecDeque::new()
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match op.name() {
            "enqueue" if op.args().len() == 1 => match op.int_arg(0) {
                Some(i) => {
                    let mut s = state.clone();
                    s.push_back(i);
                    vec![(Value::ok(), s)]
                }
                None => Vec::new(),
            },
            "dequeue" if op.args().is_empty() => {
                let mut s = state.clone();
                match s.pop_front() {
                    Some(i) => vec![(Value::from(i), s)],
                    None => vec![(Value::Nil, s)],
                }
            }
            "front" if op.args().is_empty() => vec![(front(state), state.clone())],
            "len" if op.args().is_empty() => {
                vec![(Value::from(state.len() as i64), state.clone())]
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let replayed = match (op.name(), op.args().len()) {
            ("enqueue", 1) => match op.int_arg(0) {
                Some(i) => update_if(expected.is_ok_unit(), || state.push_back(i)),
                None => false,
            },
            ("dequeue", 0) => update_if(front(state) == *expected, || {
                state.pop_front();
            }),
            ("front", 0) => front(state) == *expected,
            ("len", 0) => expected.as_int() == Some(state.len() as i64),
            _ => false,
        };
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        matches!(op.name(), "front" | "len")
    }
}

/// The element at the front, `nil` on an empty queue.
fn front(state: &VecDeque<i64>) -> Value {
    state.front().map(|&i| Value::from(i)).unwrap_or(Value::Nil)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    fn deq() -> Operation {
        op("dequeue", [] as [i64; 0])
    }

    #[test]
    fn fifo_order_enforced() {
        let q = FifoQueueSpec::new();
        assert!(q.accepts_serial(&[
            (op("enqueue", [1]), Value::ok()),
            (op("enqueue", [2]), Value::ok()),
            (deq(), Value::from(1)),
            (deq(), Value::from(2)),
        ]));
        assert!(!q.accepts_serial(&[
            (op("enqueue", [1]), Value::ok()),
            (op("enqueue", [2]), Value::ok()),
            (deq(), Value::from(2)),
        ]));
    }

    #[test]
    fn empty_dequeue_is_nil() {
        let q = FifoQueueSpec::new();
        assert!(q.accepts_serial(&[(deq(), Value::Nil)]));
        assert!(!q.accepts_serial(&[(deq(), Value::from(1))]));
    }

    #[test]
    fn paper_scheduler_counterexample_serial_forms() {
        // The two serial executions of a=[enq 1, enq 2] and b=[enq 1, enq 2]
        // both yield front-to-back 1,1,2,2 — wait, no: serially a then b
        // gives 1,2,1,2. The paper's point: c dequeues 1,2,1,2 in the
        // serial order a-b-c (and b-a-c), but the *scheduler-model* state
        // after interleaved scheduling would be 1,1,2,2.
        let q = FifoQueueSpec::new();
        let serial_abc = [
            (op("enqueue", [1]), Value::ok()),
            (op("enqueue", [2]), Value::ok()),
            (op("enqueue", [1]), Value::ok()),
            (op("enqueue", [2]), Value::ok()),
            (deq(), Value::from(1)),
            (deq(), Value::from(2)),
            (deq(), Value::from(1)),
            (deq(), Value::from(2)),
        ];
        assert!(q.accepts_serial(&serial_abc));
        // Dequeuing 1,1,2,2 does NOT match any serial order of a and b.
        let interleaved_storage = [
            (op("enqueue", [1]), Value::ok()),
            (op("enqueue", [2]), Value::ok()),
            (op("enqueue", [1]), Value::ok()),
            (op("enqueue", [2]), Value::ok()),
            (deq(), Value::from(1)),
            (deq(), Value::from(1)),
        ];
        assert!(!q.accepts_serial(&interleaved_storage));
    }

    #[test]
    fn front_and_len_are_read_only() {
        let q = FifoQueueSpec::new();
        assert!(q.is_read_only(&op("front", [] as [i64; 0])));
        assert!(q.is_read_only(&op("len", [] as [i64; 0])));
        assert!(!q.is_read_only(&op("enqueue", [1])));
        assert!(!q.is_read_only(&deq()));
        assert!(q.accepts_serial(&[
            (op("front", [] as [i64; 0]), Value::Nil),
            (op("enqueue", [5]), Value::ok()),
            (op("front", [] as [i64; 0]), Value::from(5)),
            (op("len", [] as [i64; 0]), Value::from(1)),
        ]));
    }

    #[test]
    fn ill_typed_rejected() {
        let q = FifoQueueSpec::new();
        assert!(q
            .step(&VecDeque::new(), &op("enqueue", [] as [i64; 0]))
            .is_empty());
        assert!(q.step(&VecDeque::new(), &op("dequeue", [1])).is_empty());
        assert!(q
            .step(&VecDeque::new(), &op("enqueue", [Value::sym("x")]))
            .is_empty());
    }
}
