//! The scheduler model of Figure 5-1, with the limitation the paper
//! demonstrates.
//!
//! Transactions submit invocations to a scheduler, which orders them and
//! submits them to a **storage module** that applies each operation to its
//! single current state immediately and returns the result. The semantics
//! of operations are thereby determined by the scheduler/storage
//! interface: once the schedule interleaves two transactions' operations,
//! the storage state reflects that interleaving, and later results are
//! forced by it.
//!
//! [`SchedulerModel::can_produce`] decides whether a given history could
//! have been produced by this architecture with the schedule equal to the
//! observed invocation order — the check under which the paper's §5.1
//! queue history (dequeues `1,2,1,2` after interleaved enqueues) is
//! impossible, even though it is dynamic atomic.

use atomicity_core::engine::replay_into;
use atomicity_core::sync::{Mutex, Rank};
use atomicity_spec::{EventKind, History, ObjectId, Operation, SequentialSpec, Value};

/// The storage-module side of Figure 5-1: applies invocations immediately
/// in schedule order.
///
/// # Example
///
/// ```
/// use atomicity_baselines::SchedulerModel;
/// use atomicity_spec::specs::FifoQueueSpec;
/// use atomicity_spec::{op, ObjectId, Value};
///
/// let storage = SchedulerModel::new(ObjectId::new(1), FifoQueueSpec::new());
/// storage.submit(&op("enqueue", [1]));
/// storage.submit(&op("enqueue", [2]));
/// assert_eq!(storage.submit(&op("dequeue", [] as [i64; 0])), Some(Value::from(1)));
/// ```
pub struct SchedulerModel<S: SequentialSpec> {
    id: ObjectId,
    spec: S,
    /// The storage module's current state set (a set only to accommodate
    /// non-deterministic specifications; the classical model is the
    /// singleton case).
    state: Mutex<Vec<S::State>>,
}

impl<S: SequentialSpec> SchedulerModel<S> {
    /// Creates the storage module in the specification's initial state.
    pub fn new(id: ObjectId, spec: S) -> Self {
        let initial = vec![spec.initial()];
        SchedulerModel {
            id,
            spec,
            state: Mutex::new(Rank::SchedulerModelState, initial),
        }
    }

    /// The object this storage module holds.
    pub fn object_id(&self) -> ObjectId {
        self.id
    }

    /// Applies one scheduled invocation to the current state, returning
    /// the (deterministically chosen) result — or `None` if the operation
    /// is not permitted.
    pub fn submit(&self, operation: &Operation) -> Option<Value> {
        let mut state = self.state.lock();
        let mut outcomes: Vec<(Value, S::State)> = Vec::new();
        for s in state.iter() {
            for (v, s2) in self.spec.step(s, operation) {
                if !outcomes.iter().any(|(ov, os)| ov == &v && os == &s2) {
                    outcomes.push((v, s2));
                }
            }
        }
        if outcomes.is_empty() {
            return None;
        }
        outcomes.sort_by(|(a, _), (b, _)| a.cmp(b));
        let chosen = outcomes[0].0.clone();
        let next: Vec<S::State> = outcomes
            .into_iter()
            .filter(|(v, _)| *v == chosen)
            .map(|(_, s)| s)
            .collect();
        *state = next;
        Some(chosen)
    }

    /// Whether this architecture can produce `h` (restricted to this
    /// object) with the schedule equal to `h`'s invocation order: every
    /// response in `h` must equal the result the storage module computes
    /// when operations are applied immediately in invocation order.
    ///
    /// This is the formal content of the paper's Figure 5-1 critique: the
    /// storage state after the schedule — not the transactions' serial
    /// semantics — determines each result.
    pub fn can_produce(&self, h: &History) -> bool {
        let hx = h.project_object(self.id);
        let mut frontier = vec![self.spec.initial()];
        let mut pending: std::collections::BTreeMap<atomicity_spec::ActivityId, Operation> =
            std::collections::BTreeMap::new();
        let mut applied: Vec<(Operation, Value)> = Vec::new();
        for e in hx.iter() {
            match &e.kind {
                EventKind::Invoke(operation) => {
                    pending.insert(e.activity, operation.clone());
                }
                EventKind::Respond(value) => {
                    let Some(operation) = pending.remove(&e.activity) else {
                        return false;
                    };
                    // The storage module applies the invocation now; the
                    // recorded result must be one of its possible results.
                    applied.push((operation, value.clone()));
                    if !replay_into(&self.spec, &mut frontier, &applied[applied.len() - 1..]) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }
}

impl<S: SequentialSpec> std::fmt::Debug for SchedulerModel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerModel")
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::paper;
    use atomicity_spec::specs::{BankAccountSpec, FifoQueueSpec};
    use atomicity_spec::{atomicity::is_dynamic_atomic, op};

    #[test]
    fn storage_applies_in_schedule_order() {
        let storage = SchedulerModel::new(ObjectId::new(1), FifoQueueSpec::new());
        // The paper's interleaved schedule: a and b alternate enqueues.
        for v in [1, 1, 2, 2] {
            assert_eq!(storage.submit(&op("enqueue", [v])), Some(Value::ok()));
        }
        let deq = op("dequeue", [] as [i64; 0]);
        // The storage state is 1,1,2,2 — c receives 1,1,2,2, NOT 1,2,1,2.
        assert_eq!(storage.submit(&deq), Some(Value::from(1)));
        assert_eq!(storage.submit(&deq), Some(Value::from(1)));
        assert_eq!(storage.submit(&deq), Some(Value::from(2)));
        assert_eq!(storage.submit(&deq), Some(Value::from(2)));
    }

    #[test]
    fn paper_queue_history_is_impossible_for_the_scheduler_model() {
        // The §5.1 counterexample, verbatim: dynamic atomicity admits it,
        // the scheduler model cannot produce it.
        let h = paper::queue_interleaved_enqueues();
        let spec = paper::queue_system();
        assert!(is_dynamic_atomic(&h, &spec));
        let storage = SchedulerModel::new(paper::X, FifoQueueSpec::new());
        assert!(!storage.can_produce(&h));
    }

    #[test]
    fn serial_histories_are_producible() {
        // A history whose interleaving matches storage order is fine.
        use atomicity_spec::{Event, History};
        let (a, x) = (paper::A, paper::X);
        let h = History::from_events(vec![
            Event::invoke(a, x, op("enqueue", [1])),
            Event::respond(a, x, Value::ok()),
            Event::invoke(a, x, op("dequeue", [] as [i64; 0])),
            Event::respond(a, x, Value::from(1)),
            Event::commit(a, x),
        ]);
        let storage = SchedulerModel::new(x, FifoQueueSpec::new());
        assert!(storage.can_produce(&h));
    }

    #[test]
    fn bank_concurrent_withdraws_are_producible_by_storage_order() {
        // The bank example IS producible by the scheduler model (the
        // storage applies both withdraws in arrival order and both
        // succeed); the scheduler's *conflict rules*, not the storage,
        // are what forbid it — demonstrated by the locking baselines.
        let h = paper::bank_concurrent_withdraws();
        let storage = SchedulerModel::new(paper::Y, BankAccountSpec::new());
        assert!(storage.can_produce(&h));
    }

    #[test]
    fn invalid_operations_rejected() {
        let storage = SchedulerModel::new(ObjectId::new(1), FifoQueueSpec::new());
        assert_eq!(storage.submit(&op("frob", [] as [i64; 0])), None);
    }
}
