//! Baseline protocols the paper compares against (§4.2, §5.1).
//!
//! - [`TwoPhaseLockedObject`]: strict two-phase locking with read/write
//!   locks — operations are classified only as readers or writers, the
//!   coarsest conventional protocol.
//! - [`CommutativityLockedObject`]: operation-level locking with a
//!   *static commutativity table* (Schwarz & Spector 82, Korth 81,
//!   Bernstein 81) — two operations may run concurrently only if the
//!   table says they commute, independent of the current state. The two
//!   are one lock-based deferred-update object, [`LockedObject`], under
//!   two compatibility relations: 2PL is commutativity locking under
//!   "both are read-only".
//! - [`SchedulerModel`]: the scheduler/storage architecture of Figure 5-1,
//!   with the property the paper criticizes: invocations are applied to
//!   the storage module in schedule order, so the storage state — not the
//!   transactions' serial semantics — determines later results.
//! - [`ReedRegister`]: Reed's classic multi-version timestamp protocol for
//!   read/write registers (the special case the static engine
//!   generalizes).
//!
//! All baselines record the histories they produce into the shared
//! [`atomicity_core::HistoryLog`], so the same checkers and experiment
//! harnesses apply to them. The lock-based object and Reed's register
//! implement the engines' one admission step
//! ([`atomicity_core::engine::Engine`]) and block in their one wait loop
//! ([`atomicity_core::engine::invoke_blocking`]), so they refuse, block,
//! die and count exactly as the engines do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commutativity_lock;
mod locked;
mod reed_rw;
mod rw_2pl;
mod scheduler_model;

pub use commutativity_lock::{
    bank_commutativity, map_commutativity, queue_commutativity, set_commutativity,
    CommutativityLockedObject, Commutes,
};
pub use locked::LockedObject;
pub use reed_rw::ReedRegister;
pub use rw_2pl::{LockMode, TwoPhaseLockedObject};
pub use scheduler_model::SchedulerModel;

use atomicity_core::engine::{candidates, replay_frontier_to, replay_into};
use atomicity_core::TxnError;
use atomicity_spec::{ActivityId, ObjectId, OpResult, Operation, SequentialSpec, Value};
use std::collections::BTreeMap;

/// The error for an operation `object`'s specification never permits.
pub(crate) fn invalid_operation(object: ObjectId, operation: &Operation) -> TxnError {
    TxnError::InvalidOperation {
        object,
        operation: operation.to_string(),
    }
}

/// The deferred-update state the lock-based object keeps behind its
/// `state` mutex: the committed frontier and, per active transaction,
/// the intentions list applied to it at commit.
pub(crate) struct Deferred<S: SequentialSpec> {
    committed: Vec<S::State>,
    intentions: BTreeMap<ActivityId, Vec<OpResult>>,
    /// The buffer a caller's own frontier is replayed into, as the
    /// dynamic engine does; empty between calls.
    own_frontier: Vec<S::State>,
}

impl<S: SequentialSpec> Deferred<S> {
    pub(crate) fn new(spec: &S) -> Self {
        Deferred {
            committed: vec![spec.initial()],
            intentions: BTreeMap::new(),
            own_frontier: Vec::new(),
        }
    }

    /// The results `operation` may return for `me` now, its own pending
    /// intentions applied. Empty: the specification never permits it.
    pub(crate) fn results_for(
        &mut self,
        spec: &S,
        me: ActivityId,
        operation: &Operation,
    ) -> Vec<Value> {
        match self.intentions.get(&me) {
            Some(own) if !own.is_empty() => {
                replay_frontier_to(spec, &self.committed, own, &mut self.own_frontier);
                let results = candidates(spec, &self.own_frontier, operation);
                self.own_frontier.clear();
                results
            }
            _ => candidates(spec, &self.committed, operation),
        }
    }

    /// Appends `(operation, v)` to `me`'s intentions list.
    pub(crate) fn intend(&mut self, me: ActivityId, operation: Operation, v: Value) {
        self.intentions.entry(me).or_default().push((operation, v));
    }

    /// Applies `txn`'s intentions list to the committed frontier.
    pub(crate) fn install(&mut self, spec: &S, txn: ActivityId) {
        if let Some(list) = self.intentions.remove(&txn) {
            replay_into(spec, &mut self.committed, &list);
        }
    }

    /// Discards `txn`'s intentions list.
    pub(crate) fn discard(&mut self, txn: ActivityId) {
        self.intentions.remove(&txn);
    }
}
