//! Object-side traits: operation dispatch and the commit protocol.

use crate::error::TxnError;
use crate::txn::Txn;
use atomicity_spec::{ActivityId, ObjectId, Operation, Timestamp, Value};

/// A participant in the commit/abort protocol.
///
/// The transaction manager calls these hooks on every object a transaction
/// touched. `prepare` may veto (vote "no" in two-phase commit); `commit`
/// installs the transaction's effects and **records the commit event** in
/// the shared history log; `abort` discards them and records the abort
/// event.
///
/// Engines record commit/abort events while holding their internal lock,
/// so the recorded history's event order is faithful to the
/// synchronization performed.
pub trait Participant: Send + Sync {
    /// The identity of the object this participant guards.
    fn object_id(&self) -> ObjectId;

    /// First phase: validate and durably stage the transaction's effects.
    ///
    /// # Errors
    ///
    /// An error vetoes the commit; the manager then aborts the transaction
    /// at every participant.
    fn prepare(&self, txn: ActivityId) -> Result<(), TxnError> {
        let _ = txn;
        Ok(())
    }

    /// Second phase: make the transaction's effects permanent.
    ///
    /// `ts` is the commit timestamp when the protocol assigns one (hybrid
    /// updates); `None` otherwise.
    fn commit(&self, txn: ActivityId, ts: Option<Timestamp>);

    /// Discard the transaction's effects.
    fn abort(&self, txn: ActivityId);
}

/// An atomic object: type-specific concurrency control behind a uniform
/// invocation interface.
///
/// Implementations guarantee a *local atomicity property* (§4): every
/// history they can produce, restricted to this object, is dynamic /
/// static / hybrid atomic, so any system composed of objects implementing
/// the **same** property yields atomic computations (Theorems 1, 4, 5).
pub trait AtomicObject: Participant {
    /// Invokes `operation` on behalf of `txn`, blocking if the operation
    /// is not currently admissible.
    ///
    /// # Errors
    ///
    /// - [`TxnError::Deadlock`] / [`TxnError::TimestampConflict`] /
    ///   [`TxnError::TimestampTooOld`]: the transaction must abort.
    /// - [`TxnError::InvalidOperation`]: the operation is never permitted
    ///   by the object's specification; the transaction may continue.
    /// - [`TxnError::ProtocolMismatch`]: the transaction kind or timestamp
    ///   discipline does not fit this object's protocol.
    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError>;

    /// Non-blocking variant of [`AtomicObject::invoke`]: a single
    /// admission attempt. On contention it returns
    /// [`TxnError::WouldBlock`] **without recording any events**, so a
    /// rejected attempt is as if the invocation never happened — the basis
    /// for the exhaustive schedule explorer in the test suite.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] on contention, plus everything `invoke`
    /// can return except [`TxnError::Deadlock`].
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError>;

    /// The object's metrics handle: always-on contention counters plus —
    /// when the owning manager's [`crate::MetricsRegistry`] is enabled —
    /// latency histograms, event tracing, and abort causes.
    fn metrics(&self) -> crate::trace::ObjectMetrics;
}
