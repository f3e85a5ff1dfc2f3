//! The unified admission API: one surface through which every engine and
//! baseline admits operations.
//!
//! The [`Admission`] trait is three verbs and an explicit
//! [`AdmissionOutcome`]:
//!
//! - [`Admission::try_admit`] — one non-blocking admission attempt;
//! - [`Admission::admit_batch`] — admit a whole queue of requests under
//!   **one** acquisition of the object's internal lock;
//! - [`Admission::read_at`] — the read-only entry, which the hybrid
//!   engine serves from a [`SeqlockCell`]-published version without ever
//!   touching the object mutex.
//!
//! Each engine implements them over its one admission step (see
//! [`crate::engine`]); blocking stays with [`AtomicObject::invoke`]. The
//! module also
//! provides [`SeqlockCell`], the safe epoch/seqlock publication cell
//! behind the hybrid read path.

use crate::error::TxnError;
use crate::object::AtomicObject;
use crate::sync::{Mutex, Rank};
use crate::txn::{Txn, TxnKind};
use atomicity_spec::{ActivityId, ObjectId, Operation, Timestamp, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The explicit result of one admission attempt.
///
/// Unlike `Result<Value, TxnError>`, the blocked case is first-class and
/// carries the conflict holders, so batch admission can report *why* each
/// rejected request must wait without conflating contention with errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The operation was admitted with this result; events were recorded
    /// and the intention installed.
    Admitted(Value),
    /// The operation is currently inadmissible; no event was recorded
    /// (the object's metrics count one block round).
    Blocked {
        /// The transactions whose pending intentions conflict (empty when
        /// the implementation does not attribute the conflict).
        holders: BTreeSet<ActivityId>,
    },
    /// The operation was refused for a non-contention reason; nothing
    /// was recorded unless the protocol requires it (e.g. the static
    /// engine's must-abort refusals record the invoke event).
    Rejected(TxnError),
}

impl AdmissionOutcome {
    /// Whether the operation was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionOutcome::Admitted(_))
    }

    /// Converts to the classic `try_invoke` result shape: blocked becomes
    /// [`TxnError::WouldBlock`] at `object`.
    ///
    /// # Errors
    ///
    /// [`TxnError::WouldBlock`] for [`AdmissionOutcome::Blocked`], the
    /// carried error for [`AdmissionOutcome::Rejected`].
    pub fn into_result(self, object: ObjectId) -> Result<Value, TxnError> {
        match self {
            AdmissionOutcome::Admitted(v) => Ok(v),
            AdmissionOutcome::Blocked { .. } => Err(TxnError::WouldBlock { object }),
            AdmissionOutcome::Rejected(e) => Err(e),
        }
    }

    /// Converts from a `try_invoke`-shaped result:
    /// [`TxnError::WouldBlock`] becomes an unattributed
    /// [`AdmissionOutcome::Blocked`].
    pub fn from_result(result: Result<Value, TxnError>) -> Self {
        match result {
            Ok(v) => AdmissionOutcome::Admitted(v),
            Err(TxnError::WouldBlock { .. }) => AdmissionOutcome::Blocked {
                holders: BTreeSet::new(),
            },
            Err(e) => AdmissionOutcome::Rejected(e),
        }
    }
}

/// One admission request, detached from the (thread-pinned, non-`Clone`)
/// [`Txn`] handle so a queue of them can be admitted as one batch.
///
/// The submitting thread must have registered the object as a
/// participant first ([`Admission::register_txn`]); the request then
/// carries only the copyable facts admission needs.
#[derive(Debug, Clone)]
pub struct AdmissionRequest {
    /// The requesting transaction.
    pub txn: ActivityId,
    /// Update or read-only (hybrid routes on this).
    pub kind: TxnKind,
    /// The transaction's start timestamp, when its protocol assigns one.
    pub start_ts: Option<Timestamp>,
    /// The operation to admit.
    pub operation: Operation,
}

impl AdmissionRequest {
    /// Captures the admission-relevant facts of `txn`.
    pub fn from_txn(txn: &Txn, operation: Operation) -> Self {
        AdmissionRequest {
            txn: txn.id(),
            kind: txn.kind(),
            start_ts: txn.start_ts(),
            operation,
        }
    }
}

/// The unified admission surface every engine and baseline implements.
///
/// Callers that hold a live [`Txn`] use [`Admission::try_admit`] /
/// [`Admission::read_at`]; batch callers use
/// [`Admission::register_txn`] + [`Admission::admit_batch`] with
/// detached [`AdmissionRequest`]s. Blocking behaviour stays with
/// [`AtomicObject::invoke`] — admission itself never blocks.
pub trait Admission: AtomicObject {
    /// Registers the object as a commit/abort participant of `txn`
    /// (idempotent). Must be called by the transaction's own thread
    /// before its requests are admitted on its behalf by another thread.
    fn register_txn(&self, txn: &Txn);

    /// One non-blocking admission attempt for a detached request. The
    /// transaction must already be registered
    /// ([`Admission::register_txn`]); liveness of the transaction is the
    /// caller's concern, exactly as for the classic `try_invoke` path.
    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome;

    /// Admits a queue of requests, acquiring the object's internal lock
    /// **once** for the whole batch where the engine supports it. The
    /// outcome at index `i` answers request `i`; admitted requests take
    /// effect in queue order, so the batch admits exactly the set a
    /// sequence of [`Admission::admit_one`] calls in the same order
    /// would.
    fn admit_batch(&self, requests: &[AdmissionRequest]) -> Vec<AdmissionOutcome> {
        requests.iter().map(|r| self.admit_one(r)).collect()
    }

    /// One non-blocking admission attempt for a live transaction:
    /// registers the participant, then delegates to
    /// [`Admission::admit_one`].
    fn try_admit(&self, txn: &Txn, operation: Operation) -> AdmissionOutcome {
        self.register_txn(txn);
        self.admit_one(&AdmissionRequest::from_txn(txn, operation))
    }

    /// The read-only entry point. Engines with a dedicated read path
    /// (hybrid: timestamped snapshot reads off a [`SeqlockCell`], no
    /// object mutex) override this; the default delegates to
    /// [`AtomicObject::invoke`].
    ///
    /// # Errors
    ///
    /// Everything [`AtomicObject::invoke`] can return.
    fn read_at(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.invoke(txn, operation)
    }
}

/// A safe epoch/seqlock publication cell: one writer at a time publishes
/// a value, any number of readers take a consistent snapshot without
/// blocking the writer (and without ever contending on the slot a write
/// is in flight on).
///
/// The classic seqlock reads racing data and revalidates; that needs
/// `unsafe`, which this crate forbids. This cell gets the same access
/// pattern from safe parts: a version counter (odd = write in flight)
/// plus **two** slots. The writer bumps the counter to odd, writes the
/// *inactive* slot, then bumps to even, making the written slot active.
/// Readers load the counter, lock the active slot (never the one being
/// written), clone the `Arc`, and retry if the counter moved — so a
/// reader's critical section on a slot mutex is a handful of
/// instructions and never overlaps a writer's.
#[derive(Debug)]
pub struct SeqlockCell<T> {
    /// Serializes writers; readers never touch it.
    writer: Mutex<()>,
    /// Even = stable (slot `(seq/2) % 2` is active); odd = write in
    /// flight.
    seq: AtomicU64,
    slots: [Mutex<Option<Arc<T>>>; 2],
}

impl<T> SeqlockCell<T> {
    /// An empty cell; [`SeqlockCell::load`] returns `None` until the
    /// first publish.
    pub fn new() -> Self {
        SeqlockCell {
            writer: Mutex::new(Rank::AdmissionWriter, ()),
            seq: AtomicU64::new(0),
            slots: [
                Mutex::new(Rank::AdmissionSlots, None),
                Mutex::new(Rank::AdmissionSlots, None),
            ],
        }
    }

    /// Publishes `value` as the current snapshot.
    pub fn publish(&self, value: Arc<T>) {
        let _w = self.writer.lock();
        let s0 = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s0 % 2, 0, "writer lock held, seq must be even");
        self.seq.store(s0 + 1, Ordering::Release);
        let inactive = (((s0 / 2) + 1) % 2) as usize;
        *self.slots[inactive].lock() = Some(value);
        self.seq.store(s0 + 2, Ordering::Release);
    }

    /// The current snapshot, or `None` before the first publish.
    pub fn load(&self) -> Option<Arc<T>> {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                // Write in flight; the next load observes the new even
                // value promptly.
                std::hint::spin_loop();
                continue;
            }
            let active = ((s1 / 2) % 2) as usize;
            let value = self.slots[active].lock().clone();
            if self.seq.load(Ordering::Acquire) == s1 {
                return value;
            }
        }
    }

    /// Number of publishes so far.
    pub fn version(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

impl<T> Default for SeqlockCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_result_round_trip() {
        let object = ObjectId::new(9);
        assert_eq!(
            AdmissionOutcome::Admitted(Value::from(3)).into_result(object),
            Ok(Value::from(3))
        );
        assert_eq!(
            AdmissionOutcome::Blocked {
                holders: BTreeSet::new()
            }
            .into_result(object),
            Err(TxnError::WouldBlock { object })
        );
        let e = TxnError::Deadlock {
            txn: ActivityId::new(1),
            object,
        };
        assert_eq!(
            AdmissionOutcome::Rejected(e.clone()).into_result(object),
            Err(e.clone())
        );
        assert!(AdmissionOutcome::from_result(Ok(Value::ok())).is_admitted());
        assert_eq!(
            AdmissionOutcome::from_result(Err(TxnError::WouldBlock { object })),
            AdmissionOutcome::Blocked {
                holders: BTreeSet::new()
            }
        );
        assert_eq!(
            AdmissionOutcome::from_result(Err(e.clone())),
            AdmissionOutcome::Rejected(e)
        );
    }

    #[test]
    fn seqlock_cell_publishes_and_loads() {
        let cell: SeqlockCell<i64> = SeqlockCell::new();
        assert!(cell.load().is_none());
        assert_eq!(cell.version(), 0);
        cell.publish(Arc::new(7));
        assert_eq!(cell.load().as_deref(), Some(&7));
        cell.publish(Arc::new(8));
        cell.publish(Arc::new(9));
        assert_eq!(cell.load().as_deref(), Some(&9));
        assert_eq!(cell.version(), 3);
    }

    #[test]
    fn seqlock_cell_is_consistent_under_concurrent_publish() {
        let cell: Arc<SeqlockCell<(u64, u64)>> = Arc::new(SeqlockCell::new());
        cell.publish(Arc::new((0, 0)));
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=2000u64 {
                    // Both halves move together; readers must never see
                    // them disagree.
                    cell.publish(Arc::new((i, i * 3)));
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..4000 {
                        let snap = cell.load().expect("published before spawn");
                        assert_eq!(snap.1, snap.0 * 3, "torn snapshot");
                        assert!(snap.0 >= last, "snapshots must not go backwards");
                        last = snap.0;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.load().as_deref(), Some(&(2000, 6000)));
    }
}
