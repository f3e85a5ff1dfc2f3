//! Transaction handles.

use crate::deadlock::WaitDecision;
use crate::manager::ManagerInner;
use crate::object::Participant;
use atomicity_spec::{ActivityId, Timestamp};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Whether a transaction is an update or has declared itself read-only.
///
/// The partition of activities into updates and read-only activities is
/// the extra, user-supplied semantic information hybrid atomicity exploits
/// (§4.3). Under the dynamic protocol the distinction is ignored —
/// precisely the limitation the paper ascribes to dynamic atomicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// May invoke any operation.
    Update,
    /// Promises to invoke only operations that never change object state.
    ReadOnly,
}

/// A handle to an active transaction, and its only record.
///
/// Created by [`crate::TxnManager::begin`] /
/// [`crate::TxnManager::begin_read_only`]; consumed by
/// [`crate::TxnManager::commit`] / [`crate::TxnManager::abort`], so a live
/// handle is an active transaction and a completed one cannot be named
/// again. The handle owns the list of objects the transaction touched
/// and is neither `Clone` nor `Sync`: a transaction is a single
/// sequential thread of control, exactly as the paper's well-formedness
/// conditions demand.
pub struct Txn {
    pub(crate) id: ActivityId,
    pub(crate) kind: TxnKind,
    pub(crate) start_ts: Option<Timestamp>,
    pub(crate) participants: RefCell<Vec<Arc<dyn Participant>>>,
    pub(crate) inner: Arc<ManagerInner>,
}

impl Txn {
    /// The transaction's identity, used as the activity id in recorded
    /// histories.
    pub fn id(&self) -> ActivityId {
        self.id
    }

    /// Update or read-only.
    pub fn kind(&self) -> TxnKind {
        self.kind
    }

    /// The timestamp chosen at start, if the protocol assigns one
    /// (static: all transactions; hybrid: read-only transactions).
    pub fn start_ts(&self) -> Option<Timestamp> {
        self.start_ts
    }

    /// Registers `participant` for the commit/abort protocol; idempotent
    /// per object. Objects call this on first use by the transaction.
    pub fn register(&self, participant: Arc<dyn Participant>) {
        let mut participants = self.participants.borrow_mut();
        let oid = participant.object_id();
        if !participants.iter().any(|q| q.object_id() == oid) {
            participants.push(participant);
        }
    }

    /// Asks the deadlock policy whether this transaction may block waiting
    /// for `holders`. On [`WaitDecision::Wait`] the waits-for edges are
    /// recorded and must be cleared with [`Txn::clear_wait`] after waking.
    /// The one caller, [`crate::engine::invoke_blocking`], states what
    /// makes every holder active.
    pub(crate) fn request_wait(&self, holders: &BTreeSet<ActivityId>) -> WaitDecision {
        self.inner.request_wait(self.id, holders)
    }

    /// Clears this transaction's waits-for edges.
    pub(crate) fn clear_wait(&self) {
        self.inner.clear_wait(self.id);
    }
}

impl fmt::Debug for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("start_ts", &self.start_ts)
            .finish()
    }
}
