//! Error types for the transaction runtime.

use atomicity_spec::{ActivityId, ObjectId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A stable, payload-free code classifying a [`TxnError`].
///
/// Every `TxnError` variant maps to exactly one reason via
/// [`TxnError::reason`]. The metrics layer keys its abort taxonomy on
/// these codes, and retry loops can branch on them instead of
/// pattern-matching the (non-exhaustive, payload-carrying) error enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AbortReason {
    /// Waiting would deadlock (or wait-die killed the requester).
    Deadlock,
    /// Serializing at the transaction's timestamp would invalidate
    /// results already returned (static engine).
    TimestampConflict,
    /// The operation is not permitted by the object's specification.
    InvalidOperation,
    /// The operation or transaction kind does not fit the protocol.
    ProtocolMismatch,
    /// The timestamp predates the object's compaction watermark.
    TimestampTooOld,
    /// A participant vetoed prepare; the transaction was aborted.
    PrepareFailed,
    /// A non-blocking invocation found the operation inadmissible.
    WouldBlock,
}

impl AbortReason {
    /// Every reason, in taxonomy (index) order.
    pub const ALL: [AbortReason; 7] = [
        AbortReason::Deadlock,
        AbortReason::TimestampConflict,
        AbortReason::InvalidOperation,
        AbortReason::ProtocolMismatch,
        AbortReason::TimestampTooOld,
        AbortReason::PrepareFailed,
        AbortReason::WouldBlock,
    ];

    /// A short stable label (used as JSON keys in metrics reports).
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::Deadlock => "deadlock",
            AbortReason::TimestampConflict => "timestamp_conflict",
            AbortReason::InvalidOperation => "invalid_operation",
            AbortReason::ProtocolMismatch => "protocol_mismatch",
            AbortReason::TimestampTooOld => "timestamp_too_old",
            AbortReason::PrepareFailed => "prepare_failed",
            AbortReason::WouldBlock => "would_block",
        }
    }

    /// The reason's position in [`AbortReason::ALL`]; metrics use it to
    /// index a fixed array of counters.
    pub fn index(self) -> usize {
        AbortReason::ALL
            .iter()
            .position(|r| *r == self)
            .expect("every reason is in ALL")
    }

    /// Whether errors with this reason oblige the caller to abort.
    pub fn must_abort(self) -> bool {
        matches!(
            self,
            AbortReason::Deadlock | AbortReason::TimestampConflict | AbortReason::TimestampTooOld
        )
    }

    /// Whether this reason stems from timestamp-order validation (the
    /// static engine's refusals, retryable with a fresh timestamp).
    pub fn is_timestamp(self) -> bool {
        matches!(
            self,
            AbortReason::TimestampConflict | AbortReason::TimestampTooOld
        )
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An error surfaced by the transaction runtime.
///
/// Operations on atomic objects and transaction-manager calls return
/// `Result<_, TxnError>`. Several variants (notably
/// [`TxnError::Deadlock`] and [`TxnError::TimestampConflict`]) signal that
/// the *calling transaction must abort*; the caller is expected to invoke
/// [`crate::TxnManager::abort`] and may then retry with a fresh
/// transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxnError {
    /// Waiting for a conflicting transaction would deadlock (or the
    /// wait-die policy chose to kill the requester). The transaction must
    /// abort.
    Deadlock {
        /// The transaction that must abort.
        txn: ActivityId,
        /// The object at which the conflict arose.
        object: ObjectId,
    },
    /// Under static (timestamp) atomicity, executing the operation at the
    /// transaction's timestamp would invalidate results already returned
    /// to other activities — the generalization of Reed's write-after-read
    /// abort. The transaction must abort.
    TimestampConflict {
        /// The transaction that must abort.
        txn: ActivityId,
        /// The object at which validation failed.
        object: ObjectId,
    },
    /// The operation is not permitted by the object's specification in any
    /// state (unknown name or ill-typed arguments).
    InvalidOperation {
        /// The object rejecting the operation.
        object: ObjectId,
        /// Rendered operation, for diagnostics.
        operation: String,
    },
    /// The operation or transaction kind does not fit the object's
    /// protocol (e.g. a mutating operation by a read-only transaction, or
    /// a timestamp-protocol object invoked by a transaction without a
    /// timestamp).
    ProtocolMismatch {
        /// The object reporting the mismatch.
        object: ObjectId,
        /// What was wrong.
        detail: String,
    },
    /// The transaction's timestamp is older than the object's compaction
    /// watermark; history needed to serve it has been discarded. The
    /// transaction must abort.
    TimestampTooOld {
        /// The transaction that must abort.
        txn: ActivityId,
        /// The object whose history was compacted.
        object: ObjectId,
    },
    /// Commit failed because a participant could not prepare; the
    /// transaction has been aborted.
    PrepareFailed {
        /// The transaction that was aborted.
        txn: ActivityId,
        /// The participant that refused.
        object: ObjectId,
    },
    /// A non-blocking invocation ([`crate::AtomicObject::try_invoke`])
    /// found the operation currently inadmissible; nothing was recorded
    /// and the caller may retry later.
    WouldBlock {
        /// The object at which the operation would have to wait.
        object: ObjectId,
    },
}

impl TxnError {
    /// Whether this error obliges the caller to abort the transaction.
    pub fn must_abort(&self) -> bool {
        self.reason().must_abort()
    }

    /// The stable [`AbortReason`] code for this error.
    pub fn reason(&self) -> AbortReason {
        match self {
            TxnError::Deadlock { .. } => AbortReason::Deadlock,
            TxnError::TimestampConflict { .. } => AbortReason::TimestampConflict,
            TxnError::InvalidOperation { .. } => AbortReason::InvalidOperation,
            TxnError::ProtocolMismatch { .. } => AbortReason::ProtocolMismatch,
            TxnError::TimestampTooOld { .. } => AbortReason::TimestampTooOld,
            TxnError::PrepareFailed { .. } => AbortReason::PrepareFailed,
            TxnError::WouldBlock { .. } => AbortReason::WouldBlock,
        }
    }
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Deadlock { txn, object } => {
                write!(f, "transaction {txn} would deadlock at {object}")
            }
            TxnError::TimestampConflict { txn, object } => write!(
                f,
                "transaction {txn} conflicts with later timestamps at {object}"
            ),
            TxnError::InvalidOperation { object, operation } => {
                write!(f, "operation {operation} is not valid for {object}")
            }
            TxnError::ProtocolMismatch { object, detail } => {
                write!(f, "protocol mismatch at {object}: {detail}")
            }
            TxnError::TimestampTooOld { txn, object } => write!(
                f,
                "timestamp of transaction {txn} predates the compaction watermark of {object}"
            ),
            TxnError::PrepareFailed { txn, object } => {
                write!(
                    f,
                    "participant {object} failed to prepare transaction {txn}"
                )
            }
            TxnError::WouldBlock { object } => {
                write!(f, "operation would block at {object}")
            }
        }
    }
}

impl Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn must_abort_classification() {
        let txn = ActivityId::new(1);
        let object = ObjectId::new(1);
        assert!(TxnError::Deadlock { txn, object }.must_abort());
        assert!(TxnError::TimestampConflict { txn, object }.must_abort());
        assert!(TxnError::TimestampTooOld { txn, object }.must_abort());
        assert!(!TxnError::PrepareFailed { txn, object }.must_abort());
        assert!(!TxnError::InvalidOperation {
            object,
            operation: "frob".into()
        }
        .must_abort());
        assert!(!TxnError::WouldBlock { object }.must_abort());
    }

    #[test]
    fn reason_is_stable_and_indexed() {
        let txn = ActivityId::new(1);
        let object = ObjectId::new(1);
        assert_eq!(
            TxnError::Deadlock { txn, object }.reason(),
            AbortReason::Deadlock
        );
        assert_eq!(
            TxnError::WouldBlock { object }.reason(),
            AbortReason::WouldBlock
        );
        for (i, reason) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i);
        }
        assert!(AbortReason::TimestampConflict.is_timestamp());
        assert!(AbortReason::TimestampTooOld.is_timestamp());
        assert!(!AbortReason::Deadlock.is_timestamp());
        let labels: std::collections::BTreeSet<&str> =
            AbortReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), AbortReason::ALL.len(), "labels are unique");
    }

    #[test]
    fn display_is_informative() {
        let txn = ActivityId::new(3);
        let object = ObjectId::new(7);
        let e = TxnError::Deadlock { txn, object };
        let s = e.to_string();
        assert!(s.contains("a3") && s.contains("x7"));
    }
}
