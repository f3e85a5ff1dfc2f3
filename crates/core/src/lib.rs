//! Online transaction runtime implementing the three local atomicity
//! properties of Weihl, *"Data-dependent Concurrency Control and
//! Recovery"* (PODC 1983).
//!
//! The crate provides:
//!
//! - A [`TxnManager`] running one of three [`Protocol`]s — dynamic, static,
//!   or hybrid atomicity — with two-phase commit across participants,
//!   timestamp generation from a [`LamportClock`], and pluggable deadlock
//!   handling ([`DeadlockPolicy`]).
//! - Three engines turning any [`atomicity_spec::SequentialSpec`] into an
//!   atomic object: [`DynamicObject`] (§4.1), [`StaticObject`] (§4.2, a
//!   generalization of Reed's multi-version timestamps), and
//!   [`HybridObject`] (§4.3).
//! - A shared [`HistoryLog`] recording the *actual computation* as a
//!   formal history, so every execution can be checked against the paper's
//!   definitions with [`atomicity_spec::atomicity`].
//! - Recovery substrates ([`recovery`]): simulated stable storage,
//!   intentions-list redo, and undo-log rollback.
//! - The workspace's ranked locks ([`sync`]): one table orders every
//!   mutex, and debug builds check the order where locks are taken.
//!
//! # Example
//!
//! The paper's §5.1 bank account: concurrent withdrawals are admitted when
//! the balance covers both —
//!
//! ```
//! use atomicity_core::{TxnManager, Protocol, DynamicObject, AtomicObject};
//! use atomicity_spec::specs::BankAccountSpec;
//! use atomicity_spec::atomicity::is_dynamic_atomic;
//! use atomicity_spec::{op, ObjectId, SystemSpec, Value};
//!
//! let mgr = TxnManager::new(Protocol::Dynamic);
//! let acct = DynamicObject::new(ObjectId::new(1), BankAccountSpec::new(), &mgr);
//!
//! let funder = mgr.begin();
//! acct.invoke(&funder, op("deposit", [10]))?;
//! mgr.commit(funder)?;
//!
//! let b = mgr.begin();
//! let c = mgr.begin();
//! assert_eq!(acct.invoke(&b, op("withdraw", [4]))?, Value::ok());
//! assert_eq!(acct.invoke(&c, op("withdraw", [3]))?, Value::ok()); // concurrent!
//! mgr.commit(c)?;
//! mgr.commit(b)?;
//!
//! let spec = SystemSpec::new().with_object(ObjectId::new(1), BankAccountSpec::new());
//! assert!(is_dynamic_atomic(&mgr.history(), &spec));
//! # Ok::<(), atomicity_core::TxnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod clock;
pub mod conflict;
pub mod deadlock;
pub mod engine;
pub mod error;
pub mod log;
pub mod manager;
pub mod object;
pub mod recovery;
pub mod stats;
pub mod sync;
pub mod trace;
pub mod txn;

pub use admission::{Admission, AdmissionOutcome, AdmissionRequest, SeqlockCell};
pub use clock::LamportClock;
pub use conflict::{arg_relation, ArgRelation, CommutesRel, ConflictRule, ConflictTable};
pub use deadlock::{DeadlockPolicy, WaitDecision, WaitGraph};
pub use engine::dynamic::DynamicObject;
pub use engine::hybrid::HybridObject;
pub use engine::static_ts::StaticObject;
pub use error::{AbortReason, TxnError};
pub use log::{HistoryLog, LogTap, MergedEvents};
pub use manager::{ManagerBuilder, Protocol, TxnManager};
pub use object::{AtomicObject, Participant};
pub use recovery::{DurableLog, KeyFootprint, LogRecord, RecordKind, StableLog};
pub use stats::{ObjectStats, StatsSnapshot};
pub use trace::{
    HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot, ObjectMetrics,
    ObjectMetricsSnapshot, Stopwatch, TraceBuffer, TraceKind, TraceRecord,
};
pub use txn::{Txn, TxnKind};
