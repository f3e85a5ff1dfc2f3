//! The static-atomicity engine (§4.2), generalizing Reed's multi-version
//! timestamp scheme to user-specified operations.
//!
//! The object keeps a **timestamp-ordered log** of executed
//! (operation, result) entries — the generalization of Reed's version
//! chain. An invocation by a transaction with start timestamp `t`:
//!
//! 1. computes its result by replaying the entries ordered before `t`;
//! 2. must be **insertable** at position `t`: replaying the whole log with
//!    the new entry in place must keep every later entry's recorded result
//!    valid — otherwise results already returned to other activities would
//!    be invalidated, and the invoker must abort (Reed's
//!    write-after-later-read abort, generalized);
//! 3. must be valid in **every commit/abort future** of the other active
//!    transactions with entries in the log — when no single result is,
//!    the invocation *waits* for the uncommitted entries ordered before
//!    `t` (Reed's wait-on-uncommitted-version), and aborts if the
//!    ambiguity comes only from later entries.
//!
//! Because waiting is only ever on *smaller* timestamps, the engine cannot
//! deadlock.

use crate::admission::{Admission, AdmissionOutcome, AdmissionRequest};
use crate::engine::{
    attempt, candidates, invalid_operation, invoke_blocking, replay_frontier, replay_into, Engine,
};
use crate::error::TxnError;
use crate::log::HistoryLog;
use crate::manager::TxnManager;
use crate::object::{AtomicObject, Participant};
use crate::stats::StatsSnapshot;
use crate::sync::{Condvar, Mutex, Rank};
use crate::trace::ObjectMetrics;
use crate::txn::Txn;
use atomicity_spec::{
    ActivityId, Event, ObjectId, OpResult, Operation, SequentialSpec, Timestamp, Value,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Weak};

/// Upper bound on the number of active transactions whose commit/abort
/// futures are enumerated; above it the engine waits or aborts
/// conservatively.
const DEFAULT_MAX_FUTURES: usize = 4;

/// Log length beyond which fully-committed prefixes are folded into the
/// base state (discarding old versions, as Reed's scheme eventually must).
const DEFAULT_COMPACTION: usize = 64;

/// An atomic object guaranteeing **static atomicity** for a sequential
/// specification `S`.
///
/// Transactions must carry start timestamps
/// ([`crate::TxnManager::begin`] under [`crate::Protocol::Static`]).
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol, StaticObject, AtomicObject};
/// use atomicity_spec::specs::IntSetSpec;
/// use atomicity_spec::{op, ObjectId, Value};
///
/// let mgr = TxnManager::new(Protocol::Static);
/// let set = StaticObject::new(ObjectId::new(1), IntSetSpec::new(), &mgr);
/// let t = mgr.begin();
/// set.invoke(&t, op("insert", [3]))?;
/// mgr.commit(t)?;
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
pub struct StaticObject<S: SequentialSpec> {
    id: ObjectId,
    spec: S,
    log: HistoryLog,
    mu: Mutex<Inner<S>>,
    cv: Condvar,
    max_futures: usize,
    compaction_threshold: usize,
    metrics: ObjectMetrics,
    self_ref: Weak<StaticObject<S>>,
}

pub(crate) struct Inner<S: SequentialSpec> {
    /// State frontier summarizing all folded (compacted) entries.
    base: Vec<S::State>,
    /// Largest folded timestamp; new invocations must arrive strictly
    /// after it. 0 = nothing folded.
    watermark: Timestamp,
    /// The operation log, sorted by (timestamp, sequence).
    entries: Vec<Entry>,
    next_seq: u64,
    /// Transactions whose initiation event has been recorded here.
    initiated: BTreeSet<ActivityId>,
}

#[derive(Debug, Clone)]
struct Entry {
    ts: Timestamp,
    seq: u64,
    owner: ActivityId,
    op: Operation,
    value: Value,
    committed: bool,
}

enum Admit {
    Granted(Value),
    Invalid,
    WaitOn(BTreeSet<ActivityId>),
    MustAbort,
}

impl<S: SequentialSpec> StaticObject<S> {
    /// Creates the object with default bounds.
    pub fn new(id: ObjectId, spec: S, mgr: &TxnManager) -> Arc<Self> {
        Self::with_bounds(id, spec, mgr, DEFAULT_MAX_FUTURES, DEFAULT_COMPACTION)
    }

    /// Creates the object with explicit future-enumeration and compaction
    /// bounds.
    pub fn with_bounds(
        id: ObjectId,
        spec: S,
        mgr: &TxnManager,
        max_futures: usize,
        compaction_threshold: usize,
    ) -> Arc<Self> {
        let initial = vec![spec.initial()];
        Arc::new_cyclic(|self_ref| StaticObject {
            id,
            spec,
            log: mgr.log(),
            mu: Mutex::new(
                Rank::StaticTsMu,
                Inner {
                    base: initial,
                    watermark: 0,
                    entries: Vec::new(),
                    next_seq: 0,
                    initiated: BTreeSet::new(),
                },
            ),
            cv: Condvar::new(),
            max_futures,
            compaction_threshold,
            metrics: mgr.metrics().object(id),
            self_ref: self_ref.clone(),
        })
    }

    /// Contention statistics for this object.
    pub fn stats(&self) -> StatsSnapshot {
        self.metrics.stats()
    }

    /// Number of entries currently retained in the timestamp log.
    pub fn log_len(&self) -> usize {
        self.mu.lock().entries.len()
    }

    /// The compaction watermark (largest discarded timestamp).
    pub fn watermark(&self) -> Timestamp {
        self.mu.lock().watermark
    }

    /// Replays the entries selected by `future` (committed entries, the
    /// caller's own, and entries of transactions assumed to commit),
    /// up to but excluding position (`t`,`seq`), returning the reachable
    /// frontier.
    fn prefix_frontier(
        &self,
        inner: &Inner<S>,
        me: ActivityId,
        t: Timestamp,
        future: &BTreeSet<ActivityId>,
    ) -> Vec<S::State> {
        let ops: Vec<OpResult> = inner
            .entries
            .iter()
            .filter(|e| e.ts < t || (e.ts == t && e.owner == me))
            .filter(|e| e.committed || e.owner == me || future.contains(&e.owner))
            .map(|e| (e.op.clone(), e.value.clone()))
            .collect();
        replay_frontier(&self.spec, &inner.base, &ops)
    }

    /// Whether the full log, with `(op,value)` inserted at (`t`,`seq`),
    /// replays under the given future.
    #[allow(clippy::too_many_arguments)]
    fn insertion_valid(
        &self,
        inner: &Inner<S>,
        me: ActivityId,
        t: Timestamp,
        seq: u64,
        op: &Operation,
        value: &Value,
        future: &BTreeSet<ActivityId>,
    ) -> bool {
        let mut ops: Vec<OpResult> = Vec::with_capacity(inner.entries.len() + 1);
        let mut inserted = false;
        for e in &inner.entries {
            if !inserted && (e.ts, e.seq) > (t, seq) {
                ops.push((op.clone(), value.clone()));
                inserted = true;
            }
            if e.committed || e.owner == me || future.contains(&e.owner) {
                ops.push((e.op.clone(), e.value.clone()));
            }
        }
        if !inserted {
            ops.push((op.clone(), value.clone()));
        }
        !replay_frontier(&self.spec, &inner.base, &ops).is_empty()
    }

    fn decide_admit(
        &self,
        inner: &Inner<S>,
        me: ActivityId,
        t: Timestamp,
        op: &Operation,
    ) -> Admit {
        // Other active transactions with entries anywhere in the log.
        let actives: Vec<ActivityId> = {
            let mut s = BTreeSet::new();
            for e in &inner.entries {
                if !e.committed && e.owner != me {
                    s.insert(e.owner);
                }
            }
            s.into_iter().collect()
        };
        // Those ordered before t — the ones waiting can resolve.
        let earlier: BTreeSet<ActivityId> = inner
            .entries
            .iter()
            .filter(|e| !e.committed && e.owner != me && e.ts < t)
            .map(|e| e.owner)
            .collect();

        if actives.len() > self.max_futures {
            return if earlier.is_empty() {
                Admit::MustAbort
            } else {
                Admit::WaitOn(earlier)
            };
        }

        // Candidate results must agree across every commit/abort future.
        let all: BTreeSet<ActivityId> = actives.iter().copied().collect();
        let full_frontier = self.prefix_frontier(inner, me, t, &all);
        if full_frontier.is_empty() {
            // The log itself is momentarily unexplainable under this
            // future; wait for resolution if possible.
            return if earlier.is_empty() {
                Admit::MustAbort
            } else {
                Admit::WaitOn(earlier)
            };
        }
        // `retain` keeps the candidates' fixed order.
        let mut common = candidates(&self.spec, &full_frontier, op);
        if common.is_empty() {
            return Admit::Invalid;
        }

        let futures = enumerate_futures(&actives);
        for future in &futures {
            let frontier = self.prefix_frontier(inner, me, t, future);
            common.retain(|v| {
                frontier
                    .iter()
                    .any(|s| self.spec.step(s, op).iter().any(|(cv, _)| cv == v))
            });
            if common.is_empty() {
                break;
            }
        }

        let seq = inner.next_seq;
        for v in &common {
            if futures
                .iter()
                .all(|f| self.insertion_valid(inner, me, t, seq, op, v, f))
            {
                return Admit::Granted(v.clone());
            }
        }
        if earlier.is_empty() {
            Admit::MustAbort
        } else {
            Admit::WaitOn(earlier)
        }
    }

    /// Records what must precede a response or a wait: the initiation
    /// event on the transaction's first visit, and the invoke event
    /// unless an earlier round already logged it.
    fn record_first_events(
        &self,
        inner: &mut Inner<S>,
        request: &AdmissionRequest,
        t: Timestamp,
        invoked: bool,
    ) {
        let me = request.txn;
        let mut events = Vec::with_capacity(2);
        if inner.initiated.insert(me) {
            events.push(Event::initiate(me, self.id, t));
        }
        if !invoked {
            events.push(Event::invoke(me, self.id, request.operation.clone()));
        }
        self.log.record_all(events);
    }

    fn compact(&self, inner: &mut Inner<S>) {
        while inner.entries.len() > self.compaction_threshold
            && inner.entries.first().is_some_and(|e| e.committed)
        {
            let e = inner.entries.remove(0);
            let replayed = replay_into(&self.spec, &mut inner.base, &[(e.op, e.value)]);
            debug_assert!(replayed, "committed entries must replay");
            if !replayed {
                return;
            }
            inner.watermark = e.ts;
        }
    }
}

/// All subsets of `actives` (each active transaction either commits or
/// aborts), as sets.
fn enumerate_futures(actives: &[ActivityId]) -> Vec<BTreeSet<ActivityId>> {
    let n = actives.len();
    (0..(1usize << n))
        .map(|mask| {
            actives
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| *a)
                .collect()
        })
        .collect()
}

impl<S: SequentialSpec> Engine<Inner<S>> for StaticObject<S> {
    fn meter(&self) -> &ObjectMetrics {
        &self.metrics
    }

    /// Contention maps to [`AdmissionOutcome::Blocked`] carrying the
    /// earlier-timestamp holders; must-abort refusals record the paper's
    /// required events and reject with [`TxnError::TimestampConflict`].
    fn admission_step(
        &self,
        inner: &mut Inner<S>,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome {
        let me = request.txn;
        let operation = &request.operation;
        let Some(t) = request.start_ts else {
            return AdmissionOutcome::Rejected(TxnError::ProtocolMismatch {
                object: self.id,
                detail: "static objects require a start timestamp".into(),
            });
        };
        if t <= inner.watermark {
            self.metrics.record_timestamp_too_old(me);
            return AdmissionOutcome::Rejected(TxnError::TimestampTooOld {
                txn: me,
                object: self.id,
            });
        }
        match self.decide_admit(inner, me, t, operation) {
            Admit::Invalid => invalid_operation(self.id, operation),
            Admit::Granted(v) => {
                self.record_first_events(inner, request, t, invoked);
                let seq = inner.next_seq;
                inner.next_seq += 1;
                let pos = inner.entries.partition_point(|e| (e.ts, e.seq) < (t, seq));
                inner.entries.insert(
                    pos,
                    Entry {
                        ts: t,
                        seq,
                        owner: me,
                        op: operation.clone(),
                        value: v.clone(),
                        committed: false,
                    },
                );
                self.log.record(Event::respond(me, self.id, v.clone()));
                AdmissionOutcome::Admitted(v)
            }
            Admit::WaitOn(holders) => AdmissionOutcome::Blocked { holders },
            Admit::MustAbort => {
                self.record_first_events(inner, request, t, invoked);
                self.metrics.record_timestamp_conflict(me);
                AdmissionOutcome::Rejected(TxnError::TimestampConflict {
                    txn: me,
                    object: self.id,
                })
            }
        }
    }

    fn record_invoke(&self, inner: &mut Inner<S>, request: &AdmissionRequest) {
        let t = request
            .start_ts
            .expect("a request without a timestamp is rejected, never blocked");
        self.record_first_events(inner, request, t, false);
    }
}

impl<S: SequentialSpec> AtomicObject for StaticObject<S> {
    fn metrics(&self) -> ObjectMetrics {
        self.metrics.clone()
    }

    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.try_admit(txn, operation).into_result(self.id)
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        self.register_txn(txn);
        let request = AdmissionRequest::from_txn(txn, operation);
        let invoke_sw = self.metrics.stopwatch();
        let mut inner = self.mu.lock();
        invoke_blocking(self, txn, &request, &mut inner, &self.cv, &invoke_sw)
    }
}

impl<S: SequentialSpec> Admission for StaticObject<S> {
    fn register_txn(&self, txn: &Txn) {
        txn.register(
            self.self_ref
                .upgrade()
                .expect("StaticObject used after its Arc was dropped"),
        );
    }

    fn admit_one(&self, request: &AdmissionRequest) -> AdmissionOutcome {
        let mut inner = self.mu.lock();
        attempt(self, &mut inner, request)
    }

    fn admit_batch(&self, requests: &[AdmissionRequest]) -> Vec<AdmissionOutcome> {
        let mut inner = self.mu.lock();
        requests
            .iter()
            .map(|r| attempt(self, &mut inner, r))
            .collect()
    }
}

impl<S: SequentialSpec> Participant for StaticObject<S> {
    fn object_id(&self) -> ObjectId {
        self.id
    }

    fn commit(&self, txn: ActivityId, _ts: Option<Timestamp>) {
        let mut inner = self.mu.lock();
        for e in inner.entries.iter_mut() {
            if e.owner == txn {
                e.committed = true;
            }
        }
        self.compact(&mut inner);
        self.log.record(Event::commit(txn, self.id));
        self.metrics.record_commit(txn);
        self.cv.notify_all();
    }

    fn abort(&self, txn: ActivityId) {
        let mut inner = self.mu.lock();
        inner.entries.retain(|e| e.owner != txn);
        self.log.record(Event::abort(txn, self.id));
        self.metrics.record_abort(txn);
        self.cv.notify_all();
    }
}

impl<S: SequentialSpec> std::fmt::Debug for StaticObject<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticObject")
            .field("id", &self.id)
            .field("log_len", &self.log_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Protocol;
    use atomicity_spec::atomicity::{is_atomic, is_static_atomic};
    use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
    use atomicity_spec::well_formed::WellFormedness;
    use atomicity_spec::{op, SystemSpec};
    use std::time::Duration;

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    fn set_spec() -> SystemSpec {
        SystemSpec::new().with_object(x(), IntSetSpec::new())
    }

    #[test]
    fn serial_execution_in_timestamp_order() {
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let t1 = mgr.begin();
        set.invoke(&t1, op("insert", [3])).unwrap();
        mgr.commit(t1).unwrap();
        let t2 = mgr.begin();
        assert_eq!(
            set.invoke(&t2, op("member", [3])).unwrap(),
            Value::from(true)
        );
        mgr.commit(t2).unwrap();
        let h = mgr.history();
        assert!(WellFormedness::Static.is_well_formed(&h));
        assert!(is_static_atomic(&h, &set_spec()));
    }

    #[test]
    fn out_of_timestamp_order_execution_is_reordered() {
        // The §4.2.2 "static atomic" example: the later-timestamp insert
        // executes first; the earlier-timestamp member then runs and must
        // NOT see it.
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let early = mgr.begin(); // ts 1
        let late = mgr.begin(); // ts 2
        set.invoke(&late, op("insert", [3])).unwrap();
        mgr.commit(late).unwrap();
        assert_eq!(
            set.invoke(&early, op("member", [3])).unwrap(),
            Value::from(false),
            "earlier timestamp must see the earlier (empty) state"
        );
        mgr.commit(early).unwrap();
        let h = mgr.history();
        assert!(is_static_atomic(&h, &set_spec()));
        assert!(is_atomic(&h, &set_spec()));
    }

    #[test]
    fn late_write_that_invalidates_read_aborts() {
        // Reed's write-after-read abort: a later-timestamp transaction
        // reads; an earlier-timestamp insert then arrives and would change
        // that answer — the inserter must abort.
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let early = mgr.begin(); // ts 1
        let late = mgr.begin(); // ts 2
        assert_eq!(
            set.invoke(&late, op("member", [3])).unwrap(),
            Value::from(false)
        );
        mgr.commit(late).unwrap();
        let err = set.invoke(&early, op("insert", [3])).unwrap_err();
        assert!(matches!(err, TxnError::TimestampConflict { .. }));
        mgr.abort(early);
        let h = mgr.history();
        assert!(is_static_atomic(&h, &set_spec()));
    }

    #[test]
    fn late_write_that_commutes_is_admitted() {
        // An earlier-timestamp insert of a *different* element does not
        // invalidate the recorded member(3) and is admitted.
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let early = mgr.begin();
        let late = mgr.begin();
        assert_eq!(
            set.invoke(&late, op("member", [3])).unwrap(),
            Value::from(false)
        );
        mgr.commit(late).unwrap();
        set.invoke(&early, op("insert", [7])).unwrap();
        mgr.commit(early).unwrap();
        assert!(is_static_atomic(&mgr.history(), &set_spec()));
    }

    #[test]
    fn reader_waits_for_earlier_uncommitted_writer() {
        let mgr = TxnManager::new(Protocol::Static);
        let acct = StaticObject::new(x(), BankAccountSpec::new(), &mgr);
        let writer = mgr.begin(); // ts 1
        let reader = mgr.begin(); // ts 2
        acct.invoke(&writer, op("deposit", [10])).unwrap();
        let acct2 = Arc::clone(&acct);
        let h = std::thread::spawn(move || {
            let v = acct2
                .invoke(&reader, op("balance", [] as [i64; 0]))
                .unwrap();
            (reader, v)
        });
        std::thread::sleep(Duration::from_millis(30));
        mgr.commit(writer).unwrap();
        let (reader, v) = h.join().unwrap();
        assert_eq!(
            v,
            Value::from(10),
            "reader must include the committed deposit"
        );
        mgr.commit(reader).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_static_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn commutative_update_ignores_uncommitted_earlier_reader_free_ops() {
        // A later deposit does not need to wait on an earlier uncommitted
        // deposit: its ok result and all validations hold in both futures.
        let mgr = TxnManager::new(Protocol::Static);
        let acct = StaticObject::new(x(), BankAccountSpec::new(), &mgr);
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        acct.invoke(&t1, op("deposit", [5])).unwrap();
        // t2 proceeds although t1 is uncommitted.
        acct.invoke(&t2, op("deposit", [7])).unwrap();
        mgr.commit(t2).unwrap();
        mgr.commit(t1).unwrap();
        let spec = SystemSpec::new().with_object(x(), BankAccountSpec::new());
        assert!(is_static_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn timestamp_below_watermark_is_rejected() {
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::with_bounds(x(), IntSetSpec::new(), &mgr, 4, 0);
        for i in 0..3 {
            let t = mgr.begin();
            set.invoke(&t, op("insert", [i])).unwrap();
            mgr.commit(t).unwrap();
        }
        assert!(set.watermark() > 0);
        assert_eq!(set.log_len(), 0);
        let stale = mgr.begin_at(1);
        let err = set.invoke(&stale, op("member", [0])).unwrap_err();
        assert!(matches!(err, TxnError::TimestampTooOld { .. }));
        mgr.abort(stale);
    }

    #[test]
    fn compaction_preserves_semantics() {
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::with_bounds(x(), IntSetSpec::new(), &mgr, 4, 2);
        for i in 0..10 {
            let t = mgr.begin();
            set.invoke(&t, op("insert", [i])).unwrap();
            mgr.commit(t).unwrap();
        }
        assert!(set.log_len() <= 3);
        let t = mgr.begin();
        assert_eq!(
            set.invoke(&t, op("member", [7])).unwrap(),
            Value::from(true)
        );
        assert_eq!(
            set.invoke(&t, op("size", [] as [i64; 0])).unwrap(),
            Value::from(10)
        );
        mgr.commit(t).unwrap();
    }

    #[test]
    fn aborted_entries_disappear() {
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let t1 = mgr.begin();
        set.invoke(&t1, op("insert", [3])).unwrap();
        mgr.abort(t1);
        let t2 = mgr.begin();
        assert_eq!(
            set.invoke(&t2, op("member", [3])).unwrap(),
            Value::from(false)
        );
        mgr.commit(t2).unwrap();
        assert!(is_static_atomic(&mgr.history(), &set_spec()));
    }

    #[test]
    fn missing_timestamp_is_protocol_mismatch() {
        let mgr = TxnManager::new(Protocol::Dynamic); // no start timestamps
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let t = mgr.begin();
        let err = set.invoke(&t, op("insert", [1])).unwrap_err();
        assert!(matches!(err, TxnError::ProtocolMismatch { .. }));
        mgr.abort(t);
    }

    #[test]
    fn read_only_transactions_never_get_timestamp_conflicts() {
        // Reed's guarantee, generalized: queries cannot invalidate later
        // results (they change nothing), so a reader is never the one
        // forced to abort — it only ever waits.
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        // Interleave writers and readers with many timestamp inversions.
        let mut txns = Vec::new();
        for _ in 0..6 {
            txns.push(mgr.begin());
        }
        // Writers with LATER timestamps execute first.
        set.invoke(&txns[5], op("insert", [1])).unwrap();
        set.invoke(&txns[4], op("insert", [2])).unwrap();
        // Readers with EARLIER timestamps then query: served from their
        // position, no abort possible. (Three readers keep the number of
        // concurrently active transactions within the default
        // future-enumeration bound; a fourth would conservatively block.)
        for (i, t) in txns.iter().enumerate().take(3) {
            let v = set.invoke(t, op("member", [1])).unwrap();
            assert_eq!(v, Value::from(false), "reader {i} sees its position");
        }
        for t in txns {
            mgr.commit(t).unwrap();
        }
        assert!(is_static_atomic(&mgr.history(), &set_spec()));
    }

    #[test]
    fn same_transaction_sees_its_own_earlier_operations() {
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let t = mgr.begin();
        set.invoke(&t, op("insert", [3])).unwrap();
        assert_eq!(
            set.invoke(&t, op("member", [3])).unwrap(),
            Value::from(true),
            "read-your-writes within a transaction"
        );
        mgr.commit(t).unwrap();
        assert!(is_static_atomic(&mgr.history(), &set_spec()));
    }

    #[test]
    fn invalid_operation_reported() {
        let mgr = TxnManager::new(Protocol::Static);
        let set = StaticObject::new(x(), IntSetSpec::new(), &mgr);
        let t = mgr.begin();
        let err = set
            .invoke(&t, op("frobnicate", [] as [i64; 0]))
            .unwrap_err();
        assert!(matches!(err, TxnError::InvalidOperation { .. }));
        mgr.abort(t);
    }
}
