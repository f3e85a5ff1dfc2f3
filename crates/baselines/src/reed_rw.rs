//! Reed's multi-version timestamp protocol for read/write registers
//! ([Reed 78]) — the special case that
//! [`atomicity_core::StaticObject`] generalizes to arbitrary operations.

use crate::invalid_operation;
use atomicity_core::engine::{attempt, invoke_blocking, Engine};
use atomicity_core::sync::{Condvar, Mutex, Rank};
use atomicity_core::trace::ObjectMetrics;
use atomicity_core::{
    AdmissionOutcome, AdmissionRequest, AtomicObject, HistoryLog, Participant, Txn, TxnError,
    TxnManager,
};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, Timestamp, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Weak};

/// A multi-version integer register in the style of Reed's scheme.
///
/// Each committed `write` creates a version tagged with the writer's
/// timestamp. A `read` with timestamp `t` selects the version with the
/// largest timestamp `≤ t`, waiting if that version is uncommitted, and
/// records `t` as the version's read horizon. A `write` with timestamp `t`
/// **aborts** if some transaction with a timestamp greater than `t` has
/// already read the version `t` would supersede — the classical
/// write-after-later-read abort (§4.2.3).
///
/// # Example
///
/// ```
/// use atomicity_core::{TxnManager, Protocol, AtomicObject};
/// use atomicity_baselines::ReedRegister;
/// use atomicity_spec::{op, ObjectId, Value};
///
/// let mgr = TxnManager::new(Protocol::Static);
/// let reg = ReedRegister::new(ObjectId::new(1), 0, &mgr);
/// let t = mgr.begin();
/// reg.invoke(&t, op("write", [7]))?;
/// assert_eq!(reg.invoke(&t, op("read", [] as [i64; 0]))?, Value::from(7));
/// mgr.commit(t)?;
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
pub struct ReedRegister {
    id: ObjectId,
    log: HistoryLog,
    mu: Mutex<Inner>,
    cv: Condvar,
    metrics: ObjectMetrics,
    self_ref: Weak<ReedRegister>,
}

#[derive(Debug)]
struct Inner {
    /// Versions sorted by write timestamp (ascending).
    versions: Vec<Version>,
    initiated: BTreeSet<ActivityId>,
}

#[derive(Debug, Clone)]
struct Version {
    wts: Timestamp,
    value: i64,
    owner: Option<ActivityId>,
    committed: bool,
    /// Largest timestamp of any transaction that read this version.
    read_horizon: Timestamp,
}

impl ReedRegister {
    /// Creates the register with an initial (pre-committed) version.
    pub fn new(id: ObjectId, initial: i64, mgr: &TxnManager) -> Arc<Self> {
        Arc::new_cyclic(|self_ref| ReedRegister {
            id,
            log: mgr.log(),
            mu: Mutex::new(
                Rank::ReedRwMu,
                Inner {
                    versions: vec![Version {
                        wts: 0,
                        value: initial,
                        owner: None,
                        committed: true,
                        read_horizon: 0,
                    }],
                    initiated: BTreeSet::new(),
                },
            ),
            cv: Condvar::new(),
            metrics: mgr.metrics().object(id),
            self_ref: self_ref.clone(),
        })
    }

    /// Number of retained versions (including the initial one).
    pub fn version_count(&self) -> usize {
        self.mu.lock().versions.len()
    }

    fn self_participant(&self) -> Arc<dyn Participant> {
        self.self_ref
            .upgrade()
            .expect("ReedRegister used after its Arc was dropped")
    }

    /// Records what must precede a response or a wait: the initiation
    /// event on the transaction's first visit, and the invoke event
    /// unless an earlier round already logged it.
    fn record_first_events(
        &self,
        inner: &mut Inner,
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

    fn read(
        &self,
        inner: &mut Inner,
        request: &AdmissionRequest,
        t: Timestamp,
        invoked: bool,
    ) -> AdmissionOutcome {
        let me = request.txn;
        let version = inner
            .versions
            .iter_mut()
            .rfind(|v| v.wts <= t)
            .expect("the initial version has timestamp 0 and is never removed");
        if !version.committed && version.owner != Some(me) {
            // The selected version is uncommitted: wait for its writer.
            let owner = version.owner.expect("uncommitted version has an owner");
            return AdmissionOutcome::Blocked {
                holders: BTreeSet::from([owner]),
            };
        }
        version.read_horizon = version.read_horizon.max(t);
        let value = Value::from(version.value);
        self.record_first_events(inner, request, t, invoked);
        self.log.record(Event::respond(me, self.id, value.clone()));
        AdmissionOutcome::Admitted(value)
    }

    fn write(
        &self,
        inner: &mut Inner,
        request: &AdmissionRequest,
        t: Timestamp,
        value: i64,
        invoked: bool,
    ) -> AdmissionOutcome {
        let me = request.txn;
        self.record_first_events(inner, request, t, invoked);
        if let Some(v) = inner
            .versions
            .iter_mut()
            .find(|v| v.owner == Some(me) && v.wts == t)
        {
            // Re-write by the same transaction: update its version in place.
            v.value = value;
        } else if inner
            .versions
            .iter()
            .rfind(|v| v.wts <= t)
            .is_some_and(|prev| prev.read_horizon > t)
        {
            // A later-timestamp transaction already read the version this
            // write would supersede; installing it would invalidate that
            // read.
            self.metrics.record_timestamp_conflict(me);
            return AdmissionOutcome::Rejected(TxnError::TimestampConflict {
                txn: me,
                object: self.id,
            });
        } else {
            let pos = inner.versions.partition_point(|v| v.wts <= t);
            inner.versions.insert(
                pos,
                Version {
                    wts: t,
                    value,
                    owner: Some(me),
                    committed: false,
                    read_horizon: 0,
                },
            );
        }
        self.log.record(Event::respond(me, self.id, Value::ok()));
        AdmissionOutcome::Admitted(Value::ok())
    }
}

impl Engine<Inner> for ReedRegister {
    fn meter(&self) -> &ObjectMetrics {
        &self.metrics
    }

    /// A read of an uncommitted version another transaction wrote is
    /// blocked on its writer; a write under a later read records the
    /// initiation and invoke events and is rejected with
    /// [`TxnError::TimestampConflict`], as in [`atomicity_core::StaticObject`].
    fn admission_step(
        &self,
        inner: &mut Inner,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome {
        let Some(t) = request.start_ts else {
            return AdmissionOutcome::Rejected(TxnError::ProtocolMismatch {
                object: self.id,
                detail: "Reed's scheme requires start timestamps".into(),
            });
        };
        let operation = &request.operation;
        match (
            operation.name(),
            operation.int_arg(0),
            operation.args().len(),
        ) {
            ("read", _, 0) => self.read(inner, request, t, invoked),
            ("write", Some(v), 1) => self.write(inner, request, t, v, invoked),
            _ => AdmissionOutcome::Rejected(invalid_operation(self.id, operation)),
        }
    }

    fn record_invoke(&self, inner: &mut Inner, request: &AdmissionRequest) {
        let t = request
            .start_ts
            .expect("a request without a timestamp is rejected, never blocked");
        self.record_first_events(inner, request, t, false);
    }
}

impl AtomicObject for ReedRegister {
    fn try_invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        txn.register(self.self_participant());
        let request = AdmissionRequest::from_txn(txn, operation);
        attempt(self, &mut self.mu.lock(), &request).into_result(self.id)
    }

    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        txn.register(self.self_participant());
        let request = AdmissionRequest::from_txn(txn, operation);
        let invoke_sw = self.metrics.stopwatch();
        let mut inner = self.mu.lock();
        invoke_blocking(self, txn, &request, &mut inner, &self.cv, &invoke_sw)
    }

    fn metrics(&self) -> ObjectMetrics {
        self.metrics.clone()
    }
}

impl Participant for ReedRegister {
    fn object_id(&self) -> ObjectId {
        self.id
    }

    fn commit(&self, txn: ActivityId, _ts: Option<Timestamp>) {
        let mut inner = self.mu.lock();
        for v in inner.versions.iter_mut() {
            if v.owner == Some(txn) {
                v.committed = true;
            }
        }
        self.log.record(Event::commit(txn, self.id));
        self.metrics.record_commit(txn);
        self.cv.notify_all();
    }

    fn abort(&self, txn: ActivityId) {
        let mut inner = self.mu.lock();
        inner
            .versions
            .retain(|v| v.owner != Some(txn) || v.committed);
        self.log.record(Event::abort(txn, self.id));
        self.metrics.record_abort(txn);
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for ReedRegister {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReedRegister")
            .field("id", &self.id)
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::Protocol;
    use atomicity_spec::atomicity::is_static_atomic;
    use atomicity_spec::specs::RegisterSpec;
    use atomicity_spec::{op, SystemSpec};
    use std::time::Duration;

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    fn read_op() -> Operation {
        op("read", [] as [i64; 0])
    }

    #[test]
    fn reads_select_version_by_timestamp() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let t1 = mgr.begin(); // ts 1
        let t2 = mgr.begin(); // ts 2
        let t3 = mgr.begin(); // ts 3
        reg.invoke(&t2, op("write", [22])).unwrap();
        mgr.commit(t2).unwrap();
        // t1 (earlier) sees the initial version; t3 (later) sees 22.
        assert_eq!(reg.invoke(&t1, read_op()).unwrap(), Value::from(0));
        assert_eq!(reg.invoke(&t3, read_op()).unwrap(), Value::from(22));
        mgr.commit(t1).unwrap();
        mgr.commit(t3).unwrap();
        let spec = SystemSpec::new().with_object(x(), RegisterSpec::new());
        assert!(is_static_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn write_after_later_read_aborts() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let t1 = mgr.begin(); // ts 1
        let t2 = mgr.begin(); // ts 2
        assert_eq!(reg.invoke(&t2, read_op()).unwrap(), Value::from(0));
        mgr.commit(t2).unwrap();
        let err = reg.invoke(&t1, op("write", [5])).unwrap_err();
        assert!(matches!(err, TxnError::TimestampConflict { .. }));
        mgr.abort(t1);
        let spec = SystemSpec::new().with_object(x(), RegisterSpec::new());
        assert!(is_static_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn reader_waits_for_uncommitted_selected_version() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let w = mgr.begin(); // ts 1
        reg.invoke(&w, op("write", [9])).unwrap();
        let reg2 = Arc::clone(&reg);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let r = mgr2.begin(); // ts 2
            let v = reg2.invoke(&r, read_op()).unwrap();
            mgr2.commit(r).unwrap();
            v
        });
        std::thread::sleep(Duration::from_millis(30));
        mgr.commit(w).unwrap();
        assert_eq!(h.join().unwrap(), Value::from(9));
        let spec = SystemSpec::new().with_object(x(), RegisterSpec::new());
        assert!(is_static_atomic(&mgr.history(), &spec));
    }

    #[test]
    fn try_invoke_on_an_uncommitted_version_would_block() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let w = mgr.begin(); // ts 1
        reg.invoke(&w, op("write", [9])).unwrap();
        let before = mgr.history().len();
        let reg2 = Arc::clone(&reg);
        let mgr2 = mgr.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        // On its own thread, so that an attempt that blocks fails the
        // test instead of hanging it.
        let h = std::thread::spawn(move || {
            let r = mgr2.begin(); // ts 2
            let outcome = reg2.try_invoke(&r, read_op());
            tx.send((outcome, mgr2.history().len())).unwrap();
            mgr2.abort(r);
        });
        let (outcome, after) = rx
            .recv_timeout(Duration::from_secs(3))
            .expect("try_invoke must not wait for the writer");
        assert!(matches!(outcome, Err(TxnError::WouldBlock { .. })));
        assert_eq!(after, before, "a refused attempt records nothing");
        mgr.commit(w).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn aborted_writer_version_disappears() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let w = mgr.begin();
        reg.invoke(&w, op("write", [9])).unwrap();
        assert_eq!(reg.version_count(), 2);
        mgr.abort(w);
        assert_eq!(reg.version_count(), 1);
        let r = mgr.begin();
        assert_eq!(reg.invoke(&r, read_op()).unwrap(), Value::from(0));
        mgr.commit(r).unwrap();
    }

    #[test]
    fn rewrite_by_same_transaction_updates_version() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let t = mgr.begin();
        reg.invoke(&t, op("write", [1])).unwrap();
        reg.invoke(&t, op("write", [2])).unwrap();
        assert_eq!(reg.version_count(), 2);
        assert_eq!(reg.invoke(&t, read_op()).unwrap(), Value::from(2));
        mgr.commit(t).unwrap();
    }

    #[test]
    fn invalid_and_untimestamped_rejected() {
        let mgr = TxnManager::new(Protocol::Static);
        let reg = ReedRegister::new(x(), 0, &mgr);
        let t = mgr.begin();
        assert!(matches!(
            reg.invoke(&t, op("frob", [1])).unwrap_err(),
            TxnError::InvalidOperation { .. }
        ));
        mgr.abort(t);
        let mgr2 = TxnManager::new(Protocol::Dynamic);
        let reg2 = ReedRegister::new(x(), 0, &mgr2);
        let t2 = mgr2.begin();
        assert!(matches!(
            reg2.invoke(&t2, read_op()).unwrap_err(),
            TxnError::ProtocolMismatch { .. }
        ));
        mgr2.abort(t2);
    }
}
