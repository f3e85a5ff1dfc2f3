//! Reed's multi-version timestamp protocol for read/write registers
//! ([Reed 78]) — the special case that
//! [`atomicity_core::StaticObject`] generalizes to arbitrary operations.

use atomicity_core::sync::{Condvar, Mutex, Rank};
use atomicity_core::{AtomicObject, HistoryLog, Participant, Txn, TxnError, TxnManager};
use atomicity_spec::{ActivityId, Event, ObjectId, Operation, Timestamp, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Weak};
use std::time::Duration;

const WAIT_SLICE: Duration = Duration::from_millis(5);

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

    fn record_first_events(
        &self,
        inner: &mut Inner,
        me: ActivityId,
        t: Timestamp,
        operation: &Operation,
        invoked: &mut bool,
    ) {
        let mut events = Vec::with_capacity(2);
        if inner.initiated.insert(me) {
            events.push(Event::initiate(me, self.id, t));
        }
        if !*invoked {
            events.push(Event::invoke(me, self.id, operation.clone()));
            *invoked = true;
        }
        self.log.record_all(events);
    }

    fn read(&self, txn: &Txn, t: Timestamp, operation: &Operation) -> Result<Value, TxnError> {
        let me = txn.id();
        let mut inner = self.mu.lock();
        let mut invoked = false;
        self.record_first_events(&mut inner, me, t, operation, &mut invoked);
        loop {
            let idx = match inner.versions.iter().rposition(|v| v.wts <= t) {
                Some(i) => i,
                None => {
                    return Err(TxnError::TimestampTooOld {
                        txn: me,
                        object: self.id,
                    })
                }
            };
            let version = &inner.versions[idx];
            if version.committed || version.owner == Some(me) {
                let value = version.value;
                inner.versions[idx].read_horizon = inner.versions[idx].read_horizon.max(t);
                self.log
                    .record(Event::respond(me, self.id, Value::from(value)));
                return Ok(Value::from(value));
            }
            // The selected version is uncommitted: wait for its writer.
            let owner = version.owner.expect("uncommitted version has an owner");
            let holders: BTreeSet<ActivityId> = [owner].into_iter().collect();
            match txn.request_wait(&holders) {
                atomicity_core::WaitDecision::Die => {
                    txn.clear_wait();
                    return Err(TxnError::Deadlock {
                        txn: me,
                        object: self.id,
                    });
                }
                atomicity_core::WaitDecision::Wait => {
                    self.cv.wait_for(&mut inner, WAIT_SLICE);
                    txn.clear_wait();
                }
            }
        }
    }

    fn write(
        &self,
        txn: &Txn,
        t: Timestamp,
        value: i64,
        operation: &Operation,
    ) -> Result<Value, TxnError> {
        let me = txn.id();
        let mut inner = self.mu.lock();
        let mut invoked = false;
        self.record_first_events(&mut inner, me, t, operation, &mut invoked);
        // Re-write by the same transaction: update its version in place.
        if let Some(v) = inner
            .versions
            .iter_mut()
            .find(|v| v.owner == Some(me) && v.wts == t)
        {
            v.value = value;
            self.log.record(Event::respond(me, self.id, Value::ok()));
            return Ok(Value::ok());
        }
        // The version this write would supersede.
        if let Some(prev) = inner.versions.iter().rfind(|v| v.wts <= t) {
            if prev.read_horizon > t {
                // A later-timestamp transaction already read the previous
                // version; installing this write would invalidate it.
                return Err(TxnError::TimestampConflict {
                    txn: me,
                    object: self.id,
                });
            }
        }
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
        self.log.record(Event::respond(me, self.id, Value::ok()));
        Ok(Value::ok())
    }
}

impl AtomicObject for ReedRegister {
    fn invoke(&self, txn: &Txn, operation: Operation) -> Result<Value, TxnError> {
        let t = txn.start_ts().ok_or_else(|| TxnError::ProtocolMismatch {
            object: self.id,
            detail: "Reed's scheme requires start timestamps".into(),
        })?;
        txn.register(self.self_participant());
        match (operation.name(), operation.int_arg(0)) {
            ("read", None) if operation.args().is_empty() => self.read(txn, t, &operation),
            ("write", Some(v)) if operation.args().len() == 1 => self.write(txn, t, v, &operation),
            _ => Err(TxnError::InvalidOperation {
                object: self.id,
                operation: operation.to_string(),
            }),
        }
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
        self.cv.notify_all();
    }

    fn abort(&self, txn: ActivityId) {
        let mut inner = self.mu.lock();
        inner
            .versions
            .retain(|v| v.owner != Some(txn) || v.committed);
        self.log.record(Event::abort(txn, self.id));
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
