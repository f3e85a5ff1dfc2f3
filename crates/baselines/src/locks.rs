//! A generic mode-based lock with pluggable compatibility.

use atomicity_core::sync::{Condvar, Mutex, Rank};
use atomicity_core::{Txn, TxnError, WaitDecision};
use atomicity_spec::{ActivityId, ObjectId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

const WAIT_SLICE: Duration = Duration::from_millis(5);

/// Classical read/write lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared mode — compatible with other shared holders.
    Read,
    /// Exclusive mode — compatible with nothing.
    Write,
}

impl LockMode {
    /// Standard r/w compatibility: only read/read is compatible.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Read, LockMode::Read))
    }
}

/// A lock table holding, per transaction, the modes it has acquired.
///
/// `M` is the mode type; compatibility is supplied per call so callers can
/// close over argument-dependent tables (e.g. per-element set locks).
/// Strict two-phase discipline is the caller's job: acquire during the
/// transaction, release everything at commit/abort via
/// [`ModeLock::release_all`].
#[derive(Debug)]
pub struct ModeLock<M> {
    held: Mutex<BTreeMap<ActivityId, Vec<M>>>,
    cv: Condvar,
}

impl<M: Clone + Send> ModeLock<M> {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        ModeLock {
            held: Mutex::new(Rank::LocksHeld, BTreeMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Acquires `mode` for `txn`, blocking while any *other* transaction
    /// holds an incompatible mode. Deadlocks are arbitrated through the
    /// transaction's manager ([`Txn::request_wait`]).
    ///
    /// # Errors
    ///
    /// [`TxnError::Deadlock`] if the wait would close a cycle (the caller
    /// must abort the transaction).
    pub fn acquire(
        &self,
        txn: &Txn,
        object: ObjectId,
        mode: M,
        compatible: impl Fn(&M, &M) -> bool,
    ) -> Result<(), TxnError> {
        let me = txn.id();
        let mut held = self.held.lock();
        loop {
            let blockers: BTreeSet<ActivityId> = held
                .iter()
                .filter(|(id, modes)| **id != me && modes.iter().any(|m| !compatible(&mode, m)))
                .map(|(id, _)| *id)
                .collect();
            if blockers.is_empty() {
                held.entry(me).or_default().push(mode);
                return Ok(());
            }
            match txn.request_wait(&blockers) {
                WaitDecision::Die => {
                    txn.clear_wait();
                    return Err(TxnError::Deadlock { txn: me, object });
                }
                WaitDecision::Wait => {
                    self.cv.wait_for(&mut held, WAIT_SLICE);
                    txn.clear_wait();
                }
            }
        }
    }

    /// Non-blocking acquisition attempt: takes the mode and returns
    /// `true` iff no *other* transaction holds an incompatible mode.
    pub fn try_acquire(&self, txn: &Txn, mode: M, compatible: impl Fn(&M, &M) -> bool) -> bool {
        self.try_acquire_id(txn.id(), mode, compatible).is_ok()
    }

    /// Non-blocking acquisition attempt by transaction id (for detached
    /// admission requests whose [`Txn`] handle lives on another thread).
    ///
    /// # Errors
    ///
    /// The set of other transactions holding incompatible modes; the mode
    /// is not taken.
    pub fn try_acquire_id(
        &self,
        me: ActivityId,
        mode: M,
        compatible: impl Fn(&M, &M) -> bool,
    ) -> Result<(), BTreeSet<ActivityId>> {
        let mut held = self.held.lock();
        let blockers: BTreeSet<ActivityId> = held
            .iter()
            .filter(|(id, modes)| **id != me && modes.iter().any(|m| !compatible(&mode, m)))
            .map(|(id, _)| *id)
            .collect();
        if blockers.is_empty() {
            held.entry(me).or_default().push(mode);
            Ok(())
        } else {
            Err(blockers)
        }
    }

    /// Releases every mode held by `txn` and wakes waiters.
    pub fn release_all(&self, txn: ActivityId) {
        self.held.lock().remove(&txn);
        self.cv.notify_all();
    }

    /// Number of transactions currently holding locks.
    pub fn holder_count(&self) -> usize {
        self.held.lock().len()
    }
}

impl<M: Clone + Send> Default for ModeLock<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::{Protocol, TxnManager};
    use std::sync::Arc;

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    #[test]
    fn rw_compatibility_matrix() {
        assert!(LockMode::Read.compatible(LockMode::Read));
        assert!(!LockMode::Read.compatible(LockMode::Write));
        assert!(!LockMode::Write.compatible(LockMode::Read));
        assert!(!LockMode::Write.compatible(LockMode::Write));
    }

    #[test]
    fn shared_readers_coexist() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let lock = ModeLock::new();
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        lock.acquire(&t1, x(), LockMode::Read, |a, b| a.compatible(*b))
            .unwrap();
        lock.acquire(&t2, x(), LockMode::Read, |a, b| a.compatible(*b))
            .unwrap();
        assert_eq!(lock.holder_count(), 2);
        lock.release_all(t1.id());
        lock.release_all(t2.id());
        mgr.abort(t1);
        mgr.abort(t2);
    }

    #[test]
    fn writer_blocks_until_release() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let lock = Arc::new(ModeLock::new());
        let t1 = mgr.begin();
        lock.acquire(&t1, x(), LockMode::Read, |a, b| a.compatible(*b))
            .unwrap();
        let lock2 = Arc::clone(&lock);
        let mgr2 = mgr.clone();
        let h = std::thread::spawn(move || {
            let t2 = mgr2.begin();
            lock2
                .acquire(&t2, x(), LockMode::Write, |a, b| a.compatible(*b))
                .unwrap();
            lock2.release_all(t2.id());
            mgr2.commit(t2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lock.holder_count(), 1, "writer must still be waiting");
        let id1 = t1.id();
        lock.release_all(id1);
        mgr.commit(t1).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn reacquisition_by_holder_is_immediate() {
        let mgr = TxnManager::new(Protocol::Dynamic);
        let lock = ModeLock::new();
        let t = mgr.begin();
        let compat = |a: &LockMode, b: &LockMode| a.compatible(*b);
        lock.acquire(&t, x(), LockMode::Read, compat).unwrap();
        // Upgrading against only one's own holds must not block.
        lock.acquire(&t, x(), LockMode::Write, compat).unwrap();
        lock.release_all(t.id());
        mgr.commit(t).unwrap();
    }
}
