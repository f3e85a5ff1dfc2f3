//! The workspace's mutex and condition variable: the vendored
//! `parking_lot` types, each lock built with a [`Rank`] from one table.
//!
//! The engines synchronize with ordinary mutexes underneath the
//! transaction-level deadlock handling of [`crate::deadlock`], and a cycle
//! among *those* would hang the process whatever the deadlock policy says.
//! [`Rank`] is the order every such lock in the workspace is taken in: a
//! thread may acquire a lock only if its rank is strictly above every rank
//! the thread already holds, so two locks of one rank are never held
//! together.
//!
//! Debug builds check the order where locks are taken, in the lockdep
//! style: each thread keeps a stack of the ranks it holds, and an
//! acquisition that breaks the order panics with the names of both locks.
//! The check sees exactly the paths that run — the test suite, the
//! proptests, the simulator sweeps — and a path no test runs goes
//! unchecked. A guard may be dropped in any order, and a [`Condvar`] wait
//! keeps its guard's rank held. Release builds compile [`Mutex`],
//! [`MutexGuard`] and [`Condvar`] to the bare `parking_lot` types: no rank
//! is stored and no thread-local is touched.

use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub use parking_lot::WaitTimeoutResult;

/// The lock order. A thread takes locks in increasing rank — declaration
/// order below — and never holds two locks of one rank (two objects'
/// `mu`, two log shards). Each variant's comment names its lock
/// `module.field` and, where the rank is forced, the code path that holds
/// it across the acquisitions ranked above it.
///
/// The layers, outermost first: the hybrid commit gate; the object locks,
/// each held across history recording and the deadlock policy's
/// `request_wait`; the recovery stores and the write-ahead log; the
/// history log and wait graph; the leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `deplog.ready`: the parallel-replay work queue, never held while
    /// another lock is taken.
    DeplogReady,
    /// `deplog.stripes`: one key stripe of the replayed state.
    DeplogStripes,
    /// `manager.commit_gate`: held by `TxnManager::commit` across every
    /// participant's `commit` for a hybrid update, so it sits below every
    /// lock a participant takes.
    ManagerCommitGate,
    /// `dynamic.mu`: a `DynamicObject`'s intentions.
    DynamicMu,
    /// `hybrid.mu`: a `HybridObject`'s intentions and versions; a commit
    /// publishes the new version (`admission.writer`) under it.
    HybridMu,
    /// `admission.writer`: a `SeqlockCell`'s writer, held while one slot
    /// is written.
    AdmissionWriter,
    /// `hybrid.readers`: a `HybridObject`'s read-only transactions.
    HybridReaders,
    /// `locked.state`: a `LockedObject`'s deferred updates and held modes,
    /// held across `request_wait` by the blocking invoke.
    LockedState,
    /// `reed_rw.mu`: a `ReedRegister`'s versions, held across
    /// `request_wait` while a read waits for an uncommitted version.
    ReedRwMu,
    /// `static_ts.mu`: a `StaticObject`'s log, held across `request_wait`
    /// by the blocking invoke.
    StaticTsMu,
    /// `recovery.durable`: an `UndoStore`'s durable cell.
    RecoveryDurable,
    /// `recovery.index`: an `IntentionsStore`'s per-transaction index.
    RecoveryIndex,
    /// `recovery.records`: a `StableLog`'s records.
    RecoveryRecords,
    /// `recovery.volatile`: an `IntentionsStore`'s cached state.
    RecoveryVolatile,
    /// `restart.inner`: a `RestartableWal`'s live log, held over every
    /// call into it and across a simulated restart's drop and re-open.
    RestartInner,
    /// `wal.state`: the active segment and record mirror; appends and
    /// checkpoints advance `wal.durable` under it.
    WalState,
    /// `wal.durable`: the durable LSN that `sync` waits on.
    WalDurable,
    /// `wal.flags`: the group-commit flusher's work flags.
    WalFlags,
    /// `wal.flusher`: the flusher thread's join handle.
    WalFlusher,
    /// `scheduler_model.state`: the Figure 5-1 storage module.
    SchedulerModelState,
    /// `log.shard`: one history-log shard, appended under every object
    /// lock.
    LogShard,
    /// `manager.waits`: the wait-for graph.
    ManagerWaits,
    /// `admission.slots`: one `SeqlockCell` slot.
    AdmissionSlots,
    /// `trace.objects`: the metrics registry's object list.
    TraceObjects,
}

/// A mutual-exclusion lock with a place in the lock order.
pub struct Mutex<T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock of rank `rank` protecting `value`.
    #[inline]
    pub fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until it is available.
    ///
    /// # Panics
    ///
    /// In debug builds, if the calling thread holds a lock whose rank is
    /// not below this one's.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::acquire(self.rank);
        MutexGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: self.inner.lock(),
        }
    }

    /// The protected value; `&mut self` proves exclusivity, so nothing is
    /// locked.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// The guard [`Mutex::lock`] returns; the lock is released on drop.
pub struct MutexGuard<'a, T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        held::release(self.rank);
    }
}

/// A condition variable over [`MutexGuard`]s. A wait releases the lock
/// and re-takes it before returning, so the guard's rank stays held.
#[derive(Debug, Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    /// A condition variable with no waiters.
    #[inline]
    pub const fn new() -> Self {
        Condvar(parking_lot::Condvar::new())
    }

    /// Blocks until notified.
    #[inline]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.0.wait(&mut guard.inner);
    }

    /// Blocks until notified or until `timeout` elapses.
    #[inline]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.0.wait_for(&mut guard.inner, timeout)
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// The calling thread's held ranks (debug builds only).
#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        /// Ascending: every acquisition is above all ranks already held,
        /// and a release removes its rank wherever it sits.
        pub(super) static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: Rank) {
        let conflict = HELD.with(|held| {
            let mut held = held.borrow_mut();
            let top = held.last().copied().filter(|&top| top >= rank);
            if top.is_none() {
                held.push(rank);
            }
            top
        });
        if let Some(top) = conflict {
            panic!(
                "lock order violated: acquiring `{rank:?}` (rank {}) while holding `{top:?}` \
                 (rank {}); see atomicity_core::sync::Rank",
                rank as u8, top as u8,
            );
        }
    }

    pub(super) fn release(rank: Rank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&r| r == rank) {
                held.remove(at);
            }
        });
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn held_now() -> Vec<Rank> {
        held::HELD.with(|held| held.borrow().clone())
    }

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the acquisition must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn an_inverted_acquisition_panics_and_names_both_locks() {
        let shard = Mutex::new(Rank::LogShard, ());
        let object = Mutex::new(Rank::StaticTsMu, ());
        let msg = panic_message(|| {
            let _shard = shard.lock();
            let _object = object.lock();
        });
        assert!(msg.contains("`StaticTsMu`"), "{msg}");
        assert!(msg.contains("`LogShard`"), "{msg}");
        assert!(held_now().is_empty(), "unwinding released the outer guard");
        // The documented order itself is fine.
        let _object = object.lock();
        let _shard = shard.lock();
        assert_eq!(held_now(), [Rank::StaticTsMu, Rank::LogShard]);
    }

    #[test]
    fn two_locks_of_one_rank_are_never_held_together() {
        let a = Mutex::new(Rank::DynamicMu, 1);
        let b = Mutex::new(Rank::DynamicMu, 2);
        let msg = panic_message(|| {
            let _a = a.lock();
            let _b = b.lock();
        });
        assert!(msg.contains("acquiring `DynamicMu`"), "{msg}");
        assert!(msg.contains("holding `DynamicMu`"), "{msg}");
        assert!(held_now().is_empty());
    }

    #[test]
    fn an_out_of_order_drop_keeps_the_stack_consistent() {
        let a = Mutex::new(Rank::DynamicMu, ());
        let b = Mutex::new(Rank::LogShard, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        assert_eq!(held_now(), [Rank::LogShard]);
        drop(gb);
        assert!(held_now().is_empty());
        let _ga = a.lock();
        assert_eq!(held_now(), [Rank::DynamicMu]);
    }

    #[test]
    fn a_timed_out_wait_returns_with_the_rank_still_held() {
        let durable = Mutex::new(Rank::WalDurable, 0u64);
        let cv = Condvar::new();
        let mut guard = durable.lock();
        assert!(cv
            .wait_for(&mut guard, Duration::from_millis(1))
            .timed_out());
        assert_eq!(held_now(), [Rank::WalDurable]);
        *guard += 1;
        drop(guard);
        assert!(held_now().is_empty());
        assert_eq!(durable.into_inner(), 1);
    }
}
