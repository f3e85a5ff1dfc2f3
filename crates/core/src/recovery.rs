//! Recovery substrates: simulated stable storage, intentions-list (redo)
//! recovery, and undo-log recovery.
//!
//! The paper's model deliberately does **not** fix a recovery technique
//! (§5.1 criticizes models that do); atomicity only requires that
//! `perm(h)` — the committed activities — be serializable, however aborts
//! and crashes are implemented. This module provides the two classical
//! implementations the paper alludes to:
//!
//! - [`IntentionsStore`]: the intentions lists of [Lampson & Sturgis] —
//!   operations are staged durably at prepare and *redone* after a crash
//!   for committed transactions.
//! - [`UndoStore`]: eager in-place update with write-ahead undo records;
//!   crash recovery *undoes* the operations of uncommitted transactions.
//!
//! Crashes are simulated: a [`StableLog`] (and the [`UndoStore`]'s durable
//! cell) survives [`IntentionsStore::crash`], volatile caches do not. The
//! distributed simulation (`atomicity-sim`) injects crashes at every point
//! of the two-phase commit and experiment E6 verifies all-or-nothing
//! behavior across them.
//!
//! Both stores speak to storage through the [`DurableLog`] trait, so the
//! same intentions-list machinery runs over the in-memory [`StableLog`]
//! *or* the real on-disk segmented write-ahead log in `atomicity-durable`
//! — the latter is what the kill-based crash harness and `experiments e6
//! --disk` exercise.

use crate::sync::{Mutex, Rank};
use atomicity_spec::{replay_into, ActivityId, ObjectId, OpResult, SequentialSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The read/write key footprint a dependency-logged commit record carries:
/// which integer keys one committed transaction actually read and wrote
/// at one object. Recovery (à la Yao et al., "dependency logging") uses
/// the footprints to build a transaction dependency graph — two commits
/// depend on each other only if their footprints overlap on a key *and*
/// the operations on that key do not commute — and replays independent
/// chains in parallel instead of scanning the log serially.
///
/// Operations without an integer first argument (whole-object scans like
/// `sum`/`size`) have no key to record; they set the `unkeyed_*` flags,
/// which dependency analysis must treat as touching every key
/// (conservative, like the synthesis pass's unknown-shape default).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeyFootprint {
    /// Keys read (sorted, deduplicated).
    pub reads: Vec<i64>,
    /// Keys written (sorted, deduplicated).
    pub writes: Vec<i64>,
    /// A read-only operation without a key (scan): reads every key.
    pub unkeyed_reads: bool,
    /// An updating operation without a key: conservatively writes every
    /// key.
    pub unkeyed_writes: bool,
}

impl KeyFootprint {
    /// Builds a footprint from explicit key sets (sorted + deduplicated).
    pub fn new(reads: Vec<i64>, writes: Vec<i64>) -> Self {
        let mut fp = KeyFootprint {
            reads,
            writes,
            unkeyed_reads: false,
            unkeyed_writes: false,
        };
        fp.normalize();
        fp
    }

    /// Derives the footprint of a transaction's staged operations: the
    /// integer first argument is the key (the convention every keyed ADT
    /// spec in the workspace follows), and `spec.is_read_only` decides
    /// read vs write.
    pub fn from_ops<S: SequentialSpec>(spec: &S, ops: &[OpResult]) -> Self {
        let mut fp = KeyFootprint::default();
        for (op, _) in ops {
            let read_only = spec.is_read_only(op);
            match op.int_arg(0) {
                Some(key) if read_only => fp.reads.push(key),
                Some(key) => fp.writes.push(key),
                None if read_only => fp.unkeyed_reads = true,
                None => fp.unkeyed_writes = true,
            }
        }
        fp.normalize();
        fp
    }

    fn normalize(&mut self) {
        self.reads.sort_unstable();
        self.reads.dedup();
        self.writes.sort_unstable();
        self.writes.dedup();
    }

    /// Whether the footprint records no access at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
            && self.writes.is_empty()
            && !self.unkeyed_reads
            && !self.unkeyed_writes
    }

    /// Whether this footprint writes `key` (or writes every key).
    pub fn writes_key(&self, key: i64) -> bool {
        self.unkeyed_writes || self.writes.binary_search(&key).is_ok()
    }

    /// Whether this footprint touches `key` at all (read or write,
    /// including the unkeyed wildcards).
    pub fn touches_key(&self, key: i64) -> bool {
        self.unkeyed_reads
            || self.unkeyed_writes
            || self.reads.binary_search(&key).is_ok()
            || self.writes.binary_search(&key).is_ok()
    }
}

/// A record in the durable write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// The transaction's intentions at this object are durably staged.
    Prepare {
        /// The staged (operation, result) pairs, in execution order.
        ops: Vec<OpResult>,
    },
    /// The transaction committed (its staged intentions must be redone).
    Commit,
    /// The transaction committed, and the record carries its read/write
    /// footprint — the *dependency log* variant of [`RecordKind::Commit`].
    /// Replay semantics are identical; the footprint lets recovery order
    /// only genuinely conflicting commits instead of the whole log.
    CommitDep {
        /// The transaction's read/write key footprint at this object.
        footprint: KeyFootprint,
    },
    /// The transaction aborted (its staged intentions are discarded).
    Abort,
}

impl RecordKind {
    /// Whether this record marks a durable commit (with or without a
    /// dependency footprint).
    pub fn is_commit(&self) -> bool {
        matches!(self, RecordKind::Commit | RecordKind::CommitDep { .. })
    }
}

/// One durable log record: which transaction, at which object, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The transaction the record belongs to.
    pub txn: ActivityId,
    /// The object whose state the record concerns.
    pub object: ObjectId,
    /// The payload.
    pub kind: RecordKind,
}

/// The durable-log interface shared by every recovery substrate.
///
/// Three implementations speak it: the simulated in-memory [`StableLog`]
/// here, the on-disk segmented write-ahead log in `atomicity-durable`
/// (`Wal`), and whatever a test wants to inject. The contract mirrors
/// what intentions-list recovery needs and nothing more:
///
/// - [`DurableLog::append`] stages a record in the log and returns its
///   log sequence number (LSN — the zero-based position of the record in
///   the logical record sequence). An appended record is **ordered** but
///   not necessarily durable yet.
/// - [`DurableLog::sync`] blocks until every record appended so far is
///   durable. A store must force the log (append + sync) before acting on
///   a record — before voting "prepared", and before acknowledging a
///   commit. Group-commit logs batch many concurrent `sync` calls into
///   one device flush.
/// - [`DurableLog::records`] returns the surviving logical record
///   sequence, in append order. After a crash this is the recovery
///   input: a prefix of what was appended (never a subsequence with
///   holes — torn tails are truncated, not skipped).
pub trait DurableLog: Send + Sync + std::fmt::Debug {
    /// Appends a record to the log, returning its LSN. The record is
    /// ordered immediately but durable only once [`DurableLog::sync`]
    /// returns (or the implementation syncs eagerly).
    fn append(&self, record: LogRecord) -> u64;

    /// Blocks until every record appended before this call is durable.
    fn sync(&self);

    /// A copy of all surviving records, in append order.
    fn records(&self) -> Vec<LogRecord>;

    /// A copy of the records at logical positions `from..`, in append
    /// order. The default clones the whole sequence and discards the
    /// prefix; implementations with random access should override it —
    /// this is the incremental-scan path that keeps
    /// [`IntentionsStore`]'s per-transaction index from re-reading the
    /// log on every commit.
    fn records_from(&self, from: usize) -> Vec<LogRecord> {
        let mut all = self.records();
        if from >= all.len() {
            return Vec::new();
        }
        all.drain(..from);
        all
    }

    /// Number of records in the logical sequence.
    fn len(&self) -> usize;

    /// Whether the log holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Simulated stable storage: an append-only record log that survives
/// crashes. Clones share the same storage (it is the "disk").
#[derive(Debug, Clone)]
pub struct StableLog {
    records: Arc<Mutex<Vec<LogRecord>>>,
}

impl StableLog {
    /// Creates empty stable storage.
    pub fn new() -> Self {
        StableLog {
            records: Arc::new(Mutex::new(Rank::RecoveryRecords, Vec::new())),
        }
    }

    /// Durably appends a record.
    pub fn append(&self, record: LogRecord) {
        self.records.lock().push(record);
    }

    /// A copy of all records, in append order.
    pub fn records(&self) -> Vec<LogRecord> {
        self.records.lock().clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Truncates the log to its first `n` records — used by the crash
    /// injector to model a crash that lost a suffix of un-flushed records.
    pub fn truncate(&self, n: usize) {
        self.records.lock().truncate(n);
    }
}

impl Default for StableLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DurableLog for StableLog {
    fn append(&self, record: LogRecord) -> u64 {
        let mut records = self.records.lock();
        records.push(record);
        records.len() as u64 - 1
    }

    /// Simulated storage is durable the instant it is appended.
    fn sync(&self) {}

    fn records(&self) -> Vec<LogRecord> {
        StableLog::records(self)
    }

    fn records_from(&self, from: usize) -> Vec<LogRecord> {
        let records = self.records.lock();
        records.get(from..).map(<[_]>::to_vec).unwrap_or_default()
    }

    fn len(&self) -> usize {
        StableLog::len(self)
    }
}

/// The outcome of crash recovery at one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Transactions whose effects were reinstalled (committed).
    pub redone: Vec<ActivityId>,
    /// Transactions found prepared but neither committed nor aborted; the
    /// coordinator must be asked (two-phase-commit in-doubt set).
    pub in_doubt: Vec<ActivityId>,
    /// Transactions whose staged effects were discarded.
    pub discarded: Vec<ActivityId>,
}

/// Intentions-list (redo) recovery for an object with specification `S`.
///
/// Usage: stage a transaction's intentions durably with
/// [`IntentionsStore::prepare`]; on [`IntentionsStore::commit`] the commit
/// record is forced and the intentions are applied to the volatile cached
/// state. [`IntentionsStore::crash`] wipes the cache;
/// [`IntentionsStore::recover`] rebuilds it by redoing committed
/// intentions in commit order and reports in-doubt transactions.
#[derive(Debug)]
pub struct IntentionsStore<S: SequentialSpec> {
    spec: S,
    object: ObjectId,
    log: Arc<dyn DurableLog>,
    /// Cached committed state frontier; `None` after a crash until
    /// recovery runs.
    volatile: Mutex<Option<Vec<S::State>>>,
    /// Volatile per-transaction index over this object's slice of the
    /// log, caught up incrementally via [`DurableLog::records_from`].
    /// Purely an accelerator: every answer it gives is the answer a full
    /// log scan would give, and it is discarded on crash. Without it,
    /// every `commit`/`outcome`/`prepared` call re-reads the whole
    /// shared log — quadratic over a long-lived store, which is what the
    /// partitioned service's hot path cannot afford.
    index: Mutex<TxnIndex>,
}

/// The incremental index: how far into the log it has looked, the last
/// staged intentions per transaction, and the last durable outcome per
/// transaction (both "last wins", matching the scan they replace).
#[derive(Debug, Default)]
struct TxnIndex {
    seen: usize,
    staged: BTreeMap<ActivityId, Vec<OpResult>>,
    outcome: BTreeMap<ActivityId, bool>,
}

impl TxnIndex {
    /// Takes in one record of the object, keeping a prepare's operations.
    fn absorb(&mut self, record: LogRecord) {
        match record.kind {
            RecordKind::Prepare { ops } => {
                self.staged.insert(record.txn, ops);
            }
            RecordKind::Commit | RecordKind::CommitDep { .. } => {
                self.outcome.insert(record.txn, true);
            }
            RecordKind::Abort => {
                self.outcome.insert(record.txn, false);
            }
        }
    }

    /// The operations `txn` last staged, none if it staged nothing.
    fn staged(&self, txn: ActivityId) -> &[OpResult] {
        self.staged.get(&txn).map_or(&[], Vec::as_slice)
    }
}

impl<S: SequentialSpec> IntentionsStore<S> {
    /// Creates the store over any durable log. Log implementations whose
    /// clones share storage (like [`StableLog`] and the disk WAL) can be
    /// passed by clone so several stores — or the crash injector — keep
    /// handles onto the same log.
    pub fn new<L: DurableLog + 'static>(spec: S, object: ObjectId, log: L) -> Self {
        Self::shared(spec, object, Arc::new(log))
    }

    /// Creates the store over an already-shared durable log handle (the
    /// form used when many objects multiplex one write-ahead log).
    pub fn shared(spec: S, object: ObjectId, log: Arc<dyn DurableLog>) -> Self {
        let initial = vec![spec.initial()];
        IntentionsStore {
            spec,
            object,
            log,
            volatile: Mutex::new(Rank::RecoveryVolatile, Some(initial)),
            index: Mutex::new(Rank::RecoveryIndex, TxnIndex::default()),
        }
    }

    /// The object this store recovers.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// Durably stages `ops` as the transaction's intentions here
    /// (the "prepared" vote of two-phase commit). The log is forced
    /// before this returns: a vote is never given on a volatile prepare.
    pub fn prepare(&self, txn: ActivityId, ops: Vec<OpResult>) {
        self.log.append(LogRecord {
            txn,
            object: self.object,
            kind: RecordKind::Prepare { ops },
        });
        self.log.sync();
    }

    /// Durably commits and applies the staged intentions to the cache.
    ///
    /// Idempotent: a repeated commit (e.g. a duplicated decision message)
    /// is a no-op, as is a commit after an abort — the first durable
    /// outcome wins.
    ///
    /// The store does not judge the intentions: the concurrency control
    /// above it staged a list that replays. A list that does not replay
    /// from the committed state is still committed durably, but changes
    /// neither the cache nor, since [`IntentionsStore::recover`] skips it
    /// the same way, the recovered state.
    pub fn commit(&self, txn: ActivityId) {
        self.commit_kind(txn, |_| RecordKind::Commit);
    }

    /// Durably commits with a dependency-log record: the commit record
    /// carries the transaction's read/write key footprint so recovery can
    /// replay non-conflicting commits in parallel. Idempotent like
    /// [`IntentionsStore::commit`].
    pub fn commit_with_footprint(&self, txn: ActivityId, footprint: KeyFootprint) {
        self.commit_kind(txn, |_| RecordKind::CommitDep { footprint });
    }

    /// Durably commits the staged footprint derived from the staged
    /// operations themselves (the common case: the dependency record is
    /// computed from what was prepared, not re-declared by the caller).
    pub fn commit_dependency_logged(&self, txn: ActivityId) {
        self.commit_kind(txn, |ops| RecordKind::CommitDep {
            footprint: KeyFootprint::from_ops(&self.spec, ops),
        });
    }

    /// Commits `txn` unless it already has a durable outcome: appends and
    /// forces the record `kind` builds from the staged operations, then
    /// replays those same operations into the cache. The index is read
    /// once, for both the outcome and the operations, and the operations
    /// are borrowed from it, not copied: the index lock is held across
    /// the append, the force and the replay, all of which rank above it.
    /// So commits at one store take turns, force included; stores
    /// sharing one log still force together.
    fn commit_kind(&self, txn: ActivityId, kind: impl FnOnce(&[OpResult]) -> RecordKind) {
        self.with_index(|idx| {
            if idx.outcome.contains_key(&txn) {
                return;
            }
            let ops = idx.staged(txn);
            let kind = kind(ops);
            debug_assert!(kind.is_commit());
            self.log.append(LogRecord {
                txn,
                object: self.object,
                kind,
            });
            self.log.sync();
            if let Some(states) = self.volatile.lock().as_mut() {
                replay_into(&self.spec, states, ops);
            }
        });
    }

    /// Durably aborts, discarding staged intentions. Idempotent, like
    /// [`IntentionsStore::commit`].
    pub fn abort(&self, txn: ActivityId) {
        if self.outcome(txn).is_some() {
            return;
        }
        self.log.append(LogRecord {
            txn,
            object: self.object,
            kind: RecordKind::Abort,
        });
        self.log.sync();
    }

    /// The committed state frontier.
    ///
    /// # Panics
    ///
    /// Panics if called after a crash before [`IntentionsStore::recover`].
    pub fn committed_frontier(&self) -> Vec<S::State> {
        self.volatile
            .lock()
            .clone()
            .expect("crashed store: run recover() first")
    }

    /// Simulates a crash: the volatile cache is lost; stable storage
    /// survives. The per-transaction index is volatile too — it is
    /// discarded here so a crash injector that truncated the log (losing
    /// un-flushed records) is never answered from pre-crash memory.
    pub fn crash(&self) {
        *self.volatile.lock() = None;
        *self.index.lock() = TxnIndex::default();
    }

    /// Brings the per-transaction index up to date with the log and runs
    /// `f` over it. The log is read *outside* the index lock (the log has
    /// locks of its own); overlapping catch-ups are reconciled by
    /// re-checking `seen` before absorbing. A log that shrank underneath
    /// us (checkpoint fold, or a crash injector truncating without
    /// [`IntentionsStore::crash`]) resets the index and rescans.
    fn with_index<R>(&self, f: impl FnOnce(&TxnIndex) -> R) -> R {
        let len = self.log.len();
        let start = {
            let mut idx = self.index.lock();
            if len < idx.seen {
                *idx = TxnIndex::default();
            }
            if idx.seen >= len {
                return f(&idx);
            }
            idx.seen
        };
        let fetched = self.log.records_from(start);
        let mut idx = self.index.lock();
        // `seen` may have moved while the lock was released: forward (a
        // concurrent catch-up — absorb only the remainder) or back to
        // zero (a concurrent crash reset — absorb nothing; the next call
        // rescans from the log).
        let end = start + fetched.len();
        if idx.seen >= start && idx.seen < end {
            for r in fetched.into_iter().skip(idx.seen - start) {
                if r.object == self.object {
                    idx.absorb(r);
                }
            }
            idx.seen = end;
        }
        f(&idx)
    }

    /// Whether the store is crashed (needs recovery).
    pub fn is_crashed(&self) -> bool {
        self.volatile.lock().is_none()
    }

    /// Rebuilds the committed state from stable storage by redoing
    /// committed intentions in commit order; reports in-doubt transactions
    /// (prepared, no outcome record).
    ///
    /// The log is read once: the records it hands over become the
    /// per-transaction index (a prepare's operations are moved into it,
    /// not copied), and each commit is redone from the index in place.
    pub fn recover(&self) -> RecoveryOutcome {
        let (states, index, outcome) = redo(&self.spec, self.object, self.log.records());
        *self.volatile.lock() = Some(states);
        *self.index.lock() = index;
        outcome
    }

    /// Resolves an in-doubt transaction after consulting the coordinator.
    pub fn resolve_in_doubt(&self, txn: ActivityId, commit: bool) {
        if commit {
            self.commit(txn);
        } else {
            self.abort(txn);
        }
    }

    /// The durable outcome of `txn` at this object: `Some(true)` if a
    /// commit record exists, `Some(false)` for an abort record, `None`
    /// when the transaction is unprepared or in doubt.
    pub fn outcome(&self, txn: ActivityId) -> Option<bool> {
        self.with_index(|idx| idx.outcome.get(&txn).copied())
    }

    /// The underlying stable storage (shared; its length is a recovery
    /// cost proxy).
    pub fn stable_log(&self) -> &dyn DurableLog {
        self.log.as_ref()
    }

    /// Whether `txn` has a durable prepare record here.
    pub fn prepared(&self, txn: ActivityId) -> bool {
        self.with_index(|idx| idx.staged.contains_key(&txn))
    }

    /// Replays, from the initial state, the staged intentions of exactly
    /// the committed transactions selected by `filter`, in commit-record
    /// order.
    ///
    /// This serves timestamped snapshot reads over the durable log
    /// (distributed hybrid-atomicity audits): with commutative intentions
    /// the result is independent of the commit-record order, so the
    /// filter "commit timestamp < t" yields the state a reader with
    /// timestamp `t` must see.
    pub fn replay_committed_subset(&self, filter: impl Fn(ActivityId) -> bool) -> Vec<S::State> {
        let records = self.log.records();
        self.with_index(|idx| {
            let mut states = vec![self.spec.initial()];
            let mut done: BTreeSet<ActivityId> = BTreeSet::new();
            for r in &records {
                if r.object != self.object || !r.kind.is_commit() {
                    continue;
                }
                if !filter(r.txn) || !done.insert(r.txn) {
                    continue;
                }
                replay_into(&self.spec, &mut states, idx.staged(r.txn));
            }
            states
        })
    }
}

/// Redo recovery of `object` from `records`, taken by value: the
/// committed state frontier and what became of each transaction, exactly
/// as [`IntentionsStore::recover`] installs and reports them, for a
/// caller that holds the records itself and needs no store. The prepares'
/// operations are moved into the recovery's index, never copied.
pub fn redo_log<S: SequentialSpec>(
    spec: &S,
    object: ObjectId,
    records: Vec<LogRecord>,
) -> (Vec<S::State>, RecoveryOutcome) {
    let (states, _, outcome) = redo(spec, object, records);
    (states, outcome)
}

/// [`redo_log`], also handing back the transaction index it built.
fn redo<S: SequentialSpec>(
    spec: &S,
    object: ObjectId,
    records: Vec<LogRecord>,
) -> (Vec<S::State>, TxnIndex, RecoveryOutcome) {
    let mut index = TxnIndex {
        seen: records.len(),
        ..TxnIndex::default()
    };
    // One pass: membership is probed in ordered sets, the `Vec`s only
    // keep the reported order.
    let mut redone: Vec<ActivityId> = Vec::new();
    let mut discarded: Vec<ActivityId> = Vec::new();
    let mut decided: BTreeSet<ActivityId> = BTreeSet::new();
    // Undecided transactions, with the log position of the prepare
    // that (re-)opened each — their reported order.
    let mut open: BTreeMap<ActivityId, usize> = BTreeMap::new();
    for (at, r) in records.into_iter().enumerate() {
        if r.object != object {
            continue;
        }
        let (txn, prepare, commit) = (
            r.txn,
            matches!(r.kind, RecordKind::Prepare { .. }),
            r.kind.is_commit(),
        );
        index.absorb(r);
        if prepare {
            open.entry(txn).or_insert(at);
            continue;
        }
        // Duplicate outcome records (a crash can lose the in-memory
        // idempotency state) are applied once: the first one wins.
        if !decided.insert(txn) {
            continue;
        }
        open.remove(&txn);
        if commit {
            redone.push(txn);
        } else {
            discarded.push(txn);
        }
    }
    // Redone in commit order, each from the operations its
    // transaction staged last anywhere in the log.
    let mut states = vec![spec.initial()];
    for txn in &redone {
        replay_into(spec, &mut states, index.staged(*txn));
    }
    let mut in_doubt: Vec<(usize, ActivityId)> =
        open.into_iter().map(|(txn, at)| (at, txn)).collect();
    in_doubt.sort_unstable();
    let outcome = RecoveryOutcome {
        redone,
        in_doubt: in_doubt.into_iter().map(|(_, txn)| txn).collect(),
        discarded,
    };
    (states, index, outcome)
}

/// Undo-log recovery: eager in-place update with durable operation
/// records; aborts and crash recovery *remove* the operations of
/// uncommitted transactions and recompute the state.
///
/// Both the current state and the operation records live in "durable"
/// storage; a crash loses nothing but leaves uncommitted transactions'
/// effects in place, which [`UndoStore::recover`] rolls back. Rollback is
/// by recomputation (replaying the surviving operations from the initial
/// state), which stays exact even when transactions' operations
/// interleave — as long as the concurrency control above this store kept
/// the surviving operations replayable, which any of the engines in
/// [`crate::engine`] does.
#[derive(Debug)]
pub struct UndoStore<S: SequentialSpec> {
    spec: S,
    object: ObjectId,
    durable: Mutex<UndoDurable<S>>,
}

#[derive(Debug)]
struct UndoDurable<S: SequentialSpec> {
    /// Current state, including uncommitted effects.
    state: Vec<S::State>,
    /// Applied operations in order, tagged by owner.
    applied: Vec<(ActivityId, OpResult)>,
    committed: BTreeSet<ActivityId>,
}

impl<S: SequentialSpec> UndoStore<S> {
    /// Creates the store.
    pub fn new(spec: S, object: ObjectId) -> Self {
        let initial = vec![spec.initial()];
        UndoStore {
            spec,
            object,
            durable: Mutex::new(
                Rank::RecoveryDurable,
                UndoDurable {
                    state: initial,
                    applied: Vec::new(),
                    committed: BTreeSet::new(),
                },
            ),
        }
    }

    /// The object this store recovers.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// Applies one completed operation in place, writing the operation
    /// record first. Returns `false` (and applies nothing) if the recorded
    /// result is not replayable in the current state.
    pub fn apply(&self, txn: ActivityId, op: OpResult) -> bool {
        let mut d = self.durable.lock();
        if !replay_into(&self.spec, &mut d.state, std::slice::from_ref(&op)) {
            return false;
        }
        d.applied.push((txn, op));
        true
    }

    /// Commits: `txn`'s operations become permanent.
    pub fn commit(&self, txn: ActivityId) {
        self.durable.lock().committed.insert(txn);
    }

    /// Aborts: removes `txn`'s operations and recomputes the state.
    pub fn abort(&self, txn: ActivityId) {
        let mut d = self.durable.lock();
        d.applied.retain(|(t, _)| *t != txn);
        Self::recompute(&self.spec, &mut d);
    }

    /// Crash recovery: removes the operations of every uncommitted
    /// transaction, recomputes the state, and reports what was undone.
    pub fn recover(&self) -> Vec<ActivityId> {
        let mut d = self.durable.lock();
        let committed = d.committed.clone();
        let mut undone = Vec::new();
        let mut seen = BTreeSet::new();
        d.applied.retain(|(t, _)| {
            let keep = committed.contains(t);
            if !keep && seen.insert(*t) {
                undone.push(*t);
            }
            keep
        });
        Self::recompute(&self.spec, &mut d);
        undone
    }

    fn recompute(spec: &S, d: &mut UndoDurable<S>) {
        let mut states = vec![spec.initial()];
        let replayed = d
            .applied
            .iter()
            .all(|(_, op)| replay_into(spec, &mut states, std::slice::from_ref(op)));
        debug_assert!(
            replayed,
            "surviving operations must stay replayable after rollback"
        );
        if replayed {
            d.state = states;
        }
    }

    /// The current state frontier (includes uncommitted effects until
    /// recovery or abort removes them).
    pub fn state(&self) -> Vec<S::State> {
        self.durable.lock().state.clone()
    }

    /// Whether `txn` committed here.
    pub fn is_committed(&self, txn: ActivityId) -> bool {
        self.durable.lock().committed.contains(&txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
    use atomicity_spec::{op, Value};

    fn t(n: u32) -> ActivityId {
        ActivityId::new(n)
    }

    fn x() -> ObjectId {
        ObjectId::new(1)
    }

    #[test]
    fn intentions_commit_survives_crash() {
        let log = StableLog::new();
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log);
        store.prepare(t(1), vec![(op("deposit", [10]), Value::ok())]);
        store.commit(t(1));
        assert_eq!(store.committed_frontier(), vec![10]);
        store.crash();
        assert!(store.is_crashed());
        let outcome = store.recover();
        assert_eq!(outcome.redone, vec![t(1)]);
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(store.committed_frontier(), vec![10]);
    }

    #[test]
    fn intentions_uncommitted_are_invisible_after_crash() {
        let log = StableLog::new();
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log);
        store.prepare(t(1), vec![(op("deposit", [10]), Value::ok())]);
        store.crash();
        let outcome = store.recover();
        assert_eq!(outcome.in_doubt, vec![t(1)]);
        assert_eq!(store.committed_frontier(), vec![0]);
        // Coordinator says commit:
        store.resolve_in_doubt(t(1), true);
        assert_eq!(store.committed_frontier(), vec![10]);
    }

    #[test]
    fn intentions_abort_discards() {
        let log = StableLog::new();
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log);
        store.prepare(t(1), vec![(op("deposit", [10]), Value::ok())]);
        store.abort(t(1));
        store.crash();
        let outcome = store.recover();
        assert_eq!(outcome.discarded, vec![t(1)]);
        assert_eq!(store.committed_frontier(), vec![0]);
    }

    #[test]
    fn intentions_redo_in_commit_order() {
        let log = StableLog::new();
        let store = IntentionsStore::new(IntSetSpec::new(), x(), log);
        store.prepare(t(1), vec![(op("insert", [3]), Value::ok())]);
        store.prepare(t(2), vec![(op("delete", [3]), Value::ok())]);
        store.commit(t(1));
        store.commit(t(2));
        store.crash();
        store.recover();
        // insert then delete: 3 absent.
        let frontier = store.committed_frontier();
        assert!(frontier.iter().all(|s| !s.contains(&3)));
    }

    #[test]
    fn lost_log_suffix_loses_unflushed_outcome() {
        let log = StableLog::new();
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log.clone());
        store.prepare(t(1), vec![(op("deposit", [10]), Value::ok())]);
        let flushed = log.len();
        store.commit(t(1));
        // Crash losing the commit record: the transaction is back in doubt.
        log.truncate(flushed);
        store.crash();
        let outcome = store.recover();
        assert_eq!(outcome.in_doubt, vec![t(1)]);
        assert_eq!(store.committed_frontier(), vec![0]);
    }

    /// Appends raw records, bypassing the store's first-outcome-wins
    /// idempotency — the shapes a crash or a duplicated decision leaves.
    fn raw_log(records: &[(u32, RecordKind)]) -> StableLog {
        let log = StableLog::new();
        for (txn, kind) in records {
            log.append(LogRecord {
                txn: t(*txn),
                object: x(),
                kind: kind.clone(),
            });
        }
        log
    }

    fn deposit(amount: i64) -> RecordKind {
        RecordKind::Prepare {
            ops: vec![(op("deposit", [amount]), Value::ok())],
        }
    }

    #[test]
    fn duplicate_outcome_records_apply_once_and_first_wins() {
        use RecordKind::{Abort, Commit};
        let log = raw_log(&[
            (1, deposit(10)),
            (1, Commit),
            (1, Commit),
            (1, Abort),
            (2, deposit(5)),
            (2, Abort),
            (2, Commit),
        ]);
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log);
        store.crash();
        let outcome = store.recover();
        assert_eq!(outcome.redone, vec![t(1)]);
        assert_eq!(outcome.discarded, vec![t(2)]);
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(store.committed_frontier(), vec![10]);
        // The snapshot-read replay also applies a duplicated commit once;
        // it follows commit records only, so t2's late commit counts.
        assert_eq!(store.replay_committed_subset(|_| true), vec![15]);
        assert_eq!(store.replay_committed_subset(|txn| txn == t(1)), vec![10]);
    }

    #[test]
    fn abort_after_prepare_leaves_the_rest_in_doubt_in_prepare_order() {
        use RecordKind::{Abort, Commit};
        let log = raw_log(&[
            (4, deposit(4)),
            (1, deposit(1)),
            (2, deposit(2)),
            (3, deposit(3)),
            (4, deposit(40)),
            (2, Abort),
            (3, Commit),
        ]);
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log);
        store.crash();
        let outcome = store.recover();
        assert_eq!(outcome.redone, vec![t(3)]);
        assert_eq!(outcome.discarded, vec![t(2)]);
        // First-prepare order, not id order; a repeated prepare of an
        // undecided transaction does not move it.
        assert_eq!(outcome.in_doubt, vec![t(4), t(1)]);
        assert_eq!(store.committed_frontier(), vec![3]);
    }

    #[test]
    fn re_prepare_after_abort_is_in_doubt_again_but_stays_discarded() {
        use RecordKind::{Abort, Commit};
        let log = raw_log(&[
            (1, deposit(10)),
            (2, deposit(20)),
            (1, Abort),
            (1, deposit(11)),
            (1, Commit),
        ]);
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log);
        store.crash();
        let outcome = store.recover();
        // The first durable outcome wins: the late commit is ignored, so
        // nothing is redone and the re-prepare stays open — behind t2,
        // which was prepared before it re-entered.
        assert!(outcome.redone.is_empty());
        assert_eq!(outcome.discarded, vec![t(1)]);
        assert_eq!(outcome.in_doubt, vec![t(2), t(1)]);
        assert_eq!(store.committed_frontier(), vec![0]);
    }

    #[test]
    fn dependency_logged_commit_recovers_like_value_commit() {
        use atomicity_spec::specs::KvMapSpec;
        let log = StableLog::new();
        let store = IntentionsStore::new(KvMapSpec::with_initial([(1, 50), (2, 50)]), x(), log);
        store.prepare(
            t(1),
            vec![
                (op("adjust", [1, -30]), Value::ok()),
                (op("adjust", [2, 30]), Value::ok()),
            ],
        );
        store.commit_dependency_logged(t(1));
        // The commit record carries the derived footprint.
        let commits: Vec<_> = store
            .stable_log()
            .records()
            .into_iter()
            .filter(|r| r.kind.is_commit())
            .collect();
        assert_eq!(commits.len(), 1);
        match &commits[0].kind {
            RecordKind::CommitDep { footprint } => {
                assert_eq!(footprint.writes, vec![1, 2]);
                assert!(footprint.reads.is_empty());
                assert!(!footprint.unkeyed_reads && !footprint.unkeyed_writes);
            }
            other => panic!("expected CommitDep, got {other:?}"),
        }
        // Recovery redoes it exactly like a plain commit.
        store.crash();
        let outcome = store.recover();
        assert_eq!(outcome.redone, vec![t(1)]);
        let frontier = store.committed_frontier();
        assert_eq!(frontier[0].get(&1), Some(&20));
        assert_eq!(frontier[0].get(&2), Some(&80));
        assert_eq!(store.outcome(t(1)), Some(true));
    }

    #[test]
    fn a_commit_that_does_not_replay_changes_neither_cache_nor_recovery() {
        use atomicity_spec::specs::KvMapSpec;
        let store = IntentionsStore::new(KvMapSpec::new(), x(), StableLog::new());
        store.prepare(t(1), vec![(op("put", [1, 10]), Value::Nil)]);
        store.commit(t(1));
        let before = store.committed_frontier();
        // The second `put` claims the wrong old value: the list is refused
        // after its first operation has moved the cache.
        store.prepare(
            t(2),
            vec![
                (op("put", [2, 20]), Value::Nil),
                (op("put", [1, 11]), Value::from(99)),
            ],
        );
        store.commit(t(2));
        assert_eq!(store.outcome(t(2)), Some(true));
        assert_eq!(store.committed_frontier(), before);
        store.crash();
        assert_eq!(store.recover().redone, vec![t(1), t(2)]);
        assert_eq!(store.committed_frontier(), before);
        assert_eq!(before, vec![[(1, 10)].into()]);
    }

    #[test]
    fn dependency_commit_is_idempotent_across_kinds() {
        let log = StableLog::new();
        let store = IntentionsStore::new(BankAccountSpec::new(), x(), log.clone());
        store.prepare(t(1), vec![(op("deposit", [10]), Value::ok())]);
        store.commit_with_footprint(t(1), KeyFootprint::new(vec![], vec![1]));
        let len = log.len();
        // A later plain commit (duplicated decision) is a no-op.
        store.commit(t(1));
        store.commit_dependency_logged(t(1));
        assert_eq!(log.len(), len, "first durable outcome wins");
        assert_eq!(store.committed_frontier(), vec![10]);
    }

    #[test]
    fn footprint_from_ops_classifies_reads_writes_and_scans() {
        use atomicity_spec::specs::KvMapSpec;
        let spec = KvMapSpec::new();
        let fp = KeyFootprint::from_ops(
            &spec,
            &[
                (op("adjust", [3, 5]), Value::ok()),
                (op("adjust", [3, 2]), Value::ok()),
                (op("get", [7]), Value::Nil),
                (op("put", [9, 1]), Value::Nil),
            ],
        );
        assert_eq!(fp.reads, vec![7]);
        assert_eq!(fp.writes, vec![3, 9]);
        assert!(!fp.unkeyed_reads && !fp.unkeyed_writes);
        assert!(fp.writes_key(3) && !fp.writes_key(7));
        assert!(fp.touches_key(7) && !fp.touches_key(4));

        let scan = KeyFootprint::from_ops(&spec, &[(op("sum", [] as [i64; 0]), Value::from(0))]);
        assert!(scan.unkeyed_reads && !scan.unkeyed_writes);
        assert!(scan.touches_key(42), "scans touch every key");
        assert!(!scan.writes_key(42));
        assert!(!scan.is_empty());
        assert!(KeyFootprint::default().is_empty());
    }

    #[test]
    fn undo_store_rolls_back_aborts() {
        let store = UndoStore::new(BankAccountSpec::new(), x());
        assert!(store.apply(t(1), (op("deposit", [10]), Value::ok())));
        assert!(store.apply(t(1), (op("withdraw", [4]), Value::ok())));
        assert_eq!(store.state(), vec![6]);
        store.abort(t(1));
        assert_eq!(store.state(), vec![0]);
    }

    #[test]
    fn undo_store_recovery_undoes_uncommitted_only() {
        let store = UndoStore::new(BankAccountSpec::new(), x());
        store.apply(t(1), (op("deposit", [10]), Value::ok()));
        store.commit(t(1));
        store.apply(t(2), (op("withdraw", [3]), Value::ok()));
        // Crash: t2 never committed.
        let undone = store.recover();
        assert_eq!(undone, vec![t(2)]);
        assert_eq!(store.state(), vec![10]);
        assert!(store.is_committed(t(1)));
        assert!(!store.is_committed(t(2)));
    }

    #[test]
    fn undo_store_reports_undone_in_first_operation_order() {
        let store = UndoStore::new(IntSetSpec::new(), x());
        store.apply(t(3), (op("insert", [3]), Value::ok()));
        store.apply(t(1), (op("insert", [1]), Value::ok()));
        store.apply(t(3), (op("insert", [30]), Value::ok()));
        store.apply(t(2), (op("insert", [2]), Value::ok()));
        store.commit(t(2));
        assert_eq!(store.recover(), vec![t(3), t(1)]);
        assert!(store.state().iter().all(|s| s.len() == 1 && s.contains(&2)));
    }

    #[test]
    fn undo_store_rejects_unreplayable_ops() {
        let store = UndoStore::new(BankAccountSpec::new(), x());
        // withdraw claiming ok with no funds: rejected, state unchanged.
        assert!(!store.apply(t(1), (op("withdraw", [5]), Value::ok())));
        assert_eq!(store.state(), vec![0]);
    }

    #[test]
    fn interleaved_undo_restores_exact_states() {
        let store = UndoStore::new(IntSetSpec::new(), x());
        store.apply(t(1), (op("insert", [1]), Value::ok()));
        store.apply(t(2), (op("insert", [2]), Value::ok()));
        store.apply(t(1), (op("insert", [3]), Value::ok()));
        store.commit(t(2));
        store.abort(t(1));
        let state = store.state();
        assert!(state
            .iter()
            .all(|s| s.contains(&2) && !s.contains(&1) && !s.contains(&3)));
    }
}
