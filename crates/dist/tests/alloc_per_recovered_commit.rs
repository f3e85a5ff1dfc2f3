//! How many heap allocations serial recovery makes per redone commit, and
//! that the count does not grow with the log: one shard's value-logged
//! marketplace history (E15's recovery logs, each commit a three-operation
//! slice: two `adjust`s and a listing `set`) recovered by
//! `deplog::serial_replay`, the production `IntentionsStore::recover`
//! path. Only `serial_replay` is counted, on this test's own thread.
//!
//! A replay that copied the key/value map once per multi-operation slice
//! allocated in proportion to the map, which grows over the run: 149.4
//! allocations per commit over 1 000 commits, 464.6 over 5 000. Applying
//! each slice in place, with inverses to roll back a refused one, made
//! 41.0 and 40.8; reading the log once, moving each prepare's operations
//! into the transaction index and redoing each commit from the index by
//! reference made 20.0 and 19.8; handing recovery one copy of the records
//! by value, instead of appending a copy to a log and reading a second
//! copy back out, makes 12.7 and 12.7.

use atomicity_core::{LogRecord, RecordKind};
use atomicity_dist::deplog::serial_replay;
use atomicity_dist::{Workload, WorkloadKind};
use atomicity_sim::SimRng;
use atomicity_spec::{ActivityId, ObjectId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread: the test harness runs others.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // under `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per redone commit serial recovery may make: 12.7 are made.
/// Most are the one copy of the records `serial_replay` hands recovery by
/// value, 7 per commit: the operation list and a name and an argument
/// vector per operation. Two inverses and their list are the undo log's
/// share.
const MAX_ALLOCS_PER_COMMIT: f64 = 14.0;

/// E15's recovery log as one shard writes it without dependency logging:
/// a prepare and a commit record per marketplace transaction.
fn marketplace_log(commits: usize) -> Vec<LogRecord> {
    let workload = Workload::new(WorkloadKind::Marketplace, 10_000, 0.2, 16, 64);
    let mut rng = SimRng::new(1);
    let object = ObjectId::new(1);
    let mut log = Vec::with_capacity(commits * 2);
    for i in 0..commits {
        let txn = ActivityId::new(i as u32 + 1);
        let ops = workload.next_txn(&mut rng, i as u32);
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::Prepare { ops },
        });
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::Commit,
        });
    }
    log
}

/// Allocations per commit `serial_replay` makes recovering `commits`.
fn allocs_per_commit(commits: usize) -> f64 {
    let log = marketplace_log(commits);
    let before = ALLOCS.with(Cell::get);
    let state = serial_replay(&log);
    let made = ALLOCS.with(Cell::get) - before;
    assert!(state.len() > commits / 2, "the map grows with the run");
    made as f64 / commits as f64
}

#[test]
fn serial_recovery_allocates_per_commit_what_it_did_on_a_shorter_log() {
    let short = allocs_per_commit(1_000);
    let long = allocs_per_commit(5_000);
    println!("allocations per redone commit: {short:.1} over 1k commits, {long:.1} over 5k");
    assert!(
        short <= MAX_ALLOCS_PER_COMMIT && long <= MAX_ALLOCS_PER_COMMIT,
        "{short:.1} / {long:.1} allocations per commit, over {MAX_ALLOCS_PER_COMMIT}"
    );
    assert!(
        long <= short * 1.05,
        "allocations per commit grew with the log: {short:.1} over 1k commits, {long:.1} over 5k"
    );
}
