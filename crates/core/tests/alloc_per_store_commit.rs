//! How many heap allocations `IntentionsStore::commit` makes per commit:
//! one bank account over simulated stable storage, each transaction a
//! prepared three-operation list (two deposits and a withdrawal the
//! balance covers) committed right after its prepare, the path every
//! durable and every sharded commit takes. Only `commit` is counted, on
//! this test's own thread.
//!
//! A commit used to copy the staged list out of the transaction index to
//! replay it after the index lock was released: 16.3 allocations per
//! commit. Borrowing the list under the index lock makes 9.3, most of
//! them the log's copy of the new prepare record that the index catches
//! up on (the list and a name and an argument vector per operation) and
//! the vector that copy comes in.

use atomicity_core::recovery::{IntentionsStore, StableLog};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, ActivityId, ObjectId, OpResult, Value};
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

/// Allocations per commit `IntentionsStore::commit` may make: 9.3 are
/// made.
const MAX_ALLOCS_PER_COMMIT: f64 = 10.0;

/// Allocations per commit over `commits` prepared-then-committed
/// transactions, counting the commits only.
fn allocs_per_commit(commits: u32) -> f64 {
    let store = IntentionsStore::new(BankAccountSpec::new(), ObjectId::new(1), StableLog::new());
    let mut made = 0;
    for i in 0..commits {
        let txn = ActivityId::new(i + 1);
        let ops: Vec<OpResult> = vec![
            (op("deposit", [5]), Value::ok()),
            (op("deposit", [3]), Value::ok()),
            (op("withdraw", [4]), Value::ok()),
        ];
        store.prepare(txn, ops);
        let before = ALLOCS.with(Cell::get);
        store.commit(txn);
        made += ALLOCS.with(Cell::get) - before;
    }
    assert_eq!(store.outcome(ActivityId::new(commits)), Some(true));
    made as f64 / f64::from(commits)
}

#[test]
fn a_commit_borrows_its_staged_operations() {
    let short = allocs_per_commit(1_000);
    let long = allocs_per_commit(5_000);
    println!("allocations per commit: {short:.2} over 1k commits, {long:.2} over 5k");
    assert!(
        short <= MAX_ALLOCS_PER_COMMIT && long <= MAX_ALLOCS_PER_COMMIT,
        "{short:.2} / {long:.2} allocations per commit, over {MAX_ALLOCS_PER_COMMIT}"
    );
}
