//! Heap bytes that stay live per completed transaction: what a long run
//! keeps of every commit once its transactions are done. A counting
//! allocator tracks bytes allocated minus bytes freed on this test's own
//! thread, so the figures use no clock and no resident-set reading. Each
//! case runs `N` transactions, reads the live bytes, runs `N` more and
//! reads again; the slope is the difference over `N`.
//!
//! Both slopes are 0. A manager that kept a record of every transaction
//! it began, participant list included, left 82.00 bytes per empty
//! begin/commit pair and 146.00 per drained one-deposit transaction.

use atomicity_core::{AtomicObject, DynamicObject, Protocol, TxnManager};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, ObjectId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread: the test harness
    /// runs others.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // A thread being torn down has no counter left to move.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

/// The system allocator, counting live bytes per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // under `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 4_096;
/// Transactions between two polls of the retiring tap; it divides `N`, so
/// both readings follow a poll.
const DRAIN_EVERY: usize = 64;

/// Live bytes per extra transaction: `run` called `N` times, then `N`
/// more.
fn slope(mut run: impl FnMut(usize)) -> f64 {
    let live = || LIVE.with(Cell::get);
    (0..N).for_each(&mut run);
    let first = live();
    (N..2 * N).for_each(&mut run);
    (live() - first) as f64 / N as f64
}

#[test]
fn an_empty_transaction_leaves_nothing_behind() {
    let mgr = TxnManager::new(Protocol::Dynamic);
    let per_txn = slope(|_| {
        mgr.commit(mgr.begin()).expect("nothing can veto");
    });
    println!("{per_txn:.2} live bytes per empty begin/commit pair");
    assert_eq!(
        per_txn, 0.0,
        "an empty begin/commit pair must free everything it allocates"
    );
}

#[test]
fn a_drained_deposit_leaves_nothing_behind() {
    let mgr = TxnManager::new(Protocol::Dynamic);
    let account = DynamicObject::new(ObjectId::new(1), BankAccountSpec::with_initial(0), &mgr);
    let mut tap = mgr.log().tap_retiring();
    let per_txn = slope(|i| {
        let t = mgr.begin();
        account
            .invoke(&t, op("deposit", [1]))
            .expect("a deposit is always admitted");
        mgr.commit(t).expect("nothing can veto");
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            tap.poll(|_, _| {});
        }
    });
    println!("{per_txn:.2} live bytes per drained one-deposit transaction");
    assert_eq!(
        per_txn, 0.0,
        "a drained deposit must free everything it allocates"
    );
}
