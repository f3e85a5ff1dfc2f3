//! How many heap allocations certifying one committed transaction costs
//! on the certified path: a retiring tap drained into the hybrid online
//! monitor every 64 transactions, over transfers and audits across 512
//! bank accounts under the hybrid engine (the benchmark's
//! `certified_audit` traffic). Only `LogTap::poll` and
//! `OnlineCertifier::observe` are counted, on this test's own thread;
//! recording, admission and commit are not.

use atomicity_certify::OnlineCertifier;
use atomicity_core::{Admission, AtomicObject, HistoryLog, HybridObject, Protocol, TxnManager};
use atomicity_lint::{Property, Verdict};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, ObjectId, SystemSpec};
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

const ACCOUNTS: u32 = 512;
const TXNS: usize = 2_000;
/// Transactions between two drains of the tap.
const PUMP_EVERY: usize = 64;
/// One transaction in five is a read-only audit of this many accounts.
const AUDIT_READS: usize = 8;

/// Allocations per committed transaction that `poll` and `observe` may
/// make on this traffic: 5.42 are made. A tap that cloned every event
/// through a heap, into a monitor keeping per-activity maps, made 16.41.
/// What is left is mostly the invocation's operation, which `observe`
/// clones out of the borrowed event.
const MAX_ALLOCS_PER_TXN: f64 = 6.0;

/// splitmix64, so the traffic is fixed without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % u64::from(n)) as u32
    }
}

#[test]
fn certifying_a_transaction_allocates_at_most_the_pinned_count() {
    let spec = BankAccountSpec::with_initial(1 << 40);
    let log = HistoryLog::new();
    let mgr = TxnManager::builder(Protocol::Hybrid)
        .log(log.clone())
        .build();
    let accounts: Vec<_> = (1..=ACCOUNTS)
        .map(|i| HybridObject::new(ObjectId::new(i), spec, &mgr))
        .collect();
    let system = (1..=ACCOUNTS).fold(SystemSpec::new(), |s, i| {
        s.with_object(ObjectId::new(i), spec)
    });
    let mut tap = log.tap_retiring();
    let mut monitor = OnlineCertifier::new(Property::Hybrid, system, None);
    let mut allocs = 0u64;
    let mut pump = |monitor: &mut OnlineCertifier| {
        let before = ALLOCS.with(Cell::get);
        tap.poll(|stamp, event| {
            monitor.observe(stamp, &event);
        });
        allocs += ALLOCS.with(Cell::get) - before;
    };
    let mut rng = Rng(1);
    for i in 0..TXNS {
        if i % 5 == 0 {
            let audit = mgr.begin_read_only();
            for _ in 0..AUDIT_READS {
                accounts[rng.below(ACCOUNTS) as usize]
                    .read_at(&audit, op("balance", [] as [i64; 0]))
                    .expect("snapshot reads are always admitted");
            }
            mgr.commit(audit).expect("an audit commits");
        } else {
            let from = rng.below(ACCOUNTS);
            let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
            let amount = i64::from(1 + rng.below(100));
            let txn = mgr.begin();
            accounts[from as usize]
                .try_invoke(&txn, op("withdraw", [amount]))
                .expect("nothing is pending to conflict with");
            accounts[to as usize]
                .try_invoke(&txn, op("deposit", [amount]))
                .expect("nothing is pending to conflict with");
            mgr.commit(txn).expect("an admitted transfer commits");
        }
        if (i + 1) % PUMP_EVERY == 0 {
            pump(&mut monitor);
        }
    }
    pump(&mut monitor);
    let (certificate, _) = monitor.finish();
    assert_eq!(certificate.verdict, Verdict::Certified, "{certificate}");
    assert_eq!(certificate.committed, TXNS);
    let per_txn = allocs as f64 / TXNS as f64;
    println!("{per_txn:.3} allocations per committed transaction");
    assert!(
        per_txn <= MAX_ALLOCS_PER_TXN,
        "{per_txn:.3} allocations per committed transaction, pinned at most \
         {MAX_ALLOCS_PER_TXN}"
    );
}
