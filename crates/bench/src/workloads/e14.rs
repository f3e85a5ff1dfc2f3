//! E14 — contended admission: every worker deposits into ONE shared bank
//! account, so admission itself is the serialization point.
//!
//! The dynamic and hybrid engines consult the synthesized conflict table
//! (`atomicity_lint::standard_syntheses`) before permutation replay:
//! commuting pairs are admitted in O(pending ops) and past the
//! `max_check` bound, and hybrid read-only activities admit off the
//! [`atomicity_core::SeqlockCell`] snapshot without the object mutex.
//! Each of the two also runs once as a **replay-only reference** — built
//! here with [`DynamicObject::new`] / [`HybridObject::new`], no table —
//! where every operation replays permutations of the pending intentions
//! and, past `max_check`, conservatively conflicts, so 8 deposit-only
//! workers serialize even though every pair of deposits commutes. The
//! lock baselines are the floor.
//!
//! With [`E14Params::verify`] set, every run ends with the post-hoc
//! correctness gate: the recorded history must be certified by the
//! linear-time certifier ([`atomicity_lint::certify()`]) under the
//! engine's property, and the committed balance must equal the committed
//! deposits — the table path must be invisible to the history.

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_core::{Admission, DynamicObject, HybridObject, Protocol, StatsSnapshot, TxnManager};
use atomicity_lint::{certify, certify_with_relation, Property};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, ObjectId, SystemSpec, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The rows E14 sweeps, as (engine, replay-only reference?): the two
/// engines with a table path beside their replay-only reference, and the
/// lock baselines.
pub fn e14_matrix() -> Vec<(Engine, bool)> {
    vec![
        (Engine::Dynamic, false),
        (Engine::Dynamic, true),
        (Engine::Hybrid, false),
        (Engine::Hybrid, true),
        (Engine::CommutativityLocking, false),
        (Engine::TwoPhaseLocking, false),
    ]
}

/// Parameters of the E14 workload.
#[derive(Debug, Clone)]
pub struct E14Params {
    /// Update-worker counts to sweep.
    pub threads: Vec<usize>,
    /// Update transactions per worker.
    pub txns_per_thread: usize,
    /// Deposits per transaction.
    pub ops_per_txn: usize,
    /// Read-only auditor threads (hybrid only: they drive
    /// [`Admission::read_at`], i.e. the seqlock snapshot path).
    pub readers: usize,
    /// Read-only transactions per auditor.
    pub reads_per_reader: usize,
    /// Simulated in-transaction work (µs).
    pub hold_micros: u64,
    /// Run the post-hoc certifier + balance-oracle checks.
    pub verify: bool,
}

impl E14Params {
    /// The full measurement sweep. The in-transaction hold keeps
    /// intentions pending long enough that admission is genuinely
    /// contended (the same shape as the E10 baseline workload).
    pub fn full() -> Self {
        E14Params {
            threads: vec![1, 2, 4, 8],
            txns_per_thread: 150,
            ops_per_txn: 4,
            readers: 2,
            reads_per_reader: 100,
            hold_micros: 50,
            verify: true,
        }
    }

    /// Shrunk sweep for `--quick`.
    pub fn quick() -> Self {
        E14Params {
            threads: vec![2, 8],
            txns_per_thread: 50,
            ..E14Params::full()
        }
    }

    /// CI wiring check: the contended 8-thread point only, small counts,
    /// correctness checks on.
    pub fn smoke() -> Self {
        E14Params {
            threads: vec![8],
            txns_per_thread: 15,
            ops_per_txn: 2,
            readers: 1,
            reads_per_reader: 10,
            hold_micros: 100,
            verify: true,
        }
    }
}

/// Measured outcome of one E14 cell (row × thread count).
#[derive(Debug, Clone)]
pub struct E14Outcome {
    /// The engine measured.
    pub engine: Engine,
    /// Whether this is the engine's replay-only reference (no table).
    pub reference: bool,
    /// Update workers.
    pub threads: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Update transactions committed.
    pub committed: u64,
    /// Update transactions aborted.
    pub aborted: u64,
    /// Committed update transactions per second.
    pub throughput: f64,
    /// Read-only transactions committed (hybrid auditors).
    pub reads_committed: u64,
    /// Contention counters for the shared object.
    pub stats: StatsSnapshot,
}

/// Runs one E14 cell.
///
/// # Panics
///
/// With [`E14Params::verify`] set, panics if the linear certifier rejects
/// the recorded history or the committed balance disagrees with the
/// committed deposits.
pub fn run_e14(engine: Engine, reference: bool, threads: usize, params: &E14Params) -> E14Outcome {
    let mgr = engine.manager();
    let id = ObjectId::new(1);
    let obj: Arc<dyn Admission> = match (engine, reference) {
        (Engine::Dynamic, true) => DynamicObject::new(id, BankAccountSpec::new(), &mgr),
        (Engine::Hybrid, true) => HybridObject::new(id, BankAccountSpec::new(), &mgr),
        _ => engine.account(id, &mgr, 0),
    };

    let start = Instant::now();
    let mut workers = Vec::new();
    for _ in 0..threads {
        let mgr = mgr.clone();
        let obj = Arc::clone(&obj);
        let params = params.clone();
        workers.push(std::thread::spawn(move || {
            update_worker(&mgr, &obj, &params)
        }));
    }
    let mut auditors = Vec::new();
    if engine.protocol() == Protocol::Hybrid {
        for _ in 0..params.readers {
            let mgr = mgr.clone();
            let obj = Arc::clone(&obj);
            let reads = params.reads_per_reader;
            auditors.push(std::thread::spawn(move || read_worker(&mgr, &obj, reads)));
        }
    }
    let (mut committed, mut aborted) = (0u64, 0u64);
    for w in workers {
        let (c, a) = w.join().expect("e14 update worker panicked");
        committed += c;
        aborted += a;
    }
    let reads_committed: u64 = auditors
        .into_iter()
        .map(|a| a.join().expect("e14 auditor panicked"))
        .sum();
    let wall = start.elapsed();

    if params.verify {
        verify_run(engine, &mgr, &obj, committed, params);
    }

    E14Outcome {
        engine,
        reference,
        threads,
        wall,
        committed,
        aborted,
        throughput: committed as f64 / wall.as_secs_f64(),
        reads_committed,
        stats: obj.metrics().stats(),
    }
}

/// One update worker: `txns_per_thread` transactions of commuting
/// deposits through the blocking `invoke`.
fn update_worker(mgr: &TxnManager, obj: &Arc<dyn Admission>, params: &E14Params) -> (u64, u64) {
    let (mut committed, mut aborted) = (0u64, 0u64);
    for _ in 0..params.txns_per_thread {
        let txn = mgr.begin();
        let ok = (0..params.ops_per_txn).all(|_| obj.invoke(&txn, op("deposit", [1])).is_ok());
        hold(params.hold_micros);
        if !ok {
            mgr.abort(txn);
            aborted += 1;
        } else if mgr.commit(txn).is_ok() {
            committed += 1;
        } else {
            aborted += 1;
        }
    }
    (committed, aborted)
}

/// One hybrid auditor: timestamped read-only balance reads through
/// [`Admission::read_at`] — the mutex-free seqlock path.
fn read_worker(mgr: &TxnManager, obj: &Arc<dyn Admission>, reads: usize) -> u64 {
    let mut committed = 0u64;
    for _ in 0..reads {
        let txn = mgr.begin_read_only();
        if obj.read_at(&txn, op("balance", [] as [i64; 0])).is_ok() {
            if mgr.commit(txn).is_ok() {
                committed += 1;
            }
        } else {
            mgr.abort(txn);
        }
    }
    committed
}

/// The correctness gate: whatever the table path skipped, the
/// recorded history must still satisfy the engine's property (linear
/// certifier) and the committed state must equal the committed deposits.
fn verify_run(
    engine: Engine,
    mgr: &TxnManager,
    obj: &Arc<dyn Admission>,
    committed: u64,
    params: &E14Params,
) {
    let h = mgr.history();
    let property = match engine.protocol() {
        Protocol::Dynamic => Property::Dynamic,
        Protocol::Static => Property::Static,
        Protocol::Hybrid => Property::Hybrid,
    };
    let spec = SystemSpec::new().with_object(ObjectId::new(1), BankAccountSpec::new());
    // Contended commuting runs leave a genuinely partial precedes order
    // past the certifier's enumeration bound; the synthesized bank table
    // lets it decide those via the commutativity reduction.
    let cert = match property {
        Property::Dynamic => {
            let table = crate::synthesized_suite()
                .table("bank")
                .expect("synthesized bank table")
                .clone();
            certify_with_relation(property, &h, &spec, &table)
        }
        _ => certify(property, &h, &spec),
    };
    assert!(
        cert.is_certified(),
        "{engine}: e14 history failed certification: {cert}"
    );
    let reader = mgr.begin();
    let balance = obj
        .invoke(&reader, op("balance", [] as [i64; 0]))
        .expect("post-run balance read");
    mgr.commit(reader).expect("post-run reader commit");
    assert_eq!(
        balance,
        Value::from(committed as i64 * params.ops_per_txn as i64),
        "{engine}: committed balance disagrees with committed deposits"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_of_the_matrix_runs_and_verifies() {
        let params = E14Params {
            threads: vec![3],
            txns_per_thread: 6,
            ops_per_txn: 2,
            readers: 1,
            reads_per_reader: 5,
            hold_micros: 0,
            verify: true,
        };
        for (engine, reference) in e14_matrix() {
            let out = run_e14(engine, reference, 3, &params);
            assert_eq!(out.committed + out.aborted, 18, "{engine}/{reference}");
            assert!(out.stats.admissions > 0, "{engine}/{reference}");
            if engine.protocol() == Protocol::Hybrid {
                assert_eq!(out.reads_committed, 5, "{engine}/{reference}");
            }
        }
    }

    #[test]
    fn the_table_grants_admissions_under_contention() {
        let params = E14Params {
            threads: vec![8],
            txns_per_thread: 8,
            ops_per_txn: 2,
            readers: 0,
            reads_per_reader: 0,
            // Keep intentions pending long enough to overlap — without
            // contention the lone-activity early grant handles everything
            // and the table path never fires.
            hold_micros: 100,
            verify: true,
        };
        let out = run_e14(Engine::Dynamic, false, 8, &params);
        assert_eq!(out.committed, 64);
        assert!(
            out.stats.fast_admissions > 0,
            "contended commuting deposits must be granted by the table"
        );
    }
}
