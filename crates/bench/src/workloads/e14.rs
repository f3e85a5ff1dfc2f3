//! E14 — contended admission: every worker deposits into ONE shared bank
//! account, so admission itself is the serialization point.
//!
//! The dynamic and hybrid engines consult the synthesized conflict table
//! (`atomicity_lint::standard_syntheses`) before permutation replay:
//! commuting pairs are admitted in O(pending ops) and past the
//! `max_check` bound, and hybrid read-only activities admit off the
//! [`atomicity_core::SeqlockCell`] snapshot without the object mutex. The
//! lock baselines run the same traffic. This is a wiring gate, not a
//! measurement: the table must actually grant admissions under
//! contention. What the table path is *worth* is the benchmark's
//! `core.engine.dynamic.replay_lane_tps` against
//! `hot_interleaved/commit_tps`, `.fast_share`, and
//! `baselines.*.hot_lane_tps`.
//!
//! Every run ends with the post-hoc correctness gate: the recorded
//! history must be certified by the linear-time certifier
//! ([`atomicity_lint::certify()`]) under the engine's property, and the
//! committed balance must equal the committed deposits — the table path
//! must be invisible to the history.

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_core::{Admission, Protocol, StatsSnapshot, TxnManager};
use atomicity_lint::{certify, certify_with_relation, Property};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, ObjectId, SystemSpec, Value};
use std::sync::Arc;

/// The engines E14 runs: the two with a table path, and the lock
/// baselines.
pub const E14_ENGINES: [Engine; 4] = [
    Engine::Dynamic,
    Engine::Hybrid,
    Engine::CommutativityLocking,
    Engine::TwoPhaseLocking,
];

/// Parameters of the E14 workload.
#[derive(Debug, Clone)]
pub struct E14Params {
    /// Update workers.
    pub threads: usize,
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
}

impl Default for E14Params {
    /// The one contended point: 8 workers, small counts. The
    /// in-transaction hold keeps intentions pending long enough that
    /// admission is genuinely contended.
    fn default() -> Self {
        E14Params {
            threads: 8,
            txns_per_thread: 15,
            ops_per_txn: 2,
            readers: 1,
            reads_per_reader: 10,
            hold_micros: 100,
        }
    }
}

/// Outcome of one engine's E14 run.
#[derive(Debug, Clone)]
pub struct E14Outcome {
    /// Update transactions committed.
    pub committed: u64,
    /// Update transactions aborted.
    pub aborted: u64,
    /// Read-only transactions committed (hybrid auditors).
    pub reads_committed: u64,
    /// Contention counters for the shared object.
    pub stats: StatsSnapshot,
}

/// Runs the contended workload on one engine.
///
/// # Panics
///
/// Panics if the linear certifier rejects the recorded history or the
/// committed balance disagrees with the committed deposits.
pub fn run_e14(engine: Engine, params: &E14Params) -> E14Outcome {
    let mgr = engine.manager();
    let obj = engine.account(ObjectId::new(1), &mgr, 0);

    let mut workers = Vec::new();
    for _ in 0..params.threads {
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

    verify_run(engine, &mgr, &obj, committed, params);

    E14Outcome {
        committed,
        aborted,
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
            threads: 3,
            txns_per_thread: 6,
            reads_per_reader: 5,
            hold_micros: 0,
            ..E14Params::default()
        };
        for engine in E14_ENGINES {
            let out = run_e14(engine, &params);
            assert_eq!(out.committed + out.aborted, 18, "{engine}");
            assert!(out.stats.admissions > 0, "{engine}");
            if engine.protocol() == Protocol::Hybrid {
                assert_eq!(out.reads_committed, 5, "{engine}");
            }
        }
    }

    #[test]
    fn the_table_grants_admissions_under_contention() {
        // The hold keeps intentions pending long enough to overlap —
        // without contention the lone-activity early grant handles
        // everything and the table path never fires.
        let params = E14Params {
            txns_per_thread: 8,
            readers: 0,
            ..E14Params::default()
        };
        let out = run_e14(Engine::Dynamic, &params);
        assert_eq!(out.committed, 64);
        assert!(
            out.stats.fast_admissions > 0,
            "contended commuting deposits must be granted by the table"
        );
    }
}
