//! Threaded stress on the shared infrastructure (DESIGN.md §2).
//!
//! N OS threads each drive M transactions against a **private** bank
//! account, so the only cross-thread serialization points are the shared
//! infrastructure: the history recorder, the transaction-id counter, the
//! Lamport clock, and (under hybrid) the commit gate. E9 certifies a
//! history of this shape and E10 runs the shared-account variant with the
//! metrics registry attached; what the recorder *costs* is the
//! benchmark's `core.log.record_ns` and `core.log.events_per_commit`, and
//! sharded-vs-coarse equivalence is `tests/log_sharding.rs`.
//!
//! When [`StressParams::verify`] is set, the run ends with post-hoc
//! checks: the merged history must be well-formed, the whole recorded
//! history must satisfy the engine's local atomicity property, and the
//! committed balances must equal the committed deposits — i.e. the
//! sharded snapshot really is the linearization the engines enforced.
//! The atomicity check runs through the linear-time certifier
//! ([`atomicity_lint::certify()`]) by default; setting
//! [`StressParams::exhaustive`] re-checks every object's projection with
//! the exhaustive `spec::atomicity` decision procedures instead.

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_core::{Admission, HistoryLog, MetricsSnapshot, Protocol, StatsSnapshot};
use atomicity_lint::{certify, Property};
use atomicity_spec::atomicity::{is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::well_formed::WellFormedness;
use atomicity_spec::{op, ObjectId, SystemSpec, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engines the stress tests cover: the paper's three properties plus
/// the 2PL floor. (Commutativity locking adds nothing here — with per-thread
/// objects it behaves like 2PL.)
pub const STRESS_ENGINES: [Engine; 4] = [
    Engine::Dynamic,
    Engine::Static,
    Engine::Hybrid,
    Engine::TwoPhaseLocking,
];

/// Parameters of the stress workload.
#[derive(Debug, Clone)]
pub struct StressParams {
    /// Concurrent worker threads (one private account each).
    pub threads: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Deposits per transaction.
    pub ops_per_txn: usize,
    /// Simulated in-transaction work (µs).
    pub hold_micros: u64,
    /// Run the post-hoc atomicity checks on the recorded history (costs
    /// O(history)).
    pub verify: bool,
    /// With [`StressParams::verify`]: also re-check every object's
    /// projected history with the exhaustive `spec::atomicity` decision
    /// procedures, instead of relying on the linear-time certifier alone.
    pub exhaustive: bool,
    /// Attach an enabled [`atomicity_core::MetricsRegistry`] and return
    /// its snapshot in [`StressOutcome::metrics`] (the E10 path).
    pub collect_metrics: bool,
    /// Number of accounts shared by all workers; `0` (the default) gives
    /// every worker a private account. E10 sets `1` so the engines
    /// actually contend and the block/abort instrumentation has something
    /// to observe. Shared transactions open with a `balance` read, so
    /// read/write conflicts — lock-upgrade deadlocks, timestamp conflicts
    /// — and their abort reasons actually arise.
    pub shared_objects: usize,
}

impl StressParams {
    /// Accounts the run creates: one per worker, or the explicit shared
    /// pool.
    pub fn object_count(&self) -> usize {
        if self.shared_objects == 0 {
            self.threads
        } else {
            self.shared_objects
        }
    }
}

impl Default for StressParams {
    fn default() -> Self {
        StressParams {
            threads: 4,
            txns_per_thread: 100,
            ops_per_txn: 2,
            hold_micros: 0,
            verify: false,
            exhaustive: false,
            collect_metrics: false,
            shared_objects: 0,
        }
    }
}

/// Measured outcome of one stress run.
#[derive(Debug, Clone)]
pub struct StressOutcome {
    /// The engine measured.
    pub engine: Engine,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Events in the recorded history.
    pub events: usize,
    /// Contention counters aggregated over all objects.
    pub stats: StatsSnapshot,
    /// Full metrics snapshot (latency percentiles, abort causes, trace
    /// counts) when [`StressParams::collect_metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
}

/// Runs the stress workload for one engine.
///
/// # Panics
///
/// With [`StressParams::verify`] set, panics if the recorded history
/// fails the engine's well-formedness or local atomicity property, or if
/// a committed balance disagrees with the committed deposits.
pub fn run_stress(engine: Engine, params: &StressParams) -> StressOutcome {
    let log = HistoryLog::new();
    let mut builder = engine.builder().log(log.clone());
    if params.collect_metrics {
        builder = builder.collect_metrics();
    }
    let handle = builder.build();
    let mgr = handle.manager().clone();
    let objects: Vec<Arc<dyn Admission>> = (0..params.object_count())
        .map(|t| handle.account(ObjectId::new(t as u32 + 1), 0))
        .collect();

    let (committed, aborted, wall) = execute(&mgr, &objects, params);

    if params.verify {
        verify_run(engine, params, &mgr, &objects, committed);
    }

    let stats: StatsSnapshot = objects.iter().map(|o| o.metrics().stats()).sum();
    let metrics = handle
        .metrics()
        .is_enabled()
        .then(|| handle.metrics().snapshot());
    StressOutcome {
        engine,
        committed,
        aborted,
        throughput: committed as f64 / wall.as_secs_f64(),
        events: log.len(),
        stats,
        metrics,
    }
}

/// Runs the workload and returns the merged recorded history together
/// with a [`SystemSpec`] covering every account. This is the input for
/// E9's linear-vs-exhaustive checker comparison: a real multi-thread
/// history of the exact shape the post-hoc verifier certifies.
pub fn stress_history(
    engine: Engine,
    params: &StressParams,
) -> (atomicity_spec::history::History, SystemSpec) {
    let handle = engine.builder().build();
    let mgr = handle.manager().clone();
    let objects: Vec<Arc<dyn Admission>> = (0..params.object_count())
        .map(|t| handle.account(ObjectId::new(t as u32 + 1), 0))
        .collect();
    execute(&mgr, &objects, params);
    (mgr.history(), account_spec(params.object_count()))
}

/// A [`SystemSpec`] with one zero-balance account per created object.
fn account_spec(objects: usize) -> SystemSpec {
    (0..objects).fold(SystemSpec::new(), |s, t| {
        s.with_object(ObjectId::new(t as u32 + 1), BankAccountSpec::new())
    })
}

/// Drives the worker threads; returns (committed, aborted, wall).
fn execute(
    mgr: &atomicity_core::TxnManager,
    objects: &[Arc<dyn Admission>],
    params: &StressParams,
) -> (u64, u64, Duration) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..params.threads {
        let mgr = mgr.clone();
        let obj = Arc::clone(&objects[t % objects.len()]);
        let params = params.clone();
        handles.push(std::thread::spawn(move || {
            let (mut committed, mut aborted) = (0u64, 0u64);
            for _ in 0..params.txns_per_thread {
                let txn = mgr.begin();
                let mut failed = false;
                // Contended runs read before writing: the read/write
                // upgrade is what makes conflicts (and abort reasons)
                // observable.
                if params.shared_objects > 0
                    && obj.invoke(&txn, op("balance", [] as [i64; 0])).is_err()
                {
                    failed = true;
                }
                if !failed {
                    for _ in 0..params.ops_per_txn {
                        if obj.invoke(&txn, op("deposit", [1])).is_err() {
                            failed = true;
                            break;
                        }
                    }
                }
                hold(params.hold_micros);
                if failed {
                    mgr.abort(txn);
                    aborted += 1;
                } else if mgr.commit(txn).is_ok() {
                    committed += 1;
                } else {
                    aborted += 1;
                }
            }
            (committed, aborted)
        }));
    }
    let (mut committed, mut aborted) = (0u64, 0u64);
    for h in handles {
        let (c, a) = h.join().expect("stress worker panicked");
        committed += c;
        aborted += a;
    }
    (committed, aborted, start.elapsed())
}

/// Post-hoc checks: the merged snapshot is the linearization the engines
/// enforced.
///
/// Objects are private to one thread, so each object's commit order is a
/// **total** precedes order — the linear-time certifier stays on its
/// single-replay fast path, and any cross-thread merge error (a misplaced
/// stamp, a lost shard entry) shows up as a well-formedness, certificate,
/// or balance violation. `exhaustive` re-checks each projection with the
/// `spec::atomicity` decision procedures on top.
fn verify_run(
    engine: Engine,
    params: &StressParams,
    mgr: &atomicity_core::TxnManager,
    objects: &[Arc<dyn Admission>],
    committed: u64,
) {
    let h = mgr.history();
    // Nothing lost, nothing duplicated: every commit is present.
    assert_eq!(
        h.committed_activities().len() as u64,
        committed,
        "{engine}: committed transactions missing from the merged history"
    );
    let wf = match engine.protocol() {
        Protocol::Dynamic => WellFormedness::Basic,
        Protocol::Static => WellFormedness::Static,
        Protocol::Hybrid => WellFormedness::Hybrid,
    };
    assert!(
        wf.is_well_formed(&h),
        "{engine}: merged history is not well-formed"
    );
    let property = match engine.protocol() {
        Protocol::Dynamic => Property::Dynamic,
        Protocol::Static => Property::Static,
        Protocol::Hybrid => Property::Hybrid,
    };
    let cert = certify(property, &h, &account_spec(params.object_count()));
    assert!(
        cert.is_certified(),
        "{engine}: history certification failed: {cert}"
    );
    for (t, obj) in objects.iter().enumerate() {
        let oid = ObjectId::new(t as u32 + 1);
        let ph = h.project_object(oid);
        let spec = SystemSpec::new().with_object(oid, BankAccountSpec::new());
        if params.exhaustive {
            let ok = match engine.protocol() {
                Protocol::Dynamic => is_dynamic_atomic(&ph, &spec),
                Protocol::Static => is_static_atomic(&ph, &spec),
                Protocol::Hybrid => is_hybrid_atomic(&ph, &spec),
            };
            assert!(
                ok,
                "{engine}: object {t} history violates the protocol's property"
            );
        }
        // The committed state agrees with the committed deposits.
        let reader = mgr.begin();
        let balance = obj
            .invoke(&reader, op("balance", [] as [i64; 0]))
            .expect("post-run balance read");
        mgr.commit(reader).expect("post-run reader commit");
        let expected = ph.committed_activities().len() as i64 * params.ops_per_txn as i64;
        assert_eq!(
            balance,
            Value::from(expected),
            "{engine}: object {t} balance disagrees with committed deposits"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StressParams {
        StressParams {
            threads: 3,
            txns_per_thread: 8,
            ops_per_txn: 2,
            hold_micros: 0,
            verify: true,
            exhaustive: true,
            collect_metrics: true,
            shared_objects: 0,
        }
    }

    #[test]
    fn all_engines_complete_and_satisfy_their_property() {
        for engine in STRESS_ENGINES {
            let out = run_stress(engine, &small());
            assert_eq!(out.committed + out.aborted, 24, "{engine}");
            assert_eq!(out.aborted, 0, "{engine}: private objects never conflict");
            assert!(out.events > 0);
            // Deposits admitted: ops per txn, plus one post-run balance
            // read per object from the verifier.
            assert_eq!(out.stats.admissions, 24 * 2 + 3, "{engine}");
            assert_eq!(out.stats.commits, 24 + 3, "{engine}");
            // collect_metrics was set: the registry view must agree with
            // the worker-counted outcomes and carry latency samples.
            let m = out.metrics.expect("metrics requested");
            assert!(m.enabled, "{engine}");
            assert_eq!(m.txns_committed, out.committed + 3, "{engine}");
            assert_eq!(m.invoke_ns.count, out.stats.admissions, "{engine}");
            assert_eq!(m.commit_ns.count, m.txns_committed, "{engine}");
            assert!(m.invoke_ns.percentile(0.50).is_some(), "{engine}");
        }
    }

    #[test]
    fn certifier_only_verification_accepts_every_engine() {
        // The default `exhaustive: false` path, so both verify modes stay
        // exercised.
        for engine in STRESS_ENGINES {
            let out = run_stress(
                engine,
                &StressParams {
                    exhaustive: false,
                    ..small()
                },
            );
            assert_eq!(out.committed, 24, "{engine}");
        }
    }
}
