//! E3 — long read-only audits vs. short updates (§4.2.3).
//!
//! The store is `shards` map objects, each holding `keys_per_shard`
//! accounts. Updaters run short transfers (debit one shard, credit
//! another); auditors scan **every shard in order** with think time —
//! the long read-only activities of §4.2.3.
//!
//! Expected shape (the paper's qualitative claims):
//!
//! - **dynamic**: audits pin every shard total they have read; updates
//!   block behind them and the mixed footprints deadlock — update
//!   throughput collapses while audits are in flight.
//! - **static**: audits carry old timestamps; updates serialize *after*
//!   them in timestamp order without invalidating them — both proceed.
//! - **hybrid**: audits read committed versions — zero interference in
//!   either direction ("audits do not interfere with any updates",
//!   §4.3.3).

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_core::{Admission, TxnManager};
use atomicity_spec::{op, ObjectId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of the E3 workload.
#[derive(Debug, Clone)]
pub struct AuditParams {
    /// Number of map shards.
    pub shards: usize,
    /// Accounts per shard.
    pub keys_per_shard: i64,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Concurrent updater threads.
    pub updaters: usize,
    /// Transfer transactions per updater.
    pub txns_per_updater: usize,
    /// Concurrent auditor threads.
    pub auditors: usize,
    /// Audits per auditor.
    pub audits_per_auditor: usize,
    /// Updater in-transaction work (µs).
    pub hold_micros: u64,
    /// Auditor think time per shard (µs) — what makes audits *long*.
    pub audit_hold_micros: u64,
}

impl Default for AuditParams {
    fn default() -> Self {
        AuditParams {
            shards: 4,
            keys_per_shard: 4,
            initial_balance: 1_000,
            updaters: 3,
            txns_per_updater: 20,
            auditors: 2,
            audits_per_auditor: 4,
            hold_micros: 100,
            audit_hold_micros: 1_000,
        }
    }
}

/// Measured outcome of one E3 run.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// The engine measured.
    pub engine: Engine,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Committed update transactions.
    pub updates_committed: u64,
    /// Aborted update transactions (deadlock / timestamp conflict).
    pub updates_aborted: u64,
    /// Committed audits.
    pub audits_committed: u64,
    /// Aborted audits.
    pub audits_aborted: u64,
    /// Audits whose grand total was wrong (must be 0 — atomicity).
    pub audits_inconsistent: u64,
    /// Mean audit latency.
    pub audit_latency: Duration,
    /// Committed updates per second.
    pub update_throughput: f64,
}

/// Runs the E3 workload for one engine.
pub fn run_audit(engine: Engine, params: &AuditParams) -> AuditOutcome {
    let handle = engine.builder().build();
    let mgr = handle.manager().clone();
    let shards: Vec<Arc<dyn Admission>> = (0..params.shards)
        .map(|s| {
            let entries = (0..params.keys_per_shard).map(|k| (k, params.initial_balance));
            handle.map(ObjectId::new(s as u32 + 1), entries)
        })
        .collect();
    let expected_total = params.shards as i64 * params.keys_per_shard * params.initial_balance;
    let stop = Arc::new(AtomicBool::new(false));

    let start = Instant::now();
    let mut update_handles = Vec::new();
    for u in 0..params.updaters {
        let mgr = mgr.clone();
        let shards = shards.clone();
        let params = params.clone();
        update_handles.push(std::thread::spawn(move || {
            let (mut committed, mut aborted) = (0u64, 0u64);
            for t in 0..params.txns_per_updater {
                let from = (u + t) % params.shards;
                let to = (u + t + 1) % params.shards;
                let key = (t as i64) % params.keys_per_shard;
                let txn = mgr.begin();
                let debit = shards[from].invoke(&txn, op("adjust", [key, -1]));
                hold(params.hold_micros);
                let credit = debit.and_then(|_| shards[to].invoke(&txn, op("adjust", [key, 1])));
                match credit {
                    Ok(_) => {
                        if mgr.commit(txn).is_ok() {
                            committed += 1;
                        } else {
                            aborted += 1;
                        }
                    }
                    Err(_) => {
                        mgr.abort(txn);
                        aborted += 1;
                    }
                }
            }
            (committed, aborted)
        }));
    }

    let mut audit_handles = Vec::new();
    for _ in 0..params.auditors {
        let mgr = mgr.clone();
        let shards = shards.clone();
        let params = params.clone();
        let stop = Arc::clone(&stop);
        audit_handles.push(std::thread::spawn(move || {
            let (mut committed, mut aborted, mut inconsistent) = (0u64, 0u64, 0u64);
            let mut latency = Duration::ZERO;
            let mut runs = 0u64;
            for i in 0..params.audits_per_auditor {
                // The first audit runs however late this thread starts:
                // a starved auditor would otherwise see `stop` and audit
                // nothing.
                if i > 0 && stop.load(Ordering::Relaxed) {
                    break;
                }
                let begun = Instant::now();
                let txn = mgr.begin_read_only();
                let mut total = 0i64;
                let mut failed = false;
                for shard in &shards {
                    match shard.invoke(&txn, op("sum", [] as [i64; 0])) {
                        Ok(v) => total += v.as_int().unwrap_or(0),
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                    hold(params.audit_hold_micros);
                }
                if failed {
                    mgr.abort(txn);
                    aborted += 1;
                    continue;
                }
                if mgr.commit(txn).is_err() {
                    aborted += 1;
                    continue;
                }
                committed += 1;
                runs += 1;
                latency += begun.elapsed();
                if total != 0 && total != expected_total {
                    // Transfers conserve money: any other total is a
                    // violated audit. (`total == 0` cannot happen with
                    // positive balances.)
                    inconsistent += 1;
                }
            }
            let mean = if runs > 0 {
                latency / (runs as u32)
            } else {
                Duration::ZERO
            };
            (committed, aborted, inconsistent, mean)
        }));
    }

    let (mut updates_committed, mut updates_aborted) = (0u64, 0u64);
    for h in update_handles {
        let (c, a) = h.join().expect("updater panicked");
        updates_committed += c;
        updates_aborted += a;
    }
    stop.store(true, Ordering::Relaxed);
    let (mut audits_committed, mut audits_aborted, mut audits_inconsistent) = (0, 0, 0);
    let mut latency_sum = Duration::ZERO;
    let mut latency_n = 0u32;
    for h in audit_handles {
        let (c, a, i, mean) = h.join().expect("auditor panicked");
        audits_committed += c;
        audits_aborted += a;
        audits_inconsistent += i;
        if c > 0 {
            latency_sum += mean;
            latency_n += 1;
        }
    }
    let wall = start.elapsed();
    AuditOutcome {
        engine,
        wall,
        updates_committed,
        updates_aborted,
        audits_committed,
        audits_aborted,
        audits_inconsistent,
        audit_latency: if latency_n > 0 {
            latency_sum / latency_n
        } else {
            Duration::ZERO
        },
        update_throughput: updates_committed as f64 / wall.as_secs_f64(),
    }
}

/// Ignore-listed engines for audit workloads: the lock-based baselines
/// behave like (worse) dynamic here; the harness compares the three
/// properties.
pub fn audit_engines() -> [Engine; 3] {
    Engine::PROPERTIES
}

#[allow(unused)]
fn _assert_traits(mgr: &TxnManager) {
    let _ = mgr;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> AuditParams {
        AuditParams {
            shards: 3,
            keys_per_shard: 2,
            initial_balance: 100,
            updaters: 2,
            txns_per_updater: 8,
            auditors: 1,
            audits_per_auditor: 2,
            hold_micros: 100,
            audit_hold_micros: 500,
        }
    }

    #[test]
    fn audits_are_always_consistent_under_all_properties() {
        for engine in audit_engines() {
            let out = run_audit(engine, &small_params());
            assert_eq!(
                out.audits_inconsistent, 0,
                "{engine}: audit observed a non-conserved total"
            );
            assert_eq!(
                out.updates_committed + out.updates_aborted,
                16,
                "{engine}: every update must resolve"
            );
        }
    }

    #[test]
    fn hybrid_audits_never_abort() {
        let out = run_audit(Engine::Hybrid, &small_params());
        assert_eq!(out.audits_aborted, 0);
        assert!(out.audits_committed > 0);
    }

    #[test]
    fn hybrid_updates_do_not_wait_for_audits() {
        // With long audits in flight, hybrid update throughput should be
        // decisively higher than dynamic's. Use a margin to avoid CI
        // flakiness.
        let mut p = small_params();
        p.audit_hold_micros = 5_000;
        p.audits_per_auditor = 50; // keep auditing for the whole run
        let hybrid = run_audit(Engine::Hybrid, &p);
        let dynamic = run_audit(Engine::Dynamic, &p);
        assert!(
            hybrid.update_throughput > dynamic.update_throughput,
            "hybrid {:.0}/s must beat dynamic {:.0}/s",
            hybrid.update_throughput,
            dynamic.update_throughput
        );
    }
}
