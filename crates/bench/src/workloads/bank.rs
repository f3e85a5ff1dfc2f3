//! E1 — the §5.1 bank account: concurrent withdrawals vs. locking.
//!
//! N client threads withdraw from one shared account. The *headroom
//! factor* scales the initial balance relative to the total amount the
//! clients will try to withdraw:
//!
//! - headroom ≥ 1: every withdrawal can succeed; the dynamic engine admits
//!   them all concurrently, while commutativity locking and 2PL serialize
//!   every withdraw — the paper's example, quantified.
//! - headroom < 1: the balance genuinely constrains concurrency; the
//!   dynamic engine's advantage shrinks (blocking appears), and outcomes
//!   include `insufficient_funds`.

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_core::AtomicObject;
use atomicity_spec::{op, ObjectId, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of the E1 workload.
#[derive(Debug, Clone)]
pub struct BankParams {
    /// Concurrent client threads.
    pub threads: usize,
    /// Withdrawal transactions per thread.
    pub txns_per_thread: usize,
    /// Amount per withdrawal.
    pub amount: i64,
    /// Initial balance = headroom × threads × txns × amount.
    pub headroom: f64,
    /// Simulated in-transaction work (µs) while intentions are held.
    pub hold_micros: u64,
}

impl Default for BankParams {
    fn default() -> Self {
        BankParams {
            threads: 4,
            txns_per_thread: 25,
            amount: 5,
            headroom: 2.0,
            hold_micros: 200,
        }
    }
}

/// Measured outcome of one E1 run.
#[derive(Debug, Clone)]
pub struct BankOutcome {
    /// The engine measured.
    pub engine: Engine,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Transactions that committed with a successful withdrawal.
    pub withdrawn: u64,
    /// Transactions that committed with `insufficient_funds`.
    pub insufficient: u64,
    /// Transactions aborted (deadlock / timestamp conflict).
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput: f64,
}

/// Runs the E1 workload for one engine.
pub fn run_bank(engine: Engine, params: &BankParams) -> BankOutcome {
    let total_txns = (params.threads * params.txns_per_thread) as i64;
    let initial = (params.headroom * (total_txns * params.amount) as f64).round() as i64;
    let handle = engine.builder().build();
    let mgr = handle.manager().clone();
    let account = handle.account(ObjectId::new(1), initial);

    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..params.threads {
        let mgr = mgr.clone();
        let account = Arc::clone(&account);
        let params = params.clone();
        handles.push(std::thread::spawn(move || {
            let (mut withdrawn, mut insufficient, mut aborted) = (0u64, 0u64, 0u64);
            for _ in 0..params.txns_per_thread {
                let txn = mgr.begin();
                match account.invoke(&txn, op("withdraw", [params.amount])) {
                    Ok(v) => {
                        hold(params.hold_micros);
                        if mgr.commit(txn).is_ok() {
                            if v == Value::ok() {
                                withdrawn += 1;
                            } else {
                                insufficient += 1;
                            }
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
            (withdrawn, insufficient, aborted)
        }));
    }
    let (mut withdrawn, mut insufficient, mut aborted) = (0u64, 0u64, 0u64);
    for h in handles {
        let (w, i, a) = h.join().expect("bank worker panicked");
        withdrawn += w;
        insufficient += i;
        aborted += a;
    }
    let wall = start.elapsed();
    let committed = withdrawn + insufficient;
    BankOutcome {
        engine,
        wall,
        withdrawn,
        insufficient,
        aborted,
        throughput: committed as f64 / wall.as_secs_f64(),
    }
}

/// A1 ablation: the same E1 workload against a dynamic object whose
/// permutation-check bound (`max_check`) is varied. `max_check = 1`
/// degenerates to treating every concurrent transaction as a conflict
/// (locking-like); larger bounds buy concurrency at admission-check cost.
pub fn run_bank_ablation(max_check: usize, params: &BankParams) -> BankOutcome {
    use atomicity_core::{DynamicObject, Protocol, TxnManager};
    use atomicity_spec::specs::BankAccountSpec;
    let total_txns = (params.threads * params.txns_per_thread) as i64;
    let initial = (params.headroom * (total_txns * params.amount) as f64).round() as i64;
    let mgr = TxnManager::new(Protocol::Dynamic);
    let account = DynamicObject::with_max_check(
        ObjectId::new(1),
        BankAccountSpec::with_initial(initial),
        &mgr,
        max_check,
    );
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..params.threads {
        let mgr = mgr.clone();
        let account = Arc::clone(&account);
        let params = params.clone();
        handles.push(std::thread::spawn(move || {
            let (mut withdrawn, mut insufficient, mut aborted) = (0u64, 0u64, 0u64);
            for _ in 0..params.txns_per_thread {
                let txn = mgr.begin();
                match account.invoke(&txn, op("withdraw", [params.amount])) {
                    Ok(v) => {
                        hold(params.hold_micros);
                        if mgr.commit(txn).is_ok() {
                            if v == Value::ok() {
                                withdrawn += 1;
                            } else {
                                insufficient += 1;
                            }
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
            (withdrawn, insufficient, aborted)
        }));
    }
    let (mut withdrawn, mut insufficient, mut aborted) = (0u64, 0u64, 0u64);
    for h in handles {
        let (w, i, a) = h.join().expect("ablation worker panicked");
        withdrawn += w;
        insufficient += i;
        aborted += a;
    }
    let wall = start.elapsed();
    let committed = withdrawn + insufficient;
    BankOutcome {
        engine: Engine::Dynamic,
        wall,
        withdrawn,
        insufficient,
        aborted,
        throughput: committed as f64 / wall.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(engine: Engine, headroom: f64) -> BankOutcome {
        run_bank(
            engine,
            &BankParams {
                threads: 3,
                txns_per_thread: 8,
                amount: 5,
                headroom,
                hold_micros: 100,
            },
        )
    }

    #[test]
    fn all_engines_complete_with_headroom() {
        for engine in Engine::ALL {
            let out = small(engine, 2.0);
            assert_eq!(
                out.withdrawn + out.insufficient + out.aborted,
                24,
                "{engine}: every transaction must resolve"
            );
            assert_eq!(out.insufficient, 0, "{engine}: headroom 2 never runs dry");
            assert!(out.throughput > 0.0);
        }
    }

    #[test]
    fn tight_headroom_produces_insufficient_outcomes() {
        let out = small(Engine::Dynamic, 0.5);
        // Half the money: roughly half the withdrawals must fail, and
        // exactly headroom × total succeed (when none abort).
        assert!(out.insufficient > 0);
        assert!(out.withdrawn <= 12);
    }

    #[test]
    fn ablation_bound_one_still_completes() {
        let p = BankParams {
            threads: 3,
            txns_per_thread: 8,
            amount: 5,
            headroom: 2.0,
            hold_micros: 100,
        };
        let out = run_bank_ablation(1, &p);
        assert_eq!(out.withdrawn, 24, "max_check=1 serializes but never wedges");
        let out6 = run_bank_ablation(6, &p);
        assert_eq!(out6.withdrawn, 24);
    }

    #[test]
    fn dynamic_outpaces_locking_with_headroom_and_hold_time() {
        // With real hold time, concurrent admission beats serialization.
        // Use generous margins to stay robust on loaded CI machines.
        let p = BankParams {
            threads: 4,
            txns_per_thread: 10,
            amount: 5,
            headroom: 2.0,
            hold_micros: 2_000,
        };
        let dynamic = run_bank(Engine::Dynamic, &p);
        let locked = run_bank(Engine::CommutativityLocking, &p);
        assert!(
            dynamic.wall < locked.wall,
            "dynamic {:?} should beat commutativity locking {:?}",
            dynamic.wall,
            locked.wall
        );
    }
}
