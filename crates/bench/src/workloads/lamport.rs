//! E4 — Lamport's banking problem (§4.3.3).
//!
//! Transfer activities move money between accounts; audit activities print
//! the balances. Lamport [Lamport 76] observed locking's performance
//! problem and proposed giving up atomicity; the paper's answer is hybrid
//! atomicity: audits that are consistent *and* interference-free.
//!
//! Three audit disciplines over the same transfer workload:
//!
//! - **hybrid**: timestamped read-only audits on hybrid objects — always
//!   consistent, never block updates.
//! - **dynamic**: audits as ordinary transactions on dynamic objects —
//!   consistent, but they make updates wait (and deadlock).
//! - **non-atomic**: Lamport's starting point — each shard is read in its
//!   own transaction, so the audit is not atomic across shards and
//!   observes *torn totals* while transfers are in flight.

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_core::{Admission, TxnManager};
use atomicity_spec::{op, ObjectId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Audit discipline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Hybrid atomicity: read-only timestamped audits.
    Hybrid,
    /// Dynamic atomicity: audits are ordinary transactions.
    Dynamic,
    /// No cross-shard atomicity: one transaction per shard read.
    NonAtomic,
}

impl AuditMode {
    /// All modes, in presentation order.
    pub const ALL: [AuditMode; 3] = [AuditMode::Hybrid, AuditMode::Dynamic, AuditMode::NonAtomic];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            AuditMode::Hybrid => "hybrid",
            AuditMode::Dynamic => "dynamic",
            AuditMode::NonAtomic => "non-atomic",
        }
    }

    fn engine(self) -> Engine {
        match self {
            AuditMode::Hybrid => Engine::Hybrid,
            AuditMode::Dynamic | AuditMode::NonAtomic => Engine::Dynamic,
        }
    }
}

/// Parameters of the E4 workload.
#[derive(Debug, Clone)]
pub struct LamportParams {
    /// Number of account shards.
    pub shards: usize,
    /// Accounts per shard.
    pub keys_per_shard: i64,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Concurrent transfer threads.
    pub transferrers: usize,
    /// Transfers per thread.
    pub txns_per_transferrer: usize,
    /// Transfer in-flight hold between debit and credit (µs) — the window
    /// a torn read can observe.
    pub transfer_hold_micros: u64,
    /// Audits per auditor thread (two auditor threads).
    pub audits: usize,
    /// Auditor think time between shard reads (µs) — the tear window for
    /// the non-atomic discipline, and the lock footprint for dynamic.
    pub audit_hold_micros: u64,
}

impl Default for LamportParams {
    fn default() -> Self {
        LamportParams {
            shards: 4,
            keys_per_shard: 4,
            initial_balance: 1_000,
            transferrers: 3,
            txns_per_transferrer: 30,
            transfer_hold_micros: 500,
            audits: 20,
            audit_hold_micros: 500,
        }
    }
}

/// Measured outcome of one E4 run.
#[derive(Debug, Clone)]
pub struct LamportOutcome {
    /// Audit discipline.
    pub mode: AuditMode,
    /// Audits completed.
    pub audits: u64,
    /// Audits that observed a non-conserved grand total.
    pub torn_audits: u64,
    /// Committed transfers.
    pub transfers_committed: u64,
    /// Aborted transfers.
    pub transfers_aborted: u64,
    /// Committed transfers per second.
    pub transfer_throughput: f64,
    /// Wall-clock duration of the transfer phase.
    pub wall: Duration,
}

/// Runs the E4 workload under one audit discipline.
pub fn run_lamport(mode: AuditMode, params: &LamportParams) -> LamportOutcome {
    let engine = mode.engine();
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
    let mut transfer_handles = Vec::new();
    for u in 0..params.transferrers {
        let mgr = mgr.clone();
        let shards = shards.clone();
        let params = params.clone();
        transfer_handles.push(std::thread::spawn(move || {
            let (mut committed, mut aborted) = (0u64, 0u64);
            for t in 0..params.txns_per_transferrer {
                let from = (u + t) % params.shards;
                let to = (u + t + 1) % params.shards;
                let key = (t as i64) % params.keys_per_shard;
                let txn = mgr.begin();
                let debit = shards[from].invoke(&txn, op("adjust", [key, -10]));
                hold(params.transfer_hold_micros);
                let credit = debit.and_then(|_| shards[to].invoke(&txn, op("adjust", [key, 10])));
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
    for _ in 0..2 {
        let mgr = mgr.clone();
        let shards = shards.clone();
        let params = params.clone();
        let stop = Arc::clone(&stop);
        audit_handles.push(std::thread::spawn(move || {
            let (mut done, mut torn) = (0u64, 0u64);
            for _ in 0..params.audits {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(total) = run_one_audit(mode, &mgr, &shards, params.audit_hold_micros) {
                    done += 1;
                    if total != expected_total {
                        torn += 1;
                    }
                }
            }
            (done, torn)
        }));
    }

    let (mut transfers_committed, mut transfers_aborted) = (0u64, 0u64);
    for h in transfer_handles {
        let (c, a) = h.join().expect("transferrer panicked");
        transfers_committed += c;
        transfers_aborted += a;
    }
    let wall = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    let (mut audits, mut torn_audits) = (0u64, 0u64);
    for h in audit_handles {
        let (d, t) = h.join().expect("auditor panicked");
        audits += d;
        torn_audits += t;
    }
    LamportOutcome {
        mode,
        audits,
        torn_audits,
        transfers_committed,
        transfers_aborted,
        transfer_throughput: transfers_committed as f64 / wall.as_secs_f64(),
        wall,
    }
}

/// Runs a single audit; `None` if it aborted.
fn run_one_audit(
    mode: AuditMode,
    mgr: &TxnManager,
    shards: &[Arc<dyn Admission>],
    think_micros: u64,
) -> Option<i64> {
    let sum_op = op("sum", [] as [i64; 0]);
    match mode {
        AuditMode::Hybrid => {
            let txn = mgr.begin_read_only();
            let mut total = 0;
            for shard in shards {
                total += shard.invoke(&txn, sum_op.clone()).ok()?.as_int()?;
                hold(think_micros);
            }
            mgr.commit(txn).ok()?;
            Some(total)
        }
        AuditMode::Dynamic => {
            let txn = mgr.begin();
            let mut total = 0;
            for shard in shards {
                match shard.invoke(&txn, sum_op.clone()) {
                    Ok(v) => total += v.as_int()?,
                    Err(_) => {
                        // Deadlock victim: abort and report nothing.
                        mgr.abort(txn);
                        return None;
                    }
                }
                hold(think_micros);
            }
            mgr.commit(txn).ok()?;
            Some(total)
        }
        AuditMode::NonAtomic => {
            // One transaction per shard: atomic per shard, torn across.
            let mut total = 0;
            for shard in shards {
                let txn = mgr.begin();
                match shard.invoke(&txn, sum_op.clone()) {
                    Ok(v) => {
                        total += v.as_int()?;
                        mgr.commit(txn).ok()?;
                    }
                    Err(_) => {
                        mgr.abort(txn);
                        return None;
                    }
                }
                hold(think_micros);
            }
            Some(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LamportParams {
        LamportParams {
            shards: 3,
            keys_per_shard: 2,
            initial_balance: 100,
            transferrers: 2,
            txns_per_transferrer: 15,
            transfer_hold_micros: 1_000,
            audits: 30,
            audit_hold_micros: 500,
        }
    }

    #[test]
    fn hybrid_audits_are_never_torn() {
        let out = run_lamport(AuditMode::Hybrid, &small());
        assert!(out.audits > 0);
        assert_eq!(out.torn_audits, 0);
    }

    #[test]
    fn dynamic_audits_are_never_torn() {
        let out = run_lamport(AuditMode::Dynamic, &small());
        assert_eq!(out.torn_audits, 0);
    }

    #[test]
    fn non_atomic_audits_tear() {
        // With transfers holding debits in flight for 1ms, per-shard
        // audits routinely observe non-conserved totals. Retry a few times
        // to keep the test deterministic enough.
        for _ in 0..5 {
            let out = run_lamport(AuditMode::NonAtomic, &small());
            if out.torn_audits > 0 {
                return;
            }
        }
        panic!("non-atomic audits never observed a torn total in 5 runs");
    }

    #[test]
    fn every_transfer_resolves() {
        for mode in AuditMode::ALL {
            let out = run_lamport(mode, &small());
            assert_eq!(
                out.transfers_committed + out.transfers_aborted,
                30,
                "{mode:?}"
            );
        }
    }
}
