//! `hot_interleaved`: one bank account, `K` open transactions interleaved
//! round-robin by a single thread through the non-blocking `try_invoke`.
//!
//! Overlap between transactions is fixed by the script and the turn
//! order, not by the scheduler, so the admission decisions — table hit,
//! permutation replay, block — are the same on every trial of a seed.

use super::{balance_after, LayerValues, Trial, Workload};
use crate::probe;
use crate::sut::{self, HotGuard};
use atomicity_core::{Admission, CommutesRel, TxnError, TxnManager};
use atomicity_lint::{certify_with_relation, Property, Verdict};
use atomicity_sim::SimRng;
use atomicity_spec::{op, Operation, SequentialSpec, Value};
use std::sync::Arc;
use std::time::Instant;

/// Operations per transaction.
const OPS: usize = 3;
/// The mix is exact in every block of `BLOCK` transactions: `BLOCK_AUDITS`
/// audits (three `balance` reads each, 8 % of all operations) and, over
/// the other transactions' operations, `BLOCK_DEPOSITS` deposits (60 %)
/// to 40 % withdrawals. The seed only shuffles within a block and picks
/// the amounts, so every seed costs the same to admit, give or take the
/// order.
const BLOCK: usize = 25;
const BLOCK_AUDITS: usize = 2;
const BLOCK_DEPOSITS: usize = (BLOCK - BLOCK_AUDITS) * OPS * 3 / 5;
/// Open transactions interleaved by the workload itself.
pub const K: usize = 4;

/// One transaction's operations, in order.
pub type Script = Vec<[Operation; OPS]>;

/// Generates `txns` transactions. A transaction is either all updates or
/// all reads: a blocked transaction then never holds an intention that
/// blocks another, so no schedule deadlocks and none has to abort.
pub fn script(rng: &mut SimRng, txns: usize) -> Script {
    let mut script = Script::with_capacity(txns);
    while script.len() < txns {
        let mut audits = [false; BLOCK];
        audits[..BLOCK_AUDITS].fill(true);
        shuffle(rng, &mut audits);
        let mut deposits = [false; (BLOCK - BLOCK_AUDITS) * OPS];
        deposits[..BLOCK_DEPOSITS].fill(true);
        shuffle(rng, &mut deposits);
        let mut deposits = deposits.iter();
        for audit in audits.iter().take(txns - script.len()) {
            script.push(std::array::from_fn(|_| {
                if *audit {
                    op("balance", [] as [i64; 0])
                } else if *deposits.next().expect("one flag per update operation") {
                    op("deposit", [rng.range(1, 100) as i64])
                } else {
                    op("withdraw", [rng.range(1, 100) as i64])
                }
            }));
        }
    }
    script
}

/// Fisher–Yates.
pub fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i as u64) as usize);
    }
}

/// The balance the account must hold once every transaction of `script`
/// has committed.
pub fn closing_balance(script: &Script) -> i64 {
    script
        .iter()
        .flatten()
        .fold(sut::OPENING_BALANCE, balance_after)
}

/// What one pass over a script did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub begun: u64,
    pub committed: u64,
    /// Aborted because every open transaction was blocked.
    pub failed: u64,
    pub admitted: u64,
    /// Admission attempts answered `WouldBlock`.
    pub blocked: u64,
    /// Sum over attempts of the other transactions holding intentions.
    pub depth_sum: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.begun += other.begun;
        self.committed += other.committed;
        self.failed += other.failed;
        self.admitted += other.admitted;
        self.blocked += other.blocked;
        self.depth_sum += other.depth_sum;
    }
}

struct Open {
    txn: atomicity_core::Txn,
    script_index: usize,
    next_op: usize,
    blocked: bool,
    started: Instant,
    request: u32,
    /// What each admitted operation returned (journalled runs only).
    results: Vec<Value>,
}

/// The transactions of a run in commit order, each with the results its
/// operations returned.
pub type Journal = Vec<(usize, Vec<Value>)>;

/// Runs `script` against `object`, `k` transactions open at a time.
///
/// Slots take turns; a turn is one of: begin a transaction and attempt
/// its first operation, attempt the next operation, or commit. A blocked
/// attempt records nothing and is retried on the slot's next turn. While
/// any slot is blocked no new transaction begins, so the transactions
/// ahead of it drain and it cannot starve. Update latencies (begin to
/// commit acknowledged, ns) are pushed to `latencies`; with a `journal`,
/// so is every committed transaction with its results.
pub fn drive(
    mgr: &TxnManager,
    object: &dyn Admission,
    script: &Script,
    k: usize,
    latencies: &mut Vec<u32>,
    mut journal: Option<&mut Journal>,
) -> Tally {
    let mut tally = Tally::default();
    let mut slots: Vec<Option<Open>> = (0..k).map(|_| None).collect();
    let mut next = 0;
    let mut open = 0;
    while next < script.len() || open > 0 {
        let mut progressed = false;
        for s in 0..k {
            if slots[s].is_none() {
                let any_blocked = slots.iter().flatten().any(|o| o.blocked);
                if next == script.len() || any_blocked {
                    continue;
                }
                let started = Instant::now();
                let request = probe::begin_request(next as u32);
                let txn = probe::call(probe::MGR_BEGIN, request, next as u32, || mgr.begin());
                slots[s] = Some(Open {
                    txn,
                    script_index: next,
                    next_op: 0,
                    blocked: false,
                    started,
                    request,
                    results: Vec::new(),
                });
                next += 1;
                open += 1;
                tally.begun += 1;
            }
            let depth = slots.iter().flatten().filter(|o| o.next_op > 0).count();
            let o = slots[s].as_mut().expect("slot filled above");
            let label = o.script_index as u32;
            if o.next_op < OPS {
                tally.depth_sum += (depth - usize::from(o.next_op > 0)) as u64;
                let operation = script[o.script_index][o.next_op].clone();
                let result = probe::call(probe::DYN_INVOKE, o.request, label, || {
                    object.try_invoke(&o.txn, operation)
                });
                match result {
                    Ok(value) => {
                        if journal.is_some() {
                            o.results.push(value);
                        }
                        o.next_op += 1;
                        o.blocked = false;
                        tally.admitted += 1;
                        progressed = true;
                    }
                    Err(TxnError::WouldBlock { .. }) => {
                        probe::rename_last(probe::DYN_BLOCKED);
                        o.blocked = true;
                        tally.blocked += 1;
                    }
                    Err(e) => panic!("hot account refused a scripted operation: {e}"),
                }
            } else {
                let o = slots[s].take().expect("slot is open");
                let audit = script[o.script_index][0].name() == "balance";
                probe::call(probe::MGR_COMMIT, o.request, label, || mgr.commit(o.txn))
                    .expect("a fully admitted transaction commits");
                if !audit {
                    latencies.push(o.started.elapsed().as_nanos() as u32);
                }
                probe::end_request(o.request);
                if let Some(journal) = journal.as_deref_mut() {
                    journal.push((o.script_index, o.results));
                }
                open -= 1;
                tally.committed += 1;
                progressed = true;
            }
        }
        if !progressed {
            // Every open transaction is blocked on another: abort one.
            let s = slots
                .iter()
                .position(Option::is_some)
                .expect("no progress with no slot open");
            let o = slots[s].take().expect("position found it");
            probe::call(probe::MGR_ABORT, o.request, o.script_index as u32, || {
                mgr.abort(o.txn)
            });
            probe::end_request(o.request);
            open -= 1;
            tally.failed += 1;
        }
    }
    tally
}

pub struct HotInterleaved {
    table: Arc<dyn CommutesRel>,
    script: Script,
    /// The tally every trial of this seed must repeat.
    expected: Option<Tally>,
    /// Summed over the trials so far.
    total: Tally,
    fast_admissions: u64,
    events: u64,
}

impl HotInterleaved {
    pub fn set_up(seed: u64, txns: usize) -> Self {
        HotInterleaved {
            table: sut::synthesized_bank_table(),
            script: script(&mut SimRng::new(seed).split("hot", 0), txns),
            expected: None,
            total: Tally::default(),
            fast_admissions: 0,
            events: 0,
        }
    }
}

impl Workload for HotInterleaved {
    fn trial(&mut self, latencies: &mut Vec<u32>) -> Result<Trial, String> {
        let (mgr, account) = sut::hot_account(HotGuard::DynamicWithTable, &self.table);
        let (mut trial, tally) = Trial::timed(self.script.len() * 12, || {
            drive(&mgr, account.as_ref(), &self.script, K, latencies, None)
        });
        (trial.begun, trial.committed, trial.failed) = (tally.begun, tally.committed, tally.failed);
        let expected = *self.expected.get_or_insert(tally);
        if expected != tally {
            return Err(format!(
                "tally {tally:?} differs from the first trial's {expected:?}"
            ));
        }
        self.total.add(&tally);
        self.fast_admissions += account.metrics().stats().fast_admissions;
        self.events += mgr.log().len() as u64;
        Ok(trial)
    }

    fn layer_values(&self, into: &mut LayerValues) {
        let t = &self.total;
        let attempts = (t.admitted + t.blocked).max(1) as f64;
        into.insert(
            "core.engine.dynamic.admit_share",
            t.admitted as f64 / attempts,
        );
        into.insert(
            "core.engine.dynamic.fast_share",
            self.fast_admissions as f64 / t.admitted.max(1) as f64,
        );
        into.insert(
            "core.engine.dynamic.depth_mean",
            t.depth_sum as f64 / attempts,
        );
        into.insert(
            "core.log.events_per_commit",
            self.events as f64 / t.committed.max(1) as f64,
        );
    }

    /// Dynamic atomicity promises the committed transactions are
    /// serializable in any order consistent with `precedes`, and commit
    /// order is one: replaying the journal serially through the
    /// specification must reproduce every result and the closing balance.
    /// The post-hoc certifier runs too; on a history this contended it
    /// may decline to answer, but it must not refute.
    fn verify(&mut self) -> Result<(), String> {
        let (mgr, account) = sut::hot_account(HotGuard::DynamicWithTable, &self.table);
        let mut journal = Journal::new();
        let tally = drive(
            &mgr,
            account.as_ref(),
            &self.script,
            K,
            &mut Vec::new(),
            Some(&mut journal),
        );
        if tally.failed != 0 || tally.committed != self.script.len() as u64 {
            return Err(format!("not every transaction committed: {tally:?}"));
        }
        let spec = sut::bank_spec();
        let mut balance = spec.initial();
        for (index, results) in &journal {
            for (operation, result) in self.script[*index].iter().zip(results) {
                balance = spec
                    .step(&balance, operation)
                    .into_iter()
                    .find_map(|(value, next)| (value == *result).then_some(next))
                    .ok_or_else(|| {
                        format!("transaction {index}: {operation} returned {result}, which no serial run in commit order gives at balance {balance}")
                    })?;
            }
        }
        let expected = closing_balance(&self.script);
        let audit = mgr.begin();
        let held = account
            .try_invoke(&audit, op("balance", [] as [i64; 0]))
            .map_err(|e| format!("closing audit refused: {e}"))?;
        mgr.commit(audit)
            .map_err(|e| format!("closing audit did not commit: {e}"))?;
        if balance != expected || held != Value::from(expected) {
            return Err(format!(
                "balance not conserved: script sums to {expected}, serial replay to {balance}, account holds {held}"
            ));
        }
        let certificate = certify_with_relation(
            Property::Dynamic,
            &mgr.history(),
            &sut::bank_system(1),
            self.table.as_ref(),
        );
        println!("post-hoc certifier: {}", certificate.verdict.kind());
        match certificate.verdict {
            Verdict::Refuted(why) => Err(format!("recorded history refuted: {why}")),
            Verdict::Certified | Verdict::Unknown(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_is_deterministic_and_nothing_fails() {
        let table = sut::synthesized_bank_table();
        let script = script(&mut SimRng::new(5).split("hot", 0), 400);
        let run = || {
            let (mgr, account) = sut::hot_account(HotGuard::DynamicWithTable, &table);
            drive(&mgr, account.as_ref(), &script, K, &mut Vec::new(), None)
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!((first.begun, first.committed, first.failed), (400, 400, 0));
        assert!(
            first.blocked > 0,
            "audits must block behind pending updates"
        );
        assert!(first.depth_sum > 0, "transactions must overlap");
    }
}
