//! `spread_audit` and `certified_audit`: one generator moving money
//! between many accounts under the hybrid engine, beside read-only audits.
//!
//! A transaction never meets another's pending intentions, so admission
//! is trivial, and audits read through the snapshot path. What is left to
//! measure is the manager, the clock, the history recorder and — on
//! `certified_audit` — the log tap and the online certifier.

use super::{LayerValues, Trial, Workload};
use crate::sut;
use crate::{probe, stats};
use atomicity_certify::OnlineCertifier;
use atomicity_core::{
    Admission, AtomicObject, CommutesRel, HistoryLog, HybridObject, LogTap, TxnManager,
};
use atomicity_lint::{certify, Certificate, Property, Verdict};
use atomicity_sim::SimRng;
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, Operation};
use std::sync::Arc;
use std::time::Instant;

pub const ACCOUNTS: u32 = 512;
/// One transaction in every `AUDIT_EVERY` is a read-only audit of
/// `AUDIT_READS` accounts, at a position in its block the seed picks; the
/// rest are two-account transfers.
const AUDIT_EVERY: usize = 5;
const AUDIT_READS: usize = 8;

/// One transaction: the accounts it touches (0-based) and what it asks
/// of each.
#[derive(Debug, Clone)]
pub struct Step {
    pub read_only: bool,
    pub ops: Vec<(u32, Operation)>,
}

/// Generates `txns` transactions: transfers between two distinct
/// accounts and audits of `AUDIT_READS` accounts, all chosen uniformly.
pub fn script(rng: &mut SimRng, txns: usize) -> Vec<Step> {
    let pick = |rng: &mut SimRng| rng.range(0, u64::from(ACCOUNTS) - 1) as u32;
    let mut audit_at = 0;
    (0..txns)
        .map(|i| {
            if i % AUDIT_EVERY == 0 {
                audit_at = i + rng.range(0, AUDIT_EVERY as u64 - 1) as usize;
            }
            if i == audit_at {
                let ops = (0..AUDIT_READS)
                    .map(|_| (pick(rng), op("balance", [] as [i64; 0])))
                    .collect();
                return Step {
                    read_only: true,
                    ops,
                };
            }
            let from = pick(rng);
            let to = (from + 1 + rng.range(0, u64::from(ACCOUNTS) - 2) as u32) % ACCOUNTS;
            let amount = rng.range(1, 100) as i64;
            Step {
                read_only: false,
                ops: vec![
                    (from, op("withdraw", [amount])),
                    (to, op("deposit", [amount])),
                ],
            }
        })
        .collect()
}

type Accounts = [Arc<HybridObject<BankAccountSpec>>];

/// How a run of the traffic is certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certify {
    /// Not at all: `spread_audit`.
    Off,
    /// By the generator itself, which every [`PUMP_EVERY`] transactions
    /// drains the log's retiring tap into the online monitor:
    /// `certified_audit`. One thread, so the certifier's cost is added to
    /// the generator's and no scheduler decides how the two overlap.
    Inline,
    /// By the certify crate's own pump thread beside the generator: the
    /// `certify.overhead_share` lane, reported and never gated.
    PumpThread,
}

/// Transactions between two drains of the tap.
const PUMP_EVERY: usize = 64;

/// What one pass over a script measured.
#[derive(Default)]
pub struct Generated {
    pub committed: u64,
    pub audit_ns: Vec<u32>,
    /// Most events one drain of the tap handed over.
    pub backlog_peak: usize,
}

/// Runs `script`, consuming it, and pushes the latency of each update to
/// `update_ns`. With a tap and a monitor, certifies as it goes.
pub fn generate(
    mgr: &TxnManager,
    accounts: &Accounts,
    script: Vec<Step>,
    mut certifier: Option<(&mut LogTap, &mut OnlineCertifier)>,
    update_ns: &mut Vec<u32>,
) -> Generated {
    let mut out = Generated {
        audit_ns: Vec::with_capacity(script.len() / 3),
        ..Generated::default()
    };
    let mut pump = |out: &mut Generated| {
        if let Some((tap, monitor)) = certifier.as_mut() {
            let drained = probe::call(probe::CERT_PUMP, probe::NONE, probe::NONE, || {
                tap.poll(|stamp, event| {
                    monitor.observe(stamp, &event);
                })
            });
            out.backlog_peak = out.backlog_peak.max(drained);
        }
    };
    for (index, step) in script.into_iter().enumerate() {
        let label = index as u32;
        let started = Instant::now();
        let request = probe::begin_request(label);
        let txn = if step.read_only {
            probe::call(probe::MGR_BEGIN_RO, request, label, || {
                mgr.begin_read_only()
            })
        } else {
            probe::call(probe::MGR_BEGIN, request, label, || mgr.begin())
        };
        for (account, operation) in step.ops {
            let object = &accounts[account as usize];
            let result = if step.read_only {
                probe::call(probe::HYB_READ_AT, request, label, || {
                    object.read_at(&txn, operation)
                })
            } else {
                probe::call(probe::HYB_INVOKE, request, label, || {
                    object.try_invoke(&txn, operation)
                })
            };
            result.expect("updates with nothing pending and snapshot reads are always admitted");
        }
        probe::call(probe::MGR_COMMIT, request, label, || mgr.commit(txn))
            .expect("an admitted transaction commits");
        let elapsed = started.elapsed().as_nanos() as u32;
        probe::end_request(request);
        if step.read_only {
            out.audit_ns.push(elapsed);
        } else {
            update_ns.push(elapsed);
        }
        out.committed += 1;
        if (index + 1) % PUMP_EVERY == 0 {
            pump(&mut out);
        }
    }
    pump(&mut out);
    out
}

/// Runs `conclude` — the certifier's last drain and verdict — in a span
/// and with a clock around it.
fn finish<T>(conclude: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let result = probe::call(probe::CERT_FINISH, probe::NONE, probe::NONE, conclude);
    (result, start.elapsed().as_nanos() as u64)
}

pub struct Audit {
    table: Arc<dyn CommutesRel>,
    script: Vec<Step>,
    certify: Certify,
    // Summed over the trials so far.
    commits: u64,
    events: u64,
    audit_ns: Vec<u32>,
    backlog_peak: usize,
    retained_peak: usize,
    unknown_verdicts: u64,
    trials: u64,
    finish_ns: u64,
}

impl Audit {
    pub fn set_up(seed: u64, txns: usize, certify: Certify) -> Self {
        Self::set_up_with_table(
            SimRng::new(seed),
            txns,
            certify,
            &sut::synthesized_bank_table(),
        )
    }

    /// As [`Audit::set_up`], with the table already synthesized.
    pub fn set_up_with_table(
        root: SimRng,
        txns: usize,
        certify: Certify,
        table: &Arc<dyn CommutesRel>,
    ) -> Self {
        Audit {
            table: Arc::clone(table),
            script: script(&mut root.split("audit", 0), txns),
            certify,
            commits: 0,
            events: 0,
            audit_ns: Vec::new(),
            backlog_peak: 0,
            retained_peak: 0,
            unknown_verdicts: 0,
            trials: 0,
            finish_ns: 0,
        }
    }

    fn judge(
        &mut self,
        certificate: Certificate,
        observed: u64,
        retained_peak: usize,
    ) -> Result<(), String> {
        self.events += observed;
        self.retained_peak = self.retained_peak.max(retained_peak);
        match certificate.verdict {
            Verdict::Certified => Ok(()),
            Verdict::Unknown(_) => {
                self.unknown_verdicts += 1;
                Ok(())
            }
            Verdict::Refuted(why) => Err(format!("online certifier refuted the run: {why}")),
        }
    }
}

impl Workload for Audit {
    fn trial(&mut self, latencies: &mut Vec<u32>) -> Result<Trial, String> {
        let log = HistoryLog::new();
        let (mgr, accounts) = sut::hybrid_bank(ACCOUNTS, &self.table, log.clone());
        let script = self.script.clone();
        // What certifying concluded: (certificate, events observed, most
        // retained, ns the conclusion took). Concluding is part of the
        // work, so it is inside the timed part.
        let (mut trial, (generated, concluded)) = match self.certify {
            Certify::Off => Trial::timed(script.len() * 8, || {
                (generate(&mgr, &accounts, script, None, latencies), None)
            }),
            Certify::Inline => {
                let mut tap = log.tap_retiring();
                let mut monitor = sut::online_monitor(ACCOUNTS, &self.table);
                Trial::timed(script.len() * 8, || {
                    let certifier = Some((&mut tap, &mut monitor));
                    let generated = generate(&mgr, &accounts, script, certifier, latencies);
                    let (observed, peak) = (monitor.observed(), monitor.peak_retained());
                    let ((certificate, _), ns) = finish(|| monitor.finish());
                    (generated, Some((certificate, observed, peak, ns)))
                })
            }
            Certify::PumpThread => {
                let monitor = sut::online_monitor(ACCOUNTS, &self.table);
                let handle = sut::pump_thread(log.tap_retiring(), monitor, &mgr);
                Trial::timed(0, || {
                    let generated = generate(&mgr, &accounts, script, None, latencies);
                    let (o, ns) = finish(|| handle.finish());
                    (
                        generated,
                        Some((o.certificate, o.observed, o.peak_retained, ns)),
                    )
                })
            }
        };
        (trial.begun, trial.committed) = (generated.committed, generated.committed);
        self.commits += generated.committed;
        self.trials += 1;
        self.backlog_peak = self.backlog_peak.max(generated.backlog_peak);
        if probe::tracing() {
            self.audit_ns.extend_from_slice(&generated.audit_ns);
        }
        match concluded {
            Some((certificate, observed, peak, finish_ns)) => {
                self.finish_ns += finish_ns;
                self.judge(certificate, observed, peak)?;
            }
            None => self.events += log.len() as u64,
        }
        Ok(trial)
    }

    /// Money is conserved, and the post-hoc certifier certifies the
    /// recorded history as hybrid atomic.
    fn verify(&mut self) -> Result<(), String> {
        let prefix = self.script[..self.script.len().min(4_000)].to_vec();
        let (mgr, accounts) = sut::hybrid_bank(ACCOUNTS, &self.table, HistoryLog::new());
        generate(&mgr, &accounts, prefix, None, &mut Vec::new());
        let audit = mgr.begin_read_only();
        let mut total = 0i64;
        for account in &accounts {
            let balance = account
                .read_at(&audit, op("balance", [] as [i64; 0]))
                .map_err(|e| format!("closing audit refused: {e}"))?;
            total += balance.as_int().ok_or("balance is not an integer")?;
        }
        mgr.commit(audit)
            .map_err(|e| format!("closing audit did not commit: {e}"))?;
        let expected = i64::from(ACCOUNTS) * sut::OPENING_BALANCE;
        if total != expected {
            return Err(format!(
                "money not conserved: accounts hold {total}, opened with {expected}"
            ));
        }
        let certificate = certify(
            Property::Hybrid,
            &mgr.history(),
            &sut::bank_system(ACCOUNTS),
        );
        if !certificate.is_certified() {
            return Err(format!("recorded history not certified: {certificate}"));
        }
        Ok(())
    }

    fn layer_values(&self, into: &mut LayerValues) {
        into.insert(
            "core.log.events_per_commit",
            self.events as f64 / self.commits.max(1) as f64,
        );
        if !self.audit_ns.is_empty() {
            let mut sorted = self.audit_ns.clone();
            sorted.sort_unstable();
            into.insert(
                "core.engine.hybrid.audit_p50_us",
                f64::from(stats::percentile(&sorted, 0.50)) / 1e3,
            );
        }
        if self.certify != Certify::Off {
            let trials = self.trials.max(1) as f64;
            into.insert("core.log.tap_backlog_peak", self.backlog_peak as f64);
            into.insert("certify.retained_peak", self.retained_peak as f64);
            into.insert(
                "certify.unknown_share",
                self.unknown_verdicts as f64 / trials,
            );
            into.insert("certify.finish_ms", self.finish_ns as f64 / 1e6 / trials);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_name_two_distinct_accounts_and_audits_only_read() {
        let steps = script(&mut SimRng::new(3), 2_000);
        for step in &steps {
            assert!(step.ops.iter().all(|(a, _)| *a < ACCOUNTS));
            if step.read_only {
                assert_eq!(step.ops.len(), AUDIT_READS);
                assert!(step.ops.iter().all(|(_, o)| o.name() == "balance"));
            } else {
                assert_ne!(step.ops[0].0, step.ops[1].0);
                assert_eq!(step.ops[0].1.int_arg(0), step.ops[1].1.int_arg(0));
            }
        }
        assert_eq!(
            steps.iter().filter(|s| s.read_only).count(),
            2_000 / AUDIT_EVERY
        );
    }
}
