//! Checkpointed invariant checking inside the event loop.
//!
//! An [`InvariantChecker`] is called every `checkpoint_every` processed
//! events (and once more at [`crate::Cluster::heal`]) with a read-only
//! view of the whole cluster — the online-monitor shape of Mathur &
//! Viswanathan's vector-clock atomicity checker, specialized to this
//! simulation. A failing check becomes a [`Violation`] carried in the
//! cluster, stamping the logical time and event index at which the
//! invariant first broke; the seed plus that index is a complete
//! reproducer.
//!
//! Two checkers ship with the crate:
//!
//! - [`StandardChecker`] — the mid-run-safe all-or-nothing check (a
//!   participant may still be *undecided* about a decided transaction,
//!   but must never hold the *opposite* durable outcome) and the balance
//!   oracle (the set of fully-applied committed transfers must conserve
//!   the grand total, read from the durable logs alone so it holds even
//!   while nodes are down).
//! - [`OnlineCertifierCheck`] — the streaming hybrid-atomicity monitor
//!   from `atomicity-certify` over the history the cluster records
//!   (requires [`crate::SimConfig::record_history`]), fed incrementally:
//!   each checkpoint observes only the events recorded since the previous
//!   one, where re-running `atomicity_lint::certify` over the whole
//!   history would be linear per checkpoint and quadratic over the run.
//!   That post-hoc run of the same monitor stays the reference the tests
//!   compare it with.

use crate::cluster::Cluster;
use atomicity_certify::OnlineCertifier;
use atomicity_lint::{Property, Verdict};
use std::collections::BTreeSet;
use std::fmt;

/// One invariant failure observed at a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Logical time of the failing checkpoint.
    pub time: u64,
    /// Events processed when the check ran (replay `run_events` to here).
    pub events: u64,
    /// Name of the checker that failed.
    pub checker: String,
    /// What it saw.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={} ev={}] {}: {}",
            self.time, self.events, self.checker, self.detail
        )
    }
}

/// A checkpoint invariant over the cluster.
pub trait InvariantChecker: fmt::Debug {
    /// Short name used in violation reports.
    fn name(&self) -> &'static str;

    /// Checks the invariant; `Err` describes the violation.
    fn check(&mut self, cluster: &Cluster) -> Result<(), String>;
}

/// All-or-nothing plus balance-conservation oracle, safe to run mid-run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardChecker;

impl InvariantChecker for StandardChecker {
    fn name(&self) -> &'static str {
        "standard"
    }

    fn check(&mut self, cluster: &Cluster) -> Result<(), String> {
        // All-or-nothing, mid-run form: participants lag but never
        // contradict the coordinator's durable decision.
        let coordinator = cluster.coordinator();
        for (txn, commit) in coordinator.decisions() {
            for &node in cluster.participants_of(txn) {
                if let Some(o) = cluster.node(node).outcome(txn) {
                    if o != commit {
                        return Err(format!(
                            "txn {txn} decided {commit} but {node} durably recorded {o}"
                        ));
                    }
                }
            }
        }
        // Balance oracle: every transfer whose commit has durably applied
        // at ALL of its participants moves money without creating it, so
        // replaying exactly that set must reproduce the initial total.
        let applied: BTreeSet<_> = coordinator
            .decisions()
            .filter(|&(txn, commit)| {
                commit
                    && cluster
                        .participants_of(txn)
                        .iter()
                        .all(|&n| cluster.node(n).outcome(txn) == Some(true))
            })
            .map(|(txn, _)| txn)
            .collect();
        let total: i64 = cluster
            .node_ids()
            .into_iter()
            .map(|n| cluster.node(n).committed_total_at(|t| applied.contains(&t)))
            .sum();
        let expected = cluster.initial_total();
        if total != expected {
            return Err(format!(
                "fully-applied committed set totals {total}, expected {expected} \
                 ({} transfers applied)",
                applied.len()
            ));
        }
        Ok(())
    }
}

/// The streaming certifier as a checkpoint invariant.
///
/// Feeds only the events recorded since the previous checkpoint into an
/// [`OnlineCertifier`] and fails the moment the monitor flags a violation
/// or the provisional certificate refutes the prefix: `Refuted` is a
/// violation, `Certified` and `Unknown` pass.
pub struct OnlineCertifierCheck {
    monitor: OnlineCertifier,
    cursor: usize,
}

impl fmt::Debug for OnlineCertifierCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnlineCertifierCheck")
            .field("property", &self.monitor.property())
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

impl OnlineCertifierCheck {
    /// Builds the checker for `cluster` (captures its system spec). The
    /// cluster must have been configured with
    /// [`crate::SimConfig::record_history`], otherwise the check passes
    /// vacuously.
    pub fn hybrid(cluster: &Cluster) -> Self {
        OnlineCertifierCheck {
            monitor: OnlineCertifier::new(Property::Hybrid, cluster.system_spec(), None),
            cursor: 0,
        }
    }

    /// Events fed to the monitor so far.
    pub fn observed(&self) -> usize {
        self.cursor
    }
}

impl InvariantChecker for OnlineCertifierCheck {
    fn name(&self) -> &'static str {
        "online-certifier"
    }

    fn check(&mut self, cluster: &Cluster) -> Result<(), String> {
        let Some(history) = cluster.history() else {
            return Ok(());
        };
        let events = history.events();
        for (i, event) in events.iter().enumerate().skip(self.cursor) {
            let flagged = self.monitor.observe(i as u64 + 1, event);
            self.cursor = i + 1;
            if let Some(v) = flagged {
                return Err(format!("online certifier flagged: {v}"));
            }
        }
        // Open transactions keep the monitor's verdict provisional;
        // refutation of the committed prefix is already final.
        if let Verdict::Refuted(reason) = self.monitor.provisional_certificate().verdict {
            return Err(format!("online certifier refuted prefix: {reason}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimConfig;

    #[test]
    fn online_checker_feeds_the_history_incrementally_and_agrees_with_post_hoc() {
        let mut cluster = Cluster::new(SimConfig {
            record_history: true,
            ..SimConfig::default()
        });
        let mut online = OnlineCertifierCheck::hybrid(&cluster);
        let t1 = cluster.submit_transfer(0, 5, 25);
        let t2 = cluster.submit_transfer(2, 3, 10);
        cluster.run_to_quiescence();
        cluster.heal();
        assert_eq!(cluster.decision(t1), Some(true));
        assert_eq!(cluster.decision(t2), Some(true));
        let recorded = cluster.history().expect("history recorded").events().len();
        assert!(recorded > 0, "the run must record events");

        // First checkpoint consumes the whole backlog…
        assert_eq!(online.check(&cluster), Ok(()));
        assert_eq!(online.observed(), recorded);
        // …and a second checkpoint with no new events observes nothing new.
        assert_eq!(online.check(&cluster), Ok(()));
        assert_eq!(online.observed(), recorded);

        // The post-hoc certifier, the reference, does not refute it either.
        let history = cluster.history().expect("history recorded");
        let post_hoc = atomicity_lint::certify(Property::Hybrid, history, &cluster.system_spec());
        assert!(
            !matches!(post_hoc.verdict, Verdict::Refuted(_)),
            "{post_hoc}"
        );
    }

    #[test]
    fn online_checker_passes_vacuously_without_recorded_history() {
        let mut cluster = Cluster::new(SimConfig::default());
        let mut online = OnlineCertifierCheck::hybrid(&cluster);
        cluster.submit_transfer(0, 1, 5);
        cluster.run_to_quiescence();
        assert_eq!(online.check(&cluster), Ok(()));
        assert_eq!(online.observed(), 0);
    }
}
