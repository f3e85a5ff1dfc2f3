//! E12 — the deterministic-simulation seed sweep.
//!
//! Thousands of seeds, each a full-fault-matrix run of the simulated
//! cluster (latency jitter, loss, bounded duplication, reordering,
//! partition windows, MTTF crashes recovering through node recovery),
//! with the standard invariant checkers and the *streaming*
//! hybrid-atomicity certifier running at checkpoints inside the loop
//! (each checkpoint feeds the online monitor only the newly recorded
//! events — no per-checkpoint re-certification). Any violating seed
//! is **shrunk**: fault classes are greedily disabled and the workload
//! halved while the violation persists, leaving a minimal reproducer —
//! a seed plus a fault plan — that replays bit-identically forever.
//!
//! The per-seed fault *parameters* (probabilities, partition windows,
//! MTTF means) are drawn from a dedicated plan stream split off the
//! seed, and every draw happens whether or not its fault class is
//! enabled — so disabling one class during shrinking never shifts the
//! parameters of another.

use crate::report::ReportHeader;
use atomicity_sim::{
    Cluster, Endpoint, MttfConfig, NetStats, NodeId, OnlineCertifierCheck, PartitionWindow,
    SimConfig, SimRng, SimStats, StandardChecker, TransferClient,
};
use serde::{Deserialize, Serialize};

/// Which fault classes a run enables, and how much workload it carries.
/// This is the unit of shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Message loss.
    pub drop: bool,
    /// Bounded message duplication.
    pub duplication: bool,
    /// Reorder boosts.
    pub reorder: bool,
    /// Partition windows.
    pub partitions: bool,
    /// MTTF node crashes (recovering mid-run).
    pub mttf: bool,
    /// Transfers the workload client submits.
    pub transfers: u32,
}

impl FaultPlan {
    /// Everything on.
    pub fn full(transfers: u32) -> Self {
        FaultPlan {
            drop: true,
            duplication: true,
            reorder: true,
            partitions: true,
            mttf: true,
            transfers,
        }
    }

    /// Human-readable shape, e.g. `drop+reorder x8` or `quiet x1`.
    pub fn label(&self) -> String {
        let mut classes = Vec::new();
        if self.drop {
            classes.push("drop");
        }
        if self.duplication {
            classes.push("dup");
        }
        if self.reorder {
            classes.push("reorder");
        }
        if self.partitions {
            classes.push("partition");
        }
        if self.mttf {
            classes.push("mttf");
        }
        let classes = if classes.is_empty() {
            "quiet".to_string()
        } else {
            classes.join("+")
        };
        format!("{classes} x{}", self.transfers)
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct E12Params {
    /// Seeds to run: `first_seed .. first_seed + seeds`.
    pub seeds: u64,
    /// First seed of the sweep.
    pub first_seed: u64,
    /// Transfers per seed (pre-shrink).
    pub transfers: u32,
    /// Event budget per seed before healing.
    pub max_events: u64,
    /// Checkpoint cadence for the invariant checkers.
    pub checkpoint_every: u64,
    /// Inject the demonstration lost-ack bug (the sweep must catch it).
    pub demo_lost_ack: bool,
}

impl E12Params {
    /// The full acceptance sweep: ≥1000 seeds.
    pub fn full() -> Self {
        E12Params {
            seeds: 1000,
            first_seed: 1,
            transfers: 12,
            max_events: 60_000,
            checkpoint_every: 64,
            demo_lost_ack: false,
        }
    }

    /// CI wiring check.
    pub fn smoke() -> Self {
        E12Params {
            seeds: 60,
            ..E12Params::full()
        }
    }
}

/// Outcome of one seed's run.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// Checkpoint violations plus post-heal verification failures.
    pub violations: Vec<String>,
    /// Rolling event-sequence hash (replay fingerprint).
    pub trace_hash: u64,
    /// Final-state digest (replay fingerprint).
    pub state_digest: u64,
    /// The run's stats.
    pub stats: SimStats,
    /// What the network did to the run's traffic.
    pub network: NetStats,
}

impl SeedRun {
    /// Whether the run upheld every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Builds the per-seed configuration. All fault parameters are drawn from
/// the seed's plan stream regardless of which classes `plan` enables, so
/// shrinking one class leaves the rest untouched.
pub fn config_for(seed: u64, plan: &FaultPlan, params: &E12Params) -> SimConfig {
    let mut rng = SimRng::new(seed).split("e12-plan", 0);
    let drop_p = rng.range(3, 15) as f64 / 100.0;
    let dup_p = rng.range(3, 15) as f64 / 100.0;
    let reorder_p = rng.range(5, 30) as f64 / 100.0;
    let windows: Vec<PartitionWindow> = (0..3)
        .map(|_| {
            let start = rng.range(1_000, 25_000);
            let len = rng.range(2_000, 9_000);
            let node = rng.range(0, 3) as u32;
            PartitionWindow::new(start, start + len, [Endpoint::Node(NodeId::new(node))])
        })
        .collect();
    let n_windows = rng.range(1, 3) as usize;
    let mean_uptime = rng.range(15_000, 40_000);
    let mean_downtime = rng.range(3_000, 9_000);
    SimConfig {
        seed,
        drop_probability: if plan.drop { drop_p } else { 0.0 },
        duplicate_probability: if plan.duplication { dup_p } else { 0.0 },
        max_duplicates: 2,
        reorder_probability: if plan.reorder { reorder_p } else { 0.0 },
        reorder_extra: 1_800,
        partitions: if plan.partitions {
            windows.into_iter().take(n_windows).collect()
        } else {
            Vec::new()
        },
        mttf: plan.mttf.then_some(MttfConfig {
            mean_uptime,
            mean_downtime,
            max_crashes_per_node: 2,
        }),
        checkpoint_every: params.checkpoint_every,
        record_history: true,
        demo_lost_ack: params.demo_lost_ack,
        ..SimConfig::default()
    }
}

/// Runs one seed under `plan` with the checkpoint invariant checkers on.
pub fn run_seed(seed: u64, plan: &FaultPlan, params: &E12Params) -> SeedRun {
    let mut cluster = Cluster::new(config_for(seed, plan, params));
    cluster.add_checker(Box::new(StandardChecker));
    // Streaming in-loop certification: each checkpoint observes only the
    // events recorded since the previous one, instead of re-certifying
    // the whole history post hoc (quadratic over a run).
    let certifier = OnlineCertifierCheck::hybrid(&cluster);
    cluster.add_checker(Box::new(certifier));
    let rng = cluster.client_rng(0);
    let accounts = cluster.account_count();
    cluster.add_client(Box::new(
        TransferClient::new(rng, accounts, plan.transfers).with_audit_every(4),
    ));
    cluster.run_events(params.max_events);
    cluster.heal();
    let mut violations: Vec<String> = cluster.violations().iter().map(|v| v.to_string()).collect();
    if let Err(e) = cluster.verify_atomicity() {
        violations.push(format!("[final] atomicity: {e}"));
    }
    if let Err(e) = cluster.verify_conservation() {
        violations.push(format!("[final] conservation: {e}"));
    }
    let expected = cluster.initial_total();
    for (ts, total) in cluster.audit_results() {
        if *total != expected {
            violations.push(format!(
                "[final] audit@{ts} observed {total}, expected {expected}"
            ));
        }
    }
    SeedRun {
        seed,
        violations,
        trace_hash: cluster.trace_hash(),
        state_digest: cluster.state_digest(),
        stats: cluster.stats().clone(),
        network: cluster.network_stats(),
    }
}

/// Greedily shrinks a failing seed: disable each fault class in turn
/// (keeping the disable when the violation persists), then halve the
/// workload while it still fails. Returns the minimal plan and its run.
pub fn shrink(seed: u64, start: FaultPlan, params: &E12Params) -> (FaultPlan, SeedRun) {
    let mut plan = start;
    let mut run = run_seed(seed, &plan, params);
    debug_assert!(!run.clean(), "shrink called on a clean seed");
    let toggles: [fn(&mut FaultPlan); 5] = [
        |p| p.drop = false,
        |p| p.duplication = false,
        |p| p.reorder = false,
        |p| p.partitions = false,
        |p| p.mttf = false,
    ];
    for toggle in toggles {
        let mut candidate = plan;
        toggle(&mut candidate);
        if candidate == plan {
            continue;
        }
        let candidate_run = run_seed(seed, &candidate, params);
        if !candidate_run.clean() {
            plan = candidate;
            run = candidate_run;
        }
    }
    while plan.transfers > 1 {
        let candidate = FaultPlan {
            transfers: plan.transfers / 2,
            ..plan
        };
        let candidate_run = run_seed(seed, &candidate, params);
        if candidate_run.clean() {
            break;
        }
        plan = candidate;
        run = candidate_run;
    }
    (plan, run)
}

/// One caught-and-shrunk violation, as reported in `BENCH_e12.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ViolationCase {
    /// The violating seed — rerunning it reproduces the failure exactly.
    pub seed: u64,
    /// First violation under the full fault plan.
    pub detail: String,
    /// The minimal fault plan that still fails.
    pub minimal_plan: FaultPlan,
    /// Human-readable minimal schedule, e.g. `quiet x1`.
    pub minimal_schedule: String,
    /// First violation under the minimal plan.
    pub minimal_detail: String,
    /// Replay fingerprint of the minimal run.
    pub trace_hash: String,
}

/// Aggregate fault activity across the sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultTotals {
    /// Node crashes (scheduled + MTTF).
    pub crashes: u64,
    /// Crashes from the MTTF failure clocks.
    pub mttf_crashes: u64,
    /// Node recoveries.
    pub recoveries: u64,
    /// Messages lost in transit.
    pub lost: u64,
    /// Extra message copies delivered.
    pub duplicated: u64,
    /// Deliveries deferred by reorder boosts.
    pub reordered: u64,
    /// Messages cut by partitions.
    pub cut: u64,
    /// Vote retransmissions.
    pub resends: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
}

impl FaultTotals {
    /// Folds one run's stats into the totals.
    pub fn absorb(&mut self, s: &SimStats, net: &NetStats) {
        self.crashes += s.crashes;
        self.mttf_crashes += s.mttf_crashes;
        self.recoveries += s.recoveries;
        self.lost += net.lost;
        self.duplicated += net.duplicated;
        self.reordered += net.reordered;
        self.cut += net.cut;
        self.resends += s.resends;
        self.committed += s.committed;
        self.aborted += s.aborted;
    }
}

/// The `BENCH_e12.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E12Report {
    /// Self-identifying header (schema version, experiment, commit).
    pub header: ReportHeader,
    /// Seeds run.
    pub seeds: u64,
    /// First seed.
    pub first_seed: u64,
    /// Fault activity summed over every seed.
    pub faults: FaultTotals,
    /// Individual invariant checks run inside the loops.
    pub invariant_checks: u64,
    /// Every violation caught, with its shrunk reproducer.
    pub violations: Vec<ViolationCase>,
}

impl E12Report {
    /// Serializes for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("E12 report serializes")
    }

    /// Parses a previously written report.
    ///
    /// # Errors
    ///
    /// Returns the serde error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Runs the sweep: every seed under the full fault plan, shrinking any
/// failure. The sweep's rate is the benchmark's `sim.cluster.seeds_per_s`.
pub fn run_sweep(params: &E12Params) -> E12Report {
    let plan = FaultPlan::full(params.transfers);
    let mut totals = FaultTotals::default();
    let mut invariant_checks = 0u64;
    let mut violations = Vec::new();
    for seed in params.first_seed..params.first_seed + params.seeds {
        let run = run_seed(seed, &plan, params);
        totals.absorb(&run.stats, &run.network);
        invariant_checks += run.stats.invariant_checks;
        if !run.clean() {
            let detail = run.violations[0].clone();
            let (minimal_plan, minimal_run) = shrink(seed, plan, params);
            violations.push(ViolationCase {
                seed,
                detail,
                minimal_plan,
                minimal_schedule: minimal_plan.label(),
                minimal_detail: minimal_run.violations.first().cloned().unwrap_or_default(),
                trace_hash: format!("{:#018x}", minimal_run.trace_hash),
            });
        }
    }
    E12Report {
        header: ReportHeader::new("e12"),
        seeds: params.seeds,
        first_seed: params.first_seed,
        faults: totals,
        invariant_checks,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E12Params {
        E12Params {
            seeds: 4,
            transfers: 6,
            ..E12Params::full()
        }
    }

    #[test]
    fn clean_seeds_sweep_clean() {
        let report = run_sweep(&tiny());
        assert!(
            report.violations.is_empty(),
            "healthy cluster flagged: {:?}",
            report.violations
        );
        assert!(report.faults.committed > 0);
        assert!(report.invariant_checks > 0);
        let back = E12Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.seeds, report.seeds);
    }

    #[test]
    fn demo_bug_is_caught_and_shrunk() {
        let params = E12Params {
            demo_lost_ack: true,
            ..tiny()
        };
        let report = run_sweep(&params);
        assert!(
            !report.violations.is_empty(),
            "the injected lost-ack bug escaped the sweep"
        );
        let case = &report.violations[0];
        // The bug is fault-independent, so shrinking strips every fault
        // class and squeezes the workload down.
        assert!(
            !case.minimal_plan.drop
                && !case.minimal_plan.duplication
                && !case.minimal_plan.reorder
                && !case.minimal_plan.partitions
                && !case.minimal_plan.mttf,
            "shrinker kept spurious fault classes: {}",
            case.minimal_schedule
        );
        assert!(case.minimal_plan.transfers <= 2, "workload not shrunk");
    }

    #[test]
    fn seed_runs_replay_identically() {
        let params = tiny();
        let plan = FaultPlan::full(params.transfers);
        let a = run_seed(9, &plan, &params);
        let b = run_seed(9, &plan, &params);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.network, b.network);
    }
}
