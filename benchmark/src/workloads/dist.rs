//! `dist_market`: a fresh 4-shard partitioned service per trial, stepped
//! from its seed to quiescence by one thread.
//!
//! The service is a deterministic simulation: every trial of a seed does
//! the same events in the same order, so `commit_tps` (commits per *wall*
//! second) is the speed of the coordinator, shard nodes, network and
//! event queue, while latency is *simulated* submit → decision time,
//! read once by stepping the service and exact for a seed.

use super::{LayerValues, Trial, Workload};
use crate::sut::{self, MARKET_TXNS_PER_TICK};
use crate::{probe, stats};
use atomicity_dist::DistService;
use atomicity_spec::ActivityId;
use std::time::Instant;

/// What stepping one run of the service showed; all of it repeats
/// exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedRun {
    /// Submit → decision, simulated µs, ascending.
    pub latencies_us: Vec<u32>,
    pub state_digest: u64,
    /// Mean transactions per prepare batch a shard staged.
    pub batch_mean: f64,
}

/// Steps a traced service event by event, noting when each transaction
/// was submitted and decided.
pub fn simulate(seed: u64, ticks: u64) -> Result<SimulatedRun, String> {
    let mut service = sut::market_service(seed, ticks, true);
    let mut submitted_at: Vec<u64> = Vec::new();
    let mut undecided: Vec<u32> = Vec::new();
    let mut latencies_us = Vec::new();
    let mut decided = 0;
    loop {
        let before = service.stats().submitted;
        if !service.step_event() {
            break;
        }
        let (now, stats) = (service.now(), service.stats());
        for id in before..stats.submitted {
            // Transactions are numbered from 1 in submission order.
            submitted_at.push(now);
            undecided.push(id as u32 + 1);
        }
        if stats.committed + stats.aborted > decided {
            decided = stats.committed + stats.aborted;
            undecided.retain(|&id| match service.decision(ActivityId::new(id)) {
                Some(_) => {
                    latencies_us.push((now - submitted_at[id as usize - 1]) as u32);
                    false
                }
                None => true,
            });
        }
    }
    if latencies_us.len() as u64 != service.stats().submitted || !undecided.is_empty() {
        return Err(format!(
            "{} of {} submitted transactions were seen decided",
            latencies_us.len(),
            service.stats().submitted
        ));
    }
    latencies_us.sort_unstable();
    let batches: Vec<f64> = service
        .trace()
        .iter()
        .filter(|line| line.contains(" staged batch="))
        .filter_map(|line| line.rsplit("txns=").next()?.parse().ok())
        .collect();
    if batches.is_empty() {
        return Err("the service's trace names no staged prepare batch".to_string());
    }
    Ok(SimulatedRun {
        latencies_us,
        state_digest: service.state_digest(),
        batch_mean: batches.iter().sum::<f64>() / batches.len() as f64,
    })
}

pub struct DistMarket {
    seed: u64,
    ticks: u64,
    simulated: Result<SimulatedRun, String>,
    // Summed over the trials so far.
    commits: u64,
    events: u64,
    deliveries: u64,
    simulated_us: u64,
    new_ns: u64,
    verify_ns: u64,
    trials: u64,
}

impl DistMarket {
    pub fn set_up(seed: u64, txns: usize) -> Self {
        let ticks = (txns as u64 / MARKET_TXNS_PER_TICK).max(1);
        DistMarket {
            seed,
            ticks,
            simulated: simulate(seed, ticks),
            commits: 0,
            events: 0,
            deliveries: 0,
            simulated_us: 0,
            new_ns: 0,
            verify_ns: 0,
            trials: 0,
        }
    }

    fn fresh(&mut self) -> DistService {
        let start = Instant::now();
        let service = sut::market_service(self.seed, self.ticks, false);
        self.new_ns += start.elapsed().as_nanos() as u64;
        service
    }
}

impl Workload for DistMarket {
    fn trial(&mut self, _latencies: &mut Vec<u32>) -> Result<Trial, String> {
        let expected = self.simulated.clone()?;
        let mut service = self.fresh();
        let (mut trial, ()) = Trial::timed(expected.latencies_us.len() * 16, || {
            while probe::call(probe::DIST_STEP, probe::NONE, probe::NONE, || {
                service.step_event()
            }) {}
        });
        let start = Instant::now();
        service.verify()?;
        self.verify_ns += start.elapsed().as_nanos() as u64;
        if service.state_digest() != expected.state_digest {
            return Err("state digest differs between trials of one seed".to_string());
        }
        let stats = service.stats();
        (trial.begun, trial.committed, trial.failed) =
            (stats.submitted, stats.committed, stats.aborted);
        self.commits += stats.committed;
        self.events += stats.events;
        self.deliveries += stats.deliveries;
        self.simulated_us += stats.last_decision_at;
        self.trials += 1;
        Ok(trial)
    }

    /// Every trial already runs `DistService::verify` and compares the
    /// digest; what is left is that stepping twice gives the same run.
    fn verify(&mut self) -> Result<(), String> {
        let again = simulate(self.seed, self.ticks)?;
        if again != self.simulated.clone()? {
            return Err("two simulations of one seed differ".to_string());
        }
        Ok(())
    }

    fn fixed_latency_us(&self) -> Option<(f64, f64)> {
        let run = self.simulated.as_ref().ok()?;
        let at = |p| f64::from(stats::percentile(&run.latencies_us, p));
        Some((at(0.50), at(0.95)))
    }

    fn layer_values(&self, into: &mut LayerValues) {
        let (commits, trials) = (self.commits.max(1) as f64, self.trials.max(1) as f64);
        into.insert(
            "dist.service.events_per_commit",
            self.events as f64 / commits,
        );
        into.insert(
            "dist.service.deliveries_per_commit",
            self.deliveries as f64 / commits,
        );
        into.insert(
            "dist.service.sim_commits_per_s",
            commits * 1e6 / self.simulated_us.max(1) as f64,
        );
        into.insert("dist.service.new_ms", self.new_ns as f64 / 1e6 / trials);
        into.insert(
            "dist.service.verify_ms",
            self.verify_ns as f64 / 1e6 / trials,
        );
        if let Ok(run) = &self.simulated {
            into.insert("dist.coordinator.batch_mean", run.batch_mean);
        }
    }
}
