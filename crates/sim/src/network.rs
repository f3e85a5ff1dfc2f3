//! The fault-injecting simulated network.
//!
//! The [`Network`] decides, for each send, *when* (and whether, and how
//! many times) the message arrives: per-link latency jitter, loss,
//! bounded duplication, reordering boosts, and partition cuts from an
//! explicit [`PartitionSchedule`]. Each link draws from its own
//! [`SimRng`] stream split off the network's root stream, so traffic on
//! one link never perturbs the fault schedule of another — the property
//! the shrinker relies on when it disables fault classes one at a time.
//!
//! The network plans deliveries; the event loop owns the queue. A plan is
//! a list of delivery times: empty when the message is lost or cut, more
//! than one entry when duplication fires.

use crate::message::Endpoint;
use crate::partition::PartitionSchedule;
use crate::rng::SimRng;
use std::collections::BTreeMap;

/// Fault model of one link (or the whole network, as the default).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Minimum one-way latency (simulated microseconds).
    pub min_latency: u64,
    /// Maximum one-way latency.
    pub max_latency: u64,
    /// Probability a message is lost in transit.
    pub drop_probability: f64,
    /// Probability each potential extra copy of a message is delivered.
    pub duplicate_probability: f64,
    /// Bound on extra copies per message (the duplication factor): a
    /// message is delivered at most `1 + max_duplicates` times.
    pub max_duplicates: u32,
    /// Probability a delivery is deferred by an extra reorder boost,
    /// letting later sends overtake it.
    pub reorder_probability: f64,
    /// Maximum extra delay added to a reordered delivery.
    pub reorder_extra: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            min_latency: 50,
            max_latency: 500,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            max_duplicates: 1,
            reorder_probability: 0.0,
            reorder_extra: 2_000,
        }
    }
}

impl FaultConfig {
    /// A fault-free configuration with the given latency band.
    pub fn reliable(min_latency: u64, max_latency: u64) -> Self {
        FaultConfig {
            min_latency,
            max_latency,
            ..FaultConfig::default()
        }
    }
}

/// Counters of what the network did to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages offered to the network.
    pub sent: u64,
    /// Delivery copies scheduled (≥ sent − lost − cut).
    pub scheduled: u64,
    /// Messages lost in transit.
    pub lost: u64,
    /// Extra copies scheduled by duplication.
    pub duplicated: u64,
    /// Deliveries deferred by a reorder boost.
    pub reordered: u64,
    /// Messages refused because the link crossed an active partition.
    pub cut: u64,
}

/// The simulated network: per-link fault configs, per-link random
/// streams, and a partition schedule.
#[derive(Debug, Clone)]
pub struct Network {
    default_faults: FaultConfig,
    overrides: BTreeMap<(Endpoint, Endpoint), FaultConfig>,
    partitions: PartitionSchedule,
    root: SimRng,
    links: BTreeMap<(Endpoint, Endpoint), SimRng>,
    stats: NetStats,
}

/// Stable 64-bit encoding of a link for stream splitting.
fn link_key(src: Endpoint, dst: Endpoint) -> u64 {
    let code = |e: Endpoint| -> u64 {
        match e {
            Endpoint::Coordinator => 0,
            Endpoint::Node(n) => 1 + u64::from(n.raw()),
        }
    };
    (code(src) << 32) | code(dst)
}

impl Network {
    /// Builds the network over its own random stream.
    pub fn new(root: SimRng, default_faults: FaultConfig, partitions: PartitionSchedule) -> Self {
        Network {
            default_faults,
            overrides: BTreeMap::new(),
            partitions,
            root,
            links: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Overrides the fault model of one directed link.
    pub fn set_link_faults(&mut self, src: Endpoint, dst: Endpoint, faults: FaultConfig) {
        self.overrides.insert((src, dst), faults);
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Plans the deliveries of one message sent on `src → dst` at `now`:
    /// the returned times are absolute simulated times at which a copy
    /// arrives. Empty when the message is lost or the link is partitioned;
    /// at most `1 + max_duplicates` entries.
    pub fn plan(&mut self, now: u64, src: Endpoint, dst: Endpoint) -> Vec<u64> {
        self.stats.sent += 1;
        if self.partitions.cuts(now, src, dst) {
            self.stats.cut += 1;
            return Vec::new();
        }
        let faults = self
            .overrides
            .get(&(src, dst))
            .unwrap_or(&self.default_faults);
        let rng = self
            .links
            .entry((src, dst))
            .or_insert_with(|| self.root.split("link", link_key(src, dst)));
        if rng.chance(faults.drop_probability) {
            self.stats.lost += 1;
            return Vec::new();
        }
        let draw_at = |rng: &mut SimRng, stats: &mut NetStats| {
            let mut at = now + rng.range(faults.min_latency, faults.max_latency);
            if rng.chance(faults.reorder_probability) {
                at += rng.range(0, faults.reorder_extra);
                stats.reordered += 1;
            }
            at
        };
        let mut times = vec![draw_at(rng, &mut self.stats)];
        for _ in 0..faults.max_duplicates {
            if rng.chance(faults.duplicate_probability) {
                times.push(draw_at(rng, &mut self.stats));
                self.stats.duplicated += 1;
            }
        }
        self.stats.scheduled += times.len() as u64;
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::NodeId;
    use crate::partition::PartitionWindow;

    fn n(i: u32) -> Endpoint {
        Endpoint::Node(NodeId::new(i))
    }

    fn net(faults: FaultConfig) -> Network {
        Network::new(SimRng::new(42), faults, PartitionSchedule::new())
    }

    #[test]
    fn reliable_link_delivers_exactly_once_within_band() {
        let mut net = net(FaultConfig::reliable(50, 500));
        for _ in 0..100 {
            let plan = net.plan(1_000, Endpoint::Coordinator, n(0));
            assert_eq!(plan.len(), 1);
            assert!((1_050..=1_500).contains(&plan[0]), "{plan:?}");
        }
        assert_eq!(net.stats().lost, 0);
        assert_eq!(net.stats().scheduled, 100);
    }

    #[test]
    fn duplication_is_bounded_by_the_factor() {
        let mut net = net(FaultConfig {
            duplicate_probability: 1.0,
            max_duplicates: 3,
            ..FaultConfig::default()
        });
        let plan = net.plan(0, n(0), n(1));
        assert_eq!(plan.len(), 4, "1 original + max_duplicates copies");
    }

    #[test]
    fn partition_cuts_exactly_the_boundary() {
        let sched = PartitionSchedule::new().with(PartitionWindow::new(
            100,
            200,
            [n(0), Endpoint::Coordinator],
        ));
        let mut net = Network::new(SimRng::new(1), FaultConfig::default(), sched);
        assert!(net.plan(150, n(0), n(1)).is_empty());
        assert!(net.plan(150, n(1), Endpoint::Coordinator).is_empty());
        assert!(!net.plan(150, n(0), Endpoint::Coordinator).is_empty());
        assert!(!net.plan(150, n(1), n(2)).is_empty());
        assert!(!net.plan(250, n(0), n(1)).is_empty(), "heals at end");
        assert_eq!(net.stats().cut, 2);
    }

    #[test]
    fn per_link_streams_are_isolated() {
        // Consuming heavily on one link must not change another link's
        // draws: plan the same b-link sequence with and without a-link
        // traffic in between.
        let mk = || {
            Network::new(
                SimRng::new(77),
                FaultConfig {
                    drop_probability: 0.3,
                    ..FaultConfig::default()
                },
                PartitionSchedule::new(),
            )
        };
        let mut quiet = mk();
        let expected: Vec<_> = (0..50).map(|i| quiet.plan(i * 10, n(0), n(1))).collect();
        let mut noisy = mk();
        let got: Vec<_> = (0..50)
            .map(|i| {
                for _ in 0..7 {
                    noisy.plan(i * 10, n(2), n(3));
                }
                noisy.plan(i * 10, n(0), n(1))
            })
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn link_override_takes_precedence() {
        let mut net = net(FaultConfig::reliable(50, 500));
        net.set_link_faults(
            n(0),
            n(1),
            FaultConfig {
                drop_probability: 1.0,
                ..FaultConfig::default()
            },
        );
        assert!(net.plan(0, n(0), n(1)).is_empty());
        assert!(!net.plan(0, n(1), n(0)).is_empty(), "override is directed");
    }
}
