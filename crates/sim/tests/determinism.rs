//! Determinism regression: the whole point of the seeded event loop.
//!
//! Two runs of the same seed — with every fault class enabled at once
//! (latency jitter, loss, duplication, reordering, a partition window,
//! and MTTF crashes recovering mid-run) — must produce **byte-identical**
//! event traces, equal rolling trace hashes, equal final-state digests,
//! and equal stats. Different seeds must diverge, or the "determinism"
//! would just be constancy.

use atomicity_sim::{
    Cluster, Endpoint, MttfConfig, NetStats, NodeId, PartitionWindow, SimConfig, SimStats,
    StandardChecker, TransferClient,
};

/// Every fault class at once, plus tracing and checkpointed invariants.
fn full_fault_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        drop_probability: 0.12,
        duplicate_probability: 0.12,
        max_duplicates: 2,
        reorder_probability: 0.25,
        reorder_extra: 1_800,
        partitions: vec![
            PartitionWindow::new(4_000, 11_000, [Endpoint::Node(NodeId::new(2))]),
            PartitionWindow::new(15_000, 19_000, [Endpoint::Node(NodeId::new(0))]),
        ],
        mttf: Some(MttfConfig {
            mean_uptime: 18_000,
            mean_downtime: 5_000,
            max_crashes_per_node: 2,
        }),
        checkpoint_every: 40,
        record_trace: true,
        record_history: true,
        ..SimConfig::default()
    }
}

struct RunResult {
    trace: Vec<String>,
    trace_hash: u64,
    state_digest: u64,
    stats: SimStats,
    network: NetStats,
    audits: Vec<(u64, i64)>,
}

fn run(seed: u64) -> RunResult {
    let mut cluster = Cluster::new(full_fault_config(seed));
    cluster.add_checker(Box::new(StandardChecker));
    let rng = cluster.client_rng(0);
    let accounts = cluster.account_count();
    cluster.add_client(Box::new(TransferClient::new(rng, accounts, 15)));
    cluster.run_events(40_000);
    cluster.heal();
    assert!(
        cluster.violations().is_empty(),
        "seed {seed}: clean run flagged: {:?}",
        cluster.violations()
    );
    cluster.verify_atomicity().unwrap();
    cluster.verify_conservation().unwrap();
    RunResult {
        trace: cluster.trace().to_vec(),
        trace_hash: cluster.trace_hash(),
        state_digest: cluster.state_digest(),
        stats: cluster.stats().clone(),
        network: cluster.network_stats(),
        audits: cluster.audit_results().to_vec(),
    }
}

#[test]
fn same_seed_replays_byte_identical_under_full_fault_matrix() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.trace.len(), b.trace.len(), "seed {seed}: trace lengths");
        for (i, (la, lb)) in a.trace.iter().zip(&b.trace).enumerate() {
            assert_eq!(la, lb, "seed {seed}: traces diverge at event {i}");
        }
        assert_eq!(a.trace_hash, b.trace_hash, "seed {seed}: trace hash");
        assert_eq!(a.state_digest, b.state_digest, "seed {seed}: state digest");
        assert_eq!(a.stats, b.stats, "seed {seed}: stats");
        assert_eq!(a.network, b.network, "seed {seed}: network stats");
        assert_eq!(a.audits, b.audits, "seed {seed}: audit results");
        // The fault matrix actually fired — this is not a quiet run.
        assert!(a.network.lost > 0, "seed {seed}: loss never fired");
        assert!(a.stats.crashes > 0, "seed {seed}: no crash injected");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(7);
    let b = run(8);
    assert_ne!(
        (a.trace_hash, a.state_digest),
        (b.trace_hash, b.state_digest),
        "independent seeds must produce different runs"
    );
}
