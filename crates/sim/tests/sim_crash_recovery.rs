//! Simulated crash recovery over the real on-disk WAL, in plain
//! `cargo test` — no kill harness, no forked processes.
//!
//! Each node's durable log is a `RestartableWal`; the cluster's restart
//! hook tears the WAL down and re-opens it from the bytes on disk before
//! every recovery, so a mid-run crash exercises the same checkpoint-load
//! / segment-scan / torn-tail-truncation path a real reboot would. Nodes
//! are killed at arbitrary event indices, the cluster heals, and the
//! final state must certify: all-or-nothing at every participant,
//! conserved totals, and a clean hybrid-atomicity certificate over the
//! recorded history.

use atomicity_core::DurableLog;
use atomicity_durable::{RestartableWal, SyncPolicy, WalOptions};
use atomicity_lint::{certify, Property, Verdict};
use atomicity_sim::{Cluster, NodeId, OnlineCertifierCheck, SimConfig, StandardChecker};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// SyncEach: group commit's background flusher is timing-dependent and
/// would break simulation determinism.
fn sim_opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::SyncEach,
        ..WalOptions::default()
    }
}

/// A cluster whose nodes persist to on-disk WALs that the restart hook
/// re-opens on every recovery.
fn wal_backed_cluster(cfg: SimConfig, base: &Path) -> (Cluster, Vec<Arc<RestartableWal>>) {
    let wals: Vec<Arc<RestartableWal>> = (0..cfg.nodes)
        .map(|n| {
            let dir = base.join(format!("node-{n}"));
            fs::create_dir_all(&dir).unwrap();
            Arc::new(RestartableWal::open(&dir, sim_opts()).unwrap())
        })
        .collect();
    let factory_wals = wals.clone();
    let mut cluster = Cluster::with_log_factory(cfg, move |id| {
        factory_wals[id.raw() as usize].clone() as Arc<dyn DurableLog>
    });
    let hook_wals = wals.clone();
    cluster.set_restart_hook(move |node: NodeId| {
        hook_wals[node.raw() as usize]
            .simulate_restart()
            .expect("simulated WAL restart failed");
    });
    (cluster, wals)
}

#[test]
fn node_killed_at_arbitrary_event_recovers_through_the_wal() {
    let base = tmpdir("sweep");
    // Kill a different node at a handful of arbitrary event indices; every
    // recovery must come back from the on-disk bytes alone.
    for (i, crash_at) in [0u64, 3, 7, 12, 20].into_iter().enumerate() {
        let dir = base.join(format!("case-{i}"));
        let cfg = SimConfig {
            seed: 100 + crash_at,
            record_history: true,
            ..SimConfig::default()
        };
        let victim = NodeId::new((i as u32) % cfg.nodes);
        let (mut cluster, wals) = wal_backed_cluster(cfg, &dir);
        cluster.add_checker(Box::new(StandardChecker));
        // Each checkpoint feeds the streaming certifier the new events;
        // the post-hoc certifier, its reference, judges the whole
        // recorded history once the cluster has healed.
        let online = OnlineCertifierCheck::hybrid(&cluster);
        cluster.add_checker(Box::new(online));
        let t1 = cluster.submit_transfer(0, 5, 25);
        let t2 = cluster.submit_transfer(2, 3, 10);
        cluster.schedule_crash(crash_at, victim, 20_000);
        cluster.run_to_quiescence();
        cluster.heal();
        assert!(cluster.decision(t1).is_some(), "case {i}: t1 undecided");
        assert!(cluster.decision(t2).is_some(), "case {i}: t2 undecided");
        assert!(
            wals[victim.raw() as usize].restarts() >= 1,
            "case {i}: the victim's WAL was never re-opened from disk"
        );
        assert!(cluster.stats().recoveries >= 1, "case {i}: no recovery ran");
        assert!(
            cluster.violations().is_empty(),
            "case {i}: invariants broke: {:?}",
            cluster.violations()
        );
        let history = cluster.history().expect("history recorded");
        let post_hoc = certify(Property::Hybrid, history, &cluster.system_spec());
        assert!(
            !matches!(post_hoc.verdict, Verdict::Refuted(_)),
            "case {i}: post-hoc certifier refuted the history: {post_hoc}"
        );
        cluster
            .verify_atomicity()
            .unwrap_or_else(|e| panic!("case {i}: {e}"));
        cluster
            .verify_conservation()
            .unwrap_or_else(|e| panic!("case {i}: {e}"));
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn committed_transfer_survives_a_wal_restart_mid_decision() {
    let base = tmpdir("mid-decision");
    let cfg = SimConfig::default();
    let (mut cluster, wals) = wal_backed_cluster(cfg, &base);
    let txn = cluster.submit_transfer(0, 1, 30);
    // Let prepares and votes land, then crash the debited account's node
    // right as decisions go out: it must redo the commit from its WAL.
    cluster.run_events(4);
    let victim = cluster.home_of(0);
    cluster.schedule_crash(cluster.stats().events, victim, 25_000);
    cluster.run_to_quiescence();
    cluster.heal();
    assert_eq!(cluster.decision(txn), Some(true));
    assert!(wals[victim.raw() as usize].restarts() >= 1);
    let recovered = wals[victim.raw() as usize].last_recovery();
    assert!(
        recovered.records > 0,
        "recovery should have replayed durable records, saw none"
    );
    cluster.verify_atomicity().unwrap();
    cluster.verify_conservation().unwrap();
    let _ = fs::remove_dir_all(&base);
}
