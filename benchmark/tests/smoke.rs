//! Runs every workload at `--smoke` size, untraced and traced, and holds
//! the output to the contract written down in `BENCHMARK.json`.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Contract {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn contract() -> Contract {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one smoke-sized workload from the repository root, as the driver
/// does, and parses the last line of its output.
fn smoke(workload: &str, trace: bool) -> Outcome {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: `{last}` is not a result: {e}"))
}

fn names_and_units(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn contract_is_well_formed() {
    let c = contract();
    assert!(
        c.command.ends_with(&["--".to_string()]),
        "the driver appends the benchmark's flags"
    );
    assert_eq!(c.paths, ["benchmark"]);
    assert!((1..=60).contains(&c.run_seconds));
    assert!((2..=8).contains(&c.workloads.len()));
    assert!(c
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));
    let setup = c
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    for m in &c.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
        assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        assert!(["lower", "higher"].contains(&m.better.as_str()));
    }
    assert!((1..=128).contains(&c.per_layer.len()));
    assert!(c
        .per_layer
        .iter()
        .all(|m| ["lower", "higher"].contains(&m.better.as_str())));
    let mut names: Vec<&str> = c
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .chain(c.end_to_end.iter().map(|m| m.name.as_str()))
        .chain(c.per_layer.iter().map(|m| m.name.as_str()))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
}

#[test]
fn untraced_runs_print_exactly_the_end_to_end_metrics() {
    let c = contract();
    let mut expected: Vec<_> = c
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    expected.sort();
    for w in &c.workloads {
        let outcome = smoke(&w.name, false);
        assert!(outcome.correct, "{}: an oracle failed", w.name);
        assert!(
            outcome.attempted >= 1 && outcome.failed == 0,
            "{}: failures",
            w.name
        );
        assert_eq!(names_and_units(&outcome), expected, "{}", w.name);
        for (name, m) in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {name} = {}",
                w.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let c = contract();
    let mut expected: Vec<_> = c
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    expected.sort();
    for w in &c.workloads {
        let outcome = smoke(&w.name, true);
        assert!(outcome.correct, "{}: an oracle failed", w.name);
        assert_eq!(names_and_units(&outcome), expected, "{}", w.name);
        assert!(
            outcome.metrics.values().all(|m| m.value.is_finite()),
            "{}",
            w.name
        );
        let trace = repo_root().join(format!("benchmark/out/trace-{}.json", w.name));
        assert!(trace.is_file(), "{} wrote no trace", w.name);
    }
}

#[test]
fn each_workload_passes_through_its_own_layers_only() {
    let value = |o: &Outcome, name: &str| o.metrics[name].value;
    let hot = smoke("hot_interleaved", true);
    assert!(value(&hot, "core.engine.dynamic.invoke_ns") > 0.0);
    assert!(value(&hot, "core.engine.dynamic.blocked_ns") > 0.0);
    assert_eq!(value(&hot, "core.engine.hybrid.invoke_ns"), 0.0);
    assert_eq!(value(&hot, "core.recovery.commit_ns"), 0.0);

    let durable = smoke("durable_bank", true);
    assert!(value(&durable, "durability.wal.append_ns") > 0.0);
    assert!(value(&durable, "core.recovery.prepare_ns") > 0.0);
    assert_eq!(value(&durable, "durability.wal.syncs_per_commit"), 2.0);
    assert_eq!(value(&durable, "core.manager.commit_ns"), 0.0);

    let certified = smoke("certified_audit", true);
    assert!(value(&certified, "certify.finish_ms") > 0.0);
    assert!(value(&certified, "core.engine.hybrid.read_at_ns") > 0.0);
    assert_eq!(value(&certified, "durability.wal.append_ns"), 0.0);

    let dist = smoke("dist_market", true);
    assert!(value(&dist, "dist.service.wall_us_per_event") > 0.0);
    assert!(value(&dist, "dist.coordinator.batch_mean") >= 1.0);
    assert_eq!(value(&dist, "core.manager.begin_ns"), 0.0);
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let exact = [
        ("hot_interleaved", "core.log.events_per_commit"),
        ("hot_interleaved", "core.engine.dynamic.admit_share"),
        ("durable_bank", "durability.wal.bytes_per_commit"),
        ("durable_bank", "durability.wal.syncs_per_commit"),
        ("dist_market", "dist.service.events_per_commit"),
        ("dist_market", "dist.coordinator.batch_mean"),
    ];
    for workload in ["hot_interleaved", "durable_bank", "dist_market"] {
        let (a, b) = (smoke(workload, true), smoke(workload, true));
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{workload}"
        );
        for (_, metric) in exact.iter().filter(|(w, _)| *w == workload) {
            assert_eq!(
                a.metrics[*metric].value, b.metrics[*metric].value,
                "{workload} {metric}"
            );
        }
    }
    let (a, b) = (smoke("dist_market", false), smoke("dist_market", false));
    for metric in ["commit_p50_us", "commit_p95_us"] {
        assert_eq!(
            a.metrics[metric].value, b.metrics[metric].value,
            "dist_market {metric}"
        );
    }
}
