//! E10 — the observability report: per-engine latency percentiles and
//! abort-reason breakdowns, serialized to JSON for CI artifacts.
//!
//! The report is derived from [`StressOutcome`]s collected with
//! [`StressParams::collect_metrics`] set, i.e. the stress workload run
//! with an enabled [`atomicity_core::MetricsRegistry`]. Each engine
//! contributes invoke-latency, block-wait, and commit-path histograms plus
//! the abort taxonomy keyed by [`atomicity_core::AbortReason`] labels.

use crate::workloads::stress::{StressOutcome, StressParams};
use atomicity_core::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version of the benchmark-report JSON layout. Bump when a committed
/// `BENCH_*.json` file changes shape incompatibly, so CI artifact
/// consumers can tell stale reports from current ones.
///
/// v4: [`ReportHeader::topology`] records the execution topology the
/// rows were measured on — `"single-node"` for the in-process engines,
/// `"coordinator+Nsh"` for the partitioned service sweeps (E15).
///
/// v5: the header's `admission_path` field is gone — there is one
/// admission path.
pub const REPORT_SCHEMA_VERSION: u32 = 5;

/// The header every experiment report (`BENCH_e10.json`, `BENCH_e15.json`)
/// carries, so an artifact is self-identifying: which experiment produced
/// it, under which schema, from which commit, on which topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportHeader {
    /// Report layout version ([`REPORT_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Experiment tag (`"e10"`, `"e12"`, `"e15"`, `"e16"`).
    pub experiment: String,
    /// Short git commit the binary was run from, or `"unknown"` outside a
    /// git checkout.
    pub git_commit: String,
    /// The execution topology: `"single-node"`, or
    /// `"coordinator+<N>sh"` with the shard count for the partitioned
    /// service (`"+"`-joined when a report sweeps shard counts). Empty
    /// in pre-v4 artifacts.
    #[serde(default)]
    pub topology: String,
}

impl ReportHeader {
    /// Builds a single-node header for `experiment`, stamping the current
    /// git commit.
    pub fn new(experiment: &str) -> Self {
        ReportHeader {
            schema_version: REPORT_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            git_commit: current_git_commit(),
            topology: "single-node".to_string(),
        }
    }

    /// Overrides the recorded topology (e.g. the `"+"`-joined shard
    /// counts of an E15 scale-out sweep).
    pub fn with_topology(mut self, topology: impl Into<String>) -> Self {
        self.topology = topology.into();
        self
    }
}

/// The short hash of `HEAD`, or `"unknown"` when git is unavailable (CI
/// tarballs, vendored builds).
fn current_git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The percentile summary of one latency histogram. Values are
/// nanoseconds from log₂-bucketed samples: exact counts, bucket-midpoint
/// percentiles (see `DESIGN.md` §6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median latency (ns), if any samples were recorded.
    pub p50: Option<u64>,
    /// 95th-percentile latency (ns).
    pub p95: Option<u64>,
    /// 99th-percentile latency (ns).
    pub p99: Option<u64>,
    /// Mean latency (ns), exact (from the true sum, not the buckets).
    pub mean: Option<u64>,
}

impl LatencySummary {
    /// Summarizes a histogram snapshot.
    pub fn from_histogram(h: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: h.count,
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            mean: h.mean(),
        }
    }
}

/// One engine's measured observability row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    /// Engine label (table row key; see `Engine::label`).
    pub engine: String,
    /// Transactions committed by the workers.
    pub committed: u64,
    /// Transactions aborted by the workers.
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Operations admitted across all objects.
    pub admissions: u64,
    /// Blocking rounds across all objects.
    pub blocks: u64,
    /// Invoke latency (operation entry to admission).
    pub invoke_ns: LatencySummary,
    /// Block-wait latency (first blocked round to admission).
    pub block_ns: LatencySummary,
    /// Commit-path latency (two-phase commit entry to completion).
    pub commit_ns: LatencySummary,
    /// Abort causes recorded at the error sites, keyed by
    /// [`atomicity_core::AbortReason`] label. Causes count error
    /// *occurrences*, so totals can exceed `aborted` (a transaction can
    /// hit several admission errors before its abort).
    pub abort_reasons: BTreeMap<String, u64>,
    /// Events captured by the trace ring.
    pub trace_events: u64,
}

impl EngineReport {
    /// Builds a row from a metrics-enabled stress outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was collected without
    /// [`StressParams::collect_metrics`].
    pub fn from_outcome(out: &StressOutcome) -> Self {
        let m = out
            .metrics
            .as_ref()
            .expect("E10 outcomes must be collected with collect_metrics");
        EngineReport {
            engine: out.engine.label().to_string(),
            committed: out.committed,
            aborted: out.aborted,
            throughput: out.throughput,
            admissions: out.stats.admissions,
            blocks: out.stats.blocks,
            invoke_ns: LatencySummary::from_histogram(&m.invoke_ns),
            block_ns: LatencySummary::from_histogram(&m.block_ns),
            commit_ns: LatencySummary::from_histogram(&m.commit_ns),
            abort_reasons: m.abort_reasons.clone(),
            trace_events: m.trace_written,
        }
    }
}

/// Workload shape recorded alongside the rows so a report is
/// self-describing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportParams {
    /// Worker threads.
    pub threads: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
}

impl From<&StressParams> for ReportParams {
    fn from(p: &StressParams) -> Self {
        ReportParams {
            threads: p.threads,
            txns_per_thread: p.txns_per_thread,
            ops_per_txn: p.ops_per_txn,
        }
    }
}

/// The complete E10 report: one row per engine over the same workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservabilityReport {
    /// Shared report header (`experiment: "e10"`).
    pub header: ReportHeader,
    /// The workload every row ran.
    pub params: ReportParams,
    /// Per-engine rows, in presentation order.
    pub engines: Vec<EngineReport>,
}

impl ObservabilityReport {
    /// Assembles the report from per-engine outcomes.
    pub fn new(params: &StressParams, outcomes: &[StressOutcome]) -> Self {
        ObservabilityReport {
            header: ReportHeader::new("e10"),
            params: params.into(),
            engines: outcomes.iter().map(EngineReport::from_outcome).collect(),
        }
    }

    /// Rows that admitted no operations — a wiring failure (the CI gate).
    pub fn silent_engines(&self) -> Vec<&str> {
        self.engines
            .iter()
            .filter(|e| e.admissions == 0)
            .map(|e| e.engine.as_str())
            .collect()
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// Parses a report back (CI artifact checks, tests).
    ///
    /// # Errors
    ///
    /// Propagates the parse error for malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::stress::{run_stress, STRESS_ENGINES};

    fn params() -> StressParams {
        StressParams {
            threads: 2,
            txns_per_thread: 5,
            ops_per_txn: 2,
            collect_metrics: true,
            ..StressParams::default()
        }
    }

    #[test]
    fn report_covers_every_engine_and_roundtrips() {
        let p = params();
        let outcomes: Vec<StressOutcome> =
            STRESS_ENGINES.iter().map(|&e| run_stress(e, &p)).collect();
        let report = ObservabilityReport::new(&p, &outcomes);
        assert_eq!(report.engines.len(), STRESS_ENGINES.len());
        assert!(report.silent_engines().is_empty(), "no engine may be mute");
        for row in &report.engines {
            assert_eq!(row.admissions, 20, "{}", row.engine);
            assert_eq!(row.invoke_ns.count, 20, "{}", row.engine);
            assert!(row.invoke_ns.p50.is_some(), "{}", row.engine);
            assert!(row.commit_ns.count >= row.committed, "{}", row.engine);
            assert!(row.trace_events > 0, "{}", row.engine);
        }
        let back = ObservabilityReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.engines.len(), report.engines.len());
        assert_eq!(back.engines[0].invoke_ns, report.engines[0].invoke_ns);
        assert_eq!(back.header, report.header);
        assert_eq!(back.header.experiment, "e10");
        assert_eq!(back.header.schema_version, REPORT_SCHEMA_VERSION);
        assert!(!back.header.git_commit.is_empty());
    }

    #[test]
    fn silent_engines_are_reported() {
        let p = params();
        let mut out = run_stress(STRESS_ENGINES[0], &p);
        out.stats.admissions = 0;
        let report = ObservabilityReport::new(&p, std::slice::from_ref(&out));
        assert_eq!(report.silent_engines(), vec!["dynamic"]);
    }
}
