//! E16 — the online streaming certifier over live engine runs.
//!
//! Two gates, one report (`BENCH_e16.json`):
//!
//! 1. **Equality.** For every seed and every property engine, a
//!    contended mixed bank workload runs with an online monitor attached
//!    over a preserving tap — the *watermark-retiring* monitor for the
//!    dynamic engine, the *retain-all* monitor for the timestamp engines
//!    (the private `equality_mode` says why); the final online
//!    certificate must agree — verdict kind and committed count — with
//!    the post-hoc linear certifier run over a snapshot of the very same
//!    recorded history.
//! 2. **Long horizon.** A contended dynamic run 10–100× the E10 history
//!    drives the monitor through a *retiring* tap (shard buffers are
//!    consumed as they certify). The gate is the monitor's retained-set
//!    high-water mark: it must stay proportional to the open-transaction
//!    footprint (threads × ops), not the history length — the metrics
//!    registry's `certifier_retained_peak` gauge is the witness.
//!
//! What the certifier *costs* is not measured here: that is the
//! benchmark's `certify.overhead_share`, `bench.trace_overhead_share`,
//! and `certified_audit` against `spread_audit`.
//!
//! `--demo-violation` additionally forges a non-atomic pair of
//! activities into the live stream mid-run and asserts the monitor flags
//! it *at the offending commit*, not at finish.

use crate::engines::{CertifyMode, Engine};
use crate::report::ReportHeader;
use crate::synthesized_suite;
use atomicity_core::{Admission, CommutesRel, HistoryLog};
use atomicity_lint::{certify_with_relation, Verdict};
use atomicity_sim::SimRng;
use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
use atomicity_spec::{op, ActivityId, Event, ObjectId, SystemSpec, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Parameters of one E16 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E16Params {
    /// Seeds of the equality sweep (one run per seed per property
    /// engine).
    pub seeds: Vec<u64>,
    /// Worker threads.
    pub threads: usize,
    /// Transactions per thread in each equality run.
    pub equality_txns: usize,
    /// Transactions per thread in the long-horizon run. At the E16
    /// defaults this is 10–100× the E10 history (4×250 contended txns).
    pub horizon_txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Shared bank accounts all workers contend on.
    pub accounts: usize,
    /// Whether to run the mid-stream violation demonstration.
    pub demo_violation: bool,
}

impl E16Params {
    /// The full sweep the committed `BENCH_e16.json` records.
    pub fn full() -> Self {
        E16Params {
            seeds: vec![1, 2, 3, 4, 5],
            threads: 4,
            equality_txns: 200,
            horizon_txns: 5_000,
            ops_per_txn: 4,
            accounts: 2,
            demo_violation: true,
        }
    }

    /// CI wiring check: seconds, not minutes.
    pub fn smoke() -> Self {
        E16Params {
            seeds: vec![1, 2],
            equality_txns: 40,
            horizon_txns: 400,
            ..E16Params::full()
        }
    }
}

/// The bank commutativity relation the monitor's streaming table
/// reduction runs with — the same synthesized table the engines lock by.
fn bank_relation() -> Arc<dyn CommutesRel> {
    Arc::new(
        synthesized_suite()
            .table("bank")
            .expect("bank table synthesized")
            .clone(),
    )
}

/// Initial balance of every shared account; the certifier's spec must
/// replay from the same state the live objects started in.
const INITIAL_BALANCE: i64 = 1_000;

/// A [`SystemSpec`] covering the run's shared accounts.
fn account_spec(accounts: usize) -> SystemSpec {
    (0..accounts).fold(SystemSpec::new(), |s, i| {
        s.with_object(
            ObjectId::new(i as u32 + 1),
            BankAccountSpec::with_initial(INITIAL_BALANCE),
        )
    })
}

/// Drives the mixed contended workload: every transaction deposits and
/// withdraws small seeded amounts on a seeded choice of shared account.
/// Returns (committed, aborted).
fn drive(
    handle: &crate::engines::EngineHandle,
    objects: &[Arc<dyn Admission>],
    seed: u64,
    threads: usize,
    txns_per_thread: usize,
    ops_per_txn: usize,
) -> (u64, u64) {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let mgr = handle.manager().clone();
                s.spawn(move || {
                    let mut rng = SimRng::new(seed).split("e16-worker", t as u64);
                    let (mut committed, mut aborted) = (0u64, 0u64);
                    for _ in 0..txns_per_thread {
                        let obj = &objects[rng.range(0, objects.len() as u64 - 1) as usize];
                        let txn = mgr.begin();
                        let mut failed = false;
                        for _ in 0..ops_per_txn {
                            let amount = rng.range(1, 8) as i64;
                            let operation = if rng.chance(0.5) {
                                op("deposit", [amount])
                            } else {
                                op("withdraw", [amount])
                            };
                            if obj.invoke(&txn, operation).is_err() {
                                failed = true;
                                break;
                            }
                        }
                        if failed {
                            mgr.abort(txn);
                            aborted += 1;
                        } else if mgr.commit(txn).is_ok() {
                            committed += 1;
                        } else {
                            aborted += 1;
                        }
                    }
                    (committed, aborted)
                })
            })
            .collect();
        let mut totals = (0u64, 0u64);
        for w in workers {
            let (c, a) = w.join().expect("e16 worker panicked");
            totals.0 += c;
            totals.1 += a;
        }
        totals
    })
}

/// One (seed, engine) cell of the equality sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EqualityRow {
    /// Seed of the run.
    pub seed: u64,
    /// Engine (and thus property) certified.
    pub engine: String,
    /// Online mode the cell ran under (`online` / `online-retaining`).
    pub mode: String,
    /// Committed transactions.
    pub committed: u64,
    /// Events the online monitor observed.
    pub observed: u64,
    /// Online verdict kind (`certified` / `refuted` / `unknown`).
    pub online_verdict: String,
    /// Post-hoc verdict kind from the snapshot.
    pub post_hoc_verdict: String,
    /// Whether verdicts and committed counts agreed (gated).
    pub agreed: bool,
    /// The monitor's retained-set high-water mark.
    pub peak_retained: usize,
}

fn verdict_kind(v: &Verdict) -> String {
    match v {
        Verdict::Certified => "certified".into(),
        Verdict::Refuted(_) => "refuted".into(),
        Verdict::Unknown(_) => "unknown".into(),
    }
}

/// The online mode an equality cell runs the engine's property under.
///
/// Dynamic atomicity streams carry no timestamp events, so the bounded
/// *retiring* monitor is decisive on any live stream. The timestamp
/// properties are different: a live transaction draws its timestamp at
/// `begin()` but records no event until its first operation, so an old
/// timestamp can surface *after* the retiring monitor's drain watermark
/// has passed it — a race the monitor soundly reports as `Unknown`. The
/// *retain-all* monitor decides exactly those streams with the oracle
/// over its full event mirror, so the equality gate stays deterministic
/// across schedules.
fn equality_mode(engine: Engine) -> CertifyMode {
    match engine {
        Engine::Dynamic => CertifyMode::Online,
        _ => CertifyMode::OnlineRetaining,
    }
}

/// Runs one equality cell: online monitor over a preserving tap, then
/// the post-hoc certifier over the same run's snapshot.
pub fn run_equality_point(params: &E16Params, seed: u64, engine: Engine) -> EqualityRow {
    let spec = account_spec(params.accounts);
    let rel = bank_relation();
    let mode = equality_mode(engine);
    let handle = engine.builder().certify(mode).collect_metrics().build();
    let monitor = handle
        .start_online_preserving(spec.clone(), Some(rel.clone()))
        .expect("certify mode is on");
    let objects: Vec<Arc<dyn Admission>> = (0..params.accounts)
        .map(|i| handle.account(ObjectId::new(i as u32 + 1), INITIAL_BALANCE))
        .collect();
    let (committed, _aborted) = drive(
        &handle,
        &objects,
        seed,
        params.threads,
        params.equality_txns,
        params.ops_per_txn,
    );
    let outcome = monitor.finish();
    let history = handle.manager().history();
    let post = certify_with_relation(handle.property(), &history, &spec, rel.as_ref());
    let agreed = outcome.certificate.verdict.agrees_with(&post.verdict)
        && outcome.certificate.committed == post.committed;
    EqualityRow {
        seed,
        engine: engine.label().to_string(),
        mode: mode.label().to_string(),
        committed,
        observed: outcome.observed,
        online_verdict: verdict_kind(&outcome.certificate.verdict),
        post_hoc_verdict: verdict_kind(&post.verdict),
        agreed,
        peak_retained: outcome.peak_retained,
    }
}

/// The long-horizon row: the retiring monitor over a destructive tap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HorizonRow {
    /// Committed transactions.
    pub committed: u64,
    /// Events the monitor observed (≈ history length).
    pub observed: u64,
    /// The monitor's retained-set high-water mark (gated).
    pub peak_retained: usize,
    /// The gate: `threads × (ops_per_txn + 2) × 4 + 64`.
    pub retained_bound: usize,
    /// Final verdict kind.
    pub verdict: String,
    /// The same high-water mark as published to the metrics registry.
    pub metrics_retained_peak: u64,
    /// Events observed as counted by the metrics registry.
    pub metrics_observed: u64,
}

/// Runs the long-horizon point.
///
/// # Panics
///
/// Panics if the monitor refutes the run (the engines must produce
/// atomic histories) or the retained-set gate fails.
pub fn run_horizon_point(params: &E16Params) -> HorizonRow {
    let spec = account_spec(params.accounts);
    let rel = bank_relation();
    let handle = Engine::Dynamic
        .builder()
        .certify(CertifyMode::Online)
        .collect_metrics()
        .build();
    let monitor = handle
        .start_online(spec, Some(rel))
        .expect("certify mode is on");
    let objects: Vec<Arc<dyn Admission>> = (0..params.accounts)
        .map(|i| handle.account(ObjectId::new(i as u32 + 1), INITIAL_BALANCE))
        .collect();
    let (committed, _aborted) = drive(
        &handle,
        &objects,
        7,
        params.threads,
        params.horizon_txns,
        params.ops_per_txn,
    );
    let outcome = monitor.finish();
    assert!(
        !matches!(outcome.certificate.verdict, Verdict::Refuted(_)),
        "E16 FAILED: the dynamic engine produced a refuted history: {}",
        outcome.certificate
    );
    let retained_bound = params.threads * (params.ops_per_txn + 2) * 4 + 64;
    assert!(
        outcome.peak_retained <= retained_bound,
        "E16 FAILED: retained-set peak {} exceeds the open-footprint bound {} \
         over {} observed events",
        outcome.peak_retained,
        retained_bound,
        outcome.observed
    );
    let snapshot = handle.metrics().snapshot();
    HorizonRow {
        committed,
        observed: outcome.observed,
        peak_retained: outcome.peak_retained,
        retained_bound,
        verdict: verdict_kind(&outcome.certificate.verdict),
        metrics_retained_peak: snapshot.certifier_retained_peak,
        metrics_observed: snapshot.certifier_observed,
    }
}

/// The mid-stream violation demonstration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemoRow {
    /// Stamp at which the monitor flagged the forged violation.
    pub flagged_at_stamp: u64,
    /// Events observed in total — strictly more than `flagged_at_stamp`,
    /// proving the flag was raised mid-run.
    pub observed: u64,
    /// The final verdict kind (refuted).
    pub verdict: String,
}

/// Forges a non-atomic pair into a live stream and asserts the monitor
/// flags it at the offending commit.
///
/// # Panics
///
/// Panics if no violation is flagged, or it is flagged only at finish.
pub fn run_demo_violation(params: &E16Params) -> DemoRow {
    let forged_set = ObjectId::new(9_999);
    let spec = account_spec(params.accounts).with_object(forged_set, IntSetSpec::new());
    let log = HistoryLog::new();
    let handle = Engine::Dynamic
        .builder()
        .certify(CertifyMode::Online)
        .log(log.clone())
        .collect_metrics()
        .build();
    let monitor = handle
        .start_online(spec, Some(bank_relation()))
        .expect("certify mode is on");
    let objects: Vec<Arc<dyn Admission>> = (0..params.accounts)
        .map(|i| handle.account(ObjectId::new(i as u32 + 1), INITIAL_BALANCE))
        .collect();
    // First half of the workload…
    drive(
        &handle,
        &objects,
        11,
        params.threads,
        params.equality_txns,
        params.ops_per_txn,
    );
    // …then the forged non-atomic pair, recorded straight into the live
    // log among real traffic: `b` observes `a`'s committed insert as
    // absent, so no precedes-consistent order exists.
    let (a, b) = (ActivityId::new(900_001), ActivityId::new(900_002));
    log.record(Event::invoke(a, forged_set, op("insert", [42])));
    log.record(Event::respond(a, forged_set, Value::ok()));
    log.record(Event::commit(a, forged_set));
    log.record(Event::invoke(b, forged_set, op("member", [42])));
    log.record(Event::respond(b, forged_set, Value::from(false)));
    log.record(Event::commit(b, forged_set));
    // …and the second half keeps the stream flowing past the flag.
    drive(
        &handle,
        &objects,
        12,
        params.threads,
        params.equality_txns,
        params.ops_per_txn,
    );
    let outcome = monitor.finish();
    let violation = outcome
        .violations
        .first()
        .unwrap_or_else(|| panic!("E16 FAILED: forged violation was not flagged"));
    assert!(
        violation.stamp < outcome.observed,
        "violation must carry the offending commit's stamp"
    );
    assert!(
        matches!(outcome.certificate.verdict, Verdict::Refuted(_)),
        "E16 FAILED: forged violation did not refute: {}",
        outcome.certificate
    );
    DemoRow {
        flagged_at_stamp: violation.stamp,
        observed: outcome.observed,
        verdict: verdict_kind(&outcome.certificate.verdict),
    }
}

/// The E16 report (`BENCH_e16.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E16Report {
    /// Self-identifying header.
    pub header: ReportHeader,
    /// The parameters the rows were measured under.
    pub params: E16Params,
    /// Equality cells: seeds × property engines.
    pub equality: Vec<EqualityRow>,
    /// The long-horizon bounded-memory row.
    pub horizon: HorizonRow,
    /// The violation demonstration, when requested.
    pub demo: Option<DemoRow>,
}

impl E16Report {
    /// Serializes for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("E16 report serializes")
    }

    /// Parses a committed artifact.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Runs the full experiment.
///
/// # Panics
///
/// Panics if any equality cell disagrees or the horizon memory gate
/// fails.
pub fn run_e16(params: &E16Params) -> E16Report {
    let mut equality = Vec::new();
    for &seed in &params.seeds {
        for engine in Engine::PROPERTIES {
            let row = run_equality_point(params, seed, engine);
            assert!(
                row.agreed,
                "E16 FAILED: seed {} {}: online {} vs post-hoc {}",
                row.seed, row.engine, row.online_verdict, row.post_hoc_verdict
            );
            equality.push(row);
        }
    }
    let horizon = run_horizon_point(params);
    let demo = params.demo_violation.then(|| run_demo_violation(params));
    E16Report {
        header: ReportHeader::new("e16"),
        params: params.clone(),
        equality,
        horizon,
        demo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_equality_cells_agree_across_properties() {
        let params = E16Params::smoke();
        for engine in Engine::PROPERTIES {
            let row = run_equality_point(&params, 1, engine);
            assert!(
                row.agreed,
                "{}: online {} vs post-hoc {}",
                row.engine, row.online_verdict, row.post_hoc_verdict
            );
            assert!(row.observed > 0, "monitor must consume the stream");
        }
    }

    #[test]
    fn smoke_horizon_stays_bounded() {
        let params = E16Params::smoke();
        let row = run_horizon_point(&params);
        assert!(row.peak_retained <= row.retained_bound);
        assert_eq!(row.metrics_observed, row.observed);
        assert!(row.observed >= 4 * 400);
    }

    #[test]
    fn smoke_demo_violation_flags_mid_stream() {
        let params = E16Params::smoke();
        let row = run_demo_violation(&params);
        assert_eq!(row.verdict, "refuted");
        assert!(row.flagged_at_stamp < row.observed);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_e16(&E16Params {
            seeds: vec![1],
            equality_txns: 10,
            horizon_txns: 50,
            demo_violation: false,
            ..E16Params::smoke()
        });
        let back = E16Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.header.experiment, "e16");
        assert_eq!(back.equality.len(), 3);
        assert!(back.demo.is_none());
    }
}
