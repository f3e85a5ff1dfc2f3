//! A uniform factory over the engines and baselines under comparison.
//!
//! The commutativity-locking baseline no longer locks against hand-written
//! tables: every typed constructor here pulls its relation from the
//! [`synthesized_suite`] — the conflict tables machine-derived from the
//! sequential specifications by `atomicity-lint`'s synthesis pass. The
//! hand tables survive only as the *baselines* the gap report (E13) diffs
//! the synthesized relations against.

use atomicity_baselines::{CommutativityLockedObject, TwoPhaseLockedObject};
use atomicity_certify::{OnlineCertifier, OnlineHandle};
use atomicity_core::{
    Admission, CommutesRel, DeadlockPolicy, HistoryLog, MetricsRegistry, Protocol, TxnManager,
};
use atomicity_lint::{standard_syntheses, Property, SynthConfig, SynthSuite};
use atomicity_spec::specs::{
    BankAccountSpec, EscrowCounterSpec, FifoQueueSpec, IntSetSpec, KvMapSpec, SemiqueueSpec,
};
use atomicity_spec::{ObjectId, Operation, SequentialSpec, SystemSpec};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The machine-synthesized conflict tables every typed constructor locks
/// with, computed once per process from the sequential specifications.
pub fn synthesized_suite() -> &'static SynthSuite {
    static SUITE: OnceLock<SynthSuite> = OnceLock::new();
    SUITE.get_or_init(|| standard_syntheses(&SynthConfig::default()))
}

/// The generated table for `adt` as a shareable lock relation.
fn generated(adt: &str) -> Arc<dyn CommutesRel> {
    Arc::new(
        synthesized_suite()
            .table(adt)
            .unwrap_or_else(|| panic!("no synthesized table for `{adt}`"))
            .clone(),
    )
}

/// The single construction point for every engine: one match instead of
/// one per object shape, returning the unified [`Admission`] surface.
/// `table` is the commutativity relation the
/// [`Engine::CommutativityLocking`] baseline locks against and the
/// dynamic and hybrid engines consult before permutation replay; the
/// static engine and 2PL ignore it.
fn construct<S: SequentialSpec>(
    engine: Engine,
    id: ObjectId,
    spec: S,
    mgr: &TxnManager,
    table: Arc<dyn CommutesRel>,
) -> Arc<dyn Admission> {
    match engine {
        Engine::Dynamic => atomicity_core::DynamicObject::with_relation(id, spec, mgr, table) as _,
        Engine::Static => atomicity_core::StaticObject::new(id, spec, mgr) as _,
        Engine::Hybrid => atomicity_core::HybridObject::with_relation(id, spec, mgr, table) as _,
        Engine::TwoPhaseLocking => TwoPhaseLockedObject::new(id, spec, mgr) as _,
        Engine::CommutativityLocking => {
            CommutativityLockedObject::with_relation(id, spec, mgr, table) as _
        }
    }
}

/// Whether (and how) a run attaches the online streaming certifier
/// ([`atomicity_certify::OnlineCertifier`]) to the engine's recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertifyMode {
    /// No online certification (the default).
    #[default]
    Off,
    /// The watermark-retiring monitor: memory bounded by the
    /// open-transaction footprint; the production configuration.
    /// [`EngineHandle::start_online`] consumes the recorder's shard
    /// buffers as it certifies, keeping the log's memory bounded too.
    Online,
    /// The retain-all monitor — what `atomicity_lint::certify` runs over
    /// a merged history: keeps a full event mirror and decides even
    /// malformed streams. The recorder's log is left intact for post-run
    /// snapshots.
    OnlineRetaining,
}

impl CertifyMode {
    /// Stable label used in JSON report headers.
    pub fn label(self) -> &'static str {
        match self {
            CertifyMode::Off => "off",
            CertifyMode::Online => "online",
            CertifyMode::OnlineRetaining => "online-retaining",
        }
    }

    /// Whether an online monitor runs at all.
    pub fn is_on(self) -> bool {
        self != CertifyMode::Off
    }
}

impl fmt::Display for CertifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which concurrency-control implementation a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The dynamic-atomicity engine (§4.1) — state-dependent admission.
    Dynamic,
    /// The static-atomicity engine (§4.2) — generalized Reed timestamps.
    Static,
    /// The hybrid-atomicity engine (§4.3) — dynamic updates + versioned
    /// read-only snapshots.
    Hybrid,
    /// Baseline: strict two-phase read/write locking.
    TwoPhaseLocking,
    /// Baseline: commutativity-table locking (Schwarz & Spector 82).
    CommutativityLocking,
}

impl Engine {
    /// All engines, in presentation order.
    pub const ALL: [Engine; 5] = [
        Engine::Dynamic,
        Engine::Static,
        Engine::Hybrid,
        Engine::TwoPhaseLocking,
        Engine::CommutativityLocking,
    ];

    /// The engines that implement the paper's three properties.
    pub const PROPERTIES: [Engine; 3] = [Engine::Dynamic, Engine::Static, Engine::Hybrid];

    /// Short label for table rows.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Dynamic => "dynamic",
            Engine::Static => "static",
            Engine::Hybrid => "hybrid",
            Engine::TwoPhaseLocking => "2PL",
            Engine::CommutativityLocking => "commut-lock",
        }
    }

    /// The protocol this engine's manager runs.
    pub fn protocol(self) -> Protocol {
        match self {
            Engine::Static => Protocol::Static,
            Engine::Hybrid => Protocol::Hybrid,
            Engine::Dynamic | Engine::TwoPhaseLocking | Engine::CommutativityLocking => {
                Protocol::Dynamic
            }
        }
    }

    /// A manager running the protocol this engine needs.
    pub fn manager(self) -> TxnManager {
        TxnManager::new(self.protocol())
    }

    /// A manager recording into an explicit [`HistoryLog`] — the hook for
    /// comparing the sharded recorder against the single-mutex one
    /// (`HistoryLog::with_shards(1)`).
    pub fn manager_with_log(self, log: HistoryLog) -> TxnManager {
        TxnManager::with_log(self.protocol(), DeadlockPolicy::default(), log)
    }

    /// Starts an [`EngineBuilder`] for this engine — the one-stop
    /// construction path for workloads and examples.
    pub fn builder(self) -> EngineBuilder {
        EngineBuilder::new(self)
    }

    /// A bank-account object (initial balance) under this engine. The
    /// locking baseline uses the synthesized bank table (provably equal to
    /// the §5.1 hand table — see the E13 gap report).
    pub fn account(self, id: ObjectId, mgr: &TxnManager, initial: i64) -> Arc<dyn Admission> {
        construct(
            self,
            id,
            BankAccountSpec::with_initial(initial),
            mgr,
            generated("bank"),
        )
    }

    /// A key/value map object (initial entries) under this engine, locking
    /// against the synthesized map table (same-key mutators conflict,
    /// distinct keys and same-key `adjust` pairs commute).
    pub fn map(
        self,
        id: ObjectId,
        mgr: &TxnManager,
        entries: impl IntoIterator<Item = (i64, i64)>,
    ) -> Arc<dyn Admission> {
        construct(
            self,
            id,
            KvMapSpec::with_initial(entries),
            mgr,
            generated("map"),
        )
    }

    /// A FIFO-queue object under this engine.
    pub fn queue(self, id: ObjectId, mgr: &TxnManager) -> Arc<dyn Admission> {
        construct(self, id, FifoQueueSpec::new(), mgr, generated("queue"))
    }

    /// An integer-set object under this engine.
    pub fn set(self, id: ObjectId, mgr: &TxnManager) -> Arc<dyn Admission> {
        construct(self, id, IntSetSpec::new(), mgr, generated("set"))
    }

    /// A semiqueue object (§5.2's weak queue) under this engine.
    pub fn semiqueue(self, id: ObjectId, mgr: &TxnManager) -> Arc<dyn Admission> {
        construct(self, id, SemiqueueSpec::new(), mgr, generated("semiqueue"))
    }

    /// An escrow counter (initial quantity) under this engine — the fully
    /// machine-derived table: credits and successful debits all commute,
    /// only debit/debit pairs conflict.
    pub fn escrow(self, id: ObjectId, mgr: &TxnManager, initial: i64) -> Arc<dyn Admission> {
        construct(
            self,
            id,
            EscrowCounterSpec::with_initial(initial),
            mgr,
            generated("escrow"),
        )
    }
}

/// One place to assemble an engine's runtime: protocol, deadlock policy,
/// history log, and metrics sink, replacing the per-workload construction
/// glue (`manager()` / `manager_with_log()` / hand-rolled pairs).
///
/// # Example
///
/// ```
/// use atomicity_bench::{Engine, EngineBuilder};
/// use atomicity_spec::{op, ObjectId};
///
/// let handle = Engine::Dynamic.builder().collect_metrics().build();
/// let acct = handle.account(ObjectId::new(1), 100);
/// let t = handle.manager().begin();
/// acct.invoke(&t, op("withdraw", [40]))?;
/// handle.manager().commit(t)?;
/// assert_eq!(handle.metrics().snapshot().txns_committed, 1);
/// # Ok::<(), atomicity_core::TxnError>(())
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    engine: Engine,
    policy: DeadlockPolicy,
    log: Option<HistoryLog>,
    metrics: MetricsRegistry,
    certify: CertifyMode,
}

impl EngineBuilder {
    /// Starts a builder for `engine` with the default deadlock policy, a
    /// fresh sharded history log, and metrics disabled.
    pub fn new(engine: Engine) -> Self {
        EngineBuilder {
            engine,
            policy: DeadlockPolicy::default(),
            log: None,
            metrics: MetricsRegistry::disabled(),
            certify: CertifyMode::Off,
        }
    }

    /// Selects the online-certification mode for handles built from this
    /// builder. `certify(CertifyMode::Online)` attaches the streaming
    /// vector-clock monitor to the engine's recorder when the workload
    /// calls [`EngineHandle::start_online`].
    pub fn certify(mut self, mode: CertifyMode) -> Self {
        self.certify = mode;
        self
    }

    /// Overrides the deadlock policy.
    pub fn policy(mut self, policy: DeadlockPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Records into an explicit history log (e.g.
    /// `HistoryLog::with_shards(1)` for a recorder comparison).
    pub fn log(mut self, log: HistoryLog) -> Self {
        self.log = Some(log);
        self
    }

    /// Attaches an explicit metrics registry (shared sinks, custom trace
    /// capacity).
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enables metrics with a fresh default-capacity registry.
    pub fn collect_metrics(self) -> Self {
        let metrics = MetricsRegistry::new();
        self.metrics(metrics)
    }

    /// Builds the manager and wraps it in an [`EngineHandle`].
    pub fn build(self) -> EngineHandle {
        let mut b = TxnManager::builder(self.engine.protocol())
            .policy(self.policy)
            .metrics(self.metrics);
        if let Some(log) = self.log {
            b = b.log(log);
        }
        EngineHandle {
            engine: self.engine,
            mgr: b.build(),
            certify: self.certify,
        }
    }
}

/// A built engine: the manager plus typed object constructors that no
/// longer need the manager threaded through by hand. Every constructor
/// routes through one generic [`Admission`]-dispatch point
/// ([`EngineHandle::make`]) — no per-engine matching outside
/// `construct`.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    engine: Engine,
    mgr: TxnManager,
    certify: CertifyMode,
}

impl EngineHandle {
    /// Which engine this handle runs.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The online-certification mode selected at build time.
    pub fn certify_mode(&self) -> CertifyMode {
        self.certify
    }

    /// The local atomicity property this engine's histories are
    /// certified under (baselines produce dynamic-atomic histories).
    pub fn property(&self) -> Property {
        match self.engine {
            Engine::Static => Property::Static,
            Engine::Hybrid => Property::Hybrid,
            Engine::Dynamic | Engine::TwoPhaseLocking | Engine::CommutativityLocking => {
                Property::Dynamic
            }
        }
    }

    /// Starts the online streaming certifier over this engine's
    /// recorder, per the mode selected with [`EngineBuilder::certify`]:
    /// `Online` pumps a *retiring* tap (shard buffers are consumed as
    /// they certify — bounded recorder memory, but no post-run
    /// snapshot), `OnlineRetaining` a preserving one. Returns `None` in
    /// [`CertifyMode::Off`].
    ///
    /// `spec` is the sequential specification the monitor certifies
    /// against; `rel` an optional commutativity relation enabling the
    /// streaming table reduction on genuinely partial precedes orders.
    pub fn start_online(
        &self,
        spec: SystemSpec,
        rel: Option<Arc<dyn CommutesRel>>,
    ) -> Option<OnlineHandle> {
        self.spawn_online(spec, rel, self.certify == CertifyMode::Online)
    }

    /// Like [`EngineHandle::start_online`] but always pumps a
    /// *preserving* tap, leaving the recorder's log intact — the e16
    /// equality configuration, where the same run is certified both
    /// online and post-hoc from a final snapshot.
    pub fn start_online_preserving(
        &self,
        spec: SystemSpec,
        rel: Option<Arc<dyn CommutesRel>>,
    ) -> Option<OnlineHandle> {
        self.spawn_online(spec, rel, false)
    }

    fn spawn_online(
        &self,
        spec: SystemSpec,
        rel: Option<Arc<dyn CommutesRel>>,
        destructive_tap: bool,
    ) -> Option<OnlineHandle> {
        let cert = match self.certify {
            CertifyMode::Off => return None,
            CertifyMode::Online => OnlineCertifier::new(self.property(), spec, rel),
            CertifyMode::OnlineRetaining => {
                OnlineCertifier::new_retaining(self.property(), spec, rel)
            }
        };
        let log = self.mgr.log();
        let tap = if destructive_tap {
            log.tap_retiring()
        } else {
            log.tap()
        };
        Some(atomicity_certify::spawn(
            tap,
            cert,
            self.metrics().clone(),
            Duration::from_micros(200),
        ))
    }

    /// The transaction manager (begin/commit/abort live here).
    pub fn manager(&self) -> &TxnManager {
        &self.mgr
    }

    /// The manager's metrics registry (disabled unless the builder
    /// enabled it).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.mgr.metrics()
    }

    /// The single construction path every typed constructor funnels
    /// through: spec + synthesized table in, [`Admission`] object out.
    pub fn make<S: SequentialSpec>(
        &self,
        id: ObjectId,
        spec: S,
        table: Arc<dyn CommutesRel>,
    ) -> Arc<dyn Admission> {
        construct(self.engine, id, spec, &self.mgr, table)
    }

    /// A bank-account object with the given initial balance.
    pub fn account(&self, id: ObjectId, initial: i64) -> Arc<dyn Admission> {
        self.make(
            id,
            BankAccountSpec::with_initial(initial),
            generated("bank"),
        )
    }

    /// A key/value map object with the given initial entries.
    pub fn map(
        &self,
        id: ObjectId,
        entries: impl IntoIterator<Item = (i64, i64)>,
    ) -> Arc<dyn Admission> {
        self.make(id, KvMapSpec::with_initial(entries), generated("map"))
    }

    /// A FIFO-queue object.
    pub fn queue(&self, id: ObjectId) -> Arc<dyn Admission> {
        self.make(id, FifoQueueSpec::new(), generated("queue"))
    }

    /// An integer-set object.
    pub fn set(&self, id: ObjectId) -> Arc<dyn Admission> {
        self.make(id, IntSetSpec::new(), generated("set"))
    }

    /// A semiqueue object.
    pub fn semiqueue(&self, id: ObjectId) -> Arc<dyn Admission> {
        self.make(id, SemiqueueSpec::new(), generated("semiqueue"))
    }

    /// An escrow counter with the given initial quantity.
    pub fn escrow(&self, id: ObjectId, initial: i64) -> Arc<dyn Admission> {
        self.make(
            id,
            EscrowCounterSpec::with_initial(initial),
            generated("escrow"),
        )
    }

    /// An object for an arbitrary spec (see [`build_object`] for the
    /// baseline-table caveat).
    pub fn object<S: SequentialSpec>(&self, id: ObjectId, spec: S) -> Arc<dyn Admission> {
        let serial: Arc<dyn CommutesRel> = Arc::new(|_: &Operation, _: &Operation| false);
        self.make(id, spec, serial)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds an atomic object for an arbitrary specification under this
/// engine. For [`Engine::CommutativityLocking`] no type-specific table is
/// known for an arbitrary spec, so the most conservative table (nothing
/// commutes — fully serial locking) is used; prefer the spec-specific
/// constructors ([`Engine::account`] etc.) when a real table exists.
pub fn build_object<S: SequentialSpec>(
    engine: Engine,
    id: ObjectId,
    spec: S,
    mgr: &TxnManager,
) -> Arc<dyn Admission> {
    let serial: Arc<dyn CommutesRel> = Arc::new(|_: &Operation, _: &Operation| false);
    construct(engine, id, spec, mgr, serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::{op, Value};

    #[test]
    fn every_engine_runs_a_bank_transaction() {
        for engine in Engine::ALL {
            let mgr = engine.manager();
            let acct = engine.account(ObjectId::new(1), &mgr, 100);
            let t = mgr.begin();
            assert_eq!(
                acct.invoke(&t, op("withdraw", [40])).unwrap(),
                Value::ok(),
                "{engine}"
            );
            mgr.commit(t).unwrap();
        }
    }

    #[test]
    fn every_engine_runs_map_and_queue_and_set() {
        for engine in Engine::ALL {
            let mgr = engine.manager();
            let m = engine.map(ObjectId::new(1), &mgr, [(1, 5)]);
            let q = engine.queue(ObjectId::new(2), &mgr);
            let s = engine.set(ObjectId::new(3), &mgr);
            let t = mgr.begin();
            m.invoke(&t, op("adjust", [1, 5])).unwrap();
            q.invoke(&t, op("enqueue", [7])).unwrap();
            s.invoke(&t, op("insert", [3])).unwrap();
            mgr.commit(t).unwrap();
        }
    }

    #[test]
    fn every_engine_runs_semiqueue_and_escrow() {
        for engine in Engine::ALL {
            let mgr = engine.manager();
            let sq = engine.semiqueue(ObjectId::new(1), &mgr);
            let esc = engine.escrow(ObjectId::new(2), &mgr, 10);
            let t = mgr.begin();
            sq.invoke(&t, op("enq", [7])).unwrap();
            esc.invoke(&t, op("credit", [5])).unwrap();
            esc.invoke(&t, op("debit", [3])).unwrap();
            mgr.commit(t).unwrap();
        }
    }

    #[test]
    fn synthesized_tables_drive_the_locking_baseline() {
        // Concurrent deposits share the lock under the generated bank
        // table, exactly as under the old §5.1 hand table...
        let mgr = Engine::CommutativityLocking.manager();
        let acct = Engine::CommutativityLocking.account(ObjectId::new(1), &mgr, 100);
        let a = mgr.begin();
        let b = mgr.begin();
        acct.invoke(&a, op("deposit", [3])).unwrap();
        acct.invoke(&b, op("deposit", [5])).unwrap();
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        // ...and the escrow table admits concurrent credit and debit — the
        // concurrency no hand table in this workspace ever granted.
        let esc = Engine::CommutativityLocking.escrow(ObjectId::new(2), &mgr, 10);
        let c = mgr.begin();
        let d = mgr.begin();
        esc.invoke(&c, op("credit", [5])).unwrap();
        esc.invoke(&d, op("debit", [3])).unwrap();
        mgr.commit(c).unwrap();
        mgr.commit(d).unwrap();
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> = Engine::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), Engine::ALL.len());
    }
}
