//! Every construction of a system under test, in one place: these are
//! the benchmark's touchpoints with the crates' public API. Workloads and
//! lanes build engines, logs and services only through this file.

use crate::probe;
use atomicity_baselines::{CommutativityLockedObject, TwoPhaseLockedObject};
use atomicity_certify::{OnlineCertifier, OnlineHandle};
use atomicity_core::recovery::{DurableLog, IntentionsStore, LogRecord};
use atomicity_core::{
    Admission, CommutesRel, DynamicObject, HistoryLog, HybridObject, LogTap, Protocol,
    StaticObject, TxnManager,
};
use atomicity_dist::{DistConfig, DistService, WorkloadKind};
use atomicity_durable::{SyncPolicy, Wal, WalOptions};
use atomicity_lint::{standard_syntheses, Property, SynthConfig};
use atomicity_sim::{Cluster, FaultConfig, MttfConfig, SimConfig, TransferClient};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{ObjectId, SystemSpec};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Opening balance of every account: large enough that no withdrawal in
/// any script is refused, so `withdraw` always takes the data-dependent
/// admission path (§5.1) and never the `insufficient_funds` one.
pub const OPENING_BALANCE: i64 = 1 << 40;

/// The one hot account.
pub const HOT: ObjectId = ObjectId::new(1);

/// Synthesizes every ADT's conflict table from its sequential
/// specification and returns the bank account's.
pub fn synthesized_bank_table() -> Arc<dyn CommutesRel> {
    let suite = standard_syntheses(&SynthConfig::default());
    Arc::new(
        suite
            .table("bank")
            .expect("the suite synthesizes the bank table")
            .clone(),
    )
}

pub fn bank_spec() -> BankAccountSpec {
    BankAccountSpec::with_initial(OPENING_BALANCE)
}

/// The specification of accounts `1..=accounts`, for the certifiers.
pub fn bank_system(accounts: u32) -> SystemSpec {
    (1..=accounts).fold(SystemSpec::new(), |s, i| {
        s.with_object(ObjectId::new(i), bank_spec())
    })
}

/// How the hot account is guarded: the engine of the paper with or
/// without the synthesized table, or one of the lock baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotGuard {
    DynamicWithTable,
    DynamicReplayOnly,
    TwoPhaseLocking,
    CommutativityLocking,
}

/// A dynamic-protocol manager and the hot account under `guard`.
pub fn hot_account(
    guard: HotGuard,
    table: &Arc<dyn CommutesRel>,
) -> (TxnManager, Arc<dyn Admission>) {
    let mgr = TxnManager::new(Protocol::Dynamic);
    let table = Arc::clone(table);
    let object: Arc<dyn Admission> = match guard {
        HotGuard::DynamicWithTable => DynamicObject::with_relation(HOT, bank_spec(), &mgr, table),
        HotGuard::DynamicReplayOnly => DynamicObject::new(HOT, bank_spec(), &mgr),
        HotGuard::TwoPhaseLocking => TwoPhaseLockedObject::new(HOT, bank_spec(), &mgr),
        HotGuard::CommutativityLocking => {
            CommutativityLockedObject::with_relation(HOT, bank_spec(), &mgr, table)
        }
    };
    (mgr, object)
}

/// A hybrid-protocol manager recording into `log`, and accounts
/// `1..=accounts` under the hybrid engine with the synthesized table.
pub fn hybrid_bank(
    accounts: u32,
    table: &Arc<dyn CommutesRel>,
    log: HistoryLog,
) -> (TxnManager, Vec<Arc<HybridObject<BankAccountSpec>>>) {
    let mgr = TxnManager::builder(Protocol::Hybrid).log(log).build();
    let objects = (1..=accounts)
        .map(|i| {
            HybridObject::with_relation(ObjectId::new(i), bank_spec(), &mgr, Arc::clone(table))
        })
        .collect();
    (mgr, objects)
}

/// The same accounts under the static (timestamp-order) engine.
pub fn static_bank(accounts: u32) -> (TxnManager, Vec<Arc<StaticObject<BankAccountSpec>>>) {
    let mgr = TxnManager::new(Protocol::Static);
    let objects = (1..=accounts)
        .map(|i| StaticObject::new(ObjectId::new(i), bank_spec(), &mgr))
        .collect();
    (mgr, objects)
}

/// The online monitor for accounts `1..=accounts` under hybrid atomicity.
pub fn online_monitor(accounts: u32, table: &Arc<dyn CommutesRel>) -> OnlineCertifier {
    OnlineCertifier::new(
        Property::Hybrid,
        bank_system(accounts),
        Some(Arc::clone(table)),
    )
}

/// Hands `tap` and `monitor` to the certify crate's own pump thread.
pub fn pump_thread(tap: LogTap, monitor: OnlineCertifier, mgr: &TxnManager) -> OnlineHandle {
    atomicity_certify::spawn(
        tap,
        monitor,
        mgr.metrics().clone(),
        Duration::from_micros(200),
    )
}

/// Where write-ahead logs go: inside the checkout, because the benchmark
/// may write nowhere else. The filesystem type is printed with a result.
pub fn wal_root() -> PathBuf {
    PathBuf::from("benchmark/out/wal")
}

/// The repository's [`Wal`] with its flush left out.
///
/// `IntentionsStore` forces the log after every record. On the sandbox's
/// disk one `fdatasync` is ~160 µs and moves by tens of percent between
/// runs, which hides the commit path's own cost, so the log is opened
/// under `GroupCommit` (an append is `encode_frame` + `write_all` + the
/// in-memory mirror, nothing else) and `sync` is counted and dropped:
/// appends reach the page cache and no device is waited for. Flush cost
/// is reported separately by the `durability.wal.disk_sync_us` lane.
/// Appends and mirror reads are recorded as spans, so they nest under
/// the `IntentionsStore` call that caused them.
#[derive(Debug)]
pub struct UnflushedWal {
    wal: Wal,
    syncs: AtomicU64,
}

impl UnflushedWal {
    /// Opens the log in `dir` (recovering what is there). One segment
    /// holds a whole trial: rotation would `fsync`.
    pub fn open(dir: &Path) -> io::Result<Arc<UnflushedWal>> {
        let opts = WalOptions {
            segment_bytes: 1 << 40,
            sync: SyncPolicy::GroupCommit {
                window: Duration::ZERO,
            },
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(dir, opts)?;
        Ok(Arc::new(UnflushedWal {
            wal,
            syncs: AtomicU64::new(0),
        }))
    }

    /// `sync` calls dropped so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Bytes in the log's segment files.
    pub fn bytes_on_disk(&self) -> u64 {
        fs::read_dir(self.wal.dir())
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Empties the segment files, so that closing the log (which does
    /// flush) has no dirty pages to write to the device.
    pub fn discard(&self) {
        if let Ok(entries) = fs::read_dir(self.wal.dir()) {
            for entry in entries.flatten() {
                if let Ok(file) = fs::OpenOptions::new().write(true).open(entry.path()) {
                    let _ = file.set_len(0);
                }
            }
        }
    }
}

impl DurableLog for UnflushedWal {
    fn append(&self, record: LogRecord) -> u64 {
        probe::call(probe::WAL_APPEND, probe::NONE, probe::NONE, || {
            self.wal.append(record)
        })
    }

    fn sync(&self) {
        probe::call(probe::WAL_SYNC, probe::NONE, probe::NONE, || {
            self.syncs.fetch_add(1, Ordering::Relaxed);
        });
    }

    fn records(&self) -> Vec<LogRecord> {
        self.wal.records()
    }

    fn records_from(&self, from: usize) -> Vec<LogRecord> {
        probe::call(probe::WAL_MIRROR_READ, probe::NONE, probe::NONE, || {
            self.wal.records_from(from)
        })
    }

    fn len(&self) -> usize {
        self.wal.len()
    }
}

/// The durable account: an intentions-list store over `log`.
pub fn durable_account(log: Arc<dyn DurableLog>) -> IntentionsStore<BankAccountSpec> {
    IntentionsStore::shared(bank_spec(), HOT, log)
}

/// A flushing log on the sandbox's disk, for the informational lanes.
pub fn flushing_wal(dir: &Path, sync: SyncPolicy) -> io::Result<Wal> {
    Wal::open(
        dir,
        WalOptions {
            sync,
            ..WalOptions::default()
        },
    )
    .map(|(wal, _)| wal)
}

/// Removes a log directory and everything in it.
pub fn remove_wal(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// The partitioned service of `dist_market`: 4 shards, marketplace
/// orders, a reliable network with 50–500 µs simulated delay, dependency
/// logging on, `clients × requests_per_tick × ticks` transactions.
pub fn market_service(seed: u64, ticks: u64, record_trace: bool) -> DistService {
    DistService::new(DistConfig {
        seed,
        shards: 4,
        clients: 4,
        requests_per_tick: 4,
        ticks,
        workload: WorkloadKind::Marketplace,
        accounts: 100_000,
        listings: 1_024,
        dep_logging: true,
        faults: FaultConfig::reliable(50, 500),
        record_trace,
        ..DistConfig::default()
    })
}

/// Transactions `market_service` submits per tick.
pub const MARKET_TXNS_PER_TICK: u64 = 16;

/// One seed of the single-coordinator simulator under its full fault
/// matrix (loss, duplication, reordering, MTTF crashes), 12 transfers.
pub fn faulty_cluster(seed: u64) -> Cluster {
    let mut cluster = Cluster::new(SimConfig {
        seed,
        drop_probability: 0.08,
        duplicate_probability: 0.08,
        max_duplicates: 2,
        reorder_probability: 0.15,
        reorder_extra: 1_800,
        mttf: Some(MttfConfig::default()),
        ..SimConfig::default()
    });
    let rng = cluster.client_rng(0);
    let accounts = cluster.account_count();
    cluster.add_client(Box::new(
        TransferClient::new(rng, accounts, 12).with_audit_every(4),
    ));
    cluster
}
