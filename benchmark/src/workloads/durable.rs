//! `durable_bank`: one committer staging and committing two-operation
//! transactions through `IntentionsStore` over the write-ahead log.
//!
//! The log's flush is left out (see [`sut::UnflushedWal`]), so a trial is
//! frame encoding and CRC, the `write` syscalls, the in-memory mirror and
//! the store's per-transaction index — the commit path's CPU and syscall
//! cost in this sandbox, not a device's latency. Set-up is a restart: it
//! writes a log of [`RESTART_COMMITS`] commits, reopens it and recovers.

use super::{balance_after, LayerValues, Trial, Workload};
use crate::probe;
use crate::sut::{self, UnflushedWal};
use atomicity_core::recovery::DurableLog;
use atomicity_sim::SimRng;
use atomicity_spec::{op, ActivityId, OpResult, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Commits in the log that set-up recovers from, at full size (a `--smoke`
/// run recovers from a log as many times shorter as its trials are).
pub const RESTART_COMMITS: usize = 20_000;
const FULL_TRIAL_TXNS: usize = 8_000;

/// A deposit and a withdrawal the opening balance always covers.
pub fn script(rng: &mut SimRng, txns: usize) -> Vec<Vec<OpResult>> {
    (0..txns)
        .map(|_| {
            vec![
                (op("deposit", [rng.range(1, 100) as i64]), Value::ok()),
                (op("withdraw", [rng.range(1, 100) as i64]), Value::ok()),
            ]
        })
        .collect()
}

fn closing_balance(script: &[Vec<OpResult>]) -> i64 {
    script
        .iter()
        .flatten()
        .fold(sut::OPENING_BALANCE, |b, (o, _)| balance_after(b, o))
}

/// Stages and commits every transaction of `script` through a store over
/// `wal`; returns the commits.
fn commit_all(
    wal: &Arc<UnflushedWal>,
    script: Vec<Vec<OpResult>>,
    latencies: &mut Vec<u32>,
) -> u64 {
    let store = sut::durable_account(Arc::clone(wal) as Arc<dyn DurableLog>);
    let mut committed = 0;
    for (i, ops) in script.into_iter().enumerate() {
        let label = i as u32;
        let txn = ActivityId::new(label + 1);
        let started = Instant::now();
        let request = probe::begin_request(label);
        probe::call(probe::REC_PREPARE, request, label, || {
            store.prepare(txn, ops)
        });
        probe::call(probe::REC_COMMIT, request, label, || store.commit(txn));
        latencies.push(started.elapsed().as_nanos() as u32);
        probe::end_request(request);
        committed += 1;
    }
    committed
}

/// What a restart took.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    pub open_ns: u64,
    pub recover_ns: u64,
}

/// Writes `script` to a fresh log in `dir`, closes it, reopens it and
/// recovers the account from it; checks that every acknowledged commit
/// came back and the recovered state is the committed frontier.
pub fn write_and_restart(dir: &Path, script: Vec<Vec<OpResult>>) -> Result<Restart, String> {
    sut::remove_wal(dir);
    let (commits, expected) = (script.len(), closing_balance(&script));
    let wal = UnflushedWal::open(dir).map_err(|e| format!("opening the log: {e}"))?;
    commit_all(&wal, script, &mut Vec::new());
    drop(wal);

    let start = Instant::now();
    let wal = UnflushedWal::open(dir).map_err(|e| format!("reopening the log: {e}"))?;
    let open_ns = start.elapsed().as_nanos() as u64;
    let store = sut::durable_account(Arc::clone(&wal) as Arc<dyn DurableLog>);
    store.crash();
    let start = Instant::now();
    let outcome = store.recover();
    let recover_ns = start.elapsed().as_nanos() as u64;
    let frontier = store.committed_frontier();
    drop(store);
    wal.discard();
    drop(wal);
    sut::remove_wal(dir);

    if outcome.redone.len() != commits || !outcome.in_doubt.is_empty() {
        return Err(format!(
            "restart redid {} of {commits} acknowledged commits, {} in doubt",
            outcome.redone.len(),
            outcome.in_doubt.len()
        ));
    }
    if frontier != [expected] {
        return Err(format!(
            "recovered state {frontier:?}, committed frontier was {expected}"
        ));
    }
    Ok(Restart {
        open_ns,
        recover_ns,
    })
}

pub struct DurableBank {
    script: Vec<Vec<OpResult>>,
    dir: PathBuf,
    restarted: Result<Restart, String>,
    // Summed over the trials so far.
    commits: u64,
    bytes: u64,
    syncs: u64,
}

impl DurableBank {
    pub fn set_up(seed: u64, txns: usize) -> Self {
        let root = SimRng::new(seed);
        let dir = sut::wal_root().join(format!("durable-{}", std::process::id()));
        let old = script(
            &mut root.split("durable-restart", 0),
            RESTART_COMMITS * txns / FULL_TRIAL_TXNS,
        );
        DurableBank {
            script: script(&mut root.split("durable", 0), txns),
            restarted: write_and_restart(&dir, old),
            dir,
            commits: 0,
            bytes: 0,
            syncs: 0,
        }
    }
}

impl Workload for DurableBank {
    fn trial(&mut self, latencies: &mut Vec<u32>) -> Result<Trial, String> {
        self.restarted.clone()?;
        sut::remove_wal(&self.dir);
        let wal = UnflushedWal::open(&self.dir).map_err(|e| format!("opening the log: {e}"))?;
        let script = self.script.clone();
        let (mut trial, committed) =
            Trial::timed(script.len() * 12, || commit_all(&wal, script, latencies));
        (trial.begun, trial.committed) = (committed, committed);
        self.commits += committed;
        self.bytes += wal.bytes_on_disk();
        self.syncs += wal.syncs();
        wal.discard();
        drop(wal);
        sut::remove_wal(&self.dir);
        Ok(trial)
    }

    fn verify(&mut self) -> Result<(), String> {
        self.restarted.clone()?;
        let prefix = self.script[..self.script.len().min(5_000)].to_vec();
        write_and_restart(&self.dir, prefix).map(|_| ())
    }

    fn layer_values(&self, into: &mut LayerValues) {
        let commits = self.commits.max(1) as f64;
        into.insert(
            "durability.wal.bytes_per_commit",
            self.bytes as f64 / commits,
        );
        into.insert(
            "durability.wal.syncs_per_commit",
            self.syncs as f64 / commits,
        );
    }
}
