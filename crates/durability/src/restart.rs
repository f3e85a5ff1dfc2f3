//! In-process simulated restarts of the on-disk WAL.
//!
//! The kill harness proves recovery against real process death; the
//! deterministic simulation needs the same "everything volatile is gone,
//! only the disk survives" transition *without* forking. [`Wal`] keeps an
//! in-memory mirror of the logical record sequence (so `records()` never
//! re-reads the disk), which means merely calling it again after a
//! simulated crash would not exercise recovery at all. A
//! [`RestartableWal`] closes that gap: it implements
//! [`DurableLog`] by delegating to an inner [`Wal`], and
//! [`RestartableWal::simulate_restart`] *drops* that `Wal` — discarding
//! every in-memory structure — then runs the full [`Wal::open`] recovery
//! path (checkpoint load, segment scan, torn-tail truncation) against
//! whatever bytes are actually on disk.
//!
//! The simulation's MTTF crash events call this through the cluster's
//! restart hook, so every mid-run node crash recovers through the same
//! code path a real reboot would take.

use crate::wal::{Wal, WalOptions, WalRecoveryInfo};
use atomicity_core::recovery::{DurableLog, LogRecord};
use atomicity_core::sync::{Mutex, Rank};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// A [`DurableLog`] over an on-disk [`Wal`] that can be torn down and
/// re-opened from disk mid-run, simulating a process restart.
pub struct RestartableWal {
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
}

struct Inner {
    /// `None` only transiently inside [`RestartableWal::simulate_restart`]
    /// (or permanently after a failed restart, which poisons the store).
    wal: Option<Wal>,
    last_recovery: WalRecoveryInfo,
    restarts: u64,
}

impl Inner {
    fn wal(&self) -> &Wal {
        self.wal
            .as_ref()
            .expect("WAL lost: a simulated restart failed to re-open it")
    }
}

impl fmt::Debug for RestartableWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("RestartableWal")
            .field("dir", &self.dir)
            .field("restarts", &inner.restarts)
            .field("last_recovery", &inner.last_recovery)
            .finish_non_exhaustive()
    }
}

impl RestartableWal {
    /// Opens (recovering if needed) the WAL in `dir`.
    ///
    /// For deterministic simulation pass
    /// [`SyncPolicy::SyncEach`](crate::SyncPolicy::SyncEach) in `opts`:
    /// group commit runs a background flusher thread whose batching is
    /// timing-dependent.
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (wal, info) = Wal::open(&dir, opts.clone())?;
        Ok(RestartableWal {
            dir,
            opts,
            inner: Mutex::new(
                Rank::RestartInner,
                Inner {
                    wal: Some(wal),
                    last_recovery: info,
                    restarts: 0,
                },
            ),
        })
    }

    /// Simulates a process restart: drops the live [`Wal`] (losing every
    /// in-memory structure) and re-opens it from the bytes on disk,
    /// running the real recovery path. Returns what recovery found.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from [`Wal::open`]. On error the previous
    /// WAL handle has already been dropped; the caller should treat the
    /// store as failed.
    pub fn simulate_restart(&self) -> io::Result<WalRecoveryInfo> {
        let mut inner = self.inner.lock();
        // Drop the old handle *first* so its flusher (if any) shuts down
        // and the re-open sees quiesced files.
        inner.wal = None;
        let (wal, info) = Wal::open(&self.dir, self.opts.clone())?;
        inner.wal = Some(wal);
        inner.last_recovery = info.clone();
        inner.restarts += 1;
        Ok(info)
    }

    /// What the most recent open/restart recovery found.
    pub fn last_recovery(&self) -> WalRecoveryInfo {
        self.inner.lock().last_recovery.clone()
    }

    /// How many simulated restarts have run.
    pub fn restarts(&self) -> u64 {
        self.inner.lock().restarts
    }

    /// The directory holding the WAL files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl DurableLog for RestartableWal {
    fn append(&self, record: LogRecord) -> u64 {
        self.inner.lock().wal().append(record)
    }

    fn sync(&self) {
        self.inner.lock().wal().sync();
    }

    fn records(&self) -> Vec<LogRecord> {
        self.inner.lock().wal().records()
    }

    fn len(&self) -> usize {
        self.inner.lock().wal().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SyncPolicy;
    use atomicity_core::recovery::RecordKind;
    use atomicity_spec::{op, ActivityId, ObjectId, Value};

    fn sim_opts() -> WalOptions {
        WalOptions {
            sync: SyncPolicy::SyncEach,
            ..WalOptions::default()
        }
    }

    fn rec(txn: u32) -> LogRecord {
        LogRecord {
            txn: ActivityId::new(txn),
            object: ObjectId::new(1),
            kind: RecordKind::Prepare {
                ops: vec![(op("adjust", [1, 5]), Value::ok())],
            },
        }
    }

    #[test]
    fn restart_recovers_exactly_the_synced_records() {
        let dir = tempdir("restart_recovers");
        let wal = RestartableWal::open(&dir, sim_opts()).unwrap();
        wal.append(rec(1));
        wal.append(rec(2));
        wal.sync();
        let before = wal.records();
        let info = wal.simulate_restart().unwrap();
        assert_eq!(info.records, 2);
        assert_eq!(wal.records(), before, "recovery reproduces the log");
        assert_eq!(wal.restarts(), 1);
        // The log stays appendable after a restart.
        wal.append(rec(3));
        wal.sync();
        assert_eq!(wal.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_is_a_real_reopen_not_a_cache_read() {
        let dir = tempdir("restart_reopen");
        let wal = RestartableWal::open(&dir, sim_opts()).unwrap();
        wal.append(rec(1));
        wal.sync();
        assert_eq!(wal.last_recovery().records, 0, "first open saw empty dir");
        wal.simulate_restart().unwrap();
        assert_eq!(
            wal.last_recovery().records,
            1,
            "restart re-ran recovery over the on-disk bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("restartable-wal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}
