//! Group commit, checked on the `Wal` itself: it batches device flushes
//! and its flush instrumentation counts them (what batching buys in
//! commits per second is the benchmark's `durability.wal.*` metrics), and
//! dropping the last handle while the flusher thread is mid-flush neither
//! panics nor loses records.

use atomicity_core::recovery::{DurableLog, LogRecord, RecordKind};
use atomicity_core::MetricsRegistry;
use atomicity_durable::{SyncPolicy, Wal, WalOptions};
use atomicity_spec::{op, ActivityId, ObjectId, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atomicity-gc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One transaction's two records: a prepare and its commit.
fn txn_records(txn: u32) -> [LogRecord; 2] {
    let (txn, object) = (ActivityId::new(txn), ObjectId::new(1));
    [
        LogRecord {
            txn,
            object,
            kind: RecordKind::Prepare {
                ops: vec![(op("deposit", [5]), Value::ok())],
            },
        },
        LogRecord {
            txn,
            object,
            kind: RecordKind::Commit,
        },
    ]
}

/// `threads` committers, each forcing the log once per transaction the
/// way `IntentionsStore::commit` does. Returns (fsyncs, records retired
/// through them) as the flush instrumentation counted them.
fn committers(tag: &str, sync: SyncPolicy, threads: u32, txns: u32) -> (u64, u64) {
    let dir = tmpdir(tag);
    let metrics = MetricsRegistry::new();
    let opts = WalOptions {
        sync,
        metrics: metrics.clone(),
        ..WalOptions::default()
    };
    let (wal, _) = Wal::open(&dir, opts).unwrap();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let wal = wal.clone();
            s.spawn(move || {
                for n in 0..txns {
                    for r in txn_records(tid * txns + n + 1) {
                        wal.append(r);
                    }
                    wal.sync();
                }
            });
        }
    });
    assert_eq!(wal.durable_lsn(), u64::from(threads * txns * 2));
    drop(wal);
    std::fs::remove_dir_all(&dir).unwrap();
    let snap = metrics.snapshot();
    (snap.wal_flush_ns.count, snap.wal_batch.sum_nanos)
}

#[test]
fn group_commit_batches_fsyncs_and_flush_metrics_speak() {
    let (threads, txns) = (2, 25);
    let records = u64::from(threads * txns * 2);

    let (fsyncs, retired) = committers("each", SyncPolicy::SyncEach, threads, txns);
    assert!(
        fsyncs >= records,
        "sync-each: {fsyncs} fsyncs, {records} records"
    );
    assert_eq!(retired, records);

    let window = Duration::from_micros(100);
    let (fsyncs, retired) = committers("group", SyncPolicy::GroupCommit { window }, threads, txns);
    assert!(fsyncs > 0, "flush instrumentation is mute");
    assert!(
        fsyncs < records,
        "group commit never batched: {fsyncs} fsyncs"
    );
    assert_eq!(retired, records, "every record retires through a flush");
}

#[test]
fn dropping_the_last_handle_mid_flush_neither_panics_nor_loses_records() {
    // The flusher upgrades its weak reference for the length of one
    // flush; a user handle dropped meanwhile makes the flusher thread the
    // one that runs the log's destructor, which must not join itself. A
    // panic there is on a detached thread, so watch for it with a hook.
    static FLUSHER_PANICKED: AtomicBool = AtomicBool::new(false);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("wal-flusher") {
            FLUSHER_PANICKED.store(true, Ordering::SeqCst);
        }
        previous(info);
    }));

    let dir = tmpdir("drop");
    let opts = WalOptions {
        sync: SyncPolicy::GroupCommit {
            window: Duration::ZERO,
        },
        ..WalOptions::default()
    };
    let rounds = 400u32;
    for round in 0..rounds {
        let (wal, info) = Wal::open(&dir, opts.clone()).unwrap();
        assert_eq!(info.records, 2 * round as usize, "round {round}");
        for r in txn_records(round + 1) {
            wal.append(r);
        }
        // Returns the moment the flusher publishes the durable LSN —
        // while it still holds its upgraded reference.
        wal.sync();
        drop(wal);
    }
    let (wal, info) = Wal::open(&dir, opts).unwrap();
    assert_eq!(info.torn_bytes, 0);
    let expected: Vec<LogRecord> = (1..=rounds).flat_map(txn_records).collect();
    assert_eq!(wal.records(), expected);
    drop(wal);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        !FLUSHER_PANICKED.load(Ordering::SeqCst),
        "the flusher thread panicked dropping the log"
    );
}
