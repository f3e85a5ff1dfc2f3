//! The kill-based crash harness: SIGKILL a committing child process at
//! hundreds of randomized points and certify what recovery hands back.
//!
//! Each iteration spawns the `crash_child` binary (see its module docs
//! for the workload contract) against a fresh WAL directory, sleeps a
//! pseudo-random slice of the child's commit stream, and kills it with
//! SIGKILL — no atexit, no buffered-writer flush, no mercy. The directory
//! is then reopened and recovery is held to the durability contract:
//!
//! 1. **No lost committed transaction**: every transaction the child
//!    *acknowledged* (it only acks after `commit` — and therefore the log
//!    force — returned) is redone by recovery.
//! 2. **No resurrected loser**: aborted and merely-prepared transactions
//!    never appear in the redone set; in-doubt transactions are reported
//!    for the coordinator, never silently applied.
//! 3. **Exact state**: the recovered frontier equals the oracle fold of
//!    the redone set — no double-applied intention, no missing deposit.
//! 4. **Atomicity**: the history equivalent to what recovery reinstalled
//!    is certified dynamic-atomic by the linear-time certifier from
//!    `atomicity-lint`.
//! 5. **Idempotence**: reopening and recovering a second time yields the
//!    identical log and state.
//!
//! Knobs (environment): `CRASH_KILL_POINTS` (default 200 kill points) and
//! `CRASH_HARNESS_BUDGET_SECS` (default 60; the sweep stops early once
//! the budget is spent, but never before 25 points).

#![cfg(unix)]

use atomicity_core::recovery::{DurableLog, IntentionsStore};
use atomicity_durable::{SyncPolicy, Wal, WalOptions};
use atomicity_lint::{certify, Property};
use atomicity_spec::specs::BankAccountSpec;
use atomicity_spec::{op, Event, History, ObjectId, SystemSpec, Value};
use std::collections::BTreeSet;
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The workload contract, mirrored from `src/bin/crash_child.rs` (both
// sides compute it from the transaction id alone — no side channel).

fn amount(t: u32) -> i64 {
    i64::from(t % 97 + 1)
}

fn is_in_doubt(t: u32) -> bool {
    t % 11 == 5
}

fn is_loser(t: u32) -> bool {
    !is_in_doubt(t) && t % 7 == 3
}

/// splitmix64: deterministic per-kill-point randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Acked transaction ids: complete (newline-terminated) lines only. A
/// SIGKILL can tear the final line mid-write; a torn line is an ack that
/// was never fully issued, so it carries no durability promise.
fn read_acks(path: &std::path::Path) -> BTreeSet<u32> {
    let mut buf = String::new();
    match std::fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut buf).expect("read acks");
        }
        Err(_) => return BTreeSet::new(),
    }
    buf.split_inclusive('\n')
        .filter(|line| line.ends_with('\n'))
        .map(|line| line.trim().parse().expect("ack line"))
        .collect()
}

struct KillOutcome {
    acked: usize,
    redone: usize,
    in_doubt: usize,
    torn_bytes: u64,
}

/// One kill point: spawn, kill, recover, certify.
fn kill_once(point: u64) -> KillOutcome {
    let dir = std::env::temp_dir().join(format!("atomicity-kill-{}-{point}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let r = mix(point);
    let mode = if point.is_multiple_of(2) {
        "group"
    } else {
        "sync"
    };
    let window_us = (50 + (r % 4) * 150).to_string(); // 50..500µs windows
    let mut child = Command::new(env!("CARGO_BIN_EXE_crash_child"))
        .arg(&dir)
        .arg(mode)
        .arg(&window_us)
        .arg("4") // committer threads
        .arg("1000000") // per-thread limit: far beyond the kill delay
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crash_child");

    // Sleep into the commit stream, then SIGKILL. The low end lands
    // during startup / the first commits; the high end lands well into
    // checkpoint territory.
    let delay = Duration::from_micros(500 + mix(r) % 45_000);
    std::thread::sleep(delay);
    child.kill().expect("SIGKILL crash_child");
    child.wait().expect("reap crash_child");

    // --- Recover. ---
    let opts = WalOptions {
        sync: SyncPolicy::SyncEach,
        ..WalOptions::default()
    };
    let (wal, info) = Wal::open(&dir, opts.clone()).expect("recovery open must not fail");
    let store = IntentionsStore::shared(
        BankAccountSpec::new(),
        ObjectId::new(1),
        Arc::new(wal.clone()),
    );
    let outcome = store.recover();
    let redone: BTreeSet<u32> = outcome.redone.iter().map(|t| t.raw()).collect();
    let in_doubt: BTreeSet<u32> = outcome.in_doubt.iter().map(|t| t.raw()).collect();
    let acked = read_acks(&dir.join("acks.log"));

    // 1. No lost committed transaction.
    for &t in &acked {
        assert!(
            redone.contains(&t),
            "point {point} ({mode}, delay {delay:?}): acked txn {t} lost by recovery \
             (redone={redone:?})"
        );
    }
    // 2. No resurrected loser.
    for &t in &redone {
        assert!(
            !is_loser(t) && !is_in_doubt(t),
            "point {point}: recovery redid txn {t}, which never committed"
        );
    }
    for &t in &in_doubt {
        assert!(
            !acked.contains(&t),
            "point {point}: acked txn {t} reported in doubt"
        );
    }
    // 3. Exact state: the oracle fold of the redone set.
    let oracle: i64 = redone.iter().map(|&t| amount(t)).sum();
    assert_eq!(
        store.committed_frontier(),
        vec![oracle],
        "point {point}: recovered balance diverges from oracle"
    );

    // 4. Certify dynamic atomicity of the recovered committed history.
    let x = ObjectId::new(1);
    let mut h = History::new();
    for t in &outcome.redone {
        h.push(Event::invoke(*t, x, op("deposit", [amount(t.raw())])));
        h.push(Event::respond(*t, x, Value::ok()));
        h.push(Event::commit(*t, x));
    }
    let spec = SystemSpec::new().with_object(x, BankAccountSpec::new());
    let cert = certify(Property::Dynamic, &h, &spec);
    assert!(
        cert.is_certified(),
        "point {point}: recovered history refused certification: {cert:?}"
    );

    // 5. Idempotent recovery: a second open sees the identical log.
    let records = wal.records();
    drop(store);
    drop(wal);
    let (wal2, info2) = Wal::open(&dir, opts).expect("second open");
    assert_eq!(info2.torn_bytes, 0, "point {point}: tail not repaired");
    assert_eq!(
        wal2.records(),
        records,
        "point {point}: reopen changed the log"
    );
    let store2 = IntentionsStore::shared(BankAccountSpec::new(), x, Arc::new(wal2));
    let outcome2 = store2.recover();
    assert_eq!(outcome2.redone, outcome.redone);
    assert_eq!(store2.committed_frontier(), vec![oracle]);

    let out = KillOutcome {
        acked: acked.len(),
        redone: redone.len(),
        in_doubt: in_doubt.len(),
        torn_bytes: info.torn_bytes,
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn sigkill_sweep_loses_nothing() {
    let points = env_u64("CRASH_KILL_POINTS", 200);
    let budget = Duration::from_secs(env_u64("CRASH_HARNESS_BUDGET_SECS", 60));
    let start = Instant::now();

    let (mut ran, mut acked, mut redone, mut in_doubt, mut torn) = (0u64, 0, 0, 0, 0u64);
    let mut nonempty = 0u64;
    for point in 0..points {
        let o = kill_once(point);
        ran += 1;
        acked += o.acked;
        redone += o.redone;
        in_doubt += o.in_doubt;
        torn += o.torn_bytes;
        if o.redone > 0 {
            nonempty += 1;
        }
        if start.elapsed() > budget && ran >= 25 {
            eprintln!("kill harness: budget spent after {ran}/{points} points");
            break;
        }
    }
    eprintln!(
        "kill harness: {ran} kills, {acked} acks verified, {redone} txns redone, \
         {in_doubt} in doubt, {torn} torn bytes truncated, {:?} elapsed",
        start.elapsed()
    );
    // The sweep must actually have exercised commits, not just killed
    // processes during startup.
    assert!(
        nonempty * 2 >= ran,
        "fewer than half the kill points ({nonempty}/{ran}) caught committed work — \
         kill delays are mistuned"
    );
}

/// A child left entirely alone (no kill) recovers to exactly its final
/// acked set — the harness's own plumbing is sound.
#[test]
fn clean_exit_recovers_every_ack() {
    let dir = std::env::temp_dir().join(format!("atomicity-kill-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = Command::new(env!("CARGO_BIN_EXE_crash_child"))
        .arg(&dir)
        .arg("group")
        .arg("200")
        .arg("4")
        .arg("40") // 160 txns total, then clean exit
        .status()
        .expect("run crash_child");
    assert!(status.success());

    let (wal, _) = Wal::open(
        &dir,
        WalOptions {
            sync: SyncPolicy::SyncEach,
            ..WalOptions::default()
        },
    )
    .expect("open");
    let store = IntentionsStore::shared(BankAccountSpec::new(), ObjectId::new(1), Arc::new(wal));
    let outcome = store.recover();
    let redone: BTreeSet<u32> = outcome.redone.iter().map(|t| t.raw()).collect();
    let acked = read_acks(&dir.join("acks.log"));
    assert_eq!(redone, acked, "clean run: redone must equal acked exactly");
    let oracle: i64 = redone.iter().map(|&t| amount(t)).sum();
    assert_eq!(store.committed_frontier(), vec![oracle]);
    let _ = std::fs::remove_dir_all(&dir);
}
