//! Dependency-logged parallel recovery.
//!
//! Value-log recovery ([`serial_replay`], which is literally
//! [`IntentionsStore::recover`] run over the shard's log) replays commit
//! records one at a time: recovery time grows with log length no matter
//! how little of the log actually conflicts. The dependency log removes
//! the false serialization. Each `CommitDep` record carries the
//! transaction's read/write key footprint
//! ([`atomicity_core::KeyFootprint`]); recovery builds a transaction
//! dependency graph ([`DepGraph`]) with an edge only where two commits'
//! footprints overlap on a key **and** their operations on that key fail
//! the synthesized conflict table ([`map_commutes`]) — two blind `adjust`
//! increments of the same account commute and get no edge; two `set`s of
//! the same listing do not and stay ordered. Topological scheduling then
//! replays independent chains in parallel ([`parallel_replay`]), and the
//! result is *certified* against the serial value-log replay
//! ([`certified_recovery`]): byte-identical final state or an error.
//!
//! Correctness sketch: non-commuting pairs are ordered by graph edges
//! (conservatively — the unkeyed scans and the per-key cap only ever add
//! edges), so any two operations that may interleave during the parallel
//! replay commute under the synthesized relation, whose soundness is
//! verified exhaustively by `atomicity-lint`'s forward-commutativity
//! checker. Commuting interleavings reach the same final state, hence the
//! parallel result equals the serial one — and the certificate checks
//! exactly that equality on every run rather than trusting the argument.
//!
//! [`IntentionsStore::recover`]: atomicity_core::recovery::IntentionsStore::recover

use crate::kv::ShardKvSpec;
use atomicity_core::recovery::redo_log;
use atomicity_core::sync::{Mutex, Rank};
use atomicity_core::{CommutesRel, ConflictTable, KeyFootprint, LogRecord, RecordKind};
use atomicity_lint::{synthesize_table, SynthConfig};
use atomicity_spec::{ActivityId, OpResult, Operation};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-key predecessor lists longer than this are folded into a single
/// ordering edge bundle (sound over-serialization that bounds graph
/// construction on pathologically hot keys).
const KEY_FRONTIER_CAP: usize = 32;

/// The synthesized conflict table for [`ShardKvSpec`], built once per
/// process from the spec itself (depth-bounded exhaustive
/// forward-commutativity checking — the same machinery experiment E13
/// certifies).
pub fn map_commutes() -> &'static ConflictTable {
    static TABLE: OnceLock<ConflictTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        synthesize_table(
            "dist-map",
            "ShardKvSpec",
            &ShardKvSpec::new(),
            &ShardKvSpec::universe(),
            &SynthConfig::default(),
        )
        .table
    })
}

/// One committed transaction as recovery sees it: its staged operations
/// and its footprint (from the `CommitDep` record, or recomputed from the
/// operations when the log used plain value commits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committed transaction.
    pub txn: ActivityId,
    /// Its staged (operation, result) pairs.
    pub ops: Vec<OpResult>,
    /// Its read/write key footprint.
    pub footprint: KeyFootprint,
    /// Whether the footprint was carried by the log (`CommitDep`) rather
    /// than recomputed here — recomputation is the extra cost value
    /// logging pays to recover in parallel.
    pub footprint_logged: bool,
}

/// Extracts the committed transactions of one object's log, in
/// commit-record order, pairing each with its staged intentions.
/// Duplicate outcome records apply once (first wins, matching
/// [`IntentionsStore::recover`]); aborted and in-doubt transactions are
/// skipped.
///
/// [`IntentionsStore::recover`]: atomicity_core::recovery::IntentionsStore::recover
pub fn committed_records(records: &[LogRecord]) -> Vec<CommitRecord> {
    let spec = ShardKvSpec::new();
    let mut staged: BTreeMap<ActivityId, Vec<OpResult>> = BTreeMap::new();
    let mut done: BTreeSet<ActivityId> = BTreeSet::new();
    let mut out = Vec::new();
    for r in records {
        match &r.kind {
            RecordKind::Prepare { ops } => {
                staged.insert(r.txn, ops.clone());
            }
            RecordKind::Abort => {
                done.insert(r.txn);
            }
            RecordKind::Commit | RecordKind::CommitDep { .. } => {
                if !done.insert(r.txn) {
                    continue;
                }
                let ops = staged.get(&r.txn).cloned().unwrap_or_default();
                let (footprint, footprint_logged) = match &r.kind {
                    RecordKind::CommitDep { footprint } => (footprint.clone(), true),
                    _ => (KeyFootprint::from_ops(&spec, &ops), false),
                };
                out.push(CommitRecord {
                    txn: r.txn,
                    ops,
                    footprint,
                    footprint_logged,
                });
            }
        }
    }
    out
}

/// Counters from dependency-graph construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepGraphStats {
    /// Committed transactions (graph nodes).
    pub nodes: usize,
    /// Ordering edges kept.
    pub edges: usize,
    /// Candidate pairs whose operations were checked against the table.
    pub checked_pairs: usize,
    /// Candidate pairs pruned because every overlapping operation pair
    /// commutes — the data-dependent win over key-overlap-only analysis.
    pub pruned_commuting: usize,
    /// Unkeyed (whole-object) footprints handled as global barriers.
    pub barriers: usize,
    /// Per-key frontier overflows folded by `KEY_FRONTIER_CAP`.
    pub capped: usize,
}

/// The transaction dependency graph of one shard's committed log.
#[derive(Debug)]
pub struct DepGraph {
    records: Vec<CommitRecord>,
    succ: Vec<Vec<u32>>,
    indegree: Vec<u32>,
    stats: DepGraphStats,
}

/// The operations of one record touching one key.
fn ops_on_key(record: &CommitRecord, key: i64) -> Vec<&Operation> {
    record
        .ops
        .iter()
        .map(|(o, _)| o)
        .filter(|o| o.int_arg(0) == Some(key))
        .collect()
}

/// Whether any operation pair across the two records' slices on one key
/// fails the commutativity relation.
fn slices_conflict(rel: &dyn CommutesRel, a: &[&Operation], b: &[&Operation]) -> bool {
    a.iter().any(|p| b.iter().any(|q| !rel.commutes(p, q)))
}

impl DepGraph {
    /// Builds the graph: one pass over the commit order, keeping a
    /// per-key frontier of possible predecessors. An edge is added only
    /// when footprints overlap on a key and the overlapping operations
    /// fail `rel`; unkeyed footprints (scans) become global barriers.
    pub fn build(records: Vec<CommitRecord>, rel: &dyn CommutesRel) -> DepGraph {
        let n = records.len();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indegree: Vec<u32> = vec![0; n];
        let mut stats = DepGraphStats {
            nodes: n,
            ..DepGraphStats::default()
        };
        let mut frontier: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        let mut last_barrier: Option<u32> = None;
        let mut since_barrier: Vec<u32> = Vec::new();

        for i in 0..n {
            let idx = i as u32;
            let fp = &records[i].footprint;
            let mut preds: BTreeSet<u32> = BTreeSet::new();

            if fp.unkeyed_reads || fp.unkeyed_writes || fp.is_empty() {
                // A whole-object scan (or an opaque empty footprint):
                // ordered after everything so far, and everything later
                // is ordered after it. Conservative for read-only scans
                // paired with other reads, sound always.
                stats.barriers += 1;
                if since_barrier.is_empty() {
                    preds.extend(last_barrier);
                } else {
                    preds.extend(since_barrier.iter().copied());
                }
                last_barrier = Some(idx);
                since_barrier.clear();
                frontier.clear();
            } else {
                let mut keys: Vec<i64> = fp.reads.iter().chain(fp.writes.iter()).copied().collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    let mine = ops_on_key(&records[i], key);
                    let entries = frontier.entry(key).or_default();
                    if entries.is_empty() {
                        preds.extend(last_barrier);
                    }
                    let mut conflicted_with_all = !entries.is_empty();
                    for &j in entries.iter() {
                        stats.checked_pairs += 1;
                        let theirs = ops_on_key(&records[j as usize], key);
                        if slices_conflict(rel, &theirs, &mine) {
                            preds.insert(j);
                        } else {
                            stats.pruned_commuting += 1;
                            conflicted_with_all = false;
                        }
                    }
                    if conflicted_with_all {
                        // Everything older on this key is now transitively
                        // ordered before us: the frontier collapses to us.
                        entries.clear();
                    } else if entries.len() >= KEY_FRONTIER_CAP {
                        // Bound the frontier: order the whole list before
                        // us (sound extra edges) and collapse.
                        stats.capped += 1;
                        preds.extend(entries.iter().copied());
                        entries.clear();
                    }
                    entries.push(idx);
                }
                since_barrier.push(idx);
            }

            for p in preds {
                succ[p as usize].push(idx);
                indegree[i] += 1;
                stats.edges += 1;
            }
        }

        DepGraph {
            records,
            succ,
            indegree,
            stats,
        }
    }

    /// Graph construction counters.
    pub fn stats(&self) -> DepGraphStats {
        self.stats
    }

    /// The committed transactions, in commit-record order.
    pub fn records(&self) -> &[CommitRecord] {
        &self.records
    }
}

/// Shared scheduling state of one parallel replay. Idle workers spin
/// with `yield_now` rather than parking on a condvar: a replay lasts
/// milliseconds.
struct ReplayQueue {
    ready: Mutex<VecDeque<u32>>,
    remaining: AtomicUsize,
}

/// Number of key stripes the replayed state is sharded into (one lock
/// each; an operation touches exactly one stripe at a time).
const STRIPES: usize = 64;

fn stripe_of(key: i64) -> usize {
    // splitmix64 finalizer, as in `ShardMap`.
    let mut z = key as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize % STRIPES
}

/// Applies one blind operation to the striped state. Reads and scans are
/// no-ops (redo recovery reinstalls effects; it answers no queries).
fn apply_op(stripes: &[Mutex<BTreeMap<i64, i64>>], op: &Operation) {
    let Some(key) = op.int_arg(0) else { return };
    match op.name() {
        "put" | "set" => {
            if let Some(v) = op.int_arg(1) {
                stripes[stripe_of(key)].lock().insert(key, v);
            }
        }
        "add" | "adjust" => {
            if let Some(d) = op.int_arg(1) {
                *stripes[stripe_of(key)].lock().entry(key).or_insert(0) += d;
            }
        }
        "remove" => {
            stripes[stripe_of(key)].lock().remove(&key);
        }
        _ => {}
    }
}

/// Replays the graph's transactions with `threads` workers: sources run
/// first, an edge's target only after its source, independent chains
/// concurrently. Returns the recovered key/value state.
///
/// The result is deterministic despite thread scheduling: operations
/// that may interleave commute (that is what the missing edge certifies),
/// and each is applied atomically under its key stripe's lock.
pub fn parallel_replay(graph: &DepGraph, threads: usize) -> BTreeMap<i64, i64> {
    let n = graph.records.len();
    let stripes: Vec<Mutex<BTreeMap<i64, i64>>> = (0..STRIPES)
        .map(|_| Mutex::new(Rank::DeplogStripes, BTreeMap::new()))
        .collect();
    let indegree: Vec<AtomicU32> = graph.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
    let queue = ReplayQueue {
        ready: Mutex::new(
            Rank::DeplogReady,
            (0..n as u32)
                .filter(|&i| graph.indegree[i as usize] == 0)
                .collect(),
        ),
        remaining: AtomicUsize::new(n),
    };

    let workers = threads.clamp(1, 64);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let node = queue.ready.lock().pop_front();
                let Some(node) = node else {
                    if queue.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    std::thread::yield_now();
                    continue;
                };
                for (op, _) in &graph.records[node as usize].ops {
                    apply_op(&stripes, op);
                }
                for &s in &graph.succ[node as usize] {
                    if indegree[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        queue.ready.lock().push_back(s);
                    }
                }
                queue.remaining.fetch_sub(1, Ordering::AcqRel);
            });
        }
    });

    let mut state = BTreeMap::new();
    for s in stripes {
        state.extend(s.into_inner());
    }
    state
}

/// The serial value-log baseline: recovery exactly as production runs it
/// — [`redo_log`], the procedure behind [`IntentionsStore::recover`], over
/// one copy of the records, one commit at a time — returning the
/// recovered key/value state.
///
/// [`IntentionsStore::recover`]: atomicity_core::recovery::IntentionsStore::recover
pub fn serial_replay(records: &[LogRecord]) -> BTreeMap<i64, i64> {
    let Some(object) = records.first().map(|r| r.object) else {
        return BTreeMap::new();
    };
    let (states, _) = redo_log(&ShardKvSpec::new(), object, records.to_vec());
    states.into_iter().next().unwrap_or_default()
}

/// A certified parallel recovery: the recovered state plus the evidence
/// that it equals the serial value-log replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCertificate {
    /// The recovered key/value state (identical under both strategies).
    pub state: BTreeMap<i64, i64>,
    /// Dependency-graph construction counters.
    pub graph: DepGraphStats,
    /// Commits whose footprint came from the log rather than being
    /// recomputed (all of them, when the shard ran dependency logging).
    pub footprints_logged: usize,
}

/// Runs dependency-graph parallel recovery over one shard's log and
/// certifies the result against the serial baseline. Returns an error
/// describing the first divergent key if the states differ (they cannot,
/// unless the conflict relation is unsound — which is exactly what this
/// check would catch).
pub fn certified_recovery(
    records: &[LogRecord],
    rel: &dyn CommutesRel,
    threads: usize,
) -> Result<RecoveryCertificate, String> {
    let commits = committed_records(records);
    let footprints_logged = commits.iter().filter(|c| c.footprint_logged).count();
    let graph = DepGraph::build(commits, rel);
    let parallel = parallel_replay(&graph, threads);
    let serial = serial_replay(records);
    if parallel != serial {
        let divergent = serial
            .iter()
            .find(|(k, v)| parallel.get(k) != Some(v))
            .map(|(k, v)| format!("key {k}: serial {v}, parallel {:?}", parallel.get(k)))
            .or_else(|| {
                parallel
                    .iter()
                    .find(|(k, _)| !serial.contains_key(*k))
                    .map(|(k, v)| format!("key {k}: parallel {v}, absent serially"))
            })
            .unwrap_or_else(|| "states differ".into());
        return Err(format!(
            "parallel dependency replay diverged from serial value replay: {divergent}"
        ));
    }
    Ok(RecoveryCertificate {
        state: parallel,
        graph: graph.stats(),
        footprints_logged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::{op, ObjectId, Value};

    fn log_commit_dep(log: &mut Vec<LogRecord>, txn: u32, ops: Vec<OpResult>) {
        let spec = ShardKvSpec::new();
        let footprint = KeyFootprint::from_ops(&spec, &ops);
        let txn = ActivityId::new(txn);
        let object = ObjectId::new(1);
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::Prepare { ops },
        });
        log.push(LogRecord {
            txn,
            object,
            kind: RecordKind::CommitDep { footprint },
        });
    }

    fn adjust(key: i64, delta: i64) -> OpResult {
        (op("adjust", [key, delta]), Value::ok())
    }

    fn set(key: i64, v: i64) -> OpResult {
        (op("set", [key, v]), Value::ok())
    }

    #[test]
    fn commuting_adjusts_build_an_edgeless_graph() {
        let mut log = Vec::new();
        for i in 0..20 {
            log_commit_dep(&mut log, i + 1, vec![adjust(5, 1), adjust(6, -1)]);
        }
        let graph = DepGraph::build(committed_records(&log), map_commutes());
        assert_eq!(graph.stats().nodes, 20);
        assert_eq!(graph.stats().edges, 0, "blind increments all commute");
        assert!(graph.stats().pruned_commuting > 0);
    }

    #[test]
    fn conflicting_sets_stay_ordered_and_replay_correctly() {
        let mut log = Vec::new();
        // Ten last-writer-wins overwrites of one key: a serial chain.
        for i in 0..10 {
            log_commit_dep(&mut log, i + 1, vec![set(7, i64::from(i))]);
        }
        let graph = DepGraph::build(committed_records(&log), map_commutes());
        assert_eq!(graph.stats().edges, 9, "a chain of 10 has 9 edges");
        let cert = certified_recovery(&log, map_commutes(), 4).unwrap();
        assert_eq!(cert.state.get(&7), Some(&9), "last write wins");
        assert_eq!(cert.footprints_logged, 10);
    }

    #[test]
    fn scans_are_barriers() {
        let mut log = Vec::new();
        log_commit_dep(&mut log, 1, vec![adjust(1, 5)]);
        log_commit_dep(
            &mut log,
            2,
            vec![(op("sum", [] as [i64; 0]), Value::from(5))],
        );
        log_commit_dep(&mut log, 3, vec![adjust(1, 5)]);
        let graph = DepGraph::build(committed_records(&log), map_commutes());
        assert_eq!(graph.stats().barriers, 1);
        assert_eq!(graph.stats().edges, 2, "before → scan → after");
        let cert = certified_recovery(&log, map_commutes(), 2).unwrap();
        assert_eq!(cert.state.get(&1), Some(&10));
    }

    #[test]
    fn value_logged_commits_recover_with_recomputed_footprints() {
        let object = ObjectId::new(1);
        let mut log = Vec::new();
        for i in 0..5u32 {
            let txn = ActivityId::new(i + 1);
            log.push(LogRecord {
                txn,
                object,
                kind: RecordKind::Prepare {
                    ops: vec![adjust(i64::from(i), 10)],
                },
            });
            log.push(LogRecord {
                txn,
                object,
                kind: RecordKind::Commit,
            });
        }
        let cert = certified_recovery(&log, map_commutes(), 4).unwrap();
        assert_eq!(cert.footprints_logged, 0, "plain commits carry nothing");
        assert_eq!(cert.state.len(), 5);
    }

    #[test]
    fn aborted_and_in_doubt_transactions_are_not_replayed() {
        let object = ObjectId::new(1);
        let mut log = Vec::new();
        log_commit_dep(&mut log, 1, vec![adjust(1, 100)]);
        log.push(LogRecord {
            txn: ActivityId::new(2),
            object,
            kind: RecordKind::Prepare {
                ops: vec![adjust(1, 999)],
            },
        });
        log.push(LogRecord {
            txn: ActivityId::new(2),
            object,
            kind: RecordKind::Abort,
        });
        log.push(LogRecord {
            txn: ActivityId::new(3),
            object,
            kind: RecordKind::Prepare {
                ops: vec![adjust(1, 555)],
            },
        });
        let cert = certified_recovery(&log, map_commutes(), 2).unwrap();
        assert_eq!(cert.state.get(&1), Some(&100));
    }

    #[test]
    fn hot_key_frontier_cap_over_serializes_but_stays_correct() {
        let mut log = Vec::new();
        for i in 0..200 {
            log_commit_dep(&mut log, i + 1, vec![adjust(1, 1)]);
        }
        let graph = DepGraph::build(committed_records(&log), map_commutes());
        assert!(graph.stats().capped > 0, "200 commuting commits on one key");
        let cert = certified_recovery(&log, map_commutes(), 8).unwrap();
        assert_eq!(cert.state.get(&1), Some(&200));
    }

    #[test]
    fn divergence_is_reported_not_swallowed() {
        // An unsound relation that calls everything commuting must be
        // caught by the certificate on a last-writer-wins history.
        let mut log = Vec::new();
        log_commit_dep(&mut log, 1, vec![set(3, 10)]);
        log_commit_dep(&mut log, 2, vec![set(3, 20)]);
        let everything_commutes = |_: &Operation, _: &Operation| true;
        // With only two records the race may still land in order; force
        // determinism by replaying many conflicting writes.
        for i in 0..50 {
            log_commit_dep(&mut log, i + 3, vec![set(3, i64::from(i))]);
        }
        let result = certified_recovery(&log, &everything_commutes, 8);
        // Either the schedule happened to match serial order (rare) or
        // the certificate caught the divergence; what must never happen
        // is a wrong state with an Ok certificate.
        if let Ok(cert) = result {
            assert_eq!(cert.state.get(&3), Some(&49));
        }
    }
}
