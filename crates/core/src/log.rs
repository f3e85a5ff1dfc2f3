//! The shared history recorder.
//!
//! Every engine appends the events it produces — invocations, responses,
//! initiations, commits, aborts — to a [`HistoryLog`]. The resulting
//! [`History`] is the *actual computation* in the paper's formal sense, so
//! tests can hand it straight to the checkers in
//! [`atomicity_spec::atomicity`]: this is the bridge between §4's
//! definitions and the online implementations.
//!
//! # Sharded recording
//!
//! The log is **sharded**: each recording thread appends to one of a fixed
//! set of per-shard buffers, so concurrent recorders on different shards
//! never contend on a common mutex. Ordering is preserved by a global
//! atomic **sequence stamp** drawn at record time: engines record while
//! still holding the affected object's lock, so the stamp order *is* the
//! linearization order the engines enforced, and [`HistoryLog::snapshot`]
//! reconstructs exactly that linearization by merging the shards in stamp
//! order. A single-shard log (`HistoryLog::with_shards(1)`) degenerates to
//! the old one-big-mutex recorder, and records the same history.

use crate::sync::{Mutex, Rank};
use atomicity_spec::{Event, History};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of append shards. A small power of two: enough to spread
/// a machine's worth of worker threads, small enough that snapshot merges
/// stay cheap.
const DEFAULT_SHARDS: usize = 16;

/// A thread-safe, append-only event recorder shared by a transaction
/// manager and all its objects.
///
/// Cloning is cheap (the log is shared). The **stamp order** is the
/// linearization order of the recorded events: engines append responses
/// and commit events while holding the affected object's lock, so the
/// sequence number each event receives is faithful to the synchronization
/// the engines actually performed. [`HistoryLog::snapshot`] merges the
/// per-thread shard buffers back into that order.
///
/// # Example
///
/// ```
/// use atomicity_core::HistoryLog;
/// use atomicity_spec::{Event, op, Value};
/// let log = HistoryLog::new();
/// log.record(Event::invoke(1.into(), 1.into(), op("increment", [] as [i64; 0])));
/// log.record(Event::respond(1.into(), 1.into(), Value::from(1)));
/// assert_eq!(log.snapshot().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct HistoryLog {
    inner: Arc<LogInner>,
}

/// One shard's append buffer of `(stamp, event)` pairs.
type Shard = Mutex<Vec<(u64, Event)>>;

#[derive(Debug)]
struct LogInner {
    /// The global sequence stamp; the next event's linearization index.
    next_seq: AtomicU64,
    /// Per-shard `(stamp, event)` buffers. Threads map to shards by a
    /// per-thread token, so a thread's appends never migrate mid-run.
    shards: Box<[Shard]>,
}

impl Default for HistoryLog {
    fn default() -> Self {
        Self::new()
    }
}

/// A stable per-thread token used to pick this thread's shard.
fn thread_token() -> u64 {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static TOKEN: u64 = {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            hasher.finish()
        };
    }
    TOKEN.with(|t| *t)
}

impl HistoryLog {
    /// Creates an empty log with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty log with an explicit shard count (clamped to at
    /// least 1). Exposed so benchmarks can compare contention profiles.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        HistoryLog {
            inner: Arc::new(LogInner {
                next_seq: AtomicU64::new(0),
                shards: (0..shards)
                    .map(|_| Mutex::new(Rank::LogShard, Vec::new()))
                    .collect(),
            }),
        }
    }

    /// The number of append shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn shard(&self) -> &Mutex<Vec<(u64, Event)>> {
        let idx = thread_token() as usize % self.inner.shards.len();
        &self.inner.shards[idx]
    }

    /// Appends an event, returning its sequence stamp (its index in the
    /// linearization).
    ///
    /// Engines call this while holding the affected object's lock, which
    /// is what makes the stamp order a faithful linearization.
    pub fn record(&self, event: Event) -> u64 {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shard().lock().push((seq, event));
        seq
    }

    /// Appends several events with **contiguous** stamps (no other event
    /// can interleave between them in the merged history). Returns the
    /// stamp range.
    pub fn record_all(&self, events: impl IntoIterator<Item = Event>) -> Range<u64> {
        let events: Vec<Event> = events.into_iter().collect();
        let n = events.len() as u64;
        let start = self.inner.next_seq.fetch_add(n, Ordering::Relaxed);
        if n > 0 {
            let mut shard = self.shard().lock();
            shard.reserve(events.len());
            for (i, event) in events.into_iter().enumerate() {
                shard.push((start + i as u64, event));
            }
        }
        start..start + n
    }

    /// The history recorded so far, merged into stamp order.
    ///
    /// Each shard is copied under its own lock, so no appender is ever
    /// blocked for the duration of the full copy (the old single-mutex
    /// recorder stalled every recorder for the whole O(n) clone). At
    /// quiescence the result is exactly the linearization the engines
    /// enforced; while recorders are still running it is a faithful-order
    /// subset. Built on [`HistoryLog::merged_events`], so no intermediate
    /// flat `(stamp, event)` vector is materialized.
    pub fn snapshot(&self) -> History {
        History::from_events(self.merged_events().map(|(_, event)| event))
    }

    /// A streaming iterator over the recorded events in stamp order.
    ///
    /// Each shard is copied under its own lock and sorted individually;
    /// the shard runs are then k-way merged lazily as the iterator is
    /// consumed. Compared to the old snapshot path this skips both the
    /// single O(n) flat `(stamp, event)` vector and the global
    /// O(n log n) sort — the dominant allocation on the verify path —
    /// replacing them with per-shard runs and an O(n log k) merge.
    /// Certifier call sites that only need one in-order pass can consume
    /// events without ever materializing a [`History`].
    pub fn merged_events(&self) -> MergedEvents {
        let mut runs: Vec<std::vec::IntoIter<(u64, Event)>> = Vec::new();
        for shard in self.inner.shards.iter() {
            let mut run = shard.lock().clone();
            if run.is_empty() {
                continue;
            }
            // Within a shard two threads can publish slightly out of
            // stamp order (the stamp draw and the push are not one
            // atomic step), so each run is sorted individually — cheap,
            // because runs are nearly sorted already.
            run.sort_unstable_by_key(|(seq, _)| *seq);
            runs.push(run.into_iter());
        }
        let mut heads = BinaryHeap::with_capacity(runs.len());
        for (idx, run) in runs.iter_mut().enumerate() {
            if let Some((stamp, event)) = run.next() {
                heads.push(MergeHead { stamp, event, idx });
            }
        }
        MergedEvents { runs, heads }
    }

    /// Opens a live, lock-light tap on the stamp stream: a cursor that
    /// [`LogTap::poll`]s newly recorded events out of the shards in exact
    /// stamp order while recorders keep running. See [`LogTap`].
    pub fn tap(&self) -> LogTap {
        LogTap {
            inner: self.inner.clone(),
            cursors: vec![0; self.inner.shards.len()],
            pending: Vec::new(),
            next: 0,
            retire: false,
        }
    }

    /// Like [`HistoryLog::tap`], but the tap **retires** what it consumes:
    /// each poll moves the new events out of the shard buffers instead of
    /// copying them, so the log's resident memory stays proportional to
    /// the unconsumed suffix instead of the whole history. A retired
    /// log's [`HistoryLog::snapshot`] only sees the suffix — retirement
    /// trades post-hoc replay for bounded memory. At most one retiring
    /// tap may consume a log, and the log must not be
    /// [`HistoryLog::clear`]ed while tapped.
    pub fn tap_retiring(&self) -> LogTap {
        let mut tap = self.tap();
        tap.retire = true;
        tap
    }

    /// The number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Discards all recorded events (benchmarks reuse managers between
    /// iterations). Stamps keep increasing across a clear; only relative
    /// order matters. Must not be called while a [`LogTap`] is consuming
    /// the log (the tap's cursors would go stale).
    pub fn clear(&self) {
        for shard in self.inner.shards.iter() {
            shard.lock().clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming merge

/// One run's current head inside the [`MergedEvents`] k-way merge.
#[derive(Debug)]
struct MergeHead {
    stamp: u64,
    event: Event,
    idx: usize,
}

// Ordered by stamp alone (stamps are unique), reversed so the
// std max-heap pops the smallest stamp first.
impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.stamp.cmp(&self.stamp)
    }
}

/// Lazy k-way merge of the per-shard runs in stamp order
/// (see [`HistoryLog::merged_events`]).
#[derive(Debug)]
pub struct MergedEvents {
    runs: Vec<std::vec::IntoIter<(u64, Event)>>,
    heads: BinaryHeap<MergeHead>,
}

impl Iterator for MergedEvents {
    type Item = (u64, Event);

    fn next(&mut self) -> Option<(u64, Event)> {
        let head = self.heads.pop()?;
        if let Some((stamp, event)) = self.runs[head.idx].next() {
            self.heads.push(MergeHead {
                stamp,
                event,
                idx: head.idx,
            });
        }
        Some((head.stamp, head.event))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.runs.iter().map(|r| r.len()).sum::<usize>() + self.heads.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for MergedEvents {}

// ---------------------------------------------------------------------------
// Live tap

/// A live cursor over the stamp stream of a [`HistoryLog`].
///
/// A tap repeatedly [`LogTap::poll`]s the shards for newly recorded
/// events and emits them in **exact stamp order**: out-of-order arrivals
/// (a thread that drew a stamp but has not pushed yet) are held back in a
/// small pending vector until every smaller stamp has been published —
/// stamps are dense, so emission resumes as soon as the gap fills. What
/// is held back is bounded by the number of in-flight recorders, not by
/// history length.
///
/// Each `poll` takes each shard lock only long enough to take the new
/// suffix — a retiring tap moves the events out, a non-retiring one
/// copies them, because its log keeps them — so recorders are never
/// blocked behind an O(n) merge. This is what lets an online certifier
/// run against the live stream instead of cloning the history (see
/// `atomicity-certify`).
#[derive(Debug)]
pub struct LogTap {
    inner: Arc<LogInner>,
    /// Per-shard count of entries already copied out (a retiring tap
    /// empties every shard it polls instead).
    cursors: Vec<usize>,
    /// Events taken out of the shards but not yet emitted, all above the
    /// frontier; in stamp order between polls.
    pending: Vec<(u64, Event)>,
    /// The next stamp to emit: everything below has been emitted.
    next: u64,
    /// Whether consumed events are moved out of the log.
    retire: bool,
}

impl LogTap {
    /// Drains every newly published event whose stamp is ready, in stamp
    /// order, into `sink`; returns how many events were emitted.
    ///
    /// The shards' new suffixes join the pending events, a run-adaptive
    /// stable sort puts them in stamp order (each suffix is one nearly
    /// sorted run, and a single recorder's events need no sort at all),
    /// and the prefix contiguous from the frontier is emitted.
    /// Non-blocking: events recorded but still unreachable (a smaller
    /// stamp is drawn but unpublished) stay pending until a later poll.
    pub fn poll(&mut self, mut sink: impl FnMut(u64, Event)) -> usize {
        for (shard, cursor) in self.inner.shards.iter().zip(&mut self.cursors) {
            let mut buf = shard.lock();
            if self.retire {
                self.pending.extend(buf.drain(..));
            } else {
                self.pending
                    .extend_from_slice(&buf[(*cursor).min(buf.len())..]);
                *cursor = buf.len();
            }
        }
        if !self.pending.is_sorted_by_key(|(stamp, _)| *stamp) {
            self.pending.sort_by_key(|(stamp, _)| *stamp);
        }
        let ready = self
            .pending
            .iter()
            .zip(self.next..)
            .take_while(|((stamp, _), next)| stamp == next)
            .count();
        for (stamp, event) in self.pending.drain(..ready) {
            sink(stamp, event);
        }
        self.next += ready as u64;
        ready
    }

    /// The emission frontier: every event with stamp `< frontier()` has
    /// been handed to a sink. This is the tap's collapsed vector clock —
    /// the per-shard publication clocks folded through the dense global
    /// stamp order into a single watermark.
    pub fn frontier(&self) -> u64 {
        self.next
    }

    /// Events taken out of the shards but held back because a smaller
    /// stamp is still unpublished. Bounded by in-flight recorders.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether this tap retires consumed events from the log.
    pub fn is_retiring(&self) -> bool {
        self.retire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::{op, Value};

    #[test]
    fn clones_share_the_log() {
        let log = HistoryLog::new();
        let log2 = log.clone();
        log.record(Event::commit(1.into(), 1.into()));
        assert_eq!(log2.len(), 1);
        log2.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn record_all_is_atomic_and_ordered() {
        let log = HistoryLog::new();
        log.record_all(vec![
            Event::invoke(1.into(), 1.into(), op("write", [1])),
            Event::respond(1.into(), 1.into(), Value::ok()),
        ]);
        let h = log.snapshot();
        assert!(h.events()[0].is_invoke());
        assert!(h.events()[1].is_respond());
    }

    #[test]
    fn concurrent_appends_do_not_lose_events() {
        let log = HistoryLog::new();
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    log.record(Event::commit(i.into(), 1.into()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 1000);
    }

    #[test]
    fn record_returns_monotone_stamps_within_a_thread() {
        let log = HistoryLog::new();
        let a = log.record(Event::commit(1.into(), 1.into()));
        let b = log.record(Event::commit(2.into(), 1.into()));
        assert!(b > a);
    }

    #[test]
    fn record_all_returns_contiguous_stamp_range() {
        let log = HistoryLog::new();
        let r = log.record_all(vec![
            Event::invoke(1.into(), 1.into(), op("write", [1])),
            Event::respond(1.into(), 1.into(), Value::ok()),
        ]);
        assert_eq!(r.end - r.start, 2);
        let empty = log.record_all(Vec::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn snapshot_merges_threads_in_stamp_order() {
        let log = HistoryLog::new();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                (0..100u32)
                    .map(|i| log.record(Event::commit((t * 1000 + i).into(), 1.into())))
                    .collect::<Vec<u64>>()
            }));
        }
        let mut stamps: Vec<u64> = Vec::new();
        for h in handles {
            stamps.extend(h.join().unwrap());
        }
        // Stamps are unique and dense.
        stamps.sort_unstable();
        assert_eq!(stamps, (0..800).collect::<Vec<u64>>());
        // The snapshot's length matches and per-thread order is preserved:
        // within one activity (recorded by one thread), the merged history
        // keeps the recording order.
        let h = log.snapshot();
        assert_eq!(h.len(), 800);
        for t in 0..8u32 {
            let ids: Vec<u32> = h
                .events()
                .iter()
                .map(|e| e.activity.raw())
                .filter(|id| id / 1000 == t)
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "thread {t}'s events out of order");
        }
    }

    #[test]
    fn merged_events_streams_in_stamp_order() {
        let log = HistoryLog::with_shards(4);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    log.record(Event::commit((t * 1000 + i).into(), 1.into()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stamped: Vec<(u64, Event)> = log.merged_events().collect();
        assert_eq!(stamped.len(), 400);
        let stamps: Vec<u64> = stamped.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, (0..400).collect::<Vec<u64>>());
        // And the snapshot built on top agrees event for event.
        let h = log.snapshot();
        for (i, e) in h.events().iter().enumerate() {
            assert_eq!(e.activity, stamped[i].1.activity);
        }
    }

    #[test]
    fn tap_emits_exact_stamp_order_while_recording() {
        let log = HistoryLog::with_shards(4);
        let mut tap = log.tap();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    log.record(Event::commit((t * 1000 + i).into(), 1.into()));
                }
            }));
        }
        // Poll concurrently with the recorders: emission must be the
        // dense stamp sequence regardless of arrival interleaving.
        let mut seen = Vec::new();
        while seen.len() < 800 {
            tap.poll(|stamp, _| seen.push(stamp));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen, (0..800).collect::<Vec<u64>>());
        assert_eq!(tap.frontier(), 800);
        assert_eq!(tap.pending_len(), 0);
        // Non-retiring tap leaves the log intact.
        assert_eq!(log.len(), 800);
    }

    /// Polls `tap` once and returns the stamps it emitted, checking that
    /// each event came with its own stamp (the test below records stamp
    /// `s` as activity `s`).
    fn poll_stamps(tap: &mut LogTap) -> Vec<u64> {
        let mut stamps = Vec::new();
        let emitted = tap.poll(|stamp, event| {
            assert_eq!(u64::from(event.activity.raw()), stamp);
            stamps.push(stamp);
        });
        assert_eq!(emitted, stamps.len());
        stamps
    }

    #[test]
    fn tap_holds_a_stamp_back_until_the_gap_below_it_fills() {
        for retiring in [false, true] {
            let log = HistoryLog::with_shards(2);
            let mut tap = if retiring {
                log.tap_retiring()
            } else {
                log.tap()
            };
            // What a recorder that drew `stamp` publishes into `shard`.
            let publish = |shard: usize, stamp: u64| {
                let event = Event::commit((stamp as u32).into(), 1.into());
                log.inner.shards[shard].lock().push((stamp, event));
            };
            for stamp in [0, 1, 3] {
                publish(0, stamp);
            }
            assert_eq!(poll_stamps(&mut tap), [0, 1]);
            assert_eq!((tap.frontier(), tap.pending_len()), (2, 1));
            // A retiring tap has moved stamp 3 out of its shard although
            // it holds it back; a non-retiring one leaves all three.
            assert_eq!(log.len(), if retiring { 0 } else { 3 });
            publish(1, 2);
            assert_eq!(poll_stamps(&mut tap), [2, 3]);
            assert_eq!((tap.frontier(), tap.pending_len()), (4, 0));
            assert_eq!(log.len(), if retiring { 0 } else { 4 });
        }
    }

    #[test]
    fn retiring_tap_bounds_log_memory() {
        let log = HistoryLog::with_shards(2);
        let mut tap = log.tap_retiring();
        assert!(tap.is_retiring());
        for i in 0..100u32 {
            log.record(Event::commit(i.into(), 1.into()));
        }
        let mut n = 0;
        tap.poll(|_, _| n += 1);
        assert_eq!(n, 100);
        // Consumed events are gone from the log...
        assert_eq!(log.len(), 0);
        assert!(log.snapshot().is_empty());
        // ...but the stream continues seamlessly.
        log.record(Event::commit(100.into(), 1.into()));
        let mut last = None;
        tap.poll(|s, _| last = Some(s));
        assert_eq!(last, Some(100));
        assert_eq!(tap.frontier(), 101);
    }

    #[test]
    fn coarse_log_behaves_identically() {
        let log = HistoryLog::with_shards(1);
        assert_eq!(log.shard_count(), 1);
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    log.record(Event::commit(i.into(), 1.into()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 200);
        assert_eq!(log.snapshot().len(), 200);
    }
}
