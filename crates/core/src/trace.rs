//! The observability layer: transaction tracing, latency histograms, and
//! the abort-reason taxonomy.
//!
//! The paper's comparisons are about *why* one local atomicity property
//! admits more concurrency than another; this module makes the runtime
//! answer that question quantitatively. A [`MetricsRegistry`] aggregates,
//! per protocol run:
//!
//! - **Event traces** — a bounded, sharded, lock-free ring buffer of
//!   `begin / invoke / block / prepare / commit / abort` records with
//!   monotonic timestamps ([`TraceBuffer`]).
//! - **Latency histograms** — log₂-bucketed distributions of invoke
//!   latency, block-wait time, and commit-path time
//!   ([`LatencyHistogram`]), from which p50/p95/p99 are derived.
//! - **Abort taxonomy** — aborts keyed by the stable
//!   [`AbortReason`] codes of [`crate::TxnError`].
//!
//! Each object registered with an enabled registry gets an
//! [`ObjectMetrics`] handle; the always-on [`ObjectStats`] counters live
//! behind the same handle, so engines record through one interface.
//!
//! # Zero cost when disabled
//!
//! A disabled registry ([`MetricsRegistry::disabled`], the default) holds
//! no allocation at all: handles are detached, [`Stopwatch`]es come back
//! disarmed (no `Instant::now()` call), and every record method reduces to
//! a branch on an `Option` that is `None`. Only the exact-count
//! [`ObjectStats`] counters — which pre-date this module and which tests
//! rely on — are recorded unconditionally. The measured overhead of the
//! disabled path on the E8 stress workload is reported in EXPERIMENTS.md.
//!
//! # The trace ring, without `unsafe`
//!
//! The crate forbids `unsafe`, so the ring cannot hand out `&mut` slots.
//! Instead each slot is a seqlock-style triple of `AtomicU64`s: a writer
//! claims a slot (sharded `fetch_add` cursor), marks its sequence word
//! busy, stores the two payload words, then publishes the final sequence
//! stamp. A reader accepts a slot only if the sequence word is stable and
//! identical before and after reading the payload; a torn read is simply
//! skipped. The trace is advisory monitoring data — dropping a record
//! under a rare race is acceptable, corrupting memory is not, and the
//! all-atomic representation rules the latter out by construction.

use crate::error::AbortReason;
use crate::stats::{ObjectStats, StatsSnapshot};
use crate::sync::{Mutex, Rank};
use atomicity_spec::{ActivityId, ObjectId};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of trace shards; a small power of two, mirroring the history
/// log's sharding so worker threads rarely share a cursor.
const TRACE_SHARDS: usize = 16;

/// Default trace-ring capacity per shard (slots). With 16 shards this
/// retains the most recent ~32k events of a run.
const TRACE_SLOTS_PER_SHARD: usize = 2048;

/// Number of log₂ latency buckets. Bucket `k >= 1` holds durations in
/// `[2^(k-1), 2^k)` nanoseconds; bucket 0 holds zero. 63 buckets cover
/// every representable `u64` duration.
const HISTOGRAM_BUCKETS: usize = 64;

/// A stable per-thread token used to pick this thread's trace shard.
fn trace_token() -> u64 {
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

// ---------------------------------------------------------------------------
// Stopwatch

/// A wall-clock stopwatch that is free when metrics are disabled.
///
/// Handed out by [`MetricsRegistry::stopwatch`] /
/// [`ObjectMetrics::stopwatch`]: armed (one `Instant::now()`) when the
/// registry collects latency detail, disarmed (a `None`, no clock read)
/// otherwise. Record methods take the stopwatch back and only measure on
/// the armed path, so the disabled configuration never touches the clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// A stopwatch that measures nothing.
    pub fn disarmed() -> Self {
        Stopwatch(None)
    }

    /// A running stopwatch started now.
    pub fn armed() -> Self {
        Stopwatch(Some(Instant::now()))
    }

    /// Whether the stopwatch is measuring.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the stopwatch was armed (`None` if disarmed).
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t| {
            let nanos = t.elapsed().as_nanos();
            u64::try_from(nanos).unwrap_or(u64::MAX)
        })
    }
}

// ---------------------------------------------------------------------------
// Latency histograms

/// A lock-free log₂-bucketed latency histogram (nanosecond durations).
///
/// Bucket `k >= 1` covers `[2^(k-1), 2^k)` ns; bucket 0 covers exactly 0.
/// Percentiles are answered from a [`HistogramSnapshot`] using each
/// bucket's midpoint as the representative value, so a reported p99 is
/// accurate to within a factor of ~1.5 — plenty for the order-of-magnitude
/// protocol comparisons the experiments make.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

/// The bucket index for a duration: 0 for 0 ns, else `⌊log₂ ns⌋ + 1`.
fn bucket_index(nanos: u64) -> usize {
    (64 - nanos.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The representative (midpoint) duration of a bucket.
fn bucket_midpoint(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        // Bucket k covers [2^(k-1), 2^k): midpoint 1.5 * 2^(k-1).
        let lo = 1u64 << (index - 1);
        lo + lo / 2
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`LatencyHistogram`] for the bucket bounds).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub sum_nanos: u64,
}

impl HistogramSnapshot {
    /// The `p`-th percentile duration in nanoseconds (`p` in `0.0..=1.0`),
    /// using bucket midpoints; `None` on an empty histogram.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_midpoint(i));
            }
        }
        Some(bucket_midpoint(self.buckets.len().saturating_sub(1)))
    }

    /// The mean duration in nanoseconds (`None` on an empty histogram).
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum_nanos / self.count)
    }

    /// Adds `other`'s samples into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
    }
}

// ---------------------------------------------------------------------------
// Trace ring

/// The kind of a traced transaction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// A transaction began.
    Begin,
    /// An invocation was admitted at an object.
    Invoke,
    /// An invocation blocked (one wait round) at an object.
    Block,
    /// Commit phase 1 started (participants asked to prepare).
    Prepare,
    /// The transaction committed.
    Commit,
    /// The transaction aborted.
    Abort,
}

impl TraceKind {
    const ALL: [TraceKind; 6] = [
        TraceKind::Begin,
        TraceKind::Invoke,
        TraceKind::Block,
        TraceKind::Prepare,
        TraceKind::Commit,
        TraceKind::Abort,
    ];

    fn code(self) -> u64 {
        TraceKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is in ALL") as u64
    }

    fn from_code(code: u64) -> Option<TraceKind> {
        TraceKind::ALL.get(code as usize).copied()
    }
}

/// One decoded trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global order stamp (monotone across all shards).
    pub stamp: u64,
    /// Nanoseconds since the registry's epoch (48-bit, wraps after ~78h).
    pub nanos: u64,
    /// The event kind.
    pub kind: TraceKind,
    /// The transaction, if the event concerns one (`raw() == 0` never
    /// names a real transaction and encodes "none").
    pub txn: ActivityId,
    /// The object, for `Invoke`/`Block` events (0 for manager-level
    /// events).
    pub object: ObjectId,
    /// The abort reason, for `Abort` events that have one.
    pub reason: Option<AbortReason>,
}

/// One seqlock-style slot: `seq` is 0 when empty, `u64::MAX` while a write
/// is in flight, and `stamp + 1` once published.
#[derive(Debug)]
struct TraceSlot {
    seq: AtomicU64,
    word0: AtomicU64,
    word1: AtomicU64,
}

#[derive(Debug)]
struct TraceShard {
    cursor: AtomicU64,
    slots: Box<[TraceSlot]>,
}

/// A bounded, sharded, lock-free ring buffer of [`TraceRecord`]s.
///
/// Writers never block and never allocate; when the ring wraps, the
/// oldest records are overwritten (`dropped` in [`TraceBuffer::collect`]
/// reports how many). Readers run concurrently with writers and skip any
/// slot whose seqlock word changes under them.
#[derive(Debug)]
pub struct TraceBuffer {
    shards: Box<[TraceShard]>,
    stamp: AtomicU64,
}

/// The result of draining a [`TraceBuffer`]: the surviving records in
/// stamp order plus the count of records lost to ring wrap or torn reads.
#[derive(Debug, Clone, Default)]
pub struct TraceCollection {
    /// Decoded records, sorted by stamp.
    pub records: Vec<TraceRecord>,
    /// Records written but no longer readable (overwritten or torn).
    pub dropped: u64,
}

impl TraceBuffer {
    fn new(slots_per_shard: usize) -> Self {
        let slots_per_shard = slots_per_shard.max(1);
        TraceBuffer {
            shards: (0..TRACE_SHARDS)
                .map(|_| TraceShard {
                    cursor: AtomicU64::new(0),
                    slots: (0..slots_per_shard)
                        .map(|_| TraceSlot {
                            seq: AtomicU64::new(0),
                            word0: AtomicU64::new(0),
                            word1: AtomicU64::new(0),
                        })
                        .collect(),
                })
                .collect(),
            stamp: AtomicU64::new(0),
        }
    }

    /// Packs and publishes one record. `nanos` is truncated to 48 bits.
    fn record(&self, nanos: u64, kind: TraceKind, txn: u64, object: u64, reason: Option<u64>) {
        let shard = &self.shards[(trace_token() as usize) % self.shards.len()];
        let i = (shard.cursor.fetch_add(1, Ordering::Relaxed) as usize) % shard.slots.len();
        let slot = &shard.slots[i];
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        let word0 = (kind.code() << 56)
            | (reason.map_or(0xFF, |r| r & 0xFF) << 48)
            | (nanos & 0x0000_FFFF_FFFF_FFFF);
        let word1 = (txn << 32) | (object & 0xFFFF_FFFF);
        // Seqlock write: mark busy, store payload, publish stamp + 1.
        slot.seq.store(u64::MAX, Ordering::Release);
        slot.word0.store(word0, Ordering::Release);
        slot.word1.store(word1, Ordering::Release);
        slot.seq.store(stamp + 1, Ordering::Release);
    }

    /// Total records ever written (including any since overwritten).
    pub fn written(&self) -> u64 {
        self.stamp.load(Ordering::Relaxed)
    }

    /// Drains a consistent-enough copy of the ring.
    pub fn collect(&self) -> TraceCollection {
        let mut records = Vec::new();
        for shard in self.shards.iter() {
            for slot in shard.slots.iter() {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq == 0 || seq == u64::MAX {
                    continue; // empty or mid-write
                }
                let word0 = slot.word0.load(Ordering::Acquire);
                let word1 = slot.word1.load(Ordering::Acquire);
                if slot.seq.load(Ordering::Acquire) != seq {
                    continue; // torn: overwritten while reading
                }
                let Some(kind) = TraceKind::from_code(word0 >> 56) else {
                    continue;
                };
                let reason_code = (word0 >> 48) & 0xFF;
                records.push(TraceRecord {
                    stamp: seq - 1,
                    nanos: word0 & 0x0000_FFFF_FFFF_FFFF,
                    kind,
                    txn: ActivityId::new((word1 >> 32) as u32),
                    object: ObjectId::new((word1 & 0xFFFF_FFFF) as u32),
                    reason: if reason_code == 0xFF {
                        None
                    } else {
                        AbortReason::ALL.get(reason_code as usize).copied()
                    },
                });
            }
        }
        records.sort_by_key(|r| r.stamp);
        let dropped = self.written().saturating_sub(records.len() as u64);
        TraceCollection { records, dropped }
    }
}

// ---------------------------------------------------------------------------
// Registry

/// The shared state behind an enabled registry.
#[derive(Debug)]
struct RegistryInner {
    /// Epoch for trace timestamps: nanoseconds are measured from here.
    epoch: Instant,
    trace: TraceBuffer,
    txns_begun: AtomicU64,
    txns_committed: AtomicU64,
    txns_aborted: AtomicU64,
    /// Commit-path latency: prepare start (or commit call) → completion.
    commit_ns: LatencyHistogram,
    /// Durable-log flush latency: one device sync (fsync) per sample.
    wal_flush_ns: LatencyHistogram,
    /// Durable-log group-commit batch sizes: records made durable per
    /// flush (1 for sync-each logs). Abuses the log₂ histogram for a
    /// count distribution: `count` = flushes, `sum_nanos` = records.
    wal_batch: LatencyHistogram,
    /// Aborts by [`AbortReason::index`]; unattributed aborts are the
    /// difference between `txns_aborted` and this array's sum.
    abort_reasons: [AtomicU64; AbortReason::ALL.len()],
    /// Events ingested by an online certifier tapping the stamp stream.
    certifier_observed: AtomicU64,
    /// High-water mark of the online certifier's retained-event set
    /// (open-activity state + held-back windows) — the bounded-memory
    /// gauge for watermark retirement.
    certifier_retained_peak: AtomicU64,
    /// Every object handle registered, for aggregate views.
    objects: Mutex<Vec<ObjectMetrics>>,
}

/// A shared, cloneable registry of transaction metrics.
///
/// The default ([`MetricsRegistry::disabled`]) collects nothing beyond
/// the always-on [`ObjectStats`] counters and costs a single `Option`
/// branch per record call. [`MetricsRegistry::new`] turns on event
/// tracing, latency histograms, and the abort taxonomy.
///
/// # Example
///
/// ```
/// use atomicity_core::trace::MetricsRegistry;
/// use atomicity_spec::ObjectId;
///
/// let registry = MetricsRegistry::new();
/// let object = registry.object(ObjectId::new(1));
/// let sw = object.stopwatch();
/// object.record_admission(atomicity_spec::ActivityId::new(1), &sw);
/// assert_eq!(registry.snapshot().objects[0].stats.admissions, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// An enabled registry with the default trace capacity.
    pub fn new() -> Self {
        Self::with_trace_capacity(TRACE_SLOTS_PER_SHARD)
    }

    /// An enabled registry retaining `slots_per_shard × 16` trace records.
    pub fn with_trace_capacity(slots_per_shard: usize) -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner {
                epoch: Instant::now(),
                trace: TraceBuffer::new(slots_per_shard),
                txns_begun: AtomicU64::new(0),
                txns_committed: AtomicU64::new(0),
                txns_aborted: AtomicU64::new(0),
                commit_ns: LatencyHistogram::default(),
                wal_flush_ns: LatencyHistogram::default(),
                wal_batch: LatencyHistogram::default(),
                abort_reasons: std::array::from_fn(|_| AtomicU64::new(0)),
                certifier_observed: AtomicU64::new(0),
                certifier_retained_peak: AtomicU64::new(0),
                objects: Mutex::new(Rank::TraceObjects, Vec::new()),
            })),
        }
    }

    /// The no-op registry: nothing is collected, nothing is allocated.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// Whether this registry collects tracing/latency/abort detail.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the registry's epoch, 48-bit truncated.
    fn now_ns(inner: &RegistryInner) -> u64 {
        u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Creates (and, when enabled, registers) the metrics handle for an
    /// object. On a disabled registry the handle is detached: its
    /// [`ObjectStats`] still count, but no detail is recorded.
    pub fn object(&self, id: ObjectId) -> ObjectMetrics {
        match &self.inner {
            None => ObjectMetrics::detached(id),
            Some(inner) => {
                let handle = ObjectMetrics {
                    inner: Arc::new(ObjectMetricsInner {
                        id,
                        stats: ObjectStats::default(),
                        detail: Some(ObjectDetail {
                            invoke_ns: LatencyHistogram::default(),
                            block_ns: LatencyHistogram::default(),
                            registry: Arc::clone(inner),
                        }),
                    }),
                };
                inner.objects.lock().push(handle.clone());
                handle
            }
        }
    }

    /// A stopwatch, armed iff the registry is enabled.
    pub fn stopwatch(&self) -> Stopwatch {
        if self.inner.is_some() {
            Stopwatch::armed()
        } else {
            Stopwatch::disarmed()
        }
    }

    /// Records a transaction begin.
    pub fn txn_begun(&self, txn: ActivityId) {
        if let Some(inner) = &self.inner {
            inner.txns_begun.fetch_add(1, Ordering::Relaxed);
            inner.trace.record(
                Self::now_ns(inner),
                TraceKind::Begin,
                u64::from(txn.raw()),
                0,
                None,
            );
        }
    }

    /// Records the start of commit phase 1 (prepare).
    pub fn txn_prepare(&self, txn: ActivityId) {
        if let Some(inner) = &self.inner {
            inner.trace.record(
                Self::now_ns(inner),
                TraceKind::Prepare,
                u64::from(txn.raw()),
                0,
                None,
            );
        }
    }

    /// Records a commit; `commit_ns` is the measured commit-path time
    /// (from an armed [`Stopwatch`]), if any.
    pub fn txn_committed(&self, txn: ActivityId, commit_ns: Option<u64>) {
        if let Some(inner) = &self.inner {
            inner.txns_committed.fetch_add(1, Ordering::Relaxed);
            if let Some(ns) = commit_ns {
                inner.commit_ns.record(ns);
            }
            inner.trace.record(
                Self::now_ns(inner),
                TraceKind::Commit,
                u64::from(txn.raw()),
                0,
                None,
            );
        }
    }

    /// Records an abort, attributed to `reason` when known.
    pub fn txn_aborted(&self, txn: ActivityId, reason: Option<AbortReason>) {
        if let Some(inner) = &self.inner {
            inner.txns_aborted.fetch_add(1, Ordering::Relaxed);
            if let Some(r) = reason {
                inner.abort_reasons[r.index()].fetch_add(1, Ordering::Relaxed);
            }
            inner.trace.record(
                Self::now_ns(inner),
                TraceKind::Abort,
                u64::from(txn.raw()),
                0,
                reason.map(|r| r.index() as u64),
            );
        }
    }

    /// Records an abort cause without counting an abort: error sites call
    /// this when they *return* a must-abort error; the manager counts the
    /// actual abort when the caller follows through.
    pub fn abort_cause(&self, reason: AbortReason) {
        if let Some(inner) = &self.inner {
            inner.abort_reasons[reason.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sum of the always-on counters across every registered object.
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        match &self.inner {
            None => StatsSnapshot::default(),
            Some(inner) => inner.objects.lock().iter().map(|o| o.stats()).sum(),
        }
    }

    /// Records one durable-log flush: `batch` records were made durable
    /// by a device sync that took `flush_ns` nanoseconds. Sync-each logs
    /// record `batch = 1` per commit; group commit records the whole
    /// batch a single fsync retired. No-op on a disabled registry.
    pub fn wal_flush(&self, batch: u64, flush_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.wal_flush_ns.record(flush_ns);
            inner.wal_batch.record(batch);
        }
    }

    /// Reports online-certifier progress: `observed` newly ingested
    /// events and the certifier's current retained-event count. The
    /// retained count feeds a high-water-mark gauge
    /// ([`MetricsSnapshot::certifier_retained_peak`]) — the witness that
    /// watermark retirement keeps monitor memory bounded while the
    /// history grows. No-op on a disabled registry.
    pub fn certifier_progress(&self, observed: u64, retained_now: u64) {
        if let Some(inner) = &self.inner {
            inner
                .certifier_observed
                .fetch_add(observed, Ordering::Relaxed);
            inner
                .certifier_retained_peak
                .fetch_max(retained_now, Ordering::Relaxed);
        }
    }

    /// Drains the trace ring (empty on a disabled registry).
    pub fn trace_events(&self) -> TraceCollection {
        match &self.inner {
            None => TraceCollection::default(),
            Some(inner) => inner.trace.collect(),
        }
    }

    /// A point-in-time copy of everything the registry has collected.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => {
                let objects: Vec<ObjectMetricsSnapshot> =
                    inner.objects.lock().iter().map(|o| o.snapshot()).collect();
                let abort_reasons = AbortReason::ALL
                    .iter()
                    .map(|r| {
                        (
                            r.label().to_string(),
                            inner.abort_reasons[r.index()].load(Ordering::Relaxed),
                        )
                    })
                    .filter(|(_, n)| *n > 0)
                    .collect();
                let mut invoke_ns = HistogramSnapshot::default();
                let mut block_ns = HistogramSnapshot::default();
                for o in &objects {
                    invoke_ns.merge(&o.invoke_ns);
                    block_ns.merge(&o.block_ns);
                }
                MetricsSnapshot {
                    enabled: true,
                    txns_begun: inner.txns_begun.load(Ordering::Relaxed),
                    txns_committed: inner.txns_committed.load(Ordering::Relaxed),
                    txns_aborted: inner.txns_aborted.load(Ordering::Relaxed),
                    abort_reasons,
                    invoke_ns,
                    block_ns,
                    commit_ns: inner.commit_ns.snapshot(),
                    wal_flush_ns: inner.wal_flush_ns.snapshot(),
                    wal_batch: inner.wal_batch.snapshot(),
                    certifier_observed: inner.certifier_observed.load(Ordering::Relaxed),
                    certifier_retained_peak: inner.certifier_retained_peak.load(Ordering::Relaxed),
                    trace_written: inner.trace.written(),
                    objects,
                }
            }
        }
    }

    /// The snapshot rendered as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot())
            .expect("metrics snapshot serializes infallibly")
    }
}

// ---------------------------------------------------------------------------
// Per-object handles

/// Latency/trace detail attached to an [`ObjectMetrics`] handle when its
/// registry is enabled.
#[derive(Debug)]
struct ObjectDetail {
    invoke_ns: LatencyHistogram,
    block_ns: LatencyHistogram,
    registry: Arc<RegistryInner>,
}

#[derive(Debug)]
struct ObjectMetricsInner {
    id: ObjectId,
    stats: ObjectStats,
    detail: Option<ObjectDetail>,
}

/// The per-object metrics handle engines record through.
///
/// Replaces the old raw-`ObjectStats` plumbing: the always-on counters
/// live here (see [`ObjectMetrics::stats`]), and when the owning
/// [`MetricsRegistry`] is enabled the same calls also feed the latency
/// histograms, the trace ring, and the abort taxonomy.
#[derive(Debug, Clone)]
pub struct ObjectMetrics {
    inner: Arc<ObjectMetricsInner>,
}

impl ObjectMetrics {
    /// A handle not connected to any registry: counters only.
    pub fn detached(id: ObjectId) -> Self {
        ObjectMetrics {
            inner: Arc::new(ObjectMetricsInner {
                id,
                stats: ObjectStats::default(),
                detail: None,
            }),
        }
    }

    /// The object this handle records for.
    pub fn object_id(&self) -> ObjectId {
        self.inner.id
    }

    /// The always-on counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// A stopwatch, armed iff this handle collects latency detail.
    pub fn stopwatch(&self) -> Stopwatch {
        if self.inner.detail.is_some() {
            Stopwatch::armed()
        } else {
            Stopwatch::disarmed()
        }
    }

    fn trace(&self, kind: TraceKind, txn: ActivityId, reason: Option<u64>) {
        if let Some(detail) = &self.inner.detail {
            detail.registry.trace.record(
                MetricsRegistry::now_ns(&detail.registry),
                kind,
                u64::from(txn.raw()),
                u64::from(self.inner.id.raw()),
                reason,
            );
        }
    }

    /// Records a granted invocation; `sw` should have been taken from
    /// [`ObjectMetrics::stopwatch`] when the invocation entered the
    /// object, so its elapsed time is the invoke latency (inclusive of
    /// any block-and-retry rounds).
    pub fn record_admission(&self, txn: ActivityId, sw: &Stopwatch) {
        self.inner.stats.record_admission();
        if let Some(detail) = &self.inner.detail {
            if let Some(ns) = sw.elapsed_ns() {
                detail.invoke_ns.record(ns);
            }
            self.trace(TraceKind::Invoke, txn, None);
        }
    }

    /// Records that a granted invocation was admitted on a hot path that
    /// skipped the general admission check (synthesized-table hit,
    /// seqlock snapshot read). Always paired with
    /// [`ObjectMetrics::record_admission`].
    pub fn record_fast_admission(&self) {
        self.inner.stats.record_fast_admission();
    }

    /// Records one block-and-retry round.
    pub fn record_block_round(&self, txn: ActivityId) {
        self.inner.stats.record_block();
        self.trace(TraceKind::Block, txn, None);
    }

    /// Records the total time an invocation spent blocked, measured by a
    /// stopwatch armed when the invocation first had to wait.
    pub fn record_block_wait(&self, sw: &Stopwatch) {
        if let Some(detail) = &self.inner.detail {
            if let Some(ns) = sw.elapsed_ns() {
                detail.block_ns.record(ns);
            }
        }
    }

    /// Records a deadlock (wait-die) kill and its abort cause.
    pub fn record_deadlock_kill(&self, _txn: ActivityId) {
        self.inner.stats.record_deadlock_kill();
        if let Some(detail) = &self.inner.detail {
            detail.registry.abort_reasons[AbortReason::Deadlock.index()]
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a timestamp-conflict refusal and its abort cause.
    pub fn record_timestamp_conflict(&self, _txn: ActivityId) {
        self.inner.stats.record_timestamp_conflict();
        if let Some(detail) = &self.inner.detail {
            detail.registry.abort_reasons[AbortReason::TimestampConflict.index()]
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a timestamp-too-old refusal (abort cause only — the
    /// pre-existing counters have no bucket for it).
    pub fn record_timestamp_too_old(&self, _txn: ActivityId) {
        if let Some(detail) = &self.inner.detail {
            detail.registry.abort_reasons[AbortReason::TimestampTooOld.index()]
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a commit at this object.
    pub fn record_commit(&self, _txn: ActivityId) {
        self.inner.stats.record_commit();
    }

    /// Records an abort at this object.
    pub fn record_abort(&self, _txn: ActivityId) {
        self.inner.stats.record_abort();
    }

    /// A point-in-time copy of this object's metrics.
    pub fn snapshot(&self) -> ObjectMetricsSnapshot {
        let (invoke_ns, block_ns) = match &self.inner.detail {
            None => (HistogramSnapshot::default(), HistogramSnapshot::default()),
            Some(d) => (d.invoke_ns.snapshot(), d.block_ns.snapshot()),
        };
        ObjectMetricsSnapshot {
            object: self.inner.id.raw(),
            stats: self.stats(),
            invoke_ns,
            block_ns,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots (serde)

/// One object's slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectMetricsSnapshot {
    /// The object's raw id.
    pub object: u32,
    /// The always-on counters.
    pub stats: StatsSnapshot,
    /// Invoke-latency distribution.
    pub invoke_ns: HistogramSnapshot,
    /// Block-wait distribution.
    pub block_ns: HistogramSnapshot,
}

/// Everything a [`MetricsRegistry`] has collected, as plain data.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether the registry was collecting (false ⇒ all zeros).
    pub enabled: bool,
    /// Transactions begun.
    pub txns_begun: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions aborted.
    pub txns_aborted: u64,
    /// Abort causes by [`AbortReason::label`] (zero entries omitted).
    /// Causes are recorded where errors arise, so totals can exceed
    /// `txns_aborted` when one transaction hits several must-abort errors.
    pub abort_reasons: std::collections::BTreeMap<String, u64>,
    /// Invoke latency, merged across objects.
    pub invoke_ns: HistogramSnapshot,
    /// Block-wait time, merged across objects.
    pub block_ns: HistogramSnapshot,
    /// Commit-path time (prepare → completion).
    pub commit_ns: HistogramSnapshot,
    /// Durable-log flush (fsync) latency; empty unless a WAL reports in.
    pub wal_flush_ns: HistogramSnapshot,
    /// Durable-log batch-size distribution: records per flush
    /// (`count` = flushes performed, `sum_nanos` = records flushed).
    pub wal_batch: HistogramSnapshot,
    /// Events ingested by an online certifier (0 when no monitor ran).
    #[serde(default)]
    pub certifier_observed: u64,
    /// Peak retained-event count of the online certifier — the
    /// watermark-retirement memory bound witness.
    #[serde(default)]
    pub certifier_retained_peak: u64,
    /// Trace records written (≥ the count retained by the ring).
    pub trace_written: u64,
    /// Per-object detail.
    pub objects: Vec<ObjectMetricsSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        for k in 1..63 {
            let lo = 1u64 << (k - 1);
            assert_eq!(bucket_index(lo), k, "lower bound of bucket {k}");
            assert_eq!(
                bucket_index((1u64 << k) - 1),
                k,
                "upper bound of bucket {k}"
            );
            let mid = bucket_midpoint(k);
            assert!(mid >= lo && mid < (1u64 << k), "midpoint inside bucket {k}");
        }
    }

    #[test]
    fn histogram_percentiles_walk_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.snapshot().percentile(0.5), None);
        for _ in 0..90 {
            h.record(100); // bucket 7: [64, 128)
        }
        for _ in 0..10 {
            h.record(1 << 20); // bucket 21
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.percentile(0.5), Some(bucket_midpoint(7)));
        assert_eq!(snap.percentile(0.9), Some(bucket_midpoint(7)));
        assert_eq!(snap.percentile(0.99), Some(bucket_midpoint(21)));
        assert_eq!(snap.mean(), Some((90 * 100 + 10 * (1 << 20)) / 100));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        a.record(10);
        b.record(10);
        b.record(1000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum_nanos, 1020);
    }

    #[test]
    fn trace_roundtrips_records_in_stamp_order() {
        let buf = TraceBuffer::new(64);
        buf.record(5, TraceKind::Begin, 7, 0, None);
        buf.record(9, TraceKind::Invoke, 7, 3, None);
        buf.record(
            12,
            TraceKind::Abort,
            7,
            0,
            Some(AbortReason::Deadlock.index() as u64),
        );
        let got = buf.collect();
        assert_eq!(got.dropped, 0);
        assert_eq!(got.records.len(), 3);
        assert_eq!(got.records[0].kind, TraceKind::Begin);
        assert_eq!(got.records[0].nanos, 5);
        assert_eq!(got.records[1].object.raw(), 3);
        assert_eq!(got.records[2].reason, Some(AbortReason::Deadlock));
        assert!(got.records.windows(2).all(|w| w[0].stamp < w[1].stamp));
    }

    #[test]
    fn trace_ring_wraps_and_reports_drops() {
        let buf = TraceBuffer::new(4); // one thread → one shard of 4 slots
        for i in 0..100 {
            buf.record(i, TraceKind::Invoke, i, 1, None);
        }
        let got = buf.collect();
        assert_eq!(buf.written(), 100);
        assert_eq!(got.records.len(), 4, "ring retains its capacity");
        assert_eq!(got.dropped, 96);
        // The survivors are the most recent writes.
        assert!(got.records.iter().all(|r| r.stamp >= 96));
    }

    #[test]
    fn disabled_registry_collects_nothing_but_counters_work() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        assert!(!reg.stopwatch().is_armed());
        let obj = reg.object(ObjectId::new(1));
        assert!(!obj.stopwatch().is_armed());
        let txn = ActivityId::new(1);
        obj.record_admission(txn, &obj.stopwatch());
        obj.record_block_round(txn);
        obj.record_commit(txn);
        reg.txn_begun(txn);
        reg.txn_committed(txn, None);
        // The handle's counters still count (exact-count tests rely on
        // them), but the registry aggregates nothing.
        assert_eq!(obj.stats().admissions, 1);
        assert_eq!(obj.stats().blocks, 1);
        let snap = reg.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.txns_begun, 0);
        assert!(reg.trace_events().records.is_empty());
    }

    #[test]
    fn enabled_registry_aggregates_objects_and_reasons() {
        let reg = MetricsRegistry::new();
        let txn = ActivityId::new(1);
        let a = reg.object(ObjectId::new(1));
        let b = reg.object(ObjectId::new(2));
        reg.txn_begun(txn);
        let sw = a.stopwatch();
        assert!(sw.is_armed());
        a.record_admission(txn, &sw);
        b.record_admission(txn, &b.stopwatch());
        b.record_deadlock_kill(txn);
        reg.txn_aborted(txn, Some(AbortReason::Deadlock));
        let snap = reg.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.txns_begun, 1);
        assert_eq!(snap.txns_aborted, 1);
        // One cause from the kill site plus one from the attributed abort.
        assert_eq!(snap.abort_reasons["deadlock"], 2);
        assert_eq!(snap.invoke_ns.count, 2);
        assert_eq!(reg.aggregate_stats().admissions, 2);
        assert_eq!(reg.aggregate_stats().deadlock_kills, 1);
        let kinds: Vec<TraceKind> = reg.trace_events().records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Begin,
                TraceKind::Invoke,
                TraceKind::Invoke,
                TraceKind::Abort
            ]
        );
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let reg = MetricsRegistry::new();
        let obj = reg.object(ObjectId::new(9));
        let txn = ActivityId::new(2);
        obj.record_admission(txn, &obj.stopwatch());
        reg.txn_committed(txn, Some(1234));
        let json = reg.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reg.snapshot());
        assert_eq!(back.commit_ns.count, 1);
        assert_eq!(back.objects.len(), 1);
        assert_eq!(back.objects[0].object, 9);
    }

    #[test]
    fn concurrent_tracing_is_lossless_within_capacity() {
        let reg = MetricsRegistry::new();
        let obj = reg.object(ObjectId::new(1));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let obj = obj.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let sw = obj.stopwatch();
                        obj.record_admission(ActivityId::new(t * 1000 + i), &sw);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(obj.stats().admissions, 800);
        let snap = reg.snapshot();
        assert_eq!(snap.invoke_ns.count, 800);
        let trace = reg.trace_events();
        assert_eq!(trace.records.len() as u64 + trace.dropped, 800);
        assert_eq!(trace.dropped, 0, "800 events fit in the default ring");
    }
}
