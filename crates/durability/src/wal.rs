//! The segmented on-disk write-ahead log.
//!
//! # Layout
//!
//! A WAL directory holds:
//!
//! - `wal-<first_lsn>.seg` — append-only segment files of frames
//!   ([`crate::frame`]); `<first_lsn>` (zero-padded, so lexical order is
//!   numeric order) is the LSN of the segment's first record, and a
//!   record's LSN is the segment's first LSN plus its index within the
//!   segment;
//! - `checkpoint.ck` — an optional checkpoint: the folded summary of every
//!   record below its checkpoint LSN, installed atomically by rename.
//!
//! # Invariants
//!
//! 1. **Only the last segment can be torn.** Rotation fsyncs the old
//!    segment (and the directory) *before* the first write to the new one,
//!    so a crash can only lose a suffix of the newest segment. [`Wal::open`]
//!    still scans defensively: a tear in an earlier segment truncates that
//!    segment and discards everything after it, preserving the prefix
//!    property that [`DurableLog::records`] promises.
//! 2. **A checkpoint only summarizes closed, durable segments.**
//!    [`Wal::checkpoint`] rotates first, so every record below the
//!    checkpoint LSN lives in an fsynced segment before the fold is
//!    computed, and the checkpoint is installed (tmp + fsync + rename +
//!    dir fsync) before any segment is deleted. A crash at any point
//!    leaves either the old (checkpoint, segments) pair or the new one —
//!    never a state that drops a record.
//! 3. **Acknowledged means durable.** [`DurableLog::sync`] returns only
//!    once every record appended before the call is on disk — immediately
//!    under [`SyncPolicy::SyncEach`], after the batching flusher's next
//!    fsync under [`SyncPolicy::GroupCommit`].
//!
//! # Errors
//!
//! [`Wal::open`] and [`Wal::checkpoint`] surface `io::Result`. The hot
//! append/sync path implements the infallible [`DurableLog`] interface and
//! treats an I/O error on the log device as unrecoverable: it panics. A
//! real system would fail-stop the replica there too — continuing past a
//! log-write failure is exactly how recovery invariants die.

use crate::frame::{encode_frame, read_frame, FrameRead};
use atomicity_core::recovery::{DurableLog, LogRecord, RecordKind};
use atomicity_core::sync::{Condvar, Mutex, Rank};
use atomicity_core::trace::MetricsRegistry;
use atomicity_spec::{ActivityId, ObjectId};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".seg";
const CHECKPOINT_FILE: &str = "checkpoint.ck";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// When and how appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every append is written and fsynced before it returns. One device
    /// flush per record: the durable baseline, and the mode the
    /// deterministic simulation uses (no background thread).
    SyncEach,
    /// Appends only buffer the record into the OS page cache;
    /// [`DurableLog::sync`] wakes a dedicated flusher thread which waits
    /// `window` for more committers to arrive, then retires the whole
    /// batch with a single fsync. All waiters parked below the durable
    /// LSN are released together.
    GroupCommit {
        /// How long the flusher lingers to let a batch accumulate. Zero
        /// still batches whatever arrived while the previous fsync ran.
        window: Duration,
    },
}

/// Configuration for [`Wal::open`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a new segment once the active one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
    /// Flush policy (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Metrics sink; flush latency and batch sizes are recorded via
    /// [`MetricsRegistry::wal_flush`]. Pass
    /// [`MetricsRegistry::disabled`] for none.
    pub metrics: MetricsRegistry,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 * 1024 * 1024,
            sync: SyncPolicy::GroupCommit {
                window: Duration::from_micros(200),
            },
            metrics: MetricsRegistry::disabled(),
        }
    }
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecoveryInfo {
    /// Logical records surviving (checkpoint summary + segment records).
    pub records: usize,
    /// Records contributed by the checkpoint summary.
    pub checkpoint_records: usize,
    /// The checkpoint LSN (0 when no checkpoint exists).
    pub checkpoint_lsn: u64,
    /// Bytes of torn tail truncated from the last readable segment.
    pub torn_bytes: u64,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Segment files deleted because they sat beyond a torn segment (only
    /// possible after external corruption; rotation ordering prevents it).
    pub segments_dropped: usize,
}

/// What [`Wal::checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The new checkpoint LSN: every record below it is summarized.
    pub checkpoint_lsn: u64,
    /// Records in the folded summary.
    pub summary_records: usize,
    /// Logical records the summary replaced.
    pub records_folded: usize,
    /// Closed segment files deleted.
    pub segments_removed: usize,
}

/// Mutable WAL state: the active segment plus the in-memory mirror of the
/// logical record sequence (so [`DurableLog::records`] never re-reads the
/// disk).
#[derive(Debug)]
struct WalState {
    /// Active segment file handle (append position at end).
    file: File,
    /// Path of the active segment (needed for checkpoint bookkeeping).
    seg_path: PathBuf,
    /// Bytes written to the active segment so far.
    seg_bytes: u64,
    /// LSN the next appended record will get.
    next_lsn: u64,
    /// Checkpoint summary records (replaces all records below
    /// `ckpt_lsn`).
    base: Vec<LogRecord>,
    /// Records with LSN ≥ `ckpt_lsn`, in LSN order.
    tail: Vec<LogRecord>,
    /// The checkpoint LSN: `tail[0]` (when present) has this LSN.
    ckpt_lsn: u64,
}

/// Work flags shared with the flusher thread. Owned by an `Arc` of its
/// own (not inside `WalInner`) so the thread can keep waiting on it with
/// only a `Weak` back-reference to the log.
#[derive(Debug)]
struct FlushSignal {
    flags: Mutex<FlushFlags>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct FlushFlags {
    work: bool,
    shutdown: bool,
}

#[derive(Debug)]
struct WalInner {
    dir: PathBuf,
    segment_bytes: u64,
    sync: SyncPolicy,
    metrics: MetricsRegistry,
    state: Mutex<WalState>,
    /// Highest LSN known durable (exclusive: records with LSN <
    /// `durable_lsn` are on disk). Locked after `state` when both are
    /// held.
    durable: Mutex<u64>,
    durable_cond: Condvar,
    signal: Arc<FlushSignal>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The on-disk segmented write-ahead log. Cloning is cheap and clones
/// share the log, exactly like
/// [`StableLog`](atomicity_core::recovery::StableLog) — pass clones to
/// each [`IntentionsStore`](atomicity_core::recovery::IntentionsStore)
/// multiplexed onto the same directory.
#[derive(Debug, Clone)]
pub struct Wal {
    inner: Arc<WalInner>,
}

fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{first_lsn:020}{SEGMENT_SUFFIX}"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Fsyncs the directory itself so renames/creations/deletions within it
/// are durable (a no-op on platforms where directories cannot be synced).
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

impl Wal {
    /// Opens (or creates) the log in `dir`, recovering from whatever a
    /// previous process — cleanly exited or SIGKILLed mid-write — left
    /// behind: loads the checkpoint summary if present, scans the
    /// segments in LSN order, truncates a torn tail back to the last
    /// whole frame, and rebuilds the in-memory mirror.
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> io::Result<(Wal, WalRecoveryInfo)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        // Leftover temporary checkpoint from a crash mid-install: the
        // rename never happened, so it is garbage.
        let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));

        let (base, ckpt_lsn) = match load_checkpoint(&dir.join(CHECKPOINT_FILE))? {
            Some((records, lsn)) => (records, lsn),
            None => (Vec::new(), 0),
        };

        // Collect and sort the segment files.
        let mut segments: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(first_lsn) = entry.file_name().to_str().and_then(parse_segment_name) {
                segments.push(first_lsn);
            }
        }
        segments.sort_unstable();

        let mut info = WalRecoveryInfo {
            records: base.len(),
            checkpoint_records: base.len(),
            checkpoint_lsn: ckpt_lsn,
            torn_bytes: 0,
            segments_scanned: segments.len(),
            segments_dropped: 0,
        };

        let mut tail: Vec<LogRecord> = Vec::new();
        let mut next_lsn = ckpt_lsn;
        let mut active: Option<(PathBuf, u64)> = None; // (path, byte size)
        let mut torn_at: Option<usize> = None;

        for (i, &first_lsn) in segments.iter().enumerate() {
            let path = segment_path(&dir, first_lsn);
            if torn_at.is_some() {
                // Prefix semantics: nothing after a tear is reachable.
                fs::remove_file(&path)?;
                info.segments_dropped += 1;
                continue;
            }
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let mut offset = 0;
            let mut lsn = first_lsn;
            loop {
                match read_frame(&buf, offset) {
                    FrameRead::Record { record, next } => {
                        if lsn >= ckpt_lsn {
                            tail.push(record);
                        }
                        lsn += 1;
                        offset = next;
                    }
                    FrameRead::End => break,
                    FrameRead::Torn(_) => {
                        info.torn_bytes += (buf.len() - offset) as u64;
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(offset as u64)?;
                        f.sync_all()?;
                        torn_at = Some(i);
                        break;
                    }
                }
            }
            next_lsn = lsn;
            active = Some((path, offset as u64));
        }
        if info.segments_dropped > 0 {
            sync_dir(&dir)?;
        }

        // Open (or create) the active segment for appending.
        let (seg_path, seg_bytes) = match active {
            Some(a) => a,
            None => (segment_path(&dir, next_lsn), 0),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)?;
        sync_dir(&dir)?;

        info.records = base.len() + tail.len();

        let inner = Arc::new(WalInner {
            dir,
            segment_bytes: opts.segment_bytes.max(1),
            sync: opts.sync,
            metrics: opts.metrics,
            state: Mutex::new(
                Rank::WalState,
                WalState {
                    file,
                    seg_path,
                    seg_bytes,
                    next_lsn,
                    base,
                    tail,
                    ckpt_lsn,
                },
            ),
            // Everything recovered is on disk by definition.
            durable: Mutex::new(Rank::WalDurable, next_lsn),
            durable_cond: Condvar::new(),
            signal: Arc::new(FlushSignal {
                flags: Mutex::new(Rank::WalFlags, FlushFlags::default()),
                cond: Condvar::new(),
            }),
            flusher: Mutex::new(Rank::WalFlusher, None),
        });

        if let SyncPolicy::GroupCommit { window } = opts.sync {
            let weak = Arc::downgrade(&inner);
            let signal = Arc::clone(&inner.signal);
            let handle = std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop(weak, signal, window))
                .expect("spawn wal flusher thread");
            *inner.flusher.lock() = Some(handle);
        }

        Ok((Wal { inner }, info))
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The LSN the next append will receive. Unlike
    /// [`DurableLog::len`], this counts checkpoint-folded records at
    /// their pre-fold cardinality: it is the raw disk sequence number.
    pub fn next_lsn(&self) -> u64 {
        self.inner.state.lock().next_lsn
    }

    /// Highest exclusive LSN known to be on disk.
    pub fn durable_lsn(&self) -> u64 {
        *self.inner.durable.lock()
    }

    /// Takes a fuzzy checkpoint: rotates the active segment, folds every
    /// logical record below the rotation point into a compact summary
    /// (committed transactions keep their staged intentions; aborted
    /// transactions keep only their outcome; in-flight prepares are
    /// carried over verbatim), installs the summary atomically, and
    /// deletes the closed segments it now covers.
    ///
    /// Concurrent appends are blocked only for the duration of the fold
    /// and file shuffle ("fuzzy" here means transactions may be mid-flight
    /// — their prepares are preserved — not that the lock is free).
    pub fn checkpoint(&self) -> io::Result<CheckpointStats> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();

        // 1. Close the active segment: everything below next_lsn becomes
        // durable, closed history.
        st.file.sync_data()?;
        let ckpt_lsn = st.next_lsn;
        let old_seg = st.seg_path.clone();
        let new_seg = segment_path(&inner.dir, ckpt_lsn);
        // Rotation to a same-named path means the old segment is empty
        // (freshly opened, no records): nothing to do, reuse it.
        let rotated = new_seg != old_seg;
        if rotated {
            st.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&new_seg)?;
            st.seg_path = new_seg;
            st.seg_bytes = 0;
            sync_dir(&inner.dir)?;
        }
        {
            let mut durable = inner.durable.lock();
            if ckpt_lsn > *durable {
                *durable = ckpt_lsn;
                inner.durable_cond.notify_all();
            }
        }

        // 2. Fold the full logical history into the new summary.
        let records_folded = st.base.len() + st.tail.len();
        let summary = fold_records(st.base.iter().chain(st.tail.iter()));

        // 3. Install atomically: tmp → fsync → rename → dir fsync.
        let tmp = inner.dir.join(CHECKPOINT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&ckpt_lsn.to_le_bytes())?;
            for r in &summary {
                f.write_all(&encode_frame(r))?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, inner.dir.join(CHECKPOINT_FILE))?;
        sync_dir(&inner.dir)?;

        // 4. Delete the closed segments the checkpoint now covers.
        let mut segments_removed = 0;
        for entry in fs::read_dir(&inner.dir)? {
            let entry = entry?;
            if let Some(first_lsn) = entry.file_name().to_str().and_then(parse_segment_name) {
                if first_lsn < ckpt_lsn && entry.path() != st.seg_path {
                    fs::remove_file(entry.path())?;
                    segments_removed += 1;
                }
            }
        }
        if segments_removed > 0 {
            sync_dir(&inner.dir)?;
        }

        // 5. Swap the mirror.
        let stats = CheckpointStats {
            checkpoint_lsn: ckpt_lsn,
            summary_records: summary.len(),
            records_folded,
            segments_removed,
        };
        st.base = summary;
        st.tail.clear();
        st.ckpt_lsn = ckpt_lsn;
        Ok(stats)
    }
}

impl DurableLog for Wal {
    fn append(&self, record: LogRecord) -> u64 {
        let inner = &*self.inner;
        let frame = encode_frame(&record);
        let mut st = inner.state.lock();

        // Rotate when the active segment is full (never leaving it
        // empty): fsync the old segment before the new one takes writes,
        // preserving the only-the-last-segment-tears invariant.
        if st.seg_bytes > 0 && st.seg_bytes + frame.len() as u64 > inner.segment_bytes {
            st.file
                .sync_data()
                .expect("wal: fsync segment for rotation");
            let path = segment_path(&inner.dir, st.next_lsn);
            st.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .expect("wal: open new segment");
            st.seg_path = path;
            st.seg_bytes = 0;
            sync_dir(&inner.dir).expect("wal: fsync directory after rotation");
            let mut durable = inner.durable.lock();
            if st.next_lsn > *durable {
                *durable = st.next_lsn;
                inner.durable_cond.notify_all();
            }
        }

        st.file.write_all(&frame).expect("wal: append frame");
        st.seg_bytes += frame.len() as u64;
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        st.tail.push(record);

        if inner.sync == SyncPolicy::SyncEach {
            let t0 = Instant::now();
            st.file.sync_data().expect("wal: fsync record");
            inner
                .metrics
                .wal_flush(1, t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            let mut durable = inner.durable.lock();
            if st.next_lsn > *durable {
                *durable = st.next_lsn;
                inner.durable_cond.notify_all();
            }
        }
        lsn
    }

    fn sync(&self) {
        let inner = &*self.inner;
        let target = inner.state.lock().next_lsn;
        if *inner.durable.lock() >= target {
            return;
        }
        match inner.sync {
            SyncPolicy::SyncEach => {
                // Appends sync eagerly; nothing outstanding can remain.
            }
            SyncPolicy::GroupCommit { .. } => {
                {
                    let mut flags = inner.signal.flags.lock();
                    flags.work = true;
                    inner.signal.cond.notify_all();
                }
                let mut durable = inner.durable.lock();
                while *durable < target {
                    inner.durable_cond.wait(&mut durable);
                }
            }
        }
    }

    fn records(&self) -> Vec<LogRecord> {
        let st = self.inner.state.lock();
        let mut out = Vec::with_capacity(st.base.len() + st.tail.len());
        out.extend_from_slice(&st.base);
        out.extend_from_slice(&st.tail);
        out
    }

    fn records_from(&self, from: usize) -> Vec<LogRecord> {
        let st = self.inner.state.lock();
        let total = st.base.len() + st.tail.len();
        if from >= total {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(total - from);
        if from < st.base.len() {
            out.extend_from_slice(&st.base[from..]);
            out.extend_from_slice(&st.tail);
        } else {
            out.extend_from_slice(&st.tail[from - st.base.len()..]);
        }
        out
    }

    fn len(&self) -> usize {
        let st = self.inner.state.lock();
        st.base.len() + st.tail.len()
    }
}

impl Drop for WalInner {
    fn drop(&mut self) {
        {
            let mut flags = self.signal.flags.lock();
            flags.shutdown = true;
            self.signal.cond.notify_all();
        }
        // The flusher holds a strong reference for the length of one
        // flush; if the last user handle went away meanwhile, this runs on
        // the flusher thread itself, which must not join itself (EDEADLK).
        // It sees the shutdown flag on its next loop turn and returns.
        if let Some(handle) = self.flusher.get_mut().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        // Closing flush so a clean drop never leaves buffered records
        // (callers relying on durability must still sync() — this is
        // best-effort tidiness, not the contract).
        let _ = self.state.get_mut().file.sync_data();
    }
}

/// The group-commit flusher. Holds only a `Weak` to the log (so dropping
/// the last `Wal` handle shuts it down) plus the strongly-held signal.
fn flusher_loop(weak: Weak<WalInner>, signal: Arc<FlushSignal>, window: Duration) {
    loop {
        {
            let mut flags = signal.flags.lock();
            while !flags.work && !flags.shutdown {
                signal.cond.wait(&mut flags);
            }
            if flags.shutdown {
                return;
            }
            flags.work = false;
        }
        // Linger so concurrent committers can join the batch.
        if !window.is_zero() {
            std::thread::sleep(window);
        }
        let Some(inner) = weak.upgrade() else { return };
        let (target, file) = {
            let st = inner.state.lock();
            (st.next_lsn, st.file.try_clone())
        };
        let file = file.expect("wal: clone segment handle for flush");
        let t0 = Instant::now();
        file.sync_data().expect("wal: group-commit fsync");
        let flush_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut durable = inner.durable.lock();
        if target > *durable {
            inner.metrics.wal_flush(target - *durable, flush_ns);
            *durable = target;
            inner.durable_cond.notify_all();
        } else {
            inner.metrics.wal_flush(0, flush_ns);
        }
        inner.durable_cond.notify_all();
    }
}

/// Loads `checkpoint.ck`: `[ckpt_lsn: u64 LE]` followed by record frames.
/// The file is only ever installed by atomic rename, so a readable file
/// is complete; a torn frame inside one means external corruption and is
/// reported as `InvalidData`.
fn load_checkpoint(path: &Path) -> io::Result<Option<(Vec<LogRecord>, u64)>> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_end(&mut buf).map(|_| ())?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    if buf.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint shorter than its header",
        ));
    }
    let ckpt_lsn = u64::from_le_bytes(buf[..8].try_into().unwrap());
    let mut records = Vec::new();
    let mut offset = 8;
    loop {
        match read_frame(&buf, offset) {
            FrameRead::Record { record, next } => {
                records.push(record);
                offset = next;
            }
            FrameRead::End => break,
            FrameRead::Torn(why) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt checkpoint: {why}"),
                ));
            }
        }
    }
    Ok(Some((records, ckpt_lsn)))
}

/// Folds a logical record sequence into its compact summary, preserving
/// everything intentions-list recovery can still observe:
///
/// - a transaction with a durable outcome keeps, in original
///   outcome-record order: its latest staged intentions plus the `Commit`
///   (so redo still works), or just the `Abort` (its intentions are dead
///   weight — this is where compaction wins);
/// - a prepared transaction with no outcome (in-doubt) keeps its latest
///   `Prepare`, emitted after all decided transactions.
fn fold_records<'a>(records: impl Iterator<Item = &'a LogRecord>) -> Vec<LogRecord> {
    type Key = (ActivityId, ObjectId);
    struct Entry {
        ops: Option<Vec<atomicity_spec::OpResult>>,
        outcome: Option<bool>,
        /// Footprint of a dependency-logged commit, preserved through the
        /// fold so a checkpointed log stays parallel-recoverable.
        footprint: Option<atomicity_core::recovery::KeyFootprint>,
    }
    let mut by_key: Vec<(Key, Entry)> = Vec::new();
    let mut decided: Vec<Key> = Vec::new(); // in outcome order
    let mut prepared: Vec<Key> = Vec::new(); // in first-prepare order

    for r in records {
        let key = (r.txn, r.object);
        let idx = match by_key.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                by_key.push((
                    key,
                    Entry {
                        ops: None,
                        outcome: None,
                        footprint: None,
                    },
                ));
                by_key.len() - 1
            }
        };
        match &r.kind {
            RecordKind::Prepare { ops } => {
                by_key[idx].1.ops = Some(ops.clone());
                if by_key[idx].1.outcome.is_none() && !prepared.contains(&key) {
                    prepared.push(key);
                }
            }
            RecordKind::Commit | RecordKind::CommitDep { .. } | RecordKind::Abort => {
                if by_key[idx].1.outcome.is_none() {
                    by_key[idx].1.outcome = Some(r.kind.is_commit());
                    if let RecordKind::CommitDep { footprint } = &r.kind {
                        by_key[idx].1.footprint = Some(footprint.clone());
                    }
                    decided.push(key);
                    prepared.retain(|k| *k != key);
                }
            }
        }
    }

    let mut out = Vec::new();
    for key in decided {
        let idx = by_key.iter().position(|(k, _)| *k == key).unwrap();
        let entry = &mut by_key[idx].1;
        let (txn, object) = key;
        match entry.outcome {
            Some(true) => {
                if let Some(ops) = entry.ops.take() {
                    out.push(LogRecord {
                        txn,
                        object,
                        kind: RecordKind::Prepare { ops },
                    });
                }
                out.push(LogRecord {
                    txn,
                    object,
                    kind: match entry.footprint.take() {
                        Some(footprint) => RecordKind::CommitDep { footprint },
                        None => RecordKind::Commit,
                    },
                });
            }
            Some(false) => out.push(LogRecord {
                txn,
                object,
                kind: RecordKind::Abort,
            }),
            None => unreachable!("decided key has an outcome"),
        }
    }
    for key in prepared {
        let idx = by_key.iter().position(|(k, _)| *k == key).unwrap();
        if let Some(ops) = by_key[idx].1.ops.take() {
            let (txn, object) = key;
            out.push(LogRecord {
                txn,
                object,
                kind: RecordKind::Prepare { ops },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::{op, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atomicity-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(txn: u32, kind: RecordKind) -> LogRecord {
        LogRecord {
            txn: ActivityId::new(txn),
            object: ObjectId::new(1),
            kind,
        }
    }

    fn prepare(txn: u32) -> LogRecord {
        rec(
            txn,
            RecordKind::Prepare {
                ops: vec![(op("deposit", [i64::from(txn)]), Value::ok())],
            },
        )
    }

    fn sync_each_opts() -> WalOptions {
        WalOptions {
            sync: SyncPolicy::SyncEach,
            ..WalOptions::default()
        }
    }

    #[test]
    fn append_survives_reopen() {
        let dir = tmpdir("reopen");
        let expected = vec![prepare(1), rec(1, RecordKind::Commit)];
        {
            let (wal, info) = Wal::open(&dir, sync_each_opts()).unwrap();
            assert_eq!(info.records, 0);
            for r in &expected {
                wal.append(r.clone());
            }
            wal.sync();
        }
        let (wal, info) = Wal::open(&dir, sync_each_opts()).unwrap();
        assert_eq!(info.records, 2);
        assert_eq!(info.torn_bytes, 0);
        assert_eq!(wal.records(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmpdir("rotate");
        let opts = WalOptions {
            segment_bytes: 64, // tiny: force rotation every record or two
            ..sync_each_opts()
        };
        let n = 20;
        {
            let (wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for i in 0..n {
                wal.append(prepare(i));
            }
            wal.sync();
        }
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                parse_segment_name(e.as_ref().unwrap().file_name().to_str().unwrap()).is_some()
            })
            .count();
        assert!(segs > 1, "expected multiple segments, got {segs}");
        let (wal, info) = Wal::open(&dir, opts).unwrap();
        assert_eq!(info.records, n as usize);
        assert_eq!(wal.len(), n as usize);
        assert_eq!(wal.next_lsn(), u64::from(n));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let (wal, _) = Wal::open(&dir, sync_each_opts()).unwrap();
            wal.append(prepare(1));
            wal.append(rec(1, RecordKind::Commit));
            wal.sync();
        }
        // Clip the last 3 bytes of the (only) segment: a torn commit.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let (wal, info) = Wal::open(&dir, sync_each_opts()).unwrap();
        assert_eq!(info.records, 1, "clipped commit must be discarded");
        assert!(info.torn_bytes > 0);
        assert_eq!(wal.records(), vec![prepare(1)]);
        // The tear is repaired: appends resume at LSN 1 and a reopen is
        // clean.
        wal.append(rec(1, RecordKind::Abort));
        wal.sync();
        drop(wal);
        let (_, info) = Wal::open(&dir, sync_each_opts()).unwrap();
        assert_eq!(info.records, 2);
        assert_eq!(info.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_releases_all_waiters() {
        let dir = tmpdir("group");
        let opts = WalOptions {
            sync: SyncPolicy::GroupCommit {
                window: Duration::from_micros(100),
            },
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for j in 0..10 {
                        let txn = i * 100 + j;
                        wal.append(prepare(txn));
                        wal.append(rec(txn, RecordKind::Commit));
                        wal.sync();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.len(), 160);
        assert_eq!(wal.durable_lsn(), 160);
        drop(wal);
        let (wal, info) = Wal::open(&dir, sync_each_opts()).unwrap();
        assert_eq!(info.records, 160);
        assert_eq!(wal.len(), 160);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let dir = tmpdir("ckpt");
        let opts = WalOptions {
            segment_bytes: 64,
            ..sync_each_opts()
        };
        let (wal, _) = Wal::open(&dir, opts.clone()).unwrap();
        // t1 commits, t2 aborts, t3 stays in doubt.
        wal.append(prepare(1));
        wal.append(rec(1, RecordKind::Commit));
        wal.append(prepare(2));
        wal.append(rec(2, RecordKind::Abort));
        wal.append(prepare(3));
        wal.sync();

        let stats = wal.checkpoint().unwrap();
        assert_eq!(stats.records_folded, 5);
        // t1: Prepare+Commit, t2: Abort only, t3: Prepare.
        assert_eq!(stats.summary_records, 4);
        assert!(stats.segments_removed > 0);
        assert_eq!(stats.checkpoint_lsn, 5);

        // Post-checkpoint appends land after the summary.
        wal.append(rec(3, RecordKind::Commit));
        wal.sync();
        let records = wal.records();
        assert_eq!(records.len(), 5);
        drop(wal);

        let (wal, info) = Wal::open(&dir, opts).unwrap();
        assert_eq!(info.checkpoint_lsn, 5);
        assert_eq!(info.checkpoint_records, 4);
        assert_eq!(info.records, 5);
        assert_eq!(wal.records(), records);
        // The logical content still drives recovery correctly: t2's ops
        // are gone but its abort outcome survives.
        assert!(wal
            .records()
            .iter()
            .any(|r| r.txn == ActivityId::new(2) && matches!(r.kind, RecordKind::Abort)));
        assert!(!wal
            .records()
            .iter()
            .any(|r| r.txn == ActivityId::new(2) && matches!(r.kind, RecordKind::Prepare { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_checkpoints_keep_folding() {
        let dir = tmpdir("ckpt2");
        let (wal, _) = Wal::open(&dir, sync_each_opts()).unwrap();
        for i in 0..10 {
            wal.append(prepare(i));
            wal.append(rec(i, RecordKind::Commit));
            if i % 3 == 2 {
                wal.checkpoint().unwrap();
            }
        }
        wal.sync();
        let logical = wal.records();
        drop(wal);
        let (wal, _) = Wal::open(&dir, sync_each_opts()).unwrap();
        assert_eq!(wal.records(), logical);
        // Every committed txn still has prepare + commit visible.
        for i in 0..10 {
            let t = ActivityId::new(i);
            assert!(logical
                .iter()
                .any(|r| r.txn == t && matches!(r.kind, RecordKind::Prepare { .. })));
            assert!(logical
                .iter()
                .any(|r| r.txn == t && matches!(r.kind, RecordKind::Commit)));
        }
        drop(wal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fold_preserves_commit_order() {
        let records = [
            prepare(1),
            prepare(2),
            rec(2, RecordKind::Commit),
            rec(1, RecordKind::Commit),
        ];
        let folded = fold_records(records.iter());
        // Commit order (2 before 1) must survive the fold: redo replays
        // in commit-record order.
        let commits: Vec<u32> = folded
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Commit))
            .map(|r| r.txn.raw())
            .collect();
        assert_eq!(commits, vec![2, 1]);
    }

    #[test]
    fn metrics_observe_flushes() {
        let dir = tmpdir("metrics");
        let metrics = MetricsRegistry::new();
        let opts = WalOptions {
            sync: SyncPolicy::SyncEach,
            metrics: metrics.clone(),
            ..WalOptions::default()
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        wal.append(prepare(1));
        wal.append(rec(1, RecordKind::Commit));
        wal.sync();
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_flush_ns.count, 2);
        assert_eq!(snap.wal_batch.sum_nanos, 2); // one record per flush
        drop(wal);
        fs::remove_dir_all(&dir).unwrap();
    }
}
