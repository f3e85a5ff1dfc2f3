//! Spans around the calls into each layer, recorded from the benchmark's
//! side of the public API.
//!
//! Each thread pushes `{name, start, end, parent, txn}` records to its own
//! preallocated buffer; nothing is shared while a trial runs. A span
//! opened inside another one takes it as parent, so a call the program
//! makes back into the benchmark (the WAL adapter under
//! `IntentionsStore`) nests under the call that caused it. A transaction
//! is a *request* span that stays open across the calls made for it;
//! interleaved transactions overlap, so their calls name the request as
//! parent explicitly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Marks "no parent" and "no transaction".
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the run's name table (see [`name_of`]).
    pub name: u16,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Transaction the span belongs to, or [`NONE`].
    pub txn: u32,
    pub start: u64,
    pub end: u64,
}

/// Span names. A request span is the whole transaction; every other
/// name is one public function of one layer.
pub const NAMES: &[&str] = &[
    "request",
    "core.manager.begin",
    "core.manager.begin_read_only",
    "core.manager.commit",
    "core.manager.abort",
    "core.engine.dynamic.invoke",
    "core.engine.dynamic.blocked",
    "core.engine.hybrid.invoke",
    "core.engine.hybrid.read_at",
    "core.recovery.prepare",
    "core.recovery.commit",
    "durability.wal.append",
    "durability.wal.sync",
    "durability.wal.mirror_read",
    "dist.service.step_event",
    "certify.finish",
    "certify.pump",
];

pub const REQUEST: u16 = 0;
pub const MGR_BEGIN: u16 = 1;
pub const MGR_BEGIN_RO: u16 = 2;
pub const MGR_COMMIT: u16 = 3;
pub const MGR_ABORT: u16 = 4;
pub const DYN_INVOKE: u16 = 5;
pub const DYN_BLOCKED: u16 = 6;
pub const HYB_INVOKE: u16 = 7;
pub const HYB_READ_AT: u16 = 8;
pub const REC_PREPARE: u16 = 9;
pub const REC_COMMIT: u16 = 10;
pub const WAL_APPEND: u16 = 11;
pub const WAL_SYNC: u16 = 12;
pub const WAL_MIRROR_READ: u16 = 13;
pub const DIST_STEP: u16 = 14;
pub const CERT_FINISH: u16 = 15;
pub const CERT_PUMP: u16 = 16;

/// The name a span index stands for.
pub fn name_of(index: u16) -> &'static str {
    NAMES[usize::from(index)]
}

// Relaxed: the flag publishes no data; threads are spawned after it is set.
static TRACING: AtomicBool = AtomicBool::new(false);

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans of this thread, innermost last.
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns span recording on or off for threads that call [`arm`] later.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Gives the calling thread a buffer for `capacity` spans, timed from
/// `epoch`. A no-op when tracing is off.
pub fn arm(epoch: Instant, capacity: usize) {
    if tracing() {
        RECORDER.with(|r| {
            *r.borrow_mut() = Some(Recorder {
                epoch,
                spans: Vec::with_capacity(capacity),
                stack: Vec::with_capacity(8),
            });
        });
    }
}

/// Takes the calling thread's spans, leaving it unarmed.
pub fn disarm() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

fn open(name: u16, parent: Option<u32>, txn: u32, push: bool) -> u32 {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else {
            return NONE;
        };
        let index = rec.spans.len() as u32;
        let parent = parent.unwrap_or_else(|| rec.stack.last().copied().unwrap_or(NONE));
        if push {
            rec.stack.push(index);
        }
        let start = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent,
            txn,
            start,
            end: start,
        });
        index
    })
}

fn close(index: u32, pop: bool) {
    if index == NONE {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[index as usize].end = rec.epoch.elapsed().as_nanos() as u64;
            if pop {
                rec.stack.pop();
            }
        }
    });
}

/// Opens a request span for transaction `txn`; it stays open until
/// [`end_request`], across calls made for other transactions.
#[inline]
pub fn begin_request(txn: u32) -> u32 {
    if tracing() {
        open(REQUEST, None, txn, false)
    } else {
        NONE
    }
}

/// Closes a request span.
#[inline]
pub fn end_request(request: u32) {
    if tracing() {
        close(request, false);
    }
}

/// Runs `f` inside a span caused by `request` (or, with [`NONE`], by the
/// innermost open span of this thread).
#[inline]
pub fn call<R>(name: u16, request: u32, txn: u32, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let index = open(name, (request != NONE).then_some(request), txn, true);
    let result = f();
    close(index, true);
    result
}

/// Changes the name of a span after the call returned — the outcome of
/// an admission attempt (admitted or blocked) is known only then.
#[inline]
pub fn rename_last(name: u16) {
    if tracing() {
        RECORDER.with(|r| {
            if let Some(last) = r.borrow_mut().as_mut().and_then(|rec| rec.spans.last_mut()) {
                last.name = name;
            }
        });
    }
}

/// Time and calls of one span name, summed over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    /// Sum of `end - start`.
    pub total_ns: u64,
    /// `total_ns` less the part child spans cover.
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean self time of one call, 0 when there were none.
    pub fn self_ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Sums one thread's spans by name. A span's self time is its duration
/// minus the durations of the spans that name it as parent (children of
/// one parent never overlap: they are sequential calls on one thread).
pub fn aggregate(spans: &[Span], into: &mut BTreeMap<u16, Aggregate>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    for (s, covered) in spans.iter().zip(child_ns) {
        let a = into.entry(s.name).or_default();
        let duration = s.end - s.start;
        a.count += 1;
        a.total_ns += duration;
        a.self_ns += duration.saturating_sub(covered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            txn: 7,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_less_children() {
        // request [0,100] > prepare [10,60] > {append [20,30], sync [35,50]}
        let spans = [
            span(REQUEST, NONE, 0, 100),
            span(REC_PREPARE, 0, 10, 60),
            span(WAL_APPEND, 1, 20, 30),
            span(WAL_SYNC, 1, 35, 50),
            span(REC_PREPARE, 0, 70, 90),
        ];
        let mut agg = BTreeMap::new();
        aggregate(&spans, &mut agg);
        assert_eq!(
            agg[&REQUEST],
            Aggregate {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            agg[&REC_PREPARE],
            Aggregate {
                count: 2,
                total_ns: 70,
                self_ns: 45
            }
        );
        assert_eq!(
            agg[&WAL_APPEND],
            Aggregate {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(agg[&WAL_SYNC].self_ns_per_call(), 15.0);
        assert_eq!(Aggregate::default().self_ns_per_call(), 0.0);
    }

    #[test]
    fn nested_calls_take_the_open_span_as_parent() {
        set_tracing(true);
        arm(Instant::now(), 16);
        let request = begin_request(3);
        call(REC_PREPARE, request, 3, || {
            call(WAL_APPEND, NONE, 3, || {});
        });
        call(DYN_INVOKE, request, 3, || {});
        rename_last(DYN_BLOCKED);
        end_request(request);
        let spans = disarm();
        set_tracing(false);
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].name, spans[0].parent), (REQUEST, NONE));
        assert_eq!((spans[1].name, spans[1].parent), (REC_PREPARE, 0));
        assert_eq!((spans[2].name, spans[2].parent), (WAL_APPEND, 1));
        assert_eq!((spans[3].name, spans[3].parent), (DYN_BLOCKED, 0));
        assert!(spans.iter().all(|s| s.end >= s.start && s.txn == 3));
        assert!(disarm().is_empty());
    }
}
