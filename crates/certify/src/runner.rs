//! The tap-pumping thread: connects a recorder [`LogTap`] to an
//! [`OnlineCertifier`] so certification proceeds concurrently with the
//! workload.
//!
//! The runner polls the tap's merge frontier, feeds every newly stable
//! `(stamp, event)` pair to the monitor, and publishes progress (events
//! observed, operations retained) to the engine's
//! [`MetricsRegistry`] so the e16 experiment can gauge the monitor's
//! memory high-water mark from the same snapshot that carries engine
//! throughput. On [`OnlineHandle::finish`] the runner drains the tap to
//! quiescence before concluding, so no recorded event is missed.

use atomicity_core::{LogTap, MetricsRegistry};
use atomicity_lint::{Certificate, OnlineCertifier, Violation};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the certifier thread produced once the stream was drained.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The final certificate; its method names the branch that decided
    /// it.
    pub certificate: Certificate,
    /// Every violation flagged, in stream order, including any found only
    /// at conclusion time.
    pub violations: Vec<Violation>,
    /// Events consumed from the tap.
    pub observed: u64,
    /// High-water mark of retained operations/events.
    pub peak_retained: usize,
}

/// Handle to a running certifier thread; dropped handles detach (the
/// thread keeps pumping until its tap runs dry after a stop request, so
/// always prefer [`OnlineHandle::finish`]).
pub struct OnlineHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<OnlineOutcome>,
}

impl OnlineHandle {
    /// Signals the pump to stop once the tap is drained, waits for it,
    /// and returns the outcome.
    ///
    /// Call this *after* the workload has quiesced (no more events will
    /// be recorded): the pump drains every pending shard buffer before
    /// concluding, so the certificate covers the complete stream.
    pub fn finish(self) -> OnlineOutcome {
        self.stop.store(true, Ordering::Release);
        self.join.join().expect("certifier thread panicked")
    }

    /// Requests a stop without waiting (pair with
    /// [`OnlineHandle::finish`] or drop).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Spawns the certifier pump over `tap`, feeding `cert` and publishing
/// progress to `metrics`. `poll` is how long the pump sleeps when a poll
/// finds the tap empty; polls that find events loop immediately.
pub fn spawn(
    mut tap: LogTap,
    mut cert: OnlineCertifier,
    metrics: MetricsRegistry,
    poll: Duration,
) -> OnlineHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("atomicity-certify".into())
        .spawn(move || {
            loop {
                // Read the flag before polling: a stop observed here
                // happened before any event recorded after the final
                // drain below, so nothing recorded pre-stop is missed.
                let stopping = stop2.load(Ordering::Acquire);
                let batch = tap.poll(|stamp, event| {
                    cert.observe(stamp, &event);
                });
                if batch > 0 {
                    metrics.certifier_progress(batch as u64, cert.retained() as u64);
                    continue;
                }
                if stopping && tap.pending_len() == 0 {
                    break;
                }
                std::thread::sleep(poll);
            }
            let observed = cert.observed();
            let peak_retained = cert.peak_retained();
            metrics.certifier_progress(0, peak_retained as u64);
            let (certificate, violations) = cert.finish();
            OnlineOutcome {
                certificate,
                violations,
                observed,
                peak_retained,
            }
        })
        .expect("spawn certifier thread");
    OnlineHandle { stop, join }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_core::HistoryLog;
    use atomicity_lint::{Property, Verdict};
    use atomicity_spec::paper;
    use atomicity_spec::{op, ActivityId, Event, Value};

    #[test]
    fn pump_certifies_a_concurrently_recorded_stream() {
        let log = Arc::new(HistoryLog::with_shards(4));
        let tap = log.tap_retiring();
        let cert = OnlineCertifier::new(Property::Dynamic, paper::set_system(), None);
        let metrics = MetricsRegistry::new();
        let handle = spawn(tap, cert, metrics.clone(), Duration::from_millis(1));

        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let a = ActivityId::new(t * 1_000 + i + 1);
                        let x = paper::X;
                        log.record(Event::invoke(a, x, op("insert", [i64::from(a.raw())])));
                        log.record(Event::respond(a, x, Value::ok()));
                        log.record(Event::commit(a, x));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let outcome = handle.finish();
        assert_eq!(outcome.observed, 4 * 50 * 3);
        assert_eq!(outcome.certificate.committed, 4 * 50);
        assert!(
            matches!(
                outcome.certificate.verdict,
                Verdict::Certified | Verdict::Unknown(_)
            ),
            "disjoint inserts never refute: {}",
            outcome.certificate
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.certifier_observed, 4 * 50 * 3);
        assert_eq!(snap.certifier_retained_peak, outcome.peak_retained as u64);
    }
}
