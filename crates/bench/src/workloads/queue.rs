//! E2 — the §5.1 FIFO queue and the scheduler-model limitation.
//!
//! Concurrent producer transactions each enqueue a batch; a drainer then
//! dequeues everything. Dynamic atomicity admits the producers'
//! interleaved enqueues (each producer's batch stays contiguous in every
//! serialization); commutativity locking and 2PL serialize producers
//! (`enqueue(1)` does not commute with `enqueue(2)`).
//!
//! The checker-level half of E2 — the paper's literal history being
//! dynamic atomic yet unproducible by the Figure 5-1 scheduler model — is
//! asserted by [`paper_history_verdicts`] (and its test) and printed by
//! the `experiments` binary.

use crate::engines::Engine;
use crate::workloads::hold;
use atomicity_baselines::SchedulerModel;
use atomicity_spec::specs::FifoQueueSpec;
use atomicity_spec::{atomicity::is_dynamic_atomic, op, paper, ObjectId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of the E2 workload.
#[derive(Debug, Clone)]
pub struct QueueParams {
    /// Concurrent producer threads.
    pub producers: usize,
    /// Batches (transactions) per producer.
    pub txns_per_producer: usize,
    /// Enqueues per batch.
    pub batch: usize,
    /// Simulated in-transaction work (µs).
    pub hold_micros: u64,
}

impl Default for QueueParams {
    fn default() -> Self {
        QueueParams {
            producers: 4,
            txns_per_producer: 10,
            batch: 4,
            hold_micros: 200,
        }
    }
}

/// Measured outcome of one E2 run.
#[derive(Debug, Clone)]
pub struct QueueOutcome {
    /// The engine measured.
    pub engine: Engine,
    /// Wall-clock duration of the producer phase.
    pub wall: Duration,
    /// Producer transactions committed.
    pub committed: u64,
    /// Producer transactions aborted.
    pub aborted: u64,
    /// Items drained afterwards (integrity check).
    pub drained: u64,
    /// Committed producer transactions per second.
    pub throughput: f64,
}

/// Runs the E2 producer workload for one engine, then drains.
pub fn run_queue(engine: Engine, params: &QueueParams) -> QueueOutcome {
    let handle = engine.builder().build();
    let mgr = handle.manager().clone();
    let queue = handle.queue(ObjectId::new(1));

    let start = Instant::now();
    let mut handles = Vec::new();
    for p in 0..params.producers {
        let mgr = mgr.clone();
        let queue = Arc::clone(&queue);
        let params = params.clone();
        handles.push(std::thread::spawn(move || {
            let (mut committed, mut aborted) = (0u64, 0u64);
            'txns: for t in 0..params.txns_per_producer {
                let txn = mgr.begin();
                for i in 0..params.batch {
                    let item = (p * 1_000_000 + t * 1_000 + i) as i64;
                    if queue.invoke(&txn, op("enqueue", [item])).is_err() {
                        mgr.abort(txn);
                        aborted += 1;
                        continue 'txns;
                    }
                    hold(params.hold_micros);
                }
                if mgr.commit(txn).is_ok() {
                    committed += 1;
                } else {
                    aborted += 1;
                }
            }
            (committed, aborted)
        }));
    }
    let (mut committed, mut aborted) = (0u64, 0u64);
    for h in handles {
        let (c, a) = h.join().expect("producer panicked");
        committed += c;
        aborted += a;
    }
    let wall = start.elapsed();

    // Drain everything in one transaction; count items.
    let mut drained = 0u64;
    let txn = mgr.begin();
    while let Ok(v) = queue.invoke(&txn, op("dequeue", [] as [i64; 0])) {
        if v == atomicity_spec::Value::Nil {
            break;
        }
        drained += 1;
    }
    mgr.commit(txn).expect("drain commit");

    QueueOutcome {
        engine,
        wall,
        committed,
        aborted,
        drained,
        throughput: committed as f64 / wall.as_secs_f64(),
    }
}

/// The checker-level claim of E2: the paper's interleaved-enqueue history
/// is dynamic atomic, yet no scheduler-model execution can produce it.
/// Returns `(dynamic_atomic, scheduler_can_produce)`.
pub fn paper_history_verdicts() -> (bool, bool) {
    let h = paper::queue_interleaved_enqueues();
    let spec = paper::queue_system();
    let storage = SchedulerModel::new(paper::X, FifoQueueSpec::new());
    (is_dynamic_atomic(&h, &spec), storage.can_produce(&h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(engine: Engine) -> QueueOutcome {
        run_queue(
            engine,
            &QueueParams {
                producers: 3,
                txns_per_producer: 4,
                batch: 3,
                hold_micros: 100,
            },
        )
    }

    #[test]
    fn all_engines_preserve_every_item() {
        for engine in Engine::ALL {
            let out = small(engine);
            assert_eq!(out.committed + out.aborted, 12, "{engine}");
            assert_eq!(
                out.drained,
                out.committed * 3,
                "{engine}: items lost or invented"
            );
        }
    }

    #[test]
    fn scheduler_model_rejects_paper_history() {
        let (dynamic_ok, scheduler_ok) = paper_history_verdicts();
        assert!(dynamic_ok, "the paper's history is dynamic atomic");
        assert!(
            !scheduler_ok,
            "the scheduler model must be unable to produce it"
        );
    }

    #[test]
    fn dynamic_producers_outpace_locked_producers() {
        let p = QueueParams {
            producers: 4,
            txns_per_producer: 5,
            batch: 3,
            hold_micros: 2_000,
        };
        let dynamic = run_queue(Engine::Dynamic, &p);
        let locked = run_queue(Engine::TwoPhaseLocking, &p);
        assert!(
            dynamic.wall < locked.wall,
            "dynamic {:?} vs 2PL {:?}",
            dynamic.wall,
            locked.wall
        );
    }
}
