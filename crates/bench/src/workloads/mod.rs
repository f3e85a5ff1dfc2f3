//! Multi-threaded workload runners for the experiments.

pub mod audit;
pub mod bank;
pub mod e12;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod lamport;
pub mod queue;
pub mod recovery;
pub mod skew;
pub mod stress;

use std::time::Duration;

/// Busy-wait-free "work" inside a transaction: sleeping while holding
/// intentions/locks is what makes serialization visible in throughput.
pub(crate) fn hold(micros: u64) {
    if micros > 0 {
        std::thread::sleep(Duration::from_micros(micros));
    }
}
