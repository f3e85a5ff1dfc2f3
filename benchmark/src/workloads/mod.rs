//! The five workloads and what they share.

pub mod audit;
pub mod dist;
pub mod durable;
pub mod hot;

use crate::host;
use crate::probe::{self, Span};
use atomicity_spec::Operation;
use audit::Certify;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one trial measured. A trial builds a fresh system under test,
/// runs a frozen script against it inside [`Trial::timed`], and tears it
/// down; only the timed part counts.
#[derive(Debug, Default)]
pub struct Trial {
    pub wall_ns: u64,
    /// On-CPU time of all threads over the timed part.
    pub cpu_ns: u64,
    /// Transactions begun, committed, and aborted/refused/timed out.
    pub begun: u64,
    pub committed: u64,
    pub failed: u64,
    /// The spans the generating thread recorded (traced runs).
    pub spans: Vec<Span>,
}

impl Trial {
    /// Runs `f` on this thread with the wall and process-CPU clocks around
    /// it, recording up to `span_capacity` spans when the run is traced.
    pub fn timed<T>(span_capacity: usize, f: impl FnOnce() -> T) -> (Trial, T) {
        probe::arm(Instant::now(), span_capacity);
        let cpu = host::process_cpu_ns();
        let start = Instant::now();
        let result = f();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = host::process_cpu_ns() - cpu;
        (
            Trial {
                wall_ns,
                cpu_ns,
                spans: probe::disarm(),
                ..Trial::default()
            },
            result,
        )
    }

    pub fn commit_tps(&self) -> f64 {
        self.committed as f64 * 1e9 / self.wall_ns as f64
    }
}

/// The balance after `operation` on an account that covers every
/// withdrawal — what the scripts' closing balances are summed with.
pub fn balance_after(balance: i64, operation: &Operation) -> i64 {
    match operation.name() {
        "deposit" => balance + operation.int_arg(0).unwrap_or(0),
        "withdraw" => balance - operation.int_arg(0).unwrap_or(0),
        _ => balance,
    }
}

/// Per-layer values a workload counts itself, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// One workload: set up from a seed by its constructor, then run trial
/// by trial.
pub trait Workload {
    /// One trial on a fresh system under test. Pushes the latency (ns) of
    /// each committed update transaction to `latencies`. `Err` is an
    /// output the workload knows to be wrong.
    fn trial(&mut self, latencies: &mut Vec<u32>) -> Result<Trial, String>;

    /// The untimed verification trial: every correctness oracle of the
    /// workload.
    fn verify(&mut self) -> Result<(), String>;

    /// Latency percentiles (p50, p95) in µs that do not come from the wall
    /// clock — `dist_market` reports simulated time — or `None`.
    fn fixed_latency_us(&self) -> Option<(f64, f64)> {
        None
    }

    /// Per-layer values counted at the workload's own boundaries during
    /// the trials so far.
    fn layer_values(&self, _into: &mut LayerValues) {}
}

/// Trials and transactions per trial of a workload, frozen after tuning
/// on the reference host so that a full untraced run measures for about
/// `FULL_SECONDS`. `--seconds` scales the trial count, never the trial.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub trials: usize,
    pub txns: usize,
    /// Warm-up trials each set-up ends with (about 0.2 s of them): enough
    /// to fill the allocator's free lists and the caches, and to keep
    /// `setup_s` out of milliseconds.
    pub warmups: usize,
}

pub const NAMES: [&str; 5] = [
    "hot_interleaved",
    "spread_audit",
    "certified_audit",
    "durable_bank",
    "dist_market",
];

/// Seconds the frozen trial counts were tuned for.
pub const FULL_SECONDS: u64 = 16;

pub fn full_size(name: &str) -> Option<Size> {
    Some(match name {
        "hot_interleaved" => Size {
            trials: 880,
            txns: 1_000,
            warmups: 12,
        },
        "spread_audit" => Size {
            trials: 1080,
            txns: 4_000,
            warmups: 16,
        },
        "certified_audit" => Size {
            trials: 1040,
            txns: 2_000,
            warmups: 16,
        },
        "durable_bank" => Size {
            trials: 600,
            txns: 8_000,
            warmups: 8,
        },
        "dist_market" => Size {
            trials: 130,
            txns: 1_536,
            warmups: 2,
        },
        _ => return None,
    })
}

/// `--smoke`: the same code on a few hundred transactions.
pub fn smoke_size(name: &str) -> Option<Size> {
    full_size(name).map(|full| Size {
        trials: 3,
        txns: (full.txns / 20).max(256),
        warmups: 1,
    })
}

/// Builds the workload `name` from `seed` — everything a run does before
/// its first trial except the warm-up trial itself.
pub fn set_up(name: &str, seed: u64, txns: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hot_interleaved" => Box::new(hot::HotInterleaved::set_up(seed, txns)),
        "spread_audit" => Box::new(audit::Audit::set_up(seed, txns, Certify::Off)),
        "certified_audit" => Box::new(audit::Audit::set_up(seed, txns, Certify::Inline)),
        "durable_bank" => Box::new(durable::DurableBank::set_up(seed, txns)),
        "dist_market" => Box::new(dist::DistMarket::set_up(seed, txns)),
        _ => return None,
    })
}
