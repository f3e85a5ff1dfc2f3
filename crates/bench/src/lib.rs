//! Workload generators and the experiment harness.
//!
//! Each experiment module reproduces one comparison from the paper (see
//! `DESIGN.md` §3 for the index):
//!
//! | Exp | Paper source | Module |
//! |-----|--------------|--------|
//! | E1  | §5.1 bank account vs. locking | [`workloads::bank`] |
//! | E2  | §5.1 FIFO queue / Figure 5-1 scheduler model | [`workloads::queue`] |
//! | E3  | §4.2.3 long read-only audits | [`workloads::audit`] |
//! | E4  | §4.3.3 Lamport's banking problem | [`workloads::lamport`] |
//! | E5  | §4.2.3 incomparability of the three properties | [`enumerate`] |
//! | E6  | §1/§3 online recoverability under crashes | [`workloads::recovery`] |
//! | E7  | §4.2.3 timestamp (clock-skew) sensitivity | [`workloads::skew`] |
//! | E8  | recorder contention under threaded stress | [`workloads::stress`] |
//! | E10 | observability: latency percentiles + abort taxonomy | [`report`] |
//! | E12 | deterministic simulation: seed sweep + failure shrinking | [`workloads::e12`] |
//! | E14 | contended admission: synthesized table vs replay-only reference | [`workloads::e14`] |
//! | E15 | partitioned scale-out + dependency-logged parallel recovery | [`workloads::e15`] |
//! | E16 | online streaming certifier: equality, memory bound, overhead | [`workloads::e16`] |
//!
//! The `experiments` binary prints every table:
//!
//! ```text
//! cargo run -p atomicity-bench --bin experiments --release -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engines;
pub mod enumerate;
pub mod explore;
pub mod histfile;
pub mod report;
pub mod table;
pub mod workloads;

pub use engines::{synthesized_suite, CertifyMode, Engine, EngineBuilder, EngineHandle};
pub use table::Table;
