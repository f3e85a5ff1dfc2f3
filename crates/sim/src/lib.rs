//! Deterministic discrete-event simulation of a distributed transaction
//! system — the substitute for the paper's (never publicly released)
//! Argus guardian runtime.
//!
//! The paper's atomicity definitions are motivated by *online*,
//! *distributed* systems with real failures (§1, §5.1, §6). This crate
//! provides that substrate: one two-phase-commit core ([`Simulator`]) —
//! a batching [`Coordinator`] that can crash, participant [`Node`]s
//! behind intentions-list recoverable stores
//! ([`atomicity_core::recovery::IntentionsStore`]), and a
//! fault-injecting [`Network`] (latency jitter, loss, bounded
//! duplication, reordering, and scheduled [`PartitionWindow`]s). The
//! [`Cluster`] runs it one transaction per message over shards of bank
//! accounts, with **crash injection at any event boundary** — scheduled
//! or via [`MttfConfig`] failure clocks — and recovery with in-doubt
//! resolution; the partitioned service of `atomicity-dist` runs the same
//! core batched.
//!
//! Every run is a pure function of [`SimConfig::seed`]: randomness comes
//! from split [`SimRng`] streams (one per component, so one component's
//! draws never shift another's), time is logical, and all state lives in
//! ordered maps. [`Cluster::trace_hash`] and [`Cluster::state_digest`]
//! make the determinism checkable; a failing seed is a complete
//! reproducer. Invariants ([`InvariantChecker`]) run at configurable
//! checkpoints inside the loop, including the streaming hybrid
//! atomicity certifier from `atomicity-certify`
//! ([`OnlineCertifierCheck`]), which observes only the events recorded
//! since the previous checkpoint instead of re-certifying from scratch.
//!
//! Experiment E6 sweeps a crash over every event of a transfer and checks
//! that the all-or-nothing guarantee — `perm(h)` containing only whole
//! transactions — survives every crash point. Experiment E12 sweeps
//! *seeds*: thousands of full-fault-matrix runs, shrinking any failure to
//! a minimal reproducer.
//!
//! # Example
//!
//! ```
//! use atomicity_sim::{Cluster, SimConfig};
//!
//! let mut cluster = Cluster::new(SimConfig::default());
//! let txn = cluster.submit_transfer(0, 5, 25);
//! cluster.run_to_quiescence();
//! assert_eq!(cluster.decision(txn), Some(true));
//! cluster.verify_atomicity().unwrap();
//! cluster.verify_conservation().unwrap();
//! ```
//!
//! # Reproducing a failure by seed
//!
//! ```
//! use atomicity_sim::{Cluster, SimConfig, StandardChecker, TransferClient};
//!
//! let mut cluster = Cluster::new(SimConfig {
//!     seed: 0xBAD5EED,
//!     drop_probability: 0.1,
//!     record_trace: true,
//!     ..SimConfig::default()
//! });
//! cluster.add_checker(Box::new(StandardChecker));
//! let rng = cluster.client_rng(0);
//! let accounts = cluster.account_count();
//! cluster.add_client(Box::new(TransferClient::new(rng, accounts, 10)));
//! cluster.run_events(50_000);
//! cluster.heal();
//! // Same seed ⇒ same trace_hash ⇒ same violations (if any), every time.
//! println!("trace hash {:#x}", cluster.trace_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod coordinator;
mod invariant;
mod message;
mod model;
mod network;
mod node;
mod partition;
mod queue;
mod rng;
mod simulator;

pub use cluster::{Cluster, MttfConfig, SimConfig};
pub use coordinator::Coordinator;
pub use invariant::{InvariantChecker, OnlineCertifierCheck, StandardChecker, Violation};
pub use message::{Endpoint, Message, NodeId, SimEvent};
pub use model::{ClientRequest, ClientTurn, DeterministicClient, TransferClient};
pub use network::{FaultConfig, NetStats, Network};
pub use node::Node;
pub use partition::{PartitionSchedule, PartitionWindow};
pub use queue::{EventQueue, Scheduled};
pub use rng::{fnv1a, SimRng};
pub use simulator::{ProtocolParams, SimStats, Simulator};
