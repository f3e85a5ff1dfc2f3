//! A partitioned multi-node transaction service with dependency-logged
//! parallel recovery.
//!
//! This crate scales the two-phase-commit core of `atomicity-sim` out to
//! a *partitioned* service: objects (integer-keyed accounts) shard across
//! N nodes by key hash ([`ShardMap`]), multi-shard transactions run the
//! core's batching coordinator ([`atomicity_sim::Coordinator`]) with a
//! service-time model on every shard, and each shard persists through
//! its own intentions-list log
//! ([`atomicity_core::recovery::IntentionsStore`]). Client traffic is
//! open-loop — "millions of users" modeled as seeded request streams
//! ([`Workload`]) — and every run is a pure function of its seed: the
//! service ([`DistService`]) is the same deterministic event loop
//! ([`atomicity_sim::Simulator`]) that drives the single-object
//! `Cluster`, so `trace_hash`/`state_digest` make any run replayable
//! bit-for-bit.
//!
//! The recovery half is the paper-facing contribution. Classical value
//! logging replays the commit log *serially* — recovery time grows with
//! log length regardless of how little of the log actually conflicts.
//! Here each commit record instead carries the transaction's read/write
//! key footprint ([`atomicity_core::KeyFootprint`], the **dependency
//! log** of Yao et al.), and recovery ([`deplog`]) builds a transaction
//! dependency graph with an edge only where footprints overlap on a key
//! *and* the operations on that key fail the **synthesized conflict
//! table** for the map ADT — Weihl's data-dependent commutativity doing
//! double duty at recovery time: two blind `adjust` increments to the
//! same account commute, so their commits replay in either order or in
//! parallel. Independent chains replay concurrently
//! ([`deplog::parallel_replay`]); the result is certified equal to the
//! serial value-log replay ([`deplog::serial_replay`]).
//!
//! # Example
//!
//! ```
//! use atomicity_dist::{DistConfig, DistService};
//!
//! let mut service = DistService::new(DistConfig {
//!     seed: 7,
//!     shards: 4,
//!     clients: 2,
//!     ticks: 5,
//!     ..DistConfig::default()
//! });
//! service.run_to_quiescence();
//! assert!(service.stats().committed > 0);
//! service.verify().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deplog;
mod kv;
mod service;
mod shard;
mod workload;

pub use deplog::{map_commutes, CommitRecord, DepGraph, DepGraphStats, RecoveryCertificate};
pub use kv::ShardKvSpec;
pub use service::{CrashPlan, DistConfig, DistService, DistStats};
pub use shard::ShardMap;
pub use workload::{Workload, WorkloadKind, LISTING_BASE};
