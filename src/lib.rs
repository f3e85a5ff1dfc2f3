//! **atomicity** — data-dependent concurrency control and recovery.
//!
//! A full implementation of Weihl, *"Data-dependent Concurrency Control
//! and Recovery"* (PODC 1983): the formal model of atomic activities, the
//! three optimal local atomicity properties (dynamic, static, hybrid) as
//! both decision procedures and online concurrency-control engines, the
//! baseline protocols the paper compares against, typed atomic abstract
//! data types, and a deterministic distributed simulation with crash
//! recovery.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! - [`spec`] — events, histories, sequential specifications, the
//!   serializability and atomicity checkers, and the paper's examples.
//! - [`core`] — the transaction manager and the three engines.
//! - [`adts`] — typed atomic ADTs (counter, set, queue, account, map,
//!   register, semiqueue).
//! - [`baselines`] — strict 2PL, commutativity-table locking, the
//!   scheduler model of Figure 5-1, and Reed's multi-version registers.
//! - [`sim`] — the discrete-event distributed substrate (guardians,
//!   two-phase commit, crashes).
//! - [`dist`] — the partitioned transaction service on that substrate:
//!   key-hash sharding, a batching 2PC coordinator, per-shard
//!   intentions logs, and dependency-logged parallel recovery.
//! - [`durable`] — the on-disk durability layer: segmented write-ahead
//!   log with CRC32 framing, group commit, fuzzy checkpointing, and the
//!   kill-based crash harness.
//! - [`analysis`] — static analysis (`atomicity-lint`): conflict-table
//!   synthesis and the hand-table diff with counterexample certificates,
//!   linear-time history certification, and the nondeterminism lint
//!   behind `experiments lint`.
//! - `bench` ([`atomicity_bench`]) — workload generators and the
//!   experiment harness that regenerates every comparison in the paper.
//!
//! # Quickstart
//!
//! ```
//! use atomicity::core::{TxnManager, Protocol, AtomicObject};
//! use atomicity::adts::AtomicAccount;
//! use atomicity::spec::ObjectId;
//!
//! let mgr = TxnManager::new(Protocol::Hybrid);
//! let acct = AtomicAccount::new(ObjectId::new(1), &mgr);
//! let t = mgr.begin();
//! acct.deposit(&t, 100)?;
//! mgr.commit(t)?;
//!
//! let audit = mgr.begin_read_only();
//! assert_eq!(acct.balance(&audit)?, 100);
//! mgr.commit(audit)?;
//! # Ok::<(), atomicity::core::TxnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atomicity_adts as adts;
pub use atomicity_baselines as baselines;
pub use atomicity_bench as bench;
pub use atomicity_core as core;
pub use atomicity_dist as dist;
pub use atomicity_durable as durable;
pub use atomicity_lint as analysis;
pub use atomicity_sim as sim;
pub use atomicity_spec as spec;
