//! # atomicity-certify
//!
//! Online atomicity certification while the workload runs: [`spawn`]
//! starts a pump thread that drains the sharded recorder's
//! [`LogTap`](atomicity_core::LogTap) into an [`OnlineCertifier`] and
//! publishes progress to the engine metrics; [`OnlineHandle::finish`]
//! drains the tap to quiescence and returns the certificate and every
//! violation flagged mid-run.
//!
//! The monitor itself lives in `atomicity-lint`, beside the certificate
//! vocabulary, because it is the one certifier: `atomicity_lint::certify`
//! runs it over a merged history. It is re-exported here for callers of
//! the pump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;

pub use atomicity_lint::OnlineCertifier;
pub use runner::{spawn, OnlineHandle, OnlineOutcome};
