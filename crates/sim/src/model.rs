//! Deterministic workload clients.
//!
//! A [`DeterministicClient`] is an open-loop workload source: the event
//! loop wakes it at **logical** instants and it returns a *description*
//! of its requests ([`ClientTurn`]) instead of submitting them, drawing
//! requests and pacing from its own split [`SimRng`] stream, so client
//! behavior never perturbs network or failure randomness.

use crate::rng::SimRng;
use std::fmt;

/// One request a client hands the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientRequest {
    /// Move `amount` from one global account to another.
    Transfer {
        /// Debited account.
        from: i64,
        /// Credited account.
        to: i64,
        /// Amount moved.
        amount: i64,
    },
    /// Submit a timestamped read-only audit of the grand total.
    Audit,
}

/// The result of one client wake-up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientTurn {
    /// Requests to submit now, in order.
    pub requests: Vec<ClientRequest>,
    /// Delay until the next wake-up; `None` ends the client.
    pub next_tick: Option<u64>,
}

/// An open-loop deterministic workload source.
pub trait DeterministicClient: fmt::Debug {
    /// Called at each scheduled wake-up with the logical time.
    fn tick(&mut self, now: u64) -> ClientTurn;

    /// Whether the client has issued everything it ever will.
    fn done(&self) -> bool;
}

/// The standard workload client: a bounded stream of random transfers
/// between random distinct accounts at random intervals, with a
/// timestamped audit every `audit_every`-th transfer. All draws come from
/// the client's own [`SimRng`] stream.
#[derive(Debug, Clone)]
pub struct TransferClient {
    rng: SimRng,
    accounts: i64,
    remaining: u32,
    sent: u32,
    amount_max: i64,
    interval_min: u64,
    interval_max: u64,
    audit_every: u32,
}

impl TransferClient {
    /// A client that will submit `transfers` transfers over the account
    /// universe `0..accounts`, pacing 200–2000 µs apart, amounts 1–25,
    /// auditing every 5th transfer.
    ///
    /// # Panics
    ///
    /// Panics if `accounts < 2` (a transfer needs two distinct accounts).
    pub fn new(rng: SimRng, accounts: i64, transfers: u32) -> Self {
        assert!(accounts >= 2, "transfers need at least two accounts");
        TransferClient {
            rng,
            accounts,
            remaining: transfers,
            sent: 0,
            amount_max: 25,
            interval_min: 200,
            interval_max: 2_000,
            audit_every: 5,
        }
    }

    /// Overrides the audit cadence; `0` disables audits (builder style).
    pub fn with_audit_every(mut self, every: u32) -> Self {
        self.audit_every = every;
        self
    }
}

impl DeterministicClient for TransferClient {
    fn tick(&mut self, _now: u64) -> ClientTurn {
        if self.remaining == 0 {
            return ClientTurn::default();
        }
        self.remaining -= 1;
        self.sent += 1;
        let from = self.rng.range(0, (self.accounts - 1) as u64) as i64;
        let mut to = self.rng.range(0, (self.accounts - 2) as u64) as i64;
        if to >= from {
            to += 1;
        }
        let amount = self.rng.range(1, self.amount_max as u64) as i64;
        let mut requests = vec![ClientRequest::Transfer { from, to, amount }];
        if self.audit_every > 0 && self.sent.is_multiple_of(self.audit_every) {
            requests.push(ClientRequest::Audit);
        }
        let next_tick =
            (self.remaining > 0).then(|| self.rng.range(self.interval_min, self.interval_max));
        ClientTurn {
            requests,
            next_tick,
        }
    }

    fn done(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_client_issues_exactly_its_budget() {
        let mut c = TransferClient::new(SimRng::new(5), 16, 7).with_audit_every(3);
        let mut transfers = 0;
        let mut audits = 0;
        let mut now = 0;
        loop {
            let turn = c.tick(now);
            for r in &turn.requests {
                match r {
                    ClientRequest::Transfer { from, to, amount } => {
                        assert!((0..16).contains(from));
                        assert!((0..16).contains(to));
                        assert_ne!(from, to);
                        assert!(*amount >= 1);
                        transfers += 1;
                    }
                    ClientRequest::Audit => audits += 1,
                }
            }
            match turn.next_tick {
                Some(d) => now += d,
                None => break,
            }
        }
        assert_eq!(transfers, 7);
        assert_eq!(audits, 2, "audits on the 3rd and 6th transfers");
        assert!(c.done());
        assert_eq!(c.tick(now), ClientTurn::default(), "done clients idle");
    }

    #[test]
    fn transfer_client_is_deterministic() {
        let run = || {
            let mut c = TransferClient::new(SimRng::new(9), 8, 20);
            let mut log = Vec::new();
            loop {
                let turn = c.tick(0);
                log.push(turn.clone());
                if turn.next_tick.is_none() {
                    break;
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
