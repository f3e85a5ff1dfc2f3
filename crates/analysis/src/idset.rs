//! Interval-coalescing sets of activity identifiers.
//!
//! The monitor must remember *every* committed (and aborted) activity for
//! the lifetime of a run — membership drives the `precedes` bookkeeping
//! and the final certificate's `committed` count — but engines allocate
//! activity identifiers from a dense counter, so the sets it stores are
//! unions of a handful of contiguous runs. An [`IdSet`] stores them as
//! half-open interval endpoints instead of individual members: `O(runs)`
//! memory rather than `O(activities)`, which is what keeps the long-horizon
//! e16 run's retained footprint flat while it observes millions of commits.

use std::collections::BTreeMap;

/// A set of `u32` identifiers stored as coalesced inclusive intervals.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    /// Interval start → inclusive interval end; intervals are disjoint and
    /// non-adjacent (adjacent inserts coalesce).
    runs: BTreeMap<u32, u32>,
    len: usize,
}

impl IdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u32) -> bool {
        self.runs
            .range(..=id)
            .next_back()
            .is_some_and(|(_, &end)| id <= end)
    }

    /// Inserts `id`, coalescing with adjacent intervals. Returns whether
    /// the set changed (i.e. `id` was not already a member).
    pub fn insert(&mut self, id: u32) -> bool {
        if self.contains(id) {
            return false;
        }
        self.len += 1;
        // Extend the interval ending at id - 1, if any.
        let left = self
            .runs
            .range(..=id)
            .next_back()
            .map(|(&s, &e)| (s, e))
            .filter(|&(_, e)| id > 0 && e == id - 1);
        // Absorb the interval starting at id + 1, if any.
        let right = self
            .runs
            .get(&(id.saturating_add(1)))
            .copied()
            .filter(|_| id < u32::MAX);
        match (left, right) {
            (Some((ls, _)), Some(re)) => {
                self.runs.remove(&(id + 1));
                self.runs.insert(ls, re);
            }
            (Some((ls, _)), None) => {
                self.runs.insert(ls, id);
            }
            (None, Some(re)) => {
                self.runs.remove(&(id + 1));
                self.runs.insert(id, re);
            }
            (None, None) => {
                self.runs.insert(id, id);
            }
        }
        true
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The number of stored intervals — the set's actual memory footprint.
    #[cfg(test)]
    pub fn intervals(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_dense_ranges_into_one_interval() {
        let mut s = IdSet::new();
        for id in 0..10_000u32 {
            assert!(s.insert(id));
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.intervals(), 1);
        assert!(s.contains(0) && s.contains(9_999) && !s.contains(10_000));
    }

    #[test]
    fn coalesces_out_of_order_and_gap_inserts() {
        let mut s = IdSet::new();
        for id in [5, 3, 9, 4, 8, 10, 1] {
            assert!(s.insert(id));
        }
        assert!(!s.insert(4), "duplicate insert reports no change");
        assert_eq!(s.len(), 7);
        // {1}, {3..=5}, {8..=10}
        assert_eq!(s.intervals(), 3);
        assert!(!s.contains(2) && !s.contains(6) && !s.contains(7));
        s.insert(2);
        s.insert(6);
        s.insert(7);
        assert_eq!(s.intervals(), 1);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn boundary_values() {
        let mut s = IdSet::new();
        s.insert(u32::MAX);
        s.insert(0);
        assert!(s.contains(u32::MAX) && s.contains(0));
        s.insert(u32::MAX - 1);
        assert_eq!(s.intervals(), 2);
        assert_eq!(s.len(), 3);
    }
}
