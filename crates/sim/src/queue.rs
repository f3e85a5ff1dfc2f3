//! The deterministic discrete-event queue.

use crate::message::SimEvent;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: fires at `time`; ties break by insertion sequence,
/// so runs are fully deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Simulated time (microseconds) at which the event fires.
    pub time: u64,
    /// Insertion sequence number (tie-breaker).
    pub seq: u64,
    /// The payload.
    pub event: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at absolute `time`.
    pub fn schedule(&mut self, time: u64, event: SimEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::ActivityId;

    fn ev(txn: u32) -> SimEvent {
        SimEvent::TxnTimeout(ActivityId::new(txn))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, ev(3));
        q.schedule(10, ev(1));
        q.schedule(20, ev(2));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.time)).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, ev(1));
        q.schedule(5, ev(2));
        q.schedule(5, ev(3));
        let ids: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|s| match s.event {
                SimEvent::TxnTimeout(txn) => txn.raw(),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ev(1));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
