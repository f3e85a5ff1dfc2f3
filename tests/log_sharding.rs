//! Properties of the sharded history recorder: concurrent multi-threaded
//! recording must lose nothing, duplicate nothing, and merge into exactly
//! the order of the sequence stamps handed out at record time — the
//! faithful-linearization contract every checker in the test suite leans
//! on.

use atomicity::core::HistoryLog;
use atomicity::spec::{ActivityId, Event, ObjectId};
use proptest::prelude::*;

/// Identity of one recorded event, recoverable from the merged history:
/// thread `t`'s `i`-th event carries activity id `t * 10_000 + i`.
fn tag(thread: usize, i: usize) -> ActivityId {
    ActivityId::new((thread * 10_000 + i) as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concurrent recording from N threads: the snapshot equals the
    /// stamp-sorted union of what the threads recorded.
    #[test]
    fn snapshot_is_the_stamp_sorted_union(
        counts in prop::collection::vec(1..40usize, 2..7),
        shards in 1..24usize,
    ) {
        let log = HistoryLog::with_shards(shards);
        let mut handles = Vec::new();
        for (t, &n) in counts.iter().enumerate() {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                (0..n)
                    .map(|i| (log.record(Event::commit(tag(t, i), ObjectId::new(1))), t, i))
                    .collect::<Vec<(u64, usize, usize)>>()
            }));
        }
        let mut recorded: Vec<(u64, usize, usize)> = Vec::new();
        for h in handles {
            recorded.extend(h.join().unwrap());
        }
        let total: usize = counts.iter().sum();

        // No loss, no duplication: stamps are unique and the snapshot
        // holds exactly one event per record call.
        let mut stamps: Vec<u64> = recorded.iter().map(|(s, _, _)| *s).collect();
        stamps.sort_unstable();
        stamps.dedup();
        // Any shortfall here means duplicate stamps were handed out.
        prop_assert_eq!(stamps.len(), total);
        let h = log.snapshot();
        prop_assert_eq!(h.len(), total);

        // Order = stamp order: sorting what the threads got back by stamp
        // must reproduce the merged history exactly.
        recorded.sort_unstable_by_key(|(s, _, _)| *s);
        for (event, (_, t, i)) in h.events().iter().zip(&recorded) {
            prop_assert_eq!(event.activity, tag(*t, *i));
        }
    }

    /// `record_all` batches stay contiguous in the merged history even
    /// under concurrent recording from other threads.
    #[test]
    fn record_all_batches_stay_contiguous(
        batches in prop::collection::vec(1..6usize, 2..6),
    ) {
        let log = HistoryLog::new();
        let mut handles = Vec::new();
        for (t, &n) in batches.iter().enumerate() {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let events: Vec<Event> =
                    (0..n).map(|i| Event::commit(tag(t, i), ObjectId::new(1))).collect();
                (log.record_all(events), t, n)
            }));
        }
        let mut ranges = Vec::new();
        for h in handles {
            ranges.push(h.join().unwrap());
        }
        let h = log.snapshot();
        prop_assert_eq!(h.len(), batches.iter().sum::<usize>());
        for (range, t, n) in ranges {
            prop_assert_eq!(range.end - range.start, n as u64);
            // The batch occupies positions range.start..range.end of the
            // merged history, in intra-batch order: nothing interleaved.
            for i in 0..n {
                let event = &h.events()[(range.start as usize) + i];
                prop_assert_eq!(event.activity, tag(t, i));
            }
        }
    }

    /// Shard count is a performance knob, not a semantics knob: for any
    /// single-threaded script, every shard count yields the same history.
    #[test]
    fn shard_count_does_not_change_the_history(
        ids in prop::collection::vec(0..50u32, 1..30),
        shards in 1..24usize,
    ) {
        let sharded = HistoryLog::with_shards(shards);
        let coarse = HistoryLog::with_shards(1);
        for &id in &ids {
            let e = Event::commit(ActivityId::new(id), ObjectId::new(1));
            sharded.record(e.clone());
            coarse.record(e);
        }
        prop_assert_eq!(sharded.snapshot(), coarse.snapshot());
    }
}
