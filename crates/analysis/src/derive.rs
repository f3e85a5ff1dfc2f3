//! Bounded enumeration of a specification's reachable states — the state
//! space [`crate::synth`] decides forward commutativity over.

use atomicity_spec::{Operation, SequentialSpec};
use std::collections::BTreeSet;

/// The result of enumerating reachable states breadth-first: the states in
/// discovery order, plus how many *distinct* discovered states were
/// discarded because the `max_states` cap was reached. `truncated == 0`
/// means the enumeration is exhaustive for the requested depth, so verdicts
/// drawn from `states` are complete rather than sampled.
#[derive(Debug, Clone)]
pub(crate) struct StateSample<S> {
    /// The explored states, initial state first, in breadth-first order.
    pub(crate) states: Vec<S>,
    /// Distinct discovered states cut by `max_states` (0 = exhaustive).
    pub(crate) truncated: usize,
}

/// Enumerates states reachable from the initial state by applying up to
/// `depth` operations drawn from `universe` (breadth-first, deduplicated
/// through an ordered set, capped at `max_states`).
///
/// The returned [`StateSample::truncated`] count tells callers whether the
/// enumeration was cut short by the cap — a non-zero value means derived
/// verdicts are sampling-based, not exhaustive.
pub(crate) fn sample_states<S: SequentialSpec>(
    spec: &S,
    universe: &[Operation],
    depth: usize,
    max_states: usize,
) -> StateSample<S::State>
where
    S::State: Ord,
{
    let initial = spec.initial();
    let mut seen: BTreeSet<S::State> = BTreeSet::new();
    seen.insert(initial.clone());
    let mut states: Vec<S::State> = vec![initial.clone()];
    let mut frontier: Vec<S::State> = vec![initial];
    let mut truncated = 0usize;
    let expand = |frontier: &[S::State], seen: &mut BTreeSet<S::State>| -> Vec<S::State> {
        let mut next = Vec::new();
        for s in frontier {
            for op in universe {
                for (_, s2) in spec.step(s, op) {
                    if seen.insert(s2.clone()) {
                        next.push(s2);
                    }
                }
            }
        }
        next
    };
    for level in 0..depth {
        let mut next = expand(&frontier, &mut seen);
        if next.is_empty() {
            break;
        }
        let room = max_states.saturating_sub(states.len());
        if next.len() >= room {
            // The cap stops the walk here. Count the states cut at this
            // level, then probe the surviving frontier one level deeper
            // (count only) so `truncated == 0` really means exhaustive.
            truncated += next.len() - room;
            next.truncate(room);
            states.extend(next.iter().cloned());
            if level + 1 < depth {
                truncated += expand(&next, &mut seen).len();
            }
            break;
        }
        states.extend(next.iter().cloned());
        frontier = next;
    }
    StateSample { states, truncated }
}

/// Whether two replay frontiers are the same non-empty set of states. An
/// empty frontier means the recorded results were not replayable in that
/// order, which never counts as agreement.
pub(crate) fn same_state_set<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    !a.is_empty()
        && a.len() == b.len()
        && a.iter().all(|x| b.contains(x))
        && b.iter().all(|x| a.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::op;
    use atomicity_spec::specs::IntSetSpec;

    #[test]
    fn sampling_respects_caps_and_reports_truncation() {
        let sample = sample_states(
            &IntSetSpec::new(),
            &[op("insert", [1]), op("insert", [2])],
            5,
            3,
        );
        assert!(sample.states.len() <= 3);
        // {}, {1}, {2}, {1,2} are reachable: the cap of 3 cut at least one.
        assert!(sample.truncated > 0, "cap of 3 must report cut states");
        let none = sample_states(&IntSetSpec::new(), &[], 5, 10);
        assert_eq!(
            none.states.len(),
            1,
            "only the initial state without a universe"
        );
        assert_eq!(none.truncated, 0);
    }

    #[test]
    fn uncapped_enumeration_is_exhaustive_and_reports_zero_truncation() {
        let sample = sample_states(
            &IntSetSpec::new(),
            &[op("insert", [1]), op("insert", [2]), op("delete", [1])],
            4,
            1024,
        );
        // Subsets of {1,2}: exactly 4 reachable states, none cut.
        assert_eq!(sample.states.len(), 4);
        assert_eq!(sample.truncated, 0);
        // No duplicates (the ordered-set frontier deduplicates).
        let mut uniq = sample.states.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), sample.states.len());
    }
}
