//! Deciding commutativity from a sequential specification.
//!
//! The conventional protocols (§5.1) need a state-independent
//! commutativity relation. Writing those tables by hand is error-prone —
//! and the paper's §6 remark ("the locking protocols discussed earlier
//! will be more than adequate as implementations of dynamic atomicity")
//! presumes you *have* one. This module holds the primitives a table is
//! derived with: a bounded enumeration of reachable states
//! ([`sample_states`]) and the per-state predicate ([`commute_in_state`]:
//! executing two operations in either order yields the same result pairs
//! and the same reachable state sets). `atomicity-lint` audits the
//! hand-written tables and synthesizes the generated ones from them; the
//! tests here compare the predicate to [`crate::bank_commutativity`] etc.
//! on their respective domains.

use atomicity_spec::{OpResult, Operation, SequentialSpec, Value};
use std::collections::BTreeSet;

/// The result of enumerating reachable states breadth-first: the states in
/// discovery order, plus how many *distinct* discovered states were
/// discarded because the `max_states` cap was reached. `truncated == 0`
/// means the enumeration is exhaustive for the requested depth, so verdicts
/// drawn from `states` are complete rather than sampled.
#[derive(Debug, Clone)]
pub struct StateSample<S> {
    /// The explored states, initial state first, in breadth-first order.
    pub states: Vec<S>,
    /// Distinct discovered states cut by `max_states` (0 = exhaustive).
    pub truncated: usize,
}

/// Enumerates states reachable from the initial state by applying up to
/// `depth` operations drawn from `universe` (breadth-first, deduplicated
/// through an ordered set, capped at `max_states`).
///
/// The returned [`StateSample::truncated`] count tells callers whether the
/// enumeration was cut short by the cap — a non-zero value means derived
/// verdicts are sampling-based, not exhaustive.
pub fn sample_states<S: SequentialSpec>(
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

/// All result-pair outcomes of running `p` then `q` from `state`, as a
/// canonically ordered list of `(result-of-p-first, result-of-q-second)`
/// pairs. Exposed so the `atomicity-lint` conflict-table audit can embed
/// the two orders' outcome lists in its counterexample certificates.
pub fn ordered_outcomes<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    p: &Operation,
    q: &Operation,
) -> Vec<(Value, Value)> {
    let mut outcomes = Vec::new();
    for (vp, sp) in spec.step(state, p) {
        for (vq, _) in spec.step(&sp, q) {
            let pair = (vp.clone(), vq);
            if !outcomes.contains(&pair) {
                outcomes.push(pair);
            }
        }
    }
    outcomes.sort();
    outcomes
}

/// Whether `p` and `q` commute in the single `state`: both orders achieve
/// the same (result-of-p, result-of-q) pairs, and for each matching result
/// pair the reachable final-state sets coincide. This is the per-state
/// predicate the conflict-table audit counts and certifies over.
pub fn commute_in_state<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    p: &Operation,
    q: &Operation,
) -> bool {
    let pq = ordered_outcomes(spec, state, p, q);
    let qp: Vec<(Value, Value)> = ordered_outcomes(spec, state, q, p)
        .into_iter()
        .map(|(vq, vp)| (vp, vq))
        .collect();
    let mut qp_sorted = qp;
    qp_sorted.sort();
    if pq != qp_sorted {
        return false;
    }
    // Result pairs match; final states must too (under each pair).
    for (vp, vq) in &pq {
        let after_pq = replay_pair(spec, state, p, vp, q, vq);
        let after_qp = replay_pair(spec, state, q, vq, p, vp);
        if !same_state_set(&after_pq, &after_qp) {
            return false;
        }
    }
    true
}

fn replay_pair<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    first: &Operation,
    first_value: &Value,
    second: &Operation,
    second_value: &Value,
) -> Vec<S::State> {
    let ops: Vec<OpResult> = vec![
        (first.clone(), first_value.clone()),
        (second.clone(), second_value.clone()),
    ];
    spec.replay(state, &ops)
}

/// Whether two replay frontiers are the same non-empty set of states. An
/// empty frontier means the recorded results were not replayable in that
/// order, which never counts as agreement.
pub fn same_state_set<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    !a.is_empty()
        && a.len() == b.len()
        && a.iter().all(|x| b.contains(x))
        && b.iter().all(|x| a.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::op;
    use atomicity_spec::specs::{BankAccountSpec, FifoQueueSpec, IntSetSpec, SemiqueueSpec};

    /// `p` and `q` commute in every state reachable through `universe`
    /// within `depth` steps (capped at `max_states`).
    fn commute_everywhere<S: SequentialSpec>(
        spec: &S,
        universe: &[Operation],
        depth: usize,
        max_states: usize,
        p: &Operation,
        q: &Operation,
    ) -> bool
    where
        S::State: Ord,
    {
        sample_states(spec, universe, depth, max_states)
            .states
            .iter()
            .all(|s| commute_in_state(spec, s, p, q))
    }

    #[test]
    fn bank_table_matches_hand_written_shape() {
        let spec = BankAccountSpec::new();
        let universe = vec![
            op("deposit", [5]),
            op("deposit", [3]),
            op("withdraw", [5]),
            op("withdraw", [3]),
            op("balance", [] as [i64; 0]),
        ];
        let commutes = |p, q| commute_everywhere(&spec, &universe, 4, 128, &p, &q);
        // Deposits commute with deposits.
        assert!(commutes(op("deposit", [5]), op("deposit", [3])));
        // Withdraws do not commute with withdraws or deposits (the §5.1
        // counterexample states are reachable).
        assert!(!commutes(op("withdraw", [5]), op("withdraw", [3])));
        assert!(!commutes(op("deposit", [5]), op("withdraw", [3])));
        // Balance conflicts with mutators, commutes with itself.
        assert!(!commutes(op("balance", [] as [i64; 0]), op("deposit", [5])));
        assert!(commutes(
            op("balance", [] as [i64; 0]),
            op("balance", [] as [i64; 0])
        ));
    }

    #[test]
    fn set_table_distinguishes_elements() {
        let spec = IntSetSpec::new();
        let universe = vec![
            op("insert", [1]),
            op("insert", [2]),
            op("member", [1]),
            op("delete", [1]),
        ];
        let commutes = |p, q| commute_everywhere(&spec, &universe, 3, 128, &p, &q);
        assert!(commutes(op("insert", [1]), op("insert", [2])));
        assert!(commutes(op("insert", [2]), op("member", [1])));
        assert!(!commutes(op("insert", [1]), op("member", [1])));
        assert!(!commutes(op("insert", [1]), op("delete", [1])));
        // Same-element inserts are idempotent and commute.
        assert!(commutes(op("insert", [1]), op("insert", [1])));
    }

    #[test]
    fn queue_enqueues_do_not_commute_but_semiqueue_enqs_do() {
        let universe = vec![op("enqueue", [1]), op("enqueue", [2])];
        // §5.1: enqueue(1) does not commute with enqueue(2) — the final
        // queue orders differ.
        assert!(!commute_everywhere(
            &FifoQueueSpec::new(),
            &universe,
            2,
            64,
            &universe[0],
            &universe[1]
        ));

        let universe = vec![op("enq", [1]), op("enq", [2])];
        // The semiqueue's multiset state makes them commute — the
        // non-determinism of `deq` is what buys this.
        assert!(commute_everywhere(
            &SemiqueueSpec::new(),
            &universe,
            2,
            64,
            &universe[0],
            &universe[1]
        ));
    }

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
