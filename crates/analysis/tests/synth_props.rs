//! Property tests of the conflict-table synthesis: every `commutes`
//! verdict a generated table hands the engines must agree with a direct
//! forward-commutativity check on randomly sampled reachable states.
//!
//! States are sampled by random walks through the specification of the
//! same length as the synthesis depth, so every state the walk can reach
//! is one the synthesis proved its verdicts over — the property failing
//! would mean the bucket generalization or the rule lookup (not the
//! bounded exploration) is wrong.

use atomicity_lint::synth::{
    bank_universe, escrow_universe, map_universe, queue_universe, semiqueue_universe, set_universe,
};
use atomicity_lint::{forward_commute_in_state, standard_syntheses, SynthConfig, SynthSuite};
use atomicity_spec::specs::{
    BankAccountSpec, EscrowCounterSpec, FifoQueueSpec, IntSetSpec, KvMapSpec, SemiqueueSpec,
};
use atomicity_spec::{Operation, SequentialSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

fn suite() -> &'static SynthSuite {
    static SUITE: OnceLock<SynthSuite> = OnceLock::new();
    SUITE.get_or_init(|| standard_syntheses(&SynthConfig::default()))
}

/// Replays a random walk from the initial state: each step applies one
/// universe operation (skipped if disabled there) and follows one of its
/// nondeterministic outcome branches.
fn random_state<S: SequentialSpec>(
    spec: &S,
    universe: &[Operation],
    walk: &[(usize, usize)],
) -> S::State {
    let mut state = spec.initial();
    for &(op_i, branch) in walk {
        let outcomes = spec.step(&state, &universe[op_i % universe.len()]);
        if !outcomes.is_empty() {
            state = outcomes[branch % outcomes.len()].1.clone();
        }
    }
    state
}

/// The property: whenever the generated table admits a pair, the pair
/// forward-commutes in the sampled state; and whenever the per-instance
/// synthesis evidence says a pair commutes everywhere, the direct check
/// agrees too.
fn check_adt<S>(
    adt: &str,
    spec: &S,
    universe: &[Operation],
    walk: &[(usize, usize)],
    i: usize,
    j: usize,
) -> Result<(), TestCaseError>
where
    S: SequentialSpec,
{
    let synth = suite().synthesis(adt).expect("adt synthesized");
    let state = random_state(spec, universe, walk);
    let p = &universe[i % universe.len()];
    let q = &universe[j % universe.len()];
    let direct = forward_commute_in_state(spec, &state, p, q);
    if synth.table.commutes(p, q) {
        prop_assert!(
            direct,
            "{adt}: table admits ({p}, {q}) but they conflict in {state:?}"
        );
    }
    if let Some(v) = synth.instance(p, q) {
        if v.commutes_everywhere() {
            prop_assert!(
                direct,
                "{adt}: instance evidence says ({p}, {q}) commute everywhere but not in {state:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bank_table_agrees_with_direct_checks(
        walk in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        check_adt("bank", &BankAccountSpec::new(), &bank_universe(), &walk, i, j)?;
    }

    #[test]
    fn queue_table_agrees_with_direct_checks(
        walk in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        check_adt("queue", &FifoQueueSpec::new(), &queue_universe(), &walk, i, j)?;
    }

    #[test]
    fn set_table_agrees_with_direct_checks(
        walk in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        check_adt("set", &IntSetSpec::new(), &set_universe(), &walk, i, j)?;
    }

    #[test]
    fn semiqueue_table_agrees_with_direct_checks(
        walk in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        check_adt("semiqueue", &SemiqueueSpec::new(), &semiqueue_universe(), &walk, i, j)?;
    }

    #[test]
    fn map_table_agrees_with_direct_checks(
        walk in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        check_adt("map", &KvMapSpec::new(), &map_universe(), &walk, i, j)?;
    }

    #[test]
    fn escrow_table_agrees_with_direct_checks(
        walk in prop::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        check_adt("escrow", &EscrowCounterSpec::new(), &escrow_universe(), &walk, i, j)?;
    }
}
