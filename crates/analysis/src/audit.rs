//! The operation universes of the four ADTs with a hand-written lock
//! table in `atomicity-baselines`, and — in this module's tests — what the
//! hand-table diff ([`crate::synth::gap_against`]) must catch over them:
//! an unsound entry with its witness, an asymmetric relation, an operation
//! the specification never accepts, and the paper's two sub-optimality
//! examples (bank `withdraw/withdraw`, §5.1, and the semiqueue's
//! interleaved `enq`s).

use atomicity_spec::{op, Operation};

/// The operation universe [`atomicity_baselines::bank_commutativity`] is
/// diffed over.
pub fn bank_universe() -> Vec<Operation> {
    vec![
        op("deposit", [5]),
        op("deposit", [3]),
        op("withdraw", [5]),
        op("withdraw", [3]),
        op("balance", [] as [i64; 0]),
    ]
}

/// The operation universe [`atomicity_baselines::queue_commutativity`] is
/// diffed over.
pub fn queue_universe() -> Vec<Operation> {
    vec![
        op("enqueue", [1]),
        op("enqueue", [2]),
        op("dequeue", [] as [i64; 0]),
        op("front", [] as [i64; 0]),
        op("len", [] as [i64; 0]),
    ]
}

/// The operation universe [`atomicity_baselines::set_commutativity`] is
/// diffed over.
pub fn set_universe() -> Vec<Operation> {
    vec![
        op("insert", [1]),
        op("insert", [2]),
        op("delete", [1]),
        op("member", [1]),
        op("size", [] as [i64; 0]),
    ]
}

/// The semiqueue operation universe (diffed against the borrowed FIFO
/// table to exhibit the paper's interleaved-`enq` over-conservatism).
pub fn semiqueue_universe() -> Vec<Operation> {
    vec![
        op("enq", [1]),
        op("enq", [2]),
        op("deq", [] as [i64; 0]),
        op("count", [] as [i64; 0]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{
        gap_against, standard_syntheses, synthesize_table, SynthConfig, TableSynthesis,
    };
    use atomicity_baselines::bank_commutativity;
    use atomicity_spec::specs::BankAccountSpec;

    fn bank_over(universe: &[Operation]) -> TableSynthesis {
        synthesize_table(
            "bank",
            "BankAccountSpec",
            &BankAccountSpec::new(),
            universe,
            &SynthConfig::default(),
        )
    }

    #[test]
    fn shipped_tables_are_sound_and_exhaustively_explored() {
        let suite = standard_syntheses(&SynthConfig::default());
        assert_eq!(suite.gaps.len(), 5);
        for gap in &suite.gaps {
            assert!(
                gap.unsound.is_empty(),
                "{} diffed against `{}` has errors: {:?}",
                gap.hand_table,
                gap.adt,
                gap.unsound
            );
        }
        assert_eq!(suite.syntheses.len(), 6);
        for s in &suite.syntheses {
            assert_eq!(
                s.table.truncated, 0,
                "{} enumeration truncated — raise max_states",
                s.table.adt
            );
            assert!(s.unsupported().is_empty(), "{}", s.table.adt);
        }
    }

    #[test]
    fn bank_withdraw_withdraw_is_a_conservative_warning() {
        let suite = standard_syntheses(&SynthConfig::default());
        let bank = &suite.gaps[0];
        // Distinct amounts conflict in general but commute wherever funds
        // cover both orders: data-dependent, neither an error nor a lost
        // table entry.
        let e = bank
            .data_dependent
            .iter()
            .find(|e| e.p == "withdraw(5)" && e.q == "withdraw(3)")
            .expect("withdraw/withdraw is data-dependent");
        assert!(e.commuting_states > 0);
        assert!(e.commuting_states < e.total_states);
        assert!(bank.unsound.is_empty() && bank.minimal);
    }

    #[test]
    fn semiqueue_interleaved_enq_is_a_conservative_warning() {
        let suite = standard_syntheses(&SynthConfig::default());
        let semi = &suite.gaps[3];
        assert_eq!(semi.adt, "semiqueue");
        let e = semi
            .over_conservative
            .iter()
            .find(|e| e.p == "enq(1)" && e.q == "enq(2)")
            .expect("the borrowed FIFO table gives enq/enq away");
        assert_eq!(
            e.commuting_states, e.total_states,
            "semiqueue enq/enq commutes unconditionally"
        );
        assert!(semi.unsound.is_empty());
    }

    #[test]
    fn corrupted_table_is_reported_unsound_with_a_counterexample() {
        // Deliberately permit withdraw/withdraw: unsound, since two
        // withdrawals only commute when funds cover both.
        let corrupt = |p: &Operation, q: &Operation| {
            (p.name() == "withdraw" && q.name() == "withdraw") || bank_commutativity(p, q)
        };
        let gap = gap_against(
            &bank_over(&bank_universe()),
            "bank_commutativity (corrupted)",
            &corrupt,
        );
        assert!(!gap.minimal);
        let err = gap
            .unsound
            .iter()
            .find(|e| e.p == "withdraw(5)" && e.q == "withdraw(3)")
            .expect("the forced entry is refuted");
        assert!(err.witness.starts_with("in state "), "{}", err.witness);
        assert!(err.witness.contains("under p;q but"), "{}", err.witness);
    }

    #[test]
    fn asymmetric_table_is_an_error() {
        let asym = |p: &Operation, q: &Operation| p.name() == "deposit" && q.name() == "balance";
        let gap = gap_against(&bank_over(&bank_universe()), "asymmetric", &asym);
        assert!(!gap.minimal);
        assert!(
            gap.unsound.iter().any(|e| e.p == "deposit(5)"
                && e.q == "balance"
                && e.witness.contains("asymmetric")),
            "{:?}",
            gap.unsound
        );
    }

    #[test]
    fn unknown_operations_are_flagged_unsupported() {
        let frobnicate = op("frobnicate", [] as [i64; 0]);
        let synth = bank_over(&[op("deposit", [1]), frobnicate.clone()]);
        assert_eq!(synth.unsupported(), [&frobnicate]);
        // Neither a lost-concurrency finding nor a conflict certificate:
        // every verdict about an operation that never runs is vacuous.
        let gap = gap_against(&synth, "bank_commutativity", &bank_commutativity);
        assert!(!format!("{gap:?}").contains("frobnicate"), "{gap:?}");
        assert!(gap.unsound.is_empty() && gap.minimal);
    }
}
