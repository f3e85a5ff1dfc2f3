//! An escrow counter with may-refuse debits (Malta & Martinez style
//! reservation semantics).

use crate::spec::{Operation, SequentialSpec};
use crate::value::Value;

/// An escrow counter: `credit(n)→ok`, `debit(n)→ok` *or* `debit(n)→refused`,
/// and a read-only `available→int`.
///
/// The crucial difference from [`super::BankAccountSpec`]'s `withdraw` is
/// that `debit` **may refuse even when funds suffice**: from a state `s ≥ n`
/// the specification admits both `(ok, s−n)` and `(refused, s)`. Refusal is
/// always a permissible outcome, so a debit can be serialized *anywhere* —
/// this is the decrement-if-at-least escrow discipline that Malta & Martinez
/// formalize, and it buys far more concurrency than the bank account:
/// `credit` and `debit` commute (forward) in **every** state, because the
/// refused outcome replays in both orders, whereas `deposit`/`withdraw`
/// conflict whenever the deposit could flip a refusal into a success.
///
/// The asymmetry is still visible to recovery: a `debit→ok` executed after a
/// `credit` cannot in general be reordered *before* it (the funds may not
/// have existed yet), which is exactly the right-mover/recoverability
/// distinction the synthesis pass reports.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::EscrowCounterSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let e = EscrowCounterSpec::new();
/// assert!(e.accepts_serial(&[
///     (op("credit", [10]), Value::ok()),
///     (op("debit", [4]), Value::ok()),
///     (op("debit", [4]), EscrowCounterSpec::refused()), // may refuse
///     (op("debit", [7]), EscrowCounterSpec::refused()), // must refuse
///     (op("available", [] as [i64; 0]), Value::from(6)),
/// ]));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscrowCounterSpec {
    initial: i64,
}

impl EscrowCounterSpec {
    /// Creates the specification with an empty escrow (0 available).
    pub fn new() -> Self {
        EscrowCounterSpec { initial: 0 }
    }

    /// Creates the specification with a given initial quantity.
    pub fn with_initial(available: i64) -> Self {
        EscrowCounterSpec { initial: available }
    }

    /// The result symbol for a refused debit.
    pub fn refused() -> Value {
        Value::sym(REFUSED)
    }
}

const REFUSED: &str = "refused";

impl SequentialSpec for EscrowCounterSpec {
    type State = i64;

    fn initial(&self) -> Self::State {
        self.initial
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match (op.name(), op.int_arg(0)) {
            ("credit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                vec![(Value::ok(), state + n)]
            }
            ("debit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                if *state >= n {
                    // May succeed — or refuse anyway. `Value::ok()` (Unit)
                    // sorts before `refused` (Sym), so engines that pick the
                    // least candidate prefer success when it is admissible.
                    vec![(Value::ok(), state - n), (Self::refused(), *state)]
                } else {
                    vec![(Self::refused(), *state)]
                }
            }
            ("available", None) if op.args().is_empty() => {
                vec![(Value::from(*state), *state)]
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let (replayed, next) = match (op.name(), op.int_arg(0)) {
            ("credit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                (expected.is_ok_unit(), *state + n)
            }
            // The recorded result picks the outcome: `ok` where funds
            // suffice, `refused` anywhere.
            ("debit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                if *state >= n && expected.is_ok_unit() {
                    (true, *state - n)
                } else {
                    (expected.is_sym(REFUSED), *state)
                }
            }
            ("available", None) if op.args().is_empty() => {
                (expected.as_int() == Some(*state), *state)
            }
            _ => (false, *state),
        };
        if replayed {
            *state = next;
        }
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        op.name() == "available"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    #[test]
    fn credits_accumulate_and_debits_subtract() {
        let e = EscrowCounterSpec::new();
        assert!(e.accepts_serial(&[
            (op("credit", [10]), Value::ok()),
            (op("debit", [4]), Value::ok()),
            (op("available", [] as [i64; 0]), Value::from(6)),
        ]));
    }

    #[test]
    fn debit_may_refuse_even_with_funds() {
        let e = EscrowCounterSpec::with_initial(10);
        assert!(e.accepts_serial(&[
            (op("debit", [4]), EscrowCounterSpec::refused()),
            (op("available", [] as [i64; 0]), Value::from(10)),
        ]));
    }

    #[test]
    fn debit_must_refuse_without_funds() {
        let e = EscrowCounterSpec::new();
        assert!(!e.accepts_serial(&[(op("debit", [1]), Value::ok())]));
        assert!(e.accepts_serial(&[(op("debit", [1]), EscrowCounterSpec::refused())]));
    }

    #[test]
    fn refusal_makes_debits_reorderable_after_credits() {
        // debit(5);credit(5) with refusal, then credit(5);debit(5) with
        // success: both serial orders are admissible from 0 — the refused
        // outcome is what lets a debit serialize before the credit funding it.
        let e = EscrowCounterSpec::new();
        assert!(e.accepts_serial(&[
            (op("debit", [5]), EscrowCounterSpec::refused()),
            (op("credit", [5]), Value::ok()),
        ]));
        assert!(e.accepts_serial(&[
            (op("credit", [5]), Value::ok()),
            (op("debit", [5]), Value::ok()),
        ]));
        // But an ok-debit cannot move before the credit that funds it.
        assert!(!e.accepts_serial(&[
            (op("debit", [5]), Value::ok()),
            (op("credit", [5]), Value::ok()),
        ]));
    }

    #[test]
    fn negative_and_ill_typed_rejected() {
        let e = EscrowCounterSpec::new();
        assert!(e.step(&0, &op("credit", [-5])).is_empty());
        assert!(e.step(&0, &op("debit", [-5])).is_empty());
        assert!(e.step(&0, &op("available", [1])).is_empty());
        assert!(e.step(&0, &op("nonsense", [] as [i64; 0])).is_empty());
    }

    #[test]
    fn available_is_read_only() {
        let e = EscrowCounterSpec::new();
        assert!(e.is_read_only(&op("available", [] as [i64; 0])));
        assert!(!e.is_read_only(&op("credit", [1])));
        assert!(!e.is_read_only(&op("debit", [1])));
    }

    #[test]
    fn success_sorts_before_refusal() {
        // Engines pick the least candidate result; ok (Unit) < refused (Sym).
        let e = EscrowCounterSpec::with_initial(5);
        let mut results: Vec<Value> = e
            .step(&5, &op("debit", [3]))
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        results.sort();
        assert_eq!(results[0], Value::ok());
    }
}
