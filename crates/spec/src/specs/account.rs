//! The bank-account object of §5.1.

use crate::spec::{Operation, SequentialSpec};
use crate::value::Value;

/// A bank account with `deposit(n)→ok`, `withdraw(n)→ok` or
/// `withdraw(n)→insufficient_funds`, and a read-only `balance→int` (§5.1).
///
/// `withdraw` terminates normally (debiting the balance) when the balance
/// covers the request, and abnormally with `insufficient_funds` (leaving
/// the balance unchanged) otherwise. This data-dependent outcome is the
/// crux of the paper's comparison with commutativity-based locking: two
/// `ok` withdrawals commute *when there is enough money for both*, which a
/// static conflict table cannot express.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let acct = BankAccountSpec::new();
/// assert!(acct.accepts_serial(&[
///     (op("deposit", [10]), Value::ok()),
///     (op("withdraw", [4]), Value::ok()),
///     (op("withdraw", [7]), Value::sym("insufficient_funds")),
///     (op("balance", [] as [i64; 0]), Value::from(6)),
/// ]));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankAccountSpec {
    initial: i64,
}

impl BankAccountSpec {
    /// Creates the specification with initial balance 0 (as in §5.1).
    pub fn new() -> Self {
        BankAccountSpec { initial: 0 }
    }

    /// Creates the specification with a given initial balance.
    pub fn with_initial(balance: i64) -> Self {
        BankAccountSpec { initial: balance }
    }

    /// The result symbol for a failed withdrawal.
    pub fn insufficient_funds() -> Value {
        Value::sym(INSUFFICIENT_FUNDS)
    }
}

const INSUFFICIENT_FUNDS: &str = "insufficient_funds";

impl SequentialSpec for BankAccountSpec {
    type State = i64;

    fn initial(&self) -> Self::State {
        self.initial
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match (op.name(), op.int_arg(0)) {
            ("deposit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                vec![(Value::ok(), state + n)]
            }
            ("withdraw", Some(n)) if op.args().len() == 1 && n >= 0 => {
                if *state >= n {
                    vec![(Value::ok(), state - n)]
                } else {
                    vec![(Self::insufficient_funds(), *state)]
                }
            }
            ("balance", None) if op.args().is_empty() => {
                vec![(Value::from(*state), *state)]
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let (replayed, next) = match (op.name(), op.int_arg(0)) {
            ("deposit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                (expected.is_ok_unit(), *state + n)
            }
            ("withdraw", Some(n)) if op.args().len() == 1 && n >= 0 => {
                if *state >= n {
                    (expected.is_ok_unit(), *state - n)
                } else {
                    (expected.is_sym(INSUFFICIENT_FUNDS), *state)
                }
            }
            ("balance", None) if op.args().is_empty() => {
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
        op.name() == "balance"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    #[test]
    fn deposits_accumulate() {
        let a = BankAccountSpec::new();
        assert!(a.accepts_serial(&[
            (op("deposit", [10]), Value::ok()),
            (op("deposit", [5]), Value::ok()),
            (op("balance", [] as [i64; 0]), Value::from(15)),
        ]));
    }

    #[test]
    fn withdraw_outcomes_depend_on_balance() {
        let a = BankAccountSpec::new();
        // Paper §5.1: deposit 10, then withdraw 4 and withdraw 3 both ok.
        assert!(a.accepts_serial(&[
            (op("deposit", [10]), Value::ok()),
            (op("withdraw", [4]), Value::ok()),
            (op("withdraw", [3]), Value::ok()),
            (op("balance", [] as [i64; 0]), Value::from(3)),
        ]));
        // Overdraft refused, balance unchanged.
        assert!(a.accepts_serial(&[
            (op("deposit", [2]), Value::ok()),
            (op("withdraw", [3]), BankAccountSpec::insufficient_funds()),
            (op("balance", [] as [i64; 0]), Value::from(2)),
        ]));
        // A withdraw that claims ok without funds is rejected.
        assert!(!a.accepts_serial(&[(op("withdraw", [1]), Value::ok())]));
        // A withdraw that claims insufficient despite funds is rejected.
        assert!(!a.accepts_serial(&[
            (op("deposit", [5]), Value::ok()),
            (op("withdraw", [5]), BankAccountSpec::insufficient_funds()),
        ]));
    }

    #[test]
    fn initial_balance_respected() {
        let a = BankAccountSpec::with_initial(100);
        assert!(a.accepts_serial(&[(op("withdraw", [100]), Value::ok())]));
    }

    #[test]
    fn order_dependence_of_deposit_and_withdraw() {
        // Paper §5.1: with balance 2, withdraw(3) then deposit(1) fails the
        // withdrawal, but deposit(1) then withdraw(3) succeeds — deposit
        // and withdraw do not commute in general.
        let a = BankAccountSpec::with_initial(2);
        assert!(a.accepts_serial(&[
            (op("withdraw", [3]), BankAccountSpec::insufficient_funds()),
            (op("deposit", [1]), Value::ok()),
        ]));
        assert!(a.accepts_serial(&[
            (op("deposit", [1]), Value::ok()),
            (op("withdraw", [3]), Value::ok()),
        ]));
        assert!(!a.accepts_serial(&[
            (op("withdraw", [3]), Value::ok()),
            (op("deposit", [1]), Value::ok()),
        ]));
    }

    #[test]
    fn negative_amounts_rejected() {
        let a = BankAccountSpec::new();
        assert!(a.step(&0, &op("deposit", [-5])).is_empty());
        assert!(a.step(&0, &op("withdraw", [-5])).is_empty());
    }

    #[test]
    fn balance_is_read_only() {
        let a = BankAccountSpec::new();
        assert!(a.is_read_only(&op("balance", [] as [i64; 0])));
        assert!(!a.is_read_only(&op("deposit", [1])));
        assert!(!a.is_read_only(&op("withdraw", [1])));
    }
}
