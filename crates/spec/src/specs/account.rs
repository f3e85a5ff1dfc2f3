//! The bank-account object of §5.1.

use crate::spec::{OpResult, Operation, SequentialSpec};
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

/// What replaying one intentions list asks of the balance it starts from
/// and does to it, in `i128` so that no sum of `i64` amounts overflows.
struct ListEffect {
    /// The list replays from exactly the balances `lo..=hi`; `lo > hi`
    /// when it replays from none.
    lo: i128,
    hi: i128,
    /// The balance it ends at, less the one it started from.
    net: i128,
    /// The lowest and highest balance it passes through, less the one it
    /// started from: `dip <= 0 <= peak`.
    dip: i128,
    peak: i128,
}

/// The upper bound of a list that replays from no balance: below every
/// `lo`, which starts at `i64::MIN` and only rises.
const NOWHERE: i128 = i64::MIN as i128 - 1;

/// The effect of `list`, or `None` if it holds an operation that is not
/// the account's (which `step` refuses in every state).
fn list_effect(list: &[OpResult]) -> Option<ListEffect> {
    let mut effect = ListEffect {
        lo: i64::MIN.into(),
        hi: i64::MAX.into(),
        net: 0,
        dip: 0,
        peak: 0,
    };
    for (op, expected) in list {
        // The balance here is the starting balance plus `net`.
        let at = effect.net;
        match (op.name(), op.int_arg(0)) {
            ("deposit", Some(n)) if op.args().len() == 1 && n >= 0 => {
                if !expected.is_ok_unit() {
                    effect.hi = NOWHERE;
                }
                effect.net += i128::from(n);
            }
            ("withdraw", Some(n)) if op.args().len() == 1 && n >= 0 => {
                let n = i128::from(n);
                if expected.is_ok_unit() {
                    effect.lo = effect.lo.max(n - at);
                    effect.net -= n;
                } else if expected.is_sym(INSUFFICIENT_FUNDS) {
                    effect.hi = effect.hi.min(n - 1 - at);
                } else {
                    effect.hi = NOWHERE;
                }
            }
            ("balance", None) if op.args().is_empty() => match expected.as_int() {
                Some(v) => {
                    effect.lo = effect.lo.max(i128::from(v) - at);
                    effect.hi = effect.hi.min(i128::from(v) - at);
                }
                None => effect.hi = NOWHERE,
            },
            _ => return None,
        }
        effect.dip = effect.dip.min(effect.net);
        effect.peak = effect.peak.max(effect.net);
    }
    Some(effect)
}

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

    /// "The balance covers the withdrawals in every order", exactly, in
    /// one pass over the lists.
    ///
    /// Each list replays from an interval of starting balances — an `ok`
    /// withdrawal bounds it below, an `insufficient_funds` one above, a
    /// `balance` read pins it — and moves the balance by its net effect.
    /// Every order is a sequence of (list, set of lists before it) steps,
    /// so every order replays iff each list replays from `b + Σ net` over
    /// every subset of the *other* lists. Those sums run from
    /// `b + Σ min(0, net)` to `b + Σ max(0, net)`, and both ends lie in
    /// the list's interval iff all of them do. `None` if a list holds an
    /// operation that is not the account's, or if some order could pass
    /// through a balance outside `i64`, where `step` would overflow.
    fn every_order_replays(&self, state: &i64, lists: &[&[OpResult]]) -> Option<bool> {
        // Σ min(0, net) and Σ max(0, net) over all the lists.
        let (mut falls, mut rises) = (0, 0);
        // Each list's interval, shifted by its own term of those sums so
        // that it bounds the sums over all the lists: the largest
        // `lo + min(0, net)` and the smallest `hi + max(0, net)`.
        let (mut floor, mut ceiling) = (i128::from(i64::MIN), i128::from(i64::MAX));
        let (mut dip, mut peak) = (0, 0);
        for list in lists {
            let effect = list_effect(list)?;
            falls += effect.net.min(0);
            rises += effect.net.max(0);
            floor = floor.max(effect.lo + effect.net.min(0));
            ceiling = ceiling.min(effect.hi + effect.net.max(0));
            dip = dip.min(effect.dip);
            peak = peak.max(effect.peak);
        }
        let (lowest, highest) = (i128::from(*state) + falls, i128::from(*state) + rises);
        if lowest + dip < i128::from(i64::MIN) || highest + peak > i128::from(i64::MAX) {
            return None;
        }
        Some(floor <= lowest && highest <= ceiling)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        op.name() == "balance"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;
    use proptest::prelude::*;

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

    /// Replays `list` from `balance` by `step`, each operation returning
    /// its recorded result; `None` if it does not replay.
    fn replay_by_step(acct: &BankAccountSpec, balance: i64, list: &[OpResult]) -> Option<i64> {
        list.iter().try_fold(balance, |state, (o, expected)| {
            acct.step(&state, o)
                .into_iter()
                .find(|(result, _)| result == expected)
                .map(|(_, next)| next)
        })
    }

    /// Whether every order of `lists` replays from `balance`: a walk,
    /// depth first, through the orders, stopping at the first refusal.
    fn every_permutation_replays(
        acct: &BankAccountSpec,
        balance: i64,
        lists: &[&[OpResult]],
    ) -> bool {
        fn walk(acct: &BankAccountSpec, balance: i64, lists: &[&[OpResult]], left: u32) -> bool {
            (0..lists.len()).filter(|i| left & (1 << i) != 0).all(|i| {
                match replay_by_step(acct, balance, lists[i]) {
                    Some(next) => walk(acct, next, lists, left & !(1 << i)),
                    None => false,
                }
            })
        }
        walk(acct, balance, lists, (1 << lists.len()) - 1)
    }

    /// Every list of at most `max_len` operations drawn from `universe`.
    fn lists_over(universe: &[OpResult], max_len: usize) -> Vec<Vec<OpResult>> {
        let mut lists = vec![Vec::new()];
        let mut last = vec![Vec::new()];
        for _ in 0..max_len {
            last = last
                .iter()
                .flat_map(|list| {
                    universe.iter().map(move |entry| {
                        let mut longer = list.clone();
                        longer.push(entry.clone());
                        longer
                    })
                })
                .collect();
            lists.extend(last.iter().cloned());
        }
        lists
    }

    /// Calls `f` with every multiset of `k` indices below `n`, ascending.
    fn multisets(n: usize, k: usize, f: &mut impl FnMut(&[usize])) {
        fn pick(
            n: usize,
            k: usize,
            from: usize,
            picked: &mut Vec<usize>,
            f: &mut impl FnMut(&[usize]),
        ) {
            if picked.len() == k {
                f(picked);
                return;
            }
            for i in from..n {
                picked.push(i);
                pick(n, k, i, picked, f);
                picked.pop();
            }
        }
        pick(n, k, 0, &mut Vec::new(), f);
    }

    /// How often the guard refused, accepted and left a case undecided.
    #[derive(Debug, Default)]
    struct Tally([usize; 3]);

    impl Tally {
        /// Holds the guard to the walk on `lists` from `balance`: an
        /// answer must be the walk's verdict. The walk runs only where the
        /// guard answers, so an answer given where some order overflows
        /// panics in it.
        fn check(&mut self, balance: i64, lists: &[&[OpResult]]) {
            let acct = BankAccountSpec::new();
            let answer = acct.every_order_replays(&balance, lists);
            if let Some(verdict) = answer {
                assert_eq!(
                    verdict,
                    every_permutation_replays(&acct, balance, lists),
                    "balance {balance}, lists {lists:?}"
                );
            }
            self.0[answer.map_or(2, usize::from)] += 1;
        }
    }

    /// Checks every multiset of `k` lists of `lists` from every balance.
    fn check_multisets(tally: &mut Tally, balances: &[i64], lists: &[Vec<OpResult>], k: usize) {
        multisets(lists.len(), k, &mut |picked| {
            let chosen: Vec<&[OpResult]> = picked.iter().map(|&i| lists[i].as_slice()).collect();
            for &balance in balances {
                tally.check(balance, &chosen);
            }
        });
    }

    /// Deposits, withdrawals of both outcomes and a read, small enough
    /// that balances 0..12 put every one on both sides of its bound.
    fn small_universe() -> Vec<OpResult> {
        vec![
            (op("deposit", [2]), Value::ok()),
            (op("withdraw", [1]), Value::ok()),
            (op("withdraw", [3]), Value::ok()),
            (op("withdraw", [3]), BankAccountSpec::insufficient_funds()),
            (op("balance", [] as [i64; 0]), Value::from(4)),
        ]
    }

    const BALANCES: std::ops::Range<i64> = 0..12;

    #[test]
    fn guard_gives_the_permutation_walks_verdict_on_small_universes() {
        let balances: Vec<i64> = BALANCES.collect();
        let universe = small_universe();
        let mut tally = Tally::default();
        // Up to two lists of up to three operations, and three or four
        // lists of up to two; `guard_agrees_on_four_lists_of_three`
        // samples four lists of three.
        let long = lists_over(&universe, 3);
        for k in 0..=2 {
            check_multisets(&mut tally, &balances, &long, k);
        }
        let short = lists_over(&universe, 2);
        for k in 3..=4 {
            check_multisets(&mut tally, &balances, &short, k);
        }
        let Tally([refused, accepted, undecided]) = tally;
        assert!(
            refused > 0 && accepted > 0,
            "{refused} refused, {accepted} accepted"
        );
        assert_eq!(undecided, 0, "no amount here is near the edge of i64");
    }

    #[test]
    fn guard_answers_none_or_agrees_at_the_edges_of_i64() {
        let universe = vec![
            (op("deposit", [i64::MAX]), Value::ok()),
            (op("deposit", [1]), Value::ok()),
            (op("withdraw", [i64::MAX]), Value::ok()),
            (
                op("withdraw", [i64::MAX]),
                BankAccountSpec::insufficient_funds(),
            ),
            (op("balance", [] as [i64; 0]), Value::from(i64::MAX)),
        ];
        let balances = [i64::MIN, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let lists = lists_over(&universe, 2);
        let mut tally = Tally::default();
        for k in 0..=3 {
            check_multisets(&mut tally, &balances, &lists, k);
        }
        let Tally([refused, accepted, undecided]) = tally;
        assert!(
            refused > 0 && accepted > 0 && undecided > 0,
            "{refused} refused, {accepted} accepted, {undecided} undecided"
        );
    }

    #[test]
    fn guard_leaves_what_is_not_the_accounts_undecided() {
        let acct = BankAccountSpec::new();
        let ok = [(op("withdraw", [1]), Value::ok())];
        for stranger in [
            op("transfer", [1]),
            op("deposit", [-1]),
            op("withdraw", [1, 2]),
        ] {
            let list = [(stranger, Value::ok())];
            assert_eq!(acct.every_order_replays(&5, &[&ok, &list]), None);
        }
        // A recorded result the operation never returns replays nowhere.
        let wrong = [(op("deposit", [1]), Value::from(1))];
        assert_eq!(acct.every_order_replays(&5, &[&ok, &wrong]), Some(false));
        assert_eq!(acct.every_order_replays(&5, &[]), Some(true));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn guard_agrees_on_four_lists_of_three(
            picks in prop::collection::vec(prop::collection::vec(0..5usize, 0..=3), 4),
        ) {
            let universe = small_universe();
            let lists: Vec<Vec<OpResult>> = picks
                .iter()
                .map(|list| list.iter().map(|&i| universe[i].clone()).collect())
                .collect();
            let lists: Vec<&[OpResult]> = lists.iter().map(Vec::as_slice).collect();
            let mut tally = Tally::default();
            for balance in BALANCES {
                tally.check(balance, &lists);
            }
        }
    }
}
