//! Sequential specifications of objects as executable state machines.
//!
//! In the paper, the specification of an object describes its permissible
//! sequences of events (§2); for *serial* sequences this reduces to a
//! sequential semantics: from an initial state, each invocation produces a
//! result and a next state. Crucially the paper insists operations need
//! **not** be functions — non-deterministic operations are first-class
//! (§1, §5.2) — so [`SequentialSpec::step`] returns a *set* of
//! (result, next-state) outcomes, and acceptance of a serial sequence is a
//! search over outcome choices.

use crate::event::ObjectId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An operation invocation: a name plus argument values.
///
/// ```
/// use atomicity_spec::op;
/// let o = op("insert", [3]);
/// assert_eq!(o.to_string(), "insert(3)");
/// let nullary = op("dequeue", [] as [i64; 0]);
/// assert_eq!(nullary.to_string(), "dequeue");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    name: String,
    args: Vec<Value>,
}

impl Operation {
    /// Creates an operation from a name and arguments.
    pub fn new(name: impl Into<String>, args: impl IntoIterator<Item = Value>) -> Self {
        Operation {
            name: name.into(),
            args: args.into_iter().collect(),
        }
    }

    /// The operation name, e.g. `"insert"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The argument values.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// The `i`-th argument as an integer.
    ///
    /// Returns `None` if the argument is absent or not an integer; object
    /// specifications use this to reject ill-typed invocations.
    pub fn int_arg(&self, i: usize) -> Option<i64> {
        self.args.get(i).and_then(Value::as_int)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.args.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}(", self.name)?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")
        }
    }
}

/// Shorthand constructor for [`Operation`].
///
/// Arguments may be anything convertible to [`Value`].
///
/// ```
/// use atomicity_spec::op;
/// assert_eq!(op("withdraw", [4]).name(), "withdraw");
/// ```
pub fn op<V: Into<Value>>(name: &str, args: impl IntoIterator<Item = V>) -> Operation {
    Operation::new(name, args.into_iter().map(Into::into))
}

/// A completed invocation: the operation together with the result it
/// returned. Serial sequences are checked as lists of these pairs.
pub type OpResult = (Operation, Value);

/// A sequential specification: object semantics as a (possibly
/// non-deterministic) state machine.
///
/// `step` returns **all** permissible (result, next-state) outcomes of
/// applying `op` in `state`; an empty vector means the invocation is not
/// permitted at all (ill-typed or unknown operation). Determinism is the
/// special case of a single outcome.
///
/// # Example
///
/// ```
/// use atomicity_spec::{SequentialSpec, op};
/// use atomicity_spec::specs::CounterSpec;
/// let c = CounterSpec::new();
/// let outcomes = c.step(&0, &op("increment", [] as [i64; 0]));
/// assert_eq!(outcomes.len(), 1);
/// assert_eq!(outcomes[0].1, 1); // new state
/// ```
pub trait SequentialSpec: Send + Sync + 'static {
    /// The abstract state of the object.
    type State: Clone + PartialEq + fmt::Debug + Send + Sync;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// All permissible (result, next-state) outcomes of `op` in `state`.
    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)>;

    /// Moves `state` in place along the outcomes of `op` that return
    /// `expected`, and says whether it could:
    ///
    /// - `Some(true)`: every outcome of `step(state, op)` returning
    ///   `expected` leads to one and the same state, and `state` now is it;
    /// - `Some(false)`: no outcome returns `expected`; `state` is untouched;
    /// - `None`: the outcomes returning `expected` reach more than one
    ///   distinct state; `state` is untouched, and the caller takes the
    ///   set-valued path through `step`.
    ///
    /// The default is written in terms of `step` and is the reference. A
    /// specification whose `step` has at most one outcome per result
    /// overrides it to update the state without copying it — on a keyed
    /// map, the difference between O(1) and O(map) per replayed operation.
    ///
    /// ```
    /// use atomicity_spec::specs::BankAccountSpec;
    /// use atomicity_spec::{SequentialSpec, op, Value};
    /// let acct = BankAccountSpec::new();
    /// let mut balance = 5;
    /// assert_eq!(acct.apply(&mut balance, &op("withdraw", [3]), &Value::ok()), Some(true));
    /// assert_eq!(balance, 2);
    /// assert_eq!(acct.apply(&mut balance, &op("withdraw", [3]), &Value::ok()), Some(false));
    /// assert_eq!(balance, 2);
    /// ```
    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let mut reached = self
            .step(state, op)
            .into_iter()
            .filter(|(result, _)| result == expected)
            .map(|(_, next)| next);
        let Some(next) = reached.next() else {
            return Some(false);
        };
        if reached.any(|other| other != next) {
            return None;
        }
        *state = next;
        Some(true)
    }

    /// [`apply`](Self::apply) that can be taken back. It answers as `apply`
    /// does and, on `Some(true)`, pushes onto `undo` the inverse of the
    /// move: (operation, result) pairs that `apply`, run from the moved
    /// state in reverse push order, replays and so returns the state to
    /// where it was — one pair restoring the old binding of the key the
    /// operation touched, say, or none if the state did not change. On any
    /// other answer `state` and `undo` are untouched.
    ///
    /// This is how [`replay_into`] moves a one-state frontier through a
    /// list without copying it (§1's undo log, at the granularity of one
    /// list): each operation is applied in place and, if a later one is
    /// refused, the collected inverses roll it back. The default answers
    /// `None` — no inverse — and `replay_into` copies the state once
    /// instead. A specification whose state is expensive to copy (a keyed
    /// map, a set) overrides it.
    ///
    /// ```
    /// use atomicity_spec::specs::IntSetSpec;
    /// use atomicity_spec::{SequentialSpec, op, Value};
    /// let set = IntSetSpec::new();
    /// let mut members = [1].into();
    /// let mut undo = Vec::new();
    /// assert_eq!(set.apply_undoable(&mut members, &op("insert", [2]), &Value::ok(), &mut undo), Some(true));
    /// assert_eq!(undo, vec![(op("delete", [2]), Value::ok())]);
    /// let (inverse, result) = undo.pop().unwrap();
    /// assert_eq!(set.apply(&mut members, &inverse, &result), Some(true));
    /// assert_eq!(members, [1].into());
    /// ```
    fn apply_undoable(
        &self,
        _state: &mut Self::State,
        _op: &Operation,
        _expected: &Value,
        _undo: &mut Vec<OpResult>,
    ) -> Option<bool> {
        None
    }

    /// Whether every order of `lists` replays from `state`, decided
    /// without replaying them:
    ///
    /// - `Some(v)`: `v` is exactly the verdict of replaying the lists in
    ///   every order from the one-state frontier `[state]` — the dynamic
    ///   engine's admission test (§4.1);
    /// - `None`: the specification cannot tell here, and the caller
    ///   replays.
    ///
    /// The default answers `None`. A specification whose lists have a
    /// closed form — a net effect, and a range of states each replays
    /// from — overrides it with a guard that costs one pass over the
    /// lists instead of K·2^(K−1) list replays. The bank account's is
    /// "the balance covers the withdrawals in every order", exactly.
    ///
    /// ```
    /// use atomicity_spec::specs::BankAccountSpec;
    /// use atomicity_spec::{SequentialSpec, op, Value};
    /// let acct = BankAccountSpec::new();
    /// let four = [(op("withdraw", [4]), Value::ok())];
    /// let three = [(op("withdraw", [3]), Value::ok())];
    /// assert_eq!(acct.every_order_replays(&10, &[&four, &three]), Some(true));
    /// assert_eq!(acct.every_order_replays(&5, &[&four, &three]), Some(false));
    /// ```
    fn every_order_replays(&self, _state: &Self::State, _lists: &[&[OpResult]]) -> Option<bool> {
        None
    }

    /// Whether `op` can never change the state, regardless of the state it
    /// runs in. Used to classify read-only activities for hybrid atomicity
    /// (§4.3). Conservative default: `false`.
    fn is_read_only(&self, _op: &Operation) -> bool {
        false
    }

    /// All states reachable by executing `ops` from `state` such that each
    /// operation returns its recorded result.
    ///
    /// This is the workhorse of acceptance checking: a serial sequence is
    /// accepted iff the reachable-state set is non-empty.
    fn replay(&self, state: &Self::State, ops: &[OpResult]) -> Vec<Self::State> {
        replay_frontier(self, std::slice::from_ref(state), ops)
    }

    /// Whether the serial sequence of completed invocations `ops` is
    /// accepted from the initial state.
    fn accepts_serial(&self, ops: &[OpResult]) -> bool {
        !self.replay(&self.initial(), ops).is_empty()
    }
}

/// Applies `ops` to every state in `frontier`, collecting all reachable
/// states in which each operation returned its recorded result; empty
/// means the list does not replay.
///
/// The frontier-set representation is what makes non-deterministic
/// specifications (§5.2) compose correctly: committing a transaction never
/// collapses the object's abstract state to one arbitrary branch.
///
/// ```
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{op, replay_frontier, Value};
/// let acct = BankAccountSpec::new();
/// let list = [(op("deposit", [5]), Value::ok()), (op("withdraw", [3]), Value::ok())];
/// assert_eq!(replay_frontier(&acct, &[0], &list), vec![2]);
/// assert!(replay_frontier(&acct, &[0], &list[1..]).is_empty());
/// ```
pub fn replay_frontier<S: SequentialSpec + ?Sized>(
    spec: &S,
    frontier: &[S::State],
    ops: &[OpResult],
) -> Vec<S::State> {
    let mut states = Vec::new();
    replay_frontier_to(spec, frontier, ops, &mut states);
    states
}

/// [`replay_frontier`] into a buffer the caller owns: `into` is cleared,
/// then left holding every state reachable from `frontier` by `ops` —
/// none if the list does not replay. A caller that keeps `into` between
/// replays keeps its capacity, so a deterministic specification replays
/// without allocating.
///
/// ```
/// use atomicity_spec::specs::BankAccountSpec;
/// use atomicity_spec::{op, replay_frontier_to, Value};
/// let acct = BankAccountSpec::new();
/// let mut into = vec![99];
/// replay_frontier_to(&acct, &[3], &[(op("withdraw", [1]), Value::ok())], &mut into);
/// assert_eq!(into, vec![2]);
/// ```
pub fn replay_frontier_to<S: SequentialSpec + ?Sized>(
    spec: &S,
    frontier: &[S::State],
    ops: &[OpResult],
    into: &mut Vec<S::State>,
) {
    // A one-state frontier is copied once and stepped in place; a wider one
    // is read where it lies by the first operation. An empty list (the
    // uncontended path) is that one copy and nothing else.
    into.clear();
    let rest = match ops {
        [(op, expected), rest @ ..] if frontier.len() != 1 => {
            successors(spec, frontier, op, expected, into);
            rest
        }
        _ => {
            into.extend_from_slice(frontier);
            ops
        }
    };
    advance(spec, into, rest);
}

/// Replays `ops` into `frontier` in place and returns whether the list
/// replayed; on refusal `frontier` is left as it was.
///
/// For an owner of a frontier (a committed state, a recovered cache) this
/// is [`replay_frontier`] without the copy. A one-state frontier is moved
/// through the list in place, each operation but the last leaving its
/// inverse ([`SequentialSpec::apply_undoable`]), and a refusal rolls those
/// back: no state is copied. A specification without inverses, a result
/// that leaves the state open, or a wider frontier takes the set-valued
/// path, which copies the frontier once and swaps the copy in on success.
pub fn replay_into<S: SequentialSpec + ?Sized>(
    spec: &S,
    frontier: &mut Vec<S::State>,
    ops: &[OpResult],
) -> bool {
    if let [only] = frontier.as_mut_slice() {
        if let Some(replayed) = replay_in_place(spec, only, ops) {
            return replayed;
        }
    }
    let next = match ops {
        [] => return !frontier.is_empty(),
        [(op, expected)] => {
            let mut next = Vec::new();
            successors(spec, frontier, op, expected, &mut next);
            next
        }
        _ => replay_frontier(spec, frontier, ops),
    };
    if next.is_empty() {
        return false;
    }
    *frontier = next;
    true
}

/// Moves `state` through `ops` in place, answering as
/// [`SequentialSpec::apply`] does for the whole list: `Some(false)` and
/// `None` leave `state` as it was, the operations already applied rolled
/// back by their inverses. The last operation needs no inverse, so a
/// one-operation list is one `apply`.
fn replay_in_place<S: SequentialSpec + ?Sized>(
    spec: &S,
    state: &mut S::State,
    ops: &[OpResult],
) -> Option<bool> {
    let Some(((last, last_expected), init)) = ops.split_last() else {
        return Some(true);
    };
    let mut undo = Vec::new();
    let mut answer = Some(true);
    for (op, expected) in init {
        answer = spec.apply_undoable(state, op, expected, &mut undo);
        if answer != Some(true) {
            break;
        }
    }
    if answer == Some(true) {
        answer = spec.apply(state, last, last_expected);
    }
    if answer != Some(true) {
        for (inverse, result) in undo.iter().rev() {
            let restored = spec.apply(state, inverse, result);
            assert_eq!(
                restored,
                Some(true),
                "the inverse {inverse} -> {result} does not replay"
            );
        }
    }
    answer
}

/// The frontier fold: advances `states` by each recorded (operation,
/// result) of `ops` in turn, leaving every state reachable that way — none
/// if the list does not replay. A lone state is moved in place by
/// [`SequentialSpec::apply`]; a wider frontier, or an operation whose
/// result leaves the state open, takes the set-valued path, swapping two
/// buffers rather than allocating one per operation.
fn advance<S: SequentialSpec + ?Sized>(spec: &S, states: &mut Vec<S::State>, ops: &[OpResult]) {
    let mut next = Vec::new();
    for (op, expected) in ops {
        if let [only] = states.as_mut_slice() {
            match spec.apply(only, op, expected) {
                Some(true) => continue,
                Some(false) => {
                    states.clear();
                    return;
                }
                None => {}
            }
        }
        next.clear();
        successors(spec, states, op, expected, &mut next);
        std::mem::swap(states, &mut next);
        if states.is_empty() {
            return;
        }
    }
}

/// Adds to `into` each state that `op`, returning `expected`, can leave
/// from some state of `from`.
fn successors<S: SequentialSpec + ?Sized>(
    spec: &S,
    from: &[S::State],
    op: &Operation,
    expected: &Value,
    into: &mut Vec<S::State>,
) {
    for s in from {
        for (result, next) in spec.step(s, op) {
            if &result == expected && !into.contains(&next) {
                into.push(next);
            }
        }
    }
}

/// Object-safe view of a [`SequentialSpec`], with the state hidden.
///
/// [`SystemSpec`] stores specifications for heterogeneous objects as
/// `Arc<dyn ObjectSpec>`. Every `SequentialSpec` implements `ObjectSpec`
/// via a blanket impl.
pub trait ObjectSpec: Send + Sync {
    /// Whether the serial sequence `ops` is accepted from the initial state.
    fn accepts(&self, ops: &[OpResult]) -> bool;

    /// Whether a *prefix* can possibly be extended: identical to
    /// [`ObjectSpec::accepts`] for our prefix-closed specifications, exposed
    /// separately so search procedures can prune.
    fn accepts_prefix(&self, ops: &[OpResult]) -> bool {
        self.accepts(ops)
    }

    /// Whether `op` can never change the object's state (§4.3).
    fn op_is_read_only(&self, op: &Operation) -> bool;

    /// Starts an incremental acceptance check from the initial state.
    ///
    /// Streaming consumers (the online certifier) feed a serial sequence
    /// chunk by chunk instead of re-replaying a growing prefix:
    /// `accepts(a ++ b)` equals `r.apply(a) && r.apply(b)` for a fresh
    /// replayer `r`, because [`SequentialSpec::replay`] is a fold over the
    /// reachable-state frontier.
    fn begin_replay(self: Arc<Self>) -> Box<dyn StateReplayer>;
}

/// An in-progress incremental replay of a serial sequence against one
/// object's specification (see [`ObjectSpec::begin_replay`]).
///
/// Holds the frontier of states reachable by everything applied so far;
/// the sequence is accepted while the frontier stays non-empty. Once
/// `apply` has returned `false` the replayer is dead — every further
/// `apply` returns `false` too.
pub trait StateReplayer: Send {
    /// Extends the replayed sequence by `ops`; returns whether the whole
    /// sequence so far is still accepted.
    fn apply(&mut self, ops: &[OpResult]) -> bool;

    /// An independent copy of the replay at its current frontier, for
    /// exploring alternative continuations (linear-extension enumeration).
    fn fork(&self) -> Box<dyn StateReplayer>;
}

/// The blanket [`StateReplayer`]: a reachable-state frontier over a
/// concrete [`SequentialSpec`].
struct FrontierReplayer<S: SequentialSpec> {
    spec: Arc<S>,
    /// States reachable by the sequence applied so far; empty = rejected.
    frontier: Vec<S::State>,
}

impl<S: SequentialSpec> StateReplayer for FrontierReplayer<S> {
    fn apply(&mut self, ops: &[OpResult]) -> bool {
        advance(&*self.spec, &mut self.frontier, ops);
        !self.frontier.is_empty()
    }

    fn fork(&self) -> Box<dyn StateReplayer> {
        Box::new(FrontierReplayer {
            spec: self.spec.clone(),
            frontier: self.frontier.clone(),
        })
    }
}

impl<S: SequentialSpec> ObjectSpec for S {
    fn accepts(&self, ops: &[OpResult]) -> bool {
        self.accepts_serial(ops)
    }

    fn op_is_read_only(&self, op: &Operation) -> bool {
        self.is_read_only(op)
    }

    fn begin_replay(self: Arc<Self>) -> Box<dyn StateReplayer> {
        let frontier = vec![self.initial()];
        Box::new(FrontierReplayer {
            spec: self,
            frontier,
        })
    }
}

/// Specifications for every object in a system, keyed by [`ObjectId`].
///
/// The possible computations of a system are determined by the
/// specifications of its components (§2); the serializability checkers in
/// [`crate::serial`] consult a `SystemSpec` to decide acceptance of serial
/// sequences object by object (Lemma 3).
///
/// # Example
///
/// ```
/// use atomicity_spec::{SystemSpec, ObjectId};
/// use atomicity_spec::specs::{IntSetSpec, CounterSpec};
/// let spec = SystemSpec::new()
///     .with_object(ObjectId::new(1), IntSetSpec::new())
///     .with_object(ObjectId::new(2), CounterSpec::new());
/// assert!(spec.get(ObjectId::new(1)).is_some());
/// assert!(spec.get(ObjectId::new(3)).is_none());
/// ```
#[derive(Clone, Default)]
pub struct SystemSpec {
    objects: HashMap<ObjectId, Arc<dyn ObjectSpec>>,
}

impl SystemSpec {
    /// Creates an empty system specification.
    pub fn new() -> Self {
        SystemSpec {
            objects: HashMap::new(),
        }
    }

    /// Adds (or replaces) the specification for `object`, builder style.
    pub fn with_object<S: SequentialSpec>(mut self, object: ObjectId, spec: S) -> Self {
        self.objects.insert(object, Arc::new(spec));
        self
    }

    /// Adds (or replaces) an already-shared specification.
    pub fn insert(&mut self, object: ObjectId, spec: Arc<dyn ObjectSpec>) {
        self.objects.insert(object, spec);
    }

    /// Looks up the specification for `object`.
    pub fn get(&self, object: ObjectId) -> Option<&Arc<dyn ObjectSpec>> {
        self.objects.get(&object)
    }

    /// The identifiers of all specified objects, in unspecified order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }
}

impl fmt::Debug for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ids: Vec<_> = self.objects.keys().collect();
        ids.sort();
        f.debug_struct("SystemSpec").field("objects", &ids).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-outcome coin: `flip` returns heads or tails nondeterministically
    /// and remembers the last face; `peek` reads it.
    struct CoinSpec;

    impl SequentialSpec for CoinSpec {
        type State = Option<bool>;

        fn initial(&self) -> Self::State {
            None
        }

        fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
            match op.name() {
                "flip" => vec![
                    (Value::from(true), Some(true)),
                    (Value::from(false), Some(false)),
                ],
                // Lands a face without saying which.
                "toss" => vec![(Value::ok(), Some(true)), (Value::ok(), Some(false))],
                "peek" => match state {
                    Some(b) => vec![(Value::from(*b), *state)],
                    None => vec![(Value::Nil, *state)],
                },
                _ => Vec::new(),
            }
        }

        fn is_read_only(&self, op: &Operation) -> bool {
            op.name() == "peek"
        }
    }

    fn flip() -> Operation {
        op("flip", [] as [i64; 0])
    }

    fn peek() -> Operation {
        op("peek", [] as [i64; 0])
    }

    #[test]
    fn nondeterministic_acceptance_searches_outcomes() {
        let c = CoinSpec;
        // flip -> true, then peek -> true: accepted (choose the heads branch).
        assert!(c.accepts_serial(&[(flip(), Value::from(true)), (peek(), Value::from(true))]));
        // flip -> true, then peek -> false: no branch matches.
        assert!(!c.accepts_serial(&[(flip(), Value::from(true)), (peek(), Value::from(false))]));
        // Unknown operation is rejected.
        assert!(!c.accepts_serial(&[(op("bogus", [1]), Value::ok())]));
    }

    #[test]
    fn replay_returns_all_reachable_states() {
        let c = CoinSpec;
        // After an unobserved flip recorded only as "some bool came back"?
        // Each recorded result pins the state here, so one state survives.
        let states = c.replay(&None, &[(flip(), Value::from(false))]);
        assert_eq!(states, vec![Some(false)]);
        // Empty op list: the initial state itself.
        assert_eq!(c.replay(&None, &[]), vec![None]);
    }

    #[test]
    fn replay_into_moves_the_frontier_only_when_the_list_replays() {
        let acct = crate::specs::BankAccountSpec::new();
        let withdraw = (op("withdraw", [3]), Value::ok());
        let mut balance = vec![5];
        assert!(!replay_into(
            &acct,
            &mut balance,
            &[withdraw.clone(), withdraw.clone()]
        ));
        assert_eq!(
            balance,
            vec![5],
            "a refused list leaves the frontier as it was"
        );
        assert!(replay_into(&acct, &mut balance, &[withdraw]));
        assert_eq!(balance, vec![2]);

        let toss = (op("toss", [] as [i64; 0]), Value::ok());
        let mut coin = vec![None];
        assert!(replay_into(&CoinSpec, &mut coin, &[toss]));
        assert_eq!(coin, vec![Some(true), Some(false)], "an open result splits");
        assert!(!replay_into(&CoinSpec, &mut coin, &[(peek(), Value::Nil)]));
        assert_eq!(coin, vec![Some(true), Some(false)]);
        assert!(replay_into(
            &CoinSpec,
            &mut coin,
            &[(peek(), Value::from(false))]
        ));
        assert_eq!(coin, vec![Some(false)]);
    }

    /// A dial with inverses: `turn(n)` moves it by `n` and is undone by
    /// `turn(-n)`; `spin` moves it one step either way, naming no inverse.
    struct DialSpec;

    impl SequentialSpec for DialSpec {
        type State = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn step(&self, state: &i64, op: &Operation) -> Vec<(Value, i64)> {
            match (op.name(), op.int_arg(0)) {
                ("turn", Some(n)) => vec![(Value::ok(), state + n)],
                ("spin", None) => vec![(Value::ok(), state + 1), (Value::ok(), state - 1)],
                _ => Vec::new(),
            }
        }

        fn apply_undoable(
            &self,
            state: &mut i64,
            op: &Operation,
            expected: &Value,
            undo: &mut Vec<OpResult>,
        ) -> Option<bool> {
            let n = op.int_arg(0).filter(|_| op.name() == "turn")?;
            let replayed = self.apply(state, op, expected)?;
            if replayed {
                undo.push((crate::spec::op("turn", [-n]), Value::ok()));
            }
            Some(replayed)
        }
    }

    #[test]
    fn replay_into_rolls_back_in_place_or_falls_back_to_the_frontier() {
        let turn = |n: i64| (op("turn", [n]), Value::ok());
        let spin = (op("spin", [] as [i64; 0]), Value::ok());
        let wrong = (op("turn", [1]), Value::Nil);
        let mut dial = vec![5];
        assert!(!replay_into(
            &DialSpec,
            &mut dial,
            &[turn(1), turn(2), wrong.clone()]
        ));
        assert_eq!(dial, vec![5], "refused in place, rolled back");
        assert!(replay_into(&DialSpec, &mut dial, &[turn(1), turn(2)]));
        assert_eq!(dial, vec![8]);
        // An open result after an applied `turn` rolls it back and takes
        // the set-valued path from where the list began.
        assert!(!replay_into(
            &DialSpec,
            &mut dial,
            &[turn(2), spin.clone(), wrong]
        ));
        assert_eq!(dial, vec![8]);
        assert!(replay_into(&DialSpec, &mut dial, &[turn(2), spin, turn(1)]));
        assert_eq!(dial, vec![12, 10]);
    }

    #[test]
    fn object_spec_blanket_impl_delegates() {
        let spec: Arc<dyn ObjectSpec> = Arc::new(CoinSpec);
        assert!(spec.accepts(&[(flip(), Value::from(true))]));
        assert!(spec.op_is_read_only(&peek()));
        assert!(!spec.op_is_read_only(&flip()));
    }

    #[test]
    fn system_spec_lookup() {
        let x = ObjectId::new(1);
        let spec = SystemSpec::new().with_object(x, CoinSpec);
        assert!(spec.get(x).is_some());
        assert_eq!(spec.object_ids().count(), 1);
        assert!(format!("{spec:?}").contains("SystemSpec"));
    }

    #[test]
    fn operation_accessors() {
        let o = op("put", [1, 2]);
        assert_eq!(o.name(), "put");
        assert_eq!(o.args().len(), 2);
        assert_eq!(o.int_arg(0), Some(1));
        assert_eq!(o.int_arg(1), Some(2));
        assert_eq!(o.int_arg(2), None);
        assert_eq!(o.to_string(), "put(1,2)");
    }
}
