//! Online engines implementing the three local atomicity properties.
//!
//! Each engine wraps a [`atomicity_spec::SequentialSpec`] and exposes the
//! uniform [`crate::AtomicObject`] interface; each guarantees that the
//! histories it contributes to the shared [`crate::HistoryLog`] satisfy
//! the corresponding property of §4:
//!
//! - [`dynamic::DynamicObject`] — state-dependent admission over
//!   intentions lists; conflicts block (§4.1).
//! - [`static_ts::StaticObject`] — a timestamp-ordered operation log with
//!   replay validation, generalizing Reed's multi-version scheme (§4.2).
//! - [`hybrid::HybridObject`] — the dynamic engine for updates plus
//!   commit-timestamped versions served to read-only transactions (§4.3).
//!
//! What the three share lives here. Every engine has **one admission
//! step** ([`Engine::admission_step`]: decide, record, install — object
//! lock already held); [`attempt`] is that step once (`try_invoke`,
//! `admit_one`, each element of `admit_batch`) and [`invoke_blocking`] is
//! the only wait/die loop. The lock baselines and Reed's register
//! implement [`Engine`] as well, so they block, refuse and count exactly
//! as the engines do. `DynamicCore` with its
//! lock-guarded `Intentions` is the whole of §4.1:
//! [`dynamic::DynamicObject`] is nothing more, and
//! [`hybrid::HybridObject`] contains one and adds only what §4.3 adds.
//! [`replay_frontier`], [`replay_frontier_to`] and [`replay_into`] (the
//! specification crate's one frontier fold) and [`candidates`] are public
//! because the lock baselines defer and pick results the same way.

pub mod dynamic;
pub mod hybrid;
pub mod static_ts;

use crate::admission::{AdmissionOutcome, AdmissionRequest};
use crate::conflict::CommutesRel;
use crate::deadlock::WaitDecision;
use crate::error::TxnError;
use crate::log::HistoryLog;
use crate::manager::TxnManager;
use crate::sync::{Condvar, MutexGuard};
use crate::trace::{ObjectMetrics, Stopwatch};
use crate::txn::Txn;
use atomicity_spec::{ActivityId, Event, ObjectId, OpResult, Operation, SequentialSpec, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on concurrently checked intention lists; above it the
/// dynamic admission test conservatively blocks instead of deciding
/// whether every order of the lists replays.
pub(crate) const DEFAULT_MAX_CHECK: usize = 6;

/// The most a caller may raise that bound to: the state-dependent check
/// keeps one slot per subset of the lists, so the bound is also a bound
/// on memory (2^16 slots). A larger request is clamped, which only makes
/// the engine block where it would have checked.
const MAX_CHECK_CEILING: usize = 16;

/// How long a blocked invocation sleeps between admission retries (a
/// safety net on top of commit/abort notifications).
const WAIT_SLICE: Duration = Duration::from_millis(5);

pub use atomicity_spec::{replay_frontier, replay_frontier_to, replay_into};

/// The results `op` may return somewhere in `frontier`, without
/// duplicates and in the fixed order every engine and baseline grants
/// from (the first admissible one wins). Empty means the specification
/// never permits `op` here.
pub fn candidates<S: SequentialSpec>(
    spec: &S,
    frontier: &[S::State],
    op: &Operation,
) -> Vec<Value> {
    let mut found = Vec::new();
    candidates_to(spec, frontier, op, &mut found);
    found
}

/// [`candidates`] into `found`, which must come in empty.
fn candidates_to<S: SequentialSpec>(
    spec: &S,
    frontier: &[S::State],
    op: &Operation,
    found: &mut Vec<Value>,
) {
    for s in frontier {
        for (v, _) in spec.step(s, op) {
            if !found.contains(&v) {
                found.push(v);
            }
        }
    }
    found.sort();
}

/// The buffers the dynamic admission check works in, kept with the
/// [`Intentions`] under the object mutex so that a contended admission
/// allocates no lattice, no frontier and no candidate list once they have
/// grown. Every buffer is empty between calls — a call clears what it
/// used before it returns — so no state outlives the call, and install
/// and abort need not invalidate anything.
struct Scratch<S: SequentialSpec> {
    /// The subset programme's lattice: one slot per subset of the lists.
    reach: Vec<Vec<Vec<S::State>>>,
    /// Frontier buffers not in use.
    pool: Vec<Vec<S::State>>,
    /// The results the operation being admitted may return.
    results: Vec<Value>,
    /// The intentions list a caller without one tests its candidates on;
    /// it joins the pending lists on a grant.
    list: Vec<OpResult>,
}

impl<S: SequentialSpec> Default for Scratch<S> {
    fn default() -> Self {
        Scratch {
            reach: Vec::new(),
            pool: Vec::new(),
            results: Vec::new(),
            list: Vec::new(),
        }
    }
}

impl<S: SequentialSpec> Scratch<S> {
    /// An empty frontier buffer, from the pool when it has one.
    fn take(&mut self) -> Vec<S::State> {
        self.pool.pop().unwrap_or_default()
    }

    /// Empties `buffer` and puts it back in the pool.
    fn give(&mut self, mut buffer: Vec<S::State>) {
        buffer.clear();
        self.pool.push(buffer);
    }

    /// Whether **every** permutation of `lists` replays successfully from
    /// `frontier` — the admission invariant of the dynamic engine: all
    /// serialization orders of the active transactions must remain
    /// acceptable.
    ///
    /// A one-state frontier is first put to the specification's guard,
    /// [`SequentialSpec::every_order_replays`], whose answer is by contract
    /// the subset programme's verdict ([`Scratch::replay_all_orders`]);
    /// the bank account's costs one pass over the lists. The programme
    /// runs only where there is no answer: the default `None`, a wider
    /// frontier, an amount at the edge of `i64`.
    fn all_orders_replay(
        &mut self,
        spec: &S,
        frontier: &[S::State],
        lists: &[&[OpResult]],
    ) -> bool {
        if let [state] = frontier {
            if let Some(verdict) = spec.every_order_replays(state, lists) {
                return verdict;
            }
        }
        self.replay_all_orders(spec, frontier, lists)
    }

    /// [`Scratch::all_orders_replay`] by replaying the lists — the
    /// fallback, and the reference every guard is tested against.
    ///
    /// A dynamic programme over subsets, filled in depth first: `reach[mask]`
    /// holds the distinct frontiers that replaying exactly the lists in
    /// `mask`, in some order, has been seen to leave, and a frontier already
    /// there is not expanded again. Every (frontier, list) step some
    /// permutation takes is still taken, once, so the verdict is that of
    /// walking all the permutations, for any specification — and a refusal
    /// is met no later than that walk would meet it. Where effects commute on
    /// states each `reach[mask]` is a singleton and an acceptance costs
    /// K·2^(K−1) list replays, not about e·K!; where they do not, a frontier
    /// reached again with its states in another order is merely expanded
    /// again.
    ///
    /// Each list replays into a buffer from the pool; a refused frontier,
    /// or one `reach[mask]` already holds, goes straight back. The call
    /// uses the first 2^K slots of the lattice, and empties them into the
    /// pool before it returns. Callers keep `lists.len()` at or below
    /// [`MAX_CHECK_CEILING`].
    fn replay_all_orders(
        &mut self,
        spec: &S,
        frontier: &[S::State],
        lists: &[&[OpResult]],
    ) -> bool {
        /// Whether every order of the lists outside `mask` replays from
        /// `from`.
        fn expand<S: SequentialSpec>(
            spec: &S,
            lists: &[&[OpResult]],
            scratch: &mut Scratch<S>,
            mask: usize,
            from: &[S::State],
        ) -> bool {
            for (i, list) in lists.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let mut next = scratch.take();
                replay_frontier_to(spec, from, list, &mut next);
                let with = mask | 1 << i;
                if next.is_empty() {
                    // Some permutation with this prefix fails.
                    scratch.give(next);
                    return false;
                }
                if scratch.reach[with].contains(&next) {
                    scratch.give(next);
                    continue;
                }
                // Recorded after its expansion: masks only grow, so the
                // expansion cannot come back to `next`.
                if !expand(spec, lists, scratch, with, &next) {
                    scratch.give(next);
                    return false;
                }
                scratch.reach[with].push(next);
            }
            true
        }
        let slots = 1 << lists.len();
        if self.reach.len() < slots {
            self.reach.resize_with(slots, Vec::new);
        }
        let verdict = expand(spec, lists, self, 0, frontier);
        for mask in 0..slots {
            while let Some(reached) = self.reach[mask].pop() {
                self.give(reached);
            }
        }
        verdict
    }
}

/// The transactions other than `me` that hold intentions, with them.
fn holding(
    pending: &BTreeMap<ActivityId, Vec<OpResult>>,
    me: ActivityId,
) -> impl Iterator<Item = (&ActivityId, &Vec<OpResult>)> {
    pending
        .iter()
        .filter(move |(id, list)| **id != me && !list.is_empty())
}

/// The rejection for an operation the specification never permits.
fn invalid_operation(object: ObjectId, operation: &Operation) -> AdmissionOutcome {
    AdmissionOutcome::Rejected(TxnError::InvalidOperation {
        object,
        operation: operation.to_string(),
    })
}

/// What the shared entry points ([`attempt`], [`invoke_blocking`]) need
/// from an object: its one admission step over `G`, the state its mutex
/// guards. The lock baselines implement it too, so every blocking object
/// in the workspace waits in [`invoke_blocking`]. `G` is a parameter
/// rather than an associated type so that an implementor's guarded state
/// can stay private to its crate.
pub trait Engine<G> {
    /// The object's metrics handle (which also names the object).
    fn meter(&self) -> &ObjectMetrics;

    /// The engine's one admission step, object lock held: decide, and on
    /// a grant — or a refusal the protocol wants on the record — record
    /// the events and install the effect. `invoked` says the request's
    /// invoke event is already on the log (an earlier round of a blocking
    /// invoke put it there). A `Blocked` outcome records nothing, so a
    /// refused non-blocking attempt is as if it never happened.
    fn admission_step(
        &self,
        guarded: &mut G,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome;

    /// Puts on the log the invoke event of a request that now has to wait.
    fn record_invoke(&self, guarded: &mut G, request: &AdmissionRequest);
}

/// One step plus the bookkeeping every caller owes it: an admission is
/// timed against `invoke_sw`, and every `Blocked` outcome counts as one
/// block round, whichever entry point asked.
fn counted_step<G, E: Engine<G>>(
    engine: &E,
    guarded: &mut G,
    request: &AdmissionRequest,
    invoked: bool,
    invoke_sw: &Stopwatch,
) -> AdmissionOutcome {
    let outcome = engine.admission_step(guarded, request, invoked);
    match &outcome {
        AdmissionOutcome::Admitted(_) => engine.meter().record_admission(request.txn, invoke_sw),
        AdmissionOutcome::Blocked { .. } => engine.meter().record_block_round(request.txn),
        AdmissionOutcome::Rejected(_) => {}
    }
    outcome
}

/// One non-blocking admission attempt with the object lock held: the
/// whole of `try_invoke` and `admit_one`, and each element of
/// `admit_batch`.
pub fn attempt<G, E: Engine<G>>(
    engine: &E,
    guarded: &mut G,
    request: &AdmissionRequest,
) -> AdmissionOutcome {
    counted_step(engine, guarded, request, false, &engine.meter().stopwatch())
}

/// The blocking `invoke` of every object in the workspace, and its only
/// wait/die loop: step; while the step says `Blocked`, put the invoke
/// event on the log (once), ask the deadlock policy, and either die or
/// wait on `cv` for a commit or abort and step again. `invoke_sw` was
/// started when the invocation entered the object, so the recorded invoke
/// latency includes every round.
///
/// `guarded` must be the guard of the mutex that the object's participant
/// `commit` and `abort` take, and both must notify `cv`. Every
/// holder a `Blocked` outcome names is then active while the wait-for
/// edges are recorded: it is pending under that mutex, and the manager
/// runs a transaction's participant hooks before it clears its edges, so
/// no edge can point at a completed transaction.
pub fn invoke_blocking<G, E: Engine<G>>(
    engine: &E,
    txn: &Txn,
    request: &AdmissionRequest,
    guarded: &mut MutexGuard<'_, G>,
    cv: &Condvar,
    invoke_sw: &Stopwatch,
) -> Result<Value, TxnError> {
    let mut block_sw = Stopwatch::disarmed();
    let mut invoked = false;
    loop {
        let holders = match counted_step(engine, guarded, request, invoked, invoke_sw) {
            AdmissionOutcome::Admitted(v) => {
                if block_sw.is_armed() {
                    engine.meter().record_block_wait(&block_sw);
                }
                return Ok(v);
            }
            AdmissionOutcome::Rejected(e) => return Err(e),
            AdmissionOutcome::Blocked { holders } => holders,
        };
        if !invoked {
            engine.record_invoke(guarded, request);
            invoked = true;
        }
        match txn.request_wait(&holders) {
            WaitDecision::Die => {
                txn.clear_wait();
                engine.meter().record_deadlock_kill(request.txn);
                return Err(TxnError::Deadlock {
                    txn: request.txn,
                    object: engine.meter().object_id(),
                });
            }
            WaitDecision::Wait => {
                if !block_sw.is_armed() {
                    block_sw = engine.meter().stopwatch();
                }
                cv.wait_for(guarded, WAIT_SLICE);
                txn.clear_wait();
            }
        }
    }
}

/// The dynamic-atomicity engine proper (§4.1), minus the mutex: the parts
/// that never change. [`dynamic::DynamicObject`] is this plus a lock
/// around its [`Intentions`]; [`hybrid::HybridObject`] processes updates
/// through one "exactly as under dynamic atomicity" (§4.3).
pub(crate) struct DynamicCore<S: SequentialSpec> {
    pub(crate) id: ObjectId,
    pub(crate) spec: S,
    pub(crate) log: HistoryLog,
    pub(crate) metrics: ObjectMetrics,
    max_check: usize,
    /// Optional state-independent commutativity relation (a synthesized
    /// conflict table): operations that commute with every pending
    /// operation are admitted without permutation replay.
    table: Option<Arc<dyn CommutesRel>>,
}

/// What a [`DynamicCore`]'s owner keeps under the object mutex.
pub(crate) struct Intentions<S: SequentialSpec> {
    /// All abstract states consistent with the committed prefix (a set,
    /// because specifications may be non-deterministic). Invariant:
    /// non-empty.
    pub(crate) committed: Vec<S::State>,
    /// Intentions list per active transaction, in execution order.
    pub(crate) pending: BTreeMap<ActivityId, Vec<OpResult>>,
    /// The admission check's buffers, empty between calls.
    scratch: Scratch<S>,
}

impl<S: SequentialSpec> DynamicCore<S> {
    /// The core for object `id`, wired to the manager's history log and
    /// metrics, and the initial state to put under the owner's mutex.
    pub(crate) fn new(
        id: ObjectId,
        spec: S,
        mgr: &TxnManager,
        max_check: usize,
        table: Option<Arc<dyn CommutesRel>>,
    ) -> (Self, Intentions<S>) {
        let initial = Intentions {
            committed: vec![spec.initial()],
            pending: BTreeMap::new(),
            scratch: Scratch::default(),
        };
        let core = DynamicCore {
            id,
            spec,
            log: mgr.log(),
            metrics: mgr.metrics().object(id),
            max_check: max_check.min(MAX_CHECK_CEILING),
            table,
        };
        (core, initial)
    }

    /// The §4.1 admission test: `op` is admissible for `me` with result
    /// `v` only if every permutation of the active transactions'
    /// intentions lists (with `me`'s extended by `(op, v)`) replays from
    /// the committed frontier. On `Admitted(v)`, `(op, v)` has joined
    /// `me`'s intentions list; nothing has been recorded yet. Any other
    /// outcome leaves the lists as they were.
    fn decide_admit(
        &self,
        state: &mut Intentions<S>,
        me: ActivityId,
        op: &Operation,
    ) -> AdmissionOutcome {
        let Intentions {
            committed,
            pending,
            scratch,
        } = state;
        let mut results = std::mem::take(&mut scratch.results);
        match pending.get(&me) {
            Some(own) if !own.is_empty() => {
                let mut own_frontier = scratch.take();
                replay_frontier_to(&self.spec, committed, own, &mut own_frontier);
                debug_assert!(!own_frontier.is_empty(), "own intentions must replay");
                candidates_to(&self.spec, &own_frontier, op, &mut results);
                scratch.give(own_frontier);
            }
            _ => candidates_to(&self.spec, committed, op, &mut results),
        }
        let outcome = self.admit_first(state, me, op, &mut results);
        results.clear();
        state.scratch.results = results;
        outcome
    }

    /// The rest of [`DynamicCore::decide_admit`]: grants the first of
    /// `results` (the candidates, in order, all taken) that keeps every
    /// order of the intentions lists replaying.
    ///
    /// Each candidate is tested in place: `(op, v)` is pushed onto `me`'s
    /// own list, which the check reads beside the others', its result is
    /// swapped for the next candidate's on a refusal, and it is popped
    /// again if none is admissible. The entry tested is the entry kept.
    fn admit_first(
        &self,
        state: &mut Intentions<S>,
        me: ActivityId,
        op: &Operation,
        results: &mut [Value],
    ) -> AdmissionOutcome {
        let Intentions {
            committed,
            pending,
            scratch,
        } = state;
        if results.is_empty() {
            return invalid_operation(self.id, op);
        }
        // Table hit: a deterministic operation that commutes (per the
        // installed state-independent relation) with every pending
        // operation of every other active transaction replays identically
        // in all orders, so it is admissible without permutation
        // enumeration — and without the conservative block above
        // `max_check`. Misses fall through to the state-dependent check,
        // which is strictly more permissive than any table (two
        // withdrawals the balance covers), so the engine stays at least
        // as permissive as with no relation installed.
        let uncontended = holding(pending, me).next().is_none();
        let table_hit = !uncontended
            && results.len() == 1
            && self.table.as_ref().is_some_and(|table| {
                holding(pending, me)
                    .all(|(_, list)| list.iter().all(|(q, _)| table.commutes(op, q)))
            });
        if uncontended || table_hit {
            if table_hit {
                self.metrics.record_fast_admission();
            }
            let v = std::mem::take(&mut results[0]);
            pending.entry(me).or_default().push((op.clone(), v.clone()));
            return AdmissionOutcome::Admitted(v);
        }
        let blocked = |pending: &BTreeMap<ActivityId, Vec<OpResult>>| AdmissionOutcome::Blocked {
            holders: holding(pending, me).map(|(id, _)| *id).collect(),
        };

        // The other lists, then the caller's own: its pending list, or
        // the spare one if it has none yet.
        let mut spare = std::mem::take(&mut scratch.list);
        let mut mine = &mut spare;
        let mut lists: [&[OpResult]; MAX_CHECK_CEILING] = [&[]; MAX_CHECK_CEILING];
        let mut k = 0;
        for (id, list) in pending.iter_mut() {
            if *id == me {
                mine = list;
            } else if !list.is_empty() {
                if k + 1 >= self.max_check {
                    scratch.list = spare;
                    return blocked(pending);
                }
                lists[k] = list;
                k += 1;
            }
        }
        let mut results = results.iter_mut().map(std::mem::take);
        mine.push((op.clone(), results.next().expect("checked non-empty")));
        let admitted = loop {
            let mut with_mine = lists;
            with_mine[k] = mine;
            if scratch.all_orders_replay(&self.spec, committed, &with_mine[..=k]) {
                break true;
            }
            match results.next() {
                Some(v) => mine.last_mut().expect("the candidate just pushed").1 = v,
                None => break false,
            }
        };
        if !admitted {
            mine.pop();
            scratch.list = spare;
            return blocked(pending);
        }
        let v = mine.last().expect("the candidate admitted").1.clone();
        if spare.is_empty() {
            scratch.list = spare;
        } else {
            pending.insert(me, spare);
        }
        AdmissionOutcome::Admitted(v)
    }

    /// The one admission step (see [`Engine::admission_step`]): on a
    /// grant, the invoke (unless already logged) and respond events go on
    /// the log, `(op, v)` having joined the caller's intentions list.
    pub(crate) fn admission_step(
        &self,
        state: &mut Intentions<S>,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome {
        let me = request.txn;
        let outcome = self.decide_admit(state, me, &request.operation);
        if let AdmissionOutcome::Admitted(v) = &outcome {
            let invoke = (!invoked).then(|| Event::invoke(me, self.id, request.operation.clone()));
            self.log.record_all(
                invoke
                    .into_iter()
                    .chain([Event::respond(me, self.id, v.clone())]),
            );
        }
        outcome
    }

    /// See [`Engine::record_invoke`].
    pub(crate) fn record_invoke(&self, request: &AdmissionRequest) {
        self.log.record(Event::invoke(
            request.txn,
            self.id,
            request.operation.clone(),
        ));
    }

    /// Folds `txn`'s intentions list, if it has one, into the committed
    /// frontier.
    pub(crate) fn install(&self, state: &mut Intentions<S>, txn: ActivityId) {
        if let Some(list) = state.pending.remove(&txn) {
            let replayed = replay_into(&self.spec, &mut state.committed, &list);
            debug_assert!(replayed, "admitted intentions must replay at commit");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::specs::{
        BankAccountSpec, BoundedBufferSpec, CounterSpec, EscrowCounterSpec, FifoQueueSpec,
        IntSetSpec, KvMapSpec, RegisterSpec, SemiqueueSpec,
    };
    use atomicity_spec::{op, Value};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The admission check — guard, then subset programme — on a scratch
    /// of its own.
    fn all_orders_replay<S: SequentialSpec>(
        spec: &S,
        frontier: &[S::State],
        lists: &[&[OpResult]],
    ) -> bool {
        Scratch::default().all_orders_replay(spec, frontier, lists)
    }

    /// The permutation walk `replay_all_orders` was before it became a
    /// subset programme: depth-first through every order of the lists.
    /// Kept as the reference the programme's verdicts are checked against.
    fn every_permutation_replays<S: SequentialSpec>(
        spec: &S,
        frontier: &[S::State],
        lists: &[&[OpResult]],
    ) -> bool {
        fn rec<S: SequentialSpec>(
            spec: &S,
            frontier: &[S::State],
            lists: &[&[OpResult]],
            remaining: u32,
        ) -> bool {
            if remaining == 0 {
                return true;
            }
            for (i, list) in lists.iter().enumerate() {
                if remaining & (1 << i) == 0 {
                    continue;
                }
                let next = replay_frontier(spec, frontier, list);
                if next.is_empty() {
                    return false;
                }
                if !rec(spec, &next, lists, remaining & !(1 << i)) {
                    return false;
                }
            }
            true
        }
        rec(spec, frontier, lists, (1u32 << lists.len()) - 1)
    }

    /// A specification whose recorded results do not determine the state:
    /// `bump` answers `ok` and adds one *or* two, so frontiers grow into
    /// sets, `double` does not commute with it on states, and `below(n)`
    /// prunes the set by its recorded answer.
    struct HiddenChoiceSpec;

    impl SequentialSpec for HiddenChoiceSpec {
        type State = i64;

        fn initial(&self) -> i64 {
            1
        }

        fn step(&self, state: &i64, op: &Operation) -> Vec<(Value, i64)> {
            match (op.name(), op.int_arg(0)) {
                ("bump", None) => vec![(Value::ok(), state + 1), (Value::ok(), state + 2)],
                ("double", None) => vec![(Value::ok(), state * 2)],
                ("below", Some(n)) => vec![(Value::from(*state < n), *state)],
                _ => Vec::new(),
            }
        }
    }

    /// One intentions list as the generator draws it: (index into the
    /// operation universe, index into the results possible at that point).
    type Picks = Vec<(usize, usize)>;

    /// Extends `frontier` by the operations `picks` selects from
    /// `universe`, each with one of the results the specification permits
    /// there, and returns the list that got it there.
    fn draw_list<S: SequentialSpec>(
        spec: &S,
        universe: &[Operation],
        frontier: &mut Vec<S::State>,
        picks: &Picks,
    ) -> Vec<OpResult> {
        let mut list = Vec::new();
        for &(which, result) in picks {
            let operation = universe[which % universe.len()].clone();
            let possible = candidates(spec, frontier, &operation);
            let value = possible[result % possible.len()].clone();
            list.push((operation, value));
            *frontier = replay_frontier(spec, frontier, &list[list.len() - 1..]);
        }
        list
    }

    fn nullary(name: &str) -> Operation {
        Operation::new(name, [])
    }

    /// A property checked on one specification with a small universe of
    /// its operations.
    trait SpecProperty {
        fn check<S: SequentialSpec>(
            &self,
            name: &'static str,
            spec: S,
            universe: &[Operation],
        ) -> Result<(), TestCaseError>;
    }

    /// Checks `property` on every shipped specification but the map
    /// shard's (deterministic and not, keyed and not) and on
    /// `HiddenChoiceSpec`.
    fn every_spec(property: &impl SpecProperty) -> Result<(), TestCaseError> {
        let money = |add: &str, take: &str, read: &str| {
            vec![
                op(add, [1]),
                op(add, [2]),
                op(take, [1]),
                op(take, [2]),
                op(take, [3]),
                nullary(read),
            ]
        };
        property.check(
            "bank",
            BankAccountSpec::with_initial(4),
            &money("deposit", "withdraw", "balance"),
        )?;
        property.check(
            "escrow",
            EscrowCounterSpec::with_initial(4),
            &money("credit", "debit", "available"),
        )?;
        property.check(
            "counter",
            CounterSpec::new(),
            &[nullary("increment"), nullary("value")],
        )?;
        property.check(
            "register",
            RegisterSpec::new(),
            &[op("write", [1]), op("write", [2]), nullary("read")],
        )?;
        property.check(
            "set",
            IntSetSpec::new(),
            &[
                op("insert", [1]),
                op("insert", [2]),
                op("delete", [1]),
                op("member", [1]),
                nullary("size"),
            ],
        )?;
        property.check(
            "map",
            KvMapSpec::new(),
            &[
                op("put", [1, 1]),
                op("put", [1, 2]),
                op("adjust", [1, 1]),
                op("adjust", [2, -1]),
                op("add", [1, 1]),
                op("get", [1]),
                op("remove", [1]),
                nullary("size"),
                nullary("sum"),
            ],
        )?;
        property.check(
            "buffer",
            BoundedBufferSpec::with_capacity(3),
            &[
                op("put", [1]),
                op("put", [2]),
                nullary("take"),
                nullary("count"),
            ],
        )?;
        property.check(
            "fifo",
            FifoQueueSpec::new(),
            &[
                op("enqueue", [1]),
                op("enqueue", [2]),
                nullary("dequeue"),
                nullary("front"),
                nullary("len"),
            ],
        )?;
        property.check(
            "semiqueue",
            SemiqueueSpec::new(),
            &[
                op("enq", [1]),
                op("enq", [2]),
                nullary("deq"),
                nullary("count"),
            ],
        )?;
        property.check(
            "hidden choice",
            HiddenChoiceSpec,
            &[
                nullary("bump"),
                nullary("double"),
                op("below", [4]),
                op("below", [7]),
            ],
        )
    }

    /// How many generated cases each specification accepted and refused.
    static VERDICTS: Mutex<BTreeMap<&str, [usize; 2]>> = Mutex::new(BTreeMap::new());

    /// For each case, builds a committed frontier from its prefix and,
    /// from that, pending lists that each replay on their own (as admitted
    /// intentions do), and holds the subset programme, and the check that
    /// asks the specification's guard first, to the permutation walk's
    /// verdict. One scratch serves every case, forwards and then
    /// backwards, so the number of lists rises and falls across the calls
    /// that share it: a lattice slot one call left behind would show as a
    /// wrong verdict in a later one.
    struct VerdictsAgree<'a> {
        cases: &'a [(Picks, Vec<Picks>)],
    }

    impl SpecProperty for VerdictsAgree<'_> {
        fn check<S: SequentialSpec>(
            &self,
            name: &'static str,
            spec: S,
            universe: &[Operation],
        ) -> Result<(), TestCaseError> {
            let mut scratch = Scratch::default();
            for (prefix, pending) in self.cases.iter().chain(self.cases.iter().rev()) {
                let mut committed = vec![spec.initial()];
                draw_list(&spec, universe, &mut committed, prefix);
                let lists: Vec<Vec<OpResult>> = pending
                    .iter()
                    .map(|picks| draw_list(&spec, universe, &mut committed.clone(), picks))
                    .collect();
                let lists: Vec<&[OpResult]> = lists.iter().map(Vec::as_slice).collect();
                let expected = every_permutation_replays(&spec, &committed, &lists);
                prop_assert_eq!(
                    scratch.replay_all_orders(&spec, &committed, &lists),
                    expected
                );
                prop_assert_eq!(
                    scratch.all_orders_replay(&spec, &committed, &lists),
                    expected
                );
                VERDICTS
                    .lock()
                    .expect("no case panics holding it")
                    .entry(name)
                    .or_default()[usize::from(expected)] += 1;
            }
            Ok(())
        }
    }

    proptest! {
        fn subset_programme_matches_the_permutation_walk(
            cases in prop::collection::vec(
                (
                    prop::collection::vec((0..64usize, 0..8usize), 0..4),
                    prop::collection::vec(
                        prop::collection::vec((0..64usize, 0..8usize), 0..=3),
                        0..=5,
                    ),
                ),
                1..=4,
            ),
        ) {
            every_spec(&VerdictsAgree { cases: &cases })?;
        }
    }

    #[test]
    fn subset_programme_gives_the_permutation_walks_verdicts() {
        subset_programme_matches_the_permutation_walk();
        let verdicts = VERDICTS.lock().expect("no case panics holding it");
        assert_eq!(verdicts.len(), 10);
        for (name, [refused, accepted]) in verdicts.iter() {
            assert!(
                *refused > 0 && *accepted > 0,
                "{name}: {refused} refused, {accepted} accepted — one side untested"
            );
        }
    }

    /// How often each specification's `apply` answered `Some(true)`,
    /// `Some(false)` and `None`.
    static ANSWERS: Mutex<BTreeMap<&str, [usize; 3]>> = Mutex::new(BTreeMap::new());

    /// Holds `apply` to what `step` says on one drawn case: a state some
    /// accepted prefix reaches, an operation of the universe or an
    /// ill-typed one under a universe name, and a result that some
    /// operation of the universe returns in that state, or `nil`, or a
    /// symbol none returns.
    struct ApplyAgreesWithStep<'a> {
        prefix: &'a Picks,
        pick: (usize, usize, usize),
    }

    impl SpecProperty for ApplyAgreesWithStep<'_> {
        fn check<S: SequentialSpec>(
            &self,
            name: &'static str,
            spec: S,
            universe: &[Operation],
        ) -> Result<(), TestCaseError> {
            let (state, operation, result) = self.pick;
            let mut frontier = vec![spec.initial()];
            draw_list(&spec, universe, &mut frontier, self.prefix);
            let state = &frontier[state % frontier.len()];
            let which = operation % (2 * universe.len());
            let op = match universe.get(which) {
                Some(op) => op.clone(),
                None => Operation::new(universe[which - universe.len()].name(), [Value::sym("x")]),
            };
            let mut results: Vec<Value> = universe
                .iter()
                .flat_map(|o| spec.step(state, o))
                .map(|(v, _)| v)
                .collect();
            results.extend([Value::Nil, Value::sym("wrong")]);
            let expected = &results[result % results.len()];

            let mut reached: Vec<S::State> = Vec::new();
            for (v, next) in spec.step(state, &op) {
                if &v == expected && !reached.contains(&next) {
                    reached.push(next);
                }
            }
            let (want, after) = match reached.as_slice() {
                [] => (Some(false), state),
                [only] => (Some(true), only),
                _ => (None, state),
            };
            let mut moved = state.clone();
            let answer = spec.apply(&mut moved, &op, expected);
            prop_assert!(
                answer == want && moved == *after,
                "{name}: apply({op} -> {expected}) on {state:?} answered {answer:?} leaving \
                 {moved:?}; step says {want:?} leaving {after:?}"
            );
            let slot = match answer {
                Some(true) => 0,
                Some(false) => 1,
                None => 2,
            };
            ANSWERS
                .lock()
                .expect("no case panics holding it")
                .entry(name)
                .or_default()[slot] += 1;
            Ok(())
        }
    }

    proptest! {
        fn apply_matches_step(
            prefix in prop::collection::vec((0..64usize, 0..8usize), 0..6),
            pick in (0..8usize, 0..64usize, 0..64usize),
        ) {
            every_spec(&ApplyAgreesWithStep { prefix: &prefix, pick })?;
        }
    }

    #[test]
    fn apply_gives_steps_answer_on_every_spec() {
        apply_matches_step();
        let answers = ANSWERS.lock().expect("no case panics holding it");
        assert_eq!(answers.len(), 10);
        for (name, [moved, refused, open]) in answers.iter() {
            assert!(
                *moved > 0 && *refused > 0,
                "{name}: {moved} moved, {refused} refused, {open} open — one side untested"
            );
        }
        assert!(
            answers.values().any(|[_, _, open]| *open > 0),
            "no specification left a result open"
        );
    }

    /// Counts `step` calls. Over one-operation lists and one-state
    /// frontiers that is the number of list replays. It passes the inner
    /// specification's guard on only if `guarded`.
    struct CountingSpec<S> {
        inner: S,
        steps: AtomicUsize,
        guarded: bool,
    }

    impl<S: SequentialSpec> SequentialSpec for CountingSpec<S> {
        type State = S::State;

        fn initial(&self) -> S::State {
            self.inner.initial()
        }

        fn step(&self, state: &S::State, op: &Operation) -> Vec<(Value, S::State)> {
            self.steps.fetch_add(1, Ordering::Relaxed);
            self.inner.step(state, op)
        }

        fn every_order_replays(&self, state: &S::State, lists: &[&[OpResult]]) -> Option<bool> {
            if self.guarded {
                self.inner.every_order_replays(state, lists)
            } else {
                None
            }
        }
    }

    #[test]
    fn covered_withdrawals_cost_k_times_two_to_the_k_minus_one_replays() {
        // K withdrawals of 1: covered by a balance of K, and one short of
        // it at K − 1, which only the last list of an order finds out. The
        // permutation walk took 64 and 1 956 replays to accept and, like
        // the programme, K to refuse. The bank account's guard replays
        // none, and gives the same verdicts.
        for (k, to_accept) in [(4, 32), (6, 192)] {
            for (balance, replays) in [(k, to_accept), (k - 1, k)] {
                for guarded in [false, true] {
                    let spec = CountingSpec {
                        inner: BankAccountSpec::new(),
                        steps: AtomicUsize::new(0),
                        guarded,
                    };
                    let withdrawal = [(op("withdraw", [1]), Value::ok())];
                    let lists = vec![&withdrawal[..]; k];
                    let accepted = all_orders_replay(&spec, &[balance as i64], &lists);
                    assert_eq!(accepted, balance == k);
                    assert_eq!(
                        spec.steps.load(Ordering::Relaxed),
                        if guarded { 0 } else { replays },
                        "K = {k}, balance {balance}, guarded: {guarded}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_frontier_tracks_nondeterministic_branches() {
        let q = SemiqueueSpec::new();
        let initial = vec![q.initial()];
        let after = replay_frontier(
            &q,
            &initial,
            &[(op("enq", [1]), Value::ok()), (op("enq", [2]), Value::ok())],
        );
        assert_eq!(after.len(), 1);
        // A deq with unrecorded choice: both branches survive via two
        // different recorded values.
        let branch1 = replay_frontier(&q, &after, &[(op("deq", [] as [i64; 0]), Value::from(1))]);
        let branch2 = replay_frontier(&q, &after, &[(op("deq", [] as [i64; 0]), Value::from(2))]);
        assert_eq!(branch1.len(), 1);
        assert_eq!(branch2.len(), 1);
        assert_ne!(branch1, branch2);
    }

    #[test]
    fn all_orders_replay_bank_examples() {
        let spec = BankAccountSpec::new();
        let base = vec![10i64];
        let b: Vec<_> = vec![(op("withdraw", [4]), Value::ok())];
        let c: Vec<_> = vec![(op("withdraw", [3]), Value::ok())];
        // Enough money for both orders.
        assert!(all_orders_replay(&spec, &base, &[&b, &c]));
        // Balance 5: withdraw(4)+withdraw(3) cannot both be ok in either
        // order.
        let tight = vec![5i64];
        assert!(!all_orders_replay(&spec, &tight, &[&b, &c]));
        // Withdraw needing a concurrent uncommitted deposit: fails the
        // order where the withdrawal goes first.
        let poor = vec![2i64];
        let dep: Vec<_> = vec![(op("deposit", [5]), Value::ok())];
        let wd: Vec<_> = vec![(op("withdraw", [3]), Value::ok())];
        assert!(!all_orders_replay(&spec, &poor, &[&dep, &wd]));
    }

    #[test]
    fn all_orders_replay_empty_is_true() {
        let spec = BankAccountSpec::new();
        assert!(all_orders_replay(&spec, &[0i64], &[]));
    }

    /// `Balance` values alive anywhere; only `scratch_keeps_no_state_past_the_call`
    /// makes them.
    static LIVE_BALANCES: AtomicUsize = AtomicUsize::new(0);

    /// A balance that counts its live copies.
    #[derive(Debug, PartialEq)]
    struct Balance(i64);

    impl Balance {
        fn new(amount: i64) -> Self {
            LIVE_BALANCES.fetch_add(1, Ordering::SeqCst);
            Balance(amount)
        }
    }

    impl Clone for Balance {
        fn clone(&self) -> Self {
            Balance::new(self.0)
        }
    }

    impl Drop for Balance {
        fn drop(&mut self) {
            LIVE_BALANCES.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// [`BankAccountSpec`] over counted balances.
    struct CountedBank;

    impl SequentialSpec for CountedBank {
        type State = Balance;

        fn initial(&self) -> Balance {
            Balance::new(2)
        }

        fn step(&self, state: &Balance, op: &Operation) -> Vec<(Value, Balance)> {
            BankAccountSpec::new()
                .step(&state.0, op)
                .into_iter()
                .map(|(v, next)| (v, Balance::new(next)))
                .collect()
        }
    }

    #[test]
    fn scratch_keeps_no_state_past_the_call() {
        use crate::{AtomicObject, DynamicObject, Protocol, TxnError, TxnManager};
        let mgr = TxnManager::new(Protocol::Dynamic);
        let account = DynamicObject::new(ObjectId::new(1), CountedBank, &mgr);
        let withdraw = || op("withdraw", [1]);
        let (a, b, c) = (mgr.begin(), mgr.begin(), mgr.begin());
        assert_eq!(LIVE_BALANCES.load(Ordering::SeqCst), 1);
        // Each grant after the first runs the subset programme; the third
        // withdrawal is one the balance of 2 cannot cover in every order.
        assert_eq!(account.try_invoke(&a, withdraw()), Ok(Value::ok()));
        assert_eq!(account.try_invoke(&b, withdraw()), Ok(Value::ok()));
        assert_eq!(
            LIVE_BALANCES.load(Ordering::SeqCst),
            1,
            "after a contended grant only the committed frontier is alive"
        );
        assert!(matches!(
            account.try_invoke(&c, withdraw()),
            Err(TxnError::WouldBlock { .. })
        ));
        assert_eq!(
            LIVE_BALANCES.load(Ordering::SeqCst),
            1,
            "after a contended block only the committed frontier is alive"
        );
        // A transaction with intentions of its own replays them first.
        assert_eq!(account.try_invoke(&a, op("deposit", [1])), Ok(Value::ok()));
        assert_eq!(LIVE_BALANCES.load(Ordering::SeqCst), 1);
        mgr.commit(a).expect("a commits");
        mgr.commit(b).expect("b commits");
        mgr.abort(c);
        assert_eq!(account.committed_states(), vec![Balance(1)]);
    }
}
