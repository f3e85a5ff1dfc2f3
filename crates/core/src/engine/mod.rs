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
//! What the three share lives here (crate-private). Every engine has
//! **one admission step** (`Engine::admission_step`: decide, record,
//! install — object lock already held); `attempt` is that step once
//! (`try_invoke`, `admit_one`, each element of `admit_batch`) and
//! `invoke_blocking` is the only wait/die loop. `DynamicCore` with its
//! lock-guarded `Intentions` is the whole of §4.1:
//! [`dynamic::DynamicObject`] is nothing more, and
//! [`hybrid::HybridObject`] contains one and adds only what §4.3 adds.
//! [`replay_frontier`] and [`candidates`] are public because the lock
//! baselines defer and pick results the same way.

pub mod dynamic;
pub mod hybrid;
pub mod static_ts;

use crate::admission::{AdmissionOutcome, AdmissionRequest};
use crate::conflict::CommutesRel;
use crate::deadlock::WaitDecision;
use crate::error::TxnError;
use crate::log::HistoryLog;
use crate::manager::TxnManager;
use crate::trace::{ObjectMetrics, Stopwatch};
use crate::txn::Txn;
use atomicity_spec::{ActivityId, Event, ObjectId, OpResult, Operation, SequentialSpec, Value};
use parking_lot::{Condvar, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on concurrently checked intention lists; above it the
/// dynamic admission test conservatively blocks instead of enumerating
/// permutations.
pub(crate) const DEFAULT_MAX_CHECK: usize = 6;

/// How long a blocked invocation sleeps between admission retries (a
/// safety net on top of commit/abort notifications).
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// Applies `ops` to every state in `frontier`, collecting all reachable
/// states in which each operation returned its recorded result.
///
/// The frontier-set representation is what makes non-deterministic
/// specifications (§5.2) compose correctly: committing a transaction never
/// collapses the object's abstract state to one arbitrary branch.
pub fn replay_frontier<S: SequentialSpec>(
    spec: &S,
    frontier: &[S::State],
    ops: &[OpResult],
) -> Vec<S::State> {
    let mut states: Vec<S::State> = frontier.to_vec();
    for (op, expected) in ops {
        let mut next: Vec<S::State> = Vec::new();
        for s in &states {
            for (value, s2) in spec.step(s, op) {
                if &value == expected && !next.contains(&s2) {
                    next.push(s2);
                }
            }
        }
        if next.is_empty() {
            return Vec::new();
        }
        states = next;
    }
    states
}

/// The results `op` may return somewhere in `frontier`, without
/// duplicates and in the fixed order every engine and baseline grants
/// from (the first admissible one wins). Empty means the specification
/// never permits `op` here.
pub fn candidates<S: SequentialSpec>(
    spec: &S,
    frontier: &[S::State],
    op: &Operation,
) -> Vec<Value> {
    let mut found: Vec<Value> = Vec::new();
    for s in frontier {
        for (v, _) in spec.step(s, op) {
            if !found.contains(&v) {
                found.push(v);
            }
        }
    }
    found.sort();
    found
}

/// Whether **every** permutation of `lists` replays successfully from
/// `frontier` — the admission invariant of the dynamic engine: all
/// serialization orders of the active transactions must remain acceptable.
fn all_orders_replay<S: SequentialSpec>(
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
                // Some permutation starting with this prefix fails.
                return false;
            }
            if !rec(spec, &next, lists, remaining & !(1 << i)) {
                return false;
            }
        }
        true
    }
    debug_assert!(lists.len() <= 31);
    rec(spec, frontier, lists, (1u32 << lists.len()) - 1)
}

/// The rejection for an operation the specification never permits.
fn invalid_operation(object: ObjectId, operation: &Operation) -> AdmissionOutcome {
    AdmissionOutcome::Rejected(TxnError::InvalidOperation {
        object,
        operation: operation.to_string(),
    })
}

/// What the shared entry points ([`attempt`], [`invoke_blocking`]) need
/// from an engine.
pub(crate) trait Engine {
    /// What the engine's object mutex guards.
    type Guarded;

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
        guarded: &mut Self::Guarded,
        request: &AdmissionRequest,
        invoked: bool,
    ) -> AdmissionOutcome;

    /// Puts on the log the invoke event of a request that now has to wait.
    fn record_invoke(&self, guarded: &mut Self::Guarded, request: &AdmissionRequest);
}

/// One step plus the bookkeeping every caller owes it: an admission is
/// timed against `invoke_sw`, and every `Blocked` outcome counts as one
/// block round, whichever entry point asked.
fn counted_step<E: Engine>(
    engine: &E,
    guarded: &mut E::Guarded,
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
pub(crate) fn attempt<E: Engine>(
    engine: &E,
    guarded: &mut E::Guarded,
    request: &AdmissionRequest,
) -> AdmissionOutcome {
    counted_step(engine, guarded, request, false, &engine.meter().stopwatch())
}

/// The blocking `invoke` of every engine: step; while the step says
/// `Blocked`, put the invoke event on the log (once), ask the deadlock
/// policy, and either die or wait on `cv` for a commit or abort and step
/// again. `invoke_sw` was started when the invocation entered the object,
/// so the recorded invoke latency includes every round.
pub(crate) fn invoke_blocking<E: Engine>(
    engine: &E,
    txn: &Txn,
    request: &AdmissionRequest,
    guarded: &mut MutexGuard<'_, E::Guarded>,
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
        };
        let core = DynamicCore {
            id,
            spec,
            log: mgr.log(),
            metrics: mgr.metrics().object(id),
            max_check,
            table,
        };
        (core, initial)
    }

    /// The §4.1 admission test: `op` is admissible for `me` with result
    /// `v` only if every permutation of the active transactions'
    /// intentions lists (with `me`'s extended by `(op, v)`) replays from
    /// the committed frontier. `Admitted` here means *admissible* —
    /// nothing has been recorded or installed yet.
    fn decide_admit(
        &self,
        state: &Intentions<S>,
        me: ActivityId,
        op: &Operation,
    ) -> AdmissionOutcome {
        let own: &[OpResult] = state.pending.get(&me).map_or(&[], Vec::as_slice);
        let own_frontier = replay_frontier(&self.spec, &state.committed, own);
        debug_assert!(!own_frontier.is_empty(), "own intentions must replay");
        let mut results = candidates(&self.spec, &own_frontier, op);
        if results.is_empty() {
            return invalid_operation(self.id, op);
        }

        let others: Vec<(ActivityId, &[OpResult])> = state
            .pending
            .iter()
            .filter(|(id, list)| **id != me && !list.is_empty())
            .map(|(id, list)| (*id, list.as_slice()))
            .collect();
        if others.is_empty() {
            return AdmissionOutcome::Admitted(results.remove(0));
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
        if results.len() == 1 {
            if let Some(table) = &self.table {
                if others
                    .iter()
                    .all(|(_, list)| list.iter().all(|(q, _)| table.commutes(op, q)))
                {
                    self.metrics.record_fast_admission();
                    return AdmissionOutcome::Admitted(results.remove(0));
                }
            }
        }
        let blocked = || AdmissionOutcome::Blocked {
            holders: others.iter().map(|(id, _)| *id).collect(),
        };
        if others.len() + 1 > self.max_check {
            return blocked();
        }
        for v in results {
            let mut mine = own.to_vec();
            mine.push((op.clone(), v.clone()));
            let mut lists: Vec<&[OpResult]> = others.iter().map(|(_, list)| *list).collect();
            lists.push(&mine);
            if all_orders_replay(&self.spec, &state.committed, &lists) {
                return AdmissionOutcome::Admitted(v);
            }
        }
        blocked()
    }

    /// The one admission step (see [`Engine::admission_step`]): on a
    /// grant, the invoke (unless already logged) and respond events go on
    /// the log and `(op, v)` joins the caller's intentions list.
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
            state
                .pending
                .entry(me)
                .or_default()
                .push((request.operation.clone(), v.clone()));
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
            let next = replay_frontier(&self.spec, &state.committed, &list);
            debug_assert!(
                !next.is_empty(),
                "admitted intentions must replay at commit"
            );
            if !next.is_empty() {
                state.committed = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::specs::{BankAccountSpec, SemiqueueSpec};
    use atomicity_spec::{op, Value};

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
}
