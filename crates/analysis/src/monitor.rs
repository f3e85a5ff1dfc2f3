//! The atomicity certifier: the one procedure that decides a
//! [`Certificate`], consuming a stamped event stream one event at a time.
//! Live runs feed it the recorder's stamp stream;
//! [`certify()`](crate::certify()) feeds it a merged history's events at
//! their positions, retaining everything.
//!
//! # The watermark argument
//!
//! `⟨a,b⟩ ∈ precedes(h)` iff some response of `b` comes after a commit of
//! `a` — equivalently, `firstcommit(a) < lastresp(b)` in stream
//! positions. Under the paper's basic discipline every committed
//! activity's responses all precede its first commit, which gives the
//! relation a *watermark* shape: it is transitive, acyclic (`⟨a,b⟩`
//! implies `firstcommit(a) < firstcommit(b)`), and restricted to any set
//! of activities it is total iff each adjacent pair in commit order is
//! related. So the monitor keeps, per open activity, its last-response
//! stamp — the vector clock each new commit's `precedes` edges are read
//! off — and per object the committed activities in commit order.
//!
//! # Branches
//!
//! Per object, dynamic atomicity is decided by one of these branches, and
//! the certificate's [`Method`] names the one that decided it:
//!
//! - **Watermark.** A total induced order has exactly one consistent
//!   serial order, replayed into an incremental [`StateReplayer`]
//!   frontier. A genuinely partial one with at most `MAX_LOCAL_ENUM`
//!   activities is decided by enumerating its linear extensions over
//!   forks of the frontier — sound because the projections of the global
//!   order's extensions onto an object's activities are exactly the
//!   extensions of the induced suborder.
//! - **Table reduction.** Past that bound, when every incomparable pair
//!   of activities holds pairwise-commuting operations per a
//!   [`CommutesRel`], every extension replays to the same behavior and
//!   the commit-order extension decides them all; the certified
//!   direction trusts the table. It streams: a later activity `b` is
//!   incomparable with an earlier `a` iff `firstcommit(a) > lastresp(b)`,
//!   so per distinct operation the folded holder with the maximum
//!   first-commit stamp witnesses any conflict. A conflict, or no
//!   relation at all, leaves the object [`Verdict::Unknown`].
//! - **Exhaustive.** A stream outside the basic discipline (a response
//!   after its activity's commit, or a stamp regression) voids the
//!   argument. The retaining monitor decides it with the oracle,
//!   [`is_dynamic_atomic`] over its event mirror, up to
//!   `MAX_FALLBACK_ACTIVITIES` committed activities, and answers
//!   [`Verdict::Unknown`] above.
//!
//! A refutation on one object dominates an unknown on another. Static
//! and hybrid atomicity need no such machinery: committed activities
//! drain into per-object frontiers in `(timestamp, activity)` order once
//! no earlier key can still arrive, the **timestamp-order** check. A
//! timestamp arriving below the drained watermark, or a response after
//! commit, steps outside that discipline, and the retaining monitor then
//! runs [`is_static_atomic`] or [`is_hybrid_atomic`] over its mirror, a
//! timestamp-order check too.
//!
//! # Retirement
//!
//! [`OnlineCertifier::new`] keeps memory bounded by the open-transaction
//! footprint. Committed activities *retire*: the front activity `f` of an
//! object's commit-ordered window folds into the frontier and is dropped
//! once the window's induced order is (so far) total and no open activity
//! with operations on the object last responded before `firstcommit(f)` —
//! every later joiner must respond after `f`'s commit, which puts
//! `⟨f, joiner⟩` in `precedes` for good. Aborted activities are dropped,
//! so a later commit of one is outside what the retiring monitor can
//! replay. Such streams, like every stream outside the basic discipline,
//! answer [`Verdict::Unknown`] when retiring.
//!
//! [`OnlineCertifier::new_retaining`] retires nothing: it sets an aborted
//! activity's state aside until its next event (an activity with a
//! commit event counts as committed in `perm(h)` whatever precedes it)
//! and mirrors every event, so it decides arbitrary event soups. On
//! disciplined streams the two modes agree.
//!
//! # Cost per event
//!
//! An event costs the same over 512 objects as over 2: every lookup
//! keyed by object, and the lookup of the event's open activity, is a
//! hash lookup. The open activities, the object sets the certificate
//! counts, the per-object dynamic monitors and the timestamp replayers
//! sit in std hash maps under a fixed SipHash hasher, never a
//! per-process random one, so seeded replays stay reproducible; an open
//! activity's own per-object state is a few sorted vectors (`ActState`).
//! What stays ordered is what an order reaches or what bounds memory:
//! the timestamp drain queue, whose order *is* the check; a summarized
//! object's per-operation holders, whose walk picks the conflict
//! witness; and the committed and aborted activity sets, whose few
//! coalesced id runs (`IdSet`) are what keeps them from growing with the
//! stream. Conclusion walks the dynamic monitors in `ObjectId` order, so
//! the object a refutation names, and the violation it flags, do not
//! depend on how the map lays them out. Per commit the monitor still
//! scans the open activities for the retirement and drain watermarks:
//! linear in the open-transaction footprint, not in the stream.

use crate::certify::{Certificate, Method, Property, Verdict, Violation};
use crate::idset::IdSet;
use atomicity_core::CommutesRel;
use atomicity_spec::atomicity::{is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
use atomicity_spec::{
    ActivityId, Event, EventKind, History, ObjectId, ObjectSpec, OpResult, Operation,
    StateReplayer, SystemSpec, Timestamp,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

/// std's SipHash under its fixed default keys: a hash map keyed by object
/// or activity costs the same on every run, and never by a per-process
/// random seed, so seeded replays that run the monitor stay reproducible.
/// The keys are the object and activity identifiers of the program's own
/// histories, not outside input, so the fixed keys give up no protection
/// against crafted collisions.
type FixedHasher = BuildHasherDefault<DefaultHasher>;
type FixedMap<K, V> = HashMap<K, V, FixedHasher>;
type FixedSet<K> = HashSet<K, FixedHasher>;

/// Maximum activities per object for which a genuinely partial induced
/// order is resolved by enumerating its linear extensions (at most `6! =
/// 720` replays).
const MAX_LOCAL_ENUM: usize = 6;

/// Maximum committed activities for which the retaining monitor hands a
/// stream outside the basic discipline to the exhaustive dynamic checker
/// instead of answering [`Verdict::Unknown`].
const MAX_FALLBACK_ACTIVITIES: usize = 7;

/// How far outside the basic discipline the stream stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pathology {
    /// A response event arrived for an already-committed activity.
    RespondAfterCommit,
    /// A commit event arrived for an already-aborted activity (retiring
    /// mode only: the retaining one keeps the activity's state).
    CommitAfterAbort,
    /// A timestamp at or below the drained watermark arrived after the
    /// timestamp-ordered replay had advanced past it.
    TimestampRegression,
    /// Stamps arrived out of order — a tap protocol error, not a property
    /// of the history.
    StampRegression,
}

impl Pathology {
    fn describe(self) -> &'static str {
        match self {
            Pathology::RespondAfterCommit => "a response event followed the activity's commit",
            Pathology::CommitAfterAbort => "a commit event followed the activity's abort",
            Pathology::TimestampRegression => {
                "a timestamp regressed below the drained replay watermark"
            }
            Pathology::StampRegression => "the stamp stream was not strictly increasing",
        }
    }
}

/// Live state of an activity that has neither committed nor aborted.
///
/// An activity touches a handful of objects, so its per-object state is
/// kept in small vectors sorted by object, not in maps: an invocation
/// allocates no tree node, and a finished activity's buffers serve the
/// next one (`OnlineCertifier::recycle`).
#[derive(Default, Clone)]
struct ActState {
    /// Invocations awaiting a response, sorted by object.
    pending: Vec<(ObjectId, Operation)>,
    /// Completed operations, per object, in response order.
    ops: OpsByObject,
    /// Objects participating in any of the activity's events so far,
    /// sorted.
    touched: Vec<ObjectId>,
    /// Stamp of the latest response event, across all objects.
    last_resp: Option<u64>,
    /// First timestamp event (initiation or timestamped commit).
    ts: Option<Timestamp>,
}

impl ActState {
    fn retained(&self) -> usize {
        self.pending.len() + self.ops.len()
    }

    fn touch(&mut self, x: ObjectId) {
        if let Err(at) = self.touched.binary_search(&x) {
            self.touched.insert(at, x);
        }
    }

    /// Records an invocation on `x`; returns whether none was pending
    /// there.
    fn invoke(&mut self, x: ObjectId, op: &Operation) -> bool {
        match self.pending.binary_search_by_key(&x, |(y, _)| *y) {
            Ok(at) => {
                self.pending[at].1 = op.clone();
                false
            }
            Err(at) => {
                self.pending.insert(at, (x, op.clone()));
                true
            }
        }
    }

    /// Takes the invocation pending on `x`, if any.
    fn take_pending(&mut self, x: ObjectId) -> Option<Operation> {
        let at = self.pending.binary_search_by_key(&x, |(y, _)| *y).ok()?;
        Some(self.pending.remove(at).1)
    }

    /// Forgets the activity, keeping the buffers.
    fn clear(&mut self) {
        self.pending.clear();
        self.ops.clear();
        self.touched.clear();
        self.last_resp = None;
        self.ts = None;
    }
}

/// An activity's completed operations grouped by object: objects in
/// order, each object's operations in response order, held in two flat
/// vectors so that one object's operations are a slice.
#[derive(Default, Clone)]
struct OpsByObject {
    /// The object of each operation, sorted.
    objects: Vec<ObjectId>,
    ops: Vec<OpResult>,
}

impl OpsByObject {
    /// Appends `op` after the earlier operations on `x`.
    fn push(&mut self, x: ObjectId, op: OpResult) {
        let at = self.objects.partition_point(|&y| y <= x);
        self.objects.insert(at, x);
        self.ops.insert(at, op);
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn holds(&self, x: ObjectId) -> bool {
        self.objects.binary_search(&x).is_ok()
    }

    fn clear(&mut self) {
        self.objects.clear();
        self.ops.clear();
    }

    /// Each object with its operations, in object order.
    fn groups(&self) -> impl Iterator<Item = (ObjectId, &[OpResult])> + '_ {
        let mut start = 0;
        std::iter::from_fn(move || {
            let &x = self.objects.get(start)?;
            let end = start + self.objects[start..].partition_point(|&y| y == x);
            let group = (x, &self.ops[start..end]);
            start = end;
            Some(group)
        })
    }

    /// [`groups`](Self::groups), moving the operations out and leaving
    /// the buffers empty.
    fn drain_groups(&mut self) -> impl Iterator<Item = (ObjectId, Vec<OpResult>)> + '_ {
        let mut objects = self.objects.drain(..).peekable();
        let mut ops = self.ops.drain(..);
        std::iter::from_fn(move || {
            let x = objects.next()?;
            let mut n = 1;
            while objects.next_if_eq(&x).is_some() {
                n += 1;
            }
            Some((x, ops.by_ref().take(n).collect()))
        })
    }
}

/// A committed activity held in an object's unretired window.
#[derive(Clone)]
struct WinAct {
    act: ActivityId,
    /// Stamp of the activity's first commit event.
    fc: u64,
    /// Stamp of the activity's last response event.
    lr: u64,
    ops: Vec<OpResult>,
}

/// Why an object's verdict is already pinned regardless of further events.
#[derive(Clone)]
enum Pinned {
    /// Committed operations on an unspecified object.
    NoSpec,
    /// Genuinely partial induced order past the enumeration bound, no
    /// commutativity relation supplied.
    UnknownNoRel,
    /// Genuinely partial induced order past the enumeration bound, and a
    /// concurrent pair holds non-commuting operations.
    UnknownNonCommuting(ActivityId, ActivityId),
}

/// The per-object streaming machine for dynamic atomicity.
struct ObjectMonitor {
    x: ObjectId,
    spec: Option<Arc<dyn ObjectSpec>>,
    /// Reachable-state frontier over everything folded so far; created on
    /// first fold. `None` with `retired == 0` means nothing folded yet.
    frontier: Option<Box<dyn StateReplayer>>,
    /// Committed activities folded into the frontier (retired or
    /// summarized).
    folded: usize,
    /// Committed, unfolded activities in first-commit order.
    window: VecDeque<WinAct>,
    /// Whether some adjacent pair of the induced order is incomparable.
    partial: bool,
    /// Committed activities with operations here, ever.
    total_acts: usize,
    /// Witness of the first frontier rejection, if any.
    rejected: Option<String>,
    pinned: Option<Pinned>,
    /// Table-reduction streaming mode: operations are folded in commit
    /// order and only per-operation max-first-commit stamps are kept.
    summarized: bool,
    /// Distinct operations seen on this object (interning table).
    universe: Vec<Operation>,
    /// Memoized `rel.commutes(universe[p], universe[q])`.
    commute_memo: BTreeMap<(usize, usize), bool>,
    /// Per interned operation: the max first-commit stamp among folded
    /// activities holding it, and that holder (summarized mode only).
    maxfc: BTreeMap<usize, (u64, ActivityId)>,
}

impl ObjectMonitor {
    fn new(x: ObjectId, spec: Option<Arc<dyn ObjectSpec>>) -> Self {
        ObjectMonitor {
            x,
            spec,
            frontier: None,
            folded: 0,
            window: VecDeque::new(),
            partial: false,
            total_acts: 0,
            rejected: None,
            pinned: None,
            summarized: false,
            universe: Vec::new(),
            commute_memo: BTreeMap::new(),
            maxfc: BTreeMap::new(),
        }
    }

    /// An independent copy (frontier forked) for provisional conclusion.
    fn fork(&self) -> Self {
        ObjectMonitor {
            x: self.x,
            spec: self.spec.clone(),
            frontier: self.frontier.as_ref().map(|f| f.fork()),
            folded: self.folded,
            window: self.window.clone(),
            partial: self.partial,
            total_acts: self.total_acts,
            rejected: self.rejected.clone(),
            pinned: self.pinned.clone(),
            summarized: self.summarized,
            universe: self.universe.clone(),
            commute_memo: self.commute_memo.clone(),
            maxfc: self.maxfc.clone(),
        }
    }

    /// Interns the distinct operations of `ops`.
    fn intern(&mut self, ops: &[OpResult]) -> Vec<usize> {
        let mut ids = Vec::new();
        for (operation, _) in ops {
            let id = self
                .universe
                .iter()
                .position(|u| u == operation)
                .unwrap_or_else(|| {
                    self.universe.push(operation.clone());
                    self.universe.len() - 1
                });
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    /// Records a folded activity as a holder of each of its operations.
    fn note_holder(&mut self, ids: &[usize], fc: u64, act: ActivityId) {
        for &id in ids {
            let e = self.maxfc.entry(id).or_insert((fc, act));
            *e = (*e).max((fc, act));
        }
    }

    fn commutes(&mut self, p: usize, q: usize, rel: &dyn CommutesRel) -> bool {
        if let Some(&c) = self.commute_memo.get(&(p, q)) {
            return c;
        }
        let c = rel.commutes(&self.universe[p], &self.universe[q]);
        self.commute_memo.insert((p, q), c);
        c
    }

    /// Folds one activity's operations into the frontier, recording the
    /// first rejection as both the pinned witness and a live violation.
    fn fold(&mut self, w: &WinAct, violations: &mut Vec<Violation>) {
        self.folded += 1;
        if self.rejected.is_some() {
            return; // frontier is dead; the prefix rejection decides replays
        }
        let spec = self.spec.as_ref().expect("fold requires a specification");
        let frontier = self
            .frontier
            .get_or_insert_with(|| Arc::clone(spec).begin_replay());
        if !frontier.apply(&w.ops) {
            let detail = format!(
                "object {:?}: the committed serial prefix became unacceptable at \
                 activity {:?} (commit stamp {})",
                self.x, w.act, w.fc
            );
            self.rejected = Some(detail.clone());
            violations.push(Violation {
                stamp: w.fc,
                object: Some(self.x),
                activity: Some(w.act),
                detail,
            });
        }
    }

    /// Feeds one freshly committed activity with operations on this object.
    ///
    /// `danger_min_lr` is the minimum last-response stamp over *open*
    /// activities currently holding operations on this object — the
    /// retirement watermark.
    #[allow(clippy::too_many_arguments)]
    fn on_commit(
        &mut self,
        act: ActivityId,
        fc: u64,
        lr: u64,
        ops: Vec<OpResult>,
        danger_min_lr: Option<u64>,
        rel: Option<&dyn CommutesRel>,
        retire: bool,
        violations: &mut Vec<Violation>,
        retained: &mut usize,
    ) {
        self.total_acts += 1;
        if self.spec.is_none() {
            if self.pinned.is_none() {
                self.pinned = Some(Pinned::NoSpec);
                violations.push(Violation {
                    stamp: fc,
                    object: Some(self.x),
                    activity: Some(act),
                    detail: format!(
                        "object {:?} has committed operations but no specification",
                        self.x
                    ),
                });
            }
            return;
        }
        if self.pinned.is_some() {
            return;
        }
        if self.summarized {
            let ids = self.intern(&ops);
            if let Some(holder) = rel.and_then(|rel| self.noncommuting_vs_folded(lr, &ids, rel)) {
                self.pin(Pinned::UnknownNonCommuting(holder, act), retained);
                return;
            }
            self.note_holder(&ids, fc, act);
            self.fold(&WinAct { act, fc, lr, ops }, violations);
            return;
        }
        if let Some(last) = self.window.back() {
            if last.fc >= lr {
                // `⟨last, act⟩ ∉ precedes`: the induced order is partial.
                self.partial = true;
            }
        }
        *retained += ops.len();
        self.window.push_back(WinAct { act, fc, lr, ops });
        if !self.partial {
            if retire {
                self.try_retire(danger_min_lr, violations, retained);
                // Danger-pressure reduction: a starved open activity (one
                // whose last response is ancient because the engine parked
                // it in a wait queue) blocks front retirement for as long
                // as it stays open, and a total window would balloon with
                // every commit in between. All window pairs are comparable
                // here (commit stamps are monotone, so adjacency totality
                // is pairwise totality), which is exactly the trivial case
                // of the streaming table reduction — fold the window and
                // let `maxfc` arbitrate the straggler when it commits.
                if self.window.len() > MAX_LOCAL_ENUM && rel.is_some() {
                    self.enter_summarized(violations, retained);
                }
            }
        } else if self.total_acts > MAX_LOCAL_ENUM {
            let why = match rel {
                None => Some(Pinned::UnknownNoRel),
                Some(rel) => self.window_noncommuting(rel).map(|(i, j)| {
                    Pinned::UnknownNonCommuting(self.window[i].act, self.window[j].act)
                }),
            };
            match why {
                Some(why) => self.pin(why, retained),
                None => self.enter_summarized(violations, retained),
            }
        }
    }

    /// Enters the streaming table reduction: folds the window in commit
    /// order, keeping only per-op max-first-commit stamps for future
    /// conflict checks.
    fn enter_summarized(&mut self, violations: &mut Vec<Violation>, retained: &mut usize) {
        self.summarized = true;
        while let Some(w) = self.window.pop_front() {
            let ids = self.intern(&w.ops);
            self.note_holder(&ids, w.fc, w.act);
            *retained -= w.ops.len();
            self.fold(&w, violations);
        }
    }

    /// In summarized mode: which incomparable folded activity, if any,
    /// holds an operation that does not commute with the new activity's
    /// (last response `lr`, interned ops `ids`)? Folded activity `a` is
    /// incomparable with the newcomer iff `firstcommit(a) > lr`, and the
    /// max-stamp holder of each operation witnesses any such conflict.
    fn noncommuting_vs_folded(
        &mut self,
        lr: u64,
        ids: &[usize],
        rel: &dyn CommutesRel,
    ) -> Option<ActivityId> {
        let candidates: Vec<(usize, ActivityId)> = self
            .maxfc
            .iter()
            .filter(|&(_, &(fc, _))| fc > lr)
            .map(|(&p, &(_, holder))| (p, holder))
            .collect();
        for (p, holder) in candidates {
            if ids.iter().any(|&q| !self.commutes(p, q, rel)) {
                return Some(holder);
            }
        }
        None
    }

    /// The non-commuting concurrent pair search over the window (folded
    /// activities are comparable with everything).
    fn window_noncommuting(&mut self, rel: &dyn CommutesRel) -> Option<(usize, usize)> {
        let interned: Vec<Vec<usize>> = {
            let opses: Vec<Vec<OpResult>> = self.window.iter().map(|w| w.ops.clone()).collect();
            opses.iter().map(|ops| self.intern(ops)).collect()
        };
        for i in 0..self.window.len() {
            for j in i + 1..self.window.len() {
                if self.window[i].fc < self.window[j].lr {
                    continue; // comparable
                }
                for &p in &interned[i] {
                    for &q in &interned[j] {
                        if !self.commutes(p, q, rel) {
                            return Some((i, j));
                        }
                    }
                }
            }
        }
        None
    }

    fn pin(&mut self, why: Pinned, retained: &mut usize) {
        self.pinned = Some(why);
        self.drop_window(retained);
    }

    fn drop_window(&mut self, retained: &mut usize) {
        for w in &self.window {
            *retained -= w.ops.len();
        }
        self.window.clear();
        self.frontier = None;
        self.maxfc.clear();
    }

    /// Retires front-window activities whose precedence over every future
    /// joiner is already certain.
    fn try_retire(
        &mut self,
        danger_min_lr: Option<u64>,
        violations: &mut Vec<Violation>,
        retained: &mut usize,
    ) {
        debug_assert!(!self.partial);
        while let Some(front) = self.window.front() {
            if danger_min_lr.is_some_and(|m| m < front.fc) {
                break; // an open activity could still commit incomparably
            }
            let w = self.window.pop_front().expect("front exists");
            *retained -= w.ops.len();
            self.fold(&w, violations);
        }
    }

    /// Number of operations currently buffered in the window.
    #[cfg(test)]
    fn window_ops(&self) -> usize {
        self.window.iter().map(|w| w.ops.len()).sum()
    }

    /// The branch deciding this object: the table reduction once it
    /// streams or has found a non-commuting concurrent pair, otherwise the
    /// watermark (total order or bounded enumeration).
    fn method(&self) -> Method {
        if self.summarized || matches!(self.pinned, Some(Pinned::UnknownNonCommuting(..))) {
            Method::TableReduction
        } else {
            Method::Watermark
        }
    }

    /// Finishes this object: the stream has ended, every activity has
    /// resolved.
    fn conclude(mut self, violations: &mut Vec<Violation>) -> Verdict {
        if let Some(p) = &self.pinned {
            return match p {
                Pinned::NoSpec => Verdict::Refuted(format!(
                    "object {:?} has committed operations but no specification",
                    self.x
                )),
                Pinned::UnknownNoRel => Verdict::Unknown(format!(
                    "object {:?}: {} committed activities with a genuinely partial \
                     precedes order exceed the enumeration bound {MAX_LOCAL_ENUM}",
                    self.x, self.total_acts
                )),
                Pinned::UnknownNonCommuting(a, b) => Verdict::Unknown(format!(
                    "object {:?}: {} committed activities with a genuinely partial \
                     precedes order exceed the enumeration bound {MAX_LOCAL_ENUM}, \
                     and concurrent activities {a:?} and {b:?} hold non-commuting \
                     operations",
                    self.x, self.total_acts
                )),
            };
        }
        if self.summarized || !self.partial {
            // Single consistent order: fold the remaining window.
            let rest: Vec<WinAct> = self.window.drain(..).collect();
            for w in &rest {
                self.fold(w, violations);
            }
            return match self.rejected {
                Some(why) => Verdict::Refuted(why),
                None => Verdict::Certified,
            };
        }
        // Genuinely partial with at most MAX_LOCAL_ENUM activities:
        // enumerate the window's linear extensions over forks of the
        // retired-prefix frontier (the retired activities precede every
        // window member in every extension).
        debug_assert!(self.total_acts <= MAX_LOCAL_ENUM);
        if let Some(why) = self.rejected {
            // The forced prefix is already unacceptable: every extension is.
            return Verdict::Refuted(why);
        }
        let window: Vec<WinAct> = self.window.drain(..).collect();
        let spec = self.spec.as_ref().expect("partial window implies ops");
        let base = match &self.frontier {
            Some(f) => f.fork(),
            None => Arc::clone(spec).begin_replay(),
        };
        let mut used = vec![false; window.len()];
        if let Some(order) =
            reject_some_extension(&window, &mut used, &mut Vec::new(), base.as_ref())
        {
            return Verdict::Refuted(format!(
                "object {:?}: precedes-consistent order {order:?} is rejected by \
                 the specification",
                self.x
            ));
        }
        Verdict::Certified
    }
}

/// Depth-first search for a linear extension of the window's induced order
/// that the specification rejects; prefix rejections decide all their
/// completions, so each tree edge extends a forked frontier by one
/// activity. Returns the rejecting order's activities if one exists.
fn reject_some_extension(
    window: &[WinAct],
    used: &mut [bool],
    placed: &mut Vec<ActivityId>,
    frontier: &dyn StateReplayer,
) -> Option<Vec<ActivityId>> {
    if placed.len() == window.len() {
        return None;
    }
    for i in 0..window.len() {
        if used[i] {
            continue;
        }
        // Ready: no unplaced j ≠ i precedes i.
        let ready = (0..window.len()).all(|j| used[j] || j == i || window[j].fc >= window[i].lr);
        if !ready {
            continue;
        }
        let mut next = frontier.fork();
        used[i] = true;
        placed.push(window[i].act);
        if !next.apply(&window[i].ops) {
            // This prefix (hence some full extension) is rejected.
            let order = placed.clone();
            placed.pop();
            used[i] = false;
            return Some(order);
        }
        if let Some(order) = reject_some_extension(window, used, placed, next.as_ref()) {
            placed.pop();
            used[i] = false;
            return Some(order);
        }
        placed.pop();
        used[i] = false;
    }
    None
}

/// One object's incremental replay for the timestamp-ordered properties.
struct TsObjectReplay {
    spec: Option<Arc<dyn ObjectSpec>>,
    frontier: Option<Box<dyn StateReplayer>>,
    rejected: bool,
}

impl TsObjectReplay {
    fn fork(&self) -> Self {
        TsObjectReplay {
            spec: self.spec.clone(),
            frontier: self.frontier.as_ref().map(|f| f.fork()),
            rejected: self.rejected,
        }
    }
}

/// A committed activity awaiting its timestamp-ordered drain: its first
/// commit stamp plus its completed operations per object.
type PendingAct = (u64, OpsByObject);

/// The streaming machine for static/hybrid atomicity: committed
/// activities drain into per-object replayers in `(timestamp, activity)`
/// order once no earlier key can still arrive.
struct TsMachine {
    /// Committed activities not yet drained, keyed by timestamp order.
    queue: BTreeMap<(Timestamp, ActivityId), PendingAct>,
    /// Committed activities still missing a timestamp event (refuted at
    /// finish, as `timestamp_order` returns `None` for them).
    parked: BTreeMap<ActivityId, PendingAct>,
    /// Highest timestamp seen on any event.
    max_ts_seen: Option<Timestamp>,
    /// Key of the last drained activity.
    last_drained: Option<(Timestamp, ActivityId)>,
    replayers: FixedMap<ObjectId, TsObjectReplay>,
    /// Witness of the first rejection across objects.
    rejected: Option<String>,
    /// Drained activities' operation buffers, emptied for committing
    /// activities to take.
    spare: Vec<OpsByObject>,
}

impl TsMachine {
    fn new() -> Self {
        TsMachine {
            queue: BTreeMap::new(),
            parked: BTreeMap::new(),
            max_ts_seen: None,
            last_drained: None,
            replayers: FixedMap::default(),
            rejected: None,
            spare: Vec::new(),
        }
    }

    fn fork(&self) -> Self {
        TsMachine {
            queue: self.queue.clone(),
            parked: self.parked.clone(),
            max_ts_seen: self.max_ts_seen,
            last_drained: self.last_drained,
            replayers: self.replayers.iter().map(|(x, r)| (*x, r.fork())).collect(),
            rejected: self.rejected.clone(),
            spare: Vec::new(),
        }
    }

    /// Enqueues a committed activity; returns `false` on timestamp
    /// regression (key at or below the drained watermark).
    #[must_use]
    fn enqueue(
        &mut self,
        act: ActivityId,
        ts: Option<Timestamp>,
        commit_stamp: u64,
        ops: OpsByObject,
    ) -> bool {
        match ts {
            None => {
                self.parked.insert(act, (commit_stamp, ops));
                true
            }
            Some(t) => {
                let key = (t, act);
                if self.last_drained.is_some_and(|ld| key <= ld) {
                    return false;
                }
                self.queue.insert(key, (commit_stamp, ops));
                true
            }
        }
    }

    /// Resolves a late timestamp event for a parked committed activity.
    #[must_use]
    fn resolve_parked(&mut self, act: ActivityId, t: Timestamp) -> bool {
        if let Some((stamp, ops)) = self.parked.remove(&act) {
            return self.enqueue(act, Some(t), stamp, ops);
        }
        true
    }

    /// Drains every queue entry provably final in timestamp order:
    /// strictly below the highest timestamp seen (later events cannot go
    /// below it on a monotone clock; regressions are caught by
    /// [`TsMachine::enqueue`]) and below every open activity's assigned
    /// timestamp.
    fn drain(
        &mut self,
        open_min: Option<(Timestamp, ActivityId)>,
        spec: &SystemSpec,
        violations: &mut Vec<Violation>,
        retained: &mut usize,
        drain_all: bool,
    ) {
        while let Some((&key, _)) = self.queue.iter().next() {
            if !drain_all {
                let below_new = self.max_ts_seen.is_some_and(|m| key.0 < m);
                let below_open = open_min.is_none_or(|m| key < m);
                if !(below_new && below_open) {
                    break;
                }
            }
            let (key, (stamp, mut ops)) = self.queue.pop_first().expect("peeked");
            *retained -= ops.len();
            self.last_drained = Some(key);
            self.apply(key.1, stamp, &ops, spec, violations);
            ops.clear();
            self.spare.push(ops);
        }
    }

    fn apply(
        &mut self,
        act: ActivityId,
        stamp: u64,
        ops: &OpsByObject,
        spec: &SystemSpec,
        violations: &mut Vec<Violation>,
    ) {
        for (x, ops) in ops.groups() {
            let replay = self.replayers.entry(x).or_insert_with(|| TsObjectReplay {
                spec: spec.get(x).cloned(),
                frontier: None,
                rejected: false,
            });
            if replay.rejected {
                continue;
            }
            let ok = match &replay.spec {
                None => false,
                Some(s) => replay
                    .frontier
                    .get_or_insert_with(|| Arc::clone(s).begin_replay())
                    .apply(ops),
            };
            if !ok {
                replay.rejected = true;
                let detail = format!(
                    "object {x:?}: the timestamp-ordered serial sequence became \
                     unacceptable at activity {act:?}"
                );
                if self.rejected.is_none() {
                    self.rejected = Some(detail.clone());
                }
                violations.push(Violation {
                    stamp,
                    object: Some(x),
                    activity: Some(act),
                    detail,
                });
            }
        }
    }

    fn conclude(
        mut self,
        spec: &SystemSpec,
        violations: &mut Vec<Violation>,
        retained: &mut usize,
    ) -> Verdict {
        self.drain(None, spec, violations, retained, true);
        if !self.parked.is_empty() {
            return Verdict::Refuted("a committed activity has no timestamp event".to_string());
        }
        match self.rejected {
            Some(why) => Verdict::Refuted(format!(
                "perm(h) is not serializable in timestamp order: {why}"
            )),
            None => Verdict::Certified,
        }
    }
}

/// The online streaming certifier.
///
/// Feed it the recorder's stamp stream via
/// [`observe`](OnlineCertifier::observe); each call returns a
/// [`Violation`] the moment atomicity becomes unsatisfiable mid-run, and
/// [`finish`](OnlineCertifier::finish) produces the [`Certificate`].
/// Construct with retirement on ([`OnlineCertifier::new`]) for bounded
/// memory over unbounded streams, or off
/// ([`OnlineCertifier::new_retaining`]) to decide arbitrary event soups,
/// as [`certify()`](crate::certify()) does (see the module docs).
pub struct OnlineCertifier {
    property: Property,
    spec: SystemSpec,
    rel: Option<Arc<dyn CommutesRel>>,
    retire: bool,

    last_stamp: Option<u64>,
    observed: u64,
    open: FixedMap<ActivityId, ActState>,
    committed: IdSet,
    aborted: IdSet,
    /// Aborted activities' state (retain-all mode only), set aside so it
    /// cannot hold back the timestamp drain, and revived by the
    /// activity's next event: `perm(h)` counts an activity with a commit
    /// event as committed whatever precedes it.
    shelved: BTreeMap<ActivityId, ActState>,
    /// Finished activities' states, cleared, whose buffers the next new
    /// activities take.
    spare: Vec<ActState>,
    /// Objects participating in any event of a committed activity.
    committed_objects: FixedSet<ObjectId>,
    /// Objects participating in any event at all.
    all_objects: FixedSet<ObjectId>,
    pathology: Option<Pathology>,
    /// Full event mirror (retain-all mode only), for the exhaustive
    /// checkers.
    mirror: Vec<Event>,
    dynamic: FixedMap<ObjectId, ObjectMonitor>,
    tsm: Option<TsMachine>,
    violations: Vec<Violation>,
    retained: usize,
    peak_retained: usize,
}

impl OnlineCertifier {
    /// Creates a monitor with watermark retirement on: memory stays
    /// bounded by the open-transaction footprint, and histories outside
    /// the basic discipline answer [`Verdict::Unknown`]. `rel` enables the
    /// table reduction.
    pub fn new(property: Property, spec: SystemSpec, rel: Option<Arc<dyn CommutesRel>>) -> Self {
        Self::with_retirement(property, spec, rel, true)
    }

    /// Creates a monitor that retains the full stream and decides
    /// arbitrary histories, at the memory cost of a complete event
    /// mirror.
    pub fn new_retaining(
        property: Property,
        spec: SystemSpec,
        rel: Option<Arc<dyn CommutesRel>>,
    ) -> Self {
        Self::with_retirement(property, spec, rel, false)
    }

    fn with_retirement(
        property: Property,
        spec: SystemSpec,
        rel: Option<Arc<dyn CommutesRel>>,
        retire: bool,
    ) -> Self {
        let tsm = match property {
            Property::Dynamic => None,
            Property::Static | Property::Hybrid => Some(TsMachine::new()),
        };
        OnlineCertifier {
            property,
            spec,
            rel,
            retire,
            last_stamp: None,
            observed: 0,
            open: FixedMap::default(),
            committed: IdSet::new(),
            aborted: IdSet::new(),
            shelved: BTreeMap::new(),
            spare: Vec::new(),
            committed_objects: FixedSet::default(),
            all_objects: FixedSet::default(),
            pathology: None,
            mirror: Vec::new(),
            dynamic: FixedMap::default(),
            tsm,
            violations: Vec::new(),
            retained: 0,
            peak_retained: 0,
        }
    }

    /// The property being monitored.
    pub fn property(&self) -> Property {
        self.property
    }

    /// Events observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Operations and events currently retained (windows, open-activity
    /// buffers, undrained timestamp queues, and — with retirement off —
    /// the event mirror).
    pub fn retained(&self) -> usize {
        self.retained
    }

    /// High-water mark of [`retained`](OnlineCertifier::retained).
    pub fn peak_retained(&self) -> usize {
        self.peak_retained
    }

    fn flag_pathology(&mut self, kind: Pathology) {
        if self.pathology.is_none() {
            self.pathology = Some(kind);
            if self.retire {
                // The machines will not be consulted again; free them.
                let mut retained = self.retained;
                for (_, mon) in std::mem::take(&mut self.dynamic) {
                    let mut m = mon;
                    m.drop_window(&mut retained);
                }
                self.retained = retained;
                if let Some(tsm) = &mut self.tsm {
                    for (_, (_, ops)) in std::mem::take(&mut tsm.queue) {
                        self.retained -= ops.len();
                    }
                    for (_, (_, ops)) in std::mem::take(&mut tsm.parked) {
                        self.retained -= ops.len();
                    }
                    tsm.replayers.clear();
                }
                for st in self.open.values_mut() {
                    self.retained -= st.retained();
                    st.pending.clear();
                    st.ops.clear();
                }
            }
        }
    }

    /// Minimum last-response stamp over open activities holding completed
    /// operations on `x` — the dynamic retirement watermark.
    fn danger_min_lr(&self, x: ObjectId) -> Option<u64> {
        self.open
            .values()
            .filter(|st| st.ops.holds(x))
            .filter_map(|st| st.last_resp)
            .min()
    }

    /// Minimum `(timestamp, activity)` key over open activities that have
    /// already been assigned a timestamp — the drain watermark.
    fn open_min_ts(&self) -> Option<(Timestamp, ActivityId)> {
        self.open
            .iter()
            .filter_map(|(&a, st)| st.ts.map(|t| (t, a)))
            .min()
    }

    /// Observes one event from the stamp stream. Stamps must be strictly
    /// increasing (the recorder's global sequencer guarantees this; a
    /// regression is reported as a protocol violation). Returns a
    /// [`Violation`] if this event made atomicity unsatisfiable.
    pub fn observe(&mut self, stamp: u64, event: &Event) -> Option<Violation> {
        // Lend the relation to the machinery: moving the `Arc` out and
        // back costs no reference-count traffic.
        let rel = self.rel.take();
        let flagged = self.observe_with(stamp, event, rel.as_deref());
        self.rel = rel;
        flagged
    }

    /// [`observe`](OnlineCertifier::observe) with the relation passed per
    /// call, so [`certify_with_relation`](crate::certify_with_relation)
    /// can lend a borrowed one.
    pub(crate) fn observe_with(
        &mut self,
        stamp: u64,
        event: &Event,
        rel: Option<&dyn CommutesRel>,
    ) -> Option<Violation> {
        let first_new = self.violations.len();
        self.observed += 1;
        if self.last_stamp.is_some_and(|last| stamp <= last) {
            self.flag_pathology(Pathology::StampRegression);
        }
        self.last_stamp = Some(stamp);
        if !self.retire {
            self.mirror.push(event.clone());
            self.retained += 1;
        }
        let act = event.activity;
        let x = event.object;
        self.all_objects.insert(x);
        let already_committed = self.committed.contains(act.raw());
        if already_committed {
            self.committed_objects.insert(x);
        } else if let Some(st) = self.shelved.remove(&act) {
            self.open.insert(act, st);
        }
        if let Some(t) = event.kind.timestamp() {
            if let Some(tsm) = &mut self.tsm {
                tsm.max_ts_seen = Some(tsm.max_ts_seen.map_or(t, |m| m.max(t)));
            }
        }
        match &event.kind {
            EventKind::Invoke(op) => {
                if !already_committed {
                    let live = self.pathology.is_none();
                    let st = self.open_state(act);
                    st.touch(x);
                    if live && st.invoke(x, op) {
                        self.retained += 1;
                    }
                }
            }
            EventKind::Respond(v) => {
                if already_committed {
                    self.flag_pathology(Pathology::RespondAfterCommit);
                } else {
                    let live = self.pathology.is_none();
                    let st = self.open_state(act);
                    st.touch(x);
                    st.last_resp = Some(stamp);
                    if live {
                        if let Some(op) = st.take_pending(x) {
                            st.ops.push(x, (op, v.clone()));
                        }
                    }
                }
            }
            EventKind::Abort => {
                if !already_committed {
                    let mut st = self.open.remove(&act).unwrap_or_default();
                    if self.retire {
                        self.retained -= st.retained();
                        self.aborted.insert(act.raw());
                        self.recycle(st);
                    } else {
                        st.touch(x);
                        self.shelved.insert(act, st);
                    }
                }
            }
            EventKind::Initiate(t) => {
                if !already_committed {
                    let st = self.open_state(act);
                    st.touch(x);
                    st.ts.get_or_insert(*t);
                } else if self.pathology.is_none() {
                    // Late timestamp for a committed activity: resolves a
                    // parked timestamp-order entry if one exists.
                    if let Some(tsm) = &mut self.tsm {
                        if !tsm.resolve_parked(act, *t) {
                            self.flag_pathology(Pathology::TimestampRegression);
                        }
                    }
                }
            }
            EventKind::Commit | EventKind::CommitTs(_) => {
                if !already_committed {
                    if self.aborted.contains(act.raw()) {
                        self.flag_pathology(Pathology::CommitAfterAbort);
                    } else {
                        self.commit(stamp, act, x, event.kind.timestamp(), rel);
                    }
                } else if self.pathology.is_none() {
                    // A duplicate timestamped commit can carry the
                    // activity's first timestamp event.
                    if let Some(t) = event.kind.timestamp() {
                        if let Some(tsm) = &mut self.tsm {
                            if !tsm.resolve_parked(act, t) {
                                self.flag_pathology(Pathology::TimestampRegression);
                            }
                        }
                    }
                }
            }
        }
        // Only a timestamp, a commit or an abort can make a queued
        // activity drainable: an invocation or a response at most opens
        // an activity, which can only lower the minimum open timestamp.
        let moves_watermark = !matches!(event.kind, EventKind::Invoke(_) | EventKind::Respond(_));
        if moves_watermark && self.pathology.is_none() {
            if let Some(mut tsm) = self.tsm.take() {
                let open_min = self.open_min_ts();
                tsm.drain(
                    open_min,
                    &self.spec,
                    &mut self.violations,
                    &mut self.retained,
                    false,
                );
                self.tsm = Some(tsm);
            }
        }
        self.peak_retained = self.peak_retained.max(self.retained);
        self.violations.get(first_new).cloned()
    }

    /// Handles the first commit event of `act`.
    fn commit(
        &mut self,
        stamp: u64,
        act: ActivityId,
        x: ObjectId,
        event_ts: Option<Timestamp>,
        rel: Option<&dyn CommutesRel>,
    ) {
        self.committed.insert(act.raw());
        let mut st = self.open.remove(&act).unwrap_or_default();
        self.retained -= st.pending.len();
        self.committed_objects.insert(x);
        self.committed_objects.extend(st.touched.iter().copied());
        if self.pathology.is_some() {
            self.retained -= st.ops.len();
            self.recycle(st);
            return;
        }
        match self.property {
            Property::Dynamic => {
                let lr = st.last_resp;
                self.retained -= st.ops.len();
                for (obj, ops) in st.ops.drain_groups() {
                    let danger = self.danger_min_lr(obj);
                    let mon = self
                        .dynamic
                        .entry(obj)
                        .or_insert_with(|| ObjectMonitor::new(obj, self.spec.get(obj).cloned()));
                    mon.on_commit(
                        act,
                        stamp,
                        lr.expect("an activity with completed operations has responded"),
                        ops,
                        danger,
                        rel,
                        self.retire,
                        &mut self.violations,
                        &mut self.retained,
                    );
                }
            }
            Property::Static | Property::Hybrid => {
                let ts = st.ts.or(event_ts);
                let tsm = self.tsm.as_mut().expect("timestamp machine exists");
                // Ops stay retained until drained; the activity's state
                // takes a drained activity's buffers instead.
                let ops = std::mem::replace(&mut st.ops, tsm.spare.pop().unwrap_or_default());
                if !tsm.enqueue(act, ts, stamp, ops) {
                    self.flag_pathology(Pathology::TimestampRegression);
                }
            }
        }
        self.recycle(st);
    }

    /// The state of open activity `act`; a new one starts on a finished
    /// activity's buffers when there is one.
    fn open_state(&mut self, act: ActivityId) -> &mut ActState {
        let spare = &mut self.spare;
        self.open
            .entry(act)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }

    /// Keeps a finished activity's buffers for the next new activity. A
    /// state that was never opened has none and is dropped, so the spares
    /// never outnumber the activities that were open at once.
    fn recycle(&mut self, mut st: ActState) {
        st.clear();
        if st.touched.capacity() > 0 {
            self.spare.push(st);
        }
    }

    /// The certificate the monitor would issue if the stream ended now,
    /// without disturbing the live state (frontiers are forked).
    pub fn provisional_certificate(&self) -> Certificate {
        self.fork().conclude().0
    }

    /// Finishes the stream: resolves every remaining window and queue and
    /// issues the certificate, together with all violations flagged
    /// (including any found only at finish time).
    pub fn finish(self) -> (Certificate, Vec<Violation>) {
        self.conclude()
    }

    fn fork(&self) -> Self {
        OnlineCertifier {
            property: self.property,
            spec: self.spec.clone(),
            rel: self.rel.clone(),
            retire: self.retire,
            last_stamp: self.last_stamp,
            observed: self.observed,
            open: self.open.clone(),
            committed: self.committed.clone(),
            aborted: self.aborted.clone(),
            shelved: self.shelved.clone(),
            spare: Vec::new(),
            committed_objects: self.committed_objects.clone(),
            all_objects: self.all_objects.clone(),
            pathology: self.pathology,
            mirror: self.mirror.clone(),
            dynamic: self.dynamic.iter().map(|(x, m)| (*x, m.fork())).collect(),
            tsm: self.tsm.as_ref().map(TsMachine::fork),
            violations: self.violations.clone(),
            retained: self.retained,
            peak_retained: self.peak_retained,
        }
    }

    fn conclude(mut self) -> (Certificate, Vec<Violation>) {
        let committed = self.committed.len();
        let objects = match self.property {
            Property::Dynamic => self.committed_objects.len(),
            Property::Static | Property::Hybrid => self.all_objects.len(),
        };
        let (method, verdict) = match (self.pathology, self.property) {
            (Some(kind), _) => {
                let method = match self.property {
                    Property::Dynamic => Method::Exhaustive,
                    Property::Static | Property::Hybrid => Method::TimestampOrder,
                };
                (method, self.exhaustive(kind, committed))
            }
            (None, Property::Dynamic) => {
                // `Refuted` dominates `Unknown` across objects: one object
                // the table reduction could not decide does not soften a
                // definite violation on another. Objects conclude in
                // `ObjectId` order, whatever the map's layout: the first
                // refuted one names the verdict and flags the violation.
                let (mut method, mut verdict) = (Method::Watermark, Verdict::Certified);
                let mut monitors: Vec<(ObjectId, ObjectMonitor)> = self.dynamic.drain().collect();
                monitors.sort_unstable_by_key(|&(x, _)| x);
                for (_, mon) in monitors {
                    let m = mon.method();
                    match mon.conclude(&mut self.violations) {
                        v @ Verdict::Refuted(_) => {
                            (method, verdict) = (m, v);
                            break;
                        }
                        v @ Verdict::Unknown(_) if verdict == Verdict::Certified => {
                            (method, verdict) = (m, v);
                        }
                        // The table reduction certified one object, so the
                        // certificate trusts the table.
                        Verdict::Certified
                            if verdict == Verdict::Certified && m == Method::TableReduction =>
                        {
                            method = m;
                        }
                        _ => {}
                    }
                }
                (method, verdict)
            }
            (None, Property::Static | Property::Hybrid) => {
                let tsm = self.tsm.take().expect("timestamp machine exists");
                let verdict = tsm.conclude(&self.spec, &mut self.violations, &mut self.retained);
                (Method::TimestampOrder, verdict)
            }
        };
        let cert = Certificate {
            property: self.property,
            method,
            verdict,
            committed,
            objects,
        };
        (cert, self.violations)
    }

    /// The verdict on a stream outside the basic discipline: the
    /// exhaustive checker over the mirror when retaining, `Unknown` when
    /// retirement has given the mirror up.
    fn exhaustive(&mut self, kind: Pathology, committed: usize) -> Verdict {
        if self.retire {
            return Verdict::Unknown(format!(
                "{} — outside the basic discipline; the retiring monitor cannot \
                 replay the full history (a retaining monitor decides it \
                 exhaustively)",
                kind.describe()
            ));
        }
        if self.property == Property::Dynamic && committed > MAX_FALLBACK_ACTIVITIES {
            return Verdict::Unknown(format!(
                "{} — outside the basic discipline, with {committed} committed \
                 activities past the exhaustive-fallback bound \
                 {MAX_FALLBACK_ACTIVITIES}",
                kind.describe()
            ));
        }
        let h = History::from_events(std::mem::take(&mut self.mirror));
        let atomic = match self.property {
            Property::Dynamic => is_dynamic_atomic(&h, &self.spec),
            Property::Static => is_static_atomic(&h, &self.spec),
            Property::Hybrid => is_hybrid_atomic(&h, &self.spec),
        };
        if atomic {
            Verdict::Certified
        } else {
            Verdict::Refuted(format!(
                "{} — outside the basic discipline, and the exhaustive {} check \
                 rejects the history",
                kind.describe(),
                self.property
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::paper;
    use atomicity_spec::{op, Value};

    /// A deposits-only commutativity relation.
    fn deposits() -> Arc<dyn CommutesRel> {
        Arc::new(|p: &Operation, q: &Operation| p.name() == "deposit" && q.name() == "deposit")
    }

    /// Twenty deposits on `paper::Y` whose responses all precede every
    /// commit (every pair is concurrent), with `mid` between the last
    /// response and the first commit and `tail` after the last commit.
    fn contended_deposits(mid: &[Event], tail: &[Event]) -> Vec<Event> {
        let y = paper::Y;
        let mut events = Vec::new();
        for i in 1..=20u32 {
            let a = ActivityId::new(i);
            events.push(Event::invoke(a, y, op("deposit", [5])));
            events.push(Event::respond(a, y, Value::ok()));
        }
        events.extend_from_slice(mid);
        for i in 1..=20u32 {
            events.push(Event::commit(ActivityId::new(i), y));
        }
        events.extend_from_slice(tail);
        events
    }

    fn feed(cert: &mut OnlineCertifier, events: &[Event]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if let Some(v) = cert.observe(i as u64, e) {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn serial_inserts_certify_online() {
        let spec = paper::set_system();
        let x = paper::X;
        let mut events = Vec::new();
        for i in 1..=50u32 {
            let a = ActivityId::new(i);
            events.push(Event::invoke(a, x, op("insert", [i64::from(i)])));
            events.push(Event::respond(a, x, Value::ok()));
            events.push(Event::commit(a, x));
        }
        let mut cert = OnlineCertifier::new(Property::Dynamic, spec, None);
        let viols = feed(&mut cert, &events);
        assert!(viols.is_empty());
        // Retirement keeps the window flat on a serial stream.
        assert!(
            cert.dynamic[&x].window_ops() <= 1,
            "serial stream should retire continuously"
        );
        let (c, _) = cert.finish();
        assert_eq!(c.verdict, Verdict::Certified, "{c}");
        assert_eq!(c.committed, 50);
        assert_eq!(c.objects, 1);
        assert_eq!(c.method, Method::Watermark);
    }

    #[test]
    fn mid_run_violation_is_flagged_at_the_offending_commit() {
        let spec = paper::set_system();
        let x = paper::X;
        let (a, b) = (ActivityId::new(1), ActivityId::new(2));
        // b observes a's insert as absent after a committed: the only
        // precedes-consistent order is rejected.
        let events = vec![
            Event::invoke(a, x, op("insert", [3])),
            Event::respond(a, x, Value::ok()),
            Event::commit(a, x),
            Event::invoke(b, x, op("member", [3])),
            Event::respond(b, x, Value::from(false)),
            Event::commit(b, x),
        ];
        let mut cert = OnlineCertifier::new(Property::Dynamic, spec.clone(), None);
        let viols = feed(&mut cert, &events);
        assert_eq!(viols.len(), 1, "flagged exactly at b's commit");
        assert_eq!(viols[0].stamp, 5);
        assert_eq!(viols[0].object, Some(x));
        let (c, _) = cert.finish();
        assert!(matches!(c.verdict, Verdict::Refuted(_)), "{c}");
        // The exhaustive checker agrees.
        assert!(!is_dynamic_atomic(&History::from_events(events), &spec));
    }

    #[test]
    fn timestamped_stream_certifies_and_refutes() {
        let spec = paper::set_system();
        let x = paper::X;
        let (a, b) = (ActivityId::new(1), ActivityId::new(2));
        let good = vec![
            Event::initiate(a, x, 1),
            Event::initiate(b, x, 2),
            Event::invoke(a, x, op("insert", [3])),
            Event::respond(a, x, Value::ok()),
            Event::invoke(b, x, op("member", [3])),
            Event::respond(b, x, Value::from(true)),
            Event::commit(a, x),
            Event::commit(b, x),
        ];
        let mut cert = OnlineCertifier::new(Property::Static, spec.clone(), None);
        feed(&mut cert, &good);
        let (c, _) = cert.finish();
        assert_eq!(c.verdict, Verdict::Certified, "{c}");
        assert!(is_static_atomic(&History::from_events(good), &spec));
        assert_eq!(
            (c.method, c.committed, c.objects),
            (Method::TimestampOrder, 2, 1)
        );

        // Timestamp order b < a contradicts the observed values.
        let bad = vec![
            Event::initiate(a, x, 2),
            Event::initiate(b, x, 1),
            Event::invoke(a, x, op("insert", [3])),
            Event::respond(a, x, Value::ok()),
            Event::invoke(b, x, op("member", [3])),
            Event::respond(b, x, Value::from(true)),
            Event::commit(a, x),
            Event::commit(b, x),
        ];
        let mut cert = OnlineCertifier::new(Property::Static, spec.clone(), None);
        feed(&mut cert, &bad);
        let (c, _) = cert.finish();
        assert!(matches!(c.verdict, Verdict::Refuted(_)), "{c}");
        assert!(!is_static_atomic(&History::from_events(bad), &spec));
    }

    #[test]
    fn missing_timestamp_refutes_like_post_hoc() {
        let spec = paper::set_system();
        let x = paper::X;
        let a = ActivityId::new(1);
        let events = vec![
            Event::invoke(a, x, op("insert", [3])),
            Event::respond(a, x, Value::ok()),
            Event::commit(a, x), // no timestamp event anywhere
        ];
        let mut cert = OnlineCertifier::new(Property::Static, spec.clone(), None);
        feed(&mut cert, &events);
        let (c, _) = cert.finish();
        assert!(matches!(c.verdict, Verdict::Refuted(_)), "{c}");
        assert!(!is_static_atomic(&History::from_events(events), &spec));
    }

    #[test]
    fn contended_commuting_stream_uses_streaming_table_reduction() {
        let spec = paper::bank_system();
        let events = contended_deposits(&[], &[]);
        let mut cert = OnlineCertifier::new(Property::Dynamic, spec.clone(), Some(deposits()));
        feed(&mut cert, &events);
        // Summarized mode keeps no per-activity operations.
        assert!(cert.dynamic[&paper::Y].summarized);
        let (c, _) = cert.finish();
        assert_eq!(c.verdict, Verdict::Certified, "{c}");
        assert_eq!((c.method, c.committed), (Method::TableReduction, 20));

        // Without the relation the partial order is undecidable.
        let mut cert = OnlineCertifier::new(Property::Dynamic, spec, None);
        feed(&mut cert, &events);
        let (c, _) = cert.finish();
        assert!(matches!(c.verdict, Verdict::Unknown(_)), "{c}");
        assert_eq!(c.method, Method::Watermark);
    }

    #[test]
    fn non_commuting_witness_names_two_distinct_activities() {
        // A withdraw `w` responds before the deposits commit and commits
        // last: the summarized table reduction must name a deposit it is
        // concurrent with, not `w` twice.
        let (w, y) = (ActivityId::new(99), paper::Y);
        let events = contended_deposits(
            &[
                Event::invoke(w, y, op("withdraw", [5])),
                Event::respond(w, y, Value::ok()),
            ],
            &[Event::commit(w, y)],
        );
        let spec = paper::bank_system();
        for mut mon in [
            OnlineCertifier::new(Property::Dynamic, spec.clone(), Some(deposits())),
            OnlineCertifier::new_retaining(Property::Dynamic, spec.clone(), Some(deposits())),
        ] {
            feed(&mut mon, &events);
            let (c, _) = mon.finish();
            assert_eq!(c.method, Method::TableReduction, "{c}");
            let Verdict::Unknown(why) = &c.verdict else {
                panic!("expected a non-commuting unknown: {c}")
            };
            let pair = why
                .split("concurrent activities ")
                .nth(1)
                .and_then(|rest| rest.split(" hold").next())
                .unwrap_or_else(|| panic!("no witness pair in {why}"));
            let (a, b) = pair.split_once(" and ").expect("two activities");
            assert_ne!(a, b, "{why}");
            assert!([a, b].contains(&format!("{w:?}").as_str()), "{why}");
        }
    }

    #[test]
    fn respond_after_commit_is_unknown_retiring_and_exact_retaining() {
        let spec = paper::set_system();
        let x = paper::X;
        let a = ActivityId::new(1);
        let events = vec![
            Event::invoke(a, x, op("insert", [1])),
            Event::commit(a, x),
            Event::respond(a, x, Value::ok()),
        ];
        let exhaustive = is_dynamic_atomic(&History::from_events(events.clone()), &spec);

        let mut retiring = OnlineCertifier::new(Property::Dynamic, spec.clone(), None);
        feed(&mut retiring, &events);
        let (c, _) = retiring.finish();
        assert!(matches!(c.verdict, Verdict::Unknown(_)), "{c}");

        let mut retaining = OnlineCertifier::new_retaining(Property::Dynamic, spec.clone(), None);
        feed(&mut retaining, &events);
        let (c, _) = retaining.finish();
        assert_eq!(c.is_certified(), exhaustive, "{c}");
        assert_eq!(
            (c.method, c.committed, c.objects),
            (Method::Exhaustive, 1, 1)
        );
    }

    #[test]
    fn provisional_certificate_does_not_disturb_the_stream() {
        let spec = paper::set_system();
        let x = paper::X;
        let mut cert = OnlineCertifier::new(Property::Dynamic, spec.clone(), None);
        let mut stamp = 0u64;
        for i in 1..=10u32 {
            let a = ActivityId::new(i);
            for e in [
                Event::invoke(a, x, op("insert", [i64::from(i)])),
                Event::respond(a, x, Value::ok()),
                Event::commit(a, x),
            ] {
                cert.observe(stamp, &e);
                stamp += 1;
            }
            let p = cert.provisional_certificate();
            assert_eq!(p.verdict, Verdict::Certified, "{p}");
            assert_eq!(p.committed, i as usize);
        }
        let (c, _) = cert.finish();
        assert_eq!(c.verdict, Verdict::Certified);
        assert_eq!(c.committed, 10);
    }

    #[test]
    fn conclusion_walks_objects_in_id_order() {
        use atomicity_spec::specs::BankAccountSpec;
        // An open holder keeps every object's window from retiring, so
        // each liar's withdrawal from an empty account is refuted only at
        // finish. Objects arrive in descending order and are hashed; the
        // certificate must still name the lowest one.
        let objects: Vec<ObjectId> = (1..=16).rev().map(ObjectId::new).collect();
        let spec = objects.iter().fold(SystemSpec::new(), |spec, &x| {
            spec.with_object(x, BankAccountSpec::new())
        });
        let holder = ActivityId::new(1_000);
        let mut events = Vec::new();
        for &x in &objects {
            events.push(Event::invoke(holder, x, op("deposit", [1])));
            events.push(Event::respond(holder, x, Value::ok()));
        }
        for &x in &objects {
            let liar = ActivityId::new(x.raw());
            events.push(Event::invoke(liar, x, op("withdraw", [5])));
            events.push(Event::respond(liar, x, Value::ok()));
            events.push(Event::commit(liar, x));
        }
        for mut mon in [
            OnlineCertifier::new(Property::Dynamic, spec.clone(), None),
            OnlineCertifier::new_retaining(Property::Dynamic, spec.clone(), None),
        ] {
            assert!(feed(&mut mon, &events).is_empty(), "nothing retires");
            let (c, viols) = mon.finish();
            let lowest = ObjectId::new(1);
            assert_eq!(c.objects, 16);
            let Verdict::Refuted(why) = &c.verdict else {
                panic!("expected a refutation: {c}")
            };
            assert!(why.contains(&format!("{lowest:?}:")), "{why}");
            assert_eq!(viols.len(), 1);
            assert_eq!(
                (viols[0].object, viols[0].activity),
                (Some(lowest), Some(ActivityId::new(1)))
            );
        }
    }

    #[test]
    fn refutation_on_one_object_dominates_an_undecidable_other() {
        use atomicity_spec::specs::IntSetSpec;
        use atomicity_spec::ObjectId;
        // Object Y is contended past the enumeration bound with no
        // relation (undecidable, scanned first); object 3 carries a
        // definite spec violation. The combined verdict must refute.
        let spec = paper::bank_system().with_object(ObjectId::new(3), IntSetSpec::new());
        let mut mon = OnlineCertifier::new(Property::Dynamic, spec, None);
        let (liar, obj) = (ActivityId::new(100), ObjectId::new(3));
        let events = contended_deposits(
            &[],
            &[
                Event::invoke(liar, obj, op("member", [5])),
                Event::respond(liar, obj, Value::from(true)),
                Event::commit(liar, obj),
            ],
        );
        feed(&mut mon, &events);
        let (c, _) = mon.finish();
        assert!(matches!(&c.verdict, Verdict::Refuted(_)), "{c}");
    }
}
