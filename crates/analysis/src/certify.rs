//! Linear-time certification of atomicity properties (pass 2).
//!
//! The exhaustive checker in [`atomicity_spec::atomicity`] decides dynamic
//! atomicity by enumerating *every* total order consistent with
//! `precedes(h)` — exponential in the number of committed activities. This
//! module certifies the same property in `O(n)` per object for the
//! histories real engines produce, by exploiting the structure of the
//! `precedes` relation rather than materializing it.
//!
//! # The watermark argument
//!
//! `⟨a,b⟩ ∈ precedes(h)` iff some response of `b` comes after a commit of
//! `a` — equivalently, `firstcommit(a) < lastresponse(b)` in event
//! positions. For histories under the paper's basic discipline every
//! committed activity's responses all precede its first commit, which
//! gives the relation a *watermark* shape:
//!
//! - **transitive**: `firstcommit(a) < lastresp(b) < firstcommit(b) <
//!   lastresp(c)`;
//! - **acyclic**: `⟨a,b⟩` implies `firstcommit(a) < firstcommit(b)`;
//! - **prefix-structured**: each activity's predecessor set is a prefix of
//!   the commit order, so the relation restricted to any subset of
//!   activities is *total* iff each adjacent pair (in commit order) is
//!   related.
//!
//! Restricting to one object's activities: when the induced order is total
//! there is exactly one consistent serial order, checked by a single
//! replay; when it is partial (activities whose commits genuinely overlap
//! their responses' concurrency window) the certifier enumerates the
//! induced suborder's linear extensions — sound because projections of the
//! global order's extensions onto an object's activities are exactly the
//! extensions of the induced suborder. Past the enumeration bound,
//! [`certify_with_relation`] can still decide genuinely partial orders by
//! the *table reduction*: when every incomparable pair of activities
//! holds pairwise-commuting operations per a [`CommutesRel`] (e.g. the
//! synthesized conflict tables), all linear extensions replay to the
//! same behavior and checking the commit-order extension decides them
//! all — the certified direction then trusts the table, which the
//! [`Method::TableReduction`] tag records. Only when a history falls
//! outside the basic discipline entirely (arbitrary event soup, as the
//! proptest generators produce) does the certifier fall back to the
//! exhaustive checker, and only for small activity counts; otherwise it
//! answers [`Verdict::Unknown`] rather than guess.
//!
//! Static and hybrid atomicity need no such machinery: serializability in
//! *timestamp order* is already a single-order check, and the certifier
//! simply packages it with the same [`Certificate`] interface.

use atomicity_core::CommutesRel;
use atomicity_spec::atomicity::{is_dynamic_atomic, timestamp_order};
use atomicity_spec::serial::is_serializable_in_order;
use atomicity_spec::{ActivityId, EventKind, History, ObjectId, OpResult, Operation, SystemSpec};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Maximum activities per object for which a genuinely partial induced
/// order is resolved by enumerating its linear extensions (at most `6! =
/// 720` replays).
const MAX_LOCAL_ENUM: usize = 6;

/// Maximum committed activities for which a history outside the basic
/// discipline is handed to the exhaustive checker instead of answering
/// [`Verdict::Unknown`].
const MAX_FALLBACK_ACTIVITIES: usize = 7;

/// The atomicity property being certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Property {
    /// Dynamic atomicity (§4.1): serializable in every order consistent
    /// with `precedes(h)`.
    Dynamic,
    /// Static atomicity (§4.2): serializable in initiation-timestamp order.
    Static,
    /// Hybrid atomicity (§4.3): serializable in timestamp order with
    /// commit-assigned update timestamps.
    Hybrid,
}

impl Property {
    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            Property::Dynamic => "dynamic",
            Property::Static => "static",
            Property::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the verdict was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Method {
    /// The watermark fast path (with bounded local enumeration where the
    /// induced per-object order is partial).
    Watermark,
    /// The single timestamp-order check (static/hybrid).
    TimestampOrder,
    /// The commutativity reduction: a genuinely partial induced order
    /// past the enumeration bound, decided by checking ONE linear
    /// extension because every incomparable pair of activities holds
    /// pairwise-commuting operations per the supplied [`CommutesRel`].
    /// Unlike the other methods this one *trusts the table* for the
    /// certified direction (refutations remain table-independent).
    TableReduction,
    /// Full fallback to the exhaustive checker (history outside the basic
    /// discipline).
    #[serde(rename = "exhaustive-fallback")]
    Exhaustive,
    /// The streaming vector-clock monitor (`atomicity-certify`): the
    /// verdict was reached incrementally over the live stamp stream with
    /// watermark retirement, instead of post hoc over a merged history.
    /// Decisions mirror the post-hoc methods above; this tag records
    /// *how* the history was consumed.
    #[serde(rename = "online-monitor")]
    Online,
}

impl Method {
    /// Human-readable name — also the serde wire name, so BENCH JSON and
    /// failure messages agree.
    pub fn label(self) -> &'static str {
        match self {
            Method::Watermark => "watermark",
            Method::TimestampOrder => "timestamp-order",
            Method::TableReduction => "table-reduction",
            Method::Exhaustive => "exhaustive-fallback",
            Method::Online => "online-monitor",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The certifier's answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Verdict {
    /// The history satisfies the property.
    Certified,
    /// The history violates the property; the string is the witness
    /// (object and serial order rejected by its specification).
    Refuted(String),
    /// The certifier declines to answer (history outside the basic
    /// discipline with too many activities for the exhaustive fallback).
    Unknown(String),
}

impl Verdict {
    /// Whether two verdicts agree in kind (certified / refuted /
    /// unknown), ignoring witness message text. The online monitor and
    /// the post-hoc certifier produce identical kinds but word their
    /// witnesses differently (stream positions vs. merged indices).
    pub fn agrees_with(&self, other: &Verdict) -> bool {
        matches!(
            (self, other),
            (Verdict::Certified, Verdict::Certified)
                | (Verdict::Refuted(_), Verdict::Refuted(_))
                | (Verdict::Unknown(_), Verdict::Unknown(_))
        )
    }

    /// Short kind name: `"certified"`, `"refuted"`, or `"unknown"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Certified => "certified",
            Verdict::Refuted(_) => "refuted",
            Verdict::Unknown(_) => "unknown",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Certified => f.write_str("certified"),
            Verdict::Refuted(why) => write!(f, "refuted: {why}"),
            Verdict::Unknown(why) => write!(f, "undecided: {why}"),
        }
    }
}

/// One live violation flagged by a streaming monitor mid-run: the point
/// in the stamp stream at which atomicity became unsatisfiable.
///
/// Where a [`Certificate`] is the end-of-run summary, a `Violation` is
/// the incremental artifact — `OnlineCertifier::observe` in
/// `atomicity-certify` returns one the moment a committed serial prefix
/// is rejected by an object's specification. Shared here so bench
/// reports, the simulator's invariant hooks, and the monitor itself all
/// speak the same type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Stamp (stream position) of the event that triggered the flag.
    pub stamp: u64,
    /// The object whose serial order became unacceptable, if one.
    pub object: Option<ObjectId>,
    /// The activity whose event triggered the flag, if one.
    pub activity: Option<ActivityId>,
    /// What the monitor saw.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[stamp {}] ", self.stamp)?;
        if let Some(x) = self.object {
            write!(f, "object {x:?}: ")?;
        }
        f.write_str(&self.detail)
    }
}

/// The outcome of certifying one history against one property.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Certificate {
    /// The property that was checked.
    pub property: Property,
    /// How the verdict was reached.
    pub method: Method,
    /// The verdict itself.
    pub verdict: Verdict,
    /// Number of committed activities in the history.
    pub committed: usize,
    /// Number of objects touched by committed activities.
    pub objects: usize,
}

impl Certificate {
    /// Whether the history was certified to satisfy the property.
    pub fn is_certified(&self) -> bool {
        self.verdict == Verdict::Certified
    }

    /// Whether the certifier reached a definite answer (certified or
    /// refuted, as opposed to unknown).
    pub fn is_decisive(&self) -> bool {
        !matches!(self.verdict, Verdict::Unknown(_))
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Certified => write!(
                f,
                "{} atomicity certified via {} ({} committed activities, {} objects)",
                self.property.label(),
                self.method.label(),
                self.committed,
                self.objects
            ),
            Verdict::Refuted(why) => {
                write!(f, "{} atomicity refuted: {}", self.property.label(), why)
            }
            Verdict::Unknown(why) => {
                write!(f, "{} atomicity undecided: {}", self.property.label(), why)
            }
        }
    }
}

/// Certifies `h` against `property`. Dispatches to the watermark
/// certifier for dynamic atomicity and to the timestamp-order check for
/// static/hybrid.
pub fn certify(property: Property, h: &History, spec: &SystemSpec) -> Certificate {
    match property {
        Property::Dynamic => certify_dynamic(h, spec),
        Property::Static | Property::Hybrid => certify_timestamped(property, h, spec),
    }
}

/// [`certify`] with a commutativity relation available for the dynamic
/// table reduction: when the per-object induced order is genuinely
/// partial with more activities than the enumeration bound — precisely
/// the histories contended commuting workloads produce — but every
/// incomparable pair of activities holds pairwise-commuting operations
/// per `rel`, all linear extensions yield equivalent serial behaviors
/// and checking the commit-order extension decides them all. Static and
/// hybrid certification are unchanged (already single-order checks).
pub fn certify_with_relation(
    property: Property,
    h: &History,
    spec: &SystemSpec,
    rel: &dyn CommutesRel,
) -> Certificate {
    match property {
        Property::Dynamic => certify_dynamic_impl(h, spec, Some(rel)),
        Property::Static | Property::Hybrid => certify_timestamped(property, h, spec),
    }
}

/// Certifies dynamic atomicity via the watermark fast path.
///
/// Agrees exactly with [`is_dynamic_atomic`] whenever the verdict is
/// decisive (proptested in `tests/checker_vc.rs`); answers
/// [`Verdict::Unknown`] only for histories outside the basic discipline
/// with more than `MAX_FALLBACK_ACTIVITIES` committed activities, or for
/// partial induced orders past the enumeration bound (which
/// [`certify_with_relation`] can often still decide).
pub fn certify_dynamic(h: &History, spec: &SystemSpec) -> Certificate {
    certify_dynamic_impl(h, spec, None)
}

fn certify_dynamic_impl(
    h: &History,
    spec: &SystemSpec,
    rel: Option<&dyn CommutesRel>,
) -> Certificate {
    let committed = h.committed_activities();

    // One pass: commit/response watermarks and per-object committed ops
    // (mirroring `History::ops_by_object`'s pending-invocation rules).
    let mut first_commit: BTreeMap<ActivityId, usize> = BTreeMap::new();
    let mut last_resp: BTreeMap<ActivityId, usize> = BTreeMap::new();
    let mut pending: BTreeMap<(ActivityId, ObjectId), Operation> = BTreeMap::new();
    let mut ops: BTreeMap<ObjectId, BTreeMap<ActivityId, Vec<OpResult>>> = BTreeMap::new();
    let mut objects: BTreeSet<ObjectId> = BTreeSet::new();
    for (pos, e) in h.events().iter().enumerate() {
        if committed.contains(&e.activity) {
            objects.insert(e.object);
        }
        match &e.kind {
            EventKind::Invoke(op) => {
                pending.insert((e.activity, e.object), op.clone());
            }
            EventKind::Respond(v) => {
                last_resp.insert(e.activity, pos);
                if let Some(op) = pending.remove(&(e.activity, e.object)) {
                    if committed.contains(&e.activity) {
                        ops.entry(e.object)
                            .or_default()
                            .entry(e.activity)
                            .or_default()
                            .push((op, v.clone()));
                    }
                }
            }
            EventKind::Commit | EventKind::CommitTs(_) => {
                first_commit.entry(e.activity).or_insert(pos);
            }
            _ => {}
        }
    }

    // Basic-discipline check: a committed activity whose responses spill
    // past its first commit breaks the watermark structure.
    let anomalous = committed.iter().any(|a| {
        matches!(
            (first_commit.get(a), last_resp.get(a)),
            (Some(c), Some(r)) if r > c
        )
    });
    if anomalous {
        return exhaustive_fallback(h, spec, committed.len(), objects.len());
    }

    let done = |method: Method, verdict: Verdict| Certificate {
        property: Property::Dynamic,
        method,
        verdict,
        committed: committed.len(),
        objects: objects.len(),
    };
    // Whether any object's verdict leaned on the commutativity relation.
    let mut used_table = false;
    // An undecidable object does not end the scan: a later object may
    // hold a definite refutation, and `Refuted` dominates `Unknown` (the
    // history is non-atomic regardless of what the undecided object would
    // have said). The first Unknown is reported only when no object
    // refutes.
    let mut pending_unknown: Option<(Method, Verdict)> = None;

    // `⟨a,b⟩ ∈ precedes(h)` restricted to committed activities.
    let prec = |a: ActivityId, b: ActivityId| match last_resp.get(&b) {
        Some(r) => first_commit[&a] < *r,
        None => false,
    };

    let no_ops = BTreeMap::new();
    for x in &objects {
        let by_act = ops.get(x).unwrap_or(&no_ops);
        let obj_spec = match spec.get(*x) {
            Some(s) => s,
            None => {
                if by_act.values().any(|v| !v.is_empty()) {
                    return done(
                        Method::Watermark,
                        Verdict::Refuted(format!(
                            "object {x:?} has committed operations but no specification"
                        )),
                    );
                }
                continue;
            }
        };
        let mut acts: Vec<ActivityId> = by_act.keys().copied().collect();
        acts.sort_by_key(|a| first_commit[a]);
        let serial = |order: &[ActivityId]| -> Vec<OpResult> {
            order
                .iter()
                .flat_map(|a| by_act[a].iter().cloned())
                .collect()
        };
        if acts.windows(2).all(|w| prec(w[0], w[1])) {
            // Total induced order: exactly one consistent serial order.
            if !obj_spec.accepts(&serial(&acts)) {
                return done(
                    Method::Watermark,
                    Verdict::Refuted(format!(
                        "object {x:?}: the only precedes-consistent order {acts:?} \
                         is rejected by the specification"
                    )),
                );
            }
        } else if acts.len() <= MAX_LOCAL_ENUM {
            for order in local_extensions(&acts, &prec) {
                if !obj_spec.accepts(&serial(&order)) {
                    return done(
                        Method::Watermark,
                        Verdict::Refuted(format!(
                            "object {x:?}: precedes-consistent order {order:?} \
                             is rejected by the specification"
                        )),
                    );
                }
            }
        } else if let Some(rel) = rel {
            // Table reduction. Two linear extensions of the induced order
            // differ by adjacent transpositions of incomparable
            // activities; when every such pair's operations pairwise
            // commute per `rel`, every extension replays to the same
            // responses and final state, so the commit-order extension
            // (acts is sorted by first commit, and `⟨a,b⟩ ∈ precedes`
            // implies `firstcommit(a) < firstcommit(b)`) decides them all.
            if let Some((a, b)) = non_commuting_concurrent_pair(&acts, by_act, &prec, rel) {
                pending_unknown.get_or_insert((
                    Method::TableReduction,
                    Verdict::Unknown(format!(
                        "object {x:?}: {} committed activities with a genuinely \
                         partial precedes order exceed the enumeration bound \
                         {MAX_LOCAL_ENUM}, and concurrent activities {a:?} and \
                         {b:?} hold non-commuting operations",
                        acts.len()
                    )),
                ));
                continue;
            }
            used_table = true;
            if !obj_spec.accepts(&serial(&acts)) {
                // Table-independent refutation: commit order is itself a
                // precedes-consistent order.
                return done(
                    Method::TableReduction,
                    Verdict::Refuted(format!(
                        "object {x:?}: the commit-order extension {acts:?} \
                         is rejected by the specification"
                    )),
                );
            }
        } else {
            pending_unknown.get_or_insert((
                Method::Watermark,
                Verdict::Unknown(format!(
                    "object {x:?}: {} committed activities with a genuinely partial \
                     precedes order exceed the enumeration bound {MAX_LOCAL_ENUM}",
                    acts.len()
                )),
            ));
            continue;
        }
    }
    if let Some((method, verdict)) = pending_unknown {
        return done(method, verdict);
    }
    let method = if used_table {
        Method::TableReduction
    } else {
        Method::Watermark
    };
    done(method, Verdict::Certified)
}

/// Searches the incomparable (genuinely concurrent) activity pairs of
/// `acts` for one holding operations the relation does not declare
/// commutative. `acts` is sorted by first commit, so for `i < j` only
/// `⟨acts[i], acts[j]⟩` can be in `precedes`; incomparability reduces to
/// the one test. Commutes lookups are memoized over the (tiny) distinct
/// operation universe.
fn non_commuting_concurrent_pair<F>(
    acts: &[ActivityId],
    by_act: &BTreeMap<ActivityId, Vec<OpResult>>,
    prec: &F,
    rel: &dyn CommutesRel,
) -> Option<(ActivityId, ActivityId)>
where
    F: Fn(ActivityId, ActivityId) -> bool,
{
    let mut universe: Vec<Operation> = Vec::new();
    let mut op_ids: BTreeMap<ActivityId, Vec<usize>> = BTreeMap::new();
    for &a in acts {
        let ids = op_ids.entry(a).or_default();
        for (operation, _) in &by_act[&a] {
            let id = universe
                .iter()
                .position(|u| u == operation)
                .unwrap_or_else(|| {
                    universe.push(operation.clone());
                    universe.len() - 1
                });
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    let n = universe.len();
    let commutes: Vec<bool> = (0..n * n)
        .map(|k| rel.commutes(&universe[k / n], &universe[k % n]))
        .collect();
    for i in 0..acts.len() {
        for j in i + 1..acts.len() {
            if prec(acts[i], acts[j]) {
                continue;
            }
            let conflict = op_ids[&acts[i]]
                .iter()
                .any(|&p| op_ids[&acts[j]].iter().any(|&q| !commutes[p * n + q]));
            if conflict {
                return Some((acts[i], acts[j]));
            }
        }
    }
    None
}

/// Static/hybrid certification: a single serializability check in
/// timestamp order, mirroring `is_static_atomic`/`is_hybrid_atomic`.
fn certify_timestamped(property: Property, h: &History, spec: &SystemSpec) -> Certificate {
    let committed = h.committed_activities().len();
    let objects = h.objects().len();
    let verdict = match timestamp_order(h) {
        None => Verdict::Refuted("a committed activity has no timestamp event".to_string()),
        Some(order) => {
            if is_serializable_in_order(&h.perm(), spec, &order) {
                Verdict::Certified
            } else {
                Verdict::Refuted(format!(
                    "perm(h) is not serializable in timestamp order {order:?}"
                ))
            }
        }
    };
    Certificate {
        property,
        method: Method::TimestampOrder,
        verdict,
        committed,
        objects,
    }
}

/// Full exhaustive fallback for histories outside the basic discipline.
fn exhaustive_fallback(
    h: &History,
    spec: &SystemSpec,
    committed: usize,
    objects: usize,
) -> Certificate {
    let verdict = if committed <= MAX_FALLBACK_ACTIVITIES {
        if is_dynamic_atomic(h, spec) {
            Verdict::Certified
        } else {
            Verdict::Refuted(
                "exhaustive check rejected the history (responses after commit)".to_string(),
            )
        }
    } else {
        Verdict::Unknown(format!(
            "history outside the basic discipline with {committed} committed \
             activities exceeds the exhaustive-fallback bound {MAX_FALLBACK_ACTIVITIES}"
        ))
    };
    Certificate {
        property: Property::Dynamic,
        method: Method::Exhaustive,
        verdict,
        committed,
        objects,
    }
}

/// All linear extensions of the order `prec` restricted to `acts`.
fn local_extensions<F>(acts: &[ActivityId], prec: &F) -> Vec<Vec<ActivityId>>
where
    F: Fn(ActivityId, ActivityId) -> bool,
{
    let mut out = Vec::new();
    let mut used = vec![false; acts.len()];
    let mut placed = Vec::with_capacity(acts.len());
    extend(acts, prec, &mut used, &mut placed, &mut out);
    out
}

fn extend<F>(
    acts: &[ActivityId],
    prec: &F,
    used: &mut [bool],
    placed: &mut Vec<ActivityId>,
    out: &mut Vec<Vec<ActivityId>>,
) where
    F: Fn(ActivityId, ActivityId) -> bool,
{
    if placed.len() == acts.len() {
        out.push(placed.clone());
        return;
    }
    for i in 0..acts.len() {
        if used[i] {
            continue;
        }
        let ready = acts
            .iter()
            .enumerate()
            .all(|(j, &d)| used[j] || j == i || !prec(d, acts[i]));
        if ready {
            used[i] = true;
            placed.push(acts[i]);
            extend(acts, prec, used, placed, out);
            placed.pop();
            used[i] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::atomicity::{is_hybrid_atomic, is_static_atomic};
    use atomicity_spec::paper;
    use atomicity_spec::{op, Event, Value};

    #[test]
    fn paper_dynamic_examples_certify() {
        let spec = paper::bank_system();
        let h = paper::bank_concurrent_withdraws();
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(cert.is_certified(), "{cert}");
        assert_eq!(cert.method, Method::Watermark);
        assert!(is_dynamic_atomic(&h, &spec));

        let spec = paper::queue_system();
        let h = paper::queue_interleaved_enqueues();
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(cert.is_certified(), "{cert}");
        assert!(is_dynamic_atomic(&h, &spec));
    }

    #[test]
    fn non_atomic_history_is_refuted() {
        let spec = paper::set_system();
        let h = paper::non_atomic_member();
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(!cert.is_certified());
        assert!(cert.is_decisive());
        assert_eq!(cert.is_certified(), is_dynamic_atomic(&h, &spec));
    }

    #[test]
    fn atomic_but_not_dynamic_is_refuted() {
        let spec = paper::set_system();
        let h = paper::atomic_not_dynamic();
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(cert.is_decisive());
        assert_eq!(cert.is_certified(), is_dynamic_atomic(&h, &spec));
        assert!(!cert.is_certified());
    }

    #[test]
    fn static_and_hybrid_delegate_to_timestamp_order() {
        let spec = paper::set_system();
        for h in [paper::static_example(), paper::atomic_not_static()] {
            let c = certify(Property::Static, &h, &spec);
            assert_eq!(c.is_certified(), is_static_atomic(&h, &spec), "{c}");
            assert_eq!(c.method, Method::TimestampOrder);
        }
        for h in [paper::hybrid_example(), paper::atomic_not_hybrid()] {
            let c = certify(Property::Hybrid, &h, &spec);
            assert_eq!(c.is_certified(), is_hybrid_atomic(&h, &spec), "{c}");
        }
        assert!(certify(Property::Hybrid, &History::new(), &spec).is_certified());
    }

    #[test]
    fn anomalous_history_uses_exhaustive_fallback() {
        // A response *after* the activity's commit: outside the basic
        // discipline, so the watermark argument does not apply.
        let (a, x) = (paper::A, paper::X);
        let h = History::from_events(vec![
            Event::invoke(a, x, op("insert", [1])),
            Event::commit(a, x),
            Event::respond(a, x, Value::ok()),
        ]);
        let spec = paper::set_system();
        let cert = certify(Property::Dynamic, &h, &spec);
        assert_eq!(cert.method, Method::Exhaustive);
        assert_eq!(cert.is_certified(), is_dynamic_atomic(&h, &spec));
    }

    /// Twenty deposit activities whose responses all precede every
    /// commit: every pair is incomparable under `precedes`, far past the
    /// enumeration bound.
    fn contended_deposits() -> History {
        let x = paper::Y;
        let mut events = Vec::new();
        for i in 1..=20u32 {
            let a = ActivityId::new(i);
            events.push(Event::invoke(a, x, op("deposit", [5])));
            events.push(Event::respond(a, x, Value::ok()));
        }
        for i in 1..=20u32 {
            events.push(Event::commit(ActivityId::new(i), x));
        }
        History::from_events(events)
    }

    #[test]
    fn table_reduction_decides_past_the_enumeration_bound() {
        let spec = paper::bank_system();
        let h = contended_deposits();

        // Without a relation the partial order is undecidable.
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(!cert.is_decisive(), "{cert}");

        // With a relation declaring deposits commutative, one extension
        // decides all of them.
        let deposits =
            |p: &Operation, q: &Operation| p.name() == "deposit" && q.name() == "deposit";
        let cert = certify_with_relation(Property::Dynamic, &h, &spec, &deposits);
        assert!(cert.is_certified(), "{cert}");
        assert_eq!(cert.method, Method::TableReduction);
        assert_eq!(cert.committed, 20);
    }

    #[test]
    fn table_reduction_declines_on_non_commuting_concurrency() {
        let spec = paper::bank_system();
        let h = contended_deposits();
        let nothing = |_: &Operation, _: &Operation| false;
        let cert = certify_with_relation(Property::Dynamic, &h, &spec, &nothing);
        assert!(!cert.is_decisive(), "{cert}");
        assert!(
            matches!(&cert.verdict, Verdict::Unknown(why) if why.contains("non-commuting")),
            "{cert}"
        );
    }

    #[test]
    fn refutation_dominates_an_earlier_undecidable_object() {
        use atomicity_spec::specs::IntSetSpec;
        // Object Y (id 2) is undecidable (contended past the enumeration
        // bound, no relation); object 3 holds a definite spec violation.
        // The refutation must win even though the undecidable object is
        // scanned first.
        let spec = paper::bank_system().with_object(ObjectId::new(3), IntSetSpec::new());
        let mut h = contended_deposits();
        let liar = ActivityId::new(100);
        let obj = ObjectId::new(3);
        h.push(Event::invoke(liar, obj, op("member", [5])));
        h.push(Event::respond(liar, obj, Value::from(true)));
        h.push(Event::commit(liar, obj));
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(
            matches!(&cert.verdict, Verdict::Refuted(why) if why.contains("ObjectId(3)")),
            "{cert}"
        );
    }

    #[test]
    fn long_serial_history_needs_no_enumeration() {
        // 50 committed activities in commit order: the induced order is
        // total, so no enumeration happens regardless of activity count.
        let x = paper::X;
        let mut events = Vec::new();
        for i in 1..=50u32 {
            let a = ActivityId::new(i);
            events.push(Event::invoke(a, x, op("insert", [i64::from(i)])));
            events.push(Event::respond(a, x, Value::ok()));
            events.push(Event::commit(a, x));
        }
        let h = History::from_events(events);
        let spec = paper::set_system();
        let cert = certify(Property::Dynamic, &h, &spec);
        assert!(cert.is_certified(), "{cert}");
        assert_eq!(cert.method, Method::Watermark);
        assert_eq!(cert.committed, 50);
    }

    #[test]
    fn methods_and_verdicts_round_trip_through_serde() {
        for method in [
            Method::Watermark,
            Method::Exhaustive,
            Method::TableReduction,
            Method::TimestampOrder,
            Method::Online,
        ] {
            let json = serde_json::to_string(&method).unwrap();
            assert_eq!(serde_json::from_str::<Method>(&json).unwrap(), method);
        }
        assert_eq!(
            serde_json::to_string(&Method::Online).unwrap(),
            "\"online-monitor\""
        );
        assert_eq!(
            serde_json::to_string(&Method::Exhaustive).unwrap(),
            "\"exhaustive-fallback\""
        );
        for verdict in [
            Verdict::Certified,
            Verdict::Refuted("no serial order".into()),
            Verdict::Unknown("partial order too wide".into()),
        ] {
            let json = serde_json::to_string(&verdict).unwrap();
            let back: Verdict = serde_json::from_str(&json).unwrap();
            assert!(back.agrees_with(&verdict));
            assert_eq!(back, verdict);
        }
    }
}
