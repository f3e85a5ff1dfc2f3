//! Certificates of the three local atomicity properties (pass 2).
//!
//! The exhaustive checkers in [`atomicity_spec::atomicity`] decide each
//! property by enumerating serial orders — for dynamic atomicity, every
//! total order consistent with `precedes(h)`, exponential in the number
//! of committed activities. [`certify`] decides the same properties in
//! `O(n)` per object for the histories real engines produce: it feeds the
//! history's events, stamped with their positions, through a retain-all
//! [`OnlineCertifier`] — the monitor that also certifies live runs — and
//! returns its certificate. Post hoc and online are one procedure over
//! two sources of events; the monitor's documentation holds the watermark
//! argument and the branches it decides by, which [`Method`] names.
//!
//! This module holds the vocabulary both speak: [`Property`], [`Method`],
//! [`Verdict`], [`Violation`] and [`Certificate`].

use crate::OnlineCertifier;
use atomicity_core::CommutesRel;
use atomicity_spec::{ActivityId, History, ObjectId, SystemSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// The branch of the monitor that reached the verdict.
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
    /// The exhaustive dynamic-atomicity checker over the monitor's event
    /// mirror (history outside the basic discipline).
    #[serde(rename = "exhaustive-fallback")]
    Exhaustive,
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
    /// unknown), ignoring witness message text. A retiring and a
    /// retaining monitor over the same stream agree in kind but may name
    /// different witnesses (retirement forgets what it folded).
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
/// the incremental artifact — [`OnlineCertifier::observe`] returns one
/// the moment a committed serial prefix is rejected by an object's
/// specification. Shared here so bench reports, the simulator's
/// invariant hooks, and the monitor itself all speak the same type.
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

/// Certifies `h` against `property`: a retain-all run of the monitor
/// over `h`'s events at their positions.
pub fn certify(property: Property, h: &History, spec: &SystemSpec) -> Certificate {
    run_retaining(property, h, spec, None)
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
    run_retaining(property, h, spec, Some(rel))
}

fn run_retaining(
    property: Property,
    h: &History,
    spec: &SystemSpec,
    rel: Option<&dyn CommutesRel>,
) -> Certificate {
    let mut monitor = OnlineCertifier::new_retaining(property, spec.clone(), None);
    for (pos, e) in h.events().iter().enumerate() {
        monitor.observe_with(pos as u64, e, rel);
    }
    monitor.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomicity_spec::atomicity::{is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
    use atomicity_spec::paper;
    use atomicity_spec::{op, Event, Operation, Value};

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
        ] {
            let json = serde_json::to_string(&method).unwrap();
            assert_eq!(serde_json::from_str::<Method>(&json).unwrap(), method);
        }
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
