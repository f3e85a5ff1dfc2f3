//! Property-based agreement between the linear-time certifier
//! (`analysis::certify`, a retain-all run of the streaming monitor that
//! also certifies live runs) and the exhaustive `spec::atomicity`
//! decision procedures: on randomly generated small histories —
//! committed, aborted, and still-active activities alike — both must
//! accept or both must reject, for all three local atomicity properties.

use atomicity::analysis::{certify, Property};
use atomicity::spec::atomicity::{is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
use atomicity::spec::specs::{BankAccountSpec, IntSetSpec};
use atomicity::spec::well_formed::WellFormedness;
use atomicity::spec::{
    op, ActivityId, Event, EventKind, History, ObjectId, Operation, SystemSpec, Value,
};
use proptest::prelude::*;

const X: ObjectId = ObjectId::new(1);
const Y: ObjectId = ObjectId::new(2);

fn system() -> SystemSpec {
    SystemSpec::new()
        .with_object(X, IntSetSpec::new())
        .with_object(Y, BankAccountSpec::new())
}

/// One random completed operation at a random object with a random
/// (possibly wrong) recorded result — wrong results make rejecting
/// histories as common as accepting ones.
fn arb_op_result() -> impl Strategy<Value = (ObjectId, Operation, Value)> {
    prop_oneof![
        (0..3i64, prop::bool::ANY).prop_map(|(k, v)| (X, op("member", [k]), Value::from(v))),
        (0..3i64).prop_map(|k| (X, op("insert", [k]), Value::ok())),
        (1..4i64).prop_map(|n| (Y, op("deposit", [n]), Value::ok())),
        (1..4i64, prop::bool::ANY).prop_map(|(n, ok)| {
            let result = if ok {
                Value::ok()
            } else {
                BankAccountSpec::insufficient_funds()
            };
            (Y, op("withdraw", [n]), result)
        }),
        (0..8i64, prop::bool::ANY).prop_map(|(b, exact)| {
            let v = if exact { b } else { b + 1 };
            (Y, op("balance", [] as [i64; 0]), Value::from(v))
        }),
    ]
}

/// How an activity ends.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Commit,
    Abort,
    Active,
}

fn arb_fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        3 => Just(Fate::Commit),
        1 => Just(Fate::Abort),
        1 => Just(Fate::Active),
    ]
}

/// A random well-formed (basic-model) history: 2–4 activities, each with
/// 1–2 completed operations and a fate, interleaved by random priorities.
fn arb_history() -> impl Strategy<Value = History> {
    let activity = (prop::collection::vec(arb_op_result(), 1..3), arb_fate());
    (prop::collection::vec(activity, 2..5), any::<u64>()).prop_map(|(acts, seed)| {
        let mut streams: Vec<Vec<Event>> = Vec::new();
        for (i, (ops, fate)) in acts.iter().enumerate() {
            let a = ActivityId::new(i as u32 + 1);
            let mut ev = Vec::new();
            let mut objects = Vec::new();
            for (x, o, v) in ops {
                ev.push(Event::invoke(a, *x, o.clone()));
                ev.push(Event::respond(a, *x, v.clone()));
                if !objects.contains(x) {
                    objects.push(*x);
                }
            }
            match fate {
                Fate::Commit => {
                    for x in objects {
                        ev.push(Event::commit(a, x));
                    }
                }
                Fate::Abort => {
                    for x in objects {
                        ev.push(Event::abort(a, x));
                    }
                }
                Fate::Active => {}
            }
            streams.push(ev);
        }
        // Deterministic pseudo-random interleave preserving stream order.
        let mut rng = seed;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng
        };
        let mut h = History::new();
        let mut idx = vec![0usize; streams.len()];
        loop {
            let live: Vec<usize> = (0..streams.len())
                .filter(|&i| idx[i] < streams[i].len())
                .collect();
            if live.is_empty() {
                break;
            }
            let pick = live[(next() % live.len() as u64) as usize];
            h.push(streams[pick][idx[pick]].clone());
            idx[pick] += 1;
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On small histories the certifier is always decisive, and its
    /// verdict equals the exhaustive dynamic-atomicity checker's —
    /// accepts and rejects alike, aborted/active activities included.
    #[test]
    fn dynamic_certifier_agrees_with_exhaustive_checker(h in arb_history()) {
        let spec = system();
        let cert = certify(Property::Dynamic, &h, &spec);
        prop_assert!(cert.is_decisive(), "unexpected Unknown: {cert}");
        prop_assert_eq!(
            cert.is_certified(),
            is_dynamic_atomic(&h, &spec)
        );
    }

    /// Same agreement for static atomicity, on histories decorated with
    /// start-order timestamps (when the decoration is well-formed).
    #[test]
    fn static_certifier_agrees_with_exhaustive_checker(h in arb_history()) {
        let hs = atomicity::bench::enumerate::with_start_order_timestamps(&h, X);
        let spec = system();
        if WellFormedness::Static.is_well_formed(&hs) {
            let cert = certify(Property::Static, &hs, &spec);
            prop_assert!(cert.is_decisive(), "unexpected Unknown: {cert}");
            prop_assert_eq!(
                cert.is_certified(),
                is_static_atomic(&hs, &spec)
            );
        }
    }

    /// Same agreement for hybrid atomicity, with commit-order timestamps.
    #[test]
    fn hybrid_certifier_agrees_with_exhaustive_checker(h in arb_history()) {
        let hh = atomicity::bench::enumerate::with_commit_order_timestamps(&h);
        let spec = system();
        let cert = certify(Property::Hybrid, &hh, &spec);
        prop_assert!(cert.is_decisive(), "unexpected Unknown: {cert}");
        prop_assert_eq!(
            cert.is_certified(),
            is_hybrid_atomic(&hh, &spec)
        );
    }
}

/// Arbitrary event soup — not even well-formed — must never panic the
/// certifier, and whenever the soup happens to be basic-well-formed a
/// decisive verdict must still agree with the exhaustive checker.
fn arb_any_event() -> impl Strategy<Value = Event> {
    let activity = (1u32..4).prop_map(ActivityId::new);
    let object = (1u32..3).prop_map(ObjectId::new);
    let kind = prop_oneof![
        (0..3i64).prop_map(|k| EventKind::Invoke(op("member", [k]))),
        prop::bool::ANY.prop_map(|b| EventKind::Respond(Value::from(b))),
        Just(EventKind::Respond(Value::ok())),
        Just(EventKind::Commit),
        (1u64..5).prop_map(EventKind::CommitTs),
        Just(EventKind::Abort),
        (1u64..5).prop_map(EventKind::Initiate),
    ];
    (activity, object, kind).prop_map(|(activity, object, kind)| Event {
        activity,
        object,
        kind,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn certifier_never_panics_on_event_soup(
        events in prop::collection::vec(arb_any_event(), 0..12)
    ) {
        let h = History::from_events(events);
        let spec = system();
        let dynamic = certify(Property::Dynamic, &h, &spec);
        let _ = certify(Property::Static, &h, &spec);
        let _ = certify(Property::Hybrid, &h, &spec);
        if WellFormedness::Basic.is_well_formed(&h) && dynamic.is_decisive() {
            prop_assert_eq!(
                dynamic.is_certified(),
                is_dynamic_atomic(&h, &spec)
            );
        }
    }
}

/// Deterministic pins: the paper's worked histories certify, and a
/// history with a wrong recorded result is refuted by both procedures.
#[test]
fn paper_histories_certify() {
    use atomicity::spec::paper;
    let bank = paper::bank_system();
    let cert = certify(
        Property::Dynamic,
        &paper::bank_concurrent_withdraws(),
        &bank,
    );
    assert!(cert.is_certified(), "{cert}");
    let queue = paper::queue_system();
    let cert = certify(
        Property::Dynamic,
        &paper::queue_interleaved_enqueues(),
        &queue,
    );
    assert!(cert.is_certified(), "{cert}");
}
