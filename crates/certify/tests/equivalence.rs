//! Agreement proptests: the monitor against the exhaustive checkers of
//! `atomicity_spec::atomicity`, and its two modes against each other.
//!
//! Three layers of evidence:
//!
//! 1. **Arbitrary event soups, retain-all mode** — what `certify` runs.
//!    On *any* event sequence, malformed ones included (responses after
//!    commit, commits after abort, duplicate commits, timestamp chaos),
//!    the static and hybrid verdicts must equal [`is_static_atomic`] and
//!    [`is_hybrid_atomic`], and a decisive dynamic verdict on a soup the
//!    basic discipline accepts must equal [`is_dynamic_atomic`].
//! 2. **Disciplined streams, both modes.** On streams obeying the
//!    engine's discipline (paired invoke/response, terminal commit/abort,
//!    monotone timestamps) the *retiring* monitor — the configuration
//!    e16 runs, where bounded memory matters — must agree with the
//!    retaining one in verdict kind and counts, and on small universes a
//!    decisive dynamic verdict must match [`is_dynamic_atomic`].
//! 3. **Mid-stream injection.** A violation buried in a long stream is
//!    flagged at the offending commit with retirement on.

use atomicity_certify::OnlineCertifier;
use atomicity_lint::{certify, Certificate, Property, Verdict};
use atomicity_spec::atomicity::{is_dynamic_atomic, is_hybrid_atomic, is_static_atomic};
use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
use atomicity_spec::well_formed::WellFormedness;
use atomicity_spec::{op, ActivityId, Event, EventKind, History, ObjectId, SystemSpec, Value};
use proptest::prelude::*;

const X: ObjectId = ObjectId::new(1);
const Y: ObjectId = ObjectId::new(2);
/// Deliberately left without a specification.
const Z: ObjectId = ObjectId::new(3);

fn system() -> SystemSpec {
    SystemSpec::new()
        .with_object(X, IntSetSpec::new())
        .with_object(Y, BankAccountSpec::new())
}

fn property(p: usize) -> Property {
    match p % 3 {
        0 => Property::Dynamic,
        1 => Property::Static,
        _ => Property::Hybrid,
    }
}

/// One raw tuple → one event; the decoding is total so proptest explores
/// the full space of (mal)formed streams.
type Raw = (u32, u32, usize, u8, u64);

fn decode((a, o, k, val, ts): Raw) -> Event {
    let act = ActivityId::new(1 + a % 4);
    let x = [X, Y, Z][(o % 3) as usize];
    let v = i64::from(val % 3);
    match k % 8 {
        0 => Event::invoke(act, x, op("insert", [v])),
        1 => Event::invoke(act, x, op("member", [v])),
        2 => Event::respond(act, x, Value::ok()),
        3 => Event::respond(act, x, Value::from(val % 2 == 0)),
        4 => Event::commit(act, x),
        5 => Event::commit_ts(act, x, 1 + ts % 5),
        6 => Event::abort(act, x),
        _ => Event::initiate(act, x, 1 + ts % 5),
    }
}

fn run_online(mut mon: OnlineCertifier, events: &[Event]) -> Certificate {
    for (i, e) in events.iter().enumerate() {
        mon.observe(i as u64, e);
    }
    mon.finish().0
}

fn retaining_matches_the_oracle(events: &[Event]) -> Result<(), TestCaseError> {
    let h = History::from_events(events.to_vec());
    let spec = system();
    let retaining = |p| run_online(OnlineCertifier::new_retaining(p, system(), None), events);
    for (p, atomic) in [
        (Property::Static, is_static_atomic(&h, &spec)),
        (Property::Hybrid, is_hybrid_atomic(&h, &spec)),
    ] {
        let cert = retaining(p);
        prop_assert!(cert.is_decisive(), "unexpected {cert}");
        prop_assert!(
            cert.is_certified() == atomic,
            "{cert} vs the oracle's {atomic}"
        );
    }
    let dynamic = retaining(Property::Dynamic);
    if WellFormedness::Basic.is_well_formed(&h) && dynamic.is_decisive() {
        let atomic = is_dynamic_atomic(&h, &spec);
        prop_assert!(
            dynamic.is_certified() == atomic,
            "{dynamic} vs the oracle's {atomic}"
        );
    }
    Ok(())
}

/// Builds a disciplined stream: per-activity scripts (optional initiation,
/// invoke/respond pairs, terminal commit/abort) interleaved by `picks`,
/// then every timestamp event reassigned from a monotone counter in
/// stream order — exactly what the engine's Lamport clock guarantees.
/// Per-activity script: optional initiation, invoke/respond steps, terminal.
type Script = (bool, Vec<(u32, u8, u8)>, u8);

fn disciplined(scripts: &[Script], picks: &[u8]) -> Vec<Event> {
    let mut lanes: Vec<Vec<Event>> = Vec::new();
    for (i, (initiate, steps, end)) in scripts.iter().enumerate() {
        let act = ActivityId::new(1 + i as u32);
        let mut lane = Vec::new();
        let home = [X, Y][i % 2];
        if *initiate {
            lane.push(Event::initiate(act, home, 0)); // ts reassigned below
        }
        for &(o, kind, val) in steps {
            let x = [X, Y, Z][(o % 3) as usize];
            let v = i64::from(val % 3);
            match kind % 3 {
                0 => {
                    lane.push(Event::invoke(act, x, op("insert", [v])));
                    lane.push(Event::respond(act, x, Value::ok()));
                }
                1 => {
                    lane.push(Event::invoke(act, x, op("member", [v])));
                    lane.push(Event::respond(act, x, Value::from(val % 2 == 0)));
                }
                _ => {
                    lane.push(Event::invoke(act, x, op("deposit", [v])));
                    lane.push(Event::respond(act, x, Value::ok()));
                }
            }
        }
        match end % 3 {
            0 => lane.push(Event::commit(act, home)),
            1 => lane.push(Event::abort(act, home)),
            _ => {} // left open: aborted implicitly by never committing
        }
        lanes.push(lane);
    }
    let mut idx = vec![0usize; lanes.len()];
    let mut out = Vec::new();
    let mut pi = 0usize;
    loop {
        let live: Vec<usize> = (0..lanes.len())
            .filter(|&k| idx[k] < lanes[k].len())
            .collect();
        if live.is_empty() {
            break;
        }
        let k = live[picks.get(pi).copied().unwrap_or(0) as usize % live.len()];
        pi += 1;
        out.push(lanes[k][idx[k]].clone());
        idx[k] += 1;
    }
    // Monotone timestamp reassignment in stream order.
    let mut clock = 0u64;
    for e in &mut out {
        match &mut e.kind {
            EventKind::Initiate(t) | EventKind::CommitTs(t) => {
                clock += 1;
                *t = clock;
            }
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Layer 1: retain-all mode agrees with the exhaustive checkers on
    /// arbitrary soups.
    #[test]
    fn retaining_monitor_agrees_on_arbitrary_soups(
        raw in prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<usize>(), any::<u8>(), any::<u64>()),
            0..48,
        ),
    ) {
        let events: Vec<Event> = raw.into_iter().map(decode).collect();
        retaining_matches_the_oracle(&events)?;
    }

    /// Layer 2: on disciplined streams the retiring monitor agrees with
    /// the retain-all monitor and — on small universes with decisive
    /// verdicts — the exhaustive checker.
    #[test]
    fn retiring_monitor_agrees_on_disciplined_streams(
        scripts in prop::collection::vec(
            (
                any::<bool>(),
                prop::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 0..4),
                any::<u8>(),
            ),
            1..5,
        ),
        picks in prop::collection::vec(any::<u8>(), 0..64),
        p in any::<usize>(),
    ) {
        let prop_kind = property(p);
        let events = disciplined(&scripts, &picks);
        let retiring = run_online(
            OnlineCertifier::new(prop_kind, system(), None),
            &events,
        );
        let retaining = run_online(
            OnlineCertifier::new_retaining(prop_kind, system(), None),
            &events,
        );
        let h = History::from_events(events.clone());
        prop_assert!(
            retiring.verdict.agrees_with(&retaining.verdict),
            "retiring {retiring} disagrees with retaining {retaining}"
        );
        prop_assert_eq!(retiring.committed, retaining.committed);
        prop_assert_eq!(retiring.objects, retaining.objects);
        if prop_kind == Property::Dynamic && retaining.committed <= 5 {
            let exhaustive = is_dynamic_atomic(&h, &system());
            match &retiring.verdict {
                Verdict::Certified => prop_assert!(
                    exhaustive,
                    "online certified a history the exhaustive checker rejects"
                ),
                Verdict::Refuted(why) => prop_assert!(
                    !exhaustive,
                    "online refuted ({why}) a history the exhaustive checker accepts"
                ),
                Verdict::Unknown(_) => {}
            }
        }
    }
}

/// An injected non-atomic interleaving buried in a long certified stream
/// is flagged at the offending commit, with retirement active throughout.
#[test]
fn injected_violation_is_flagged_mid_stream_with_retirement_on() {
    let mut events = Vec::new();
    let mut next = 1u32;
    let mut serial_txn = |events: &mut Vec<Event>, v: i64| {
        let a = ActivityId::new(next);
        next += 1;
        events.push(Event::invoke(a, X, op("insert", [v])));
        events.push(Event::respond(a, X, Value::ok()));
        events.push(Event::commit(a, X));
    };
    for i in 0..400 {
        serial_txn(&mut events, i);
    }
    // The injection: `b` sees `a`'s committed insert as absent.
    let (a, b) = (ActivityId::new(90_001), ActivityId::new(90_002));
    events.push(Event::invoke(a, X, op("insert", [-7])));
    events.push(Event::respond(a, X, Value::ok()));
    events.push(Event::commit(a, X));
    let violating_commit = {
        events.push(Event::invoke(b, X, op("member", [-7])));
        events.push(Event::respond(b, X, Value::from(false)));
        events.push(Event::commit(b, X));
        events.len() as u64 - 1
    };
    for i in 0..400 {
        serial_txn(&mut events, 1_000 + i);
    }

    let mut mon = OnlineCertifier::new(Property::Dynamic, system(), None);
    let mut flagged_at = None;
    for (i, e) in events.iter().enumerate() {
        if let Some(v) = mon.observe(i as u64, e) {
            assert!(flagged_at.is_none(), "only one violation expected: {v}");
            flagged_at = Some(v.stamp);
        }
    }
    assert_eq!(
        flagged_at,
        Some(violating_commit),
        "the violation must surface at the offending commit, not at finish"
    );
    let peak = mon.peak_retained();
    let (cert, violations) = mon.finish();
    assert!(matches!(cert.verdict, Verdict::Refuted(_)), "{cert}");
    assert_eq!(violations.len(), 1);
    assert!(
        peak < 32,
        "retirement must keep the window flat around the injection (peak {peak})"
    );
    // And `certify`, the retain-all run over the merged history, agrees.
    let post = certify(Property::Dynamic, &History::from_events(events), &system());
    assert!(cert.verdict.agrees_with(&post.verdict));
}
