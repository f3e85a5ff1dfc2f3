//! Golden certificates: `certify` and `certify_with_relation` must issue
//! exactly the verdict kind, method, committed count and object count
//! recorded in `certify_golden.txt`, and the retaining monitor they run
//! must flag exactly the recorded violations — each one's stamp, object
//! and activity, in order — for
//!
//! - every worked history of `atomicity_spec::paper`, under all three
//!   properties;
//! - 256 event soups — arbitrary, mostly malformed streams — drawn from a
//!   fixed linear congruential generator, under all three properties;
//! - twenty contended deposits, with and without a trailing withdraw
//!   that conflicts with them, through both entry points;
//! - bank accounts that each commit a withdrawal from an empty balance
//!   while one open depositor keeps every window from retiring, so every
//!   object is refuted only when the stream finishes and the rows show
//!   which object the monitor concludes first.
//!
//! The file was captured while `analysis::certify` still held its own
//! post-hoc watermark procedure beside the streaming monitor, before the
//! two were folded into one; the violation columns were added later, so
//! that a change to the order in which the monitor walks its objects
//! shows here too. Certifier refactors may move code; they may not move a
//! certificate or a violation.

use atomicity_lint::{
    certify, certify_with_relation, Certificate, OnlineCertifier, Property, Violation,
};
use atomicity_spec::paper;
use atomicity_spec::specs::{BankAccountSpec, IntSetSpec};
use atomicity_spec::{op, ActivityId, Event, History, ObjectId, Operation, SystemSpec, Value};
use std::fmt::Write;
use std::sync::Arc;

const PROPERTIES: [Property; 3] = [Property::Dynamic, Property::Static, Property::Hybrid];

fn row(out: &mut String, name: &str, c: &Certificate, violations: &[Violation]) {
    write!(
        out,
        "{name} {} {} {} committed={} objects={} violations=[",
        c.property,
        c.verdict.kind(),
        c.method,
        c.committed,
        c.objects
    )
    .unwrap();
    for (i, v) in violations.iter().enumerate() {
        let object = v.object.map_or("-".to_string(), |x| x.to_string());
        let activity = v.activity.map_or("-".to_string(), |a| a.to_string());
        let sep = if i == 0 { "" } else { " " };
        write!(out, "{sep}{}:{object}:{activity}", v.stamp).unwrap();
    }
    writeln!(out, "]").unwrap();
}

/// The violations the retaining monitor flags over `h`'s events at their
/// positions — the run `certify` makes — after checking that it issues
/// the certificate `certify` returned.
fn violations(
    p: Property,
    h: &History,
    spec: &SystemSpec,
    rel: Option<Arc<dyn atomicity_core::CommutesRel>>,
    issued: &Certificate,
) -> Vec<Violation> {
    let mut monitor = OnlineCertifier::new_retaining(p, spec.clone(), rel);
    for (pos, e) in h.events().iter().enumerate() {
        monitor.observe(pos as u64, e);
    }
    let (c, violations) = monitor.finish();
    assert_eq!(
        format!("{c:?}"),
        format!("{issued:?}"),
        "the monitor and `certify` disagree"
    );
    violations
}

/// One row: `certify`'s certificate and the monitor's violations.
fn certify_row(out: &mut String, name: &str, p: Property, h: &History, spec: &SystemSpec) {
    let c = certify(p, h, spec);
    row(out, name, &c, &violations(p, h, spec, None, &c));
}

fn paper_cases() -> Vec<(&'static str, History)> {
    use paper::*;
    vec![
        ("perm_example", perm_example()),
        ("non_atomic_member", non_atomic_member()),
        ("precedes_empty_example", precedes_empty_example()),
        ("precedes_pair_example", precedes_pair_example()),
        ("atomic_not_dynamic", atomic_not_dynamic()),
        ("dynamic_example", dynamic_example()),
        ("static_wf_example", static_wf_example()),
        ("static_wf_counterexample", static_wf_counterexample()),
        ("atomic_not_static", atomic_not_static()),
        ("static_example", static_example()),
        ("hybrid_wf_example", hybrid_wf_example()),
        ("hybrid_wf_counterexample", hybrid_wf_counterexample()),
        ("atomic_not_hybrid", atomic_not_hybrid()),
        ("hybrid_example", hybrid_example()),
        ("bank_concurrent_withdraws", bank_concurrent_withdraws()),
        ("bank_deposit_withdraw", bank_deposit_withdraw()),
        ("queue_interleaved_enqueues", queue_interleaved_enqueues()),
        ("counter_serial_3", counter_serial(3)),
        ("counter_serial_12", counter_serial(12)),
    ]
}

/// The system a paper history is stated over, read off its name.
fn paper_system(name: &str) -> SystemSpec {
    match name.split('_').next() {
        Some("bank") => paper::bank_system(),
        Some("queue") => paper::queue_system(),
        Some("counter") => paper::counter_system(),
        _ => paper::set_system(),
    }
}

const X: ObjectId = ObjectId::new(1);
const Y: ObjectId = ObjectId::new(2);
/// Deliberately left without a specification.
const Z: ObjectId = ObjectId::new(3);

fn soup_system() -> SystemSpec {
    SystemSpec::new()
        .with_object(X, IntSetSpec::new())
        .with_object(Y, BankAccountSpec::new())
}

/// One raw draw → one event: the total decoding of the streaming
/// certifier's soup proptest (`crates/certify/tests/equivalence.rs`).
fn decode(a: u32, o: u32, k: usize, val: u8, ts: u64) -> Event {
    let act = ActivityId::new(1 + a % 4);
    let x = [X, Y, Z][(o % 3) as usize];
    let v = i64::from(val % 3);
    match k % 8 {
        0 => Event::invoke(act, x, op("insert", [v])),
        1 => Event::invoke(act, x, op("member", [v])),
        2 => Event::respond(act, x, Value::ok()),
        3 => Event::respond(act, x, Value::from(val.is_multiple_of(2))),
        4 => Event::commit(act, x),
        5 => Event::commit_ts(act, x, 1 + ts % 5),
        6 => Event::abort(act, x),
        _ => Event::initiate(act, x, 1 + ts % 5),
    }
}

/// Knuth's MMIX linear congruential generator: fixed, so the soups are
/// the same on every run and every platform.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn soups() -> Vec<History> {
    let mut rng = Lcg(0x5eed_c0de);
    (0..256)
        .map(|_| {
            let len = rng.next() % 48;
            History::from_events((0..len).map(|_| {
                decode(
                    rng.next() as u32,
                    rng.next() as u32,
                    rng.next() as usize,
                    rng.next() as u8,
                    rng.next(),
                )
            }))
        })
        .collect()
}

/// Twenty deposits whose responses all precede every commit — every pair
/// is concurrent, far past the enumeration bound — optionally with a
/// withdraw `W` (activity 99) that also responds before the commits and
/// commits last.
fn contended_deposits(withdraw: bool) -> History {
    let mut events = Vec::new();
    for i in 1..=20u32 {
        let a = ActivityId::new(i);
        events.push(Event::invoke(a, paper::Y, op("deposit", [5])));
        events.push(Event::respond(a, paper::Y, Value::ok()));
    }
    let w = ActivityId::new(99);
    if withdraw {
        events.push(Event::invoke(w, paper::Y, op("withdraw", [5])));
        events.push(Event::respond(w, paper::Y, Value::ok()));
    }
    for i in 1..=20u32 {
        events.push(Event::commit(ActivityId::new(i), paper::Y));
    }
    if withdraw {
        events.push(Event::commit(w, paper::Y));
    }
    History::from_events(events)
}

/// `n` bank accounts, arriving in descending id order: one depositor
/// stays open on all of them, and on each a liar commits a withdrawal
/// that an empty account cannot have granted.
fn liars(n: u32) -> (History, SystemSpec) {
    let objects: Vec<ObjectId> = (1..=n).rev().map(ObjectId::new).collect();
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
    (History::from_events(events), spec)
}

fn transcript() -> String {
    let mut out = String::new();
    for (name, h) in paper_cases() {
        let spec = paper_system(name);
        for p in PROPERTIES {
            certify_row(&mut out, &format!("paper/{name}"), p, &h, &spec);
        }
    }
    let spec = soup_system();
    for (i, h) in soups().iter().enumerate() {
        for p in PROPERTIES {
            certify_row(&mut out, &format!("soup/{i:03}"), p, h, &spec);
        }
    }
    let spec = paper::bank_system();
    let deposits = |p: &Operation, q: &Operation| p.name() == "deposit" && q.name() == "deposit";
    for (name, withdraw) in [("deposits", false), ("deposits+withdraw", true)] {
        let h = contended_deposits(withdraw);
        for p in PROPERTIES {
            certify_row(&mut out, &format!("{name}/certify"), p, &h, &spec);
            let c = certify_with_relation(p, &h, &spec, &deposits);
            let flagged = violations(p, &h, &spec, Some(Arc::new(deposits)), &c);
            row(&mut out, &format!("{name}/with_relation"), &c, &flagged);
        }
    }
    for n in [2, 3, 4, 8, 16] {
        let (h, spec) = liars(n);
        for p in PROPERTIES {
            certify_row(&mut out, &format!("liars/{n:02}"), p, &h, &spec);
        }
    }
    out
}

#[test]
fn certificates_match_the_golden_file() {
    let actual = transcript();
    let golden = include_str!("certify_golden.txt");
    let moved: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        moved.is_empty() && golden.lines().count() == actual.lines().count(),
        "{} certificate(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
