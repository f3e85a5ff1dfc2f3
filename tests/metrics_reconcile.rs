//! Reconciliation property: the metrics registry's counters agree with
//! the counts derivable from the recorded history and from the manager's
//! outcomes — the observability layer reports the computation that
//! actually happened, neither more nor less.

use atomicity::bench::Engine;
use atomicity::core::{AdmissionOutcome, TraceKind};
use atomicity::spec::{op, EventKind, ObjectId};
use proptest::prelude::*;

/// One transaction of the generated workload.
#[derive(Debug, Clone)]
struct TxnPlan {
    /// Operations: (object index, op choice). Non-empty, so every
    /// committed transaction leaves events at some object.
    ops: Vec<(usize, OpChoice)>,
    commit: bool,
}

#[derive(Debug, Clone, Copy)]
enum OpChoice {
    Deposit(i64),
    Withdraw(i64),
    Balance,
}

impl OpChoice {
    fn operation(self) -> atomicity::spec::Operation {
        match self {
            OpChoice::Deposit(n) => op("deposit", [n]),
            OpChoice::Withdraw(n) => op("withdraw", [n]),
            OpChoice::Balance => op("balance", [] as [i64; 0]),
        }
    }
}

fn arb_op() -> impl Strategy<Value = (usize, OpChoice)> {
    (
        0..2usize,
        prop_oneof![
            (1..5i64).prop_map(OpChoice::Deposit),
            (1..5i64).prop_map(OpChoice::Withdraw),
            Just(OpChoice::Balance),
        ],
    )
}

fn arb_plan() -> impl Strategy<Value = TxnPlan> {
    (prop::collection::vec(arb_op(), 1..5), prop::bool::ANY)
        .prop_map(|(ops, commit)| TxnPlan { ops, commit })
}

fn arb_engine() -> impl Strategy<Value = Engine> {
    (0..Engine::ALL.len()).prop_map(|i| Engine::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn registry_counters_reconcile_with_the_history(
        engine in arb_engine(),
        plans in prop::collection::vec(arb_plan(), 1..12),
    ) {
        let handle = engine.builder().collect_metrics().build();
        let mgr = handle.manager();
        let objects = [
            handle.account(ObjectId::new(1), 100),
            handle.account(ObjectId::new(2), 100),
        ];

        // Sequential transactions (one live at a time), so no engine can
        // block or conflict: every invocation is admitted and every fate
        // is the planned one.
        let (mut committed, mut aborted) = (0u64, 0u64);
        for plan in &plans {
            let txn = mgr.begin();
            for &(obj, choice) in &plan.ops {
                objects[obj]
                    .invoke(&txn, choice.operation())
                    .expect("sequential invocations are always admitted");
            }
            if plan.commit {
                mgr.commit(txn).expect("sequential commits succeed");
                committed += 1;
            } else {
                mgr.abort(txn);
                aborted += 1;
            }
        }

        let h = mgr.history();
        let snap = handle.metrics().snapshot();

        // Manager-level counts match both the plan and the history.
        prop_assert_eq!(snap.txns_begun, plans.len() as u64);
        prop_assert_eq!(snap.txns_committed, committed);
        prop_assert_eq!(snap.txns_aborted, aborted);
        prop_assert_eq!(h.committed_activities().len() as u64, committed);
        prop_assert_eq!(h.aborted_activities().len() as u64, aborted);

        // Admissions == respond events: each admitted invocation records
        // exactly one response in the history.
        let responds = h
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Respond(_)))
            .count() as u64;
        let admissions: u64 = snap.objects.iter().map(|o| o.stats.admissions).sum();
        prop_assert_eq!(admissions, responds);
        prop_assert_eq!(snap.invoke_ns.count, admissions);

        // Per-object: the handle's commit/abort counters equal the
        // commit/abort events in that object's projected history.
        for o in &snap.objects {
            let ph = h.project_object(ObjectId::new(o.object));
            let commits = ph
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Commit | EventKind::CommitTs(_)))
                .count() as u64;
            let aborts = ph
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Abort))
                .count() as u64;
            prop_assert_eq!(o.stats.commits, commits);
            prop_assert_eq!(o.stats.aborts, aborts);
        }

        // The commit-path histogram sampled exactly the commits, and the
        // trace ring (far from wrapping at this size) kept every
        // transaction-lifecycle event.
        prop_assert_eq!(snap.commit_ns.count, committed);
        let trace = handle.metrics().trace_events();
        prop_assert_eq!(trace.dropped, 0);
        let count_kind = |k: TraceKind| {
            trace.records.iter().filter(|r| r.kind == k).count() as u64
        };
        prop_assert_eq!(count_kind(TraceKind::Begin), snap.txns_begun);
        prop_assert_eq!(count_kind(TraceKind::Commit), committed);
        prop_assert_eq!(count_kind(TraceKind::Abort), aborted);
        prop_assert_eq!(count_kind(TraceKind::Invoke), admissions);
    }

    /// On the non-blocking path every engine and baseline follows one
    /// rule: each `Blocked` outcome is one block round — in the counters
    /// and in the trace — and leaves nothing in the history.
    #[test]
    fn blocks_reconcile_with_blocked_outcomes(
        engine in arb_engine(),
        script in prop::collection::vec((0..3usize, arb_op()), 1..40),
    ) {
        let handle = engine.builder().collect_metrics().build();
        let mgr = handle.manager();
        let objects = [
            handle.account(ObjectId::new(1), 100),
            handle.account(ObjectId::new(2), 100),
        ];

        // Three transactions stay open and interleave, so requests do
        // conflict; a refused transaction is replaced by a fresh one.
        let mut open: Vec<_> = (0..3).map(|_| mgr.begin()).collect();
        let (mut admitted, mut blocked) = (0u64, 0u64);
        for &(slot, (obj, choice)) in &script {
            match objects[obj].try_admit(&open[slot], choice.operation()) {
                AdmissionOutcome::Admitted(_) => admitted += 1,
                AdmissionOutcome::Blocked { .. } => blocked += 1,
                AdmissionOutcome::Rejected(_) => {
                    mgr.abort(std::mem::replace(&mut open[slot], mgr.begin()));
                }
            }
        }
        for txn in open {
            mgr.abort(txn);
        }

        let snap = handle.metrics().snapshot();
        let blocks: u64 = snap.objects.iter().map(|o| o.stats.blocks).sum();
        let admissions: u64 = snap.objects.iter().map(|o| o.stats.admissions).sum();
        prop_assert_eq!(blocks, blocked);
        prop_assert_eq!(admissions, admitted);
        let trace = handle.metrics().trace_events();
        prop_assert_eq!(trace.dropped, 0);
        let traced_blocks = trace.records.iter().filter(|r| r.kind == TraceKind::Block).count();
        prop_assert_eq!(traced_blocks as u64, blocked);
        let responds = mgr
            .history()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Respond(_)))
            .count() as u64;
        prop_assert_eq!(responds, admitted);
    }
}
