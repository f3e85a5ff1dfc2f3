//! Pass 1: conflict-table **synthesis** — machine-derive commutativity
//! tables from sequential specifications, and diff the hand-written ones
//! against them.
//!
//! For every pair of operation instances in a bounded universe this pass
//! decides **pairwise forward commutativity** over an exhaustively
//! enumerated bounded state space, generalizes the per-instance verdicts
//! into [`ConflictTable`] rules bucketed by [`ArgRelation`], and ships the
//! result to the engines. It is the only code in the workspace that
//! decides whether two operations commute. Three artifacts ride along:
//!
//! - **Soundness self-check** ([`verify_table`]): every commuting rule is
//!   re-proven instance-by-instance, state-by-state; a violation carries a
//!   [`ForwardCounterexample`] certificate. This is the `lint` CI gate
//!   (and what catches the `--demo-unsound` injected corruption).
//! - **Minimality / gap report** ([`gap_against`]): each hand-table entry
//!   stricter than the synthesized relation gets a witness-state
//!   certificate quantifying the lost concurrency; conversely each
//!   hand-table conflict that the synthesis also proves necessary gets a
//!   concrete conflicting state, so "the hand table is minimal" is a
//!   checked claim, not an assumption. A hand-table entry the synthesis
//!   refutes, or a hand relation that is not symmetric, is **unsound** —
//!   fatal in `lint`.
//! - **Right-mover asymmetries** ([`Asymmetry`]), the recoverability
//!   relations of Malta & Martinez: ordered pairs where `p;q` can always
//!   be reordered to `q;p` but not conversely — constraints on log
//!   ordering during recovery that plain commutativity cannot express.
//!
//! # Why *forward* commutativity
//!
//! The observational relation — compare the outcome sets of the two
//! sequential orders `p;q` and `q;p` — matches how a *scheduler* observes
//! a serial history, but it is **unsound** as a locking relation for
//! non-deterministic operations: semiqueue `deq`/`deq` observationally
//! "commute" in the state `{1,2}` (both orders can yield `{1 then 2}` or
//! `{2 then 1}`), yet two concurrent holders would each independently take
//! the *same* element. (An earlier audit pass judged the hand tables by
//! that relation; it was dropped for this reason.) The commutativity-locking
//! engine executes each holder against its own frontier — results are
//! computed **independently from the same base state** — so the sound
//! relation is: for every result `vp` of `p` at `s` and every result `vq`
//! of `q` at `s`, *both* interleavings `[(p,vp),(q,vq)]` and
//! `[(q,vq),(p,vp)]` replay from `s` and reach identical state sets. That
//! is [`forward_commute_in_state`]. On deterministic operations it
//! coincides with the observational relation; on non-deterministic ones it
//! is strictly stronger exactly where locking needs it to be.

use atomicity_baselines::{
    bank_commutativity, map_commutativity, queue_commutativity, set_commutativity,
};
use atomicity_core::conflict::{
    arg_relation, ArgRelation, CommutesRel, ConflictRule, ConflictTable,
};
use atomicity_spec::specs::{
    BankAccountSpec, EscrowCounterSpec, FifoQueueSpec, IntSetSpec, KvMapSpec, SemiqueueSpec,
};
use atomicity_spec::{op, Operation, SequentialSpec, Value};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

use crate::derive::{same_state_set, sample_states};

/// Bounds for the synthesis state enumeration.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Maximum number of operations applied from the initial state.
    pub depth: usize,
    /// Cap on distinct states explored; the shipped universes stay well
    /// under it, so synthesis is exhaustive (`truncated == 0`).
    pub max_states: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            depth: 4,
            max_states: 4096,
        }
    }
}

/// A certificate that two operations do **not** forward-commute: a state
/// plus independently achievable results for which the two interleavings
/// disagree (or one fails to replay at all).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ForwardCounterexample {
    /// The conflicting state (debug rendering).
    pub state: String,
    /// A result `p` can produce at that state.
    pub p_result: String,
    /// A result `q` can independently produce at that state.
    pub q_result: String,
    /// Final states reached replaying `p` then `q` with those results
    /// (empty = the order cannot replay).
    pub pq_states: Vec<String>,
    /// Final states reached replaying `q` then `p` with those results.
    pub qp_states: Vec<String>,
}

impl fmt::Display for ForwardCounterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in state {} independent results ({}, {}) replay to {:?} under p;q but {:?} under q;p",
            self.state, self.p_result, self.q_result, self.pq_states, self.qp_states
        )
    }
}

/// The synthesized verdict for one unordered pair of operation instances.
#[derive(Debug, Clone)]
pub struct InstanceVerdict {
    /// First operation of the pair.
    pub p: Operation,
    /// Second operation of the pair.
    pub q: Operation,
    /// Argument bucket the pair falls in.
    pub relation: ArgRelation,
    /// States in which the pair forward-commutes.
    pub commuting_states: usize,
    /// States examined.
    pub total_states: usize,
    /// Certificate for the first conflicting state, if any.
    pub counterexample: Option<ForwardCounterexample>,
    /// A state in which the pair forward-commutes with both operations
    /// enabled (debug rendering), if one exists — the witness used by the
    /// gap report.
    pub commuting_witness: Option<String>,
}

impl InstanceVerdict {
    /// Whether the pair forward-commutes in every examined state.
    pub fn commutes_everywhere(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// An ordered pair with a one-directional reordering guarantee: every
/// execution of `first; second` can be reordered to `second; first` with
/// identical results and final states, but not conversely.
///
/// These are the recoverability asymmetries of Malta & Martinez: the log
/// may move `first` after `second` during replay, never the other way.
#[derive(Debug, Clone)]
pub struct Asymmetry {
    /// The operation that can always be pushed later (a right mover with
    /// respect to `past`).
    pub mover: Operation,
    /// The operation it moves past.
    pub past: Operation,
}

impl fmt::Display for Asymmetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ; {} always reorders to {} ; {}, but not conversely",
            self.mover, self.past, self.past, self.mover
        )
    }
}

/// A rule the soundness self-check could not re-prove.
#[derive(Debug, Clone)]
pub struct SoundnessViolation {
    /// First operation of the offending pair.
    pub p: Operation,
    /// Second operation.
    pub q: Operation,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}): {}", self.p, self.q, self.detail)
    }
}

/// The full output of synthesizing one ADT's table.
#[derive(Debug, Clone)]
pub struct TableSynthesis {
    /// The generated table (what the engines consume).
    pub table: ConflictTable,
    /// Per-instance verdicts backing the rules.
    pub instances: Vec<InstanceVerdict>,
    /// Right-mover asymmetries among universe instances.
    pub asymmetries: Vec<Asymmetry>,
}

impl TableSynthesis {
    /// The verdict for a specific unordered instance pair, if in universe.
    pub fn instance(&self, p: &Operation, q: &Operation) -> Option<&InstanceVerdict> {
        self.instances
            .iter()
            .find(|v| (&v.p == p && &v.q == q) || (&v.p == q && &v.q == p))
    }

    /// The universe operations the specification accepts in no explored
    /// state (unknown or ill-typed). Every verdict about one is vacuous —
    /// it "commutes" with everything because it never runs — so
    /// [`gap_against`] classifies none of its pairs. Read off the
    /// operation's verdict against itself: an operation enabled anywhere
    /// leaves a commuting witness or a counterexample there.
    pub fn unsupported(&self) -> Vec<&Operation> {
        self.instances
            .iter()
            .filter(|v| v.p == v.q && v.commuting_witness.is_none() && v.counterexample.is_none())
            .map(|v| &v.p)
            .collect()
    }
}

/// Whether `p` and `q` **forward-commute** in `state`: for every result of
/// `p` and every result of `q`, each achievable *independently* at `state`,
/// both interleavings replay and reach identical final-state sets.
///
/// If either operation has no outcome at `state` (ill-typed or undefined),
/// the pair vacuously commutes there — the engines never hold an
/// inadmissible operation.
pub fn forward_commute_in_state<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    p: &Operation,
    q: &Operation,
) -> bool {
    forward_conflict_witness(spec, state, p, q).is_none()
}

/// `(p_result, q_result, pq_replay_states, qp_replay_states)` of one
/// independent result pair whose two interleavings diverge.
type ConflictWitness<S> = (
    Value,
    Value,
    Vec<<S as SequentialSpec>::State>,
    Vec<<S as SequentialSpec>::State>,
);

fn forward_conflict_witness<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    p: &Operation,
    q: &Operation,
) -> Option<ConflictWitness<S>> {
    let ps = spec.step(state, p);
    let qs = spec.step(state, q);
    if ps.is_empty() || qs.is_empty() {
        return None;
    }
    for (vp, _) in &ps {
        for (vq, _) in &qs {
            let pq = spec.replay(state, &[(p.clone(), vp.clone()), (q.clone(), vq.clone())]);
            let qp = spec.replay(state, &[(q.clone(), vq.clone()), (p.clone(), vp.clone())]);
            if !same_state_set(&pq, &qp) {
                return Some((vp.clone(), vq.clone(), pq, qp));
            }
        }
    }
    None
}

/// Whether every execution of `p` then `q` from `state` can be reordered to
/// `q` then `p` with identical results and final states — `p` is a *right
/// mover* past `q` at `state`.
///
/// Unlike [`forward_commute_in_state`], the second operation's result is
/// taken from the state *after* the first — this is reordering of a
/// sequential log, the recovery-time question, not the concurrent-holders
/// question.
pub fn right_mover_in_state<S: SequentialSpec>(
    spec: &S,
    state: &S::State,
    p: &Operation,
    q: &Operation,
) -> bool {
    for (vp, sp) in spec.step(state, p) {
        for (vq, _) in spec.step(&sp, q) {
            let pq = spec.replay(state, &[(p.clone(), vp.clone()), (q.clone(), vq.clone())]);
            let qp = spec.replay(state, &[(q.clone(), vq.clone()), (p.clone(), vp.clone())]);
            if !same_state_set(&pq, &qp) {
                return false;
            }
        }
    }
    true
}

/// Synthesizes a conflict table for `spec` over `universe`.
///
/// Every unordered instance pair (including an instance with itself — two
/// transactions may issue identical invocations) is decided in every
/// explored state; verdicts are generalized into rules keyed by name pair
/// plus [`ArgRelation`], a rule commuting only if **all** its instance
/// pairs commute in **all** states.
pub fn synthesize_table<S: SequentialSpec>(
    adt: &str,
    spec_name: &str,
    spec: &S,
    universe: &[Operation],
    config: &SynthConfig,
) -> TableSynthesis
where
    S::State: Ord + fmt::Debug,
{
    let sample = sample_states(spec, universe, config.depth, config.max_states);
    let states = &sample.states;

    let mut instances = Vec::new();
    let mut asymmetries = Vec::new();
    for i in 0..universe.len() {
        for j in i..universe.len() {
            let (p, q) = (&universe[i], &universe[j]);
            let mut commuting = 0usize;
            let mut counterexample = None;
            let mut commuting_witness = None;
            for s in states {
                match forward_conflict_witness(spec, s, p, q) {
                    None => {
                        commuting += 1;
                        let both_enabled =
                            !spec.step(s, p).is_empty() && !spec.step(s, q).is_empty();
                        if commuting_witness.is_none() && both_enabled {
                            commuting_witness = Some(format!("{s:?}"));
                        }
                    }
                    Some((vp, vq, pq, qp)) => {
                        if counterexample.is_none() {
                            counterexample = Some(ForwardCounterexample {
                                state: format!("{s:?}"),
                                p_result: vp.to_string(),
                                q_result: vq.to_string(),
                                pq_states: pq.iter().map(|x| format!("{x:?}")).collect(),
                                qp_states: qp.iter().map(|x| format!("{x:?}")).collect(),
                            });
                        }
                    }
                }
            }
            instances.push(InstanceVerdict {
                p: p.clone(),
                q: q.clone(),
                relation: arg_relation(p, q),
                commuting_states: commuting,
                total_states: states.len(),
                counterexample,
                commuting_witness,
            });
            if i != j {
                let pq_mover = states.iter().all(|s| right_mover_in_state(spec, s, p, q));
                let qp_mover = states.iter().all(|s| right_mover_in_state(spec, s, q, p));
                if pq_mover && !qp_mover {
                    asymmetries.push(Asymmetry {
                        mover: p.clone(),
                        past: q.clone(),
                    });
                } else if qp_mover && !pq_mover {
                    asymmetries.push(Asymmetry {
                        mover: q.clone(),
                        past: p.clone(),
                    });
                }
            }
        }
    }

    // Generalize instance verdicts into bucketed rules: commute only if
    // every instance pair in the bucket commutes everywhere.
    let mut buckets: BTreeMap<(String, String, ArgRelation), (bool, usize)> = BTreeMap::new();
    for v in &instances {
        let (a, b) = if v.p.name() <= v.q.name() {
            (v.p.name().to_string(), v.q.name().to_string())
        } else {
            (v.q.name().to_string(), v.p.name().to_string())
        };
        let entry = buckets.entry((a, b, v.relation)).or_insert((true, 0));
        entry.0 &= v.commutes_everywhere();
        entry.1 += 1;
    }
    let rules = buckets
        .into_iter()
        .map(
            |((p_name, q_name, relation), (commutes, instance_pairs))| ConflictRule {
                p_name,
                q_name,
                relation,
                commutes,
                instance_pairs,
            },
        )
        .collect();

    TableSynthesis {
        table: ConflictTable {
            adt: adt.to_string(),
            spec: spec_name.to_string(),
            depth: config.depth,
            states_explored: states.len(),
            truncated: sample.truncated,
            universe: universe.iter().map(|o| o.to_string()).collect(),
            rules,
        },
        instances,
        asymmetries,
    }
}

/// Re-proves every commuting rule of `table` against `spec` from scratch:
/// each universe instance pair the table admits must forward-commute in
/// every explored state, and the table must be symmetric. Returns all
/// violations (empty = sound).
///
/// This deliberately re-runs the underlying decision procedure rather than
/// trusting the synthesis that produced the table, so it also catches
/// tables corrupted after generation (the `--demo-unsound` path) and any
/// future generalization bug.
pub fn verify_table<S: SequentialSpec>(
    spec: &S,
    universe: &[Operation],
    config: &SynthConfig,
    table: &ConflictTable,
) -> Vec<SoundnessViolation>
where
    S::State: Ord + fmt::Debug,
{
    let sample = sample_states(spec, universe, config.depth, config.max_states);
    let mut violations = Vec::new();
    for i in 0..universe.len() {
        for j in i..universe.len() {
            let (p, q) = (&universe[i], &universe[j]);
            if table.commutes(p, q) != table.commutes(q, p) {
                violations.push(SoundnessViolation {
                    p: p.clone(),
                    q: q.clone(),
                    detail: "asymmetric table entry".to_string(),
                });
                continue;
            }
            if !table.commutes(p, q) {
                continue;
            }
            for s in &sample.states {
                if let Some((vp, vq, pq, qp)) = forward_conflict_witness(spec, s, p, q) {
                    let ce = ForwardCounterexample {
                        state: format!("{s:?}"),
                        p_result: vp.to_string(),
                        q_result: vq.to_string(),
                        pq_states: pq.iter().map(|x| format!("{x:?}")).collect(),
                        qp_states: qp.iter().map(|x| format!("{x:?}")).collect(),
                    };
                    violations.push(SoundnessViolation {
                        p: p.clone(),
                        q: q.clone(),
                        detail: format!("admitted pair does not forward-commute: {ce}"),
                    });
                    break;
                }
            }
        }
    }
    violations
}

/// One hand-table entry stricter (or looser) than the synthesized relation.
#[derive(Debug, Clone, Serialize)]
pub struct GapEntry {
    /// First operation (display form).
    pub p: String,
    /// Second operation.
    pub q: String,
    /// Argument bucket label.
    pub relation: String,
    /// States in which the pair forward-commutes.
    pub commuting_states: usize,
    /// States examined.
    pub total_states: usize,
    /// The witness certificate: a commuting state (for over-conservative
    /// entries) or the conflicting state with its diverging replays (for
    /// unsound or justified entries).
    pub witness: String,
}

/// The comparison of one hand-written table against the synthesized
/// relation for the same ADT.
#[derive(Debug, Clone, Serialize)]
pub struct HandTableGap {
    /// ADT name.
    pub adt: String,
    /// Name of the hand-written table compared against.
    pub hand_table: String,
    /// Hand-table conflicts the synthesized table *admits*: concurrency the
    /// hand table provably gives away, each with a witness state where both
    /// operations run and commute.
    pub over_conservative: Vec<GapEntry>,
    /// Hand-table *commutes* that the synthesis refutes, and pairs the hand
    /// relation answers differently in its two argument orders — soundness
    /// bugs in the hand table (always empty for the shipped tables).
    pub unsound: Vec<GapEntry>,
    /// Hand-table conflicts that are justified in general but commute in
    /// some states — the data-dependent residue only dynamic admission can
    /// exploit (§5.1's headroom), with the commuting-state counts.
    pub data_dependent: Vec<GapEntry>,
    /// Hand-table conflicts the synthesis proves necessary, with a concrete
    /// conflicting state each — the minimality certificates.
    pub justified: Vec<GapEntry>,
    /// Whether the hand table is minimal: no over-conservative and no
    /// unsound entries.
    pub minimal: bool,
}

/// Compares a hand-written commutativity relation against the synthesis.
///
/// Classification is per universe instance pair: `over_conservative` /
/// `data_dependent` / `justified` for hand-conflicts (depending on whether
/// the *generated table* admits the pair, and on whether any state
/// conflicts), `unsound` for hand-commutes refuted by a per-instance
/// counterexample or because the hand relation is not symmetric. Pairs
/// involving an operation the specification never accepts
/// ([`TableSynthesis::unsupported`]) are left out of every class, so they
/// count neither toward nor against `minimal`.
pub fn gap_against(
    synth: &TableSynthesis,
    hand_name: &str,
    hand: &dyn CommutesRel,
) -> HandTableGap {
    let mut gap = HandTableGap {
        adt: synth.table.adt.clone(),
        hand_table: hand_name.to_string(),
        over_conservative: Vec::new(),
        unsound: Vec::new(),
        data_dependent: Vec::new(),
        justified: Vec::new(),
        minimal: true,
    };
    let unsupported = synth.unsupported();
    for v in &synth.instances {
        let hand_commutes = hand.commutes(&v.p, &v.q);
        let entry = |witness: String| GapEntry {
            p: v.p.to_string(),
            q: v.q.to_string(),
            relation: v.relation.label().to_string(),
            commuting_states: v.commuting_states,
            total_states: v.total_states,
            witness,
        };
        if hand_commutes != hand.commutes(&v.q, &v.p) {
            gap.unsound.push(entry(format!(
                "asymmetric hand relation: commutes({}, {}) = {hand_commutes} but \
                 commutes({}, {}) = {}",
                v.p, v.q, v.q, v.p, !hand_commutes
            )));
            continue;
        }
        if [&v.p, &v.q].iter().any(|o| unsupported.contains(o)) {
            continue;
        }
        if hand_commutes {
            if let Some(ce) = &v.counterexample {
                gap.unsound.push(entry(ce.to_string()));
            }
        } else if synth.table.commutes(&v.p, &v.q) {
            let witness = v
                .commuting_witness
                .clone()
                .unwrap_or_else(|| "<never co-enabled>".to_string());
            gap.over_conservative.push(entry(format!(
                "forward-commutes in all {} explored states (e.g. from state {witness})",
                v.total_states
            )));
        } else if let Some(ce) = &v.counterexample {
            let witness = ce.to_string();
            if v.commuting_states > 0 {
                gap.data_dependent.push(entry(witness));
            } else {
                gap.justified.push(entry(witness));
            }
        } else {
            // The instance commutes everywhere but its bucket conflicts:
            // generalization loss, reported as data-dependent residue.
            gap.data_dependent.push(entry(format!(
                "instance commutes everywhere but its {} bucket conflicts",
                v.relation
            )));
        }
    }
    gap.minimal = gap.over_conservative.is_empty() && gap.unsound.is_empty();
    gap
}

/// The operation universe [`atomicity_baselines::bank_commutativity`] is
/// diffed over.
pub fn bank_universe() -> Vec<Operation> {
    vec![
        op("deposit", [5]),
        op("deposit", [3]),
        op("withdraw", [5]),
        op("withdraw", [3]),
        op("balance", [] as [i64; 0]),
    ]
}

/// The operation universe [`atomicity_baselines::queue_commutativity`] is
/// diffed over.
pub fn queue_universe() -> Vec<Operation> {
    vec![
        op("enqueue", [1]),
        op("enqueue", [2]),
        op("dequeue", [] as [i64; 0]),
        op("front", [] as [i64; 0]),
        op("len", [] as [i64; 0]),
    ]
}

/// The operation universe [`atomicity_baselines::set_commutativity`] is
/// diffed over.
pub fn set_universe() -> Vec<Operation> {
    vec![
        op("insert", [1]),
        op("insert", [2]),
        op("delete", [1]),
        op("member", [1]),
        op("size", [] as [i64; 0]),
    ]
}

/// The semiqueue operation universe (diffed against the borrowed FIFO
/// table to exhibit the paper's interleaved-`enq` over-conservatism).
pub fn semiqueue_universe() -> Vec<Operation> {
    vec![
        op("enq", [1]),
        op("enq", [2]),
        op("deq", [] as [i64; 0]),
        op("count", [] as [i64; 0]),
    ]
}

/// The operation universe for the key/value map synthesis: keyed writes on
/// two keys (with same-key and identical variants), keyed reads, and the
/// whole-map scans.
pub fn map_universe() -> Vec<Operation> {
    vec![
        op("put", [1, 5]),
        op("put", [1, 7]),
        op("put", [2, 9]),
        op("adjust", [1, 1]),
        op("adjust", [1, 2]),
        op("adjust", [2, 1]),
        op("remove", [1]),
        op("get", [1]),
        op("get", [2]),
        op("sum", [] as [i64; 0]),
        op("size", [] as [i64; 0]),
    ]
}

/// The operation universe for the escrow-counter synthesis.
pub fn escrow_universe() -> Vec<Operation> {
    vec![
        op("credit", [5]),
        op("credit", [3]),
        op("debit", [5]),
        op("debit", [3]),
        op("available", [] as [i64; 0]),
    ]
}

/// The synthesized tables and hand-table gap reports for the whole
/// workspace.
#[derive(Debug, Clone)]
pub struct SynthSuite {
    /// One synthesis per ADT (bank, queue, set, semiqueue, map, escrow).
    pub syntheses: Vec<TableSynthesis>,
    /// Gap reports for the ADTs that have hand-written tables in
    /// `atomicity-baselines` (bank, queue, set, the semiqueue's borrowed
    /// one, map). The escrow counter has none: its table is 100%
    /// machine-derived.
    pub gaps: Vec<HandTableGap>,
}

impl SynthSuite {
    /// The generated table for `adt`, if synthesized.
    pub fn table(&self, adt: &str) -> Option<&ConflictTable> {
        self.synthesis(adt).map(|s| &s.table)
    }

    /// The full synthesis for `adt`.
    pub fn synthesis(&self, adt: &str) -> Option<&TableSynthesis> {
        self.syntheses.iter().find(|s| s.table.adt == adt)
    }
}

/// Synthesizes tables for every shipped ADT and diffs them against the
/// hand-written baselines.
pub fn standard_syntheses(config: &SynthConfig) -> SynthSuite {
    let bank = synthesize_table(
        "bank",
        "BankAccountSpec",
        &BankAccountSpec::new(),
        &bank_universe(),
        config,
    );
    let queue = synthesize_table(
        "queue",
        "FifoQueueSpec",
        &FifoQueueSpec::new(),
        &queue_universe(),
        config,
    );
    let set = synthesize_table(
        "set",
        "IntSetSpec",
        &IntSetSpec::new(),
        &set_universe(),
        config,
    );
    let semiqueue = synthesize_table(
        "semiqueue",
        "SemiqueueSpec",
        &SemiqueueSpec::new(),
        &semiqueue_universe(),
        config,
    );
    let map = synthesize_table(
        "map",
        "KvMapSpec",
        &KvMapSpec::new(),
        &map_universe(),
        config,
    );
    let escrow = synthesize_table(
        "escrow",
        "EscrowCounterSpec",
        &EscrowCounterSpec::new(),
        &escrow_universe(),
        config,
    );

    let gaps = vec![
        gap_against(&bank, "bank_commutativity", &bank_commutativity),
        gap_against(&queue, "queue_commutativity", &queue_commutativity),
        gap_against(&set, "set_commutativity", &set_commutativity),
        // The semiqueue never had its own table: the baseline borrows the
        // FIFO queue's (and doesn't even share operation names) — the gap
        // report quantifies exactly how much that borrowing costs.
        gap_against(
            &semiqueue,
            "queue_commutativity (borrowed)",
            &queue_commutativity,
        ),
        gap_against(&map, "map_commutativity", &map_commutativity),
    ];

    SynthSuite {
        syntheses: vec![bank, queue, set, semiqueue, map, escrow],
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> SynthSuite {
        standard_syntheses(&SynthConfig::default())
    }

    #[test]
    fn synthesis_is_exhaustive_for_shipped_universes() {
        for s in &suite().syntheses {
            assert_eq!(s.table.truncated, 0, "{} truncated", s.table.adt);
            assert!(s.table.states_explored > 0);
        }
    }

    #[test]
    fn generated_tables_pass_their_own_soundness_check() {
        let cfg = SynthConfig::default();
        let suite = suite();
        let v = verify_table(
            &BankAccountSpec::new(),
            &bank_universe(),
            &cfg,
            suite.table("bank").unwrap(),
        );
        assert!(v.is_empty(), "{v:?}");
        let v = verify_table(
            &EscrowCounterSpec::new(),
            &escrow_universe(),
            &cfg,
            suite.table("escrow").unwrap(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn corrupted_table_fails_verification() {
        let cfg = SynthConfig::default();
        let mut table = suite().table("bank").unwrap().clone();
        for r in &mut table.rules {
            if r.p_name == "withdraw" && r.q_name == "withdraw" {
                r.commutes = true; // inject the unsound entry
            }
        }
        let v = verify_table(&BankAccountSpec::new(), &bank_universe(), &cfg, &table);
        assert!(
            v.iter()
                .any(|x| x.p.name() == "withdraw" && x.q.name() == "withdraw"),
            "{v:?}"
        );
    }

    #[test]
    fn bank_verdicts_match_the_paper() {
        let suite = suite();
        let t = suite.table("bank").unwrap();
        assert!(t.commutes(&op("deposit", [5]), &op("deposit", [5])));
        assert!(t.commutes(&op("deposit", [5]), &op("deposit", [3])));
        assert!(!t.commutes(&op("withdraw", [5]), &op("withdraw", [3])));
        assert!(!t.commutes(&op("withdraw", [5]), &op("withdraw", [5])));
        assert!(!t.commutes(&op("deposit", [5]), &op("withdraw", [3])));
        assert!(!t.commutes(&op("balance", [] as [i64; 0]), &op("deposit", [5])));
        assert!(t.commutes(
            &op("balance", [] as [i64; 0]),
            &op("balance", [] as [i64; 0])
        ));
        // withdraw/withdraw is data-dependent: conflicts, but commutes in
        // most explored states — the §5.1 headroom only dynamic admission
        // can exploit.
        let s = suite.synthesis("bank").unwrap();
        let v = s
            .instance(&op("withdraw", [5]), &op("withdraw", [3]))
            .unwrap();
        assert!(v.commuting_states > 0 && v.commuting_states < v.total_states);
    }

    #[test]
    fn identical_fifo_enqueues_commute_but_distinct_ones_do_not() {
        let suite = suite();
        let t = suite.table("queue").unwrap();
        assert!(t.commutes(&op("enqueue", [1]), &op("enqueue", [1])));
        assert!(!t.commutes(&op("enqueue", [1]), &op("enqueue", [2])));
        assert!(!t.commutes(&op("enqueue", [1]), &op("dequeue", [] as [i64; 0])));
        assert!(t.commutes(&op("front", [] as [i64; 0]), &op("len", [] as [i64; 0])));
    }

    #[test]
    fn semiqueue_enqueues_commute_unlike_fifo() {
        let suite = suite();
        let t = suite.table("semiqueue").unwrap();
        assert!(t.commutes(&op("enq", [1]), &op("enq", [2])));
        assert!(t.commutes(&op("enq", [1]), &op("enq", [1])));
        // Two concurrent deqs could independently take the same element:
        // forward-conflict even though the orders are observationally
        // symmetric.
        assert!(!t.commutes(&op("deq", [] as [i64; 0]), &op("deq", [] as [i64; 0])));
        assert!(!t.commutes(&op("enq", [1]), &op("deq", [] as [i64; 0])));
    }

    #[test]
    fn forward_is_strictly_stronger_than_observational_on_the_semiqueue() {
        let spec = SemiqueueSpec::new();
        // State {1,2}: observationally deq/deq commute (run in sequence,
        // either order can produce either result pair and ends in {}), but
        // they do not forward-commute: both holders can independently
        // take 1.
        let state: std::collections::BTreeMap<i64, u32> = [(1, 1), (2, 1)].into_iter().collect();
        let deq = op("deq", [] as [i64; 0]);
        let mut sequential: Vec<(Value, Value)> = Vec::new();
        for (first, after) in spec.step(&state, &deq) {
            for (second, end) in spec.step(&after, &deq) {
                assert!(end.is_empty());
                sequential.push((first.clone(), second));
            }
        }
        sequential.sort();
        let mut swapped: Vec<_> = sequential
            .iter()
            .map(|(a, b)| (b.clone(), a.clone()))
            .collect();
        swapped.sort();
        assert_eq!(sequential, swapped, "same result pairs in either order");
        assert!(!forward_commute_in_state(&spec, &state, &deq, &deq));
    }

    #[test]
    fn map_verdicts() {
        let suite = suite();
        let t = suite.table("map").unwrap();
        assert!(!t.commutes(&op("put", [1, 5]), &op("put", [1, 5]))); // old-value returns
        assert!(!t.commutes(&op("put", [1, 5]), &op("put", [1, 7])));
        assert!(t.commutes(&op("put", [1, 5]), &op("put", [2, 9])));
        assert!(t.commutes(&op("adjust", [1, 1]), &op("adjust", [1, 2])));
        assert!(t.commutes(&op("get", [1]), &op("get", [2])));
        assert!(!t.commutes(&op("sum", [] as [i64; 0]), &op("adjust", [1, 1])));
        assert!(t.commutes(&op("sum", [] as [i64; 0]), &op("size", [] as [i64; 0])));
    }

    #[test]
    fn escrow_table_is_maximally_concurrent_between_credits_and_debits() {
        let suite = suite();
        let t = suite.table("escrow").unwrap();
        // Credits and debits commute in EVERY state: refusal always
        // replays, so a debit never constrains a concurrent credit.
        assert!(t.commutes(&op("credit", [5]), &op("debit", [5])));
        assert!(t.commutes(&op("credit", [5]), &op("debit", [3])));
        assert!(t.commutes(&op("credit", [5]), &op("credit", [3])));
        assert!(t.commutes(&op("credit", [5]), &op("credit", [5])));
        // Two ok-debits from a tight state would double-spend.
        assert!(!t.commutes(&op("debit", [5]), &op("debit", [3])));
        assert!(!t.commutes(&op("available", [] as [i64; 0]), &op("credit", [5])));
    }

    #[test]
    fn escrow_has_the_recoverability_asymmetry() {
        let suite = suite();
        let s = suite.synthesis("escrow").unwrap();
        // debit;credit always reorders to credit;debit (refusal replays),
        // but credit;debit-ok may be unreplayable before the credit.
        assert!(
            s.asymmetries
                .iter()
                .any(|a| a.mover.name() == "debit" && a.past.name() == "credit"),
            "{:?}",
            s.asymmetries
        );
    }

    #[test]
    fn gap_report_finds_the_known_over_conservative_entries() {
        let suite = suite();
        let bank = suite.gaps.iter().find(|g| g.adt == "bank").unwrap();
        assert!(bank.minimal, "{bank:?}");
        assert!(!bank.justified.is_empty());
        // The FIFO hand table conflicts identical enqueues, which commute.
        let queue = suite.gaps.iter().find(|g| g.adt == "queue").unwrap();
        assert!(!queue.minimal);
        assert!(queue
            .over_conservative
            .iter()
            .any(|e| e.p == "enqueue(1)" && e.q == "enqueue(1)"));
        assert!(queue.unsound.is_empty());
        // The borrowed table costs the semiqueue its headline concurrency.
        let semi = suite.gaps.iter().find(|g| g.adt == "semiqueue").unwrap();
        assert!(!semi.minimal);
        assert!(semi
            .over_conservative
            .iter()
            .any(|e| e.p == "enq(1)" && e.q == "enq(2)"));
    }

    #[test]
    fn set_hand_table_is_minimal() {
        let suite = suite();
        let set = suite.gaps.iter().find(|g| g.adt == "set").unwrap();
        assert!(set.minimal, "{set:?}");
        assert!(set.unsound.is_empty());
    }

    #[test]
    fn tables_serialize_to_json() {
        let suite = suite();
        let json = serde_json::to_string(&suite.table("escrow").unwrap()).unwrap();
        assert!(json.contains("\"adt\":\"escrow\""));
        let json = serde_json::to_string(&suite.gaps).unwrap();
        assert!(json.contains("over_conservative"));
    }

    // The hand-table diff over this module's universes must catch an unsound
    // entry with its witness, an asymmetric relation and an operation the
    // specification never accepts, and must report the paper's two
    // sub-optimality examples: bank `withdraw/withdraw` (§5.1) and the
    // semiqueue's interleaved `enq`s.

    fn bank_over(universe: &[Operation]) -> TableSynthesis {
        synthesize_table(
            "bank",
            "BankAccountSpec",
            &BankAccountSpec::new(),
            universe,
            &SynthConfig::default(),
        )
    }

    #[test]
    fn shipped_tables_are_sound_and_exhaustively_explored() {
        let suite = standard_syntheses(&SynthConfig::default());
        assert_eq!(suite.gaps.len(), 5);
        for gap in &suite.gaps {
            assert!(
                gap.unsound.is_empty(),
                "{} diffed against `{}` has errors: {:?}",
                gap.hand_table,
                gap.adt,
                gap.unsound
            );
        }
        assert_eq!(suite.syntheses.len(), 6);
        for s in &suite.syntheses {
            assert_eq!(
                s.table.truncated, 0,
                "{} enumeration truncated — raise max_states",
                s.table.adt
            );
            assert!(s.unsupported().is_empty(), "{}", s.table.adt);
        }
    }

    #[test]
    fn bank_withdraw_withdraw_is_a_conservative_warning() {
        let suite = standard_syntheses(&SynthConfig::default());
        let bank = &suite.gaps[0];
        // Distinct amounts conflict in general but commute wherever funds
        // cover both orders: data-dependent, neither an error nor a lost
        // table entry.
        let e = bank
            .data_dependent
            .iter()
            .find(|e| e.p == "withdraw(5)" && e.q == "withdraw(3)")
            .expect("withdraw/withdraw is data-dependent");
        assert!(e.commuting_states > 0);
        assert!(e.commuting_states < e.total_states);
        assert!(bank.unsound.is_empty() && bank.minimal);
    }

    #[test]
    fn semiqueue_interleaved_enq_is_a_conservative_warning() {
        let suite = standard_syntheses(&SynthConfig::default());
        let semi = &suite.gaps[3];
        assert_eq!(semi.adt, "semiqueue");
        let e = semi
            .over_conservative
            .iter()
            .find(|e| e.p == "enq(1)" && e.q == "enq(2)")
            .expect("the borrowed FIFO table gives enq/enq away");
        assert_eq!(
            e.commuting_states, e.total_states,
            "semiqueue enq/enq commutes unconditionally"
        );
        assert!(semi.unsound.is_empty());
    }

    #[test]
    fn corrupted_table_is_reported_unsound_with_a_counterexample() {
        // Deliberately permit withdraw/withdraw: unsound, since two
        // withdrawals only commute when funds cover both.
        let corrupt = |p: &Operation, q: &Operation| {
            (p.name() == "withdraw" && q.name() == "withdraw") || bank_commutativity(p, q)
        };
        let gap = gap_against(
            &bank_over(&bank_universe()),
            "bank_commutativity (corrupted)",
            &corrupt,
        );
        assert!(!gap.minimal);
        let err = gap
            .unsound
            .iter()
            .find(|e| e.p == "withdraw(5)" && e.q == "withdraw(3)")
            .expect("the forced entry is refuted");
        assert!(err.witness.starts_with("in state "), "{}", err.witness);
        assert!(err.witness.contains("under p;q but"), "{}", err.witness);
    }

    #[test]
    fn asymmetric_table_is_an_error() {
        let asym = |p: &Operation, q: &Operation| p.name() == "deposit" && q.name() == "balance";
        let gap = gap_against(&bank_over(&bank_universe()), "asymmetric", &asym);
        assert!(!gap.minimal);
        assert!(
            gap.unsound.iter().any(|e| e.p == "deposit(5)"
                && e.q == "balance"
                && e.witness.contains("asymmetric")),
            "{:?}",
            gap.unsound
        );
    }

    #[test]
    fn unknown_operations_are_flagged_unsupported() {
        let frobnicate = op("frobnicate", [] as [i64; 0]);
        let synth = bank_over(&[op("deposit", [1]), frobnicate.clone()]);
        assert_eq!(synth.unsupported(), [&frobnicate]);
        // Neither a lost-concurrency finding nor a conflict certificate:
        // every verdict about an operation that never runs is vacuous.
        let gap = gap_against(&synth, "bank_commutativity", &bank_commutativity);
        assert!(!format!("{gap:?}").contains("frobnicate"), "{gap:?}");
        assert!(gap.unsound.is_empty() && gap.minimal);
    }
}
