//! Static analysis for the atomicity workspace (`atomicity-lint`).
//!
//! The paper's central claim is that commutativity-based locking is
//! *sub-optimal* yet must remain *sound* (§5, §6). This crate turns both
//! halves of that claim into machine-checked artifacts that are cheap
//! enough to run on every commit:
//!
//! 1. [`synth`] — **conflict-table synthesis and the hand-table diff**.
//!    The commutativity relation is *derived* from each sequential
//!    specification (pairwise forward commutativity over an exhaustive
//!    bounded state universe, generalized into argument-shape buckets) and
//!    shipped to the engines as a generated
//!    [`atomicity_core::ConflictTable`]. The pass re-proves its own output
//!    ([`verify_table`]) and diffs every hand-written lock table against
//!    it ([`gap_against`]): an entry that *permits* a pair the synthesis
//!    refutes, or a relation that is not symmetric, is **unsound** (hard
//!    error, with a state/result counterexample certificate); an entry
//!    that *forbids* a pair which forward-commutes in every reachable
//!    state is **over-conservative** (warning — the semiqueue's
//!    interleaved `enq`s land here), and one that commutes in only some
//!    states is **data-dependent** (the paper's bank `withdraw/withdraw`).
//!    It also reports the right-mover/recoverability asymmetries of Malta
//!    & Martinez. This is the only code in the workspace that decides
//!    whether two operations commute; an earlier audit pass that judged
//!    the hand tables by the *observational* relation was dropped because
//!    that relation is unsound for locking non-deterministic operations
//!    (see [`synth`]'s module doc). [`synth`] also holds the operation
//!    universe of every ADT it synthesizes.
//!
//! 2. [`certify()`] — **linear-time history certification**. The
//!    exhaustive dynamic-atomicity checker enumerates every total order
//!    consistent with `precedes(h)` and is exponential in the number of
//!    activities. The [`OnlineCertifier`] exploits the *watermark*
//!    structure of `precedes` (`⟨a,b⟩ ∈ precedes(h)` iff `a`'s first
//!    commit comes before `b`'s last response) to certify well-formed
//!    histories in `O(n)` per object, falling back to bounded enumeration
//!    only where the order is genuinely partial. It is the one certifier:
//!    live runs stream the recorder's stamps into it, and [`certify()`]
//!    runs it, retaining everything, over a merged history.
//!
//! 3. [`nondet`] — the **nondeterminism lint**, generalizing the
//!    simulator's wall-clock scan: a configurable source scan for
//!    nondeterminism escape hatches (wall clocks in deterministic code,
//!    unseeded RNG anywhere) with a per-rule allowlist.
//!
//! The `experiments lint` subcommand in `atomicity-bench` runs passes 1
//! and 3 as a CI gate (any unsound table entry or nondeterminism finding
//! makes it exit non-zero) and writes pass 1's gap-report JSON artifact.
//! Lock order is not a pass here: `atomicity_core::sync` checks it where
//! locks are taken, in debug builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
mod derive;
mod idset;
mod monitor;
pub mod nondet;
pub mod synth;

pub use certify::{
    certify, certify_with_relation, Certificate, Method, Property, Verdict, Violation,
};
pub use monitor::OnlineCertifier;
pub use nondet::{scan_nondeterminism, NondetConfig, NondetFinding, NondetRule, SourceFile};
pub use synth::{
    forward_commute_in_state, gap_against, right_mover_in_state, standard_syntheses,
    synthesize_table, verify_table, Asymmetry, ForwardCounterexample, GapEntry, HandTableGap,
    InstanceVerdict, SoundnessViolation, SynthConfig, SynthSuite, TableSynthesis,
};
