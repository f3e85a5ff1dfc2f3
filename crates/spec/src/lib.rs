//! Formal model of atomic activities and data-dependent concurrency control.
//!
//! This crate is an executable rendition of the formal model in Weihl,
//! *"Data-dependent Concurrency Control and Recovery"* (PODC 1983):
//!
//! - **Events and histories** ([`Event`], [`History`]): computations are
//!   finite sequences of invocation, termination (response), commit, abort,
//!   and initiation events, each identifying the activity and object that
//!   participated (§2 of the paper).
//! - **Well-formedness** ([`well_formed`]): the constraints that make an
//!   event sequence sensible as an observation of sequential activities
//!   (§2, §4.2.1, §4.3.1).
//! - **Sequential specifications** ([`SequentialSpec`], [`ObjectSpec`]):
//!   object semantics as executable, possibly *non-deterministic* state
//!   machines; acceptance of serial sequences is decided by search over
//!   outcome choices (§2, §5.2).
//! - **Serializability** ([`serial`]): equivalence of histories,
//!   serializability, and *serializability in a given order* `T` (§3).
//! - **Atomicity and the three local atomicity properties**
//!   ([`atomicity`]): decision procedures for *atomic*, *dynamic atomic*,
//!   *static atomic*, and *hybrid atomic* histories (§3, §4).
//! - **The paper's worked examples** ([`paper`]): every example history in
//!   the paper, reconstructed literally, with tests asserting that the
//!   checkers classify each one exactly as the paper does.
//!
//! # Example
//!
//! Checking the paper's first atomicity example (§3): activity `b` inserts 3
//! and commits, a concurrent `member(3)` by `a` observes it, and an aborted
//! `delete(3)` by `c` is invisible:
//!
//! ```
//! use atomicity_spec::{History, Event, op, Value, SystemSpec};
//! use atomicity_spec::specs::IntSetSpec;
//! use atomicity_spec::atomicity::is_atomic;
//!
//! let (a, b, c) = (1.into(), 2.into(), 3.into());
//! let x = 1.into();
//! let h = History::from_events(vec![
//!     Event::invoke(a, x, op("member", [3])),
//!     Event::invoke(b, x, op("insert", [3])),
//!     Event::respond(b, x, Value::ok()),
//!     Event::respond(a, x, Value::from(true)),
//!     Event::commit(b, x),
//!     Event::invoke(c, x, op("delete", [3])),
//!     Event::respond(c, x, Value::ok()),
//!     Event::commit(a, x),
//!     Event::abort(c, x),
//! ]);
//! let spec = SystemSpec::new().with_object(x, IntSetSpec::new());
//! assert!(is_atomic(&h, &spec));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomicity;
pub mod event;
pub mod history;
pub mod optimality;
pub mod paper;
pub mod serial;
pub mod spec;
pub mod specs;
pub mod value;
pub mod viz;
pub mod well_formed;

pub use event::{ActivityId, Event, EventKind, ObjectId, Timestamp};
pub use history::History;
pub use spec::{
    op, replay_frontier, replay_frontier_to, replay_into, ObjectSpec, OpResult, Operation,
    SequentialSpec, StateReplayer, SystemSpec,
};
pub use value::Value;
pub use well_formed::{WellFormedError, WellFormedness};
