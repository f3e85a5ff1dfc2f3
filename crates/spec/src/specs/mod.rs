//! Sequential specifications for the objects used throughout the paper.
//!
//! Each type here implements [`crate::SequentialSpec`], giving the object's
//! semantics as an executable (possibly non-deterministic) state machine:
//!
//! - [`CounterSpec`] — the counter from the optimality proof of §4.1 whose
//!   serial histories admit exactly one serialization order.
//! - [`IntSetSpec`] — the integer set of §2–§3 (`insert`/`delete`/`member`).
//! - [`FifoQueueSpec`] — the FIFO queue of §5.1 (`enqueue`/`dequeue`).
//! - [`BankAccountSpec`] — the bank account of §5.1
//!   (`deposit`/`withdraw`/`balance`, with `insufficient_funds`).
//! - [`KvMapSpec`] — an integer key/value map (`put`/`get`/`remove`/`size`),
//!   the natural substrate for multi-account workloads.
//! - [`RegisterSpec`] — a plain read/write register, the degenerate object
//!   on which type-specific protocols collapse to classical ones.
//! - [`SemiqueueSpec`] — a **non-deterministic** weak queue whose `deq`
//!   returns *some* enqueued element ([Weihl & Liskov 83]); exercises the
//!   model's support for non-functional operations (§1, §5.2).
//! - [`BoundedBufferSpec`] — a capacity-limited weak buffer whose `put`s
//!   commute exactly when there is room for both: the producer-side dual
//!   of the bank account's data-dependent withdrawals.
//! - [`EscrowCounterSpec`] — an escrow counter whose `debit` *may refuse*
//!   even when funds suffice (decrement-if-at-least, Malta & Martinez):
//!   refusal is always replayable, so credits and debits commute in every
//!   state — the maximally concurrent reservation discipline.

mod account;
mod bounded;
mod counter;
mod escrow;
mod fifo;
mod intset;
mod kvmap;
mod register;
mod semiqueue;

pub use account::BankAccountSpec;
pub use bounded::{BoundedBufferSpec, BufferState};
pub use counter::CounterSpec;
pub use escrow::EscrowCounterSpec;
pub use fifo::FifoQueueSpec;
pub use intset::IntSetSpec;
pub use kvmap::KvMapSpec;
pub use register::RegisterSpec;
pub use semiqueue::SemiqueueSpec;

/// The shape of an in-place `apply` arm: the recorded result is checked
/// against the state first, and `update` runs only if it `matches`.
fn update_if(matches: bool, update: impl FnOnce()) -> bool {
    if matches {
        update();
    }
    matches
}
