//! Metadata layer shared by the `rtf` transactional-memory stack.
//!
//! This crate implements the bookkeeping vocabulary of the JTF paper
//! ("The Future(s) of Transactional Memory", ICPP 2016):
//!
//! * [`ids`] — identifiers for transactions, tree nodes and writes;
//! * [`clock`] — the global version clock that orders top-level commits and
//!   the active-transaction registry used for version garbage collection;
//! * [`order`] — serialization-order keys encoding the paper's *strong
//!   ordering semantics* (a future serializes at its submission point), and
//!   the `follows()` comparison of §IV-A;
//! * [`orec`] — ownership records attached to tentative versions (Fig 3b);
//! * [`stats`] — thread-striped counters for commits, aborts and
//!   re-executions, and the per-thread stripe index;
//! * [`wait`] — the thread-park [`WaitQueue`] every wait/park point in the
//!   stack is built on.
//!
//! Nothing in this crate touches user values; it is pure metadata and is
//! reused by the `rtf-mvstm` substrate and the `rtf` core library.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod fxmap;
pub mod ids;
pub mod order;
pub mod orec;
pub mod stats;
pub mod wait;

pub use clock::{ActiveTxnRegistry, GlobalClock};
pub use fxmap::{FxHashMap, FxHashSet};
pub use ids::{new_node_id, new_tree_id, new_write_token, NodeId, TreeId, Version, WriteToken};
pub use order::{follows, OrderKey, Ticket, TicketDispenser, TicketLane, TurnWait};
pub use orec::{Orec, OrecStatus};
pub use stats::{thread_stripe, Counter, StatSnapshot, TmStats, STRIPES};
pub use wait::{Parked, WaitQueue};
