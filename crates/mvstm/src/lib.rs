//! `rtf-mvstm` — the multi-version STM substrate of the `rtf` stack.
//!
//! This crate is a from-scratch Rust implementation of the top-level half
//! of the JVSTM-style TM that "The Future(s) of Transactional Memory"
//! (ICPP 2016) builds on:
//!
//! * a **lock-free helping commit** ([`commit`] module) replicating JVSTM's
//!   non-blocking global-counter increment + write-back, with
//!   permanent-version garbage collection at the registry's watermark;
//! * the top-level *visibility policy* ([`txn::TopVisibility`]) its
//!   commit-time validation resolves reads under.
//!
//! The storage layer ([`VBox`], [`VBoxCell`]), the typed access sets and
//! the read/validate pipeline live in the shared `rtf-txengine` crate
//! (re-exported here); the version clock and the active-transaction
//! registry live in `rtf-txbase`. The `rtf` crate drives every top-level
//! transaction: it takes the snapshot (`ActiveTxnRegistry::begin`), runs
//! the transaction tree, and commits the consolidated read- and write-sets
//! through [`CommitChain::try_commit_in_turn`]. The paper's no-future
//! baselines are that same path with no futures submitted.
//!
//! ```
//! use std::sync::Arc;
//!
//! use rtf_mvstm::{erase, CommitChain, CommitWrite, ReadSet, VBox};
//! use rtf_txbase::{new_write_token, ActiveTxnRegistry, GlobalClock};
//! use rtf_txengine::NullSink;
//!
//! let (chain, clock) = (CommitChain::new(), GlobalClock::new());
//! let registry = ActiveTxnRegistry::new();
//! let balance = VBox::new(100i64);
//! let (_reg, snapshot) = registry.begin(&clock);
//! let seen = *balance.read_committed() - 30;
//! let write =
//!     CommitWrite { cell: Arc::clone(balance.cell()), value: erase(seen), token: new_write_token() };
//! let version = chain.try_commit(&ReadSet::new(), vec![write], &clock, &registry, &NullSink);
//! assert_eq!(version, Ok(snapshot + 1));
//! assert_eq!(*balance.read_committed(), 70);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Robustness gate: production code must not unwrap or panic ad hoc —
// every residual site carries an audited `allow` naming its invariant
// (tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::panic))]

pub mod commit;
pub mod txn;

pub use commit::{CommitChain, CommitWrite, Conflict, TurnGate};
pub use rtf_txengine::{
    downcast, erase, tentative_insert, CellId, PermVersion, ReadSet, TentativeEntry, TxData, VBox,
    VBoxCell, Val, WriteSet,
};
pub use txn::TopVisibility;
