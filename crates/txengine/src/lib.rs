//! The unified transactional access engine of the `rtf` stack.
//!
//! The `rtf` core runs two kinds of access through the same generic
//! pipeline: the top level of a transaction (snapshot reads, and the
//! commit-time validation of the helping commit chain in `rtf-mvstm`) and
//! the sub-transaction trees of transactional futures:
//!
//! * versioned storage — [`VBox`]/[`VBoxCell`] with a permanent version list
//!   and a tentative list ([`cell`]);
//! * typed access sets — [`ReadSet`]/[`ReadLog`]/[`WriteSet`] ([`readset`]);
//! * one read-resolution walk and one validation loop, parameterized by a
//!   [`Visibility`] policy ([`access`]);
//! * retry pacing for the top-level re-execution loop ([`retry`]);
//! * instrumentation through one [`Telemetry`] per runtime ([`events`]).
//!
//! The client crates contribute only their *policies* (which tentative
//! entries a reader may observe, which snapshot bounds permanent reads) and
//! their *commit protocols* (the helping commit chain for top-level
//! transactions; Alg 4 propagation for sub-transactions). Everything the
//! two paths share lives here, exactly once.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod access;
pub mod cell;
pub mod events;
pub mod readset;
pub mod retry;
pub mod value;

pub use access::{
    resolve_read, validate_reads, validate_reads_detailed, ConflictSite, Resolution, Visibility,
};
pub use cell::{
    read_pin, tentative_insert, CellId, PermVersion, ReadPath, ReadPin, TentativeEntry,
    TentativeGuard, VBox, VBoxCell,
};
pub use events::{
    obs_now_ns, stable_thread_id, ConflictKind, Event, EventSink, SpanKind, SpanRec, StallKind,
    Telemetry, WaitSiteGuard,
};
pub use readset::{ReadLog, ReadRecord, ReadSet, Source, WriteEntry, WriteSet};
pub use retry::{Backoff, RetryBudget, RetryDriver, RetryExhausted, SeededBackoff};
pub use rtf_txbase::Counter;
pub use value::{downcast, downcast_ref, erase, TxData, Val};
