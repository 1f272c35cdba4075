//! Observability for the `rtf` transactional-memory stack.
//!
//! The runtime reports everything it does through the `Telemetry` of
//! `rtf-txengine`, which hands every event to its [`EventSink`] observers;
//! this crate is the observer that turns those reports into answers. One
//! [`TxObs`] attached to a TM instance (or shared by many) aggregates:
//!
//! * **spans** — per-transaction lifecycle intervals (top-level attempts,
//!   future/continuation bodies, `waitTurn`, validation, the commit chain,
//!   pool helping) captured into bounded lock-free per-thread ring buffers
//!   ([`ring`]) that shed load (with an explicit drop counter) instead of
//!   ever blocking the hot path;
//! * **latency histograms** — log-bucketed p50/p95/p99/max for commit,
//!   `waitTurn`, validation and future submission-to-completion ([`hist`]),
//!   replacing the lossy flat nanosecond accumulators;
//! * **abort attribution** — per-cell conflict counts with the conflicting
//!   writer tree, ranked into a hotspot report ([`conflicts`]);
//! * **exports** — a dependency-free JSON snapshot ([`json`]), a
//!   human-readable report ([`report`]), and a Chrome trace-event document
//!   ([`chrome`]) that renders the transaction tree in Perfetto;
//! * **live telemetry** — monotone snapshot deltas ([`snapshot`]), a
//!   background sampler streaming JSONL and Prometheus documents while the
//!   workload runs ([`live`]), and the exposition renderer plus optional
//!   scrape endpoint ([`prom`]).
//!
//! Everything is opt-in: with no observer attached the runtime counts each
//! event with one striped add, makes no virtual call, and reads no clock
//! for spans or duration-only events.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chrome;
pub mod conflicts;
pub mod hist;
pub mod json;
pub mod live;
pub mod obs;
pub mod prom;
pub mod replay;
pub mod report;
pub mod ring;
pub mod snapshot;

pub use chrome::chrome_trace;
pub use conflicts::{ConflictTable, Hotspot};
pub use hist::{HistSnapshot, LogHist};
pub use json::{Json, ParseError};
pub use live::{JsonlSink, LiveConfig, LiveExporter, LiveSink, PromTextSink, STREAM_SCHEMA};
pub use obs::{ExportPaths, MetricsSnapshot, ObsConfig, SpanObs, TxObs};
pub use prom::render_prometheus;
#[cfg(feature = "live-tcp")]
pub use prom::PromServer;
pub use replay::{state_hash, CommitLog, ReplayArtifact, ReplayCounters, REPLAY_SCHEMA};
pub use ring::SpanRing;
pub use snapshot::{SnapshotDiff, WaitEdge};

// Re-exported so observer clients need not depend on the engine crate for
// the sink vocabulary.
pub use rtf_txengine::{
    obs_now_ns, stable_thread_id, Counter, Event, EventSink, SpanKind, SpanRec, StallKind,
};
