//! Network-facing STM server over the `rtf` runtime.
//!
//! This crate turns the workspace's transactional runtime into a
//! long-running service and pins down the robustness story a server needs
//! that a benchmark harness does not:
//!
//! * [`protocol`] — a length-prefixed binary protocol exposing KV,
//!   Vacation and TPC-C operations as transactions, with *typed* statuses
//!   for every overload and failure mode (each [`rtf::TxError`] variant
//!   maps 1:1 to a wire status);
//! * [`admission`] — token-bucket + in-flight-cap admission control fed by
//!   the runtime's own saturation gauges ([`rtf::Rtf::commit_backlog`],
//!   [`rtf::Rtf::pool_queue_depth`]), escalating down a shedding ladder
//!   (reject-new → shed read-only → the runtime's stall-abort watchdog);
//! * [`server`] — the serving core: per-connection backpressure (readers
//!   stop reading when the connection's in-flight budget is exhausted),
//!   deadline propagation into the retry machinery via [`rtf::RunBudget`],
//!   and a graceful drain that ends with exactly-reconciling accounting
//!   (`server_admitted == server_completed + server_drained`);
//! * [`workloads`] — the transaction bodies, written against the fallible
//!   `run_*_with_budget` entry points (never the panicking `atomic`);
//! * [`load`] — a seeded Zipfian closed-/open-loop load generator with
//!   latency recording and tail-latency SLO checks (the `txload` binary);
//! * [`soak`] — the fault-injected soak harness (`txserver --soak`):
//!   seeded connection drops, injected aborts/panics/delays, and a final
//!   drain whose counters must reconcile exactly.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod admission;
pub mod load;
pub mod protocol;
pub mod server;
pub mod soak;
pub mod workloads;

pub use admission::{Admission, AdmissionConfig, Decision};
pub use load::{run_load, LoadConfig, LoadReport, Mix, RequestGen, Zipfian};
pub use protocol::{OpCode, Request, Response, Status};
pub use server::{DrainReport, Server, ServerConfig};
pub use soak::{run_soak, soak_runtime, SoakConfig, SoakReport};
pub use workloads::{Op, ServerState, StateConfig};
