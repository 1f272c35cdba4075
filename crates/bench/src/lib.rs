//! Experiment harnesses regenerating every figure of the paper's
//! evaluation (§V). Each binary prints paper-style tables (and optional
//! CSV):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig5a` | Fig 5a — read-only synthetic: normalized throughput of JTF vs plain futures, over transaction length × `iter` |
//! | `fig5b` | Fig 5b — contended synthetic: normalized throughput of `i*j` thread allocations |
//! | `fig5c` | Fig 5c — contended synthetic: mean latency (incl. retries), abort counts |
//! | `fig6_vacation` | Fig 6a–c — Vacation throughput / latency / abort rate vs threads × futures |
//! | `fig6_tpcc` | Fig 6d–f — TPC-C throughput / latency / abort rate vs threads × futures |
//! | `ablation_roflag` | A2 — §IV-E read-only future validation skip on/off |
//! | `ablation_ordering` | A4 — strong ordering vs parallel nesting |
//! | `ablation_ordered` | A5 — ordered-commit lane vs unordered, 1 vs 4 lanes |
//! | `ordered_replay` | record/replay determinism check for the ordered lane |
//! | `chaos` | seeded fault-injection runner (`--ordered SHARDS` for the lane) |
//! | `metrics_check` | CI validator for exported metrics/trace JSON |
//!
//! Run e.g. `cargo run --release -p rtf-bench --bin fig5b -- --quick`.
//! Common flags: `--quick` (CI-sized), `--threads N` (total thread budget),
//! `--ops N` (per-client operations), `--csv DIR`, `--array-size N`.
//!
//! With `--csv DIR`, every figure binary also writes a
//! `<figure>.metrics.json` sidecar (histograms, abort hotspots, raw
//! counters — see [`sidecar`]), and `metrics_check` validates such a
//! sidecar (plus an optional Chrome trace) in CI.

#![warn(missing_docs)]

pub mod ablation;
pub mod cli;
pub mod fig5;
pub mod fig6;
pub mod sidecar;

pub use cli::Args;
pub use sidecar::MetricsSidecar;
