//! The `Rtf` runtime: top-level transaction execution, the root commit, and
//! whole-tree abort/retry handling.
//!
//! [`Rtf::atomic`] drives one top-level transaction attempt per loop
//! iteration:
//!
//! 1. snapshot the clock, register for GC, create a fresh [`TreeCtx`];
//! 2. run the body (the cursor starts at the root; `submit`/`fork` grow the
//!    tree);
//! 3. commit the implicit continuation chain (paper: every sub-transaction
//!    of the tree commits before control returns to the top level);
//! 4. commit the top level: merge the root write-set with the heads of the
//!    tentative lists (the paper keeps lists sorted exactly so the head is
//!    the write-back value), validate the consolidated read-set against
//!    other top-level transactions, and install through the mvstm commit
//!    chain.
//!
//! Teardown paths re-enter the loop: top-level validation conflicts,
//! implicit-continuation restarts (D1), and inter-tree conflicts — the
//! latter two switching to the sequential fallback mode (`rootWriteSet`,
//! D3) after `fallback_threshold` consecutive occurrences.

// Audited `clippy::panic` exemption: this module's panics are the
// runtime's typed unwind channels (`PoisonSignal` / `CancelSignal` /
// structured `TxError` payloads) plus documented API-contract panics;
// every one is caught or surfaced at the `Rtf` boundary, never a bug trap.
#![allow(clippy::panic)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtf_mvstm::{CommitChain, TurnGate, TxData};
use rtf_taskpool::{Pool, PoolRunner};
use rtf_txbase::{
    thread_stripe, ActiveTxnRegistry, GlobalClock, OrecStatus, StatSnapshot, TicketDispenser,
    STRIPES,
};
use rtf_txengine::{
    obs_now_ns, Backoff, Counter, Event, EventSink, ReadRecord, ReadSet, RetryBudget, RetryDriver,
    SeededBackoff, Source, SpanKind, SpanRec, StallKind, Telemetry, WaitSiteGuard, WriteEntry,
    WriteSet,
};
use rtf_txobs::{LiveConfig, LiveExporter, ObsConfig, TxObs};

use crate::error::{panic_message, TxError};
use crate::future::TxFuture;
use crate::ordered::OrderedTicket;
use crate::stall::{StallAction, StallThresholds, StallWatch};
use crate::tree::{PoisonKind, TreeCtx};
use crate::tx::{install_quiet_poison_hook, CancelSignal, PoisonSignal, Tx, TxEnv};

/// Internal outcome of [`Rtf::root_commit`].
enum RootCommit {
    /// The top level committed (and, in ordered mode, at its ticket's
    /// turn).
    Committed,
    /// Commit-time validation failed: re-execute.
    Conflict,
    /// The ordered-lane turn wait hit the armed stall-abort threshold.
    Stalled {
        /// How long the commit waited for its turn, in milliseconds.
        waited_ms: u64,
    },
}

/// Conflict-retry backoff configuration ([`RtfBuilder::retry_backoff`]):
/// replaces the default immediate-retry spin ladder with capped exponential
/// sleeps jittered by a deterministic, seed-derived stream
/// ([`rtf_txengine::SeededBackoff`]). Time slept is surfaced through the
/// `retry_backoff_ns` counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Full window of the first retry's sleep (the actual pause is drawn
    /// from `[base/2, base)`).
    pub base: Duration,
    /// Upper bound the doubling window saturates at.
    pub cap: Duration,
    /// Jitter-stream seed; each top-level run derives its own sub-stream,
    /// so retries are reproducible for a fixed seed but decorrelated
    /// across concurrent transactions.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
            seed: 0x5EED_BACC,
        }
    }
}

/// Per-call overrides of the retry limits ([`Rtf::run_with`]): a
/// serving layer propagates each request's deadline here instead of baking
/// one global `retry_deadline` into the runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunBudget {
    /// Overrides [`RtfConfig::max_retries`] for this call when set.
    pub max_retries: Option<u32>,
    /// Absolute deadline for this call. Combined with the runtime-level
    /// [`RtfConfig::retry_deadline`] (whichever expires first wins).
    pub deadline: Option<Instant>,
}

/// Configuration of an [`Rtf`] instance.
#[derive(Clone)]
pub struct RtfConfig {
    /// Worker threads executing transactional futures. With `0`, futures
    /// run lazily on whichever thread first waits for them (helping).
    pub workers: usize,
    /// Enable the §IV-E read-only future validation skip (ablation A2).
    pub ro_opt: bool,
    /// Consecutive inter-tree aborts and continuation restarts of one
    /// `atomic` call after which the re-execution runs in sequential
    /// fallback mode (a [`Tx::restart`] counts as a continuation restart).
    /// The paper falls back on the first conflict; raise this to keep
    /// retrying in parallel mode, or set `0` to run every attempt, the
    /// first included, in fallback mode. Fallback runs every future body
    /// inline at its submission point, so a body that blocks on something a
    /// later part of the same transaction provides outside the TM deadlocks
    /// there (see [`Tx::submit`]).
    pub fallback_threshold: u32,
    /// Explicit observability layer attached to this runtime's event
    /// stream. Independent of the env-driven observer (`RTF_METRICS` /
    /// `RTF_CHROME_TRACE`), which attaches automatically.
    pub observer: Option<Arc<TxObs>>,
    /// Maximum failed top-level attempts before [`Rtf::run`] gives up with
    /// [`TxError::RetryExhausted`] (`None` = retry forever, the paper's
    /// behaviour and the default).
    pub max_retries: Option<u32>,
    /// Wall-clock budget per top-level transaction; exceeded ⇒
    /// [`TxError::RetryExhausted`] (`None` = unbounded, the default).
    pub retry_deadline: Option<Duration>,
    /// Conflict-retry pacing: `Some` sleeps between retries with capped
    /// exponential backoff and deterministic jitter instead of the default
    /// spin/yield ladder (`None`).
    pub retry_backoff: Option<BackoffConfig>,
    /// Stall-watchdog warn threshold override (else `RTF_STALL_WARN_MS`,
    /// else 200ms).
    pub stall_warn: Option<Duration>,
    /// Stall-watchdog abort threshold override (else `RTF_STALL_ABORT_MS`,
    /// else disabled): a wait stalled this long is torn down as
    /// [`TxError::StallAborted`].
    pub stall_abort: Option<Duration>,
    /// Ordered-execution lane: `Some(shards)` makes every top-level
    /// transaction draw a commit ticket from a dispenser with `shards`
    /// lanes and commit in strict per-lane ticket order (`Some(1)` = one
    /// global total order). `None` (the default) is the ordinary
    /// first-validated-first-committed race.
    pub ordered: Option<usize>,
    /// Additional observers of the runtime's events (e.g. a commit-order
    /// recorder). Independent of `observer` and the env-driven observer.
    pub extra_sinks: Vec<Arc<dyn EventSink>>,
    /// Live telemetry: `Some` runs a background sampler streaming snapshots
    /// of this runtime's observer for the lifetime of the runtime (stopped —
    /// with one final reconciling tick — before the on-drop export).
    pub live: Option<LiveConfig>,
}

impl Default for RtfConfig {
    fn default() -> Self {
        RtfConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            ro_opt: true,
            fallback_threshold: 1,
            observer: None,
            max_retries: None,
            retry_deadline: None,
            retry_backoff: None,
            stall_warn: None,
            stall_abort: None,
            ordered: None,
            extra_sinks: Vec::new(),
            live: None,
        }
    }
}

// Manual impl: `extra_sinks` holds trait objects with no `Debug` bound;
// report only their count.
impl std::fmt::Debug for RtfConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtfConfig")
            .field("workers", &self.workers)
            .field("ro_opt", &self.ro_opt)
            .field("fallback_threshold", &self.fallback_threshold)
            .field("observer", &self.observer.is_some())
            .field("max_retries", &self.max_retries)
            .field("retry_deadline", &self.retry_deadline)
            .field("retry_backoff", &self.retry_backoff)
            .field("stall_warn", &self.stall_warn)
            .field("stall_abort", &self.stall_abort)
            .field("ordered", &self.ordered)
            .field("extra_sinks", &self.extra_sinks.len())
            .field("live", &self.live)
            .finish()
    }
}

/// Builder for [`Rtf`].
#[derive(Default, Clone, Debug)]
pub struct RtfBuilder {
    config: RtfConfig,
}

impl RtfBuilder {
    /// Sets the number of future-executing worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Enables/disables the read-only future validation skip (§IV-E).
    pub fn read_only_optimization(mut self, on: bool) -> Self {
        self.config.ro_opt = on;
        self
    }

    /// Sets the count of consecutive inter-tree aborts and continuation
    /// restarts that triggers sequential fallback. `0` makes every attempt,
    /// the first included, a fallback run: futures run inline at `submit`.
    pub fn fallback_threshold(mut self, n: u32) -> Self {
        self.config.fallback_threshold = n;
        self
    }

    /// Attaches an observability layer ([`TxObs`]): latency histograms,
    /// abort attribution and — when its config enables spans — the
    /// transaction-tree trace. The observer also aggregates across every
    /// runtime it is attached to.
    pub fn observer(mut self, obs: Arc<TxObs>) -> Self {
        self.config.observer = Some(obs);
        self
    }

    /// Bounds the retry loop: after `n` failed attempts, [`Rtf::run`]
    /// returns [`TxError::RetryExhausted`] instead of retrying forever.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.max_retries = Some(n);
        self
    }

    /// Bounds the retry loop by wall-clock time per top-level transaction.
    pub fn retry_deadline(mut self, d: Duration) -> Self {
        self.config.retry_deadline = Some(d);
        self
    }

    /// Paces conflict retries with capped exponential backoff and
    /// deterministic (seed-derived) jitter instead of the default
    /// immediate-retry spin ladder. Time slept is counted as
    /// `retry_backoff_ns` through the observability pipeline.
    pub fn retry_backoff(mut self, config: BackoffConfig) -> Self {
        self.config.retry_backoff = Some(config);
        self
    }

    /// Stall-watchdog warn threshold: waits blocked this long emit
    /// `StallDetected` through the event stream (default 200ms, or
    /// `RTF_STALL_WARN_MS`).
    pub fn stall_warn(mut self, d: Duration) -> Self {
        self.config.stall_warn = Some(d);
        self
    }

    /// Arms the stall-watchdog abort: a wait blocked this long is torn down
    /// and surfaced as [`TxError::StallAborted`] (default off, or
    /// `RTF_STALL_ABORT_MS`).
    pub fn stall_abort(mut self, d: Duration) -> Self {
        self.config.stall_abort = Some(d);
        self
    }

    /// Enables the ordered-execution lane: every top-level transaction
    /// draws a commit ticket and commits in strict per-lane ticket order.
    /// `shards == 1` gives one global total commit order (the
    /// record/replay configuration); more shards trade order granularity
    /// for dispatch scalability.
    pub fn ordered(mut self, shards: usize) -> Self {
        self.config.ordered = Some(shards.max(1));
        self
    }

    /// Attaches an additional [`EventSink`] observer to the runtime's
    /// events (e.g. `rtf_txobs::CommitLog` for commit-order recording).
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.config.extra_sinks.push(sink);
        self
    }

    /// Streams live metrics snapshots while the runtime runs: a background
    /// sampler ticks the configured sinks (JSONL stream, Prometheus text
    /// file, optional scrape endpoint) every `config.interval`, plus a final
    /// tick at teardown so the last streamed line reconciles exactly with
    /// the on-drop export. Attaches a default observer if none was
    /// configured. Harnesses that sweep several runtimes over one shared
    /// observer should instead run one [`LiveExporter`] themselves.
    pub fn live_metrics(mut self, config: LiveConfig) -> Self {
        self.config.live = Some(config);
        self
    }

    /// Builds the runtime (spawns the worker pool).
    pub fn build(self) -> Rtf {
        Rtf::with_config(self.config)
    }
}

/// The transactional-futures runtime (the paper's JTF system, in Rust).
///
/// Cloning is cheap and shares the instance.
///
/// ```
/// use rtf::{Rtf, VBox};
///
/// let tm = Rtf::builder().workers(2).build();
/// let x = VBox::new(1u64);
/// let y = VBox::new(2u64);
/// let sum = tm.atomic(|tx| {
///     let fx = tx.submit({
///         let x = x.clone();
///         move |tx| *tx.read(&x) * 10
///     });
///     let b = *tx.read(&y);
///     *tx.eval(&fx) + b
/// });
/// assert_eq!(sum, 12);
/// ```
#[derive(Clone)]
pub struct Rtf {
    inner: Arc<RtfInner>,
}

struct RtfInner {
    /// The version clock: the snapshot of every top-level attempt. Shared
    /// with the `commit_lane_depth` gauge.
    clock: Arc<GlobalClock>,
    /// Start versions of live top-level attempts (the GC watermark).
    registry: ActiveTxnRegistry,
    /// The helping commit chain every read-write root commits through.
    /// Shared with the `commit_lane_depth` gauge.
    chain: Arc<CommitChain>,
    /// One replica of the transaction environment per thread stripe
    /// ([`rtf_txbase::thread_stripe`]): a root `Tx` clones its thread's
    /// replica, so the reference count an attempt bumps is one no other
    /// stripe's attempts write ([`TxEnv`] is cache-line aligned, so the
    /// replicas' counts never share a line).
    envs: Box<[Arc<TxEnv>]>,
    config: RtfConfig,
    /// Observers attached to this runtime (explicit and/or env-driven);
    /// exports run when the runtime is dropped.
    observers: Vec<Arc<TxObs>>,
    /// Ticket dispenser of the ordered-execution lane (`Some` iff the
    /// runtime was built with [`RtfBuilder::ordered`]).
    dispenser: Option<Arc<TicketDispenser>>,
    /// Background live-metrics sampler ([`RtfBuilder::live_metrics`]).
    live: Option<LiveExporter>,
    _pool_runner: PoolRunner,
}

impl RtfInner {
    /// The calling thread's replica of the transaction environment.
    #[inline]
    fn env(&self) -> &Arc<TxEnv> {
        &self.envs[thread_stripe()]
    }
}

impl Drop for RtfInner {
    fn drop(&mut self) {
        // Stop the live sampler first: its stop() emits one final tick, and
        // running it before the exports below is what makes the last
        // streamed line reconcile exactly with the on-drop export.
        if let Some(mut live) = self.live.take() {
            live.stop();
        }
        // Export whatever the environment (or an explicit `ExportPaths`)
        // asked for. The env-driven observer is a process-wide singleton,
        // so each runtime teardown overwrites the files with the cumulative
        // totals — the last drop wins with the complete picture.
        for obs in &self.observers {
            obs.export_or_warn();
        }
    }
}

impl Rtf {
    /// Runtime with default configuration.
    pub fn new() -> Rtf {
        RtfBuilder::default().build()
    }

    /// Starts configuring a runtime.
    pub fn builder() -> RtfBuilder {
        RtfBuilder::default()
    }

    /// Runtime with an explicit configuration.
    pub fn with_config(config: RtfConfig) -> Rtf {
        install_quiet_poison_hook();
        // One telemetry for the whole runtime: statistics always, the
        // stderr trace stream when `RTF_TRACE` requests it, and as
        // observers any observability layer (explicit via the builder, or
        // env-driven via `RTF_METRICS` / `RTF_METRICS_TEXT` /
        // `RTF_CHROME_TRACE`) plus the configured extra sinks. The
        // top-level and sub-transaction paths and the pool all report
        // into it.
        let mut observers: Vec<Arc<TxObs>> = Vec::new();
        if let Some(obs) = TxObs::global_from_env() {
            observers.push(obs);
        }
        if let Some(obs) = &config.observer {
            // Explicit observer; don't double-attach if it IS the global.
            if !observers.iter().any(|o| Arc::ptr_eq(o, obs)) {
                observers.push(Arc::clone(obs));
            }
        }
        if config.live.is_some() && observers.is_empty() {
            // Live metrics need something to sample.
            observers.push(TxObs::new(ObsConfig::default()));
        }
        let sinks = observers.iter().map(TxObs::sink).chain(config.extra_sinks.iter().cloned());
        let telemetry =
            Arc::new(Telemetry::new(Arc::default(), sinks.collect(), Telemetry::trace_from_env()));
        let clock = Arc::new(GlobalClock::new());
        let chain = Arc::new(CommitChain::new());
        let pool_runner = Pool::start_with_telemetry(config.workers, Arc::clone(&telemetry));
        let stall = StallThresholds::resolve(config.stall_warn, config.stall_abort);
        let dispenser = config.ordered.map(|shards| Arc::new(TicketDispenser::new(shards)));
        let envs: Box<[Arc<TxEnv>]> = (0..STRIPES)
            .map(|_| {
                Arc::new(TxEnv {
                    pool: pool_runner.pool(),
                    telemetry: Arc::clone(&telemetry),
                    ro_opt: config.ro_opt,
                    stall,
                })
            })
            .collect();
        // Structural depth gauges, sampled into every snapshot. The gauge
        // registry replaces by name, so a sweep of runtimes over one shared
        // observer always reports the newest instance.
        for obs in &observers {
            let pool = envs[0].pool.clone();
            obs.register_gauge("pool_queue_depth", move || pool.pending() as u64);
            let (chain, clock) = (Arc::clone(&chain), Arc::clone(&clock));
            obs.register_gauge("commit_lane_depth", move || chain.backlog(&clock));
            if let Some(d) = &dispenser {
                let d = Arc::clone(d);
                obs.register_gauge("ordered_lane_depth", move || {
                    (0..d.shards() as u32)
                        .map(|i| {
                            let lane = d.lane(i);
                            lane.issued().saturating_sub(lane.turn())
                        })
                        .sum()
                });
            }
        }
        let live = config.live.clone().and_then(|lc| {
            let obs = Arc::clone(observers.first().expect("live metrics attach an observer"));
            match LiveExporter::start(obs, lc) {
                Ok(exporter) => Some(exporter),
                Err(e) => {
                    eprintln!("rtf: live metrics exporter failed to start: {e}");
                    None
                }
            }
        });
        Rtf {
            inner: Arc::new(RtfInner {
                clock,
                registry: ActiveTxnRegistry::new(),
                chain,
                envs,
                config,
                observers,
                dispenser,
                live,
                _pool_runner: pool_runner,
            }),
        }
    }

    /// Runs `body` as a top-level transaction, retrying until it commits.
    ///
    /// Inside, [`Tx::submit`] / [`Tx::fork`] spawn transactional futures.
    /// `body` may execute several times (aborts, re-executions); keep
    /// non-transactional side effects idempotent.
    pub fn atomic<R>(&self, body: impl Fn(&mut Tx) -> R) -> R {
        match self.run_top_level(body, false, false, None, RunBudget::default()) {
            Ok(r) => r,
            Err(TxError::Cancelled) => {
                panic!("Tx::cancel inside Rtf::atomic — use Rtf::run for cancellable transactions")
            }
            // Only reachable when the caller armed a retry budget or the
            // stall-abort watchdog on a panicking entry point; the payload
            // is the structured error (catchable, quiet-hook-suppressed).
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Like [`Rtf::atomic`], but returns the runtime's structured failures
    /// instead of panicking: [`Tx::cancel`] ⇒ [`TxError::Cancelled`], a
    /// panicked future ⇒ [`TxError::FuturePanicked`], an exhausted retry
    /// budget ⇒ [`TxError::RetryExhausted`], an armed stall watchdog ⇒
    /// [`TxError::StallAborted`]. No effects escape on `Err`.
    ///
    /// A panic on the *calling* thread (in the body itself, outside any
    /// future) still unwinds to the caller — that is the caller's own
    /// panic, not a runtime fault.
    pub fn run<R>(&self, body: impl Fn(&mut Tx) -> R) -> Result<R, TxError> {
        self.run_with(RunBudget::default(), None, body)
    }

    /// Like [`Rtf::run`], bounded by a per-call [`RunBudget`] and, when
    /// `ticket` is given, committing at the position of a ticket drawn
    /// earlier with [`Rtf::ticket`].
    ///
    /// The budget is the deadline-propagation input of serving layers: the
    /// request's deadline caps this transaction's retry loop regardless of
    /// the runtime-level [`RtfBuilder::retry_deadline`] (whichever expires
    /// first wins; the tighter attempt cap likewise). On error — budget
    /// exhaustion included — the ticket is abandoned and the lane skips
    /// over it. Without a ticket, an ordered runtime draws one at the call.
    pub fn run_with<R>(
        &self,
        budget: RunBudget,
        ticket: Option<OrderedTicket>,
        body: impl Fn(&mut Tx) -> R,
    ) -> Result<R, TxError> {
        self.run_top_level(body, false, true, ticket, budget)
    }

    /// Whether this runtime commits through the ordered-execution lane.
    pub fn is_ordered(&self) -> bool {
        self.inner.dispenser.is_some()
    }

    /// Enqueued-but-unwritten commit records right now — the same signal
    /// exported as the `commit_lane_depth` gauge. Admission controllers
    /// use it as a saturation indicator: a persistently deep chain means
    /// committers are producing records faster than helping drains them.
    pub fn commit_lane_depth(&self) -> u64 {
        self.inner.chain.backlog(&self.inner.clock)
    }

    /// Tasks submitted to the worker pool but not yet started (approximate;
    /// the `pool_queue_depth` gauge). The second admission-control input:
    /// a growing queue means the pool is over-subscribed.
    pub fn pool_queue_depth(&self) -> usize {
        self.inner.env().pool.pending()
    }

    /// The runtime's instrumentation. External components (servers,
    /// harnesses) report their own [`Event`]s here so their counters land
    /// in the same [`StatSnapshot`] / export pipeline as the engine's.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.env().telemetry
    }

    /// Draws a commit ticket *now*, before the transaction body exists —
    /// pinning the transaction's position in the predefined commit order to
    /// this call (submission order), independent of when worker threads get
    /// to run it. Pass the ticket to [`Rtf::run_with`].
    ///
    /// # Panics
    ///
    /// If the runtime was not built with [`RtfBuilder::ordered`].
    pub fn ticket(&self) -> OrderedTicket {
        let dispenser = self
            .inner
            .dispenser
            .as_ref()
            .expect("Rtf::ticket requires ordered mode (RtfBuilder::ordered)");
        OrderedTicket::acquire(Arc::clone(dispenser), Arc::clone(&self.inner.env().telemetry))
    }

    /// Runs `body` as a read-only top-level transaction: reads skip
    /// bookkeeping, validation is skipped (multi-version snapshots are
    /// always consistent), writes panic. Futures may still be submitted to
    /// parallelize long read-only work.
    pub fn atomic_ro<R>(&self, body: impl Fn(&mut Tx) -> R) -> R {
        match self.run_top_level(body, true, false, None, RunBudget::default()) {
            Ok(r) => r,
            Err(TxError::Cancelled) => panic!(
                "Tx::cancel inside Rtf::atomic_ro — use Rtf::run for cancellable transactions"
            ),
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Submits `body` as a transactional future outside any transaction
    /// (paper footnote 1: an empty enclosing top-level transaction). The
    /// returned handle is already committed.
    pub fn spawn_future<A, F>(&self, body: F) -> TxFuture<A>
    where
        A: TxData,
        F: Fn(&mut Tx) -> A + Send + Clone + 'static,
    {
        self.atomic(move |tx| {
            let f = tx.submit(body.clone());
            let _ = tx.eval(&f);
            f
        })
    }

    /// The shared retry loop behind every entry point. `structured`
    /// controls how a *user* panic inside a future surfaces: `true`
    /// ([`Rtf::run`]) converts it into [`TxError::FuturePanicked`]; `false`
    /// (`atomic` family) resumes the original payload on this thread.
    /// Runtime-originated faults (retry budget, stall abort, payload-less
    /// future deaths) are always returned as `Err`, as is a [`Tx::cancel`].
    fn run_top_level<R>(
        &self,
        body: impl Fn(&mut Tx) -> R,
        ro_mode: bool,
        structured: bool,
        ticket: Option<OrderedTicket>,
        over: RunBudget,
    ) -> Result<R, TxError> {
        let inner = &self.inner;
        let env = inner.env();
        // Ordered mode: every top-level transaction holds a ticket for its
        // whole lifetime — drawn here unless the caller pinned one earlier
        // (`run_with`), kept across retries (a re-execution commits at
        // the *same* position), and released exactly once: completed on
        // commit, abandoned (RAII) on every other exit path including
        // unwinds.
        let mut ticket = ticket.or_else(|| {
            inner
                .dispenser
                .as_ref()
                .map(|d| OrderedTicket::acquire(Arc::clone(d), Arc::clone(&env.telemetry)))
        });
        let telemetry = &env.telemetry;
        // Per-call overrides compose with the runtime-level limits: the
        // tighter attempt cap and the earlier deadline win.
        let config_deadline = inner.config.retry_deadline.map(|d| Instant::now() + d);
        let budget = RetryBudget {
            max_attempts: match (over.max_retries, inner.config.max_retries) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            deadline: match (over.deadline, config_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        };
        let backoff = match inner.config.retry_backoff {
            Some(b) => {
                // Decorrelate concurrent transactions while keeping the
                // whole process reproducible for a fixed seed: each run
                // draws a distinct sub-stream off a process-wide counter.
                static RUN_NONCE: std::sync::atomic::AtomicU64 =
                    std::sync::atomic::AtomicU64::new(0);
                let nonce = RUN_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Backoff::Seeded(SeededBackoff::new(
                    b.base,
                    b.cap,
                    b.seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            }
            None => Backoff::Ladder,
        };
        let mut retry = RetryDriver::new(backoff, budget);
        // Inter-tree aborts and continuation restarts both count: a
        // continuation that keeps missing its own future's write would
        // otherwise restart forever in parallel mode.
        let mut consecutive_restarts = 0u32;
        loop {
            let fallback = consecutive_restarts >= inner.config.fallback_threshold;
            if fallback {
                telemetry.count(Counter::FallbackRuns, 1);
            }
            let (_reg, start) = inner.registry.begin(&inner.clock);
            let tree = TreeCtx::new(start, fallback);
            // One TopLevel span per attempt: aborted attempts close with
            // ok=false, so the trace shows the retry structure.
            let span_start = if telemetry.spans() { Some(obs_now_ns()) } else { None };
            let top_span = |ok: bool| {
                if let Some(start_ns) = span_start {
                    telemetry.span(SpanRec {
                        kind: SpanKind::TopLevel,
                        tree: tree.tree_id.0,
                        node: tree.root.id.raw(),
                        parent: 0,
                        start_ns,
                        end_ns: obs_now_ns(),
                        ok,
                    });
                }
            };
            let mut tx = Tx::new_for_root(Arc::clone(env), Arc::clone(&tree), ro_mode);

            // One epoch pin per attempt: every version-list read and
            // write-back on this thread (body, helping, validation, root
            // commit) pins reentrantly — a thread-local depth bump instead
            // of the era-advertisement fence per read.
            let _pin = rtf_txengine::read_pin();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r = body(&mut tx);
                // Commit the implicit continuation chain down to the root,
                // then stage the root's own reads for top-level validation.
                tx.commit_frames_down_to(1).map(|()| {
                    tx.merge_entry_frame_reads();
                    r
                })
            }));

            match outcome {
                Ok(Ok(r)) => {
                    match self.root_commit(&tree, ticket.as_ref()) {
                        RootCommit::Committed => {
                            if let Some(t) = ticket.take() {
                                t.complete(tree.tree_id.0);
                            }
                            top_span(true);
                            return Ok(r);
                        }
                        // Top-level validation conflict (counted inside);
                        // the ticket (if any) is kept: the re-execution
                        // commits at the same position.
                        RootCommit::Conflict => top_span(false),
                        RootCommit::Stalled { waited_ms } => {
                            // The armed stall watchdog gave up on the turn
                            // wait; dropping `ticket` on return abandons the
                            // position so successors skip over it.
                            top_span(false);
                            return Err(TxError::StallAborted {
                                kind: StallKind::TicketWait.name(),
                                waited_ms,
                            });
                        }
                    }
                }
                Ok(Err(_sub_conflict)) => {
                    // An implicit continuation missed a write: without FCC
                    // the whole top-level transaction restarts (D1).
                    self.teardown(&tree);
                    telemetry.count(Counter::ContinuationRestarts, 1);
                    consecutive_restarts += 1;
                    top_span(false);
                }
                Err(payload) => {
                    top_span(false);
                    if payload.is::<CancelSignal>() {
                        // Deliberate rollback: tear the tree down, discard
                        // everything, and report the cancellation.
                        self.teardown(&tree);
                        return Err(TxError::Cancelled);
                    }
                    if payload.is::<PoisonSignal>() {
                        self.teardown(&tree);
                        match tree.take_poison() {
                            Some(PoisonKind::InterTree) => {
                                telemetry.count(Counter::InterTreeAborts, 1);
                                consecutive_restarts += 1;
                            }
                            Some(PoisonKind::ContinuationRestart) => {
                                telemetry.count(Counter::ContinuationRestarts, 1);
                                consecutive_restarts += 1;
                            }
                            Some(PoisonKind::UserPanic(p)) => {
                                if p.is::<CancelSignal>() {
                                    // Tx::cancel called inside a future.
                                    return Err(TxError::Cancelled);
                                }
                                if structured {
                                    return Err(TxError::FuturePanicked {
                                        message: panic_message(&*p),
                                    });
                                }
                                std::panic::resume_unwind(p);
                            }
                            Some(PoisonKind::FuturePanicked { message }) => {
                                // The payload died with the task (contained
                                // at the pool layer): only the structured
                                // error is left to surface.
                                return Err(TxError::FuturePanicked { message });
                            }
                            Some(PoisonKind::Stalled { kind, waited_ms }) => {
                                return Err(TxError::StallAborted { kind, waited_ms });
                            }
                            None => unreachable!("PoisonSignal without a latched reason"),
                        }
                    } else {
                        // User panic on the root thread: tear down the tree
                        // (futures may be in flight), then propagate.
                        tree.poison(PoisonKind::ContinuationRestart);
                        self.teardown(&tree);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            match retry.try_backoff() {
                Ok(slept_ns) => {
                    if slept_ns > 0 {
                        telemetry.count(Counter::RetryBackoffs, 1);
                        telemetry.count(Counter::RetryBackoffNs, slept_ns);
                    }
                }
                Err(e) => {
                    telemetry.count(Counter::RetriesExhausted, 1);
                    return Err(TxError::RetryExhausted { attempts: e.attempts() });
                }
            }
        }
    }

    /// Whole-tree teardown: make sure every in-flight future task of the
    /// tree converged (they observe the poison latch), then remove the
    /// tree's tentative entries.
    fn teardown(&self, tree: &TreeCtx) {
        tree.poison(PoisonKind::ContinuationRestart); // ensure latched
        let env = self.inner.env();
        // Quiescence must run to completion whatever happens (aborting the
        // teardown would leak the tree); the watchdog only reports.
        let mut watch = StallWatch::warn_only(
            StallKind::Quiescence,
            tree.tree_id.0,
            tree.root.id.raw(),
            env.telemetry.as_ref(),
            env.stall,
        );
        // Only publish a wait-graph edge when there genuinely is something
        // to wait for — teardown runs on every abort and usually finds the
        // tree already quiescent.
        let _wait = (tree.tasks_in_flight() > 0).then(|| {
            WaitSiteGuard::enter(
                env.telemetry.as_ref(),
                StallKind::Quiescence,
                tree.tree_id.0,
                tree.tasks_in_flight() as u64,
                0,
            )
        });
        tree.wait_quiescent(|| {
            let _ = watch.tick();
            env.pool.help_one(None)
        });
        // The scrub equally must complete even with a fault injected
        // mid-teardown: a leaked tentative entry would wedge every later
        // writer of that box behind a dead tree.
        loop {
            let scrubbed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rtf_txfault::fail_point!("core.teardown.scrub");
                tree.scrub_tentative();
            }));
            if scrubbed.is_ok() {
                break;
            }
        }
    }

    /// Blocks until `ticket`'s turn (the ordered lane's cross-transaction
    /// waitTurn). While waiting the thread *helps* through the task pool —
    /// the predecessor may be blocked on futures this thread can run — and
    /// the stall watchdog bounds the wait when an abort threshold is armed.
    /// Returns `Err(waited_ms)` when the watchdog gave up.
    fn wait_ticket_turn(&self, tree: &TreeCtx, ticket: &OrderedTicket) -> Result<(), u64> {
        let seq = ticket.ticket().seq;
        let lane = ticket.lane();
        if lane.turn() >= seq {
            return Ok(());
        }
        let env = self.inner.env();
        let telemetry = &env.telemetry;
        let t0 = obs_now_ns();
        // Publish the blocked-on edge for the live wait-graph inspector:
        // "this thread waits for lane/seq" (dropped when the wait resolves).
        let _wait = WaitSiteGuard::enter(
            telemetry.as_ref(),
            StallKind::TicketWait,
            tree.tree_id.0,
            u64::from(ticket.ticket().lane),
            seq,
        );
        let mut watch = StallWatch::new(
            StallKind::TicketWait,
            tree.tree_id.0,
            tree.root.id.raw(),
            telemetry.as_ref(),
            env.stall,
        );
        let mut stalled = None;
        // Unfenced helping: the tree has committed down to its root, and no
        // task waits on a root commit (only later tickets' root commits do,
        // on their own client threads).
        let wait = lane.wait_turn_counted(
            seq,
            || env.pool.help_one(None),
            || match watch.tick() {
                StallAction::Continue => true,
                StallAction::Abort { waited_ms } => {
                    stalled = Some(waited_ms);
                    false
                }
            },
        );
        telemetry.count(Counter::TicketWaitNs, obs_now_ns().saturating_sub(t0));
        if wait.spurious_wakes > 0 {
            // Flushed per wait, not per wakeup: spurious wakeups only exist
            // under contention, exactly when per-event telemetry traffic hurts.
            telemetry.count(Counter::TicketSpuriousWakes, wait.spurious_wakes);
        }
        if wait.arrived {
            Ok(())
        } else {
            Err(stalled.unwrap_or(0))
        }
    }

    /// Top-level commit (§III-A + §IV): consolidate, validate, write back.
    /// In ordered mode (`ticket` present) the commit additionally waits for
    /// its ticket's turn first, so per-lane ticket order extends into chain
    /// version order.
    fn root_commit(&self, tree: &TreeCtx, ticket: Option<&OrderedTicket>) -> RootCommit {
        let inner = &self.inner;
        let telemetry = &inner.env().telemetry;
        // The commit's start time feeds only the TopCommit span and the
        // `TopCommitNs` duration; read the clock only if a telemetry wants one.
        let timed = telemetry.timings();
        let t0 = if timed || telemetry.spans() { obs_now_ns() } else { 0 };
        let commit_span = |ok: bool| {
            if telemetry.spans() {
                telemetry.span(SpanRec {
                    kind: SpanKind::TopCommit,
                    tree: tree.tree_id.0,
                    node: tree.root.id.raw(),
                    parent: tree.root.id.raw(),
                    start_ns: t0,
                    end_ns: obs_now_ns(),
                    ok,
                });
            }
        };

        // Consolidated write-set: the root's private writes, overridden by
        // the head (latest in serialization order) of each touched
        // tentative list. `WriteSet::insert` keeps the tentative entry's
        // own token, so the write retains one identity through write-back.
        let mut writes = WriteSet::new();
        for entry in tree.root_ws_drain() {
            writes.insert(entry);
        }
        for cell in tree.touched_cells() {
            let list = cell.tentative_lock();
            if let Some(e) = list
                .iter()
                .find(|e| e.tree == tree.tree_id && e.orec.status() != OrecStatus::Aborted)
            {
                debug_assert_eq!(
                    e.orec.owner(),
                    tree.root.id,
                    "all committed sub-transaction writes must be root-owned at top commit"
                );
                writes.insert(WriteEntry {
                    cell: Arc::clone(&cell),
                    value: e.value.clone(),
                    token: e.token,
                });
            }
        }

        if writes.is_empty() {
            // Read-only fast path (§IV-E). Ordered mode still waits for the
            // turn — the commit-order log must include read-only commits at
            // their ticket positions for replay to be well-defined — and
            // then re-validates the reads: the transaction publishes
            // nothing, but its *result* must be as of its ticket position
            // (the sequential spec), not its snapshot. A displaced read
            // aborts and re-executes at the same position.
            if let Some(t) = ticket {
                if let Err(waited_ms) = self.wait_ticket_turn(tree, t) {
                    tree.scrub_tentative();
                    commit_span(false);
                    return RootCommit::Stalled { waited_ms };
                }
                let inbox = std::mem::take(&mut *tree.root.inbox.lock());
                let mut reads = ReadSet::new();
                for (cell, token) in inbox.perm_reads {
                    reads.record(ReadRecord { cell, token, source: Source::Permanent, epoch: 0 });
                }
                if inner.chain.validate_ro(&reads, telemetry.as_ref()).is_err() {
                    telemetry.count(Counter::TopValidationAborts, 1);
                    tree.scrub_tentative();
                    commit_span(false);
                    return RootCommit::Conflict;
                }
            }
            telemetry.count(Counter::TopRoCommits, 1);
            tree.scrub_tentative();
            commit_span(true);
            return RootCommit::Committed;
        }

        // Consolidated read-set: the root's own permanent reads were merged
        // into its inbox by the implicit-chain commit; sub-transactions
        // merged theirs on their commits. First read of a cell wins, which
        // `ReadSet::record` guarantees.
        let inbox = std::mem::take(&mut *tree.root.inbox.lock());
        let mut reads = ReadSet::new();
        for (cell, token) in inbox.perm_reads {
            reads.record(ReadRecord { cell, token, source: Source::Permanent, epoch: 0 });
        }

        let mut stalled: Option<u64> = None;
        let result = {
            let mut wait = || match ticket {
                Some(t) => match self.wait_ticket_turn(tree, t) {
                    Ok(()) => true,
                    Err(waited_ms) => {
                        stalled = Some(waited_ms);
                        false
                    }
                },
                None => true,
            };
            inner.chain.try_commit_in_turn(
                ticket.map(|_| TurnGate { wait: &mut wait }),
                &reads,
                writes.into_writes(),
                &inner.clock,
                &inner.registry,
                telemetry.as_ref(),
            )
        };
        tree.scrub_tentative();
        let committed = result.is_ok();
        if committed {
            if timed {
                telemetry.event(Event::TopCommitNs(obs_now_ns().saturating_sub(t0)));
            }
            telemetry.count(Counter::TopCommits, 1);
        } else if let Some(waited_ms) = stalled {
            // A stall-abandoned turn wait is not a validation conflict:
            // report it as the structured stall it is.
            commit_span(false);
            return RootCommit::Stalled { waited_ms };
        } else {
            telemetry.count(Counter::TopValidationAborts, 1);
        }
        commit_span(committed);
        if committed {
            RootCommit::Committed
        } else {
            RootCommit::Conflict
        }
    }

    /// Event counters of this runtime.
    pub fn stats(&self) -> StatSnapshot {
        self.inner.env().telemetry.stats().snapshot()
    }

    /// Current configuration.
    pub fn config(&self) -> &RtfConfig {
        &self.inner.config
    }

    /// The version clock's current value: the number of read-write
    /// top-level commits so far.
    #[cfg(test)]
    pub(crate) fn clock_now(&self) -> rtf_txbase::Version {
        self.inner.clock.now()
    }
}

impl Default for Rtf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Rtf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rtf(workers={}, v{})", self.inner.config.workers, self.inner.clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VBox;
    use std::sync::Mutex;

    /// Strong counts of every `Arc` that attempts on *other* thread stripes
    /// clone: their env replicas, the pool's shared state and the telemetry.
    fn others_counts(tm: &Rtf) -> Vec<usize> {
        let inner = &tm.inner;
        let mine = thread_stripe();
        let mut counts: Vec<usize> = (0..inner.envs.len())
            .filter(|&i| i != mine)
            .map(|i| Arc::strong_count(&inner.envs[i]))
            .collect();
        counts.push(inner.env().pool.handle_count());
        counts.push(Arc::strong_count(&inner.env().telemetry));
        counts
    }

    #[test]
    fn a_root_attempt_leaves_other_threads_shared_counts_unchanged() {
        // No worker threads: a starting worker takes its own reference to
        // the pool's shared state at a time of its choosing.
        let tm = Rtf::builder().workers(0).build();
        let b = VBox::new(0u64);
        // Fresh threads draw consecutive stripes, so at least two of these
        // run on a stripe other than any single fixed one.
        for _ in 0..3 {
            let (tm, b) = (tm.clone(), b.clone());
            std::thread::spawn(move || {
                let before = others_counts(&tm);
                let during = Mutex::new(Vec::new());
                tm.run(|tx| {
                    let v = *tx.read(&b);
                    tx.write(&b, v + 1);
                    *during.lock().unwrap() = others_counts(&tm);
                })
                .unwrap();
                assert_eq!(*during.lock().unwrap(), before, "read-write attempt");
                tm.atomic_ro(|tx| {
                    let _ = tx.read(&b);
                    *during.lock().unwrap() = others_counts(&tm);
                });
                assert_eq!(*during.lock().unwrap(), before, "read-only attempt");
                assert_eq!(others_counts(&tm), before);
            })
            .join()
            .unwrap();
        }
        assert_eq!(*b.read_committed(), 3);
    }

    #[test]
    fn an_eval_leaves_the_pool_and_sink_counts_unchanged() {
        // No worker threads: the evaluation runs the future inline by
        // helping, so the future body observes the counts mid-`eval`.
        let tm = Rtf::builder().workers(0).build();
        let b = VBox::new(1u64);
        let counts = |tm: &Rtf| {
            let env = tm.inner.env();
            (env.pool.handle_count(), Arc::strong_count(&env.telemetry))
        };
        let during = Arc::new(Mutex::new(None));
        let v = tm.atomic(|tx| {
            let f = tx.submit({
                let (tm, b, during) = (tm.clone(), b.clone(), Arc::clone(&during));
                move |tx| {
                    *during.lock().unwrap() = Some(counts(&tm));
                    *tx.read(&b)
                }
            });
            let before = counts(&tm);
            let v = *tx.eval(&f);
            assert_eq!(*during.lock().unwrap(), Some(before), "mid-eval counts");
            assert_eq!(counts(&tm), before, "after eval");
            v
        });
        assert_eq!(v, 1);
    }
}
