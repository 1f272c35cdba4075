//! Engine instrumentation: a single [`EventSink`] seam instead of scattered
//! counter bumps and ad-hoc tracing.
//!
//! Every noteworthy runtime event — commits, aborts, helping, GC, time spent
//! waiting — is reported as an [`Event`] to a sink threaded through the
//! engine and its client crates. The default production wiring is a
//! [`StatsSink`] over the shared [`TmStats`] counters; the `RTF_TRACE`
//! diagnostic stream is just another sink ([`TraceSink`]), composed in via
//! [`TeeSink`] when enabled. Tests and benchmarks can substitute their own
//! sinks without touching the hot paths.
//!
//! Beyond point events, sinks may opt into *spans* — closed intervals of a
//! transaction's lifecycle ([`SpanRec`]) stamped against the process-wide
//! monotonic clock ([`obs_now_ns`]). Span emission is double-gated: call
//! sites check [`EventSink::spans_enabled`] before reading the clock, so the
//! default ([`NullSink`]) path costs one virtual call returning a constant.
//! Duration-only events are gated the same way by
//! [`EventSink::timings_enabled`]: the default runtime sink ([`StatsSink`])
//! ignores them, so a transaction reads no clock to produce them.

use std::fmt;
use std::sync::Arc;

use rtf_txbase::{TmStats, TreeId};

use crate::cell::CellId;

/// Which abort path attributed a conflict (see [`Event::Conflict`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// Top-level commit-time validation observed a displaced read.
    TopValidation,
    /// Sub-transaction (Alg 4) validation observed a displaced read.
    SubValidation,
    /// A write hit a live tentative entry owned by another tree
    /// (`ownedByAnotherTree`).
    InterTree,
}

/// Which blocking wait the starvation watchdog flagged (see
/// [`Event::StallDetected`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// A sub-commit blocked in `waitTurn` (Alg 3) past the stall threshold.
    WaitTurn,
    /// Tree teardown blocked waiting for task quiescence.
    Quiescence,
    /// A submitter blocked in `TxFuture::wait`/`eval` past the threshold.
    FutureWait,
    /// An ordered-lane transaction blocked waiting for its commit ticket's
    /// turn past the threshold.
    TicketWait,
}

impl StallKind {
    /// Stable display name (used by trace/JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            StallKind::WaitTurn => "wait_turn",
            StallKind::Quiescence => "quiescence",
            StallKind::FutureWait => "future_wait",
            StallKind::TicketWait => "ticket_wait",
        }
    }
}

/// One observable runtime event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A top-level read-write transaction committed.
    TopCommit,
    /// A top-level read-only transaction committed (validation skipped).
    TopRoCommit,
    /// A top-level transaction failed commit-time validation.
    TopValidationAbort,
    /// A whole tree aborted on an inter-tree tentative-list conflict
    /// (`ownedByAnotherTree`).
    InterTreeAbort,
    /// A top-level re-execution ran in sequential fallback mode.
    FallbackRun,
    /// A sub-transaction (future or continuation) committed.
    SubCommit,
    /// A sub-transaction failed validation and re-executed (partial
    /// rollback).
    SubValidationAbort,
    /// An implicit continuation failed validation and restarted the whole
    /// top-level transaction (FCC substitution, DESIGN.md D1).
    ContinuationRestart,
    /// A transactional future was submitted.
    FutureSubmitted,
    /// A read-only sub-transaction skipped validation (§IV-E).
    RoValidationSkip,
    /// A read-only sub-transaction could not skip validation.
    RoValidationTaken,
    /// A commit record was written back by a helping thread.
    HelpedWriteback,
    /// Permanent versions trimmed by the version GC.
    VersionsGced(u64),
    /// Nanoseconds spent blocked in `waitTurn`.
    WaitTurnNs(u64),
    /// Nanoseconds spent in sub-transaction read-set validation.
    ValidationNs(u64),
    /// Nanoseconds a successful top-level commit spent in the commit chain
    /// (validation + write-back, helping included).
    TopCommitNs(u64),
    /// Nanoseconds from a future's submission to its result becoming
    /// available to the continuation.
    FutureLifetimeNs(u64),
    /// An abort attributed to a specific cell. `writer_tree` is the tree
    /// owning the displacing/conflicting write, or [`TreeId::NONE`] when the
    /// displacement came from an already-permanent commit.
    Conflict {
        /// Which abort path attributed the conflict.
        kind: ConflictKind,
        /// The cell the conflict was observed on.
        cell: CellId,
        /// Tree owning the conflicting write ([`TreeId::NONE`] when the
        /// displacement was an already-permanent commit).
        writer_tree: TreeId,
    },
    /// A blocked or idle thread ran a queued pool task inline.
    PoolTaskHelped,
    /// A helping attempt had to defer queued tasks its fence stack forbids.
    PoolFenceDeferrals(u64),
    /// A transaction's accumulated read-path counts, flushed once at
    /// commit/teardown (per-read shared-counter traffic would serialize the
    /// lock-free read path this event exists to observe).
    ReadPathBatch {
        /// Reads served by the wait-free fast path.
        fast: u64,
        /// Reads that walked the version list.
        slow: u64,
    },
    /// The starvation watchdog observed a blocking wait exceeding its
    /// threshold (the waiter keeps waiting; this is the escalation signal).
    StallDetected {
        /// Which wait stalled.
        kind: StallKind,
        /// Raw id of the waiting tree (0 when not applicable).
        tree: u64,
        /// Raw id of the waiting node (0 when not applicable).
        node: u64,
        /// How long the waiter had been blocked when the report fired.
        waited_ns: u64,
    },
    /// A permanently stalled wait was converted into a structured abort
    /// (`RTF_STALL_ABORT_MS` exceeded).
    StallAbort,
    /// A pool task panicked and was contained by the worker/helper
    /// `catch_unwind` (the worker survives).
    PoolTaskPanicked,
    /// A transactional future's task panicked and was converted into a
    /// structured cancellation instead of a hang.
    FuturePanicked,
    /// A retry driver exhausted its attempt/deadline budget.
    RetryExhausted,
    /// `orec_snapshot` retries accumulated by one transaction (flushed with
    /// the read-path batch; each retry is one full re-read forced by a
    /// racing ownership propagation).
    OrecSnapshotRetries(u64),
    /// An ordered-lane commit ticket was issued.
    TicketIssued,
    /// An ordered-lane transaction committed at its ticket's turn. The
    /// `(lane, seq)` pair is the transaction's position in the predefined
    /// commit order; the stream of these events *is* the commit-order log
    /// the record/replay harness captures (`rtf-replay-v1`).
    TicketCommit {
        /// Dispenser lane the ticket came from.
        lane: u32,
        /// Position within the lane (ascending at commit time).
        seq: u64,
        /// Raw id of the committing tree (diagnostic only: tree ids are
        /// process-global and not reproducible across runs, so replay
        /// artifacts exclude them).
        tree: u64,
    },
    /// An ordered-lane ticket was abandoned before commit (abort, panic,
    /// retry exhaustion or stall); the lane skips over it.
    TicketAbandoned {
        /// Dispenser lane the ticket came from.
        lane: u32,
        /// Position within the lane.
        seq: u64,
    },
    /// Nanoseconds an ordered-lane commit spent waiting for its turn.
    TicketWaitNs(u64),
    /// Spurious ordered-lane wakeups accumulated by one turn wait (woken
    /// with the turn still pending; flushed once when the turn arrives).
    TicketSpuriousWakes(u64),
    /// A retry driver slept in capped-exponential conflict backoff before
    /// re-executing (0 ns never happens: immediate retries emit nothing).
    RetryBackoffNs(u64),
    /// A server request was admitted past the admission controller.
    ServerAdmitted,
    /// An admitted server request ran to a verdict and was answered
    /// (`ok` distinguishes success from a typed transactional failure).
    ServerCompleted {
        /// Whether the transaction committed (vs. a typed `TxError`).
        ok: bool,
    },
    /// A request was refused by the admission/overload ladder before
    /// running (token bucket, in-flight cap, saturation, drain).
    ServerShed,
    /// An in-flight request was force-resolved during graceful drain.
    ServerDrained,
    /// A client connection dropped mid-stream (EOF/reset with requests in
    /// flight, or an injected disconnect).
    ServerConnReset,
    /// The calling thread entered a registered blocking wait site and
    /// published what it waits on — the raw material of the live wait-graph
    /// inspector. `(a, b)` are kind-specific coordinates: `(lane, seq)` for
    /// [`StallKind::TicketWait`], `(node, nclock target)` for
    /// [`StallKind::WaitTurn`], `(waiting node, 0)` for
    /// [`StallKind::FutureWait`], `(live tasks, 0)` for
    /// [`StallKind::Quiescence`]. Always paired with a
    /// [`Event::WaitEnd`] from the same thread (RAII at the wait site);
    /// sites may nest (a waiter helping the pool can block again inside).
    WaitBegin {
        /// Which family of blocking wait.
        kind: StallKind,
        /// Raw id of the waiting tree (0 when not applicable).
        tree: u64,
        /// First kind-specific coordinate (see variant docs).
        a: u64,
        /// Second kind-specific coordinate (see variant docs).
        b: u64,
    },
    /// The calling thread left its innermost registered wait site.
    WaitEnd,
}

/// Phases of the transaction-tree lifecycle a [`SpanRec`] can cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One top-level execution attempt (begin to commit/abort).
    TopLevel = 0,
    /// A future body: node creation to sub-commit (waits included).
    Future = 1,
    /// A continuation segment: node creation to sub-commit.
    Continuation = 2,
    /// Time blocked in `waitTurn` (Alg 3) before a sub-commit.
    WaitTurn = 3,
    /// Sub-transaction read-set validation (Alg 4).
    Validation = 4,
    /// Top-level commit-chain traversal (validation + write-back).
    TopCommit = 5,
    /// A queued pool task run inline by a blocked/idle thread.
    PoolHelp = 6,
}

impl SpanKind {
    /// All kinds, in discriminant order (for table-driven exporters).
    pub const ALL: [SpanKind; 7] = [
        SpanKind::TopLevel,
        SpanKind::Future,
        SpanKind::Continuation,
        SpanKind::WaitTurn,
        SpanKind::Validation,
        SpanKind::TopCommit,
        SpanKind::PoolHelp,
    ];

    /// Stable display name (used by the trace exporters).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::TopLevel => "top_level",
            SpanKind::Future => "future",
            SpanKind::Continuation => "continuation",
            SpanKind::WaitTurn => "wait_turn",
            SpanKind::Validation => "validation",
            SpanKind::TopCommit => "top_commit",
            SpanKind::PoolHelp => "pool_help",
        }
    }

    /// Inverse of the `repr(u8)` discriminant, for ring-buffer decoding.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

/// One closed lifecycle interval, reported after the fact (no begin/end
/// pairing for sinks to reassemble). Timestamps are [`obs_now_ns`] values;
/// the recording sink attaches the producing thread itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Which lifecycle phase this interval covers.
    pub kind: SpanKind,
    /// Raw id of the owning transaction tree (0 when not applicable).
    pub tree: u64,
    /// Raw id of the tree node the span belongs to (0 when not applicable).
    pub node: u64,
    /// Raw id of the node's parent (0 for roots / not applicable).
    pub parent: u64,
    /// Interval start, [`obs_now_ns`] clock.
    pub start_ns: u64,
    /// Interval end, [`obs_now_ns`] clock.
    pub end_ns: u64,
    /// Whether the phase succeeded (committed / validated).
    pub ok: bool,
}

/// Nanoseconds since the process-wide observability epoch (first call). All
/// span timestamps share this monotonic clock so cross-thread records line
/// up in exported traces.
pub fn obs_now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A compact process-unique id for the calling thread, assigned on first
/// use. Unlike `std::thread::ThreadId`'s unstable `Debug` output, these are
/// small, dense, and stable for the thread's lifetime — suitable for trace
/// labels and exported `tid` fields.
pub fn stable_thread_id() -> u64 {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|slot| {
        let mut id = slot.get();
        if id == 0 {
            id = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(id);
        }
        id
    })
}

/// Receiver of engine instrumentation. The default implementations make a
/// no-op sink, so policies and tests implement only what they observe.
pub trait EventSink: Send + Sync {
    /// Reports one event.
    fn event(&self, _event: Event) {}

    /// Whether [`EventSink::trace`] wants input — callers skip formatting
    /// entirely when this is `false` (the hot-path guard the old
    /// `rtf_trace!` macro provided).
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Receives one pre-formatted diagnostic line.
    fn trace(&self, _msg: fmt::Arguments<'_>) {}

    /// Whether [`EventSink::span`] wants input — callers skip clock reads
    /// and record assembly entirely when this is `false`, keeping the
    /// default path free of `Instant` syscalls.
    fn spans_enabled(&self) -> bool {
        false
    }

    /// Receives one completed lifecycle span.
    fn span(&self, _rec: SpanRec) {}

    /// Whether the sink consumes the duration-only events
    /// ([`Event::TopCommitNs`], [`Event::FutureLifetimeNs`]) — callers skip
    /// the clock reads that time them when this is `false`. Events that
    /// feed counters (`WaitTurnNs`, `ValidationNs`, `TicketWaitNs`) are
    /// always timed. Defaults to `true`, so a sink that does not say
    /// otherwise sees every event.
    fn timings_enabled(&self) -> bool {
        true
    }
}

/// RAII publication of one blocking wait for the live wait-graph inspector:
/// emits [`Event::WaitBegin`] on construction and [`Event::WaitEnd`] on drop.
/// Construct and drop on the waiting thread — the receiving sink attributes
/// the pair to [`stable_thread_id`]. Guards may nest (a waiter that helps
/// the pool and blocks again publishes an inner site); interested sinks keep
/// a per-thread stack.
pub struct WaitSiteGuard<'a> {
    sink: &'a dyn EventSink,
}

impl<'a> WaitSiteGuard<'a> {
    /// Publishes entry into a wait site through `sink`. `(a, b)` follow the
    /// kind-specific coordinate conventions of [`Event::WaitBegin`].
    pub fn enter(
        sink: &'a dyn EventSink,
        kind: StallKind,
        tree: u64,
        a: u64,
        b: u64,
    ) -> WaitSiteGuard<'a> {
        sink.event(Event::WaitBegin { kind, tree, a, b });
        WaitSiteGuard { sink }
    }
}

impl Drop for WaitSiteGuard<'_> {
    fn drop(&mut self) {
        self.sink.event(Event::WaitEnd);
    }
}

/// Discards everything (the default sink).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn timings_enabled(&self) -> bool {
        false
    }
}

/// Maps events onto the shared [`TmStats`] counters.
pub struct StatsSink {
    stats: Arc<TmStats>,
}

impl StatsSink {
    /// A sink bumping `stats`.
    pub fn new(stats: Arc<TmStats>) -> StatsSink {
        StatsSink { stats }
    }
}

impl EventSink for StatsSink {
    fn event(&self, event: Event) {
        let s = &self.stats;
        match event {
            Event::TopCommit => s.top_commits(),
            Event::TopRoCommit => s.top_ro_commits(),
            Event::TopValidationAbort => s.top_validation_aborts(),
            Event::InterTreeAbort => s.inter_tree_aborts(),
            Event::FallbackRun => s.fallback_runs(),
            Event::SubCommit => s.sub_commits(),
            Event::SubValidationAbort => s.sub_validation_aborts(),
            Event::ContinuationRestart => s.continuation_restarts(),
            Event::FutureSubmitted => s.futures_submitted(),
            Event::RoValidationSkip => s.ro_validation_skips(),
            Event::RoValidationTaken => s.ro_validation_taken(),
            Event::HelpedWriteback => s.helped_writebacks(),
            Event::VersionsGced(n) => s.add_versions_gced(n),
            Event::WaitTurnNs(ns) => s.add_wait_turn_ns(ns),
            Event::ValidationNs(ns) => s.add_validation_ns(ns),
            Event::PoolTaskHelped => s.pool_helped_tasks(),
            Event::PoolFenceDeferrals(n) => s.add_pool_fence_deferrals(n),
            Event::ReadPathBatch { fast, slow } => {
                if fast > 0 {
                    s.add_read_fast(fast);
                }
                if slow > 0 {
                    s.add_read_slow(slow);
                }
            }
            Event::StallDetected { .. } => s.stalls_detected(),
            Event::StallAbort => s.stall_aborts(),
            Event::PoolTaskPanicked => s.pool_task_panics(),
            Event::FuturePanicked => s.future_panics(),
            Event::RetryExhausted => s.retries_exhausted(),
            Event::OrecSnapshotRetries(n) => s.add_orec_snapshot_retries(n),
            Event::TicketIssued => s.tickets_issued(),
            Event::TicketCommit { .. } => s.ordered_commits(),
            Event::TicketAbandoned { .. } => s.tickets_abandoned(),
            Event::TicketWaitNs(ns) => s.add_ticket_wait_ns(ns),
            Event::TicketSpuriousWakes(n) => s.add_ticket_spurious_wakes(n),
            Event::RetryBackoffNs(ns) => {
                s.retry_backoffs();
                s.add_retry_backoff_ns(ns);
            }
            Event::ServerAdmitted => s.server_admitted(),
            Event::ServerCompleted { ok } => {
                s.server_completed();
                if !ok {
                    s.server_failed();
                }
            }
            Event::ServerShed => s.server_shed(),
            Event::ServerDrained => s.server_drained(),
            Event::ServerConnReset => s.server_conn_resets(),
            // Timing and attribution detail beyond the flat counters is the
            // observability layer's business (see `rtf-txobs`), as is the
            // live wait-site publication.
            Event::TopCommitNs(_)
            | Event::FutureLifetimeNs(_)
            | Event::Conflict { .. }
            | Event::WaitBegin { .. }
            | Event::WaitEnd => {}
        }
    }

    fn timings_enabled(&self) -> bool {
        false
    }
}

/// Prints diagnostic lines to stderr. Whether the sink is live is decided at
/// construction — [`TraceSink::from_env`] consults `RTF_TRACE` (any value
/// other than `0` enables it), [`TraceSink::new`] takes the flag directly so
/// tests can exercise tracing without mutating process env. Events are
/// ignored — tracing call sites describe themselves.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSink {
    enabled: bool,
}

impl TraceSink {
    /// A sink with tracing explicitly switched on or off.
    pub fn new(enabled: bool) -> TraceSink {
        TraceSink { enabled }
    }

    /// A sink honouring the `RTF_TRACE` environment variable.
    pub fn from_env() -> TraceSink {
        TraceSink::new(TraceSink::env_enabled())
    }

    /// Whether `RTF_TRACE` requests tracing (computed once per process).
    pub fn env_enabled() -> bool {
        static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ENABLED.get_or_init(|| std::env::var("RTF_TRACE").is_ok_and(|v| v != "0"))
    }
}

impl EventSink for TraceSink {
    fn trace_enabled(&self) -> bool {
        self.enabled
    }

    fn trace(&self, msg: fmt::Arguments<'_>) {
        eprintln!("[rtf t{:02}] {}", stable_thread_id(), msg);
    }

    fn timings_enabled(&self) -> bool {
        false
    }
}

/// Fans out to several sinks (e.g. stats + trace).
pub struct TeeSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl TeeSink {
    /// A sink forwarding to every sink in `sinks`.
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl EventSink for TeeSink {
    fn event(&self, event: Event) {
        for s in &self.sinks {
            s.event(event);
        }
    }

    fn trace_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.trace_enabled())
    }

    fn trace(&self, msg: fmt::Arguments<'_>) {
        for s in &self.sinks {
            if s.trace_enabled() {
                s.trace(msg);
            }
        }
    }

    fn spans_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.spans_enabled())
    }

    fn span(&self, rec: SpanRec) {
        for s in &self.sinks {
            if s.spans_enabled() {
                s.span(rec);
            }
        }
    }

    fn timings_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.timings_enabled())
    }
}

/// Emits a diagnostic line through a sink, formatting the message only when
/// the sink asks for traces (the successor of the old `rtf_trace!` macro,
/// whose `RTF_TRACE` behaviour now lives in [`TraceSink`]).
#[macro_export]
macro_rules! tx_trace {
    ($sink:expr, $($arg:tt)*) => {{
        // Method-call syntax so `$sink` may be a sink, a reference, or an
        // `Arc<dyn EventSink>` alike.
        if $sink.trace_enabled() {
            $sink.trace(format_args!($($arg)*));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[test]
    fn stats_sink_maps_events_to_counters() {
        let stats = Arc::new(TmStats::default());
        let sink = StatsSink::new(Arc::clone(&stats));
        sink.event(Event::TopCommit);
        sink.event(Event::TopCommit);
        sink.event(Event::SubValidationAbort);
        sink.event(Event::VersionsGced(7));
        sink.event(Event::WaitTurnNs(120));
        sink.event(Event::PoolTaskHelped);
        sink.event(Event::PoolFenceDeferrals(3));
        sink.event(Event::TicketIssued);
        sink.event(Event::TicketIssued);
        sink.event(Event::TicketCommit { lane: 0, seq: 0, tree: 9 });
        sink.event(Event::TicketAbandoned { lane: 0, seq: 1 });
        sink.event(Event::TicketWaitNs(40));
        sink.event(Event::TicketSpuriousWakes(5));
        // Detail-only events fall through without touching counters.
        sink.event(Event::TopCommitNs(999));
        sink.event(Event::FutureLifetimeNs(999));
        sink.event(Event::WaitBegin { kind: StallKind::TicketWait, tree: 1, a: 0, b: 5 });
        sink.event(Event::WaitEnd);
        let snap = stats.snapshot();
        assert_eq!(snap.top_commits, 2);
        assert_eq!(snap.sub_validation_aborts, 1);
        assert_eq!(snap.versions_gced, 7);
        assert_eq!(snap.wait_turn_ns, 120);
        assert_eq!(snap.pool_helped_tasks, 1);
        assert_eq!(snap.pool_fence_deferrals, 3);
        assert_eq!(snap.tickets_issued, 2);
        assert_eq!(snap.ordered_commits, 1);
        assert_eq!(snap.tickets_abandoned, 1);
        assert_eq!(snap.ticket_wait_ns, 40);
        assert_eq!(snap.ticket_spurious_wakes, 5);
    }

    #[test]
    fn wait_site_guard_pairs_begin_and_end_lifo() {
        struct Record(Mutex<Vec<Event>>);
        impl EventSink for Record {
            fn event(&self, e: Event) {
                self.0.lock().unwrap().push(e);
            }
        }
        let sink = Record(Mutex::new(Vec::new()));
        {
            let _outer = WaitSiteGuard::enter(&sink, StallKind::TicketWait, 7, 0, 42);
            let _inner = WaitSiteGuard::enter(&sink, StallKind::WaitTurn, 7, 3, 9);
        }
        let got = sink.0.into_inner().unwrap();
        assert_eq!(
            got,
            vec![
                Event::WaitBegin { kind: StallKind::TicketWait, tree: 7, a: 0, b: 42 },
                Event::WaitBegin { kind: StallKind::WaitTurn, tree: 7, a: 3, b: 9 },
                Event::WaitEnd,
                Event::WaitEnd,
            ]
        );
    }

    #[test]
    fn null_sink_ignores_everything() {
        let sink: Arc<dyn EventSink> = Arc::new(NullSink);
        sink.event(Event::TopCommit);
        assert!(!sink.trace_enabled());
        assert!(!sink.spans_enabled());
        tx_trace!(sink, "never formatted {}", 1);
    }

    #[test]
    fn tee_fans_out() {
        struct Counting(AtomicU64);
        impl EventSink for Counting {
            fn event(&self, _e: Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let a = Arc::new(Counting(AtomicU64::new(0)));
        let b = Arc::new(Counting(AtomicU64::new(0)));
        let tee = TeeSink::new(vec![a.clone() as Arc<dyn EventSink>, b.clone()]);
        tee.event(Event::SubCommit);
        tee.event(Event::SubCommit);
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
        assert_eq!(b.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tee_forwards_spans_only_to_interested_sinks() {
        struct Spans(Mutex<Vec<SpanRec>>);
        impl EventSink for Spans {
            fn spans_enabled(&self) -> bool {
                true
            }
            fn span(&self, rec: SpanRec) {
                self.0.lock().unwrap().push(rec);
            }
        }
        let spans = Arc::new(Spans(Mutex::new(Vec::new())));
        let tee = TeeSink::new(vec![Arc::new(NullSink) as Arc<dyn EventSink>, spans.clone()]);
        assert!(tee.spans_enabled());
        let rec = SpanRec {
            kind: SpanKind::WaitTurn,
            tree: 1,
            node: 2,
            parent: 3,
            start_ns: 10,
            end_ns: 20,
            ok: true,
        };
        tee.span(rec);
        assert_eq!(*spans.0.lock().unwrap(), vec![rec]);
    }

    #[test]
    fn only_sinks_that_consume_durations_ask_for_timings() {
        struct Timed;
        impl EventSink for Timed {}
        let stats: Arc<dyn EventSink> = Arc::new(StatsSink::new(Arc::new(TmStats::default())));
        let null: Arc<dyn EventSink> = Arc::new(NullSink);
        assert!(!stats.timings_enabled());
        assert!(!null.timings_enabled());
        assert!(!TraceSink::new(true).timings_enabled());
        assert!(Timed.timings_enabled(), "the trait default sees every event");
        let quiet = TeeSink::new(vec![Arc::clone(&stats), Arc::clone(&null)]);
        assert!(!quiet.timings_enabled());
        let timed = TeeSink::new(vec![stats, null, Arc::new(Timed)]);
        assert!(timed.timings_enabled());
    }

    #[test]
    fn trace_sink_flag_is_injectable() {
        assert!(TraceSink::new(true).trace_enabled());
        assert!(!TraceSink::new(false).trace_enabled());
        assert!(!TraceSink::default().trace_enabled());
    }

    #[test]
    fn span_kind_round_trips_through_u8() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(SpanKind::from_u8(200), None);
    }

    #[test]
    fn stable_thread_ids_are_distinct_and_stable() {
        let here = stable_thread_id();
        assert_eq!(here, stable_thread_id());
        let there = std::thread::spawn(stable_thread_id).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn obs_clock_is_monotonic() {
        let a = obs_now_ns();
        let b = obs_now_ns();
        assert!(b >= a);
    }
}
