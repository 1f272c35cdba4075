//! Engine instrumentation: one [`Telemetry`] per runtime instead of
//! scattered counter bumps and ad-hoc tracing.
//!
//! Every noteworthy runtime event — commits, aborts, helping, GC, time spent
//! waiting — is reported as an [`Event`] to the runtime's [`Telemetry`],
//! which the engine and its client crates hold or borrow. An event that only
//! bumps a counter is [`Event::Count`]; the few that carry data (a duration
//! for a histogram, a conflicting cell, a commit-order position, a wait
//! site) have variants of their own. [`Event::counter`] is the one mapping
//! from events to the [`TmStats`] counters: the telemetry applies it to the
//! runtime's store, and observers that keep a store of their own apply the
//! same function.
//!
//! Observers ([`EventSink`]) see every event after the counters do. With no
//! observer attached, an event is one striped counter add and no virtual
//! call. Observers may also opt into *spans* — closed intervals of a
//! transaction's lifecycle ([`SpanRec`]) stamped against the process-wide
//! monotonic clock ([`obs_now_ns`]) — and into the duration-only events
//! ([`EventSink::timings_enabled`]). The telemetry asks each observer once,
//! when it is built, and call sites check [`Telemetry::spans`] and
//! [`Telemetry::timings`] before reading the clock, so the default path reads
//! no clock for either. The `RTF_TRACE` diagnostic stream is the telemetry's
//! [`Telemetry::tracing`] flag, also fixed when it is built.

use std::fmt;
use std::sync::Arc;

use rtf_txbase::{Counter, TmStats, TreeId};

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
    /// Adds to a flat counter: an occurrence that carries nothing beyond
    /// its count (a commit, an abort, a helped task), or a batch or
    /// duration that only a counter accumulates.
    Count(Counter, u64),
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

impl Event {
    /// The counter this event adds to, and by how much: the one mapping from
    /// events to [`TmStats`] counters, shared by [`Telemetry`] and by
    /// observers that keep a store of their own.
    #[inline]
    pub fn counter(self) -> Option<(Counter, u64)> {
        match self {
            Event::Count(c, n) => Some((c, n)),
            Event::StallDetected { .. } => Some((Counter::StallsDetected, 1)),
            Event::TicketCommit { .. } => Some((Counter::OrderedCommits, 1)),
            Event::TicketAbandoned { .. } => Some((Counter::TicketsAbandoned, 1)),
            Event::TopCommitNs(_)
            | Event::FutureLifetimeNs(_)
            | Event::Conflict { .. }
            | Event::WaitBegin { .. }
            | Event::WaitEnd => None,
        }
    }
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

/// An observer of a runtime's events: `rtf_txobs::TxObs`, a commit-order
/// recorder, a test capture. The default implementations make a no-op
/// observer, so implementations override only what they observe.
///
/// [`Telemetry::new`] asks [`EventSink::spans_enabled`] and
/// [`EventSink::timings_enabled`] once, when the runtime is built, so an
/// observer's answers must not change over its lifetime.
pub trait EventSink: Send + Sync {
    /// Reports one event.
    fn event(&self, _event: Event) {}

    /// Whether [`EventSink::span`] wants input. While no attached observer
    /// does, call sites skip clock reads and record assembly entirely.
    fn spans_enabled(&self) -> bool {
        false
    }

    /// Receives one completed lifecycle span.
    fn span(&self, _rec: SpanRec) {}

    /// Whether the observer consumes the duration-only events
    /// ([`Event::TopCommitNs`], [`Event::FutureLifetimeNs`]). While no
    /// attached observer does, call sites skip the clock reads that time
    /// them. Durations that feed a counter are always timed. Defaults to
    /// `true`, so an observer that does not say otherwise sees every event.
    fn timings_enabled(&self) -> bool {
        true
    }
}

/// A runtime's instrumentation: its counters, its observers, and the
/// switches call sites consult before doing work only an observer or the
/// trace stream would use. Built once per runtime and shared (by `Arc` or
/// by reference) with everything that reports events.
#[derive(Default)]
pub struct Telemetry {
    stats: Arc<TmStats>,
    observers: Box<[Arc<dyn EventSink>]>,
    spans: bool,
    timings: bool,
    trace: bool,
}

impl Telemetry {
    /// Telemetry counting into `stats`, forwarding to `observers`, and
    /// printing trace lines to stderr when `trace` is set. Whether spans and
    /// timings are wanted is decided here, from the observers.
    pub fn new(stats: Arc<TmStats>, observers: Vec<Arc<dyn EventSink>>, trace: bool) -> Telemetry {
        let spans = observers.iter().any(|o| o.spans_enabled());
        let timings = observers.iter().any(|o| o.timings_enabled());
        Telemetry { stats, observers: observers.into(), spans, timings, trace }
    }

    /// Whether the `RTF_TRACE` environment variable requests the trace
    /// stream (any value other than `0`).
    pub fn trace_from_env() -> bool {
        std::env::var("RTF_TRACE").is_ok_and(|v| v != "0")
    }

    /// The counters every event feeds.
    pub fn stats(&self) -> &Arc<TmStats> {
        &self.stats
    }

    /// Reports one event: counts it, then hands it to every observer.
    #[inline]
    pub fn event(&self, event: Event) {
        if let Some((c, n)) = event.counter() {
            self.stats.add(c, n);
        }
        for o in self.observers.iter() {
            o.event(event);
        }
    }

    /// Adds `n` to counter `c` ([`Event::Count`]).
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.event(Event::Count(c, n));
    }

    /// Whether some observer wants spans.
    #[inline]
    pub fn spans(&self) -> bool {
        self.spans
    }

    /// Hands one completed span to the observers that want spans.
    pub fn span(&self, rec: SpanRec) {
        for o in self.observers.iter().filter(|o| o.spans_enabled()) {
            o.span(rec);
        }
    }

    /// Whether some observer consumes the duration-only events.
    #[inline]
    pub fn timings(&self) -> bool {
        self.timings
    }

    /// Whether the trace stream is on (see [`tx_trace!`](crate::tx_trace)).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Prints one diagnostic line to stderr, tagged with the calling
    /// thread's [`stable_thread_id`].
    pub fn trace(&self, msg: fmt::Arguments<'_>) {
        eprintln!("[rtf t{:02}] {}", stable_thread_id(), msg);
    }
}

/// RAII publication of one blocking wait for the live wait-graph inspector:
/// emits [`Event::WaitBegin`] on construction and [`Event::WaitEnd`] on drop.
/// Construct and drop on the waiting thread — the receiving observer
/// attributes the pair to [`stable_thread_id`]. Guards may nest (a waiter
/// that helps the pool and blocks again publishes an inner site);
/// interested observers keep a per-thread stack.
pub struct WaitSiteGuard<'a> {
    telemetry: &'a Telemetry,
}

impl<'a> WaitSiteGuard<'a> {
    /// Publishes entry into a wait site through `telemetry`. `(a, b)` follow
    /// the kind-specific coordinate conventions of [`Event::WaitBegin`].
    pub fn enter(
        telemetry: &'a Telemetry,
        kind: StallKind,
        tree: u64,
        a: u64,
        b: u64,
    ) -> WaitSiteGuard<'a> {
        telemetry.event(Event::WaitBegin { kind, tree, a, b });
        WaitSiteGuard { telemetry }
    }
}

impl Drop for WaitSiteGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.event(Event::WaitEnd);
    }
}

/// Emits a diagnostic line through a [`Telemetry`], formatting the message
/// only when its trace stream is on.
#[macro_export]
macro_rules! tx_trace {
    ($telemetry:expr, $($arg:tt)*) => {{
        if $telemetry.tracing() {
            $telemetry.trace(format_args!($($arg)*));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    struct Record(Mutex<Vec<Event>>);

    impl EventSink for Record {
        fn event(&self, e: Event) {
            self.0.lock().unwrap().push(e);
        }
    }

    fn observed(observers: Vec<Arc<dyn EventSink>>) -> Telemetry {
        Telemetry::new(Arc::new(TmStats::default()), observers, false)
    }

    #[test]
    fn telemetry_maps_events_to_counters() {
        let tel = Telemetry::default();
        tel.count(Counter::TopCommits, 1);
        tel.count(Counter::TopCommits, 1);
        tel.count(Counter::SubValidationAborts, 1);
        tel.count(Counter::VersionsGced, 7);
        tel.count(Counter::WaitTurnNs, 120);
        tel.count(Counter::PoolHelpedTasks, 1);
        tel.count(Counter::PoolFenceDeferrals, 3);
        tel.count(Counter::TicketsIssued, 1);
        tel.count(Counter::TicketsIssued, 1);
        tel.event(Event::TicketCommit { lane: 0, seq: 0, tree: 9 });
        tel.event(Event::TicketAbandoned { lane: 0, seq: 1 });
        tel.event(Event::StallDetected {
            kind: StallKind::WaitTurn,
            tree: 1,
            node: 2,
            waited_ns: 3,
        });
        tel.count(Counter::TicketWaitNs, 40);
        tel.count(Counter::TicketSpuriousWakes, 5);
        // Detail-only events fall through without touching counters.
        tel.event(Event::TopCommitNs(999));
        tel.event(Event::FutureLifetimeNs(999));
        tel.event(Event::WaitBegin { kind: StallKind::TicketWait, tree: 1, a: 0, b: 5 });
        tel.event(Event::WaitEnd);
        let snap = tel.stats().snapshot();
        assert_eq!(snap.top_commits, 2);
        assert_eq!(snap.sub_validation_aborts, 1);
        assert_eq!(snap.versions_gced, 7);
        assert_eq!(snap.wait_turn_ns, 120);
        assert_eq!(snap.pool_helped_tasks, 1);
        assert_eq!(snap.pool_fence_deferrals, 3);
        assert_eq!(snap.tickets_issued, 2);
        assert_eq!(snap.ordered_commits, 1);
        assert_eq!(snap.tickets_abandoned, 1);
        assert_eq!(snap.stalls_detected, 1);
        assert_eq!(snap.ticket_wait_ns, 40);
        assert_eq!(snap.ticket_spurious_wakes, 5);
        let counted: u64 = Counter::ALL.iter().map(|&c| snap.get(c)).sum();
        assert_eq!(counted, 2 + 1 + 7 + 120 + 1 + 3 + 2 + 1 + 1 + 1 + 40 + 5);
    }

    #[test]
    fn wait_site_guard_pairs_begin_and_end_lifo() {
        let rec = Arc::new(Record(Mutex::new(Vec::new())));
        let tel = observed(vec![rec.clone()]);
        {
            let _outer = WaitSiteGuard::enter(&tel, StallKind::TicketWait, 7, 0, 42);
            let _inner = WaitSiteGuard::enter(&tel, StallKind::WaitTurn, 7, 3, 9);
        }
        let got = rec.0.lock().unwrap().clone();
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
        // An observer that overrides nothing: it drops events, wants no
        // spans, and with it attached (and trace off) nothing is formatted.
        struct Null;
        impl EventSink for Null {}
        let tel = observed(vec![Arc::new(Null)]);
        tel.count(Counter::TopCommits, 1);
        assert!(!tel.spans());
        assert!(!tel.tracing());
        struct Loud;
        impl fmt::Display for Loud {
            fn fmt(&self, _f: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("formatted with tracing off")
            }
        }
        tx_trace!(tel, "never formatted {}", Loud);
        assert_eq!(tel.stats().snapshot().top_commits, 1);
    }

    #[test]
    fn telemetry_fans_out_to_every_observer() {
        struct Counting(AtomicU64);
        impl EventSink for Counting {
            fn event(&self, _e: Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let a = Arc::new(Counting(AtomicU64::new(0)));
        let b = Arc::new(Counting(AtomicU64::new(0)));
        let tel = observed(vec![a.clone(), b.clone()]);
        tel.count(Counter::SubCommits, 1);
        tel.count(Counter::SubCommits, 1);
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
        assert_eq!(b.0.load(Ordering::Relaxed), 2);
        assert_eq!(tel.stats().snapshot().sub_commits, 2);
    }

    #[test]
    fn telemetry_forwards_spans_only_to_interested_observers() {
        struct Spans(Mutex<Vec<SpanRec>>);
        impl EventSink for Spans {
            fn spans_enabled(&self) -> bool {
                true
            }
            fn span(&self, rec: SpanRec) {
                self.0.lock().unwrap().push(rec);
            }
        }
        struct NoSpans;
        impl EventSink for NoSpans {
            fn span(&self, _rec: SpanRec) {
                panic!("span sent to an observer that did not ask for spans");
            }
        }
        assert!(!observed(vec![Arc::new(NoSpans)]).spans());
        let spans = Arc::new(Spans(Mutex::new(Vec::new())));
        let tel = observed(vec![Arc::new(NoSpans), spans.clone()]);
        assert!(tel.spans());
        let rec = SpanRec {
            kind: SpanKind::WaitTurn,
            tree: 1,
            node: 2,
            parent: 3,
            start_ns: 10,
            end_ns: 20,
            ok: true,
        };
        tel.span(rec);
        assert_eq!(*spans.0.lock().unwrap(), vec![rec]);
    }

    #[test]
    fn only_sinks_that_consume_durations_ask_for_timings() {
        struct Timed;
        impl EventSink for Timed {}
        struct Untimed;
        impl EventSink for Untimed {
            fn timings_enabled(&self) -> bool {
                false
            }
        }
        assert!(Timed.timings_enabled(), "the trait default sees every event");
        assert!(!Telemetry::default().timings(), "no observer, no timings");
        assert!(!observed(vec![Arc::new(Untimed)]).timings());
        assert!(observed(vec![Arc::new(Untimed), Arc::new(Timed)]).timings());
    }

    #[test]
    fn trace_sink_flag_is_injectable() {
        let stats = || Arc::new(TmStats::default());
        assert!(Telemetry::new(stats(), Vec::new(), true).tracing());
        assert!(!Telemetry::new(stats(), Vec::new(), false).tracing());
        assert!(!Telemetry::default().tracing());
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
