//! Starvation watchdog for the runtime's blocking waits.
//!
//! Every wait in the tree machinery is *supposed* to be bounded by protocol
//! progress: `waitTurn` waits for a predecessor's commit, quiescence waits
//! for in-flight tasks, `eval` waits for a future's resolution. A lost
//! wake-up, a stuck helper, or a fault-injected hang turns any of them into
//! a silent stall. The [`StallWatch`] instruments each wait loop:
//!
//! 1. the loop already escalates on its own (spin → yield/help → short
//!    park);
//! 2. past the *warn* threshold the watch emits
//!    [`Event::StallDetected`] with the node path coordinates and the time
//!    waited, re-emitting at doubling intervals so a persistent stall keeps
//!    showing up in the metrics;
//! 3. past the optional *abort* threshold it reports
//!    [`StallAction::Abort`]; the call site converts that into a structured
//!    teardown ([`crate::TxError::StallAborted`]) instead of parking
//!    forever.
//!
//! Thresholds resolve from the builder
//! ([`crate::RtfBuilder::stall_warn`] / [`crate::RtfBuilder::stall_abort`])
//! or the `RTF_STALL_WARN_MS` / `RTF_STALL_ABORT_MS` environment variables;
//! aborting is off by default, so the watchdog is observe-only unless
//! explicitly armed.

use std::time::{Duration, Instant};

use rtf_txengine::{Event, EventSink, StallKind};

/// Default warn threshold when neither the builder nor the environment sets
/// one: long enough to never fire on a healthy commit, short enough to
/// catch a stall while the process is still observable.
const DEFAULT_WARN: Duration = Duration::from_millis(200);

/// Resolved watchdog thresholds of one runtime.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StallThresholds {
    /// Emit [`Event::StallDetected`] after this long.
    pub warn: Duration,
    /// Convert the wait into a structured abort after this long
    /// (`None` = never abort, the default).
    pub abort: Option<Duration>,
}

impl StallThresholds {
    /// Builder overrides win; the environment fills the gaps.
    pub fn resolve(warn: Option<Duration>, abort: Option<Duration>) -> StallThresholds {
        let env_ms =
            |name: &str| std::env::var(name).ok().and_then(|v| v.trim().parse::<u64>().ok());
        StallThresholds {
            warn: warn
                .or_else(|| env_ms("RTF_STALL_WARN_MS").map(Duration::from_millis))
                .unwrap_or(DEFAULT_WARN),
            abort: abort.or_else(|| env_ms("RTF_STALL_ABORT_MS").map(Duration::from_millis)),
        }
    }
}

/// What the wait loop should do after a [`StallWatch::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallAction {
    /// Keep waiting.
    Continue,
    /// The abort threshold passed: tear the wait down.
    Abort {
        /// How long the waiter had been blocked, in milliseconds.
        waited_ms: u64,
    },
}

/// Watchdog attached to one blocking wait (one `waitTurn`, one quiescence
/// wait, one `eval`). Cheap to construct; `tick` is called once per wait
/// loop round (i.e. at most a few thousand times per second), never on the
/// fast path. It borrows the runtime's sink: a wait is entered on every
/// `eval` and blocking `waitTurn`, and a clone would write the reference
/// count every thread shares.
pub(crate) struct StallWatch<'a> {
    kind: StallKind,
    tree: u64,
    node: u64,
    sink: &'a dyn EventSink,
    start: Instant,
    next_warn: Duration,
    abort_at: Option<Duration>,
}

impl<'a> StallWatch<'a> {
    /// Watch with the runtime's thresholds (warn + optional abort).
    pub fn new(
        kind: StallKind,
        tree: u64,
        node: u64,
        sink: &'a dyn EventSink,
        thresholds: StallThresholds,
    ) -> StallWatch<'a> {
        StallWatch {
            kind,
            tree,
            node,
            sink,
            start: Instant::now(),
            next_warn: thresholds.warn,
            abort_at: thresholds.abort,
        }
    }

    /// Watch that only ever warns — for waits that *must* run to completion
    /// regardless of how long they take (teardown quiescence: aborting the
    /// abort path would leak the tree's tentative entries).
    pub fn warn_only(
        kind: StallKind,
        tree: u64,
        node: u64,
        sink: &'a dyn EventSink,
        thresholds: StallThresholds,
    ) -> StallWatch<'a> {
        StallWatch::new(kind, tree, node, sink, StallThresholds { abort: None, ..thresholds })
    }

    /// One watchdog round: emits [`Event::StallDetected`] past the warn
    /// threshold (re-armed at doubling intervals) and reports whether the
    /// abort threshold passed.
    pub fn tick(&mut self) -> StallAction {
        let elapsed = self.start.elapsed();
        if elapsed >= self.next_warn {
            self.sink.event(Event::StallDetected {
                kind: self.kind,
                tree: self.tree,
                node: self.node,
                waited_ns: elapsed.as_nanos() as u64,
            });
            // Re-arm at twice the time already waited (not twice the
            // threshold): a tick arriving late must not fire again at once.
            self.next_warn = elapsed.saturating_mul(2).max(Duration::from_millis(1));
        }
        if let Some(abort_at) = self.abort_at {
            if elapsed >= abort_at {
                self.sink.event(Event::StallAbort);
                return StallAction::Abort { waited_ms: elapsed.as_millis() as u64 };
            }
        }
        StallAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rtf_txbase::TmStats;
    use rtf_txengine::StatsSink;

    fn sink() -> (Arc<TmStats>, Arc<dyn EventSink>) {
        let stats = Arc::new(TmStats::default());
        (Arc::clone(&stats), Arc::new(StatsSink::new(stats)))
    }

    #[test]
    fn warns_once_past_threshold_then_rearms_doubled() {
        let (stats, sink) = sink();
        let th = StallThresholds { warn: Duration::from_millis(1), abort: None };
        let mut w = StallWatch::new(StallKind::WaitTurn, 1, 2, &*sink, th);
        assert_eq!(w.tick(), StallAction::Continue, "below threshold: no event");
        assert_eq!(stats.snapshot().stalls_detected, 0);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(w.tick(), StallAction::Continue);
        assert_eq!(stats.snapshot().stalls_detected, 1);
        // Re-armed at 2x: an immediate second tick stays quiet.
        assert_eq!(w.tick(), StallAction::Continue);
        assert_eq!(stats.snapshot().stalls_detected, 1);
    }

    #[test]
    fn abort_threshold_reports_abort_and_counts() {
        let (stats, sink) = sink();
        let th = StallThresholds {
            warn: Duration::from_millis(1),
            abort: Some(Duration::from_millis(2)),
        };
        let mut w = StallWatch::new(StallKind::Quiescence, 1, 2, &*sink, th);
        std::thread::sleep(Duration::from_millis(4));
        match w.tick() {
            StallAction::Abort { waited_ms } => assert!(waited_ms >= 2),
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(stats.snapshot().stall_aborts, 1);
        assert_eq!(stats.snapshot().stalls_detected, 1);
    }

    #[test]
    fn warn_only_never_aborts() {
        let (_, sink) = sink();
        let th = StallThresholds {
            warn: Duration::from_millis(1),
            abort: Some(Duration::from_millis(1)),
        };
        let mut w = StallWatch::warn_only(StallKind::Quiescence, 1, 2, &*sink, th);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(w.tick(), StallAction::Continue);
    }

    #[test]
    fn thresholds_resolve_builder_over_env_over_default() {
        let r = StallThresholds::resolve(Some(Duration::from_millis(7)), None);
        assert_eq!(r.warn, Duration::from_millis(7));
        let r = StallThresholds::resolve(None, Some(Duration::from_millis(9)));
        assert_eq!(r.warn, DEFAULT_WARN);
        assert_eq!(r.abort, Some(Duration::from_millis(9)));
    }
}
