//! Snapshot deltas and live wait edges — the data model of the live
//! telemetry pipeline.
//!
//! A [`MetricsSnapshot`] is already a consistent
//! point-in-time copy: every source it reads (counters, histogram buckets,
//! ring totals) is monotone non-decreasing and written with relaxed atomics,
//! so a snapshot taken while writers run is some valid cut of the event
//! stream — never torn, never negative. [`SnapshotDiff`] subtracts two such
//! cuts of the *same* observer; monotonicity makes every diffed field exact
//! and non-negative, which is what lets a stream of periodic snapshots
//! reconcile to the final on-drop export (each interval sums to the total).
//!
//! [`WaitEdge`] is the other half: the instantaneous "who waits on whom"
//! picture assembled from [`Event::WaitBegin`](rtf_txengine::Event)/`WaitEnd`
//! pairs published by the registered blocking wait sites. Edges are gauges,
//! not counters — they appear in snapshots but deliberately not in diffs.

use rtf_txbase::StatSnapshot;
use rtf_txengine::StallKind;

use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::obs::MetricsSnapshot;

/// One live blocked-on edge: a thread inside a registered wait site and the
/// coordinates of what it waits for (see
/// [`Event::WaitBegin`](rtf_txengine::Event::WaitBegin) for the per-kind
/// meaning of `a`/`b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// Stable id of the blocked thread.
    pub thread: u64,
    /// Nesting depth of this site on its thread (0 = outermost; a waiter
    /// that helps the pool and blocks again publishes depth 1, …).
    pub depth: u32,
    /// Which family of blocking wait.
    pub kind: StallKind,
    /// Raw id of the waiting tree (0 when not applicable).
    pub tree: u64,
    /// First kind-specific coordinate (lane / node / future id).
    pub a: u64,
    /// Second kind-specific coordinate (seq / nclock target).
    pub b: u64,
    /// How long the site had been occupied when the snapshot was cut.
    pub waited_ns: u64,
}

impl WaitEdge {
    /// The edge as one `waits[]` element of the metrics document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("thread".into(), Json::U64(self.thread)),
            ("depth".into(), Json::U64(u64::from(self.depth))),
            ("kind".into(), Json::str(self.kind.name())),
            ("tree".into(), Json::U64(self.tree)),
            ("a".into(), Json::U64(self.a)),
            ("b".into(), Json::U64(self.b)),
            ("waited_ns".into(), Json::U64(self.waited_ns)),
        ])
    }

    /// One human-readable line, e.g.
    /// `t3 ticket_wait lane 0 seq 42 (tree 7, 1.20ms)`.
    pub fn describe(&self) -> String {
        let what = match self.kind {
            StallKind::TicketWait => format!("lane {} seq {}", self.a, self.b),
            StallKind::WaitTurn => format!("node {} nclock>={}", self.a, self.b),
            StallKind::FutureWait => format!("node {} awaits a future", self.a),
            StallKind::Quiescence => format!("{} live tasks", self.a),
        };
        format!(
            "t{} {} {} (tree {}, {})",
            self.thread,
            self.kind.name(),
            what,
            self.tree,
            crate::report::fmt_ns(self.waited_ns)
        )
    }
}

/// The exact change between two [`MetricsSnapshot`]s of the same observer
/// (`later.diff_since(&earlier)`).
///
/// Every field is non-negative by construction: counters and histogram
/// buckets only grow, and the subtraction saturates. Fields that are
/// instantaneous gauges in a snapshot — wait edges, sampled gauges, the
/// truncated hotspot table — have no meaningful difference and are omitted.
#[derive(Clone, Debug, Default)]
pub struct SnapshotDiff {
    /// Per-counter difference.
    pub counters: StatSnapshot,
    /// Commit-latency samples recorded in the interval.
    pub commit: HistSnapshot,
    /// `waitTurn` samples recorded in the interval.
    pub wait_turn: HistSnapshot,
    /// Validation samples recorded in the interval.
    pub validation: HistSnapshot,
    /// Future-lifetime samples recorded in the interval.
    pub future_lifetime: HistSnapshot,
    /// Spans recorded into rings during the interval.
    pub spans_recorded: u64,
    /// Spans shed during the interval.
    pub spans_dropped: u64,
}

impl SnapshotDiff {
    /// Whether the interval saw no activity at all.
    pub fn is_empty(&self) -> bool {
        self.counters == StatSnapshot::default()
            && self.commit.count == 0
            && self.wait_turn.count == 0
            && self.validation.count == 0
            && self.future_lifetime.count == 0
            && self.spans_recorded == 0
            && self.spans_dropped == 0
    }
}

impl MetricsSnapshot {
    /// The activity between `earlier` and `self` (two snapshots of the same
    /// observer, `earlier` taken first). See [`SnapshotDiff`] for the
    /// guarantees.
    pub fn diff_since(&self, earlier: &MetricsSnapshot) -> SnapshotDiff {
        SnapshotDiff {
            counters: self.counters.since(&earlier.counters),
            commit: self.commit.since(&earlier.commit),
            wait_turn: self.wait_turn.since(&earlier.wait_turn),
            validation: self.validation.since(&earlier.validation),
            future_lifetime: self.future_lifetime.since(&earlier.future_lifetime),
            spans_recorded: self.spans_recorded.saturating_sub(earlier.spans_recorded),
            spans_dropped: self.spans_dropped.saturating_sub(earlier.spans_dropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{ObsConfig, TxObs};
    use rtf_txengine::Event;

    #[test]
    fn diff_between_live_snapshots_is_exact_and_non_negative() {
        let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
        let sink = obs.sink();
        sink.event(Event::Count(crate::Counter::TopCommits, 1));
        sink.event(Event::TopCommitNs(1_000));
        let a = obs.metrics();
        sink.event(Event::Count(crate::Counter::TopCommits, 1));
        sink.event(Event::Count(crate::Counter::TopCommits, 1));
        sink.event(Event::TopCommitNs(2_000));
        sink.event(Event::Count(crate::Counter::SubCommits, 1));
        let b = obs.metrics();
        let d = b.diff_since(&a);
        assert_eq!(d.counters.top_commits, 2);
        assert_eq!(d.counters.sub_commits, 1);
        assert_eq!(d.commit.count, 1);
        assert!(!d.is_empty());
        // Zero-activity interval.
        assert!(b.diff_since(&b).is_empty());
        // Intervals sum to the whole: base-from-empty plus both diffs.
        let whole = b.diff_since(&MetricsSnapshot::default());
        assert_eq!(whole.counters.top_commits, a.counters.top_commits + d.counters.top_commits);
        assert_eq!(whole.commit.count, a.commit.count + d.commit.count);
    }

    #[test]
    fn wait_edge_renders_kind_specific_targets() {
        let e = WaitEdge {
            thread: 3,
            depth: 0,
            kind: StallKind::TicketWait,
            tree: 7,
            a: 0,
            b: 42,
            waited_ns: 1_200_000,
        };
        assert_eq!(e.describe(), "t3 ticket_wait lane 0 seq 42 (tree 7, 1.20ms)");
        let j = e.to_json();
        assert_eq!(j.path(&["kind"]).unwrap().as_str(), Some("ticket_wait"));
        assert_eq!(j.path(&["b"]).unwrap().as_u64(), Some(42));
    }
}
