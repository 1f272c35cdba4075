//! Human-readable rendering of a [`MetricsSnapshot`].

use crate::hist::HistSnapshot;
use crate::obs::MetricsSnapshot;

pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn hist_row(out: &mut String, name: &str, h: &HistSnapshot) {
    out.push_str(&format!(
        "  {name:<16} {:>10}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}\n",
        h.count,
        fmt_ns(h.mean as u64),
        fmt_ns(h.p50),
        fmt_ns(h.p95),
        fmt_ns(h.p99),
        fmt_ns(h.max),
    ));
}

/// Renders the full text report (`RTF_METRICS_TEXT` format).
pub fn text_report(m: &MetricsSnapshot) -> String {
    let c = &m.counters;
    let mut out = String::new();
    out.push_str("== rtf metrics ==\n");
    out.push_str("commits:\n");
    out.push_str(&format!(
        "  top rw {}  top ro {}  sub {}  futures {}\n",
        c.top_commits, c.top_ro_commits, c.sub_commits, c.futures_submitted
    ));
    out.push_str("aborts:\n");
    out.push_str(&format!(
        "  top validation {}  inter-tree {}  sub validation {}  cont restarts {}  fallback runs {}\n",
        c.top_validation_aborts,
        c.inter_tree_aborts,
        c.sub_validation_aborts,
        c.continuation_restarts,
        c.fallback_runs
    ));
    out.push_str(&format!(
        "  top abort rate {:.4}  executions/commit {:.3}\n",
        c.top_abort_rate(),
        c.executions_per_commit()
    ));
    out.push_str("robustness:\n");
    out.push_str(&format!(
        "  stalls detected {}  stall aborts {}  pool task panics {}  future panics {}  \
         retries exhausted {}  orec snapshot retries {}\n",
        c.stalls_detected,
        c.stall_aborts,
        c.pool_task_panics,
        c.future_panics,
        c.retries_exhausted,
        c.orec_snapshot_retries
    ));
    if c.tickets_issued > 0 {
        out.push_str("ordered lane:\n");
        out.push_str(&format!(
            "  tickets issued {}  ordered commits {}  abandoned {}  turn wait {}  \
             spurious wakes {}\n",
            c.tickets_issued,
            c.ordered_commits,
            c.tickets_abandoned,
            fmt_ns(c.ticket_wait_ns),
            c.ticket_spurious_wakes
        ));
    }
    if c.server_admitted > 0 || c.server_shed > 0 {
        out.push_str("server:\n");
        out.push_str(&format!(
            "  admitted {}  completed {}  failed {}  shed {}  drained {}  conn resets {}\n",
            c.server_admitted,
            c.server_completed,
            c.server_failed,
            c.server_shed,
            c.server_drained,
            c.server_conn_resets
        ));
    }
    if c.retry_backoffs > 0 {
        out.push_str(&format!(
            "retry backoff:  sleeps {}  total {}\n",
            c.retry_backoffs,
            fmt_ns(c.retry_backoff_ns)
        ));
    }
    let reads_total = c.read_fast + c.read_slow;
    let fast_pct =
        if reads_total == 0 { 0.0 } else { c.read_fast as f64 * 100.0 / reads_total as f64 };
    out.push_str(&format!(
        "reads: fast {}  slow {}  (fast-path {:.1}%)\n",
        c.read_fast, c.read_slow, fast_pct
    ));
    out.push_str("latency:\n");
    out.push_str(&format!(
        "  {:<16} {:>10}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}\n",
        "histogram", "count", "mean", "p50", "p95", "p99", "max"
    ));
    hist_row(&mut out, "commit", &m.commit);
    hist_row(&mut out, "wait_turn", &m.wait_turn);
    hist_row(&mut out, "validation", &m.validation);
    hist_row(&mut out, "future_lifetime", &m.future_lifetime);
    out.push_str(&format!(
        "spans: recorded {}  dropped {}  ring high-water {}\n",
        m.spans_recorded, m.spans_dropped, m.span_ring_high_water
    ));
    if !m.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &m.gauges {
            out.push_str(&format!("  {name} {value}\n"));
        }
    }
    if !m.waits.is_empty() {
        out.push_str("live waits (who waits on whom):\n");
        for edge in &m.waits {
            out.push_str(&format!("  {}\n", edge.describe()));
        }
    }
    if m.hotspots.is_empty() {
        out.push_str("abort hotspots: none attributed\n");
    } else {
        out.push_str("abort hotspots (cell: total = top-val + sub-val + inter-tree):\n");
        for h in &m.hotspots {
            out.push_str(&format!(
                "  cell@{:x}: {} = {} + {} + {}  (last writer tree t{})\n",
                h.cell,
                h.total(),
                h.top_validation,
                h.sub_validation,
                h.inter_tree,
                h.last_writer_tree
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflicts::Hotspot;

    #[test]
    fn report_mentions_every_section() {
        let mut m = MetricsSnapshot::default();
        m.counters.top_commits = 5;
        m.counters.read_fast = 8;
        m.counters.read_slow = 2;
        m.counters.tickets_issued = 6;
        m.counters.ordered_commits = 5;
        m.commit.count = 5;
        m.commit.p99 = 1_500;
        m.span_ring_high_water = 17;
        m.gauges.push(("pool_queue_depth".into(), 3));
        m.waits.push(crate::snapshot::WaitEdge {
            thread: 2,
            depth: 0,
            kind: rtf_txengine::StallKind::TicketWait,
            tree: 4,
            a: 1,
            b: 8,
            waited_ns: 7_000,
        });
        m.hotspots.push(Hotspot {
            cell: 0xff,
            top_validation: 1,
            sub_validation: 2,
            inter_tree: 0,
            last_writer_tree: 9,
        });
        let text = text_report(&m);
        for needle in [
            "commits",
            "aborts",
            "histogram",
            "wait_turn",
            "cell@ff",
            "spans",
            "fast-path 80.0%",
            "stalls detected",
            "ordered lane",
            "tickets issued 6",
            "ring high-water 17",
            "gauges:",
            "pool_queue_depth 3",
            "live waits",
            "t2 ticket_wait lane 1 seq 8 (tree 4, 7.00us)",
        ] {
            assert!(text.contains(needle), "report missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn durations_humanize() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.50s");
    }
}
