//! Golden-file tests for the exporters: the JSON metrics snapshot, the text
//! report, the Prometheus exposition and the Chrome trace document must stay
//! byte-stable for a fixed input. Regenerate
//! with `RTF_BLESS_GOLDEN=1 cargo test -p rtf-txobs --test golden` after an
//! intentional format change, and review the diff.

use rtf_txobs::{
    chrome_trace, render_prometheus, ConflictTable, HistSnapshot, Json, MetricsSnapshot, SpanKind,
    SpanObs, SpanRec, WaitEdge,
};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("RTF_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); bless first", path.display()));
    assert_eq!(actual, expected, "{name} drifted from its golden file");
}

fn fixed_hist(scale: u64) -> HistSnapshot {
    HistSnapshot {
        count: 4 * scale,
        mean: 1250.5 * scale as f64,
        p50: 1_000 * scale,
        p95: 2_000 * scale,
        p99: 3_000 * scale,
        max: 3_500 * scale,
        buckets: vec![(512 * scale, 3 * scale), (2_048 * scale, scale)],
    }
}

fn fixed_snapshot() -> MetricsSnapshot {
    let mut m = MetricsSnapshot {
        commit: fixed_hist(1),
        wait_turn: fixed_hist(2),
        validation: fixed_hist(3),
        future_lifetime: fixed_hist(4),
        spans_recorded: 42,
        spans_dropped: 3,
        span_ring_high_water: 17,
        gauges: vec![
            ("commit_lane_depth".into(), 1),
            ("ordered_lane_depth".into(), 2),
            ("pool_queue_depth".into(), 5),
        ],
        waits: vec![
            WaitEdge {
                thread: 1,
                depth: 0,
                kind: rtf_txengine::StallKind::TicketWait,
                tree: 7,
                a: 0,
                b: 42,
                waited_ns: 1_200_000,
            },
            WaitEdge {
                thread: 2,
                depth: 0,
                kind: rtf_txengine::StallKind::WaitTurn,
                tree: 7,
                a: 3,
                b: 9,
                waited_ns: 48_000,
            },
        ],
        ..MetricsSnapshot::default()
    };
    m.counters.top_commits = 100;
    m.counters.top_ro_commits = 10;
    m.counters.top_validation_aborts = 5;
    m.counters.inter_tree_aborts = 2;
    m.counters.sub_commits = 400;
    m.counters.sub_validation_aborts = 7;
    m.counters.continuation_restarts = 1;
    m.counters.futures_submitted = 200;
    m.counters.wait_turn_ns = 123_456;
    m.counters.validation_ns = 65_432;
    m.counters.read_fast = 900;
    m.counters.read_slow = 100;
    let conflicts = ConflictTable::default();
    for _ in 0..3 {
        conflicts.record(rtf_txengine::ConflictKind::SubValidation, 0xbeef, 4);
    }
    conflicts.record(rtf_txengine::ConflictKind::InterTree, 0xcafe, 9);
    m.hotspots = conflicts.top_n(10);
    m
}

fn fixed_spans() -> Vec<SpanObs> {
    let span = |kind, tree, node, parent, start_ns, end_ns, ok, thread| SpanObs {
        rec: SpanRec { kind, tree, node, parent, start_ns, end_ns, ok },
        thread,
    };
    vec![
        span(SpanKind::TopLevel, 7, 1, 0, 0, 50_000, true, 1),
        span(SpanKind::Future, 7, 2, 1, 4_000, 20_000, true, 2),
        span(SpanKind::Continuation, 7, 3, 1, 4_500, 42_000, true, 1),
        span(SpanKind::WaitTurn, 7, 3, 1, 30_000, 33_000, true, 1),
        span(SpanKind::Validation, 7, 3, 1, 33_000, 33_750, true, 1),
        span(SpanKind::TopCommit, 7, 1, 0, 45_000, 49_000, true, 1),
        span(SpanKind::PoolHelp, 7, 0, 0, 21_000, 25_000, true, 2),
    ]
}

#[test]
fn metrics_json_matches_golden() {
    let rendered = fixed_snapshot().to_json().pretty();
    // Whatever we export must parse back with the in-crate parser.
    Json::parse(&rendered).expect("exported metrics JSON must reparse");
    check("metrics.json", &rendered);
}

#[test]
fn chrome_trace_matches_golden() {
    let rendered = chrome_trace(&fixed_spans()).pretty();
    let doc = Json::parse(&rendered).expect("exported trace must reparse");
    // 3 lifecycle spans -> b/e pairs, 4 phase spans -> X events.
    assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 10);
    check("trace.json", &rendered);
}

#[test]
fn text_report_matches_golden() {
    check("report.txt", &fixed_snapshot().text_report());
}

#[test]
fn prometheus_matches_golden() {
    check("prometheus.txt", &render_prometheus(&fixed_snapshot()));
}
