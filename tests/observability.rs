//! End-to-end observability: a contended run with futures feeds a [`TxObs`]
//! attached via [`rtf::RtfBuilder::observer`], and everything the ISSUE's
//! acceptance criteria name must come out the other side — populated
//! latency histograms, abort attribution, lifecycle spans that nest, and
//! export documents that parse.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtf::{ObsConfig, Rtf, TxObs, VBox};
use rtf_txobs::{chrome_trace, Json, SpanKind};

/// Two clients increment a shared counter through a future + continuation,
/// forcing waitTurn blocking, validation work, and top-level conflicts.
fn contended_run(tm: &Rtf, clients: usize, ops: usize) -> u64 {
    let b = VBox::new(0u64);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let tm = tm.clone();
            let b = b.clone();
            std::thread::spawn(move || {
                for _ in 0..ops {
                    tm.atomic(|tx| {
                        let f = tx.submit({
                            let b = b.clone();
                            move |tx| *tx.read(&b)
                        });
                        let v = *tx.eval(&f);
                        tx.write(&b, v + 1);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    *b.read_committed()
}

#[test]
fn observer_collects_histograms_spans_and_attribution() {
    let obs = TxObs::new(ObsConfig::default());
    let tm = Rtf::builder().workers(2).observer(Arc::clone(&obs)).build();
    let total = contended_run(&tm, 4, 60);
    assert_eq!(total, 240);

    // A guaranteed waitTurn block: the future sleeps, so its continuation
    // reaches sub-commit first and must wait for its turn.
    tm.atomic(|tx| {
        tx.fork(|_tx| std::thread::sleep(std::time::Duration::from_millis(10)), |_tx, _f| ())
    });

    // A guaranteed top-level validation abort, attributed to `hot`: the
    // first execution commits a conflicting write from another thread
    // between its snapshot and its own commit.
    let hot = VBox::new(0u64);
    let interfered = AtomicBool::new(false);
    tm.atomic(|tx| {
        let v = *tx.read(&hot);
        if !interfered.swap(true, Ordering::SeqCst) {
            let tm2 = tm.clone();
            let hot2 = hot.clone();
            std::thread::spawn(move || {
                tm2.atomic(|tx| {
                    let v = *tx.read(&hot2);
                    tx.write(&hot2, v + 100);
                })
            })
            .join()
            .unwrap();
        }
        tx.write(&hot, v + 1);
    });
    assert_eq!(*hot.read_committed(), 101);

    let m = obs.metrics();
    // The write-free fork transaction commits via the read-only fast path.
    assert_eq!(m.counters.top_commits, 240 + 2);
    assert_eq!(m.counters.commits(), 240 + 3);
    assert!(m.counters.futures_submitted >= 241);
    // Every histogram the export names must have samples (the RO fast path
    // skips the commit-latency histogram).
    assert_eq!(m.commit.count, 240 + 2);
    assert!(m.wait_turn.count > 0, "the sleeping future must force a waitTurn block");
    assert!(m.validation.count > 0);
    assert!(m.future_lifetime.count >= 241);
    for h in [&m.commit, &m.wait_turn, &m.validation, &m.future_lifetime] {
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
        assert!(h.max > 0);
    }

    // The lock-free read path attributes every snapshot read: each of the
    // 240 ops reads through a future, so the flushed batches must cover at
    // least that many, and the wait-free fast path must actually fire.
    let reads = m.counters.read_fast + m.counters.read_slow;
    assert!(reads >= 240, "read-path batches missing: {:?}", m.counters);
    assert!(m.counters.read_fast > 0, "wait-free fast path never fired: {:?}", m.counters);

    // The engineered conflict must show up as attributed aborts.
    assert!(m.counters.top_validation_aborts >= 1, "not contended: {:?}", m.counters);
    assert!(!m.hotspots.is_empty());
    let hot_cell = m.hotspots.iter().find(|h| h.cell == hot.cell().id().raw() as u64);
    let hot_cell = hot_cell.expect("the engineered conflict cell appears in the hotspot table");
    assert!(hot_cell.top_validation >= 1);

    let spans = obs.collected_spans();
    assert!(m.spans_recorded > 0);
    assert_eq!(spans.len() as u64, m.spans_recorded, "nothing drained before the rings filled");
    let count = |kind: SpanKind| spans.iter().filter(|s| s.rec.kind == kind).count() as u64;
    assert!(count(SpanKind::TopLevel) >= 240);
    assert!(count(SpanKind::TopCommit) >= 240);
    assert!(count(SpanKind::WaitTurn) > 0);
    assert!(count(SpanKind::Validation) > 0);
    // A transaction driven into sequential fallback runs its futures inline
    // (no sub-transactions), so future/continuation spans can fall short of
    // one-per-transaction only by the number of fallback runs.
    let fallbacks = m.counters.fallback_runs;
    assert!(count(SpanKind::Future) + fallbacks >= 240);
    assert!(count(SpanKind::Continuation) + fallbacks >= 240);

    // Nesting: every successful future span lies inside a top-level span of
    // the same tree — what Perfetto renders as the transaction flamegraph.
    let ok_futures: Vec<_> =
        spans.iter().filter(|s| s.rec.kind == SpanKind::Future && s.rec.ok).collect();
    assert!(!ok_futures.is_empty());
    for f in &ok_futures {
        assert!(
            spans.iter().any(|t| {
                t.rec.kind == SpanKind::TopLevel
                    && t.rec.tree == f.rec.tree
                    && t.rec.start_ns <= f.rec.start_ns
                    && f.rec.end_ns <= t.rec.end_ns
            }),
            "future span {f:?} not nested under its top-level span"
        );
    }

    // The exporters accept the real data: both documents re-parse.
    let metrics = Json::parse(&m.to_json().pretty()).unwrap();
    assert_eq!(metrics.path(&["counters", "top_commits"]).and_then(Json::as_u64), Some(242));
    assert_eq!(
        metrics.path(&["counters", "read_fast"]).and_then(Json::as_u64),
        Some(m.counters.read_fast),
        "read_fast missing from the JSON export"
    );
    assert_eq!(
        metrics.path(&["counters", "read_slow"]).and_then(Json::as_u64),
        Some(m.counters.read_slow),
    );
    let trace = Json::parse(&chrome_trace(&spans).pretty()).unwrap();
    assert!(!trace.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn dropping_the_tm_writes_configured_exports() {
    let dir = std::env::temp_dir().join(format!("rtf-obs-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let exports = rtf::ExportPaths {
        metrics_json: Some(dir.join("metrics.json")),
        text: Some(dir.join("report.txt")),
        chrome_trace: Some(dir.join("trace.json")),
    };
    let obs = TxObs::with_exports(ObsConfig::default(), exports);
    {
        let tm = Rtf::builder().workers(2).observer(obs).build();
        contended_run(&tm, 2, 20);
    } // drop exports

    let metrics = Json::parse(&std::fs::read_to_string(dir.join("metrics.json")).unwrap()).unwrap();
    assert_eq!(metrics.get("schema").and_then(Json::as_str), Some("rtf-metrics-v1"));
    assert_eq!(metrics.path(&["counters", "top_commits"]).and_then(Json::as_u64), Some(40));
    assert!(
        metrics.path(&["histograms_ns", "commit", "count"]).and_then(Json::as_u64).unwrap() > 0
    );
    let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
    assert!(report.contains("rtf metrics") && report.contains("commit"));
    let trace = Json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    assert!(!trace.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_observer_aggregates_many_tms() {
    let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
    for _ in 0..3 {
        let tm = Rtf::builder().workers(1).observer(Arc::clone(&obs)).build();
        let b = VBox::new(0u64);
        tm.atomic(|tx| tx.write(&b, 1));
    }
    let m = obs.metrics();
    assert_eq!(m.counters.top_commits, 3, "sidecar-style aggregation across TMs");
    assert_eq!(m.commit.count, 3);
    assert_eq!(m.spans_recorded, 0, "spans off ⇒ nothing recorded");
}
