//! Live-telemetry integration tests: the streaming snapshot pipeline must
//! tell the truth while the workload is still running.
//!
//! * snapshots cut mid-flight are mutually consistent — successive
//!   [`SnapshotDiff`]s are non-negative and telescope exactly to the final
//!   on-drop totals (the property the ISSUE's acceptance criteria name);
//! * [`rtf::RtfBuilder::live_metrics`] streams `rtf-metrics-stream-v1`
//!   lines whose last line reconciles with the observer's final export;
//! * a seeded ordered-lane stall surfaces as a live `ticket_wait` edge in
//!   the wait graph ("who waits on whom") while the thread is blocked.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtf::{LiveConfig, MetricsSnapshot, ObsConfig, Rtf, RunBudget, TxObs, VBox};
use rtf_txobs::{Json, StallKind, STREAM_SCHEMA};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtf-live-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// fig5-style contention: every transaction reads a random slot and a hot
/// slot, writing both — plenty of validation aborts and retries.
fn contended_workload(tm: &Rtf, clients: usize, ops: usize) {
    let slots: Arc<Vec<VBox<u64>>> = Arc::new((0..8).map(|_| VBox::new(0)).collect());
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let tm = tm.clone();
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || {
                for i in 0..ops {
                    let slots = Arc::clone(&slots);
                    let a = (c * 7 + i * 3) % slots.len();
                    tm.atomic(move |tx| {
                        let f = tx.submit({
                            let slots = Arc::clone(&slots);
                            move |tx| *tx.read(&slots[a])
                        });
                        let v = *tx.eval(&f);
                        tx.write(&slots[a], v + 1);
                        let hot = *tx.read(&slots[0]);
                        tx.write(&slots[0], hot + 1);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Counter list of a snapshot's JSON export, in schema order — lets the
/// tests quantify over *every* exported counter without naming them.
fn counters_of(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    snap.to_json()
        .get("counters")
        .and_then(Json::as_obj)
        .expect("counters object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter is a u64")))
        .collect()
}

#[test]
fn snapshot_diffs_are_non_negative_and_sum_to_on_drop_totals() {
    const CLIENTS: usize = 4;
    const OPS: usize = 150;
    let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
    let mut snapshots: Vec<MetricsSnapshot> = vec![MetricsSnapshot::default()];
    {
        let tm = Rtf::builder().workers(2).observer(Arc::clone(&obs)).build();
        let done = Arc::new(AtomicBool::new(false));
        let taken = Arc::new(AtomicUsize::new(0));
        let sampler = {
            let obs = Arc::clone(&obs);
            let done = Arc::clone(&done);
            let taken = Arc::clone(&taken);
            std::thread::spawn(move || {
                let mut snaps = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    snaps.push(obs.metrics());
                    taken.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
                snaps
            })
        };
        contended_workload(&tm, CLIENTS, OPS);
        // On a loaded 1-core host the workload can outrun the 2 ms sampler;
        // keep sampling the (now idle, so constant) counters until enough
        // cuts exist for the windowed properties below to mean something.
        let deadline = Instant::now() + Duration::from_secs(10);
        while taken.load(Ordering::Relaxed) < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Relaxed);
        snapshots.extend(sampler.join().unwrap());
    } // drop the TM: flushes every per-thread batch into the observer
    let fin = obs.metrics();
    snapshots.push(fin.clone());

    assert!(snapshots.len() >= 5, "sampler too slow to say anything: {}", snapshots.len());
    let final_counters = counters_of(&fin);
    assert_eq!(
        fin.counters.top_commits,
        (CLIENTS * OPS) as u64,
        "workload accounting broke: {:?}",
        fin.counters
    );

    // Property 1 — non-negativity: every exported counter and histogram is
    // monotone across the live sequence (snapshots cut while writers run).
    for w in snapshots.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        for ((name, a), (name2, b)) in counters_of(prev).iter().zip(counters_of(next).iter()) {
            assert_eq!(name, name2, "counter order must be stable across snapshots");
            assert!(b >= a, "counter {name} went backwards between live snapshots: {a} -> {b}");
        }
        for (h, ha, hb) in [
            ("commit", &prev.commit, &next.commit),
            ("wait_turn", &prev.wait_turn, &next.wait_turn),
            ("validation", &prev.validation, &next.validation),
            ("future_lifetime", &prev.future_lifetime, &next.future_lifetime),
        ] {
            assert!(hb.count >= ha.count, "{h} histogram count went backwards");
        }
        assert!(next.spans_recorded >= prev.spans_recorded);
        assert!(next.spans_dropped >= prev.spans_dropped);
    }

    // Property 2 — the diffs telescope exactly: summing every interval's
    // SnapshotDiff reproduces the final on-drop totals, field by field.
    let mut sum_commits = 0u64;
    let mut sum_top = 0u64;
    let mut sum_aborts = 0u64;
    let mut sum_hist = [0u64; 4];
    let mut sum_spans = 0u64;
    for w in snapshots.windows(2) {
        let d = w[1].diff_since(&w[0]);
        sum_commits += d.counters.commits();
        sum_top += d.counters.top_commits;
        sum_aborts += d.counters.top_validation_aborts;
        for (acc, h) in
            sum_hist.iter_mut().zip([&d.commit, &d.wait_turn, &d.validation, &d.future_lifetime])
        {
            *acc += h.count;
        }
        sum_spans += d.spans_recorded;
    }
    assert_eq!(sum_commits, fin.counters.commits());
    assert_eq!(sum_top, fin.counters.top_commits);
    assert_eq!(sum_aborts, fin.counters.top_validation_aborts);
    for (acc, h) in
        sum_hist.iter().zip([&fin.commit, &fin.wait_turn, &fin.validation, &fin.future_lifetime])
    {
        assert_eq!(*acc, h.count, "histogram interval counts must sum to the final count");
    }
    assert_eq!(sum_spans, fin.spans_recorded);
    // Spot-check the generic export too: the last live snapshot can at most
    // equal the on-drop totals (drop flushes the remaining batches).
    let last_live = counters_of(&snapshots[snapshots.len() - 2]);
    for ((name, live), (_, fin)) in last_live.iter().zip(final_counters.iter()) {
        assert!(live <= fin, "{name}: live snapshot overshot the final export");
    }
}

#[test]
fn live_metrics_builder_streams_lines_that_reconcile_with_final_export() {
    let dir = temp_dir("builder");
    let stream = dir.join("stream.jsonl");
    let prom = dir.join("prom.txt");
    let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
    {
        let tm = Rtf::builder()
            .workers(2)
            .observer(Arc::clone(&obs))
            .live_metrics(LiveConfig {
                interval: Duration::from_millis(5),
                jsonl: Some(stream.clone()),
                prom_text: Some(prom.clone()),
                prom_addr: None,
            })
            .build();
        contended_workload(&tm, 3, 80);
        // Outlive a couple of intervals so the stream holds mid-flight
        // samples, not just the start and final ticks.
        std::thread::sleep(Duration::from_millis(15));
    } // drop: stops the exporter (final tick) *before* reading totals
    let fin = obs.metrics();

    let text = std::fs::read_to_string(&stream).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(lines.len() >= 3, "expected >=3 snapshots (start, interval, final): {}", lines.len());
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(line.path(&["schema"]).and_then(Json::as_str), Some(STREAM_SCHEMA));
        assert_eq!(line.path(&["seq"]).and_then(Json::as_u64), Some(i as u64), "seq must be dense");
    }
    // The final tick ran after the workload quiesced, so the last line *is*
    // the on-drop state: every counter matches exactly.
    let last = lines.last().unwrap().get("metrics").unwrap();
    for (name, want) in counters_of(&fin) {
        assert_eq!(
            last.path(&["counters", &name]).and_then(Json::as_u64),
            Some(want),
            "counter {name} in the last stream line diverged from the final export"
        );
    }
    assert_eq!(
        last.path(&["histograms_ns", "commit", "count"]).and_then(Json::as_u64),
        Some(fin.commit.count)
    );
    // The Prometheus text file was rewritten by the same final tick.
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains(&format!("rtf_top_commits_total {}", fin.counters.top_commits)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_ordered_stall_shows_live_ticket_wait_edge() {
    let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
    let tm = Rtf::builder().workers(2).ordered(1).observer(Arc::clone(&obs)).build();
    let b = VBox::new(0u64);

    // Seed the stall: draw the lane's first ticket and sit on it, then
    // commit a transaction holding the *second* ticket — its commit must
    // block in ticket-wait until the first is released.
    let blocker = tm.ticket();
    let waiter = {
        let tm = tm.clone();
        let b = b.clone();
        let ticket = tm.ticket();
        std::thread::spawn(move || {
            tm.run_with(RunBudget::default(), Some(ticket), move |tx| {
                let v = *tx.read(&b);
                tx.write(&b, v + 1);
            })
            .unwrap();
        })
    };

    // The inspector must catch the blocked thread red-handed: a live
    // snapshot taken during the stall carries the ticket_wait edge.
    let deadline = Instant::now() + Duration::from_secs(10);
    let edge = loop {
        let snap = obs.metrics();
        if let Some(e) = snap.waits.iter().find(|e| e.kind == StallKind::TicketWait) {
            break *e;
        }
        assert!(Instant::now() < deadline, "no live ticket_wait edge appeared during the stall");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(edge.a, 0, "single-shard lane");
    assert_eq!(edge.b, 1, "the waiter holds the lane's second ticket");
    assert!(edge.describe().contains("ticket_wait lane 0 seq 1"), "got {:?}", edge.describe());

    // Release the lane; the waiter commits; the edge drains.
    drop(blocker);
    waiter.join().unwrap();
    assert_eq!(*b.read_committed(), 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !obs.metrics().waits.is_empty() {
        assert!(Instant::now() < deadline, "wait edge leaked after the stall resolved");
        std::thread::sleep(Duration::from_millis(1));
    }
}
