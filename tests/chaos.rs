//! Chaos and panic-containment integration tests.
//!
//! The paper's protocol is a web of blocking dependencies (waitTurn,
//! sub-commit propagation, future evaluation); these tests check that a
//! dead participant — a panicking future, an injected fault — never turns
//! into a hang or a leak:
//!
//! * a panic inside a future surfaces as [`TxError::FuturePanicked`] while
//!   sibling waiters (including one blocked in waitTurn behind the dead
//!   future) are released;
//! * after the unwind, no tentative entry is left on any box, committed
//!   state is untouched, and later transactions (and the version GC) run
//!   unimpeded;
//! * under a seeded fault schedule (requires the `fault-inject` feature;
//!   these tests skip themselves without it) counters stay exact and every
//!   injected panic is contained.
//!
//! The fault-injection registry is process-global, so every test here
//! serializes on one lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use rtf::{CommitLog, LiveConfig, ObsConfig, ReplayArtifact, Rtf, TxError, TxObs, VBox};
use rtf_txfault::{FaultPlan, SiteRule};
use rtf_txobs::Json;

/// Serializes tests: installed fault plans are process-global.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on a fresh thread and fails the test if it does not finish
/// within `secs` — a hang detector for paths that used to deadlock.
fn bounded<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("hung: the runtime failed to release a waiter")
}

#[test]
fn future_panic_releases_sibling_blocked_in_wait_turn() {
    let _g = lock();
    let (r, committed) = bounded(30, || {
        let tm = Rtf::builder().workers(4).build();
        let x = VBox::new(0u64);
        let r = tm.run({
            let x = x.clone();
            move |tx| {
                // Earlier sibling: dies without committing. The later
                // sibling's sub-commit must waitTurn behind it and can only
                // be released by the poison propagating through the tree.
                let dead = tx.submit(|_tx| -> u64 { panic!("future exploded") });
                let alive = tx.submit({
                    let x = x.clone();
                    move |tx| {
                        let v = *tx.read(&x);
                        tx.write(&x, v + 1);
                        v
                    }
                });
                let _ = tx.eval(&alive);
                let _ = tx.eval(&dead);
            }
        });
        (r, *x.read_committed())
    });
    match r {
        Err(TxError::FuturePanicked { message }) => {
            assert!(message.contains("future exploded"), "payload lost: {message:?}")
        }
        other => panic!("expected FuturePanicked, got {other:?}"),
    }
    assert_eq!(committed, 0, "a torn-down tree must not publish writes");
}

#[test]
fn future_panic_leaves_no_tentative_entries_and_no_owned_orecs() {
    let _g = lock();
    let tm = Rtf::builder().workers(2).build();
    let x = VBox::new(7u64);
    let y = VBox::new(9u64);
    let r: Result<(), TxError> = tm.run({
        let (x, y) = (x.clone(), y.clone());
        move |tx| {
            let f = tx.submit({
                let x = x.clone();
                move |tx| {
                    // Write, then die: the tentative entry must be scrubbed
                    // during teardown, not left to wedge later writers.
                    let v = *tx.read(&x);
                    tx.write(&x, v + 100);
                    panic!("die after write");
                }
            });
            let v = *tx.read(&y);
            tx.write(&y, v + 1);
            let _: Arc<u64> = tx.eval(&f);
        }
    });
    assert!(matches!(r, Err(TxError::FuturePanicked { .. })), "got {r:?}");
    assert!(x.cell().tentative_is_empty(), "tentative entry leaked on x");
    assert!(y.cell().tentative_is_empty(), "tentative entry leaked on y");
    assert_eq!(*x.read_committed(), 7);
    assert_eq!(*y.read_committed(), 9);
    // No orec left owned: a fresh writer of the same boxes commits promptly
    // (an orphaned ownership would spin this forever).
    bounded(30, move || {
        tm.atomic(|tx| {
            let v = *tx.read(&x);
            tx.write(&x, v + 1);
            let w = *tx.read(&y);
            tx.write(&y, w + 1);
        });
        assert_eq!(*x.read_committed(), 8);
        assert_eq!(*y.read_committed(), 10);
    });
}

#[test]
fn version_gc_advances_after_panics() {
    let _g = lock();
    let tm = Rtf::builder().workers(2).build();
    let x = VBox::new(0u64);
    for round in 0..200u64 {
        if round % 10 == 0 {
            let r: Result<(), TxError> = tm.run({
                let x = x.clone();
                move |tx| {
                    let f = tx.submit({
                        let x = x.clone();
                        move |tx| {
                            let v = *tx.read(&x);
                            tx.write(&x, v + 1_000_000);
                            panic!("gc probe panic");
                        }
                    });
                    let _: Arc<u64> = tx.eval(&f);
                }
            });
            assert!(matches!(r, Err(TxError::FuturePanicked { .. })));
        } else {
            tm.atomic({
                let x = x.clone();
                move |tx| {
                    let v = *tx.read(&x);
                    tx.write(&x, v + 1);
                }
            });
        }
    }
    assert_eq!(*x.read_committed(), 180, "exactly the successful increments");
    let s = tm.stats();
    assert!(s.future_panics >= 20, "containment must have been exercised: {s:?}");
    assert!(
        s.versions_gced > 0,
        "version GC watermark must keep advancing despite interleaved teardowns: {s:?}"
    );
}

#[test]
fn injected_future_panic_surfaces_with_site_in_message() {
    let _g = lock();
    if !rtf_txfault::enabled() {
        eprintln!("skipped: requires --features fault-inject");
        return;
    }
    rtf_txfault::install(
        FaultPlan::new(11).rule(SiteRule::at("core.future.body").panic(1_000_000).cap(1)),
    );
    let tm = Rtf::builder().workers(2).build();
    let r: Result<u64, TxError> = tm.run(|tx| {
        let f = tx.submit(|_tx| 5u64);
        *tx.eval(&f)
    });
    rtf_txfault::clear();
    match r {
        Err(TxError::FuturePanicked { message }) => {
            assert!(message.contains("core.future.body"), "site lost: {message:?}")
        }
        other => panic!("expected FuturePanicked, got {other:?}"),
    }
}

#[test]
fn seeded_chaos_preserves_counter_exactness() {
    let _g = lock();
    if !rtf_txfault::enabled() {
        eprintln!("skipped: requires --features fault-inject");
        return;
    }
    rtf_txfault::install(
        FaultPlan::new(0xDECAF)
            .rule(SiteRule::at("mvstm.commit.validate").abort(150_000))
            // Stalled enqueues and write-backs must be recovered by other
            // committers helping the chain.
            .rule(SiteRule::at("mvstm.commit.enqueue").delay(80_000, 30))
            .rule(SiteRule::at("mvstm.commit.writeback").delay(60_000, 40))
            .rule(SiteRule::at("core.subcommit.validate").abort(100_000))
            .rule(SiteRule::at("core.wait_turn").abort(30_000).spurious(150_000))
            .rule(SiteRule::at("core.future.body").abort(60_000).panic(10_000))
            .rule(SiteRule::at("core.future.commit").abort(40_000).panic(5_000))
            .rule(SiteRule::at("taskpool.task.run").panic(5_000))
            .rule(SiteRule::at("txengine.cell.*").abort(30_000)),
    );
    // The live sampler streams snapshots *while* faults fire: exactness
    // must survive concurrent observation, and the stream's last line must
    // still reconcile with the observer's final totals.
    let stream = std::env::temp_dir().join(format!("rtf-chaos-live-{}.jsonl", std::process::id()));
    let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
    let outcome = bounded(120, {
        let obs = Arc::clone(&obs);
        let stream = stream.clone();
        move || {
            let tm = Arc::new(
                Rtf::builder()
                    .workers(4)
                    .observer(obs)
                    .live_metrics(LiveConfig {
                        interval: Duration::from_millis(20),
                        jsonl: Some(stream),
                        prom_text: None,
                        prom_addr: None,
                    })
                    // Backstop: a wedged wait fails the test as StallAborted
                    // instead of tripping the hang detector with no diagnosis.
                    .stall_warn(Duration::from_millis(200))
                    .stall_abort(Duration::from_secs(10))
                    .build(),
            );
            let counter = VBox::new(0u64);
            let expected = Arc::new(AtomicU64::new(0));
            let panicked = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let tm = Arc::clone(&tm);
                    let counter = counter.clone();
                    let expected = Arc::clone(&expected);
                    let panicked = Arc::clone(&panicked);
                    std::thread::spawn(move || {
                        for _ in 0..250 {
                            let r = tm.run({
                                let counter = counter.clone();
                                move |tx| {
                                    let f = tx.submit({
                                        let counter = counter.clone();
                                        move |tx| {
                                            let v = *tx.read(&counter);
                                            tx.write(&counter, v + 1);
                                            1u64
                                        }
                                    });
                                    let d = *tx.eval(&f);
                                    let v = *tx.read(&counter);
                                    tx.write(&counter, v + d);
                                }
                            });
                            match r {
                                Ok(()) => {
                                    expected.fetch_add(2, Ordering::Relaxed);
                                }
                                Err(TxError::FuturePanicked { .. }) => {
                                    panicked.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("unexpected chaos failure: {e}"),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread crashed");
            }
            let outcome = (
                *counter.read_committed(),
                expected.load(Ordering::Relaxed),
                panicked.load(Ordering::Relaxed),
                rtf_txfault::injected_total(),
            );
            drop(tm); // stop the sampler: final reconciling tick, flush batches
            outcome
        }
    });
    rtf_txfault::clear();
    let (committed, expected, panicked, injected) = outcome;
    assert_eq!(committed, expected, "failed runs must contribute nothing");
    assert!(injected > 0, "the schedule must actually have injected faults");
    // With 1000 runs at these panic rates, some future panics are certain;
    // each must have surfaced as a structured error, never a crash or hang.
    assert!(panicked > 0, "injected panics never surfaced as FuturePanicked");
    // The stream the sampler wrote mid-chaos reconciles with the observer.
    let fin = obs.metrics();
    let text = std::fs::read_to_string(&stream).expect("live stream written");
    let last = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(
        last.path(&["metrics", "counters", "top_commits"]).and_then(Json::as_u64),
        Some(fin.counters.top_commits),
        "live stream's final line diverged from the observer under chaos"
    );
    assert_eq!(
        last.path(&["metrics", "counters", "future_panics"]).and_then(Json::as_u64),
        Some(fin.counters.future_panics),
    );
    std::fs::remove_file(&stream).ok();
}

/// The seeded chaos workload through the ordered lane: the same exactness
/// invariant, plus ticket-lifecycle balance. Any violation fails with the
/// recorded commit order attached as an `rtf-replay-v1` artifact — a
/// replayable schedule, not just a counter mismatch.
#[test]
fn seeded_chaos_through_ordered_lane_dumps_replayable_schedule_on_failure() {
    let _g = lock();
    if !rtf_txfault::enabled() {
        eprintln!("skipped: requires --features fault-inject");
        return;
    }
    const SHARDS: u32 = 2;
    rtf_txfault::install(
        FaultPlan::new(0x0D0E)
            .rule(SiteRule::at("mvstm.commit.validate").abort(150_000))
            .rule(SiteRule::at("mvstm.commit.ticket").abort(80_000).delay(40_000, 50))
            .rule(SiteRule::at("core.wait_turn").abort(30_000).spurious(150_000))
            .rule(SiteRule::at("core.future.body").abort(60_000).panic(10_000))
            .rule(SiteRule::at("txengine.cell.*").abort(30_000)),
    );
    let log = CommitLog::new();
    // On any invariant violation, attach the recorded schedule so the
    // failure is replayable from the test output alone.
    let dump = {
        let log = Arc::clone(&log);
        move |msg: String, stats: &rtf::StatSnapshot| -> ! {
            let artifact = ReplayArtifact::from_run("chaos-test", 0x0D0E, SHARDS, &log, 0, stats);
            panic!("{msg}\nreplayable schedule:\n{}", artifact.to_json().pretty());
        }
    };
    let outcome = bounded(120, {
        let log = Arc::clone(&log);
        move || {
            let tm = Arc::new(
                Rtf::builder()
                    .workers(4)
                    .ordered(SHARDS as usize)
                    .event_sink(log as _)
                    .stall_warn(Duration::from_millis(200))
                    .stall_abort(Duration::from_secs(10))
                    .build(),
            );
            let counter = VBox::new(0u64);
            let expected = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let tm = Arc::clone(&tm);
                    let counter = counter.clone();
                    let expected = Arc::clone(&expected);
                    std::thread::spawn(move || {
                        for _ in 0..150 {
                            let r = tm.run({
                                let counter = counter.clone();
                                move |tx| {
                                    let f = tx.submit({
                                        let counter = counter.clone();
                                        move |tx| {
                                            let v = *tx.read(&counter);
                                            tx.write(&counter, v + 1);
                                            1u64
                                        }
                                    });
                                    let d = *tx.eval(&f);
                                    let v = *tx.read(&counter);
                                    tx.write(&counter, v + d);
                                }
                            });
                            match r {
                                Ok(()) => {
                                    expected.fetch_add(2, Ordering::Relaxed);
                                }
                                Err(TxError::FuturePanicked { .. }) => {}
                                Err(e) => panic!("unexpected chaos failure: {e}"),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread crashed");
            }
            (*counter.read_committed(), expected.load(Ordering::Relaxed), tm.stats())
        }
    });
    rtf_txfault::clear();
    let (committed, expected, stats) = outcome;
    if committed != expected {
        dump(
            format!("ordered chaos lost exactness: committed {committed} != expected {expected}"),
            &stats,
        );
    }
    if stats.ordered_commits + stats.tickets_abandoned != stats.tickets_issued {
        dump(
            format!(
                "ticket lifecycle leak: issued {} != commits {} + abandoned {}",
                stats.tickets_issued, stats.ordered_commits, stats.tickets_abandoned
            ),
            &stats,
        );
    }
    assert_eq!(
        log.len() as u64,
        stats.ordered_commits,
        "commit log drifted from the ordered_commits counter"
    );
    assert_eq!(stats.tickets_issued, 600, "every run draws exactly one ticket");
}
