//! Partial rollback (paper §III-A): when a continuation misses the write
//! of its future, only the sub-tree rooted at the continuation re-executes
//! — not the whole top-level transaction. Symmetrically, a future that
//! misses an earlier-serialized write re-executes alone.

use parking_lot::Mutex;
use rtf::{Rtf, VBox};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forces the continuation to read a box before its future (slowed down)
/// writes it: the continuation must re-execute, the root must not.
#[test]
fn continuation_reexecutes_without_top_level_restart() {
    let tm = Rtf::builder().workers(2).build();
    let b = VBox::new(0u64);
    let root_runs = Arc::new(AtomicU64::new(0));
    let cont_runs = Arc::new(AtomicU64::new(0));

    let (seen_first, seen_final) = tm.atomic(|tx| {
        root_runs.fetch_add(1, Ordering::Relaxed);
        let b2 = b.clone();
        let b3 = b.clone();
        let cont_runs2 = Arc::clone(&cont_runs);
        let first_read = Arc::new(Mutex::new(None::<u64>));
        let fr = Arc::clone(&first_read);
        let out = tx.fork(
            move |tx| {
                // Make the continuation's first read win the race.
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.write(&b2, 77);
            },
            move |tx, f| {
                cont_runs2.fetch_add(1, Ordering::Relaxed);
                let v = *tx.read(&b3);
                fr.lock().get_or_insert(v);
                let _ = tx.eval(f);
                v
            },
        );
        let first = first_read.lock().take();
        (first, out)
    });

    assert_eq!(seen_final, 77, "committed continuation saw the future's write");
    assert_eq!(seen_first, Some(0), "first attempt raced ahead and read the old value");
    assert_eq!(root_runs.load(Ordering::Relaxed), 1, "no top-level restart");
    assert!(cont_runs.load(Ordering::Relaxed) >= 2, "continuation re-executed");
    let s = tm.stats();
    assert!(s.sub_validation_aborts >= 1, "{s:?}");
    assert_eq!(s.continuation_restarts, 0, "{s:?}");
    assert_eq!(s.top_commits, 1);
}

/// A later-submitted future that reads what an earlier one writes: the
/// later future re-executes by itself until it observes the predecessor.
#[test]
fn future_reexecutes_on_missed_predecessor_write() {
    let tm = Rtf::builder().workers(2).build();
    let b = VBox::new(1u64);
    let f2_runs = Arc::new(AtomicU64::new(0));

    let out = tm.atomic(|tx| {
        let b1 = b.clone();
        let f1 = tx.submit(move |tx| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tx.write(&b1, 10);
        });
        let b2 = b.clone();
        let runs = Arc::clone(&f2_runs);
        let f2 = tx.submit(move |tx| {
            runs.fetch_add(1, Ordering::Relaxed);
            *tx.read(&b2)
        });
        let _ = tx.eval(&f1);
        *tx.eval(&f2)
    });

    assert_eq!(out, 10, "f2 serialized after f1 must see its write");
    assert!(f2_runs.load(Ordering::Relaxed) >= 2, "f2 re-executed after missing the write");
    assert_eq!(tm.stats().top_commits, 1, "no top-level restart");
}

/// Re-executed continuations must leave no trace of their aborted writes.
#[test]
fn aborted_continuation_writes_are_discarded() {
    let tm = Rtf::builder().workers(2).build();
    let trigger = VBox::new(0u64);
    let side = VBox::new(0u64);

    tm.atomic(|tx| {
        let t2 = trigger.clone();
        let t3 = trigger.clone();
        let s2 = side.clone();
        tx.fork(
            move |tx| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.write(&t2, 1);
            },
            move |tx, f| {
                let v = *tx.read(&t3);
                // First attempt writes a bogus marker derived from the stale
                // read; the re-execution writes the real one.
                tx.write(&s2, 100 + v);
                let _ = tx.eval(f);
            },
        );
    });

    assert_eq!(*side.read_committed(), 101, "only the re-executed write survives");
    assert_eq!(*trigger.read_committed(), 1);
}

/// Nested partial rollback: an inner continuation conflict re-runs only
/// the inner closure; the outer continuation and root run once.
#[test]
fn nested_rollback_is_contained() {
    let tm = Rtf::builder().workers(3).build();
    let b = VBox::new(0u64);
    let outer_runs = Arc::new(AtomicU64::new(0));
    let inner_runs = Arc::new(AtomicU64::new(0));

    let out = tm.atomic(|tx| {
        let b_out = b.clone();
        let outer_runs2 = Arc::clone(&outer_runs);
        let inner_runs2 = Arc::clone(&inner_runs);
        tx.fork(
            move |tx| {
                // The outer future hosts the racing pair.
                let b_in = b_out.clone();
                let b_cont = b_out.clone();
                let inner_runs3 = Arc::clone(&inner_runs2);
                tx.fork(
                    move |tx| {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        let v = *tx.read(&b_in);
                        tx.write(&b_in, v + 5);
                    },
                    move |tx, f| {
                        inner_runs3.fetch_add(1, Ordering::Relaxed);
                        let v = *tx.read(&b_cont);
                        let _ = tx.eval(f);
                        v
                    },
                )
            },
            move |tx, f| {
                outer_runs2.fetch_add(1, Ordering::Relaxed);
                *tx.eval(f)
            },
        )
    });

    assert_eq!(out, 5, "inner continuation finally saw the inner future's write");
    assert!(inner_runs.load(Ordering::Relaxed) >= 2, "inner continuation re-executed");
    assert_eq!(outer_runs.load(Ordering::Relaxed), 1, "outer continuation ran once");
    assert_eq!(tm.stats().top_commits, 1);
    assert_eq!(*b.read_committed(), 5);
}

/// A cursor continuation that reads a box before its own future writes it
/// misses that write on every parallel attempt when no worker runs the
/// future early (zero workers: it runs only at `eval`). Continuation
/// restarts therefore count toward `fallback_threshold`: the next attempt
/// runs in sequential fallback mode, where the future executes at its
/// submission point and the read sees its write.
#[test]
fn repeated_continuation_restarts_fall_back_instead_of_livelocking() {
    let tm = Rtf::builder().workers(0).max_retries(200).build();
    let x = VBox::new(0u64);
    let before = tm.stats();
    let r = tm.run(|tx| {
        let x2 = x.clone();
        let f = tx.submit(move |tx| tx.write(&x2, 7u64));
        let v = *tx.read(&x);
        tx.eval(&f);
        v
    });
    assert_eq!(r, Ok(7));
    let d = tm.stats().since(&before);
    assert_eq!(d.continuation_restarts, 1, "{d:?}");
    assert_eq!(d.fallback_runs, 1, "{d:?}");
}
