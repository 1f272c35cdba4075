//! Partial rollback (paper §III-A): when a continuation misses the write
//! of its future, only the sub-tree rooted at the continuation re-executes
//! — not the whole top-level transaction. Symmetrically, a future that
//! misses an earlier-serialized write re-executes alone.

use parking_lot::{Condvar, Mutex};
use rtf::{Rtf, VBox};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A one-shot handshake that fixes a race instead of timing it: the
/// writer's first execution waits until the racing reader's first attempt
/// has read. Re-executions pass straight through, and the wait is bounded,
/// so a lost handshake fails the test instead of hanging it.
#[derive(Default)]
struct ReadFirst {
    read: Mutex<bool>,
    cv: Condvar,
    waited: AtomicBool,
}

impl ReadFirst {
    /// The racing reader has read (idempotent).
    fn mark_read(&self) {
        *self.read.lock() = true;
        self.cv.notify_all();
    }

    /// Blocks the writer's first execution until [`ReadFirst::mark_read`].
    fn wait_for_read(&self) {
        if self.waited.swap(true, Ordering::SeqCst) {
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut read = self.read.lock();
        while !*read {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "the racing reader never read");
            self.cv.wait_for(&mut read, left);
        }
    }
}

/// Forces the continuation to read a box before its future (held back)
/// writes it: the continuation must re-execute, the root must not.
#[test]
fn continuation_reexecutes_without_top_level_restart() {
    let tm = Rtf::builder().workers(2).build();
    let b = VBox::new(0u64);
    let root_runs = Arc::new(AtomicU64::new(0));
    let cont_runs = Arc::new(AtomicU64::new(0));

    let gate = Arc::new(ReadFirst::default());

    let (seen_first, seen_final) = tm.atomic(|tx| {
        root_runs.fetch_add(1, Ordering::Relaxed);
        let b2 = b.clone();
        let b3 = b.clone();
        let cont_runs2 = Arc::clone(&cont_runs);
        let first_read = Arc::new(Mutex::new(None::<u64>));
        let fr = Arc::clone(&first_read);
        let (writer, reader) = (Arc::clone(&gate), Arc::clone(&gate));
        let out = tx.fork(
            move |tx| {
                // The continuation's first read wins the race.
                writer.wait_for_read();
                tx.write(&b2, 77);
            },
            move |tx, f| {
                cont_runs2.fetch_add(1, Ordering::Relaxed);
                let v = *tx.read(&b3);
                reader.mark_read();
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
    let gate = Arc::new(ReadFirst::default());

    let out = tm.atomic(|tx| {
        let b1 = b.clone();
        let writer = Arc::clone(&gate);
        let f1 = tx.submit(move |tx| {
            // f2's first read wins the race.
            writer.wait_for_read();
            tx.write(&b1, 10);
        });
        let b2 = b.clone();
        let runs = Arc::clone(&f2_runs);
        let reader = Arc::clone(&gate);
        let f2 = tx.submit(move |tx| {
            runs.fetch_add(1, Ordering::Relaxed);
            let v = *tx.read(&b2);
            reader.mark_read();
            v
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
    let gate = Arc::new(ReadFirst::default());

    tm.atomic(|tx| {
        let t2 = trigger.clone();
        let t3 = trigger.clone();
        let s2 = side.clone();
        let (writer, reader) = (Arc::clone(&gate), Arc::clone(&gate));
        tx.fork(
            move |tx| {
                writer.wait_for_read();
                tx.write(&t2, 1);
            },
            move |tx, f| {
                let v = *tx.read(&t3);
                reader.mark_read();
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
    let gate = Arc::new(ReadFirst::default());

    let out = tm.atomic(|tx| {
        let b_out = b.clone();
        let outer_runs2 = Arc::clone(&outer_runs);
        let inner_runs2 = Arc::clone(&inner_runs);
        let gate = Arc::clone(&gate);
        tx.fork(
            move |tx| {
                // The outer future hosts the racing pair.
                let b_in = b_out.clone();
                let b_cont = b_out.clone();
                let inner_runs3 = Arc::clone(&inner_runs2);
                let (writer, reader) = (Arc::clone(&gate), Arc::clone(&gate));
                tx.fork(
                    move |tx| {
                        writer.wait_for_read();
                        let v = *tx.read(&b_in);
                        tx.write(&b_in, v + 5);
                    },
                    move |tx, f| {
                        inner_runs3.fetch_add(1, Ordering::Relaxed);
                        let v = *tx.read(&b_cont);
                        reader.mark_read();
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
