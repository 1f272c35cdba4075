//! Contrasts the paper's strong ordering semantics (§II) with the
//! unordered parallel-nesting mode (ablation A4, cf. paper §VI / JVSTM):
//! strong ordering pins a future's serialization to its submission point;
//! parallel nesting serializes sub-transactions in commit order, so a
//! future can legally observe its own continuation's writes — exactly the
//! ambiguity (paper Fig 1/Fig 2 discussion) strong ordering exists to rule
//! out.

use rtf::{Rtf, TreeSemantics, VBox};
use std::sync::{Arc, Condvar, Mutex};

/// A one-shot latch: `open` releases every current and later `wait`.
#[derive(Default)]
struct Latch(Mutex<bool>, Condvar);

impl Latch {
    fn open(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let mut open = self.0.lock().unwrap();
        while !*open {
            open = self.1.wait(open).unwrap();
        }
    }
}

/// A held-back future reads a box its continuation writes. Handshakes,
/// not sleeps, order the two: the continuation writes only once the
/// future's body has started, and the future reads only once released:
///
/// * Strong ordering: released when the continuation has *written* (its
///   commit then waits for the future). The future serializes first and
///   MUST read the old value.
/// * Parallel nesting: released when the continuation has *committed*
///   (`fork` returned; nothing made it wait). The future's validation
///   detects the committed write, it re-executes, and it observes the
///   continuation's value.
fn slow_future_reads_conts_write(semantics: TreeSemantics) -> u64 {
    let tm = Rtf::builder().workers(2).semantics(semantics).build();
    let x = VBox::new(0u64);
    let started = Arc::new(Latch::default());
    let released = Arc::new(Latch::default());
    let release_in_cont = semantics == TreeSemantics::StrongOrdering;
    tm.atomic(|tx| {
        let x_fut = x.clone();
        let (fut_started, fut_released) = (Arc::clone(&started), Arc::clone(&released));
        let h = tx.fork(
            move |tx| {
                fut_started.open();
                fut_released.wait();
                *tx.read(&x_fut)
            },
            |tx, f| {
                started.wait();
                tx.write(&x, 5);
                if release_in_cont {
                    released.open();
                }
                f.clone()
            },
        );
        released.open();
        *tx.eval(&h)
    })
}

#[test]
fn strong_ordering_pins_future_before_continuation() {
    assert_eq!(
        slow_future_reads_conts_write(TreeSemantics::StrongOrdering),
        0,
        "under strong ordering the future must not see its continuation's write"
    );
}

#[test]
fn parallel_nesting_serializes_in_commit_order() {
    assert_eq!(
        slow_future_reads_conts_write(TreeSemantics::ParallelNesting),
        5,
        "under parallel nesting the late-committing future serializes after \
         the continuation and observes its write"
    );
}

/// Parallel nesting remains *serializable*: concurrent read-modify-writes
/// inside one tree never lose updates (validation still runs).
#[test]
fn nesting_is_still_serializable_within_a_tree() {
    let tm = Rtf::builder().workers(3).semantics(TreeSemantics::ParallelNesting).build();
    let counter = VBox::new(0u64);
    let out = tm.atomic(|tx| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = counter.clone();
            handles.push(tx.submit(move |tx| {
                for _ in 0..25 {
                    let v = *tx.read(&c);
                    tx.write(&c, v + 1);
                }
            }));
        }
        for h in &handles {
            let _ = tx.eval(h);
        }
        *tx.read(&counter)
    });
    assert_eq!(out, 100, "intra-tree serializability must hold in nesting mode");
    assert_eq!(*counter.read_committed(), 100);
}

/// Polls `h` without helping the pool (the caller must never pick up a
/// future that waits for it), failing instead of hanging.
fn spin_until_done<A: rtf::TxData>(h: &rtf::TxFuture<A>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !h.is_done() {
        assert!(std::time::Instant::now() < deadline, "future did not complete");
        std::thread::yield_now();
    }
}

/// Two futures increment one box from different nodes of the continuation
/// chain: the first hangs off the root, the second off the first
/// continuation. When the second commits first (into that continuation),
/// the first cannot see its write and commits into the root on a stale
/// read. The two branches meet only when the continuation commits into the
/// root; the second future's read must be re-validated there, or one
/// increment is lost. Handshakes force that interleaving on the first
/// attempt; later attempts let the first future commit before the second
/// one reads. The restart counts toward `fallback_threshold`, so the
/// re-execution runs in fallback mode, where futures run inline at their
/// submission point and must not wait for the handshake.
#[test]
fn nesting_revalidates_reads_where_branches_meet() {
    let tm = Rtf::builder().workers(2).semantics(TreeSemantics::ParallelNesting).build();
    let counter = VBox::new(0u64);
    let attempts = std::cell::Cell::new(0u32);
    tm.atomic(|tx| {
        attempts.set(attempts.get() + 1);
        let forced = attempts.get() == 1;
        let inline = tx.is_fallback();
        let first_read = Arc::new(Latch::default());
        let go = Arc::new(Latch::default());
        let (c, read, first_go) = (counter.clone(), Arc::clone(&first_read), Arc::clone(&go));
        let first = tx.submit(move |tx| {
            let v = *tx.read(&c);
            if forced {
                read.open();
                first_go.wait();
            }
            tx.write(&c, v + 1);
        });
        let (c, second_go) = (counter.clone(), Arc::clone(&go));
        let second = tx.submit(move |tx| {
            if forced {
                first_read.wait();
            } else if !inline {
                second_go.wait();
            }
            let v = *tx.read(&c);
            tx.write(&c, v + 1);
        });
        let (earlier, later) = if forced { (&second, &first) } else { (&first, &second) };
        spin_until_done(earlier);
        go.open();
        spin_until_done(later);
    });
    assert_eq!(*counter.read_committed(), 2, "an increment was lost where the branches meet");
    assert!(attempts.get() >= 2, "the first attempt must be caught and re-executed");
    assert!(tm.stats().continuation_restarts >= 1);
}

/// Nesting mode and strong mode agree on conflict-free parallel work,
/// and opacity across top-level transactions holds in both.
#[test]
fn nesting_mode_cross_transaction_isolation() {
    let tm = Arc::new(Rtf::builder().workers(3).semantics(TreeSemantics::ParallelNesting).build());
    let a = VBox::new(0i64);
    let b = VBox::new(0i64);
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let (tm, a, b) = (Arc::clone(&tm), a.clone(), b.clone());
            std::thread::spawn(move || {
                for _ in 0..60 {
                    tm.atomic(|tx| {
                        let a2 = a.clone();
                        let f = tx.submit(move |tx| {
                            let v = *tx.read(&a2);
                            tx.write(&a2, v + 1);
                        });
                        let _ = tx.eval(&f);
                        let v = *tx.read(&b);
                        tx.write(&b, v - 1);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*a.read_committed(), 180);
    assert_eq!(*b.read_committed(), -180);
}

/// Un-evaluated futures are still awaited before the top level commits in
/// nesting mode (no dangling sub-transactions).
#[test]
fn nesting_waits_for_unevaluated_futures() {
    let tm = Rtf::builder().workers(2).semantics(TreeSemantics::ParallelNesting).build();
    let x = VBox::new(0u64);
    tm.atomic(|tx| {
        let x2 = x.clone();
        let _unevaluated = tx.submit(move |tx| {
            std::thread::sleep(std::time::Duration::from_millis(15));
            tx.write(&x2, 9);
        });
        // Never eval'd: the runtime must still include its effects.
    });
    assert_eq!(*x.read_committed(), 9, "the future's write must be part of the commit");
}
