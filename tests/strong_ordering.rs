//! Integration tests of the strong ordering semantics (paper §II): the
//! result of any program using transactional futures equals the result of
//! the sequential program in which each future body runs synchronously at
//! its submission point.

use rtf::{Rtf, RunBudget, VBox};
use std::sync::{Arc, Condvar, Mutex};

fn tm() -> Rtf {
    Rtf::builder().workers(3).build()
}

/// The full Fig 3a tree, with every node reading and writing a shared box.
/// Sequential semantics fix the exact interleaving:
/// T0(pre), TF1(pre), TF2, TC3, TC4(pre), TF5, TC6 — each appending its tag.
#[test]
fn fig3a_tree_matches_sequential_trace() {
    let tm = tm();
    let log = VBox::new(Vec::<&'static str>::new());
    let push = |tx: &mut rtf::Tx, b: &VBox<Vec<&'static str>>, tag: &'static str| {
        let mut v = (*tx.read(b)).clone();
        v.push(tag);
        tx.write(b, v);
    };

    tm.atomic(|tx| {
        push(tx, &log, "T0");
        let log1 = log.clone();
        let log4 = log.clone();
        tx.fork(
            // Left subtree: TF1, which itself forks TF2 / TC3.
            move |tx| {
                push(tx, &log1, "TF1");
                let log2 = log1.clone();
                let log3 = log1.clone();
                tx.fork(
                    move |tx| push(tx, &log2, "TF2"),
                    move |tx, f2| {
                        push(tx, &log3, "TC3");
                        let _ = tx.eval(f2);
                    },
                );
            },
            // Right subtree: TC4, which forks TF5 / TC6.
            move |tx, f1| {
                push(tx, &log4, "TC4");
                let log5 = log4.clone();
                let log6 = log4.clone();
                tx.fork(
                    move |tx| push(tx, &log5, "TF5"),
                    move |tx, f5| {
                        push(tx, &log6, "TC6");
                        let _ = tx.eval(f5);
                    },
                );
                let _ = tx.eval(f1);
            },
        );
    });

    assert_eq!(
        *log.read_committed(),
        vec!["T0", "TF1", "TF2", "TC3", "TC4", "TF5", "TC6"],
        "strong ordering must reproduce the sequential trace of Fig 3a"
    );
}

/// A future and its continuation both increment the same counter many
/// times; sequentially the result is exact, and so it must be in parallel
/// (the continuation re-executes until it sees the future's writes).
#[test]
fn future_and_continuation_rmw_same_box() {
    let tm = tm();
    let counter = VBox::new(0u64);
    let out = tm.atomic(|tx| {
        tx.fork(
            {
                let counter = counter.clone();
                move |tx| {
                    for _ in 0..100 {
                        let v = *tx.read(&counter);
                        tx.write(&counter, v + 1);
                    }
                }
            },
            {
                let counter = counter.clone();
                move |tx, f| {
                    for _ in 0..100 {
                        let v = *tx.read(&counter);
                        tx.write(&counter, v + 1);
                    }
                    let _ = tx.eval(f);
                    *tx.read(&counter)
                }
            },
        )
    });
    assert_eq!(out, 200);
    assert_eq!(*counter.read_committed(), 200);
}

/// Chained submits: each future reads what every earlier future wrote
/// (serialized at submission), even though all bodies run concurrently.
#[test]
fn chained_futures_observe_predecessors() {
    let tm = tm();
    let b = VBox::new(1u64);
    let finals = tm.atomic(|tx| {
        let mut handles = Vec::new();
        for _ in 0..6 {
            let b2 = b.clone();
            handles.push(tx.submit(move |tx| {
                let v = *tx.read(&b2);
                tx.write(&b2, v * 2);
                v
            }));
        }
        handles.iter().map(|h| *tx.eval(h)).collect::<Vec<_>>()
    });
    assert_eq!(finals, vec![1, 2, 4, 8, 16, 32]);
    assert_eq!(*b.read_committed(), 64);
}

/// Evaluation timing must not affect serialization: evaluating futures in
/// reverse order yields the same values as in-order evaluation.
#[test]
fn evaluation_order_is_irrelevant() {
    let run = |reverse: bool| {
        let tm = tm();
        let b = VBox::new(3u64);
        tm.atomic(move |tx| {
            let mut handles = Vec::new();
            for i in 0..5u64 {
                let b2 = b.clone();
                handles.push(tx.submit(move |tx| {
                    let v = *tx.read(&b2);
                    tx.write(&b2, v + i);
                    v
                }));
            }
            let mut vals: Vec<u64> = if reverse {
                handles.iter().rev().map(|h| *tx.eval(h)).collect()
            } else {
                handles.iter().map(|h| *tx.eval(h)).collect()
            };
            if reverse {
                vals.reverse();
            }
            vals
        })
    };
    assert_eq!(run(false), run(true));
}

/// Deep nesting: a recursive parallel sum over a range must equal the
/// arithmetic result regardless of tree shape.
#[test]
fn recursive_divide_and_conquer_sum() {
    let tm = tm();
    let data: Vec<VBox<u64>> = (0..64).map(|i| VBox::new(i as u64)).collect();
    let data = Arc::new(data);

    fn psum(tx: &mut rtf::Tx, data: &Arc<Vec<VBox<u64>>>, lo: usize, hi: usize) -> u64 {
        if hi - lo <= 8 {
            return (lo..hi).map(|i| *tx.read(&data[i])).sum();
        }
        let mid = (lo + hi) / 2;
        let d2 = Arc::clone(data);
        tx.fork(
            move |tx| psum(tx, &d2, lo, mid),
            |tx, f| {
                let right = psum(tx, data, mid, hi);
                *tx.eval(f) + right
            },
        )
    }

    let total = tm.atomic(|tx| psum(tx, &data, 0, 64));
    assert_eq!(total, (0..64u64).sum());
}

/// The ordered lane extends strong ordering *across* top-level
/// transactions: tickets drawn in submission order fix the inter-transaction
/// order, and inside each transaction the paper's intra-tree ordering fixes
/// the rest — so a shared trace must read exactly as the fully sequential
/// program, transaction by transaction, fork by fork.
#[test]
fn ordered_lane_composes_with_intra_tree_strong_ordering() {
    let tm = Rtf::builder().workers(3).ordered(1).build();
    let trace = VBox::new(Vec::<u64>::new());
    let push = |tx: &mut rtf::Tx, b: &VBox<Vec<u64>>, tag: u64| {
        let mut v = (*tx.read(b)).clone();
        v.push(tag);
        tx.write(b, v);
    };

    // Tickets drawn in order 0..6; three threads then run disjoint
    // round-robin slices concurrently (each slice in increasing ticket
    // order, so turn waits cannot deadlock).
    let n = 6u64;
    let threads = 3;
    let mut per_thread: Vec<Vec<(u64, rtf::OrderedTicket)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for i in 0..n {
        per_thread[(i as usize) % threads].push((i, tm.ticket()));
    }
    let handles: Vec<_> = per_thread
        .into_iter()
        .map(|slice| {
            let tm = tm.clone();
            let trace = trace.clone();
            std::thread::spawn(move || {
                for (i, ticket) in slice {
                    let trace = trace.clone();
                    tm.run_with(RunBudget::default(), Some(ticket), move |tx| {
                        // Transaction i writes [10i, 10i+1, 10i+2]: root,
                        // then its future, then its continuation.
                        push(tx, &trace, 10 * i);
                        let tf = trace.clone();
                        let tc = trace.clone();
                        tx.fork(
                            move |tx| push(tx, &tf, 10 * i + 1),
                            move |tx, f| {
                                push(tx, &tc, 10 * i + 2);
                                let _ = tx.eval(f);
                            },
                        );
                    })
                    .expect("ticketed transaction failed");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("runner thread crashed");
    }

    let expect: Vec<u64> = (0..n).flat_map(|i| [10 * i, 10 * i + 1, 10 * i + 2]).collect();
    assert_eq!(
        *trace.read_committed(),
        expect,
        "cross-transaction ticket order must compose with intra-tree ordering"
    );
    let s = tm.stats();
    assert_eq!(s.tickets_issued, n);
    assert_eq!(s.ordered_commits, n);
    assert_eq!(s.tickets_abandoned, 0);
}

/// Writes by later-serialized sub-transactions must not leak into earlier
/// ones: the future (serialized first) must never see the continuation's
/// write even when the continuation commits while the future still runs.
#[test]
fn no_backward_leakage() {
    for _ in 0..20 {
        let tm = tm();
        let a = VBox::new(0u64);
        let b = VBox::new(0u64);
        let (fut_saw, _) = tm.atomic(|tx| {
            tx.fork(
                {
                    let a = a.clone();
                    move |tx| {
                        // Give the continuation a head start sometimes.
                        std::thread::yield_now();
                        *tx.read(&a)
                    }
                },
                {
                    let a = a.clone();
                    let b = b.clone();
                    move |tx, f| {
                        tx.write(&a, 99);
                        let v = *tx.read(&b);
                        tx.write(&b, v + 1);
                        (*tx.eval(f), ())
                    }
                },
            )
        });
        assert_eq!(fut_saw, 0, "future serialized before its continuation");
    }
}

/// A one-shot latch: `open` releases every current and later `wait`. The
/// wait is bounded, so a lost handshake fails the test instead of hanging.
#[derive(Default)]
struct Latch(Mutex<bool>, Condvar);

impl Latch {
    fn open(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let open = self.0.lock().unwrap();
        let (open, _) = self
            .1
            .wait_timeout_while(open, std::time::Duration::from_secs(20), |open| !*open)
            .unwrap();
        assert!(*open, "latch never opened");
    }
}

/// A held-back future reads a box its continuation writes. Handshakes,
/// not sleeps, order the two: the continuation writes only once the
/// future's body has started, and the future reads only once the
/// continuation has written (the continuation's commit then waits for the
/// future). The future serializes first and must read the old value.
#[test]
fn strong_ordering_pins_future_before_continuation() {
    let tm = Rtf::builder().workers(2).build();
    let x = VBox::new(0u64);
    let started = Arc::new(Latch::default());
    let released = Arc::new(Latch::default());
    let fut_saw = tm.atomic(|tx| {
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
                released.open();
                f.clone()
            },
        );
        released.open();
        *tx.eval(&h)
    });
    assert_eq!(fut_saw, 0, "the future must not see its continuation's write");
    assert_eq!(*x.read_committed(), 5);
}

/// Concurrent read-modify-writes by sibling futures of one tree never
/// lose updates.
#[test]
fn futures_stay_serializable_within_a_tree() {
    let tm = tm();
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
    assert_eq!(out, 100, "intra-tree serializability must hold");
    assert_eq!(*counter.read_committed(), 100);
}

/// Top-level transactions with futures running on several threads stay
/// isolated from one another.
#[test]
fn cross_transaction_isolation() {
    let tm = Arc::new(tm());
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

/// A future that is never evaluated still commits before the top level
/// does (no dangling sub-transactions).
#[test]
fn top_level_waits_for_unevaluated_futures() {
    let tm = Rtf::builder().workers(2).build();
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
