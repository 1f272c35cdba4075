//! Stress tests: sustained concurrency, deep nesting, races between
//! evaluation, helping and teardown. These exist to shake out coordination
//! bugs (lost wakeups, helping inversion, leaked tentative entries).

use rtf::{Rtf, VBox};
use std::sync::Arc;

/// The scenario that once deadlocked the runtime (helping inversion): many
/// chained read-only futures per transaction, several client threads, a
/// large worker pool on few cores.
#[test]
fn chained_ro_futures_many_clients() {
    let tm = Arc::new(Rtf::builder().workers(8).build());
    let data: Arc<Vec<VBox<u64>>> = Arc::new((0..256).map(|i| VBox::new(i as u64)).collect());
    let expect: u64 = (0..256u64).sum();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let (tm, data) = (Arc::clone(&tm), Arc::clone(&data));
            std::thread::spawn(move || {
                for _ in 0..60 {
                    let d = Arc::clone(&data);
                    let sum = tm.atomic_ro(move |tx| {
                        let shards = 8usize;
                        let per = d.len() / shards;
                        let mut hs = Vec::new();
                        for s in 1..shards {
                            let d2 = Arc::clone(&d);
                            hs.push(tx.submit(move |tx| {
                                (s * per..(s + 1) * per).map(|i| *tx.read(&d2[i])).sum::<u64>()
                            }));
                        }
                        let mut acc: u64 = (0..per).map(|i| *tx.read(&d[i])).sum();
                        for h in &hs {
                            acc += *tx.eval(h);
                        }
                        acc
                    });
                    assert_eq!(sum, expect);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Mixed read-write traffic with nested forks under contention; exactness
/// of the final state is the oracle.
#[test]
fn mixed_nested_contention() {
    let tm = Arc::new(Rtf::builder().workers(4).fallback_threshold(2).build());
    let cells: Arc<Vec<VBox<u64>>> = Arc::new((0..8).map(|_| VBox::new(0u64)).collect());
    let threads = 4;
    let per = 60;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (tm, cells) = (Arc::clone(&tm), Arc::clone(&cells));
            std::thread::spawn(move || {
                for i in 0..per {
                    let target = (t + i) % cells.len();
                    let c1 = cells[target].clone();
                    let c2 = cells[(target + 1) % cells.len()].clone();
                    tm.atomic(move |tx| {
                        let c1a = c1.clone();
                        tx.fork(
                            move |tx| {
                                let v = *tx.read(&c1a);
                                tx.write(&c1a, v + 1);
                            },
                            |tx, f| {
                                let _ = tx.eval(f);
                            },
                        );
                        // Post-join: increment the second cell at top level.
                        let v = *tx.read(&c2);
                        tx.write(&c2, v + 1);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = cells.iter().map(|c| *c.read_committed()).sum();
    assert_eq!(total, (threads * per * 2) as u64);
}

/// Deep chains of dependent futures (each reads the previous one's box).
#[test]
fn deep_dependency_chains() {
    let tm = Rtf::builder().workers(4).build();
    let depth = 24;
    let boxes: Arc<Vec<VBox<u64>>> = Arc::new((0..depth).map(|_| VBox::new(0u64)).collect());
    let b = Arc::clone(&boxes);
    let out = tm.atomic(move |tx| {
        let mut handles = Vec::new();
        for i in 0..depth {
            let b2 = Arc::clone(&b);
            handles.push(tx.submit(move |tx| {
                let prev = if i == 0 { 1 } else { *tx.read(&b2[i - 1]) };
                tx.write(&b2[i], prev + 1);
                prev
            }));
        }
        handles.iter().map(|h| *tx.eval(h)).collect::<Vec<_>>()
    });
    let want: Vec<u64> = (0..depth as u64).map(|i| i + 1).collect();
    assert_eq!(out, want);
    assert_eq!(*boxes[depth - 1].read_committed(), depth as u64 + 1);
}

/// Teardown under fire: user panics in random futures must always
/// propagate cleanly and leave the boxes scrubbed.
#[test]
fn panics_under_concurrency_leave_clean_state() {
    let tm = Arc::new(Rtf::builder().workers(3).build());
    let b = VBox::new(0u64);
    for round in 0..30 {
        let b2 = b.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tm.atomic(|tx| {
                let b3 = b2.clone();
                let f = tx.submit(move |tx| {
                    let v = *tx.read(&b3);
                    tx.write(&b3, v + 1);
                    if v % 2 == round % 2 {
                        panic!("induced failure");
                    }
                    v
                });
                *tx.eval(&f)
            })
        }));
        if r.is_err() {
            // The aborted tree must leave no tentative residue.
            assert!(b
                .cell()
                .tentative_lock()
                .iter()
                .all(|e| { e.orec.status() == rtf_txbase::OrecStatus::Aborted }));
        }
    }
    // The box still works.
    let b4 = b.clone();
    tm.atomic(move |tx| {
        let v = *tx.read(&b4);
        tx.write(&b4, v + 100);
    });
    assert!(*b.read_committed() >= 100);
}

/// Zero-worker pools serve everything through helping, even under
/// multi-client contention.
#[test]
fn zero_workers_full_mix() {
    let tm = Arc::new(Rtf::builder().workers(0).build());
    let hot = VBox::new(0u64);
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let (tm, hot) = (Arc::clone(&tm), hot.clone());
            std::thread::spawn(move || {
                for _ in 0..50 {
                    tm.atomic(|tx| {
                        let h2 = hot.clone();
                        let f = tx.submit(move |tx| *tx.read(&h2));
                        let base = *tx.eval(&f);
                        tx.write(&hot, base + 1);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*hot.read_committed(), 150);
}

/// Sustained run with every feature at once: forks, submits, read-only
/// passes, contention, fallback — the grand smoke test.
#[test]
fn kitchen_sink() {
    let tm = Arc::new(Rtf::builder().workers(4).fallback_threshold(1).build());
    let accounts: Arc<Vec<VBox<i64>>> = Arc::new((0..16).map(|_| VBox::new(1000i64)).collect());
    let total0: i64 = 16 * 1000;

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let (tm, accounts) = (Arc::clone(&tm), Arc::clone(&accounts));
            std::thread::spawn(move || {
                for i in 0..80 {
                    match (t + i) % 3 {
                        // Transfer with a future computing the fee.
                        0 => {
                            let from = accounts[(t * 3 + i) % 16].clone();
                            let to = accounts[(t * 5 + i * 7) % 16].clone();
                            tm.atomic(move |tx| {
                                let from2 = from.clone();
                                let fee = tx.submit(move |tx| *tx.read(&from2) % 7);
                                let f = *tx.read(&from);
                                let tval = *tx.read(&to);
                                let fee = *tx.eval(&fee);
                                if std::ptr::eq(from.cell().as_ref(), to.cell().as_ref()) {
                                    return;
                                }
                                tx.write(&from, f - 50 - fee);
                                tx.write(&to, tval + 50 + fee);
                            });
                        }
                        // Parallel audit: total must be conserved modulo fees.
                        1 => {
                            let accs = Arc::clone(&accounts);
                            tm.atomic_ro(move |tx| {
                                let a1 = Arc::clone(&accs);
                                let f = tx.submit(move |tx| {
                                    a1[..8].iter().map(|a| *tx.read(a)).sum::<i64>()
                                });
                                let hi: i64 = accs[8..].iter().map(|a| *tx.read(a)).sum();
                                let _total = *tx.eval(&f) + hi;
                            });
                        }
                        // Fork-based rebalance of a pair.
                        _ => {
                            let x = accounts[(t + i) % 16].clone();
                            let y = accounts[(t + i + 1) % 16].clone();
                            tm.atomic(move |tx| {
                                let x2 = x.clone();
                                let avg = tx.fork(
                                    move |tx| *tx.read(&x2),
                                    |tx, f| {
                                        let xv = *tx.eval(f);
                                        let yv = *tx.read(&y);
                                        let avg = (xv + yv) / 2;
                                        tx.write(&y, xv + yv - avg);
                                        avg
                                    },
                                );
                                tx.write(&x, avg);
                            });
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Fees moved money BETWEEN accounts only: the grand total is conserved.
    let total: i64 = accounts.iter().map(|a| *a.read_committed()).sum();
    assert_eq!(total, total0, "money must be conserved");
    let s = tm.stats();
    assert!(s.commits() >= 4 * 80);
    // A read-only snapshot taken after quiescence sees every commit.
    let ro_total: i64 = tm.atomic_ro(|tx| accounts.iter().map(|a| *tx.read(a)).sum());
    assert_eq!(ro_total, total0);
}
