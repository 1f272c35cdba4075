//! # rtf — transactional futures for Rust
//!
//! A from-scratch Rust implementation of **transactional futures** as
//! introduced by *"The Future(s) of Transactional Memory"* (Zeng, Barreto,
//! Haridi, Rodrigues, Romano — ICPP 2016), whose reference system is the
//! Java-based JTF.
//!
//! A transactional future is a future **submitted inside a memory
//! transaction**: its body runs in parallel as a *sub-transaction* of the
//! submitting (parent) transaction, and the code following the submission
//! becomes the *continuation* sub-transaction. The runtime guarantees
//! **strong ordering semantics**: the future is serialized at its
//! *submission point*, so the outcome of any program equals the outcome of
//! the sequential program in which each future body runs synchronously
//! where it was submitted — no matter when, where, or by whom the future is
//! evaluated. Across top-level transactions, the system guarantees opacity
//! (strict serializability with consistent snapshots even for aborted
//! transactions), inherited from the multi-version substrate.
//!
//! ```
//! use rtf::{Rtf, VBox};
//!
//! let tm = Rtf::builder().workers(4).build();
//! let account = VBox::new(100i64);
//! let fee_total = VBox::new(0i64);
//!
//! let paid = tm.atomic(|tx| {
//!     // Compute the fee in parallel with the rest of the transaction.
//!     let fee = tx.submit({
//!         let account = account.clone();
//!         move |tx| *tx.read(&account) / 10
//!     });
//!     let balance = *tx.read(&account);
//!     let fee = *tx.eval(&fee);
//!     tx.write(&account, balance - fee);
//!     let t = *tx.read(&fee_total);
//!     tx.write(&fee_total, t + fee);
//!     fee
//! });
//! assert_eq!(paid, 10);
//! assert_eq!(*account.read_committed(), 90);
//! ```
//!
//! ## Architecture
//!
//! * [`Rtf`] — the runtime: worker pool, clock, statistics, and the
//!   [`Rtf::atomic`] retry loop.
//! * [`Tx`] — the transaction handle: [`Tx::read`] / [`Tx::write`] on
//!   [`VBox`]es, [`Tx::submit`] (paper-style: the rest of the enclosing
//!   closure is the continuation), [`Tx::fork`] (structured: an explicit
//!   continuation closure, giving partial rollback), [`Tx::eval`].
//! * [`TxFuture`] — the future handle; sendable anywhere, evaluatable even
//!   from other top-level transactions (paper Fig 2).
//! * Substrates: `rtf-txengine` (versioned cells, the shared
//!   read-resolution / token-validation pipeline, the [`Telemetry`]
//!   every event reports to), `rtf-mvstm` (top-level snapshot policy and
//!   lock-free helping commit) and `rtf-taskpool` (helping work pool).
//!
//! The concurrency control implements the paper's machinery: per-box
//! tentative version lists sorted by serialization order, ownership records
//! propagated on sub-commit, `ancVer`/`nClock` visibility, the `waitTurn`
//! ordering rules, read-set re-resolution at sub-commit, the inter-tree
//! `ownedByAnotherTree` fallback, and the read-only validation-skip
//! optimization. Since the engine extraction this crate contributes only
//! the *policies* — `rw::SubRead` (Fig 4 visibility) and
//! `rw::SubValidation` (commit-time variant) — plus the tree/commit
//! protocol; the single generic read walk and validation loop live in
//! `rtf-txengine` and are shared with the top-level path. See `DESIGN.md`
//! §3.10 for the engine layer, and for the documented substitutions
//! (closure-based partial rollback instead of JVM first-class
//! continuations; mutex-guarded tentative lists with unchanged ordering
//! semantics).
//!
//! [`Telemetry`]: rtf_txengine::Telemetry

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Robustness gate: production code must not unwrap or panic ad hoc —
// every residual site carries an audited `allow` naming its invariant
// (tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::panic))]

mod error;
mod future;
mod node;
mod ordered;
mod runtime;
mod rw;
mod stall;
mod tree;
mod tx;
#[cfg(test)]
mod txn;

pub use error::{FutureError, TxError};
pub use future::TxFuture;
pub use ordered::OrderedTicket;
pub use runtime::{BackoffConfig, Rtf, RtfBuilder, RtfConfig, RunBudget};
pub use tx::Tx;

// Re-export the data layer so `rtf` alone suffices for applications.
pub use rtf_txbase::{StatSnapshot, Ticket};
pub use rtf_txengine::{Counter, Event, EventSink, Telemetry, TxData, VBox};

// Observability layer (attach via [`RtfBuilder::observer`] or the
// `RTF_METRICS` / `RTF_METRICS_TEXT` / `RTF_CHROME_TRACE` env vars).
pub use rtf_txobs::{
    render_prometheus, state_hash, CommitLog, ExportPaths, JsonlSink, LiveConfig, LiveExporter,
    LiveSink, MetricsSnapshot, ObsConfig, PromTextSink, ReplayArtifact, SnapshotDiff, TxObs,
    WaitEdge, STREAM_SCHEMA,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tm() -> Rtf {
        Rtf::builder().workers(2).build()
    }

    #[test]
    fn plain_transaction_without_futures() {
        let tm = tm();
        let b = VBox::new(1u64);
        let out = tm.atomic(|tx| {
            let v = *tx.read(&b);
            tx.write(&b, v + 1);
            v
        });
        assert_eq!(out, 1);
        assert_eq!(*b.read_committed(), 2);
        assert_eq!(tm.stats().top_commits, 1);
    }

    #[test]
    fn future_sees_parent_prefork_write() {
        // The root's pre-fork writes live in the root write-set, which is
        // immutable once the first future is spawned: every future and the
        // continuation read it, on pool workers (2) and when `eval` runs the
        // futures itself (0).
        for workers in [0, 2] {
            let tm = Rtf::builder().workers(workers).build();
            let b = VBox::new(0u64);
            let got = tm.atomic(|tx| {
                tx.write(&b, 7);
                let f1 = tx.submit({
                    let b = b.clone();
                    move |tx| *tx.read(&b)
                });
                let f2 = tx.submit({
                    let b = b.clone();
                    move |tx| *tx.read(&b)
                });
                let cont = *tx.read(&b);
                (*tx.eval(&f1), *tx.eval(&f2), cont)
            });
            assert_eq!(
                got,
                (7, 7, 7),
                "workers({workers}): futures and continuation inherit the root's writes"
            );
            assert_eq!(*b.read_committed(), 7);
        }
    }

    #[test]
    fn continuation_misses_future_write_and_reexecutes() {
        // The continuation reads the box its future writes; strong ordering
        // demands the continuation observe the future's value.
        let tm = tm();
        let b = VBox::new(0u64);
        let seen = tm.atomic(|tx| {
            tx.fork(
                {
                    let b = b.clone();
                    move |tx| {
                        tx.write(&b, 41);
                        1u8
                    }
                },
                {
                    let b = b.clone();
                    move |tx, fut| {
                        let v = *tx.read(&b);
                        let _ = tx.eval(fut);
                        v
                    }
                },
            )
        });
        assert_eq!(seen, 41, "continuation must serialize after its future");
        assert_eq!(*b.read_committed(), 41);
    }

    #[test]
    fn nested_futures_fig1() {
        // Fig 1: T0 submits TF1; TF1 submits TF2; T0 evaluates TF2 (the
        // handle crosses sub-transactions through the future result).
        let tm = tm();
        let x = VBox::new(0u64);
        let y = VBox::new(0u64);
        let out = tm.atomic(|tx| {
            tx.write(&y, 10); // w(y, y0)
            let f1 = tx.submit({
                let x = x.clone();
                move |tx| {
                    tx.write(&x, 5); // w(x, x1)
                    tx.submit({
                        let x = x.clone();
                        move |tx| *tx.read(&x)
                    })
                }
            });
            let f2 = tx.eval(&f1);
            *tx.eval(&f2)
        });
        // TF2 serializes right after its submission inside TF1: sees x=5.
        assert_eq!(out, 5);
    }

    #[test]
    fn post_join_parent_reads_see_future_writes() {
        let tm = tm();
        let b = VBox::new(0u64);
        let out = tm.atomic(|tx| {
            tx.fork(
                {
                    let b = b.clone();
                    move |tx| {
                        tx.write(&b, 9);
                        0u8
                    }
                },
                |_tx, _f| (),
            );
            // Back at the root, after the join: must see the future's write.
            *tx.read(&b)
        });
        assert_eq!(out, 9);
        assert_eq!(*b.read_committed(), 9);
    }

    #[test]
    fn many_futures_sum() {
        let tm = tm();
        let boxes: Vec<VBox<u64>> = (0..16).map(|i| VBox::new(i as u64)).collect();
        let total = tm.atomic(|tx| {
            let futs: Vec<_> = boxes
                .chunks(4)
                .map(|chunk| {
                    let chunk: Vec<VBox<u64>> = chunk.to_vec();
                    tx.submit(move |tx| chunk.iter().map(|b| *tx.read(b)).sum::<u64>())
                })
                .collect();
            futs.iter().map(|f| *tx.eval(f)).sum::<u64>()
        });
        assert_eq!(total, (0..16).sum::<u64>());
    }

    #[test]
    fn future_result_visible_across_transactions() {
        // Fig 2: T1 submits TF and T2 evaluates it.
        let tm = tm();
        let handle_slot: Arc<parking_lot::Mutex<Option<TxFuture<u64>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let b = VBox::new(5u64);
        let hs = Arc::clone(&handle_slot);
        let b2 = b.clone();
        tm.atomic(move |tx| {
            let f = tx.submit({
                let b = b2.clone();
                move |tx| *tx.read(&b) * 2
            });
            let _ = tx.eval(&f);
            *hs.lock() = Some(f);
        });
        let f = handle_slot.lock().take().unwrap();
        let got = tm.atomic(move |tx| *tx.eval(&f));
        assert_eq!(got, 10);
    }

    #[test]
    fn isolation_between_top_level_transactions() {
        let tm = Arc::new(tm());
        let a = VBox::new(0i64);
        let b = VBox::new(0i64);
        // Invariant: a + b == 0 (transfers move value between them).
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tm = Arc::clone(&tm);
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        tm.atomic(|tx| {
                            let av = *tx.read(&a);
                            let bv = *tx.read(&b);
                            assert_eq!(av + bv, 0, "opacity violated");
                            tx.write(&a, av + 1);
                            tx.write(&b, bv - 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*a.read_committed(), 400);
        assert_eq!(*b.read_committed(), -400);
    }

    #[test]
    fn concurrent_trees_with_futures_keep_counter_exact() {
        let tm = Arc::new(tm());
        let b = VBox::new(0u64);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let tm = Arc::clone(&tm);
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
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
        assert_eq!(*b.read_committed(), 150);
    }

    #[test]
    fn read_only_transaction_with_futures() {
        let tm = tm();
        let boxes: Vec<VBox<u64>> = (0..8).map(|i| VBox::new(i as u64)).collect();
        let sum = tm.atomic_ro(|tx| {
            let futs: Vec<_> = boxes
                .chunks(2)
                .map(|c| {
                    let c: Vec<_> = c.to_vec();
                    tx.submit(move |tx| c.iter().map(|b| *tx.read(b)).sum::<u64>())
                })
                .collect();
            futs.iter().map(|f| *tx.eval(f)).sum::<u64>()
        });
        assert_eq!(sum, 28);
        let s = tm.stats();
        assert_eq!(s.top_ro_commits, 1);
        assert!(s.ro_validation_skips > 0, "§IV-E skip should fire: {s:?}");
    }

    #[test]
    fn atomic_ro_reads_leave_the_cell_refcount_alone() {
        // A read-only read keeps no read record, so it never clones the
        // cell's `Arc`: the count is the same after the reads, and a future
        // sampling it meanwhile never sees it rise.
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        use std::time::{Duration, Instant};
        let tm = tm();
        let b = VBox::new(1u64);
        let sampling = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let (peak, before, after, sum) = tm.atomic_ro(|tx| {
            sampling.store(false, SeqCst);
            done.store(false, SeqCst);
            let f = tx.submit({
                let (b, sampling, done) = (b.clone(), Arc::clone(&sampling), Arc::clone(&done));
                move |_tx| {
                    sampling.store(true, SeqCst);
                    let mut peak = 0;
                    while !done.load(SeqCst) {
                        peak = peak.max(Arc::strong_count(b.cell()));
                    }
                    peak
                }
            });
            // Bounded: if no worker takes the future, `eval` runs it after
            // `done` is set and it returns at once.
            let t0 = Instant::now();
            while !sampling.load(SeqCst) && t0.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            let before = Arc::strong_count(b.cell());
            let mut sum = 0u64;
            for _ in 0..200_000 {
                sum += *tx.read(&b);
            }
            let after = Arc::strong_count(b.cell());
            done.store(true, SeqCst);
            (*tx.eval(&f), before, after, sum)
        });
        assert_eq!(sum, 200_000);
        assert_eq!(after, before, "reads left clones of the cell behind");
        assert!(peak <= before, "a read cloned the cell: count {peak} > {before}");
    }

    #[test]
    #[should_panic(expected = "declared read-only")]
    fn atomic_ro_rejects_writes() {
        let tm = tm();
        let b = VBox::new(0u64);
        tm.atomic_ro(|tx| tx.write(&b, 1));
    }

    #[test]
    fn user_panic_propagates_and_tree_is_cleaned() {
        let tm = tm();
        let b = VBox::new(0u64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tm.atomic(|tx| {
                tx.write(&b, 1);
                let f = tx.submit({
                    let b = b.clone();
                    move |tx| {
                        let _ = tx.read(&b);
                        panic!("boom in future");
                    }
                });
                #[allow(unreachable_code)]
                {
                    let _: Arc<()> = tx.eval(&f);
                }
            })
        }));
        assert!(r.is_err());
        // The write must not have escaped.
        assert_eq!(*b.read_committed(), 0);
        // And the box's tentative list must be clean for future writers.
        assert!(b.cell().tentative_lock().is_empty());
        let tm2 = tm;
        tm2.atomic(|tx| tx.write(&b, 5));
        assert_eq!(*b.read_committed(), 5);
    }

    #[test]
    fn deep_nesting_matches_sequential() {
        // Build Fig 3a's shape: root forks; the future itself forks; etc.
        let tm = tm();
        let b = VBox::new(1u64);
        let out = tm.atomic(|tx| {
            let f1 = tx.submit({
                let b = b.clone();
                move |tx| {
                    let f2 = tx.submit({
                        let b = b.clone();
                        move |tx| {
                            let v = *tx.read(&b);
                            tx.write(&b, v * 2); // b = 2
                            v
                        }
                    });
                    let v2 = *tx.eval(&f2);
                    let v = *tx.read(&b); // must see b = 2
                    tx.write(&b, v + 10); // b = 12
                    v2 + v
                }
            });
            let got = *tx.eval(&f1); // 1 + 2 = 3
            let v = *tx.read(&b); // must see 12
            tx.write(&b, v + 100); // b = 112
            got + v
        });
        assert_eq!(out, 3 + 12);
        assert_eq!(*b.read_committed(), 112);
    }

    #[test]
    fn zero_worker_pool_still_completes_via_helping() {
        let tm = Rtf::builder().workers(0).build();
        let b = VBox::new(3u64);
        let out = tm.atomic(|tx| {
            let f = tx.submit({
                let b = b.clone();
                move |tx| *tx.read(&b) + 1
            });
            *tx.eval(&f)
        });
        assert_eq!(out, 4);
    }

    #[test]
    fn map_futures_preserves_item_order_and_semantics() {
        let tm = tm();
        let data: Vec<VBox<u64>> = (0..50).map(|i| VBox::new(i as u64)).collect();
        let data = std::sync::Arc::new(data);
        let d2 = std::sync::Arc::clone(&data);
        let out = tm.atomic(move |tx| {
            let d3 = std::sync::Arc::clone(&d2);
            tx.map_futures(4, (0..50usize).collect(), move |tx, i| *tx.read(&d3[*i]) + 1)
        });
        assert_eq!(out, (1..=50u64).collect::<Vec<_>>());
    }

    #[test]
    fn map_futures_with_writes_equals_sequential_loop() {
        // Each item RMWs a single accumulator: the result must be the
        // sequential prefix sums, which only holds if chunk serialization
        // follows item order.
        let tm = tm();
        let acc = VBox::new(0u64);
        let a2 = acc.clone();
        let prefix = tm.atomic(move |tx| {
            let a3 = a2.clone();
            tx.map_futures(3, (1..=12u64).collect(), move |tx, i| {
                let v = *tx.read(&a3) + i;
                tx.write(&a3, v);
                v
            })
        });
        let want: Vec<u64> = (1..=12u64)
            .scan(0, |s, i| {
                *s += i;
                Some(*s)
            })
            .collect();
        assert_eq!(prefix, want);
        assert_eq!(*acc.read_committed(), 78);
    }

    #[test]
    fn map_futures_edge_cases() {
        let tm = tm();
        let empty: Vec<u64> = tm.atomic(|tx| tx.map_futures(4, Vec::<u64>::new(), |_tx, i| *i));
        assert!(empty.is_empty());
        let single = tm.atomic(|tx| tx.map_futures(8, vec![41u64], |_tx, i| i + 1));
        assert_eq!(single, vec![42]);
        // parallelism larger than item count
        let out = tm.atomic(|tx| tx.map_futures(100, vec![1u64, 2, 3], |_tx, i| i * 10));
        assert_eq!(out, vec![10, 20, 30]);
        // parallelism zero behaves like one chunk
        let out = tm.atomic(|tx| tx.map_futures(0, vec![1u64, 2], |_tx, i| *i));
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn run_commits_and_reports_cancellation() {
        let tm = tm();
        let b = VBox::new(0u64);
        assert_eq!(
            tm.run(|tx| {
                tx.write(&b, 5);
                7u64
            })
            .unwrap(),
            7
        );
        assert_eq!(*b.read_committed(), 5);
        let r: Result<(), TxError> = tm.run(|tx| {
            tx.write(&b, 9);
            tx.cancel()
        });
        assert_eq!(r.unwrap_err(), TxError::Cancelled);
        assert_eq!(*b.read_committed(), 5, "cancelled write must not escape");
    }

    #[test]
    fn run_surfaces_future_panic_as_structured_error() {
        let tm = tm();
        let b = VBox::new(0u64);
        let err = tm
            .run(|tx| {
                tx.write(&b, 1);
                let f = tx.submit(|_tx| -> u64 { panic!("future exploded") });
                *tx.eval(&f)
            })
            .unwrap_err();
        match err {
            TxError::FuturePanicked { message } => {
                assert!(message.contains("future exploded"), "got message {message:?}")
            }
            other => panic!("expected FuturePanicked, got {other:?}"),
        }
        assert_eq!(*b.read_committed(), 0, "no effect of the failed attempt escapes");
        // The runtime stays usable.
        tm.atomic(|tx| tx.write(&b, 3));
        assert_eq!(*b.read_committed(), 3);
        assert!(tm.stats().future_panics > 0);
    }

    #[test]
    fn retry_budget_exhausts_with_structured_error() {
        let tm = Rtf::builder().workers(1).max_retries(3).build();
        let r: Result<(), TxError> = tm.run(|tx| tx.restart());
        assert_eq!(r.unwrap_err(), TxError::RetryExhausted { attempts: 3 });
        assert!(tm.stats().retries_exhausted > 0);
    }

    #[test]
    fn stall_watchdog_detects_and_aborts_a_stuck_wait() {
        let tm = Rtf::builder()
            .workers(2)
            .stall_warn(std::time::Duration::from_millis(5))
            .stall_abort(std::time::Duration::from_millis(40))
            .build();
        let r: Result<(), TxError> = tm.run(|tx| {
            let f = tx.submit(|_tx| {
                std::thread::sleep(std::time::Duration::from_millis(300));
                1u64
            });
            // Let a worker dequeue the future before eval starts waiting:
            // if eval's own helper ran the sleeping body inline, that would
            // be progress (one long help round), not a stall, and the
            // watchdog would rightly stay quiet.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let _ = tx.eval(&f);
        });
        match r {
            Err(TxError::StallAborted { kind, waited_ms }) => {
                assert_eq!(kind, "future_wait");
                assert!(waited_ms >= 40);
            }
            other => panic!("expected StallAborted, got {other:?}"),
        }
        let s = tm.stats();
        assert!(s.stalls_detected > 0, "warn threshold must have fired: {s:?}");
        assert!(s.stall_aborts > 0);
    }

    #[test]
    fn fallback_mode_is_sequential_and_correct() {
        let tm = Rtf::builder().workers(2).fallback_threshold(1).build();
        // Force fallback by provoking inter-tree conflicts: two threads'
        // futures hammer the same two boxes with writes.
        let x = VBox::new(0u64);
        let tm = Arc::new(tm);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let tm = Arc::clone(&tm);
                let x = x.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        tm.atomic(|tx| {
                            let f = tx.submit({
                                let x = x.clone();
                                move |tx| {
                                    let v = *tx.read(&x);
                                    tx.write(&x, v + 1);
                                    0u8
                                }
                            });
                            let _ = tx.eval(&f);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*x.read_committed(), 200);
    }

    #[test]
    fn fallback_root_writes_after_submit_are_read_back_and_commit() {
        // A fallback attempt runs every future inline and buffers every
        // write in the root write-set, so that set is written after a
        // submit too. The first attempt restarts, which at threshold 1
        // puts the second attempt in fallback mode.
        let tm = Rtf::builder().workers(2).fallback_threshold(1).build();
        let b = VBox::new(0u64);
        let got = tm.atomic(|tx| {
            if !tx.is_fallback() {
                tx.restart();
            }
            let f1 = tx.submit({
                let b = b.clone();
                move |tx| *tx.read(&b)
            });
            tx.write(&b, 5);
            let cont = *tx.read(&b);
            let f2 = tx.submit({
                let b = b.clone();
                move |tx| {
                    let v = *tx.read(&b);
                    tx.write(&b, v + 1);
                    v
                }
            });
            (*tx.eval(&f1), cont, *tx.eval(&f2), *tx.read(&b))
        });
        assert_eq!(got, (0, 5, 5, 6));
        assert_eq!(*b.read_committed(), 6);
        assert_eq!(tm.stats().fallback_runs, 1, "{:?}", tm.stats());
    }

    #[test]
    fn fallback_threshold_zero_runs_futures_inline_from_the_first_attempt() {
        let tm = Rtf::builder().workers(2).fallback_threshold(0).build();
        let caller = std::thread::current().id();
        let ran_on = tm.atomic(|tx| {
            assert!(tx.is_fallback());
            let f = tx.submit(|_| std::thread::current().id());
            *tx.eval(&f)
        });
        assert_eq!(ran_on, caller, "the future body must run on the calling thread");
        assert_eq!(tm.stats().fallback_runs, 1, "{:?}", tm.stats());
    }

    /// Ordered mode: concurrent clients' commits land in strict ticket
    /// order, observable through a custom observer capturing the
    /// `TicketCommit` stream.
    #[test]
    fn ordered_mode_commit_log_is_strictly_ascending() {
        use rtf_txengine::{Event, EventSink};
        use std::sync::Mutex;
        struct Capture(Mutex<Vec<(u32, u64)>>);
        impl EventSink for Capture {
            fn event(&self, e: Event) {
                if let Event::TicketCommit { lane, seq, .. } = e {
                    self.0.lock().unwrap().push((lane, seq));
                }
            }
        }
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        let tm = Arc::new(Rtf::builder().workers(3).ordered(1).event_sink(cap.clone()).build());
        assert!(tm.is_ordered());
        let b = VBox::new(0u64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tm = Arc::clone(&tm);
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        tm.atomic(|tx| {
                            let v = *tx.read(&b);
                            tx.write(&b, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*b.read_committed(), 200);
        let log = cap.0.lock().unwrap();
        assert_eq!(log.len(), 200);
        assert!(
            log.windows(2).all(|w| w[0].1 < w[1].1),
            "ordered commits must be strictly ascending in seq"
        );
        let s = tm.stats();
        assert_eq!(s.ordered_commits, 200);
        assert_eq!(s.tickets_issued, 200);
        assert_eq!(s.tickets_abandoned, 0);
    }

    /// Pre-drawn tickets pin the commit order to submission order even when
    /// the transactions run on threads in reverse.
    #[test]
    fn run_with_ticket_commits_in_submission_order() {
        let tm = Arc::new(Rtf::builder().workers(2).ordered(1).build());
        let log = VBox::new(Vec::<u64>::new());
        // Draw tickets 0..4 on this thread, then run them in reverse.
        let tickets: Vec<_> = (0..4u64).map(|i| (i, tm.ticket())).collect();
        let handles: Vec<_> = tickets
            .into_iter()
            .rev()
            .map(|(i, ticket)| {
                let tm = Arc::clone(&tm);
                let log = log.clone();
                std::thread::spawn(move || {
                    tm.run_with(RunBudget::default(), Some(ticket), move |tx| {
                        let mut v = (*tx.read(&log)).clone();
                        v.push(i);
                        tx.write(&log, v);
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*log.read_committed(), vec![0, 1, 2, 3]);
    }

    /// A stuck predecessor ticket bounded by the armed stall watchdog: the
    /// successor surfaces `StallAborted { kind: "ticket_wait" }` instead of
    /// hanging, and abandoning the stuck ticket unwedges the lane.
    #[test]
    fn ordered_stuck_predecessor_stall_aborts_then_lane_recovers() {
        let tm = Rtf::builder()
            .workers(2)
            .ordered(1)
            .stall_warn(std::time::Duration::from_millis(10))
            .stall_abort(std::time::Duration::from_millis(80))
            .build();
        let stuck = tm.ticket(); // seq 0, never runs
        let b = VBox::new(0u64);
        let r = tm.run(|tx| {
            let v = *tx.read(&b);
            tx.write(&b, v + 1);
        });
        match r {
            Err(TxError::StallAborted { kind, waited_ms }) => {
                assert_eq!(kind, "ticket_wait");
                assert!(waited_ms >= 80);
            }
            other => panic!("expected ticket_wait stall abort, got {other:?}"),
        }
        assert_eq!(*b.read_committed(), 0, "a stalled commit must publish nothing");
        drop(stuck); // abandon seq 0: the lane skips it and seq 1's hole
        tm.atomic(|tx| {
            let v = *tx.read(&b);
            tx.write(&b, v + 1);
        });
        assert_eq!(*b.read_committed(), 1);
        let s = tm.stats();
        assert!(s.stall_aborts >= 1, "{s:?}");
        assert_eq!(s.tickets_abandoned, 2, "stalled successor + dropped predecessor: {s:?}");
    }

    /// Read-only transactions also take (and log) their turn in ordered
    /// mode, and cancellation abandons the ticket cleanly.
    #[test]
    fn ordered_mode_covers_ro_and_cancel_paths() {
        let tm = Rtf::builder().workers(2).ordered(1).build();
        let b = VBox::new(5u64);
        assert_eq!(tm.atomic_ro(|tx| *tx.read(&b)), 5);
        let r = tm.run(|tx| {
            tx.cancel();
        });
        assert_eq!(r, Err(TxError::Cancelled));
        tm.atomic(|tx| {
            let v = *tx.read(&b);
            tx.write(&b, v + 1);
        });
        let s = tm.stats();
        assert_eq!(s.tickets_issued, 3);
        assert_eq!(s.ordered_commits, 2, "ro + rw commits: {s:?}");
        assert_eq!(s.tickets_abandoned, 1, "cancelled tx: {s:?}");
        assert_eq!(s.top_ro_commits, 1);
    }

    #[test]
    fn independent_instances_have_independent_clocks() {
        let tm1 = tm();
        let tm2 = tm();
        let b = VBox::new(0u32);
        tm1.atomic(|tx| tx.write(&b, 1));
        assert_eq!(tm1.clock_now(), 1);
        assert_eq!(tm2.clock_now(), 0);
    }

    #[test]
    fn stats_snapshot_reflects_activity() {
        let tm = tm();
        let b = VBox::new(0u32);
        tm.atomic(|tx| tx.write(&b, 1));
        tm.atomic(|tx| {
            let _ = tx.read(&b);
        });
        let s = tm.stats();
        assert_eq!(s.top_commits, 1);
        assert_eq!(s.top_ro_commits, 1);
    }

    #[test]
    fn gc_bounds_version_lists() {
        let tm = tm();
        let b = VBox::new(0u64);
        for i in 0..500u64 {
            tm.atomic(|tx| tx.write(&b, i));
        }
        // No transaction is live, so each write-back trims behind itself.
        assert!(b.cell().permanent_len() <= 3, "len = {}", b.cell().permanent_len());
    }

    /// Regression test: the GC watermark must cover a transaction that is
    /// between reading the clock and issuing its first read, even while
    /// writers commit and trim aggressively. (The begin path registers
    /// *before* snapshotting; with the opposite order this test panics
    /// with "GC watermark violated".)
    #[test]
    fn gc_never_outruns_a_beginning_transaction() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let tm = tm();
        let b = VBox::new(0u64);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (tm, b, stop) = (tm.clone(), b.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    tm.atomic(|tx| tx.write(&b, i));
                }
            })
        };
        for _ in 0..3_000 {
            let v = tm.atomic_ro(|tx| *tx.read(&b));
            let _ = v;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// GC must retain versions needed by long-running readers.
    #[test]
    fn gc_respects_long_running_snapshot() {
        let tm = tm();
        let a = VBox::new(0u64);
        let b = VBox::new(100u64);
        tm.atomic_ro(|tx| {
            let seen_b = *tx.read(&b);
            // Many commits to `a` try to trim; `b`'s old version must
            // survive for this registered long reader.
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..200u64 {
                        tm.atomic(|tx| {
                            tx.write(&a, i);
                            tx.write(&b, 200 + i);
                        });
                    }
                });
            });
            assert_eq!(*tx.read(&b), seen_b, "snapshot stability");
        });
        assert_eq!(*b.read_committed(), 399);
    }
}
