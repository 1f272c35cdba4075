//! Explicit abort APIs: `Tx::cancel` (deliberate rollback, TPC-C-style)
//! and `Tx::restart` (retry with a fresh snapshot).

use rtf::{Rtf, TxError, VBox};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn cancel_discards_all_effects() {
    let tm = Rtf::builder().workers(2).build();
    let a = VBox::new(10u64);
    let b = VBox::new(20u64);
    let r: Result<(), TxError> = tm.run(|tx| {
        tx.write(&a, 99);
        let b2 = b.clone();
        let f = tx.submit(move |tx| {
            tx.write(&b2, 99);
            0u8
        });
        let _ = tx.eval(&f);
        tx.cancel()
    });
    assert_eq!(r, Err(TxError::Cancelled));
    assert_eq!(*a.read_committed(), 10, "root write discarded");
    assert_eq!(*b.read_committed(), 20, "future's committed sub-write discarded");
    assert!(a.cell().tentative_lock().is_empty());
    assert!(b.cell().tentative_lock().is_empty());
}

#[test]
fn cancel_from_inside_a_future() {
    let tm = Rtf::builder().workers(2).build();
    let a = VBox::new(1u64);
    let a2 = a.clone();
    let r = tm.run(move |tx| {
        let a3 = a2.clone();
        let f = tx.submit(move |tx| {
            tx.write(&a3, 5);
            tx.cancel()
        });
        let _: Arc<()> = tx.eval(&f);
        7u64
    });
    assert_eq!(r, Err(TxError::Cancelled));
    assert_eq!(*a.read_committed(), 1);
}

#[test]
fn run_ok_path_commits() {
    let tm = Rtf::builder().workers(1).build();
    let a = VBox::new(0u64);
    let r = tm.run(|tx| {
        tx.write(&a, 3);
        42u64
    });
    assert_eq!(r, Ok(42));
    assert_eq!(*a.read_committed(), 3);
}

#[test]
#[should_panic(expected = "Rtf::run")]
fn cancel_inside_plain_atomic_panics_with_guidance() {
    let tm = Rtf::builder().workers(1).build();
    tm.atomic(|tx| tx.cancel());
}

#[test]
fn restart_reruns_with_fresh_snapshot() {
    let tm = Rtf::builder().workers(1).build();
    let a = VBox::new(0u64);
    let attempts = Arc::new(AtomicU64::new(0));
    let att = Arc::clone(&attempts);
    let a2 = a.clone();
    let tm2 = tm.clone();
    let out = tm.atomic(move |tx| {
        let n = att.fetch_add(1, Ordering::Relaxed);
        if n < 2 {
            // Sneak in a concurrent commit, then demand a fresh snapshot.
            let a3 = a2.clone();
            tm2.atomic(move |tx2| {
                let v = *tx2.read(&a3);
                tx2.write(&a3, v + 1);
            });
            tx.restart();
        }
        *tx.read(&a2)
    });
    assert_eq!(attempts.load(Ordering::Relaxed), 3);
    assert_eq!(out, 2, "the final attempt reads the freshest snapshot");
}

#[test]
fn cancelled_transactions_count_as_no_commit() {
    let tm = Rtf::builder().workers(1).build();
    let a = VBox::new(0u64);
    for _ in 0..5 {
        let _ = tm.run(|tx| {
            tx.write(&a, 1);
            tx.cancel()
        });
    }
    assert_eq!(tm.stats().top_commits, 0);
    assert_eq!(*a.read_committed(), 0);
}
