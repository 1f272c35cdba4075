//! Model-check-style tests for the thread-park wait queue
//! (`rtf_txbase::wait`): the `WaitQueue` epoch-token protocol's
//! lost-wakeup freedom.
//!
//! Compiled only under `--cfg loom` so the tier-1 `cargo test` run is
//! unaffected:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p rtf-integration --test loom_waitcell --release
//! ```
//!
//! The vendored `loom` is an offline shim (randomized stress scheduling over
//! the loom API, not exhaustive DPOR — see `vendor/loom/src/lib.rs` for the
//! fidelity caveats); swapping in the real crate requires no changes here.
//! Each `loom::model` closure is one small, fixed scenario with full-state
//! assertions, exactly the shape real loom wants.

#![cfg(loom)]

use loom::thread;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtf_txbase::{Parked, WaitQueue};

/// The queue's epoch-token protocol: a waiter samples its token, checks the
/// predicate, and parks; a notifier sets the predicate and notifies. In
/// every interleaving the waiter must observe the predicate — the token
/// turns the notify-before-park order into `Parked::Raced`, never a sleep
/// through the only wakeup.
#[test]
fn queue_park_vs_notify_is_lost_wakeup_free() {
    loom::model(|| {
        let q = Arc::new(WaitQueue::new());
        let ready = Arc::new(AtomicBool::new(false));

        let waiter = {
            let q = Arc::clone(&q);
            let ready = Arc::clone(&ready);
            thread::spawn(move || {
                let mut parks = 0u32;
                loop {
                    let token = q.epoch();
                    if ready.load(Ordering::Acquire) {
                        return parks;
                    }
                    // Bounded timeout only as a model-shim safety net: a
                    // lost wakeup would surface as TimedOut here.
                    match q.park(token, 0, Duration::from_millis(50)) {
                        Parked::TimedOut => panic!("lost wakeup: parked through the notify"),
                        Parked::Notified | Parked::Raced => parks += 1,
                    }
                }
            })
        };
        let notifier = {
            let q = Arc::clone(&q);
            let ready = Arc::clone(&ready);
            thread::spawn(move || {
                thread::yield_now();
                ready.store(true, Ordering::Release);
                q.notify_all();
            })
        };
        notifier.join().unwrap();
        let _parks = waiter.join().unwrap();
        assert!(!q.has_waiters(), "waiter must have deregistered itself");
    });
}

/// Keyed wake vs racing registration: with two waiters on different keys,
/// a `notify_where` admitting only one key must never strand the matching
/// waiter, whatever order registrations land in.
#[test]
fn queue_notify_where_admits_the_matching_key_under_races() {
    loom::model(|| {
        let q = Arc::new(WaitQueue::new());
        let released = Arc::new(AtomicUsize::new(0));

        let mk_waiter = |key: u64| {
            let q = Arc::clone(&q);
            let released = Arc::clone(&released);
            thread::spawn(move || loop {
                let token = q.epoch();
                if released.load(Ordering::Acquire) as u64 >= key {
                    return;
                }
                if q.park(token, key, Duration::from_millis(50)) == Parked::TimedOut {
                    panic!("waiter {key} stranded");
                }
            })
        };
        let w1 = mk_waiter(1);
        let w2 = mk_waiter(2);
        let notifier = {
            let q = Arc::clone(&q);
            let released = Arc::clone(&released);
            thread::spawn(move || {
                thread::yield_now();
                released.store(1, Ordering::Release);
                q.notify_where(|key| key <= 1);
                thread::yield_now();
                released.store(2, Ordering::Release);
                q.notify_where(|key| key <= 2);
            })
        };
        notifier.join().unwrap();
        w1.join().unwrap();
        w2.join().unwrap();
        assert!(!q.has_waiters());
    });
}
