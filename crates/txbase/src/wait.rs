//! The blocking primitive every wait/park point in the stack funnels
//! through: [`WaitQueue`], a keyed multi-waiter queue of parked threads with
//! an *epoch* protocol that makes the registered/notified race
//! lost-wakeup-free without holding any lock across the caller's predicate
//! check. Used by the ticket lane, intra-tree `waitTurn`, future
//! settlement, teardown quiescence and the task-pool idle park.
//!
//! ## The epoch protocol (lost-wakeup freedom)
//!
//! A condvar couples the predicate's mutex to the wait; [`WaitQueue`]
//! decouples them, so one queue serves predicates guarded by any lock (or
//! by none). The waiter side is:
//!
//! ```text
//! loop {
//!     let token = q.epoch();          // 1. sample BEFORE the predicate
//!     if predicate() { break }        // 2. check under the caller's lock
//!     q.park(token, key, timeout);    // 3. sleeps only if epoch unchanged
//! }
//! ```
//!
//! Every notifier bumps the epoch under the waiters lock *before* waking —
//! even when no waiter matched. A notification that lands between steps 2
//! and 3 therefore changes the epoch, `park` observes the mismatch under
//! the waiters lock and returns [`Parked::Raced`] without sleeping, and the
//! loop re-checks the predicate.
//!
//! ## Help-before-park
//!
//! The queue deliberately does **not** run helping closures itself: the
//! caller attempts its bounded helping step between the failed predicate
//! check and the park (see `TicketLane::wait_turn`,
//! `Node::wait_nclock_at_least`). Work executed while helping may retire
//! the predecessor and notify; the epoch token spans the helping step, so
//! the subsequent park still cannot lose that wakeup.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

/// How a [`WaitQueue::park`] call ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Parked {
    /// A notifier removed and woke this waiter. If the caller's predicate
    /// is still false afterwards, the wakeup was *spurious* for it (e.g. a
    /// broad `notify_all` on a keyed queue).
    Notified,
    /// The bounded sleep elapsed (or the OS unparked spuriously) with the
    /// entry still queued; the waiter removed itself.
    TimedOut,
    /// The epoch advanced between the caller's predicate check and the
    /// park: a notification raced in, so the waiter never slept. Re-check
    /// the predicate.
    Raced,
}

struct QueueWaiter {
    id: u64,
    key: u64,
    /// The parked thread; `Thread::unpark` never blocks, so notifiers may
    /// hold unrelated locks.
    thread: std::thread::Thread,
}

/// Keyed multi-waiter wait queue with epoch-based lost-wakeup freedom.
///
/// Each waiter carries a `u64` key with caller-defined meaning (ticket seq,
/// nclock threshold, 0 for unkeyed queues); notifiers can wake everyone
/// ([`WaitQueue::notify_all`]), one waiter ([`WaitQueue::notify_one`]), or
/// exactly the keys whose predicate became true
/// ([`WaitQueue::notify_where`]) — the targeted wake that fixes the ticket
/// lane's thundering herd.
pub struct WaitQueue {
    /// Bumped by every notifier under the waiters lock; sampled lock-free
    /// by waiters before their predicate check (see module docs).
    epoch: AtomicU64,
    /// Mirror of `waiters.len()`, maintained under the lock, so hot paths
    /// (task-pool spawn) can skip the lock when nobody is parked.
    len: AtomicUsize,
    next_id: AtomicU64,
    waiters: Mutex<Vec<QueueWaiter>>,
}

impl Default for WaitQueue {
    fn default() -> Self {
        WaitQueue {
            epoch: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            waiters: Mutex::new(Vec::new()),
        }
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitQueue")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("waiters", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl WaitQueue {
    /// A fresh, empty queue.
    pub fn new() -> WaitQueue {
        WaitQueue::default()
    }

    /// The current notification epoch. Sample **before** checking the wait
    /// predicate and pass the sample to [`WaitQueue::park`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether any waiter is currently enqueued (lock-free; racy by
    /// nature — callers use it only as a fast-path gate before an optional
    /// notify, never for correctness).
    pub fn has_waiters(&self) -> bool {
        self.len.load(Ordering::Acquire) > 0
    }

    /// Parks the calling thread for at most `timeout`, keyed by `key`,
    /// unless the epoch moved past `token` since the caller's predicate
    /// check (in which case it returns [`Parked::Raced`] immediately).
    pub fn park(&self, token: u64, key: u64, timeout: Duration) -> Parked {
        let id = {
            let mut q = self.waiters.lock();
            if self.epoch.load(Ordering::Relaxed) != token {
                return Parked::Raced;
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            q.push(QueueWaiter { id, key, thread: std::thread::current() });
            self.len.store(q.len(), Ordering::Release);
            id
        };
        std::thread::park_timeout(timeout);
        let mut q = self.waiters.lock();
        match q.iter().position(|w| w.id == id) {
            Some(i) => {
                // Still enqueued: the sleep ended on its own (timeout or a
                // stray OS unpark); withdraw the entry ourselves.
                q.swap_remove(i);
                self.len.store(q.len(), Ordering::Release);
                Parked::TimedOut
            }
            // A notifier removed (and woke) us.
            None => Parked::Notified,
        }
    }

    /// Wakes every waiter whose key satisfies `pred`, returning how many
    /// were woken. Always advances the epoch — even with zero matches — so
    /// racing parkers re-check their predicate instead of sleeping.
    pub fn notify_where(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        let woken = {
            let mut q = self.waiters.lock();
            self.epoch.fetch_add(1, Ordering::Release);
            let mut woken = Vec::new();
            let mut i = 0;
            while i < q.len() {
                if pred(q[i].key) {
                    woken.push(q.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            self.len.store(q.len(), Ordering::Release);
            woken
        };
        let n = woken.len();
        for w in woken {
            w.thread.unpark();
        }
        n
    }

    /// Wakes every waiter. Returns how many were woken.
    pub fn notify_all(&self) -> usize {
        self.notify_where(|_| true)
    }

    /// Wakes one arbitrary waiter (task-pool idle wake). Returns whether
    /// anyone was woken; the epoch advances either way.
    pub fn notify_one(&self) -> bool {
        let woken = {
            let mut q = self.waiters.lock();
            self.epoch.fetch_add(1, Ordering::Release);
            let w = if q.is_empty() { None } else { Some(q.swap_remove(0)) };
            self.len.store(q.len(), Ordering::Release);
            w
        };
        match woken {
            Some(w) => {
                w.thread.unpark();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_park_races_with_notify_without_losing_wakeups() {
        // The module-doc protocol end to end: a notify landing between the
        // predicate check and the park must surface as Raced, not a sleep.
        let q = WaitQueue::new();
        let token = q.epoch();
        assert_eq!(q.notify_all(), 0, "epoch bumps even with no waiters");
        let begin = std::time::Instant::now();
        let outcome = q.park(token, 0, Duration::from_secs(5));
        assert_eq!(outcome, Parked::Raced);
        assert!(begin.elapsed() < Duration::from_secs(1), "Raced must not sleep");
    }

    #[test]
    fn queue_notify_where_wakes_only_matching_keys() {
        let q = Arc::new(WaitQueue::new());
        let released = Arc::new(AtomicU64::new(0));
        let exited = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = [3u64, 7, 9]
            .into_iter()
            .map(|key| {
                let q = Arc::clone(&q);
                let released = Arc::clone(&released);
                let exited = Arc::clone(&exited);
                std::thread::spawn(move || loop {
                    let token = q.epoch();
                    if released.load(Ordering::Acquire) >= key {
                        exited.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    let _ = q.park(token, key, Duration::from_secs(10));
                })
            })
            .collect();
        while q.len.load(Ordering::Acquire) < 3 {
            std::thread::yield_now();
        }
        assert!(q.has_waiters());
        // Release only keys <= 7: waiter 9 must stay parked however often
        // the keyed notify repeats.
        released.store(7, Ordering::Release);
        while exited.load(Ordering::SeqCst) < 2 {
            q.notify_where(|k| k <= 7);
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(exited.load(Ordering::SeqCst), 2, "keyed notify must not wake waiter 9");
        released.store(9, Ordering::Release);
        while exited.load(Ordering::SeqCst) < 3 {
            q.notify_all();
            std::thread::yield_now();
        }
        for h in hs {
            h.join().unwrap();
        }
    }

    #[test]
    fn queue_timeout_self_removes() {
        let q = WaitQueue::new();
        let token = q.epoch();
        assert_eq!(q.park(token, 0, Duration::from_millis(1)), Parked::TimedOut);
        assert!(!q.has_waiters(), "timed-out waiter must not leak its entry");
    }
}
