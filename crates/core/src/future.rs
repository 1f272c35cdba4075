//! The transactional future handle.
//!
//! Submitting a computation inside a transaction returns a [`TxFuture`]: a
//! placeholder that can be *evaluated* (blocking until the future's
//! sub-transaction commits) from anywhere — the submitting transaction, a
//! descendant, another thread, or another top-level transaction (paper §II
//! and Fig 2 use a future as a cross-transaction communication channel).
//!
//! The handle resolves when the future's sub-transaction commits *within its
//! tree*; the strong ordering semantics guarantee the value equals the one a
//! sequential execution would produce at the submission point. If the whole
//! tree re-executes (inter-tree conflict or implicit-continuation restart),
//! the re-execution creates fresh handles; a stale handle held by an outside
//! observer is *cancelled* — evaluating it panics with a descriptive message
//! (the paper leaves this corner unspecified; see README limitations).

// Audited `clippy::panic` exemption: this module's panics are the
// runtime's typed unwind channels (`PoisonSignal` / `CancelSignal` /
// structured `TxError` payloads) plus documented API-contract panics;
// every one is caught or surfaced at the `Rtf` boundary, never a bug trap.
#![allow(clippy::panic)]

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

use rtf_txbase::WaitQueue;
use rtf_txengine::TxData;

use crate::error::{FutureError, TxError};

enum FutState<A> {
    Pending,
    Committed(Arc<A>),
    /// Terminally failed; the reason is either [`FutureError::Cancelled`]
    /// (tree teardown/re-execution) or [`FutureError::Panicked`].
    Failed(FutureError),
}

struct Shared<A> {
    state: Mutex<FutState<A>>,
    /// Threads parked in `wait*`; see `rtf_txbase::wait` for the epoch
    /// protocol that keeps them lost-wakeup-free.
    waiters: WaitQueue,
}

/// A handle to a transactional future's result.
///
/// Cloneable and sendable across threads; see the module docs for the
/// evaluation semantics.
pub struct TxFuture<A: TxData> {
    shared: Arc<Shared<A>>,
}

impl<A: TxData> Clone for TxFuture<A> {
    fn clone(&self) -> Self {
        TxFuture { shared: Arc::clone(&self.shared) }
    }
}

impl<A: TxData> TxFuture<A> {
    pub(crate) fn new_pending() -> Self {
        TxFuture {
            shared: Arc::new(Shared {
                state: Mutex::new(FutState::Pending),
                waiters: WaitQueue::new(),
            }),
        }
    }

    /// A handle that is already resolved (used by the sequential fallback
    /// mode, where future bodies run inline at their submission point).
    pub(crate) fn ready(value: Arc<A>) -> Self {
        TxFuture {
            shared: Arc::new(Shared {
                state: Mutex::new(FutState::Committed(value)),
                waiters: WaitQueue::new(),
            }),
        }
    }

    pub(crate) fn complete(&self, value: Arc<A>) {
        {
            let mut st = self.shared.state.lock();
            *st = FutState::Committed(value);
        }
        self.shared.waiters.notify_all();
    }

    /// Marks the handle stale (tree teardown / re-execution).
    pub(crate) fn cancel(&self) {
        self.fail(FutureError::Cancelled);
    }

    /// Marks the handle failed because its task panicked.
    pub(crate) fn cancel_panicked(&self) {
        self.fail(FutureError::Panicked);
    }

    fn fail(&self, reason: FutureError) {
        debug_assert!(reason != FutureError::Pending, "Pending is not a failure");
        let failed = {
            let mut st = self.shared.state.lock();
            if matches!(*st, FutState::Pending) {
                *st = FutState::Failed(reason);
                true
            } else {
                false
            }
        };
        if failed {
            self.shared.waiters.notify_all();
        }
    }

    /// Whether the handle reached *any* terminal state (committed, cancelled
    /// or panicked) — used by the task drop guard to tell a normal exit from
    /// an abandoned one.
    pub(crate) fn is_settled(&self) -> bool {
        !matches!(*self.shared.state.lock(), FutState::Pending)
    }

    /// Non-blocking probe: the committed value, if already available.
    pub fn try_get(&self) -> Option<Arc<A>> {
        match &*self.shared.state.lock() {
            FutState::Committed(v) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Whether the future already committed.
    pub fn is_done(&self) -> bool {
        self.try_get().is_some()
    }

    /// Non-blocking, non-panicking probe of the handle's state: the value if
    /// committed, [`FutureError::Pending`] while unresolved, or the terminal
    /// failure reason. Safe to call from destructors and unwinding code.
    pub fn try_wait(&self) -> Result<Arc<A>, FutureError> {
        match &*self.shared.state.lock() {
            FutState::Committed(v) => Ok(Arc::clone(v)),
            FutState::Pending => Err(FutureError::Pending),
            FutState::Failed(reason) => Err(*reason),
        }
    }

    /// Blocks until the future reaches a terminal state; never panics.
    /// `Err` carries the failure reason ([`FutureError::Cancelled`] or
    /// [`FutureError::Panicked`]).
    pub fn wait_result(&self) -> Result<Arc<A>, FutureError> {
        loop {
            // Token before predicate: a settle landing after the probe
            // bumps the epoch, so the park below cannot sleep through it.
            let token = self.shared.waiters.epoch();
            match self.try_wait() {
                Err(FutureError::Pending) => {}
                settled => return settled,
            }
            let _ = self.shared.waiters.park(token, 0, Duration::from_millis(1));
        }
    }

    /// Blocks until the future commits; panics if the submitting tree
    /// execution was torn down (see module docs) or its task panicked.
    ///
    /// Inside a transaction prefer [`crate::Tx::eval`], which also lets the
    /// waiting thread help execute queued futures. In destructors prefer
    /// [`TxFuture::try_wait`]: when `wait` fails while the thread is already
    /// unwinding it re-panics with the plain [`FutureError`] payload —
    /// no formatting mid-unwind, and the runtime's quiet hook suppresses the
    /// duplicate report — but a panic escaping a destructor during unwind
    /// still aborts the process, by Rust's rules, no matter the payload.
    pub fn wait(&self) -> Arc<A> {
        match self.wait_result() {
            Ok(v) => v,
            Err(reason) => {
                if std::thread::panicking() {
                    std::panic::panic_any(reason);
                }
                match reason {
                    FutureError::Panicked => {
                        std::panic::panic_any(TxError::FuturePanicked { message: String::new() })
                    }
                    _ => panic!(
                        "evaluated a transactional future whose submitting transaction \
                         execution was aborted and re-executed; re-obtain the handle \
                         from the new execution"
                    ),
                }
            }
        }
    }

    /// Like [`TxFuture::wait_result`], but calls `help` while pending so a
    /// blocked thread keeps the pool busy (avoids pool-starvation deadlock).
    /// `Err` carries the failure reason; the caller decides how to surface
    /// it.
    pub(crate) fn wait_helping(
        &self,
        mut help: impl FnMut() -> bool,
    ) -> Result<Arc<A>, FutureError> {
        loop {
            let token = self.shared.waiters.epoch();
            match self.try_wait() {
                Err(FutureError::Pending) => {}
                settled => return settled,
            }
            // Help with no locks held; park briefly only when there was
            // nothing to help with (the epoch token spans the helping
            // step, so a settle during `help` still cancels the park).
            if !help() {
                let _ = self.shared.waiters.park(token, 0, Duration::from_micros(200));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_then_wait() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        f.complete(Arc::new(5));
        assert_eq!(*f.wait(), 5);
        assert_eq!(*f.try_get().unwrap(), 5);
        assert!(f.is_done());
    }

    #[test]
    fn ready_is_done() {
        let f = TxFuture::ready(Arc::new(9u8));
        assert!(f.is_done());
        assert_eq!(*f.wait(), 9);
    }

    #[test]
    fn wait_blocks_until_complete() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        assert!(f.try_get().is_none());
        let f2 = f.clone();
        let h = std::thread::spawn(move || *f2.wait());
        std::thread::sleep(Duration::from_millis(10));
        f.complete(Arc::new(7));
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "aborted and re-executed")]
    fn cancelled_wait_panics() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        f.cancel();
        let _ = f.wait();
    }

    #[test]
    fn try_wait_reports_each_state_without_panicking() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        assert_eq!(f.try_wait().unwrap_err(), FutureError::Pending);
        f.complete(Arc::new(4));
        assert_eq!(*f.try_wait().unwrap(), 4);

        let g: TxFuture<u32> = TxFuture::new_pending();
        g.cancel();
        assert_eq!(g.try_wait().unwrap_err(), FutureError::Cancelled);

        let h: TxFuture<u32> = TxFuture::new_pending();
        h.cancel_panicked();
        assert_eq!(h.try_wait().unwrap_err(), FutureError::Panicked);
        assert_eq!(h.wait_result().unwrap_err(), FutureError::Panicked);
    }

    #[test]
    fn panicked_wait_panics_with_structured_payload() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        f.cancel_panicked();
        let payload = std::panic::catch_unwind(|| f.wait()).expect_err("must panic");
        match payload.downcast_ref::<TxError>() {
            Some(TxError::FuturePanicked { .. }) => {}
            other => panic!("expected TxError::FuturePanicked payload, got {other:?}"),
        }
    }

    #[test]
    fn wait_during_unwinding_repanics_with_plain_reason() {
        // A destructor probing a failed handle while its thread unwinds must
        // not enter the formatting panic!; it re-panics with the bare
        // `FutureError` payload (catchable, quiet-hook-suppressible).
        struct ProbeOnDrop(TxFuture<u32>, Arc<std::sync::Mutex<Option<FutureError>>>);
        impl Drop for ProbeOnDrop {
            fn drop(&mut self) {
                assert!(std::thread::panicking());
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.0.wait()));
                let payload = caught.expect_err("wait on a failed handle still fails");
                *self.1.lock().unwrap() = payload.downcast_ref::<FutureError>().copied();
            }
        }
        let f: TxFuture<u32> = TxFuture::new_pending();
        f.cancel();
        let seen = Arc::new(std::sync::Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _probe = ProbeOnDrop(f, seen2);
            panic!("outer failure");
        }));
        assert!(result.is_err());
        assert_eq!(*seen.lock().unwrap(), Some(FutureError::Cancelled));
    }

    #[test]
    fn is_settled_tracks_terminal_states() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        assert!(!f.is_settled());
        f.complete(Arc::new(1));
        assert!(f.is_settled());
        let g: TxFuture<u32> = TxFuture::new_pending();
        g.cancel_panicked();
        assert!(g.is_settled());
    }

    #[test]
    fn cancel_after_complete_is_noop() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        f.complete(Arc::new(3));
        f.cancel();
        assert_eq!(*f.wait(), 3);
    }

    #[test]
    fn wait_helping_runs_helper() {
        let f: TxFuture<u32> = TxFuture::new_pending();
        let f2 = f.clone();
        let helped = std::sync::atomic::AtomicU32::new(0);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            f2.complete(Arc::new(1));
        });
        let v = f
            .wait_helping(|| {
                helped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                false
            })
            .expect("not cancelled");
        assert_eq!(*v, 1);
        assert!(helped.load(std::sync::atomic::Ordering::Relaxed) > 0);
        h.join().unwrap();
    }
}
