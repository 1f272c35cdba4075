//! `rtf-mvstm` — the multi-version STM substrate of the `rtf` stack.
//!
//! This crate is a from-scratch Rust implementation of the JVSTM-style TM
//! that "The Future(s) of Transactional Memory" (ICPP 2016) builds on:
//!
//! * [`VBox`] — versioned boxes holding every committed version a live
//!   transaction may need (plus the tentative list used by the `rtf` core
//!   crate for sub-transactions);
//! * [`TopTxn`] — top-level transactions with snapshot reads, private
//!   write-sets, commit-time read-set validation;
//! * a **lock-free helping commit** ([`commit`] module) replicating JVSTM's
//!   non-blocking global-counter increment + write-back;
//! * a read-only fast path and permanent-version garbage collection.
//!
//! Since the engine extraction, the storage layer ([`VBox`], [`VBoxCell`]),
//! the typed access sets and the read/validate pipeline live in the shared
//! `rtf-txengine` crate (re-exported here); this crate contributes the
//! top-level *visibility policy* ([`txn::TopVisibility`]) and the *commit
//! protocol* (the helping commit chain).
//!
//! Used standalone it is the *baseline* TM of the paper's evaluation
//! (configurations without futures); the `rtf` crate layers transaction
//! trees, tentative versions and the strong-ordering commit protocol on
//! top of it.
//!
//! ```
//! use rtf_mvstm::{MvStm, VBox};
//!
//! let tm = MvStm::new();
//! let balance = VBox::new(100i64);
//! tm.atomic(|tx| {
//!     let b = *tx.read(&balance);
//!     tx.write(&balance, b - 30);
//! });
//! assert_eq!(*balance.read_committed(), 70);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Robustness gate: production code must not unwrap or panic ad hoc —
// every residual site carries an audited `allow` naming its invariant
// (tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::panic))]

pub mod commit;
pub mod txn;

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use rtf_txbase::clock::Registration;
use rtf_txbase::{ActiveTxnRegistry, GlobalClock, StatSnapshot, TmStats, Version};
use rtf_txengine::{EventSink, RetryDriver, StatsSink, TeeSink};

pub use commit::{CommitChain, CommitWrite, Conflict, TurnGate};
pub use rtf_txengine::{
    downcast, erase, retry_backoff, tentative_insert, CellId, PermVersion, ReadSet, TentativeEntry,
    TxData, VBox, VBoxCell, Val, WriteSet,
};
pub use txn::{TopTxn, TopVisibility};

/// The multi-version software transactional memory.
///
/// One instance owns an independent clock, commit chain and statistics; a
/// program normally creates a single instance and shares it (`Arc` or by
/// reference) among threads. Boxes ([`VBox`]) are global and not bound to an
/// instance — like JVSTM, the snapshot discipline alone keeps readers
/// consistent — but mixing instances over the same boxes forfeits the
/// opacity guarantee, so don't.
pub struct MvStm {
    clock: GlobalClock,
    registry: ActiveTxnRegistry,
    chain: Arc<CommitChain>,
    stats: Arc<TmStats>,
    sink: Arc<dyn EventSink>,
}

impl MvStm {
    /// TM with only the built-in statistics sink.
    pub fn new() -> Self {
        Self::with_extras(Vec::new())
    }

    /// TM with extra instrumentation sinks (observers, tracers) teed behind
    /// the built-in [`StatsSink`]. This is how the core runtime attaches
    /// the observability layer: one sink serves both the top-level and
    /// sub-transaction paths.
    pub fn with_extras(extras: Vec<Arc<dyn EventSink>>) -> Self {
        let stats = Arc::new(TmStats::default());
        let stats_sink: Arc<dyn EventSink> = Arc::new(StatsSink::new(Arc::clone(&stats)));
        let sink = if extras.is_empty() {
            stats_sink
        } else {
            let mut sinks = vec![stats_sink];
            sinks.extend(extras);
            Arc::new(TeeSink::new(sinks))
        };
        MvStm {
            clock: GlobalClock::new(),
            registry: ActiveTxnRegistry::new(),
            chain: Arc::new(CommitChain::new()),
            sink,
            stats,
        }
    }

    /// Starts a manually managed read-write transaction.
    pub fn begin(&self) -> TopTxn<'_> {
        TopTxn::new(self, false)
    }

    /// Starts a manually managed transaction declared read-only (writes
    /// panic; reads skip read-set bookkeeping).
    pub fn begin_ro(&self) -> TopTxn<'_> {
        TopTxn::new(self, true)
    }

    /// Runs `body` as an atomic transaction, retrying on conflict until it
    /// commits, and returns its result.
    ///
    /// `body` may run several times; side effects outside the TM must be
    /// idempotent or deferred.
    pub fn atomic<R>(&self, body: impl Fn(&mut TopTxn<'_>) -> R) -> R {
        let mut retry = RetryDriver::new();
        loop {
            let mut tx = self.begin();
            let out = body(&mut tx);
            if tx.try_commit().is_ok() {
                return out;
            }
            retry.backoff();
        }
    }

    /// Runs `body` as a read-only transaction: never validates, never
    /// retries, and panics if `body` attempts a write.
    pub fn atomic_ro<R>(&self, body: impl FnOnce(&mut TopTxn<'_>) -> R) -> R {
        let mut tx = self.begin_ro();
        let out = body(&mut tx);
        let committed = tx.try_commit().expect("read-only transactions cannot conflict");
        debug_assert_eq!(committed, None);
        out
    }

    /// Registers a beginning top-level transaction for version GC and
    /// takes its snapshot; the registration lasts until the guard drops.
    ///
    /// It registers *before* taking the snapshot: the GC watermark must
    /// cover the version the transaction will read. Registering a (possibly
    /// slightly older) clock value first guarantees watermark <= start, so
    /// every version in (watermark, start] plus the newest one at or below
    /// the watermark — everything a reader at `start` can need — is
    /// retained. The `SeqCst` fence orders the registration before the
    /// snapshot load against the fence `CommitChain`'s write-back puts
    /// between its clock and watermark loads (`rtf_txbase::clock` module
    /// docs).
    #[inline]
    pub fn begin_snapshot(&self) -> (Registration<'_>, Version) {
        let reg = self.registry.register(self.clock.now());
        fence(Ordering::SeqCst);
        (reg, self.clock.now())
    }

    /// The version clock.
    #[inline]
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// The active-transaction registry (GC watermark source).
    #[inline]
    pub fn registry(&self) -> &ActiveTxnRegistry {
        &self.registry
    }

    /// The commit chain (used by the core crate's root commit).
    #[inline]
    pub fn chain(&self) -> &CommitChain {
        &self.chain
    }

    /// Shared handle to the commit chain (gauge closures in the core
    /// runtime sample its depth without borrowing the runtime).
    #[inline]
    pub fn chain_arc(&self) -> Arc<CommitChain> {
        Arc::clone(&self.chain)
    }

    /// The instrumentation sink (a [`StatsSink`] over [`MvStm::stats`]).
    #[inline]
    pub fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }

    /// Event counters.
    #[inline]
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Shared handle to the event counters.
    #[inline]
    pub fn stats_arc(&self) -> &Arc<TmStats> {
        &self.stats
    }

    /// Convenience snapshot of the counters.
    pub fn stats_snapshot(&self) -> StatSnapshot {
        self.stats.snapshot()
    }

    /// Current snapshot version (diagnostics).
    pub fn now(&self) -> Version {
        self.clock.now()
    }
}

impl Default for MvStm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_instances_have_independent_clocks() {
        let tm1 = MvStm::new();
        let tm2 = MvStm::new();
        let b = VBox::new(0u32);
        tm1.atomic(|tx| tx.write(&b, 1));
        assert_eq!(tm1.now(), 1);
        assert_eq!(tm2.now(), 0);
    }

    #[test]
    fn stats_snapshot_reflects_activity() {
        let tm = MvStm::new();
        let b = VBox::new(0u32);
        tm.atomic(|tx| tx.write(&b, 1));
        tm.atomic(|tx| {
            let _ = tx.read(&b);
        });
        let s = tm.stats_snapshot();
        assert_eq!(s.top_commits, 1);
        assert_eq!(s.top_ro_commits, 1);
    }

    #[test]
    fn gc_bounds_version_lists() {
        let tm = MvStm::new();
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
        let tm = std::sync::Arc::new(MvStm::new());
        let b = VBox::new(0u64);
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writer = {
            let (tm, b, stop) =
                (std::sync::Arc::clone(&tm), b.clone(), std::sync::Arc::clone(&stop));
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
        let tm = MvStm::new();
        let a = VBox::new(0u64);
        let b = VBox::new(100u64);
        let mut long_reader = tm.begin();
        let seen_b = *long_reader.read(&b);
        // Many commits to `a` try to trim; `b`'s old version must survive
        // for the registered long reader.
        for i in 0..200u64 {
            tm.atomic(|tx| {
                tx.write(&a, i);
                tx.write(&b, 200 + i);
            });
        }
        assert_eq!(*long_reader.read(&b), seen_b, "snapshot stability");
        assert!(long_reader.try_commit().is_ok(), "read-only long txn commits");
        assert_eq!(*b.read_committed(), 399);
    }
}
