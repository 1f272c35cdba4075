//! Thread-striped statistics counters for the TM runtime.
//!
//! The evaluation section of the paper reports throughput, execution time
//! and *abort rate* (Figs 5 and 6); these counters are the raw material. The
//! counters are grouped in one struct so a `Rtf` instance (and each
//! benchmark run) can own an isolated set.
//!
//! They are *striped*, not just padded: every thread increments its own
//! stripe ([`thread_stripe`]), one cache-padded block holding every counter,
//! and [`TmStats::snapshot`] sums the stripes. A padded counter that every
//! thread increments still moves its cache line between cores on each
//! increment as soon as two threads commit concurrently.

use crossbeam_utils::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter stripes (threads beyond this share stripes).
pub const STRIPES: usize = 8;

/// The calling thread's stripe index in `0..STRIPES`, assigned round-robin
/// on the thread's first call and fixed for its lifetime. Besides the
/// counters, per-thread replicas elsewhere in the stack (registry shards,
/// the runtime's environment handles) are indexed by it, so a thread
/// writes the same lines every transaction and other threads' lines never.
#[inline]
pub fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(i);
        }
        i
    })
}

/// Declares every exported counter once. Each entry names its
/// [`StatSnapshot`] field, its [`Counter`] id and its Prometheus help text;
/// the striped store, the snapshot struct and the exporters' ordered list
/// ([`Counter::ALL`]) are all generated from this one table.
macro_rules! counters {
    ($($(#[$sm:meta])* $name:ident = $id:ident : $help:literal,)+) => {
        /// One exported counter (see the table in this module's source).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$sm])* $id,)+
        }

        impl Counter {
            /// Every counter, in export order.
            pub const ALL: &'static [Counter] = &[$(Counter::$id,)+];

            /// Number of counters.
            const COUNT: usize = Counter::ALL.len();

            /// The snapshot field name, also the exported name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$id => stringify!($name),)+
                }
            }

            /// One-line description (the Prometheus `HELP` text).
            pub fn help(self) -> &'static str {
                match self {
                    $(Counter::$id => $help,)+
                }
            }
        }

        /// A point-in-time copy of [`TmStats`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatSnapshot {
            $($(#[$sm])* pub $name: u64,)+
            /// Always 0 (there is no async front-end); kept because perfbench reads it.
            pub async_polls: u64,
            /// Always 0 (there is no async front-end); kept because perfbench reads it.
            pub async_spurious_polls: u64,
            /// Always 0 (there are no commit lanes); kept because perfbench reads it.
            pub lane_commits: u64,
            /// Always 0 (there are no commit lanes); kept because perfbench reads it.
            pub lane_fallbacks: u64,
        }

        impl StatSnapshot {
            /// The value of counter `c`.
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $(Counter::$id => self.$name,)+
                }
            }

            fn from_values(v: [u64; Counter::COUNT]) -> StatSnapshot {
                StatSnapshot { $($name: v[Counter::$id as usize],)+ ..StatSnapshot::default() }
            }
        }
    };
}

/// One stripe: every counter, written by the threads of one stripe.
#[derive(Debug)]
struct Stripe([AtomicU64; Counter::COUNT]);

impl Default for Stripe {
    fn default() -> Stripe {
        Stripe(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// Runtime event counters (one instance per TM), striped by thread.
#[derive(Debug, Default)]
pub struct TmStats {
    stripes: [CachePadded<Stripe>; STRIPES],
}

impl TmStats {
    /// Adds `n` to counter `c` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.stripes[thread_stripe()].0[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Copies all counters (the sum over the stripes).
    pub fn snapshot(&self) -> StatSnapshot {
        let mut v = [0u64; Counter::COUNT];
        for stripe in &self.stripes {
            for (sum, c) in v.iter_mut().zip(&stripe.0) {
                *sum += c.load(Ordering::Relaxed);
            }
        }
        StatSnapshot::from_values(v)
    }
}

counters! {
    /// Top-level read-write transactions committed.
    top_commits = TopCommits: "Top-level read-write commits",
    /// Top-level read-only transactions committed (validation skipped).
    top_ro_commits = TopRoCommits: "Top-level read-only commits",
    /// Top-level transactions aborted at commit-time validation.
    top_validation_aborts = TopValidationAborts: "Top-level validation aborts",
    /// Whole-tree aborts caused by an inter-tree tentative-list conflict
    /// (the paper's `ownedByAnotherTree` path).
    inter_tree_aborts = InterTreeAborts: "Whole-tree inter-tree aborts",
    /// Top-level re-executions that ran in sequential fallback mode.
    fallback_runs = FallbackRuns: "Sequential fallback executions",
    /// Sub-transactions (futures + continuations) committed.
    sub_commits = SubCommits: "Sub-transaction commits",
    /// Sub-transactions aborted at validation (missed a preceding sibling's
    /// write) and re-executed — the partial-rollback path.
    sub_validation_aborts = SubValidationAborts: "Sub-transaction validation aborts",
    /// Implicit continuations that failed validation and had to restart the
    /// whole top-level transaction (FCC substitution, DESIGN.md D1).
    continuation_restarts = ContinuationRestarts: "Continuation-driven full restarts",
    /// Transactional futures submitted.
    futures_submitted = FuturesSubmitted: "Transactional futures submitted",
    /// Read-only sub-transactions that skipped validation (§IV-E).
    ro_validation_skips = RoValidationSkips: "Read-only validation skips",
    /// Read-only sub-transactions that could not skip validation.
    ro_validation_taken = RoValidationTaken: "Read-only validations taken",
    /// Commit records written back by a helping thread (not their owner).
    helped_writebacks = HelpedWritebacks: "Commit records written back by helpers",
    /// Permanent versions trimmed by the version GC.
    versions_gced = VersionsGced: "Permanent versions trimmed by GC",
    /// Nanoseconds spent blocked in `waitTurn` (strong ordering's wait
    /// rules, Alg 3) — the direct cost of the ordering discipline.
    wait_turn_ns = WaitTurnNs: "Nanoseconds blocked in waitTurn",
    /// Nanoseconds spent in sub-transaction read-set validation.
    validation_ns = ValidationNs: "Nanoseconds validating read sets",
    /// Queued pool tasks run inline by a blocked or idle helping thread.
    pool_helped_tasks = PoolHelpedTasks: "Pool tasks run inline by helpers",
    /// Queued pool tasks a helping attempt had to defer because the
    /// helper's fence stack forbade them (order-bounded helping).
    pool_fence_deferrals = PoolFenceDeferrals: "Helping attempts deferred by fences",
    /// Snapshot reads served by the wait-free fast path (head version at or
    /// below the snapshot, or a local/tentative hit that never walked the
    /// permanent list). Flushed in per-transaction batches, not per read:
    /// per-read increments would serialize the reads the fast path
    /// unserializes.
    read_fast = ReadFast: "Wait-free fast-path reads",
    /// Snapshot reads that fell back to the lock-free version-list walk
    /// (snapshot older than the head version).
    read_slow = ReadSlow: "Version-list walk reads",
    /// Blocking waits (waitTurn / quiescence / future wait) the starvation
    /// watchdog flagged as stalled past the report threshold.
    stalls_detected = StallsDetected: "Waits flagged by the stall watchdog",
    /// Permanently stalled waits converted into structured aborts
    /// (`RTF_STALL_ABORT_MS` exceeded).
    stall_aborts = StallAborts: "Stalled waits converted to aborts",
    /// Pool tasks whose panic was contained by the worker/helper
    /// `catch_unwind` (the worker survived).
    pool_task_panics = PoolTaskPanics: "Pool task panics contained",
    /// Transactional future tasks whose panic was converted into a
    /// structured cancellation instead of a hang.
    future_panics = FuturePanics: "Future panics converted to cancellations",
    /// Retry drivers that exhausted their attempt/deadline budget.
    retries_exhausted = RetriesExhausted: "Retry budgets exhausted",
    /// `orec_snapshot` re-reads forced by a racing ownership propagation
    /// (flushed in per-transaction batches with the read-path counters).
    orec_snapshot_retries = OrecSnapshotRetries: "orec snapshot re-reads",
    /// Commit tickets issued by the ordered-execution lane's dispenser.
    tickets_issued = TicketsIssued: "Ordered-lane tickets issued",
    /// Top-level transactions committed through the ordered lane (in strict
    /// per-lane ticket order).
    ordered_commits = OrderedCommits: "Commits through the ordered lane",
    /// Tickets abandoned before commit (abort, panic, retry exhaustion or
    /// stall) — the lane skipped over them.
    tickets_abandoned = TicketsAbandoned: "Ordered-lane tickets abandoned",
    /// Nanoseconds spent waiting for a ticket's turn in the ordered lane
    /// (the cross-transaction analogue of `wait_turn_ns`).
    ticket_wait_ns = TicketWaitNs: "Nanoseconds waiting for ticket turns",
    /// Ordered-lane waiters woken by a `notify` whose turn had still not
    /// arrived (successor-only wakeups should keep this near zero; a herd
    /// shows up here). Counted per wait, flushed once when the turn
    /// arrives.
    ticket_spurious_wakes = TicketSpuriousWakes: "Ordered-lane spurious wakeups",
    /// Nanoseconds retry drivers spent sleeping in capped-exponential
    /// conflict backoff between attempts (0 when backoff is disabled).
    retry_backoff_ns = RetryBackoffNs: "Nanoseconds slept in conflict retry backoff",
    /// Retry attempts that actually slept in backoff (vs. immediate retry).
    retry_backoffs = RetryBackoffs: "Retry attempts that slept in backoff",
    /// Server requests admitted past the admission controller.
    server_admitted = ServerAdmitted: "Server requests admitted",
    /// Admitted server requests that completed and were answered (success
    /// or a typed transactional error — the transaction ran to a verdict).
    server_completed = ServerCompleted: "Admitted server requests answered",
    /// Admitted server requests answered with a typed failure mapped from
    /// `TxError` (retry exhaustion, stall abort, panic, cancellation).
    server_failed = ServerFailed: "Admitted requests answered with a typed TxError",
    /// Requests refused by the admission/overload ladder before running
    /// (token bucket empty, in-flight cap, backbone saturated, draining).
    server_shed = ServerShed: "Requests refused by the admission/overload ladder",
    /// In-flight requests force-resolved during graceful drain (answered
    /// with a typed drain error instead of being abandoned).
    server_drained = ServerDrained: "In-flight requests force-resolved during drain",
    /// Client connections that dropped mid-stream (EOF/reset with requests
    /// still in flight, or a failpoint-injected disconnect).
    server_conn_resets = ServerConnResets: "Client connections dropped mid-stream",
}

impl StatSnapshot {
    /// Per-counter difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &StatSnapshot) -> StatSnapshot {
        let mut v = [0u64; Counter::COUNT];
        for (d, &c) in v.iter_mut().zip(Counter::ALL) {
            *d = self.get(c).saturating_sub(earlier.get(c));
        }
        StatSnapshot::from_values(v)
    }

    /// Total top-level commits (read-write + read-only).
    pub fn commits(&self) -> u64 {
        self.top_commits + self.top_ro_commits
    }

    /// Total top-level aborts (validation + inter-tree).
    pub fn top_aborts(&self) -> u64 {
        self.top_validation_aborts + self.inter_tree_aborts + self.continuation_restarts
    }

    /// Abort rate over top-level attempts: aborts / (commits + aborts).
    pub fn top_abort_rate(&self) -> f64 {
        let a = self.top_aborts() as f64;
        let c = self.commits() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }

    /// Mean number of executions per committed top-level transaction
    /// (1.0 = never re-executed).
    pub fn executions_per_commit(&self) -> f64 {
        let c = self.commits() as f64;
        if c == 0.0 {
            0.0
        } else {
            (self.commits() + self.top_aborts()) as f64 / c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_count() {
        let s = TmStats::default();
        s.add(Counter::TopCommits, 1);
        s.add(Counter::TopCommits, 1);
        s.add(Counter::SubCommits, 1);
        let snap = s.snapshot();
        assert_eq!(snap.top_commits, 2);
        assert_eq!(snap.sub_commits, 1);
        assert_eq!(snap.top_aborts(), 0);
        assert_eq!(snap.commits(), 2);
    }

    #[test]
    fn since_subtracts() {
        let s = TmStats::default();
        s.add(Counter::TopCommits, 1);
        let a = s.snapshot();
        s.add(Counter::TopCommits, 1);
        s.add(Counter::InterTreeAborts, 1);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.top_commits, 1);
        assert_eq!(d.inter_tree_aborts, 1);
    }

    #[test]
    fn derived_rates() {
        let s = TmStats::default();
        for _ in 0..3 {
            s.add(Counter::TopCommits, 1);
        }
        s.add(Counter::TopValidationAborts, 1);
        let snap = s.snapshot();
        assert!((snap.top_abort_rate() - 0.25).abs() < 1e-9);
        assert!((snap.executions_per_commit() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let s = Arc::new(TmStats::default());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.add(Counter::SubCommits, 1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().sub_commits, 40_000);
    }

    #[test]
    fn striped_counters_are_smaller_than_one_padded_line_per_counter() {
        // 45 counters padded to 128 bytes each took 5,760 bytes; eight
        // stripes of one padded block each take 3,072.
        assert!(std::mem::size_of::<TmStats>() < 5_760, "{}", std::mem::size_of::<TmStats>());
    }

    #[test]
    fn sixteen_threads_increments_sum_exactly() {
        // Twice as many threads as stripes, so stripes are shared too.
        let s = Arc::new(TmStats::default());
        let hs: Vec<_> = (0..16u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        s.add(Counter::TopCommits, 1);
                        s.add(Counter::ReadFast, t + 1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.top_commits, 16 * 5_000);
        assert_eq!(snap.read_fast, 5_000 * (1..=16).sum::<u64>());
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        let here = thread_stripe();
        assert!(here < STRIPES);
        assert_eq!(here, thread_stripe());
    }

    #[test]
    fn timing_accumulators_add() {
        let s = TmStats::default();
        s.add(Counter::WaitTurnNs, 120);
        s.add(Counter::WaitTurnNs, 30);
        s.add(Counter::ValidationNs, 7);
        let snap = s.snapshot();
        assert_eq!(snap.wait_turn_ns, 150);
        assert_eq!(snap.validation_ns, 7);
    }

    #[test]
    fn zero_rates_are_zero() {
        let snap = TmStats::default().snapshot();
        assert_eq!(snap.top_abort_rate(), 0.0);
        assert_eq!(snap.executions_per_commit(), 0.0);
    }
}
