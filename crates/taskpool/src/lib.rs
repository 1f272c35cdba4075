//! A work pool with *helping*, the execution substrate for transactional
//! futures.
//!
//! JTF schedules the bodies of transactional futures on an internal thread
//! pool (paper §III). A bounded pool interacting with blocking primitives
//! (`eval`, `waitTurn`) can deadlock: every worker may be blocked waiting for
//! a task that is still sitting in the queue. This pool therefore exposes
//! [`Pool::help_one`]: any thread about to block may first pull a pending
//! task and run it inline. The `rtf` runtime calls it from every wait loop,
//! which guarantees progress with any pool size ≥ 0 — even `workers = 0`
//! works, with all futures executed by helping threads (degenerating to lazy
//! inline execution).
//!
//! Helping has a soundness constraint that plain work stealing does not:
//! the helper's stack holds *suspended* work (the frames of whatever it was
//! doing when it blocked), and a helped task that transitively waits on
//! those frames can never be satisfied — the thread cannot unwind to them
//! while the helped task sits on top. Tasks therefore carry an optional
//! [`OrderTag`] (their position in a realm-local serialization order), every
//! blocking wait passes the position it is blocked *at*, and
//! [`Pool::help_one`] only runs tagged tasks of the innermost wait's own
//! realm, positioned strictly before it. Fences compose across nested helps
//! through a thread-local stack.
//!
//! Why that suffices, given that helped tasks block too: a wait at position
//! `p` waits only for earlier positions that are not its ancestors, or for
//! positions inside its own subtree, and a helped task sits strictly before
//! the wait it was helped from. The frames suspended beneath a task are the
//! waiting position and its ancestors, each of which comes after the task
//! or is an ancestor of it — so no task ever waits on a frame beneath it.
//! Another realm's task is refused because nothing orders it against the
//! suspended frames: two threads blocked in different trees, each helping a
//! task of the other's tree, could each end up waiting for the frames the
//! other holds suspended.
//!
//! Design: one FIFO queue under a mutex. Workers take the head; a helper
//! takes the first job its fences allow, in place, so a job a fence skips
//! keeps its position. Parked workers sleep on the stack-wide `WaitQueue`
//! primitive (`rtf_txbase::wait`), kept off the fast path by an atomic
//! waiter count.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Robustness gate: production code must not unwrap or panic ad hoc —
// every residual site carries an audited `allow` naming its invariant
// (tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::panic))]

use parking_lot::Mutex;
use rtf_txbase::WaitQueue;
use rtf_txengine::{obs_now_ns, Counter, SpanKind, SpanRec, Telemetry};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work. Tasks are one-shot closures. Panics are *contained* at
/// the pool layer: every task runs under `catch_unwind`, a panicking task
/// neither kills its worker nor unwinds into a helping thread's suspended
/// transaction frames, and the panic is counted as `pool_task_panics`. The
/// payload is dropped here — submitters that need to observe the failure
/// must arrange their own signalling (the `rtf` runtime does, converting an
/// abandoned future task into a structured cancellation via the task's own
/// drop guard).
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A task's position in the serialization order of its *realm* (one
/// transaction tree, in `rtf` terms). Positions are sequences compared
/// lexicographically with the prefix-first rule; tags from different realms
/// are unordered and never constrain each other.
#[derive(Clone, Debug)]
pub struct OrderTag {
    realm: u64,
    pos: Box<[u32]>,
}

impl OrderTag {
    /// Tags a position `pos` in `realm`'s serialization order.
    pub fn new(realm: u64, pos: &[u32]) -> Self {
        OrderTag { realm, pos: pos.into() }
    }

    /// The realm (transaction tree, in `rtf` terms) this tag orders within.
    pub fn realm(&self) -> u64 {
        self.realm
    }
}

/// One queued task plus its (optional) serialization position.
struct Job {
    tag: Option<OrderTag>,
    run: Task,
}

thread_local! {
    /// Serialization positions of every wait the current thread is blocked
    /// at, innermost last. Only the innermost is consulted: every task
    /// helped beneath it was positioned before the fence it was helped
    /// from, so the innermost fence is always the strictest.
    static FENCES: RefCell<Vec<OrderTag>> = const { RefCell::new(Vec::new()) };
}

/// Whether the current thread's innermost fence permits running a task
/// tagged `tag`: only a task of the fence's realm positioned strictly
/// before it. Untagged tasks, and any task on an unfenced thread, are
/// always allowed.
fn fences_allow(tag: &Option<OrderTag>) -> bool {
    let Some(tag) = tag else { return true };
    FENCES.with(|f| match f.borrow().last() {
        Some(fence) => fence.realm == tag.realm && tag.pos < fence.pos,
        None => true,
    })
}

/// RAII frame pushing a fence for the duration of one `help_one` call (the
/// task runs with the fence in place, so its own nested helps respect it).
struct FenceGuard {
    pushed: bool,
}

impl FenceGuard {
    fn push(bound: Option<&OrderTag>) -> Self {
        match bound {
            Some(b) => {
                FENCES.with(|f| f.borrow_mut().push(b.clone()));
                FenceGuard { pushed: true }
            }
            None => FenceGuard { pushed: false },
        }
    }
}

impl Drop for FenceGuard {
    fn drop(&mut self) {
        if self.pushed {
            FENCES.with(|f| {
                f.borrow_mut().pop();
            });
        }
    }
}

struct Shared {
    /// Queued jobs, oldest first.
    queue: Mutex<VecDeque<Job>>,
    /// Idle workers park here (epoch-token protocol, see
    /// `rtf_txbase::wait`); `has_waiters` spares the spawn path a wakeup
    /// call when every worker is busy.
    idle: WaitQueue,
    workers: usize,
    shutdown: AtomicBool,
    telemetry: Arc<Telemetry>,
}

/// Work pool handle. Cloning is cheap; the pool shuts down when the last
/// handle is dropped and all workers parked.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
}

/// A pool handle that does not keep the pool alive ([`Pool::downgrade`]).
/// What the pool's own telemetry reaches — an observer's gauge — must hold
/// this one: an owning handle there is a reference cycle.
pub struct WeakPool {
    shared: Weak<Shared>,
}

impl WeakPool {
    /// The pool, if any owning handle is still alive.
    pub fn upgrade(&self) -> Option<Pool> {
        self.shared.upgrade().map(|shared| Pool { shared })
    }
}

/// Owns the worker threads; dropping it initiates shutdown and joins them.
///
/// # Queued-task fate on drop
///
/// Workers only observe the shutdown flag when the queue is empty, so with
/// `workers > 0` every task enqueued *before* the drop is still executed
/// before the workers exit (tasks enqueued concurrently with the drop may
/// race the last worker's exit). With `workers = 0` nothing drains the
/// queue: the remaining task closures are **dropped, unrun**, when the last
/// [`Pool`] handle goes away — their destructors run, which is what lets a
/// submitter observe abandonment (the `rtf` runtime cancels a future's
/// handle from its task's drop guard). Callers needing a hard guarantee
/// drain via [`Pool::help_one`] before dropping, as the tests do.
pub struct PoolRunner {
    pool: Pool,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Builds a pool with `workers` background threads (0 is allowed: all
    /// tasks then run via [`Pool::help_one`] on helping threads).
    pub fn start(workers: usize) -> PoolRunner {
        Self::start_with_telemetry(workers, Arc::default())
    }

    /// Like [`Pool::start`], but reporting helping, fence deferrals, task
    /// panics and helping spans through `telemetry`.
    pub fn start_with_telemetry(workers: usize, telemetry: Arc<Telemetry>) -> PoolRunner {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            idle: WaitQueue::new(),
            workers,
            shutdown: AtomicBool::new(false),
            telemetry,
        });
        let pool = Pool { shared: Arc::clone(&shared) };
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rtf-worker-{idx}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn rtf worker thread")
            })
            .collect();
        PoolRunner { pool, handles }
    }

    /// Enqueues a task for asynchronous execution.
    pub fn spawn(&self, task: Task) {
        self.push_job(Job { tag: None, run: task });
    }

    /// Enqueues a task carrying its serialization position, so helping
    /// threads can tell whether running it inline is safe (see the module
    /// docs on the helping inversion).
    pub fn spawn_ordered(&self, tag: OrderTag, task: Task) {
        self.push_job(Job { tag: Some(tag), run: task });
    }

    fn push_job(&self, job: Job) {
        self.shared.queue.lock().push_back(job);
        // Wake one parked worker, if any. The waiter check skips the wakeup
        // on the common (all-workers-busy) path; the residual
        // probe-then-park race is bounded by the workers' park timeout.
        if self.shared.idle.has_waiters() {
            self.shared.idle.notify_one();
        }
    }

    /// Runs one pending task inline, if any. Returns `true` when a task was
    /// executed. Called by threads about to block on a condition that some
    /// queued task may be needed to satisfy.
    ///
    /// `bound` is the serialization position the caller is blocked at (if
    /// its realm orders tasks): it becomes the innermost fence, and only a
    /// task of its realm positioned strictly before it is run (see the
    /// module docs). The first queued job the fences allow is taken; the
    /// jobs skipped ahead of it keep their places and are counted as
    /// `pool_fence_deferrals`. `false` means nothing runnable was found,
    /// and the caller should park briefly rather than spin.
    pub fn help_one(&self, bound: Option<&OrderTag>) -> bool {
        let _fence = FenceGuard::push(bound);
        let shared = &self.shared;
        let (job, skipped) = {
            let mut queue = shared.queue.lock();
            let skipped = queue.iter().take_while(|job| !fences_allow(&job.tag)).count();
            (queue.remove(skipped), skipped)
        };
        if skipped > 0 {
            shared.telemetry.count(Counter::PoolFenceDeferrals, skipped as u64);
        }
        let Some(job) = job else { return false };
        let realm = job.tag.as_ref().map(|t| t.realm).unwrap_or(0);
        let t0 = if shared.telemetry.spans() { obs_now_ns() } else { 0 };
        // Containment matters doubly here: the helper's stack holds
        // suspended transaction frames, and a helped task's panic
        // unwinding into them would tear down an innocent bystander.
        let ok = run_contained(shared, job.run);
        if t0 != 0 {
            shared.telemetry.span(SpanRec {
                kind: SpanKind::PoolHelp,
                tree: realm,
                node: 0,
                parent: 0,
                start_ns: t0,
                end_ns: obs_now_ns(),
                ok,
            });
        }
        shared.telemetry.count(Counter::PoolHelpedTasks, 1);
        true
    }

    /// Number of tasks submitted but not yet started.
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// A handle that does not keep the pool alive.
    pub fn downgrade(&self) -> WeakPool {
        WeakPool { shared: Arc::downgrade(&self.shared) }
    }

    /// Strong references to the pool's shared state: every handle, the
    /// runner's and the workers' included. A diagnostic — a count that stays
    /// put across transactions shows that no hot path clones a handle.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.shared)
    }

    /// Number of worker threads serving this pool. Admission controllers
    /// scale their in-flight caps off this: queueing beyond a small multiple
    /// of the worker count buys latency, not throughput.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }
}

impl PoolRunner {
    /// The shareable pool handle.
    pub fn pool(&self) -> Pool {
        self.pool.clone()
    }
}

impl Drop for PoolRunner {
    fn drop(&mut self) {
        self.pool.shared.shutdown.store(true, Ordering::Release);
        self.pool.shared.idle.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs one task with panic containment: an unwinding task is caught, its
/// payload dropped, and the panic counted as `pool_task_panics`.
/// Returns `true` when the task completed normally.
///
/// The `taskpool.task.run` failpoint fires *inside* the containment scope,
/// so an injected panic exercises the same path as a real task panic —
/// including dropping the never-run closure, which is how abandoned
/// transactional futures get cancelled instead of hanging their tree.
fn run_contained(shared: &Shared, task: Task) -> bool {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        rtf_txfault::fail_point!("taskpool.task.run");
        task();
    }));
    if outcome.is_err() {
        shared.telemetry.count(Counter::PoolTaskPanics, 1);
    }
    outcome.is_ok()
}

/// Backstop for the (should-be-unreachable) case of a panic escaping
/// [`run_contained`] — e.g. a panicking observer: if the worker thread unwinds,
/// spawn a detached replacement so the pool keeps its capacity. The
/// replacement exits promptly on shutdown like any worker.
struct WorkerRespawn {
    shared: Arc<Shared>,
}

impl Drop for WorkerRespawn {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.shared.shutdown.load(Ordering::Acquire) {
            let shared = Arc::clone(&self.shared);
            let _ = std::thread::Builder::new()
                .name("rtf-worker-respawn".into())
                .spawn(move || worker_loop(shared));
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let _respawn = WorkerRespawn { shared: Arc::clone(&shared) };
    loop {
        // Token before the queue probe: a push (notify) landing between the
        // probe and the park advances the queue epoch, so the park returns
        // immediately instead of sleeping through the wakeup.
        let token = shared.idle.epoch();
        // Workers run any task unconditionally: an idle worker's stack holds
        // no suspended frames, so no fence applies.
        let job = shared.queue.lock().pop_front();
        if let Some(job) = job {
            run_contained(&shared, job.run);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // A timeout bounds the cost of the one unguarded race (a pusher
        // probing `has_waiters` before this entry appears) to a few ms.
        let _ = shared.idle.park(token, 0, Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn runs_spawned_tasks() {
        let runner = Pool::start(2);
        let pool = runner.pool();
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..100 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn help_one_executes_with_zero_workers() {
        let runner = Pool::start(0);
        let pool = runner.pool();
        let flag = Arc::new(AtomicBool::new(false));
        {
            let flag = Arc::clone(&flag);
            pool.spawn(Box::new(move || flag.store(true, Ordering::Relaxed)));
        }
        assert_eq!(pool.pending(), 1);
        assert!(pool.help_one(None));
        assert!(flag.load(Ordering::Relaxed));
        assert!(!pool.help_one(None));
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn helping_drains_backlog_alongside_workers() {
        let runner = Pool::start(1);
        let pool = runner.pool();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..500 {
            let counter = Arc::clone(&counter);
            pool.spawn(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        while counter.load(Ordering::Relaxed) < 500 {
            pool.help_one(None);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn shutdown_joins_workers() {
        let runner = Pool::start(3);
        let pool = runner.pool();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.spawn(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // Drain before dropping: drop only guarantees joining workers, not
        // that queued tasks ran.
        while counter.load(Ordering::Relaxed) < 50 {
            pool.help_one(None);
            std::hint::spin_loop();
        }
        drop(runner);
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panicking_task_neither_kills_worker_nor_loses_queued_tasks() {
        let runner = Pool::start(1);
        let pool = runner.pool();
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        // A burst of panicking tasks interleaved with real work: the single
        // worker must survive all of them and still run every normal task.
        for i in 0..40 {
            if i % 4 == 0 {
                pool.spawn(Box::new(|| panic!("injected task panic")));
            }
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..40 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn help_one_contains_panics_instead_of_unwinding_the_helper() {
        let runner = Pool::start(0);
        let pool = runner.pool();
        pool.spawn(Box::new(|| panic!("injected task panic")));
        // The panic must not unwind into this (helping) thread.
        assert!(pool.help_one(None));
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn dropped_queued_tasks_run_their_destructors() {
        // With zero workers, tasks still queued at shutdown are dropped
        // unrun — but their captures are destroyed, so submitters can
        // observe the abandonment.
        struct SetOnDrop(Arc<AtomicBool>, Arc<AtomicBool>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.1.store(true, Ordering::Release);
            }
        }
        let ran = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicBool::new(false));
        let runner = Pool::start(0);
        let pool = runner.pool();
        {
            let guard = SetOnDrop(Arc::clone(&ran), Arc::clone(&dropped));
            pool.spawn(Box::new(move || guard.0.store(true, Ordering::Release)));
        }
        drop(runner);
        drop(pool);
        assert!(!ran.load(Ordering::Acquire), "no worker should have run the task");
        assert!(dropped.load(Ordering::Acquire), "queued closure must be destroyed");
    }

    /// A task that records its name when run.
    fn named(log: &Arc<parking_lot::Mutex<Vec<&'static str>>>, name: &'static str) -> Task {
        let log = Arc::clone(log);
        Box::new(move || log.lock().push(name))
    }

    #[test]
    fn a_fenced_out_job_keeps_its_fifo_position() {
        let tel = Arc::new(Telemetry::default());
        let runner = Pool::start_with_telemetry(0, Arc::clone(&tel));
        let pool = runner.pool();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        pool.spawn_ordered(OrderTag::new(1, &[5]), named(&log, "A"));
        pool.spawn_ordered(OrderTag::new(1, &[1]), named(&log, "B"));
        pool.spawn(named(&log, "C"));
        // Blocked at [3] of tree 1: A ([5]) is fenced out, B ([1]) runs.
        assert!(pool.help_one(Some(&OrderTag::new(1, &[3]))));
        assert_eq!(*log.lock(), ["B"]);
        assert_eq!(tel.stats().snapshot().pool_fence_deferrals, 1);
        // A was skipped in place: it is still ahead of C.
        assert!(pool.help_one(None));
        assert!(pool.help_one(None));
        assert_eq!(*log.lock(), ["B", "A", "C"]);
        assert!(!pool.help_one(None));
    }

    #[test]
    fn a_fence_refuses_other_realms_and_later_positions() {
        let runner = Pool::start(0);
        let pool = runner.pool();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        pool.spawn_ordered(OrderTag::new(2, &[0]), named(&log, "other tree"));
        pool.spawn_ordered(OrderTag::new(1, &[3]), named(&log, "same position"));
        pool.spawn_ordered(OrderTag::new(1, &[3, 1]), named(&log, "descendant"));
        assert!(!pool.help_one(Some(&OrderTag::new(1, &[3]))));
        assert!(log.lock().is_empty());
        assert_eq!(pool.pending(), 3);
        // An unfenced thread runs anything, oldest first.
        assert!(pool.help_one(None));
        assert_eq!(*log.lock(), ["other tree"]);
    }

    #[test]
    fn tasks_spawning_tasks() {
        let runner = Pool::start(2);
        let pool = runner.pool();
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..10 {
            let pool2 = pool.clone();
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                let counter = Arc::clone(&counter);
                let tx = tx.clone();
                pool2.spawn(Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(()).unwrap();
                }));
            }));
        }
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }
}
