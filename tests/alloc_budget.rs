//! Heap allocations per top-level transaction, counted by a global
//! allocator: the per-transaction constant in the unit "On the Cost of
//! Concurrency" (PAPERS.md) uses, next to synchronization.
//!
//! Each budget is the mean over 10,000 attempts after a warm-up, on a
//! runtime with no worker threads, so every allocation an attempt makes
//! lands on the measuring thread. A budget allows 0.01 allocation per
//! attempt on top, because a few of 10,000 write commits allocate once
//! more (the one-increment run measured 9.0000–9.0009), while one more
//! allocation in every attempt adds 1. The counter is per thread: tests running
//! in parallel do not disturb each other. A root attempt that submits no
//! future is a plain top-level transaction and builds no transaction tree,
//! so an empty run allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtf::{Rtf, VBox};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not measured.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 1_000;
const ATTEMPTS: u64 = 10_000;

/// Mean allocations per call of `run` on this thread, after a warm-up.
fn allocs_per_attempt(mut run: impl FnMut()) -> f64 {
    for _ in 0..WARM_UP {
        run();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ATTEMPTS {
        run();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / ATTEMPTS as f64
}

fn runtime() -> Rtf {
    Rtf::builder().workers(0).build()
}

/// Asserts that `run`'s mean allocations per attempt stay within `budget`.
fn assert_budget(what: &str, budget: u32, run: impl FnMut()) {
    let n = allocs_per_attempt(run);
    assert!(n <= f64::from(budget) + 0.01, "{what}: {n} allocations per attempt, budget {budget}");
}

#[test]
fn an_empty_run_allocates_nothing() {
    let tm = runtime();
    assert_budget("empty Rtf::run", 0, || tm.run(|_| ()).unwrap());
}

#[test]
fn a_one_read_run_allocates_only_its_read_log() {
    let tm = runtime();
    let b = VBox::new(7u64);
    assert_budget("one-read Rtf::run", 1, || {
        assert_eq!(tm.run(|tx| tx.read_with(&b, |_, v| *v)), Ok(7));
    });
}

#[test]
fn a_one_increment_run_allocates_at_most_nine_times() {
    let tm = runtime();
    let b = VBox::new(0u64);
    assert_budget("one-increment Rtf::run", 9, || {
        tm.run(|tx| {
            let v = tx.read_with(&b, |_, v| *v);
            tx.write(&b, v + 1);
        })
        .unwrap();
    });
    assert_eq!(*b.read_committed(), WARM_UP + ATTEMPTS);
}
