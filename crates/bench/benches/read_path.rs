//! Read-path micro-benchmarks for the lock-free `VBoxCell` version list
//! (DESIGN.md §D2): the wait-free head read, the lock-free list walk for
//! older snapshots, reader scaling across threads, and readers racing a
//! committing writer. Numbers before/after the CAS-list rewrite are recorded
//! in `bench_results/README.md`.
//!
//! Only APIs stable across the rewrite are used (`read_at`, `apply_commit`,
//! TM-level reads) — plus [`rtf_txengine::read_pin`], which exists only in
//! the lock-free world: the measured reader loops hold it because that is
//! how the runtime reads (one epoch pin per transaction attempt, reads pin
//! reentrantly). The locked baseline has no epoch machinery, so its runs
//! used the pre-pin bench source; its per-read loop bodies are identical.

use criterion::{criterion_group, criterion_main, Criterion};
use rtf::{Rtf, VBox};
use rtf_txbase::new_write_token;
use rtf_txengine::{erase, read_pin};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// A cell holding `depth` committed versions 1..=depth (watermark 0: no GC).
fn deep_cell(depth: u64) -> VBox<u64> {
    let b = VBox::new(0u64);
    for v in 1..=depth {
        b.cell().apply_commit(v, erase(v), new_write_token(), 0);
    }
    b
}

fn bench_single_thread(c: &mut Criterion) {
    // Wait-free fast path: the newest version satisfies the snapshot, so the
    // read never walks past the head. The pin is held across the batch, as
    // the runtime does per transaction attempt.
    let head = deep_cell(8);
    c.bench_function("read_path/head_hit", |b| {
        let _pin = read_pin();
        b.iter(|| black_box(head.cell().read_at(black_box(8))))
    });

    // The same read paying a fresh era-advertisement fence every time — the
    // cost of a standalone (non-transactional) `read_at` with no ambient pin.
    c.bench_function("read_path/head_hit_unpinned", |b| {
        b.iter(|| black_box(head.cell().read_at(black_box(8))))
    });

    // Snapshot older than the head: the read walks the version list. The
    // walk length is the retained-history depth the GC watermark allows.
    for depth in [16u64, 64] {
        let cell = deep_cell(depth);
        c.bench_function(&format!("read_path/walk_depth_{depth}"), |b| {
            let _pin = read_pin();
            b.iter(|| black_box(cell.cell().read_at(black_box(1))))
        });
    }
}

/// `threads` workers each performing `per_thread` head reads, timed from a
/// barrier release to the last join — the reader-scaling number.
fn timed_parallel_reads(b: &VBox<u64>, threads: usize, per_thread: u64) -> std::time::Duration {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let b = b.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Each worker reads like a transaction: one pin, many reads.
                let _pin = read_pin();
                let snapshot = b.cell().latest_version();
                for _ in 0..per_thread {
                    black_box(b.cell().read_at(black_box(snapshot)));
                }
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    start.elapsed()
}

fn bench_reader_scaling(c: &mut Criterion) {
    for threads in [1usize, 8] {
        let b = deep_cell(8);
        c.bench_function(&format!("read_path/scaling_threads_{threads}"), |bench| {
            bench.iter_custom(|iters| {
                // Spread criterion's iteration budget across the pool so one
                // sample is one barrier-to-join parallel read burst.
                timed_parallel_reads(&b, threads, iters.max(1))
            })
        });
    }
}

fn bench_read_under_commits(c: &mut Criterion) {
    // Reads racing a writer that keeps prepending new versions, with the GC
    // watermark trailing so the list stays short (~4 nodes): the worst case
    // for reader/writer interference on the list head. The reader's
    // `u64::MAX` snapshot always resolves to the current head, so it stays
    // valid no matter how far the writer's watermark advances. The reader
    // pins per 64-read chunk, not across the whole batch: a batch-long pin
    // would block reclamation of everything the writer retires meanwhile
    // (the writer's retire bag grows without bound); chunk pins model short
    // transactions.
    c.bench_function("read_path/read_vs_committing_writer", |bench| {
        bench.iter_custom(|iters| {
            let b = deep_cell(4);
            let stop = Arc::new(AtomicBool::new(false));
            let writer = {
                let b = b.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 5u64;
                    while !stop.load(Ordering::Relaxed) {
                        b.cell().apply_commit(v, erase(v), new_write_token(), v - 3);
                        v += 1;
                    }
                })
            };
            let start = Instant::now();
            let mut left = iters;
            while left > 0 {
                let chunk = left.min(64);
                let _pin = read_pin();
                for _ in 0..chunk {
                    black_box(b.cell().read_at(black_box(u64::MAX)));
                }
                left -= chunk;
            }
            let elapsed = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            writer.join().unwrap();
            elapsed
        })
    });
}

fn bench_tm_level(c: &mut Criterion) {
    // End-to-end: the whole begin/read/commit envelope around one read, and
    // the sub-transaction read path through a future.
    let tm = Rtf::builder().workers(2).build();
    let b = VBox::new(7u64);
    c.bench_function("read_path/tm_ro_read", |bench| {
        bench.iter(|| tm.atomic_ro(|tx| *tx.read(&b)))
    });
    c.bench_function("read_path/tm_future_read", |bench| {
        bench.iter(|| {
            tm.atomic(|tx| {
                let b = b.clone();
                let f = tx.submit(move |tx| *tx.read(&b));
                *tx.eval(&f)
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_single_thread, bench_reader_scaling, bench_read_under_commits, bench_tm_level
}
criterion_main!(benches);
