//! Commit-path micro-benchmarks for the helping commit chain (DESIGN.md
//! §3.7): one uncontended commit, disjoint-footprint commits across
//! threads, a two-box commit, and contended TM-level increments.
//!
//! The parallel samples use `iter_custom` with a barrier-to-last-join
//! clock, one burst per criterion sample, so the chain's serialization of
//! concurrent commits is what the number measures.

use criterion::{criterion_group, criterion_main, Criterion};
use rtf::{Rtf, VBox};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// A TM with a small worker pool.
fn tm() -> Rtf {
    Rtf::builder().workers(2).build()
}

/// Uncontended single-box read-modify-write commit: the envelope cost of
/// one commit through the chain.
fn bench_single_commit(c: &mut Criterion) {
    let tm = tm();
    let b = VBox::new(0u64);
    c.bench_function("commit_path/rw_commit", |bench| {
        bench.iter(|| {
            tm.atomic(|tx| {
                let v = *tx.read(&b);
                tx.write(&b, black_box(v + 1));
            })
        })
    });
}

/// `threads` workers each committing `per_thread` disjoint single-box
/// transactions, timed barrier-to-join: every commit serializes on one
/// tail CAS + clock increment even though footprints never overlap.
fn timed_disjoint_commits(
    tm: &Rtf,
    boxes: &Arc<Vec<VBox<u64>>>,
    threads: usize,
    per_thread: u64,
) -> std::time::Duration {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let tm = tm.clone();
            let boxes = Arc::clone(boxes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let b = boxes[t % boxes.len()].clone();
                barrier.wait();
                for _ in 0..per_thread {
                    let b = b.clone();
                    tm.atomic(move |tx| {
                        let v = *tx.read(&b);
                        tx.write(&b, black_box(v + 1));
                    });
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

fn bench_disjoint_scaling(c: &mut Criterion) {
    let threads = 8usize;
    let tm = tm();
    // One private box per thread: footprints never overlap, so conflicts
    // are impossible — the measured serialization is the chain's, not the
    // workload's.
    let boxes: Arc<Vec<VBox<u64>>> = Arc::new((0..threads).map(|_| VBox::new(0u64)).collect());
    c.bench_function(&format!("commit_path/disjoint_{threads}threads"), |bench| {
        bench.iter_custom(|iters| timed_disjoint_commits(&tm, &boxes, threads, iters.max(1)))
    });
}

/// A transaction reading and writing two boxes: one enqueue carrying a
/// two-entry write-set.
fn bench_two_box(c: &mut Criterion) {
    let tm = tm();
    let (x, y) = (VBox::new(0u64), VBox::new(0u64));
    c.bench_function("commit_path/two_box_commit", |bench| {
        bench.iter(|| {
            tm.atomic(|tx| {
                let a = *tx.read(&x);
                let b = *tx.read(&y);
                tx.write(&x, black_box(a + 1));
                tx.write(&y, black_box(b + 1));
            })
        })
    });
}

/// Contended increments of one shared counter across `threads` workers:
/// retry + validation dominate, the chain only adds its fixed envelope.
fn bench_contended(c: &mut Criterion) {
    let threads = 4usize;
    let tm = tm();
    let counter = VBox::new(0u64);
    c.bench_function(&format!("commit_path/contended_{threads}threads"), |bench| {
        bench.iter_custom(|iters| {
            let barrier = Arc::new(Barrier::new(threads + 1));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let tm = tm.clone();
                    let counter = counter.clone();
                    let barrier = Arc::clone(&barrier);
                    let per_thread = iters.max(1);
                    std::thread::spawn(move || {
                        barrier.wait();
                        for _ in 0..per_thread {
                            let counter = counter.clone();
                            tm.atomic(move |tx| {
                                let v = *tx.read(&counter);
                                tx.write(&counter, black_box(v + 1));
                            });
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
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_single_commit, bench_disjoint_scaling, bench_two_box, bench_contended
}
criterion_main!(benches);
