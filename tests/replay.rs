//! Record/replay integration tests for the ordered-commit lane: the same
//! (workload, seed) pair must produce a bit-identical `rtf-replay-v1`
//! artifact — per-lane commit order, final-state hash, lifecycle counters —
//! across repeated runs and across *different* thread counts, and the
//! ordered lane must never change the result of a commutative workload
//! relative to unordered execution. Tickets, not submission timing or the
//! pool size, fix the commit order: a batch whose submissions all run at
//! once produces the artifact of the one-at-a-time run.

use std::sync::Arc;

use rtf::{state_hash, CommitLog, ReplayArtifact, Rtf, RunBudget, VBox};

/// Order-sensitive fold: the final value encodes the exact commit order.
fn mix(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Deterministic per-ticket payload (SplitMix64 over the seed and index).
fn payload(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One recorded run of the order-dependent workload: `tickets` tickets
/// drawn up front (fixing the commit order), executed by `threads` threads
/// round-robin, each folding its payload into its lane's hash chain and
/// bumping a contended shared total.
fn record_run(seed: u64, shards: usize, tickets: usize, threads: usize) -> ReplayArtifact {
    record_run_workers(seed, shards, tickets, threads, 2)
}

/// Same workload with an explicit pool size: a pool without workers must
/// not perturb the artifact either — the ordered gate fixes the commit
/// order.
fn record_run_workers(
    seed: u64,
    shards: usize,
    tickets: usize,
    threads: usize,
    workers: usize,
) -> ReplayArtifact {
    let log = CommitLog::new();
    let tm =
        Rtf::builder().workers(workers).ordered(shards).event_sink(Arc::clone(&log) as _).build();
    let chains: Arc<Vec<VBox<u64>>> = Arc::new((0..shards).map(|_| VBox::new(0u64)).collect());
    let total = VBox::new(0u64);

    let mut per_thread: Vec<Vec<(rtf::OrderedTicket, u64)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for k in 0..tickets {
        // Round-robin with each thread's slice in increasing ticket order:
        // the globally oldest unretired ticket is always at the head of
        // some thread's queue, so turn waits cannot deadlock.
        per_thread[k % threads].push((tm.ticket(), payload(seed, k as u64)));
    }
    let handles: Vec<_> = per_thread
        .into_iter()
        .map(|slice| {
            let tm = tm.clone();
            let chains = Arc::clone(&chains);
            let total = total.clone();
            std::thread::spawn(move || {
                for (ticket, p) in slice {
                    let lane = ticket.ticket().lane as usize;
                    let chains = Arc::clone(&chains);
                    let total = total.clone();
                    tm.run_with(RunBudget::default(), Some(ticket), move |tx| {
                        let acc = *tx.read(&chains[lane]);
                        tx.write(&chains[lane], mix(acc, p));
                        let t = *tx.read(&total);
                        tx.write(&total, t + p % 7);
                    })
                    .expect("ticketed transaction failed");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread crashed");
    }
    let hash =
        state_hash(chains.iter().map(|c| *c.read_committed()).chain([*total.read_committed()]));
    ReplayArtifact::from_run("replay-test", seed, shards as u32, &log, hash, &tm.stats())
}

/// The tentpole claim: same seed ⇒ identical artifact, across ≥3 runs
/// *and* across different thread counts and pool sizes (commit order is
/// data, not scheduling).
#[test]
fn same_seed_is_bit_identical_across_runs_and_thread_counts() {
    for (seed, shards) in [(1u64, 1usize), (7, 2), (0xC0FFEE, 1)] {
        let baseline = record_run(seed, shards, 120, 3);
        assert_eq!(baseline.counters.ordered_commits, 120);
        assert_eq!(baseline.counters.tickets_abandoned, 0);
        for threads in [3, 1, 6] {
            let run = record_run(seed, shards, 120, threads);
            assert_eq!(baseline.diff(&run), None, "seed {seed:#x} diverged at {threads} threads");
        }
        let run = record_run_workers(seed, shards, 120, 3, 0);
        assert_eq!(baseline.diff(&run), None, "seed {seed:#x} diverged on a zero-worker pool");
    }
}

/// The artifact survives its own serialization: parse(to_json) of a *live*
/// run round-trips exactly, so frozen artifacts stay comparable.
#[test]
fn live_artifact_round_trips_through_json() {
    let a = record_run(42, 2, 60, 2);
    let b = ReplayArtifact::parse(&a.to_json().pretty()).expect("round trip");
    assert_eq!(a, b);
    assert_eq!(a.diff(&b), None);
}

/// Different seeds must *not* collide: the state hash separates runs, so a
/// passing diff is evidence, not vacuity.
#[test]
fn different_seeds_diverge() {
    let a = record_run(1, 1, 60, 2);
    let b = record_run(2, 1, 60, 2);
    let d = a.diff(&b).expect("different seeds must diverge");
    assert!(d.contains("seed"), "first divergence should be the seed: {d}");
    assert_ne!(a.state_hash, b.state_hash, "order-dependent hash collided across seeds");
}

/// Cross-mode equivalence: on a commutative workload (pure additions) the
/// ordered lane changes schedules, never results — ordered and unordered
/// runs reach the same final state.
#[test]
fn ordered_and_unordered_agree_on_commutative_workload() {
    let run = |ordered: bool| -> u64 {
        const SLOTS: usize = 4;
        let mut builder = Rtf::builder().workers(2);
        if ordered {
            builder = builder.ordered(2);
        }
        let tm = builder.build();
        let slots: Arc<Vec<VBox<u64>>> = Arc::new((0..SLOTS).map(|_| VBox::new(0u64)).collect());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let tm = tm.clone();
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    for i in 0..80u64 {
                        let r = payload(99, t * 80 + i);
                        let a = (r % SLOTS as u64) as usize;
                        let da = (r >> 32) % 5 + 1;
                        let slots = Arc::clone(&slots);
                        tm.run(move |tx| {
                            let v = *tx.read(&slots[a]);
                            tx.write(&slots[a], v + da);
                        })
                        .expect("commutative transaction failed");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread crashed");
        }
        state_hash(slots.iter().map(|s| *s.read_committed()))
    };
    assert_eq!(run(true), run(false), "the ordered lane changed the result of commutative work");
}

/// The submission-order workload's body: fold `p` into the hash chain,
/// bump the total.
fn step(tx: &mut rtf::Tx, chain: &VBox<u64>, total: &VBox<u64>, p: u64) {
    let acc = *tx.read(chain);
    tx.write(chain, mix(acc, p));
    let t = *tx.read(total);
    tx.write(total, t + p % 7);
}

/// Baseline: `txns` ticketed transactions run one after another from one
/// thread on a two-worker runtime.
fn sequential_artifact(seed: u64, txns: usize) -> ReplayArtifact {
    let log = CommitLog::new();
    let tm = Rtf::builder().workers(2).ordered(1).event_sink(Arc::clone(&log) as _).build();
    let chain = VBox::new(0u64);
    let total = VBox::new(0u64);
    for k in 0..txns {
        let p = payload(seed, k as u64);
        let (chain, total) = (chain.clone(), total.clone());
        tm.run_with(RunBudget::default(), Some(tm.ticket()), move |tx| step(tx, &chain, &total, p))
            .expect("sequential transaction failed");
    }
    let hash = state_hash([*chain.read_committed(), *total.read_committed()]);
    ReplayArtifact::from_run("async-equivalence", seed, 1, &log, hash, &tm.stats())
}

/// Same workload on a zero-worker runtime: all tickets are drawn first,
/// then every transaction gets its own client thread, spawned in reverse
/// ticket order, so the whole batch is in flight at once and all turn
/// waiting happens on client threads (no pool thread exists to help). The
/// artifact must match the sequential baseline.
#[test]
fn zero_worker_async_batch_matches_the_sync_artifact() {
    let seed = 11u64;
    let txns = 40;
    let sync = sequential_artifact(seed, txns);

    let log = CommitLog::new();
    let tm = Rtf::builder().workers(0).ordered(1).event_sink(Arc::clone(&log) as _).build();
    let chain = VBox::new(0u64);
    let total = VBox::new(0u64);
    let batch: Vec<_> = (0..txns).map(|k| (tm.ticket(), payload(seed, k as u64))).collect();
    let clients: Vec<_> = batch
        .into_iter()
        .rev()
        .map(|(ticket, p)| {
            let (tm, chain, total) = (tm.clone(), chain.clone(), total.clone());
            std::thread::spawn(move || {
                tm.run_with(RunBudget::default(), Some(ticket), move |tx| {
                    step(tx, &chain, &total, p)
                })
                .expect("zero-worker batch transaction failed");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread crashed");
    }
    let hash = state_hash([*chain.read_committed(), *total.read_committed()]);
    let batch = ReplayArtifact::from_run("async-equivalence", seed, 1, &log, hash, &tm.stats());
    assert_eq!(sync.diff(&batch), None, "zero-worker batch diverged from the sequential run");
}
