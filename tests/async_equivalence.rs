//! Submission-order equivalence for the ordered lane: a batch of ticketed
//! transactions whose tickets are all drawn up front and whose submissions
//! then run asynchronously to one another — every transaction in flight at
//! once, started in reverse ticket order — must produce the same
//! `rtf-replay-v1` artifact as the workload run one transaction at a time.
//! Tickets, not submission timing or the pool size, fix the commit order.

use std::sync::Arc;

use rtf::{state_hash, CommitLog, ReplayArtifact, Rtf, VBox};

/// Order-sensitive fold: the final value encodes the exact commit order.
fn mix(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Deterministic per-transaction payload (SplitMix64 over seed and index).
fn payload(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The transaction body: fold `p` into the hash chain, bump the total.
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
        tm.run_ticketed(tm.ticket(), move |tx| step(tx, &chain, &total, p))
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
                tm.run_ticketed(ticket, move |tx| step(tx, &chain, &total, p))
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
