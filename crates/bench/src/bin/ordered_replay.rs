//! Record/replay determinism harness for the ordered-commit lane.
//!
//! The ordered lane's contract is that the *commit order is data, not
//! scheduling*: tickets drawn in a fixed order commit in that order, no
//! matter how threads interleave, how often validation aborts force
//! retries, or what (non-fatal) faults a `txfault` plan injects. This
//! binary turns that contract into a CI check:
//!
//! 1. **Determinism** — an order-*dependent* workload (per-lane hash
//!    chains, where the final value encodes the exact commit order, plus a
//!    contended shared total to force retries) is recorded `--repeat` times
//!    with the same seed but a *different thread count each repeat*. Every
//!    run must produce a bit-identical `rtf-replay-v1` artifact: same
//!    per-lane commit order, same final-state hash, same lifecycle
//!    counters.
//! 2. **Cross-mode equivalence** — a commutative workload runs once
//!    through the ordered lane and once unordered; both must reach the
//!    same final state (ordering changes schedules, never results).
//! 3. **Record / verify** — `--record FILE` freezes run 0's artifact;
//!    `--verify FILE` replays and diffs against a frozen artifact, naming
//!    the first divergence on mismatch.
//!
//! With the `fault-inject` feature a seeded abort/delay/spurious fault
//! plan is (re)installed before every repeat. Panic rules are deliberately
//! absent: *which* transaction a probabilistic panic lands on is a
//! scheduling choice, so panics are exercised by `chaos`, not here.
//!
//! Usage: `ordered_replay [--seed N] [--shards N] [--tickets N]
//!                        [--threads N] [--repeat N] [--record FILE]
//!                        [--verify FILE] [--metrics FILE] [--quick]`
//!
//! Exit status 0 = deterministic; 1 = a divergence (with the first diff).

use std::path::PathBuf;
use std::sync::Arc;

use rtf::{state_hash, CommitLog, ReplayArtifact, Rtf, RunBudget, TxObs, VBox};
use rtf_benchkit::MetricsSidecar;
use rtf_txfault::{decision_stream, FaultPlan, SiteRule};

struct Config {
    seed: u64,
    shards: usize,
    tickets: usize,
    threads: usize,
    repeat: usize,
    record: Option<PathBuf>,
    verify: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ordered_replay [--seed N] [--shards N] [--tickets N] [--threads N] \
         [--repeat N] [--record FILE] [--verify FILE] [--metrics FILE] [--quick]"
    );
    std::process::exit(2);
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args() -> Config {
    let mut cfg = Config {
        seed: 0xC0FFEE,
        shards: 1,
        tickets: 600,
        threads: 4,
        repeat: 3,
        record: None,
        verify: None,
        metrics: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut raw = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("ordered_replay: {name} needs an argument");
                usage()
            })
        };
        let mut val = |name: &str| -> u64 {
            let v = raw(name);
            parse_u64(&v).unwrap_or_else(|| {
                eprintln!("ordered_replay: {name} needs an integer, got {v:?}");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => cfg.seed = val("--seed"),
            "--shards" => cfg.shards = val("--shards") as usize,
            "--tickets" => cfg.tickets = val("--tickets") as usize,
            "--threads" => cfg.threads = (val("--threads") as usize).max(1),
            "--repeat" => cfg.repeat = (val("--repeat") as usize).max(1),
            "--record" => cfg.record = Some(PathBuf::from(raw("--record"))),
            "--verify" => cfg.verify = Some(PathBuf::from(raw("--verify"))),
            "--metrics" => cfg.metrics = Some(PathBuf::from(raw("--metrics"))),
            "--quick" => cfg.tickets = 200,
            _ => usage(),
        }
    }
    cfg
}

fn fail(msg: &str) -> ! {
    eprintln!("ordered_replay: FAIL: {msg}");
    std::process::exit(1);
}

/// The deterministic fault plan: aborts force ticket-preserving retries,
/// delays and spurious wakeups widen the speculation window. No panics —
/// see the module docs.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(SiteRule::at("mvstm.commit.validate").abort(100_000))
        .rule(SiteRule::at("mvstm.commit.ticket").abort(60_000).delay(40_000, 50))
        .rule(SiteRule::at("core.wait_turn").spurious(150_000).delay(30_000, 100))
        .rule(SiteRule::at("txengine.cell.*").delay(20_000, 20))
}

/// Order-sensitive accumulator: `mix(mix(0, a), b) != mix(mix(0, b), a)`,
/// so a lane's final chain value encodes its exact commit order.
fn mix(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// One recorded run of the order-dependent workload: draws `cfg.tickets`
/// tickets up front (pinning the commit order to the draw order), executes
/// them on `threads` threads round-robin, and freezes the run into an
/// artifact. Each transaction folds its payload into its *lane's* hash
/// chain — per-lane state keeps the final value deterministic for any
/// shard count — and bumps a shared total that all lanes contend on.
fn run_once(cfg: &Config, threads: usize, obs: Option<&Arc<TxObs>>) -> ReplayArtifact {
    if rtf_txfault::enabled() {
        // Reinstall per run: fault decisions are per-site hit counters, so
        // a fresh plan makes the repeats literally identical. (The artifact
        // must not depend on this — aborts only cause retries — but the
        // stronger setup keeps the check honest.)
        rtf_txfault::install(plan(cfg.seed));
    }
    let mut builder = Rtf::builder()
        .workers(2)
        .ordered(cfg.shards)
        .stall_warn(std::time::Duration::from_millis(500));
    if let Some(obs) = obs {
        builder = builder.observer(Arc::clone(obs));
    }
    let log = CommitLog::new();
    builder = builder.event_sink(Arc::clone(&log) as _);
    let tm = builder.build();

    let shards = cfg.shards.max(1);
    let chains: Arc<Vec<VBox<u64>>> = Arc::new((0..shards).map(|_| VBox::new(0u64)).collect());
    let total = VBox::new(0u64);

    // Draw every ticket on this thread, in payload order: commit order is
    // now fixed, before any worker has run anything.
    let mut per_thread: Vec<Vec<(rtf::OrderedTicket, u64)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for k in 0..cfg.tickets {
        let ticket = tm.ticket();
        let payload = decision_stream(cfg.seed, "ordered_replay.payload", k as u64);
        // Round-robin, each thread's slice in increasing ticket order: the
        // globally oldest unretired ticket is always at the head of some
        // thread's queue, so turn waits cannot deadlock while threads still
        // speculate out of order against each other.
        per_thread[k % threads].push((ticket, payload));
    }

    let handles: Vec<_> = per_thread
        .into_iter()
        .map(|slice| {
            let tm = tm.clone();
            let chains = Arc::clone(&chains);
            let total = total.clone();
            std::thread::spawn(move || {
                for (ticket, payload) in slice {
                    let lane = ticket.ticket().lane as usize;
                    let chains = Arc::clone(&chains);
                    let total = total.clone();
                    let r = tm.run_with(RunBudget::default(), Some(ticket), move |tx| {
                        let acc = *tx.read(&chains[lane]);
                        tx.write(&chains[lane], mix(acc, payload));
                        let t = *tx.read(&total);
                        tx.write(&total, t + payload % 7);
                    });
                    if let Err(e) = r {
                        fail(&format!("ticketed transaction failed: {e}"));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        if h.join().is_err() {
            fail("a submitter thread crashed");
        }
    }

    let hash =
        state_hash(chains.iter().map(|c| *c.read_committed()).chain([*total.read_committed()]));
    ReplayArtifact::from_run("hashchain", cfg.seed, shards as u32, &log, hash, &tm.stats())
}

/// The commutative workload for cross-mode equivalence: concurrent
/// additions into a few hot slots. The final state is the sum of the
/// applied deltas — independent of commit order by construction — so the
/// ordered and unordered runs must agree exactly.
fn run_commutative(cfg: &Config, ordered: bool, obs: Option<&Arc<TxObs>>) -> u64 {
    if rtf_txfault::enabled() {
        rtf_txfault::install(plan(cfg.seed));
    }
    const SLOTS: usize = 8;
    let mut builder = Rtf::builder().workers(2).stall_warn(std::time::Duration::from_millis(500));
    if ordered {
        builder = builder.ordered(cfg.shards);
    }
    if let Some(obs) = obs {
        builder = builder.observer(Arc::clone(obs));
    }
    let tm = builder.build();
    let slots: Arc<Vec<VBox<u64>>> = Arc::new((0..SLOTS).map(|_| VBox::new(0u64)).collect());
    let per_thread = cfg.tickets / cfg.threads.max(1);

    let handles: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let tm = tm.clone();
            let slots = Arc::clone(&slots);
            let seed = cfg.seed;
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let r =
                        decision_stream(seed, "ordered_replay.slot", (t * per_thread + i) as u64);
                    let a = (r % SLOTS as u64) as usize;
                    let b = ((r >> 16) % SLOTS as u64) as usize;
                    let da = (r >> 32) % 5 + 1;
                    let db = (r >> 48) % 5 + 1;
                    let slots = Arc::clone(&slots);
                    tm.run(move |tx| {
                        let v = *tx.read(&slots[a]);
                        tx.write(&slots[a], v + da);
                        let v = *tx.read(&slots[b]);
                        tx.write(&slots[b], v + db);
                    })
                    .unwrap_or_else(|e| fail(&format!("commutative transaction failed: {e}")));
                }
            })
        })
        .collect();
    for h in handles {
        if h.join().is_err() {
            fail("a commutative-workload thread crashed");
        }
    }
    state_hash(slots.iter().map(|s| *s.read_committed()))
}

fn main() {
    let cfg = parse_args();
    if !rtf_txfault::enabled() {
        eprintln!(
            "ordered_replay: note: built without the `fault-inject` feature — \
             recording fault-free runs"
        );
    }
    let sidecar = cfg.metrics.as_ref().map(|_| MetricsSidecar::new("ordered_replay"));
    let obs = sidecar.as_ref().map(|s| Arc::clone(s.obs()));

    // Determinism: same seed, varying thread counts, identical artifacts.
    let thread_plans: Vec<usize> = (0..cfg.repeat)
        .map(|i| match i % 3 {
            0 => cfg.threads,
            1 => (cfg.threads * 2).max(2),
            _ => (cfg.threads / 2).max(1),
        })
        .collect();
    let mut runs = Vec::new();
    for (i, &threads) in thread_plans.iter().enumerate() {
        let artifact = run_once(&cfg, threads, obs.as_ref());
        println!(
            "ordered_replay: run {i} ({threads} threads): {} commits, state hash {:#018x}",
            artifact.counters.ordered_commits, artifact.state_hash
        );
        runs.push(artifact);
    }
    let baseline = &runs[0];
    if baseline.counters.ordered_commits != cfg.tickets as u64 {
        fail(&format!(
            "expected {} ordered commits, got {}",
            cfg.tickets, baseline.counters.ordered_commits
        ));
    }
    if baseline.counters.tickets_abandoned != 0 {
        fail(&format!(
            "{} tickets abandoned in a workload that never aborts",
            baseline.counters.tickets_abandoned
        ));
    }
    for (l, lane) in baseline.lanes.iter().enumerate() {
        if lane.iter().enumerate().any(|(i, &s)| s != i as u64) {
            fail(&format!("lane {l} commit order is not the dense ticket order: {lane:?}"));
        }
    }
    for (i, run) in runs.iter().enumerate().skip(1) {
        if let Some(d) = baseline.diff(run) {
            fail(&format!("run {i} diverged from run 0: {d}"));
        }
    }
    println!(
        "ordered_replay: {} runs identical (seed {:#x}, {} shards, {} tickets)",
        runs.len(),
        cfg.seed,
        baseline.shards,
        cfg.tickets
    );

    if let Some(path) = &cfg.verify {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
        let frozen = ReplayArtifact::parse(&text)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        if let Some(d) = frozen.diff(baseline) {
            fail(&format!("replay diverged from {}: {d}", path.display()));
        }
        println!("ordered_replay: replay matches {}", path.display());
    }
    if let Some(path) = &cfg.record {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, baseline.to_json().pretty())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        println!("ordered_replay: artifact recorded to {}", path.display());
    }

    // Cross-mode equivalence on the commutative workload.
    let ordered_hash = run_commutative(&cfg, true, obs.as_ref());
    let unordered_hash = run_commutative(&cfg, false, obs.as_ref());
    if ordered_hash != unordered_hash {
        fail(&format!(
            "cross-mode divergence on a commutative workload: ordered {ordered_hash:#018x} \
             != unordered {unordered_hash:#018x}"
        ));
    }
    println!("ordered_replay: ordered and unordered agree on the commutative workload");

    if let (Some(path), Some(sidecar)) = (&cfg.metrics, &sidecar) {
        sidecar
            .write_to(path)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        println!("ordered_replay: metrics written to {}", path.display());
    }
    if rtf_txfault::enabled() {
        rtf_txfault::clear();
    }
    println!("ordered_replay: ok");
}
