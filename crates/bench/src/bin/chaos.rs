//! Seeded chaos runner: replays a fig5-style contended future workload
//! under a deterministic fault-injection schedule and checks that the
//! runtime's robustness story holds end to end:
//!
//! * **atomicity / serializability** — per-slot counters and a shared total
//!   stay exactly equal to the sum of the deltas of *successful* runs
//!   (failed runs contribute nothing);
//! * **containment** — injected panics surface as
//!   [`rtf::TxError::FuturePanicked`] rather than crashing workers or
//!   hanging siblings;
//! * **liveness** — the run is bounded: the stall watchdog is armed as a
//!   deadlock backstop, so a wedged wait becomes a structured
//!   `StallAborted` failure (and a non-zero exit) instead of a CI timeout;
//! * **coverage** — with the `fault-inject` feature the run must actually
//!   inject (`--min-injections`, default 10000) across at least
//!   `--min-sites` (default 12) distinct failpoints.
//!
//! The binary always finishes with a deterministic *stall probe*: a
//! transaction whose future outlives a millisecond-scale warn threshold,
//! guaranteeing `stalls_detected > 0` in the exported metrics so
//! `metrics_check --require-stall-probe` can verify the watchdog's export
//! path even in builds without failpoints.
//!
//! With `--ordered SHARDS` the same workload runs through the ordered
//! commit lane (every top-level transaction commits in ticket order): the
//! run additionally checks the ticket lifecycle balances (every issued
//! ticket resolves as exactly one commit or abandonment), records the
//! commit-order log, and — on any invariant violation — dumps it as an
//! `rtf-replay-v1` artifact so the failing schedule can be replayed.
//!
//! Usage: `chaos [--seed N] [--runs N] [--clients N] [--workers N]
//!               [--min-injections N] [--min-sites N] [--ordered SHARDS]
//!               [--quick]`
//!
//! Exit status 0 = all invariants held; 1 = a violation (with a message).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rtf::{Rtf, TxError, VBox};
use rtf_txfault::{decision_stream, FaultPlan, SiteRule};
use rtf_txobs::{CommitLog, ReplayArtifact};

/// Workload size knobs, resolved from the command line.
struct Config {
    seed: u64,
    runs: u64,
    clients: usize,
    workers: usize,
    min_injections: u64,
    min_sites: usize,
    ordered: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed N] [--runs N] [--clients N] [--workers N] \
         [--min-injections N] [--min-sites N] [--ordered SHARDS] [--quick]"
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
        runs: 6_000,
        clients: 4,
        workers: 4,
        min_injections: 10_000,
        min_sites: 12,
        ordered: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| -> u64 {
            args.next().as_deref().and_then(parse_u64).unwrap_or_else(|| {
                eprintln!("chaos: {name} needs an integer argument");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => cfg.seed = val("--seed"),
            "--runs" => cfg.runs = val("--runs"),
            "--clients" => cfg.clients = val("--clients") as usize,
            "--workers" => cfg.workers = val("--workers") as usize,
            "--min-injections" => cfg.min_injections = val("--min-injections"),
            "--min-sites" => cfg.min_sites = val("--min-sites") as usize,
            "--ordered" => cfg.ordered = Some(val("--ordered") as usize),
            "--quick" => {
                cfg.runs = 400;
                cfg.min_injections = 500;
            }
            _ => usage(),
        }
    }
    cfg
}

/// Commit-order recording context, installed for ordered runs so a failure
/// can print a replayable schedule.
static REPLAY: OnceLock<(Arc<CommitLog>, u64, u32)> = OnceLock::new();

fn fail(msg: &str) -> ! {
    eprintln!("chaos: FAIL: {msg}");
    if let Some((log, seed, shards)) = REPLAY.get() {
        // Counters/state are unknown mid-failure; the schedule (per-lane
        // commit order) is the replayable content.
        let artifact = ReplayArtifact::from_run(
            "chaos",
            *seed,
            *shards,
            log,
            0,
            &rtf_txbase::StatSnapshot::default(),
        );
        eprintln!(
            "chaos: replayable commit-order artifact ({} commits so far):\n{}",
            log.len(),
            artifact.to_json().pretty()
        );
    }
    std::process::exit(1);
}

/// The fault schedule: every failpoint family misbehaves, with rates low
/// enough that retries converge and high enough that a few thousand runs
/// inject tens of thousands of faults. Probabilities are per *hit*, and the
/// commit-path sites are hit several times per transaction.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        // Commit-path validation/ordering failures: frequent but cheap —
        // they exercise the real abort/retry machinery.
        .rule(SiteRule::at("mvstm.commit.validate").abort(200_000))
        .rule(SiteRule::at("mvstm.commit.enqueue").abort(60_000).delay(40_000, 50))
        .rule(SiteRule::at("mvstm.commit.writeback").delay(60_000, 50))
        // Ticket handoff (ordered runs only; the site sits before the
        // turn wait, so an abort here must retry at the same position).
        .rule(SiteRule::at("mvstm.commit.ticket").abort(60_000).delay(30_000, 50))
        .rule(SiteRule::at("txengine.cell.*").abort(40_000).delay(20_000, 20))
        // Waiting paths: spurious wakeups and short delays widen races and
        // provoke the watchdog's warn threshold.
        .rule(SiteRule::at("core.wait_turn").abort(40_000).spurious(200_000).delay(40_000, 200))
        .rule(SiteRule::at("core.eval.wait").abort(10_000).spurious(150_000))
        .rule(SiteRule::at("core.subcommit.validate").abort(100_000))
        .rule(SiteRule::at("core.subcommit.propagate").abort(60_000))
        // Task execution: panics here must be contained, never crash a
        // worker permanently, and surface as FuturePanicked.
        .rule(SiteRule::at("core.future.body").abort(80_000).panic(8_000))
        .rule(SiteRule::at("core.future.commit").abort(50_000).panic(4_000))
        .rule(SiteRule::at("taskpool.task.run").panic(4_000).delay(40_000, 100))
        // Teardown: only delays — the scrub must still complete.
        .rule(SiteRule::at("core.teardown.scrub").delay(150_000, 100))
}

const SLOTS: usize = 32;

/// One batch of contended transactions; returns (successes, failures by
/// kind, expected per-slot sums, expected total).
fn run_workload(cfg: &Config) -> (u64, u64, u64) {
    let mut builder = Rtf::builder()
        .workers(cfg.workers)
        // Deadlock backstop: a wait stuck past 5s is a bug — surface it
        // as a structured failure instead of hanging CI.
        .stall_warn(std::time::Duration::from_millis(200))
        .stall_abort(std::time::Duration::from_secs(5));
    if let Some(shards) = cfg.ordered {
        let log = CommitLog::new();
        let _ = REPLAY.set((Arc::clone(&log), cfg.seed, shards.max(1) as u32));
        builder = builder.ordered(shards).event_sink(log);
    }
    let tm = Arc::new(builder.build());
    let slots: Arc<Vec<VBox<u64>>> = Arc::new((0..SLOTS).map(|_| VBox::new(0u64)).collect());
    let total = VBox::new(0u64);

    let expected: Arc<Vec<AtomicU64>> = Arc::new((0..SLOTS).map(|_| AtomicU64::new(0)).collect());
    let ok_runs = Arc::new(AtomicU64::new(0));
    let panicked_runs = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..cfg.clients)
        .map(|client| {
            let tm = Arc::clone(&tm);
            let slots = Arc::clone(&slots);
            let total = total.clone();
            let expected = Arc::clone(&expected);
            let ok_runs = Arc::clone(&ok_runs);
            let panicked_runs = Arc::clone(&panicked_runs);
            let runs = cfg.runs / cfg.clients as u64;
            let seed = cfg.seed;
            std::thread::spawn(move || {
                for i in 0..runs {
                    // Deterministic per-transaction parameters (the fault
                    // stream uses the same generator, different site keys).
                    let r = decision_stream(seed, "workload.tx", client as u64 * runs + i);
                    let a = (r % SLOTS as u64) as usize;
                    let b = ((r >> 16) % SLOTS as u64) as usize;
                    let da = (r >> 32) % 5 + 1;
                    let db = (r >> 48) % 5 + 1;
                    let body = {
                        let slots = Arc::clone(&slots);
                        let total = total.clone();
                        move |tx: &mut rtf::Tx| {
                            let fut = tx.submit({
                                let slots = Arc::clone(&slots);
                                move |tx| {
                                    let v = *tx.read(&slots[a]);
                                    tx.write(&slots[a], v + da);
                                    da
                                }
                            });
                            let v = *tx.read(&slots[b]);
                            tx.write(&slots[b], v + db);
                            let fa = *tx.eval(&fut);
                            let t = *tx.read(&total);
                            tx.write(&total, t + fa + db);
                        }
                    };
                    match tm.run(body) {
                        Ok(()) => {
                            ok_runs.fetch_add(1, Ordering::Relaxed);
                            expected[a].fetch_add(da, Ordering::Relaxed);
                            expected[b].fetch_add(db, Ordering::Relaxed);
                        }
                        Err(TxError::FuturePanicked { .. }) => {
                            panicked_runs.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TxError::StallAborted { kind, waited_ms }) => fail(&format!(
                            "stall backstop fired: {kind} wedged for {waited_ms}ms (deadlock?)"
                        )),
                        Err(e) => fail(&format!("unexpected failure: {e}")),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        if h.join().is_err() {
            fail("a client thread crashed");
        }
    }

    // Counter exactness: committed state must equal the sum of the deltas
    // of successful runs — failed runs must have contributed nothing.
    let mut expected_total = 0u64;
    for (i, slot) in slots.iter().enumerate() {
        let want = expected[i].load(Ordering::Relaxed);
        let got = *slot.read_committed();
        expected_total += want;
        if got != want {
            fail(&format!("slot {i}: committed {got} != expected {want} (lost/phantom update)"));
        }
    }
    let got_total = *total.read_committed();
    if got_total != expected_total {
        fail(&format!("total: committed {got_total} != expected {expected_total}"));
    }
    let stats = tm.stats();
    let ok = ok_runs.load(Ordering::Relaxed);
    if cfg.ordered.is_some() {
        // Ticket lifecycle must balance at quiescence, and every committed
        // run must have flowed through the ordered lane exactly once.
        if stats.ordered_commits + stats.tickets_abandoned != stats.tickets_issued {
            fail(&format!(
                "ticket lifecycle leak: issued {} != commits {} + abandoned {}",
                stats.tickets_issued, stats.ordered_commits, stats.tickets_abandoned
            ));
        }
        if stats.ordered_commits != ok {
            fail(&format!(
                "ordered commits {} != successful runs {ok} (log drift)",
                stats.ordered_commits
            ));
        }
        if let Some((log, ..)) = REPLAY.get() {
            if log.len() as u64 != stats.ordered_commits {
                fail(&format!(
                    "commit log has {} entries but ordered_commits is {}",
                    log.len(),
                    stats.ordered_commits
                ));
            }
        }
        println!(
            "chaos: ordered lane balanced: {} issued = {} commits + {} abandoned",
            stats.tickets_issued, stats.ordered_commits, stats.tickets_abandoned
        );
    }
    (ok, panicked_runs.load(Ordering::Relaxed), stats.future_panics)
}

/// Deterministically trips the starvation watchdog once: a future that
/// outlives a millisecond warn threshold while the continuation waits.
fn stall_probe() {
    let tm = Rtf::builder().workers(2).stall_warn(std::time::Duration::from_millis(2)).build();
    let r = tm.run(|tx| {
        let f = tx.submit(|_tx| {
            std::thread::sleep(std::time::Duration::from_millis(40));
            1u64
        });
        // Park the future on a worker first so eval's wait is a genuine
        // stall rather than one long inline help round.
        std::thread::sleep(std::time::Duration::from_millis(10));
        *tx.eval(&f)
    });
    if r != Ok(1) {
        fail(&format!("stall probe transaction failed: {r:?}"));
    }
    if tm.stats().stalls_detected == 0 {
        fail("stall probe ran but stalls_detected stayed zero");
    }
}

fn main() {
    let cfg = parse_args();
    let injecting = rtf_txfault::enabled();
    if injecting {
        rtf_txfault::install(plan(cfg.seed));
    } else {
        eprintln!(
            "chaos: warning: built without the `fault-inject` feature — \
             running the workload fault-free (coverage checks skipped)"
        );
    }

    let (ok_runs, panicked_runs, future_panics) = run_workload(&cfg);

    if injecting {
        let reports = rtf_txfault::stats();
        let injected: u64 = reports.iter().map(|r| r.injected()).sum();
        let sites_hit = reports.iter().filter(|r| r.hits > 0).count();
        let panics_injected: u64 = reports.iter().map(|r| r.panics).sum();
        println!("chaos: fault schedule (seed {:#x}):", cfg.seed);
        for r in &reports {
            println!(
                "  {:<28} hits {:>8}  aborts {:>6}  panics {:>5}  delays {:>6}  spurious {:>6}",
                r.site, r.hits, r.aborts, r.panics, r.delays, r.spurious
            );
        }
        if sites_hit < cfg.min_sites {
            fail(&format!("only {sites_hit} failpoints were exercised (need {})", cfg.min_sites));
        }
        if injected < cfg.min_injections {
            fail(&format!("only {injected} faults injected (need {})", cfg.min_injections));
        }
        if panics_injected > 0 && panicked_runs == 0 && future_panics == 0 {
            fail(&format!("{panics_injected} panics injected but none surfaced as FuturePanicked"));
        }
        rtf_txfault::clear();
        println!(
            "chaos: {injected} faults across {sites_hit} sites; {ok_runs} commits, \
             {panicked_runs} runs surfaced FuturePanicked ({panics_injected} panics injected)"
        );
    } else {
        println!("chaos: fault-free run: {ok_runs} commits, {panicked_runs} panicked runs");
    }

    stall_probe();
    println!("chaos: ok");
}
