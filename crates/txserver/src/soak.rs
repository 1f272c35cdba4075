//! Fault-injected soak harness: one call runs server + clients + chaos +
//! drain and verifies the accounting reconciles exactly.
//!
//! The harness is the robustness acceptance test of the serving layer,
//! runnable three ways: `txserver --soak` (CLI), the `soak_smoke` CI job,
//! and the integration tests. A run:
//!
//! 1. builds an ordered runtime with bounded retry budgets, seeded backoff
//!    and the stall-abort watchdog armed — every failure mode typed;
//! 2. starts the server and (with the `fault-inject` feature) installs a
//!    seeded [`rtf_txfault::FaultPlan`] covering the server's own sites
//!    (`txserver.accept`, `txserver.conn.read`, `txserver.conn.write`,
//!    `txserver.exec`) and the runtime's commit/teardown sites;
//! 3. drives seeded closed-loop load plus *disconnector* clients that walk
//!    away mid-pipeline (their FIN with requests still in flight is what
//!    exercises ticket abandonment and the conn-reset accounting);
//! 4. clears the fault plan, drains the server gracefully, and checks:
//!    * `server_admitted == server_completed + server_drained`, zero
//!      leftover in-flight slots (no leaked admissions);
//!    * `tickets_issued == ordered_commits + tickets_abandoned` (no wedged
//!      ordered lane);
//!    * commit chain fully helped (`commit_lane_depth == 0` — no leaked
//!      commit records);
//!    * the run finished inside its wall-clock bound (zero hangs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rtf::{BackoffConfig, Rtf};

use crate::load::{run_load, LoadConfig, LoadReport, Mix, RequestGen};
use crate::protocol::write_frame;
use crate::server::{DrainReport, Server, ServerConfig};

/// Soak-run knobs.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Seed for fault schedules, request streams and disconnect timing.
    pub seed: u64,
    /// Load phase length.
    pub duration: Duration,
    /// Closed-loop client connections.
    pub conns: usize,
    /// Disconnector clients (connect, fire a burst, vanish, repeat).
    pub disconnectors: usize,
    /// Install a fault plan (requires the `fault-inject` feature to have
    /// any effect).
    pub faults: bool,
    /// Server config override.
    pub server: ServerConfig,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            duration: Duration::from_secs(10),
            conns: 4,
            disconnectors: 2,
            faults: true,
            server: ServerConfig::default(),
        }
    }
}

/// Everything a soak run measured and verified.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Server-side accounting at drain.
    pub drain: DrainReport,
    /// Client-side view of the load phase.
    pub load: LoadReport,
    /// Faults injected across all sites (0 without `fault-inject`).
    pub injected_faults: u64,
    /// Faults injected per site, for the sites that injected any.
    pub injected_by_site: Vec<(&'static str, u64)>,
    /// Ordered-lane accounting: tickets issued / committed / abandoned.
    pub tickets: (u64, u64, u64),
    /// Versions garbage-collected (watermark advanced under churn).
    pub versions_gced: u64,
    /// Wall-clock time of the whole run, drain included.
    pub elapsed: Duration,
    /// Violated invariants, empty on success.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The runtime a soak server runs on: ordered (so disconnectors exercise
/// ticket abandonment), bounded retries with seeded backoff, stall
/// watchdog in abort mode.
pub fn soak_runtime(seed: u64) -> Rtf {
    let mut builder = Rtf::builder()
        .workers(4)
        .ordered(2)
        .max_retries(64)
        .retry_deadline(Duration::from_secs(2))
        .retry_backoff(BackoffConfig {
            base: Duration::from_micros(20),
            cap: Duration::from_millis(2),
            seed,
        })
        .stall_warn(Duration::from_millis(500))
        .stall_abort(Duration::from_secs(2));
    // Honor the standard telemetry env surface (`RTF_METRICS_STREAM`, …) so
    // a CI soak leaves a live stream behind for `metrics_check` / `txtop`.
    if let Some(live) = rtf_txobs::LiveConfig::from_env() {
        builder = builder.live_metrics(live);
    }
    builder.build()
}

#[cfg(feature = "fault-inject")]
fn install_faults(seed: u64) {
    use rtf_txfault::{FaultPlan, SiteRule};
    // Rates are per-hit ppm; caps bound total injections so the drain is
    // never fighting an unbounded fault stream. Connection sites use abort /
    // delay only (an injected *panic* in a reader thread would model a
    // server bug, not an environmental fault); `txserver.exec` panics
    // inside the executor's containment, the path a panicking request
    // takes.
    rtf_txfault::install(
        FaultPlan::new(seed)
            .rule(SiteRule::at("txserver.accept").abort(20_000).cap(50))
            .rule(SiteRule::at("txserver.conn.read").abort(2_000).cap(100))
            .rule(SiteRule::at("txserver.conn.write").abort(2_000).cap(100))
            .rule(SiteRule::at("txserver.drain").delay(200_000, 500).cap(20))
            .rule(SiteRule::at("core.subcommit.validate").abort(5_000).cap(500))
            .rule(SiteRule::at("core.teardown.scrub").delay(10_000, 200).cap(200))
            .rule(SiteRule::at("txserver.exec").panic(500).cap(20)),
    );
}

#[cfg(not(feature = "fault-inject"))]
fn install_faults(_seed: u64) {}

/// One disconnector client: connect, write a burst of ordered requests
/// without reading responses, drop the socket mid-flight, repeat. The
/// abrupt FIN with admitted work outstanding is the scenario the chaos
/// satellite pins: tickets already drawn must be abandoned (committed or
/// skipped), never wedged.
fn disconnector(addr: &str, seed: u64, until: Instant, resets: &AtomicU64) {
    let cfg = LoadConfig {
        addr: addr.to_string(),
        ordered: true,
        deadline_ms: 500,
        ..Default::default()
    };
    let mut burst_seed = seed;
    let mut round = 0u64;
    while Instant::now() < until {
        round += 1;
        let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
            thread::sleep(Duration::from_millis(20));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let mut gen = RequestGen::new(&cfg, seed.wrapping_mul(31).wrapping_add(round));
        burst_seed = burst_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let burst = 2 + (burst_seed >> 33) % 14;
        for _ in 0..burst {
            let req = gen.next_request();
            if write_frame(&mut stream, &req.encode()).is_err() {
                break;
            }
        }
        // Walk away without reading a single response: the server sees a
        // clean EOF with work still in flight.
        drop(stream);
        resets.fetch_add(1, Ordering::Relaxed);
        thread::sleep(Duration::from_millis(10 + (burst_seed >> 40) % 40));
    }
}

/// Runs one full soak. Blocking; returns the verified report (violations
/// listed rather than panicking, so callers choose their severity).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let started = Instant::now();
    // Wall-clock bound for the whole run — the "zero hangs" criterion is
    // enforced by construction: every wait below carries a deadline.
    let hard_bound = cfg.duration + 4 * cfg.server.drain_deadline + Duration::from_secs(30);

    let tm = soak_runtime(cfg.seed);
    let server =
        Server::start(tm, cfg.server.clone()).map_err(|e| format!("server start failed: {e}"))?;
    let addr = server.local_addr().to_string();

    if cfg.faults {
        install_faults(cfg.seed);
    }

    let until = Instant::now() + cfg.duration;
    let resets = AtomicU64::new(0);
    let (load, _) = thread::scope(|s| {
        let disconnect_handles: Vec<_> = (0..cfg.disconnectors)
            .map(|i| {
                let addr = addr.clone();
                let resets = &resets;
                let seed = cfg.seed.wrapping_add(0xD15C_0000 + i as u64);
                s.spawn(move || disconnector(&addr, seed, until, resets))
            })
            .collect();
        let load_cfg = LoadConfig {
            addr: addr.clone(),
            conns: cfg.conns,
            duration: cfg.duration,
            pipeline: 8,
            deadline_ms: 1000,
            ordered: true,
            seed: cfg.seed,
            mix: Mix::default(),
            ..Default::default()
        };
        let load = run_load(&load_cfg).unwrap_or_default();
        for h in disconnect_handles {
            let _ = h.join();
        }
        (load, ())
    });

    // Chaos off before the drain: the soak verifies *recovery to a clean
    // stop*, not behavior under a fault stream that never ends.
    let injected_by_site: Vec<_> = rtf_txfault::stats()
        .iter()
        .filter(|r| r.injected() > 0)
        .map(|r| (r.site, r.injected()))
        .collect();
    let injected_faults = injected_by_site.iter().map(|(_, n)| n).sum();
    rtf_txfault::clear();

    let tm = server.tm().clone();
    let drain = server.shutdown();
    let stats = tm.stats();
    let tickets = (stats.tickets_issued, stats.ordered_commits, stats.tickets_abandoned);
    let lane_depth = tm.commit_lane_depth();
    let elapsed = started.elapsed();

    let mut violations = Vec::new();
    if !drain.reconciled {
        violations.push(format!(
            "admission accounting broken: admitted {} != completed {} + drained {} \
             (leftover in-flight {})",
            drain.admitted, drain.completed, drain.drained, drain.leftover_inflight
        ));
    }
    if tickets.0 != tickets.1 + tickets.2 {
        violations.push(format!(
            "ticket accounting broken: issued {} != committed {} + abandoned {}",
            tickets.0, tickets.1, tickets.2
        ));
    }
    if lane_depth != 0 {
        violations.push(format!("commit chain not quiesced: depth {lane_depth} after drain"));
    }
    if drain.admitted == 0 {
        violations.push("no requests admitted — load never reached the server".into());
    }
    if elapsed > hard_bound {
        violations
            .push(format!("run exceeded its wall-clock bound: {:?} > {:?}", elapsed, hard_bound));
    }

    Ok(SoakReport {
        drain,
        load,
        injected_faults,
        injected_by_site,
        tickets,
        versions_gced: stats.versions_gced,
        elapsed,
        violations,
    })
}

/// Renders the soak report for the CLI / CI log.
pub fn render_soak(r: &SoakReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "soak: {} in {:?}  (faults injected: {})",
        if r.passed() { "PASS" } else { "FAIL" },
        r.elapsed,
        r.injected_faults
    );
    if !r.injected_by_site.is_empty() {
        let sites: Vec<_> =
            r.injected_by_site.iter().map(|(site, n)| format!("{site} {n}")).collect();
        let _ = writeln!(out, "faults by site: {}", sites.join("  "));
    }
    let d = &r.drain;
    let _ = writeln!(
        out,
        "server: admitted {}  completed {}  failed {}  shed {}  drained {}  conn_resets {}",
        d.admitted, d.completed, d.failed, d.shed, d.drained, d.conn_resets
    );
    let _ = writeln!(
        out,
        "tickets: issued {}  committed {}  abandoned {}   versions_gced {}",
        r.tickets.0, r.tickets.1, r.tickets.2, r.versions_gced
    );
    let _ = writeln!(out, "client: {}", crate::load::render_report(&r.load).trim_end());
    for v in &r.violations {
        let _ = writeln!(out, "VIOLATION: {v}");
    }
    out
}
