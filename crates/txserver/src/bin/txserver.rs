//! The STM server binary.
//!
//! ```text
//! txserver [--addr HOST:PORT] [--workers N] [--exec N] [--ordered N]
//!          [--max-inflight N] [--rate R] [--drain-ms N]
//! txserver --soak [--seed S] [--duration-secs N] [--conns N]
//!          [--disconnectors N] [--no-faults]
//! ```
//!
//! Serving mode runs until SIGTERM/SIGINT, then drains gracefully: stops
//! accepting, answers new requests with `SHED_DRAINING`, finishes admitted
//! work under the drain deadline, and exits with the final reconciled
//! accounting on stdout. Telemetry rides the standard environment surface
//! (`RTF_METRICS`, `RTF_METRICS_STREAM`, `RTF_PROM_ADDR`, …) so `txtop`
//! and Prometheus attach without server-side flags.
//!
//! Soak mode (`--soak`) runs the fault-injected harness in-process and
//! exits non-zero if any invariant was violated (build with
//! `--features fault-inject` for the fault plan to bite).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rtf::{BackoffConfig, Rtf};
use rtf_txobs::LiveConfig;
use rtf_txserver::soak::render_soak;
use rtf_txserver::{run_soak, Server, ServerConfig, SoakConfig};

static STOP: AtomicBool = AtomicBool::new(false);

/// SIGTERM/SIGINT handler installed through raw libc `signal` (the
/// workspace vendors no signal crate). Only an atomic store happens in
/// handler context.
extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::Release);
}

fn install_signal_handlers() {
    // SIGINT = 2, SIGTERM = 15 (POSIX-mandated values).
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    v.parse().unwrap_or_else(|_| die(&format!("{flag}: bad value {v:?}")))
}

/// Seeds accept hex (`0xC0FFEE`) like every other seeded binary in the
/// repo, so CI can reuse its fixed seed list verbatim.
fn parse_seed(args: &mut impl Iterator<Item = String>) -> u64 {
    let v = args.next().unwrap_or_else(|| die("--seed needs a value"));
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
    .unwrap_or_else(|| die(&format!("--seed: bad value {v:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("txserver: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut soak = false;
    let mut soak_cfg = SoakConfig::default();
    let mut server_cfg = ServerConfig { addr: "127.0.0.1:7478".into(), ..Default::default() };
    let mut rt_workers = 4usize;
    let mut ordered = 2usize;
    let mut seed = 1u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--soak" => soak = true,
            "--seed" => seed = parse_seed(&mut args),
            "--duration-secs" => {
                soak_cfg.duration = Duration::from_secs(parse(&mut args, "--duration-secs"))
            }
            "--conns" => soak_cfg.conns = parse(&mut args, "--conns"),
            "--disconnectors" => soak_cfg.disconnectors = parse(&mut args, "--disconnectors"),
            "--no-faults" => soak_cfg.faults = false,
            "--addr" => server_cfg.addr = parse(&mut args, "--addr"),
            "--workers" => rt_workers = parse(&mut args, "--workers"),
            "--exec" => server_cfg.exec_workers = parse(&mut args, "--exec"),
            "--ordered" => ordered = parse(&mut args, "--ordered"),
            "--max-inflight" => {
                server_cfg.admission.max_inflight = parse(&mut args, "--max-inflight")
            }
            "--rate" => server_cfg.admission.rate = parse(&mut args, "--rate"),
            "--burst" => server_cfg.admission.burst = parse(&mut args, "--burst"),
            "--per-conn-inflight" => {
                server_cfg.per_conn_inflight = parse(&mut args, "--per-conn-inflight")
            }
            "--drain-ms" => {
                server_cfg.drain_deadline = Duration::from_millis(parse(&mut args, "--drain-ms"))
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    if soak {
        soak_cfg.seed = seed;
        match run_soak(&soak_cfg) {
            Ok(report) => {
                print!("{}", render_soak(&report));
                std::process::exit(if report.passed() { 0 } else { 1 });
            }
            Err(e) => die(&e),
        }
    }

    install_signal_handlers();
    let mut builder = Rtf::builder()
        .workers(rt_workers)
        .max_retries(256)
        .retry_deadline(Duration::from_secs(5))
        .retry_backoff(BackoffConfig {
            base: Duration::from_micros(20),
            cap: Duration::from_millis(2),
            seed,
        })
        .stall_warn(Duration::from_millis(500))
        .stall_abort(Duration::from_secs(5));
    if ordered > 0 {
        builder = builder.ordered(ordered);
    }
    if let Some(live) = LiveConfig::from_env() {
        builder = builder.live_metrics(live);
    }
    let tm = builder.build();
    let server = match Server::start(tm, server_cfg) {
        Ok(s) => s,
        Err(e) => die(&format!("bind failed: {e}")),
    };
    println!("txserver: serving on {}", server.local_addr());

    while !STOP.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("txserver: signal received, draining");
    let report = server.shutdown();
    println!(
        "txserver: drained  admitted {}  completed {}  failed {}  shed {}  drained {}  \
         conn_resets {}  reconciled {}",
        report.admitted,
        report.completed,
        report.failed,
        report.shed,
        report.drained,
        report.conn_resets,
        report.reconciled
    );
    std::process::exit(if report.reconciled { 0 } else { 1 });
}
