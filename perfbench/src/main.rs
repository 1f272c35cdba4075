//! The rtf stack's benchmark: one seeded workload per run, end-to-end
//! metrics from an untraced run (`--trace 0`) or per-layer metrics from a
//! traced one (`--trace 1`), output checks, and one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/NOTES.md` for the workloads, the metrics and what each
//! should move.

mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use metrics::Metric;
use workloads::{kv::Kv, tpcc::Tpcc, vacation::Vacation, wire::Wire, Phase, Workload};

/// Set-ups per run: at least `MIN_SETUPS`, and more (up to `MAX_SETUPS`)
/// while their total stays under `SETUP_BUDGET`; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the JSON result.
    notes: Vec<String>,
    trace: Option<trace::Tracer>,
}

fn run<W: Workload>(args: &Args) -> Outcome {
    let input = W::input(args.seed);
    let mut setup_times: Vec<Duration> = Vec::with_capacity(MAX_SETUPS);
    let mut instance = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<Duration>() < SETUP_BUDGET)
    {
        if let Some(old) = instance.take() {
            W::discard(old);
        }
        let t0 = Instant::now();
        instance = Some(W::setup(&input));
        setup_times.push(t0.elapsed());
    }
    let mut w = instance.expect("at least one set-up");
    let setup_s = stats::median(setup_times.iter().map(Duration::as_secs_f64).collect());

    let total = Duration::from_secs(args.seconds);
    let warmup = (total / 10).clamp(Duration::from_millis(500), Duration::from_secs(2));
    let _ = w.run(&input, warmup, false);

    let mut notes = vec![format!(
        "setup_s each: {}",
        setup_times.iter().map(|d| format!("{:.4}", d.as_secs_f64())).collect::<Vec<_>>().join(" ")
    )];
    let (phases, metrics, tracer): (Vec<Phase>, Vec<Metric>, _) = if args.trace {
        let untraced = w.run(&input, total / 2, false);
        let mut traced = w.run(&input, total / 2, true);
        let t = traced.trace.take().expect("traced phase records spans");
        let metrics = metrics::per_layer(&untraced, &traced, &t);
        notes.push(format!(
            "trace overhead: untraced {:.1} ops/s, traced {:.1} ops/s, overhead {:.2}%",
            metrics::throughput(&untraced),
            metrics::throughput(&traced),
            metrics[0].value
        ));
        (vec![untraced, traced], metrics, Some(t))
    } else {
        let p = w.run(&input, total, false);
        let metrics = metrics::end_to_end(setup_s, &p, sys::peak_rss_mb());
        notes.push(format!(
            "ops/s per slice: {}",
            (0..p.rec.tallies.len())
                .map(|i| format!("{:.0}", p.rec.tallies[i].succeeded() as f64 / p.slice_secs(i)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        (vec![p], metrics, None)
    };
    let check = w.finish();
    if let Err(e) = &check {
        notes.push(format!("OUTPUT CHECK FAILED: {e}"));
    }
    Outcome {
        correct: check.is_ok(),
        attempted: phases.iter().map(|p| p.rec.total().attempted()).sum(),
        failed: phases.iter().map(|p| p.rec.total().failed).sum(),
        metrics,
        notes,
        trace: tracer,
    }
}

fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // The runtime attaches exporters and tracing from RTF_* variables; a
    // measured run must not inherit any.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("RTF_") {
            std::env::remove_var(k);
        }
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = sys::Host::probe(manifest.parent().expect("benchmark sits inside the repository"));
    let outcome = match args.workload.as_str() {
        "kv_zipf" => run::<Kv>(&args),
        "vacation_futures" => run::<Vacation>(&args),
        "wire_mix" => run::<Wire>(&args),
        "tpcc_futures" => run::<Tpcc>(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} \
                 (kv_zipf, vacation_futures, wire_mix, tpcc_futures)"
            );
            std::process::exit(2);
        }
    };

    let header = format!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" git={} \
         source={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu,
        host.git_rev,
        host.source,
        host.rustc
    );
    println!("{header}");
    for n in &outcome.notes {
        println!("# {n}");
    }
    for m in &outcome.metrics {
        println!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let json = result_json(&outcome);

    // Keep a copy of the result (and the spans of a traced run) on disk.
    let out_dir = manifest.join("out");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let saved = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(out_dir.join(format!("{stem}.txt")), format!("{header}\n{json}\n"))?;
        match &outcome.trace {
            Some(t) => std::fs::write(out_dir.join(format!("{stem}.spans.tsv")), t.to_tsv()),
            None => Ok(()),
        }
    });
    if let Err(e) = saved {
        eprintln!("perfbench: could not save results under {}: {e}", out_dir.display());
    }
    println!("{json}");
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 2,
            metrics: vec![
                Metric { name: "setup_s", unit: "s", value: 0.8127 },
                Metric { name: "latency_p50_us", unit: "us", value: 1.5 },
            ],
            notes: Vec::new(),
            trace: None,
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 2, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
