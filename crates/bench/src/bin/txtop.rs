//! `txtop` — a refreshing terminal dashboard over the live telemetry
//! stream (`RTF_METRICS_STREAM` JSONL, schema `rtf-metrics-stream-v1`).
//!
//! Renders throughput (txs/s), abort rate, commit-latency percentiles with
//! a p95 sparkline, the abort-hotspot table, ordered-lane and taskpool
//! queue depths, span-ring health, and the live
//! wait-graph ("who waits on whom") — everything the snapshot carries.
//!
//! Modes:
//!
//! * `txtop --stream FILE` — follows a JSONL stream being written by a
//!   workload running elsewhere (`RTF_METRICS_STREAM=FILE fig5b ...`),
//!   redrawing whenever a new snapshot lands;
//! * `txtop --stream FILE --once` — renders the final frame of a captured
//!   stream once, without ANSI control sequences (the CI mode: proves a
//!   recorded stream is renderable);
//! * `txtop --demo [--secs N]` — runs a contended in-process workload and
//!   dashboards it live (no stream file needed; good for a quick look).
//!
//! `--interval MS` controls the redraw cadence (default 250).
//!
//! Everything is dependency-free: plain ANSI escapes, no TUI crate.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rtf_txobs::{live, Json};

fn fail(msg: &str) -> ! {
    eprintln!("txtop: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!("usage: txtop --stream FILE [--once] [--interval MS] | txtop --demo [--secs N]");
    std::process::exit(2);
}

struct Config {
    stream: Option<PathBuf>,
    once: bool,
    demo: bool,
    interval: Duration,
    secs: u64,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        stream: None,
        once: false,
        demo: false,
        interval: Duration::from_millis(250),
        secs: 10,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("txtop: {name} needs an integer argument");
                usage()
            })
        };
        match arg.as_str() {
            "--stream" => cfg.stream = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--once" => cfg.once = true,
            "--demo" => cfg.demo = true,
            "--interval" => cfg.interval = Duration::from_millis(val("--interval").max(50)),
            "--secs" => cfg.secs = val("--secs").max(1),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if cfg.demo == cfg.stream.is_some() {
        usage(); // exactly one source
    }
    cfg
}

/// One parsed stream line: the sample time plus the full metrics document.
struct Frame {
    t_ns: u64,
    metrics: Json,
}

impl Frame {
    fn parse(line: &str) -> Option<Frame> {
        let doc = Json::parse(line).ok()?;
        if doc.path(&["schema"]).and_then(Json::as_str) != Some(live::STREAM_SCHEMA) {
            return None;
        }
        let t_ns = doc.path(&["t_ns"]).and_then(Json::as_u64)?;
        let metrics = doc.get("metrics")?.clone();
        Some(Frame { t_ns, metrics })
    }

    fn u(&self, path: &[&str]) -> u64 {
        self.metrics.path(path).and_then(Json::as_u64).unwrap_or(0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.u(&["counters", name])
    }
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.2}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.1}")
    }
}

/// Unicode block sparkline of `values`, scaled to the window's own max.
fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values.iter().map(|&v| BLOCKS[((v * 7) / max) as usize]).collect()
}

/// Per-interval rate of a counter between two frames, in events/second.
fn rate(prev: Option<&Frame>, cur: &Frame, name: &str) -> f64 {
    let Some(prev) = prev else { return 0.0 };
    let dt = cur.t_ns.saturating_sub(prev.t_ns) as f64 / 1e9;
    if dt <= 0.0 {
        return 0.0;
    }
    cur.counter(name).saturating_sub(prev.counter(name)) as f64 / dt
}

/// Renders one dashboard frame. `p95_history` is the caller-maintained
/// sparkline window (newest last); `skipped` is the stream's running count
/// of unparsable complete lines (truncated or interleaved writes).
fn render(
    seq: usize,
    prev: Option<&Frame>,
    cur: &Frame,
    p95_history: &[u64],
    skipped: usize,
) -> String {
    let mut out = String::new();
    let commits_rate = rate(prev, cur, "top_commits") + rate(prev, cur, "top_ro_commits");
    let commits = cur.u(&["derived", "commits"]);
    let aborts = cur.u(&["derived", "top_aborts"]);
    let abort_pct =
        if commits + aborts > 0 { 100.0 * aborts as f64 / (commits + aborts) as f64 } else { 0.0 };
    let skipped_note =
        if skipped > 0 { format!(", lines_skipped {skipped}") } else { String::new() };
    out.push_str(&format!(
        "rtf txtop — live transactional-memory telemetry   (snapshot {seq}, t={:.1}s{skipped_note})\n\n",
        cur.t_ns as f64 / 1e9
    ));
    out.push_str(&format!(
        "throughput  {:>8} txs/s    abort rate {:>5.1}%    commits {commits}  aborts {aborts}\n",
        fmt_rate(commits_rate),
        abort_pct
    ));
    out.push_str(&format!(
        "commit      p50 {:>8}  p95 {:>8}  p99 {:>8}  max {:>8}  ({} samples)\n",
        fmt_ns(cur.u(&["histograms_ns", "commit", "p50_ns"])),
        fmt_ns(cur.u(&["histograms_ns", "commit", "p95_ns"])),
        fmt_ns(cur.u(&["histograms_ns", "commit", "p99_ns"])),
        fmt_ns(cur.u(&["histograms_ns", "commit", "max_ns"])),
        cur.u(&["histograms_ns", "commit", "count"]),
    ));
    if p95_history.len() > 1 {
        out.push_str(&format!("p95 trend   {}\n", sparkline(p95_history)));
    }
    let mut depths = Vec::new();
    if let Some(gauges) = cur.metrics.get("gauges").and_then(Json::as_obj) {
        for (name, v) in gauges {
            depths.push(format!("{name} {}", v.as_u64().unwrap_or(0)));
        }
    }
    if !depths.is_empty() {
        out.push_str(&format!("depth       {}\n", depths.join("   ")));
    }
    out.push_str(&format!(
        "spans       recorded {}  dropped {}  ring high-water {}\n",
        cur.u(&["spans", "recorded"]),
        cur.u(&["spans", "dropped"]),
        cur.u(&["spans", "high_water"]),
    ));
    if let Some(hotspots) = cur.metrics.get("abort_hotspots").and_then(Json::as_arr) {
        if !hotspots.is_empty() {
            out.push_str("hotspots    cell               total   top-val  sub-val  inter-tree\n");
            for h in hotspots.iter().take(5) {
                let g = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
                out.push_str(&format!(
                    "            {:#018x} {:>6}   {:>7}  {:>7}  {:>10}\n",
                    g("cell"),
                    g("total"),
                    g("top_validation"),
                    g("sub_validation"),
                    g("inter_tree"),
                ));
            }
        }
    }
    if let Some(waits) = cur.metrics.get("waits").and_then(Json::as_arr) {
        if !waits.is_empty() {
            out.push_str("waits       (who waits on whom)\n");
            for w in waits.iter().take(8) {
                let g = |k: &str| w.get(k).and_then(Json::as_u64).unwrap_or(0);
                let kind = w.get("kind").and_then(Json::as_str).unwrap_or("?");
                out.push_str(&format!(
                    "            t{} {kind} a={} b={} (tree {}, {})\n",
                    g("thread"),
                    g("a"),
                    g("b"),
                    g("tree"),
                    fmt_ns(g("waited_ns")),
                ));
            }
        }
    }
    out
}

/// Everything parsable out of a stream file right now, plus a count of the
/// complete lines that were not.
struct StreamRead {
    frames: Vec<Frame>,
    /// Complete (newline-terminated) lines that failed to parse as frames:
    /// truncated rewrites, interleaved writers, or stray output sharing the
    /// file. A dashboard must shrug these off, not die mid-soak.
    skipped: usize,
}

/// Reads every parsable frame currently in the stream file.
///
/// A live stream is being appended to while we read it, so the final line
/// is often a partial write. Only the newline-terminated prefix is treated
/// as "complete": a trailing unterminated line is parsed opportunistically
/// (a captured stream may simply lack the final newline) but never counted
/// as skipped — it is most likely still being written.
fn read_frames(path: &std::path::Path) -> StreamRead {
    let Ok(text) = std::fs::read_to_string(path) else {
        return StreamRead { frames: Vec::new(), skipped: 0 };
    };
    let (complete, partial) = match text.rfind('\n') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => ("", text.as_str()),
    };
    let mut skipped = 0usize;
    let mut frames: Vec<Frame> = complete
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let f = Frame::parse(l);
            skipped += usize::from(f.is_none());
            f
        })
        .collect();
    if !partial.trim().is_empty() {
        frames.extend(Frame::parse(partial));
    }
    StreamRead { frames, skipped }
}

fn follow(cfg: &Config, path: &std::path::Path) -> ! {
    if cfg.once {
        let StreamRead { frames, skipped } = read_frames(path);
        if frames.is_empty() {
            fail(&format!("{} holds no parsable stream lines", path.display()));
        }
        let p95: Vec<u64> =
            frames.iter().map(|f| f.u(&["histograms_ns", "commit", "p95_ns"])).collect();
        let prev = frames.len().checked_sub(2).map(|i| &frames[i]);
        print!("{}", render(frames.len() - 1, prev, frames.last().unwrap(), &p95, skipped));
        std::process::exit(0);
    }
    let mut seen = 0usize;
    let mut p95_history: Vec<u64> = Vec::new();
    loop {
        let StreamRead { frames, skipped } = read_frames(path);
        if frames.len() > seen {
            seen = frames.len();
            let cur = frames.last().unwrap();
            p95_history.push(cur.u(&["histograms_ns", "commit", "p95_ns"]));
            if p95_history.len() > 60 {
                p95_history.remove(0);
            }
            let prev = frames.len().checked_sub(2).map(|i| &frames[i]);
            // Clear + home, then the frame: a plain redraw, no TUI deps.
            print!("\x1b[2J\x1b[H{}", render(seen - 1, prev, cur, &p95_history, skipped));
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        std::thread::sleep(cfg.interval);
    }
}

/// In-process demo: a contended counter workload sampled directly off its
/// observer — the dashboard without needing a stream file.
fn demo(cfg: &Config) {
    use rtf::{ObsConfig, Rtf, TxObs, VBox};
    let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
    let tm = Rtf::builder().workers(2).observer(Arc::clone(&obs)).build();
    let slots: Arc<Vec<VBox<u64>>> = Arc::new((0..4).map(|_| VBox::new(0u64)).collect());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let tm = tm.clone();
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let slots = Arc::clone(&slots);
                    let a = (w + i as usize) % slots.len();
                    tm.atomic(move |tx| {
                        let v = *tx.read(&slots[a]);
                        tx.write(&slots[a], v + 1);
                        let v0 = *tx.read(&slots[0]);
                        tx.write(&slots[0], v0 + 1);
                    });
                    i += 1;
                }
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(cfg.secs);
    let mut prev: Option<Frame> = None;
    let mut p95_history = Vec::new();
    let mut seq = 0usize;
    while std::time::Instant::now() < deadline {
        let snap = obs.metrics();
        let frame = Frame { t_ns: rtf_txobs::obs_now_ns(), metrics: snap.to_json() };
        p95_history.push(frame.u(&["histograms_ns", "commit", "p95_ns"]));
        if p95_history.len() > 60 {
            p95_history.remove(0);
        }
        print!("\x1b[2J\x1b[H{}", render(seq, prev.as_ref(), &frame, &p95_history, 0));
        use std::io::Write;
        let _ = std::io::stdout().flush();
        prev = Some(frame);
        seq += 1;
        std::thread::sleep(cfg.interval);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }
    println!("\ntxtop: demo done ({} transactions committed)", tm.stats().commits());
}

fn main() {
    let cfg = parse_args();
    if cfg.demo {
        demo(&cfg);
        return;
    }
    let path = cfg.stream.clone().expect("checked in parse_args");
    follow(&cfg, &path);
}
