//! The live exporter: a background sampler turning an observer into a
//! telemetry stream while the workload runs.
//!
//! [`LiveExporter::start`] spawns one sampler thread that cuts a
//! [`MetricsSnapshot`] on a configurable interval and drives every
//! configured [`LiveSink`]: the JSONL time-series sink (schema
//! [`STREAM_SCHEMA`], one snapshot per line — the `txtop` dashboard and the
//! soak tooling consume this), the Prometheus text-file sink (the latest
//! exposition document, rewritten per tick), and — with the `live-tcp`
//! feature — the `PromServer` scrape endpoint.
//!
//! Lifecycle contract: the sampler emits one line at start, one per
//! interval, and one final line inside [`LiveExporter::stop`] *after* the
//! caller has stopped producing events. Because snapshots are monotone cuts
//! (see [`crate::snapshot`]), the stream's per-line deltas are non-negative
//! and the final line reconciles exactly with an on-drop export taken after
//! `stop` — the property `metrics_check --require-live` enforces in CI.
//!
//! Sampler cost: one `metrics()` call per tick (a few µs of relaxed loads
//! plus the hotspot table lock) and one buffered write per sink — none of
//! it on a transaction's path. EXPERIMENTS.md §O2 measures the end-to-end
//! overhead on a contended workload.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use rtf_txengine::obs_now_ns;

use crate::json::Json;
use crate::obs::{MetricsSnapshot, TxObs};
use crate::prom::render_prometheus;

/// Schema tag of every JSONL stream line.
pub const STREAM_SCHEMA: &str = "rtf-metrics-stream-v1";

/// One pluggable destination driven by the sampler thread.
pub trait LiveSink: Send {
    /// Consumes the `seq`-th snapshot, cut at `t_ns` ([`obs_now_ns`] clock).
    fn tick(&mut self, seq: u64, t_ns: u64, snap: &MetricsSnapshot) -> io::Result<()>;
}

/// Builds one stream line (without the trailing newline): the full
/// `rtf-metrics-v1` document wrapped with the stream envelope.
pub fn stream_line(seq: u64, t_ns: u64, snap: &MetricsSnapshot) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(STREAM_SCHEMA)),
        ("seq".into(), Json::U64(seq)),
        ("t_ns".into(), Json::U64(t_ns)),
        ("metrics".into(), snap.to_json()),
    ])
}

/// Appends one compact JSON document per snapshot to a writer (the
/// time-series stream).
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
}

impl JsonlSink {
    /// Streams to `path` (truncating; parent directories created).
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(JsonlSink::new(Box::new(io::BufWriter::new(std::fs::File::create(path)?))))
    }

    /// Streams to an arbitrary writer (tests, sockets).
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink { out }
    }
}

impl LiveSink for JsonlSink {
    fn tick(&mut self, seq: u64, t_ns: u64, snap: &MetricsSnapshot) -> io::Result<()> {
        let line = stream_line(seq, t_ns, snap).render();
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        // Flush per tick so followers (txtop) see whole lines promptly.
        self.out.flush()
    }
}

/// Rewrites a file with the latest Prometheus exposition document per tick
/// (pull-style exposition without a TCP listener).
pub struct PromTextSink {
    path: PathBuf,
}

impl PromTextSink {
    /// Exposes at `path` (parent directories created on first tick).
    pub fn new(path: PathBuf) -> PromTextSink {
        PromTextSink { path }
    }
}

impl LiveSink for PromTextSink {
    fn tick(&mut self, _seq: u64, _t_ns: u64, snap: &MetricsSnapshot) -> io::Result<()> {
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, render_prometheus(snap))
    }
}

/// What [`LiveExporter::start`] should run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Sampling interval.
    pub interval: Duration,
    /// JSONL time-series destination ([`STREAM_SCHEMA`]).
    pub jsonl: Option<PathBuf>,
    /// Prometheus text-file destination (rewritten per tick).
    pub prom_text: Option<PathBuf>,
    /// Prometheus TCP scrape address (e.g. `127.0.0.1:9464`). Requires the
    /// `live-tcp` feature; warned about and ignored without it.
    pub prom_addr: Option<String>,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            interval: Duration::from_millis(250),
            jsonl: None,
            prom_text: None,
            prom_addr: None,
        }
    }
}

impl LiveConfig {
    /// A config from the environment, or `None` when no live destination is
    /// requested: `RTF_METRICS_STREAM=<path>` (JSONL),
    /// `RTF_PROM_TEXT=<path>`, `RTF_PROM_ADDR=<addr>` and
    /// `RTF_METRICS_STREAM_MS=<n>` (interval, default 250).
    pub fn from_env() -> Option<LiveConfig> {
        fn path(var: &str) -> Option<PathBuf> {
            std::env::var_os(var).filter(|v| !v.is_empty()).map(PathBuf::from)
        }
        let config = LiveConfig {
            interval: std::env::var("RTF_METRICS_STREAM_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .map(Duration::from_millis)
                .unwrap_or(LiveConfig::default().interval),
            jsonl: path("RTF_METRICS_STREAM"),
            prom_text: path("RTF_PROM_TEXT"),
            prom_addr: std::env::var("RTF_PROM_ADDR").ok().filter(|v| !v.is_empty()),
        };
        if config.jsonl.is_none() && config.prom_text.is_none() && config.prom_addr.is_none() {
            return None;
        }
        Some(config)
    }
}

/// Handle to a running sampler. Call [`LiveExporter::stop`] (or drop it)
/// after the workload quiesces and before reading any final export the
/// stream must reconcile with.
pub struct LiveExporter {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
    #[cfg(feature = "live-tcp")]
    server: Option<crate::prom::PromServer>,
}

impl LiveExporter {
    /// Starts the sampler described by `config` over `obs`.
    pub fn start(obs: Arc<TxObs>, config: LiveConfig) -> io::Result<LiveExporter> {
        let mut sinks: Vec<Box<dyn LiveSink>> = Vec::new();
        if let Some(path) = &config.jsonl {
            sinks.push(Box::new(JsonlSink::create(path)?));
        }
        if let Some(path) = &config.prom_text {
            sinks.push(Box::new(PromTextSink::new(path.clone())));
        }
        #[cfg(feature = "live-tcp")]
        let server = match &config.prom_addr {
            Some(addr) => Some(crate::prom::PromServer::start(addr.as_str(), Arc::clone(&obs))?),
            None => None,
        };
        #[cfg(not(feature = "live-tcp"))]
        if config.prom_addr.is_some() {
            eprintln!(
                "[rtf txobs] RTF_PROM_ADDR ignored: rtf-txobs built without the `live-tcp` feature"
            );
        }
        #[cfg_attr(not(feature = "live-tcp"), allow(unused_mut))]
        let mut exporter = LiveExporter::with_sinks(obs, config.interval, sinks);
        #[cfg(feature = "live-tcp")]
        {
            exporter.server = server;
        }
        Ok(exporter)
    }

    /// Starts a sampler over custom sinks.
    pub fn with_sinks(
        obs: Arc<TxObs>,
        interval: Duration,
        mut sinks: Vec<Box<dyn LiveSink>>,
    ) -> LiveExporter {
        let (stop, rx) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("rtf-live".into())
            .spawn(move || {
                let mut seq = 0u64;
                let tick = |seq: u64, sinks: &mut Vec<Box<dyn LiveSink>>| {
                    let snap = obs.metrics();
                    let t_ns = obs_now_ns();
                    // A sink that errors (disk full, closed pipe) is warned
                    // about once and retired; the others keep streaming.
                    sinks.retain_mut(|sink| match sink.tick(seq, t_ns, &snap) {
                        Ok(()) => true,
                        Err(e) => {
                            eprintln!("[rtf txobs] live sink failed, disabling: {e}");
                            false
                        }
                    });
                };
                loop {
                    tick(seq, &mut sinks);
                    seq += 1;
                    match rx.recv_timeout(interval) {
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        // Stop requested (or the handle vanished): cut the
                        // final reconciling snapshot and exit.
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                            tick(seq, &mut sinks);
                            return;
                        }
                    }
                }
            })
            .expect("spawn rtf-live sampler thread");
        LiveExporter {
            stop: Some(stop),
            thread: Some(thread),
            #[cfg(feature = "live-tcp")]
            server: None,
        }
    }

    /// Emits the final snapshot, stops the sampler and joins its thread.
    /// Idempotent.
    pub fn stop(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        #[cfg(feature = "live-tcp")]
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
    }
}

impl Drop for LiveExporter {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsConfig;
    use rtf_txengine::Event;

    fn counters_of(line: &Json) -> Vec<(String, u64)> {
        match line.path(&["metrics", "counters"]).unwrap() {
            Json::Obj(fields) => {
                fields.iter().map(|(k, v)| (k.clone(), v.as_u64().unwrap())).collect()
            }
            other => panic!("counters not an object: {other:?}"),
        }
    }

    #[test]
    fn stream_reconciles_with_a_final_snapshot() {
        use rtf_txengine::EventSink;
        let dir = std::env::temp_dir().join(format!("rtf-live-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
        let config = LiveConfig {
            interval: Duration::from_millis(5),
            jsonl: Some(path.clone()),
            ..LiveConfig::default()
        };
        let mut exporter = LiveExporter::start(Arc::clone(&obs), config).unwrap();
        for i in 0..50 {
            obs.event(Event::Count(crate::Counter::TopCommits, 1));
            obs.event(Event::TopCommitNs(1_000 + i));
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        exporter.stop();
        let final_snap = obs.metrics();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(lines.len() >= 3, "expected >=3 stream lines, got {}", lines.len());
        let mut prev: Option<Vec<(String, u64)>> = None;
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.path(&["schema"]).unwrap().as_str(), Some(STREAM_SCHEMA));
            assert_eq!(line.path(&["seq"]).unwrap().as_u64(), Some(i as u64));
            let counters = counters_of(line);
            if let Some(prev) = &prev {
                // Monotone: every counter is non-decreasing along the stream.
                for ((name, now), (_, before)) in counters.iter().zip(prev) {
                    assert!(now >= before, "counter {name} went backwards: {before} -> {now}");
                }
            }
            prev = Some(counters);
        }
        // The final line reconciles exactly with a snapshot taken after stop.
        let last = lines.last().unwrap();
        assert_eq!(
            last.path(&["metrics", "counters", "top_commits"]).unwrap().as_u64(),
            Some(final_snap.counters.top_commits)
        );
        assert_eq!(
            last.path(&["metrics", "histograms_ns", "commit", "count"]).unwrap().as_u64(),
            Some(final_snap.commit.count)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prom_text_sink_rewrites_latest_exposition() {
        use rtf_txengine::EventSink;
        let dir = std::env::temp_dir().join(format!("rtf-live-prom-{}", std::process::id()));
        let path = dir.join("prom.txt");
        let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
        obs.event(Event::Count(crate::Counter::TopCommits, 1));
        let mut sink = PromTextSink::new(path.clone());
        sink.tick(0, 1, &obs.metrics()).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("rtf_top_commits_total 1"));
        obs.event(Event::Count(crate::Counter::TopCommits, 1));
        sink.tick(1, 2, &obs.metrics()).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("rtf_top_commits_total 2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_env_requires_a_destination() {
        // Destination vars are absent in the test environment unless the
        // harness exports them; guard to keep the test hermetic.
        if std::env::var_os("RTF_METRICS_STREAM").is_none()
            && std::env::var_os("RTF_PROM_TEXT").is_none()
            && std::env::var_os("RTF_PROM_ADDR").is_none()
        {
            assert!(LiveConfig::from_env().is_none());
        }
    }
}
