//! Prometheus text exposition (format 0.0.4) for a [`MetricsSnapshot`].
//!
//! [`render_prometheus`] is the pure serve-ready renderer: hand it the
//! latest snapshot and write the string to any transport. Monotone event
//! counters become `rtf_*_total` counters; latency histograms become
//! summaries (`quantile` series plus `_sum`/`_count`, the natural fit for
//! percentiles that are already resolved at snapshot time); sampled gauges,
//! the span-ring high-water mark and the live wait edges become gauges.
//! Abort hotspots export per-cell counters for the `top_n` cells the
//! snapshot retained — a deliberate truncation, flagged by the
//! `rtf_abort_hotspots_truncated` gauge.
//!
//! With the `live-tcp` feature, `PromServer` adds a deliberately tiny
//! blocking HTTP/1.0 endpoint (one thread, one connection at a time) that
//! renders a fresh snapshot per scrape — enough for a Prometheus scraper or
//! `curl`, with no dependency on an HTTP stack.

use std::fmt::Write as _;

use rtf_txbase::Counter;

use crate::hist::HistSnapshot;
use crate::obs::MetricsSnapshot;

fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {v}");
}

fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {v}");
}

fn summary(out: &mut String, name: &str, help: &str, h: &HistSnapshot) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} summary");
    let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
    let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", h.p95);
    let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
    let _ = writeln!(out, "{name}_sum {}", (h.mean * h.count as f64) as u64);
    let _ = writeln!(out, "{name}_count {}", h.count);
    let _ = writeln!(out, "{name}_max {}", h.max);
}

/// Renders `snap` as one Prometheus text-exposition document.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for &c in Counter::ALL {
        counter(&mut out, &format!("rtf_{}_total", c.name()), c.help(), snap.counters.get(c));
    }
    summary(&mut out, "rtf_commit_latency_ns", "Top-level commit-chain latency", &snap.commit);
    summary(&mut out, "rtf_wait_turn_latency_ns", "waitTurn blocking time", &snap.wait_turn);
    summary(&mut out, "rtf_validation_latency_ns", "Validation time", &snap.validation);
    summary(
        &mut out,
        "rtf_future_lifetime_ns",
        "Future submission-to-completion latency",
        &snap.future_lifetime,
    );
    counter(&mut out, "rtf_spans_recorded_total", "Spans recorded into rings", snap.spans_recorded);
    counter(&mut out, "rtf_spans_dropped_total", "Spans shed by full rings", snap.spans_dropped);
    gauge(
        &mut out,
        "rtf_span_ring_high_water",
        "Peak single-ring span occupancy",
        snap.span_ring_high_water,
    );
    for (name, v) in &snap.gauges {
        gauge(&mut out, &format!("rtf_{name}"), "Registered live gauge", *v);
    }
    if !snap.hotspots.is_empty() {
        let name = "rtf_cell_aborts_total";
        let _ = writeln!(out, "# HELP {name} Attributed aborts on the most-conflicted cells");
        let _ = writeln!(out, "# TYPE {name} counter");
        for h in &snap.hotspots {
            for (kind, v) in [
                ("top_validation", h.top_validation),
                ("sub_validation", h.sub_validation),
                ("inter_tree", h.inter_tree),
            ] {
                if v > 0 {
                    let _ = writeln!(out, "{name}{{cell=\"{:x}\",kind=\"{kind}\"}} {v}", h.cell);
                }
            }
        }
        gauge(
            &mut out,
            "rtf_abort_hotspots_truncated",
            "1 when the per-cell abort series covers only the top-N cells",
            1,
        );
    }
    let name = "rtf_wait_sites";
    let _ = writeln!(out, "# HELP {name} Threads currently blocked, by wait kind");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for kind in ["wait_turn", "quiescence", "future_wait", "ticket_wait"] {
        let n = snap.waits.iter().filter(|w| w.kind.name() == kind).count();
        let _ = writeln!(out, "{name}{{kind=\"{kind}\"}} {n}");
    }
    out
}

/// A minimal blocking scrape endpoint serving [`render_prometheus`] over
/// HTTP (feature `live-tcp`).
#[cfg(feature = "live-tcp")]
pub use tcp::PromServer;

#[cfg(feature = "live-tcp")]
mod tcp {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream, ToSocketAddrs};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::render_prometheus;
    use crate::obs::TxObs;

    /// One background thread accepting scrapes sequentially; every request
    /// (whatever the path) gets a fresh snapshot as `text/plain`.
    pub struct PromServer {
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl PromServer {
        /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving scrapes
        /// of `obs`.
        pub fn start(addr: impl ToSocketAddrs, obs: Arc<TxObs>) -> std::io::Result<PromServer> {
            let listener = TcpListener::bind(addr)?;
            let addr = listener.local_addr()?;
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = Arc::clone(&stop);
            let thread = std::thread::Builder::new().name("rtf-prom".into()).spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(stream) = conn {
                        // Scrape errors (a disconnecting client) are the
                        // client's problem; the server must keep serving.
                        let _ = serve_one(stream, &obs);
                    }
                }
            })?;
            Ok(PromServer { addr, stop, thread: Some(thread) })
        }

        /// The bound address (useful with port 0).
        pub fn local_addr(&self) -> std::net::SocketAddr {
            self.addr
        }

        /// Stops the accept loop and joins the serving thread.
        pub fn stop(&mut self) {
            if let Some(thread) = self.thread.take() {
                self.stop.store(true, Ordering::Release);
                // Unblock the accept with one last local connection.
                let _ = TcpStream::connect(self.addr);
                let _ = thread.join();
            }
        }
    }

    impl Drop for PromServer {
        fn drop(&mut self) {
            self.stop();
        }
    }

    fn serve_one(mut stream: TcpStream, obs: &Arc<TxObs>) -> std::io::Result<()> {
        // Read (and discard) the request head; a scraper sends little.
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf)?;
        let body = render_prometheus(&obs.metrics());
        let head = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_covers_counters_summaries_and_gauges() {
        let mut m = MetricsSnapshot::default();
        m.counters.top_commits = 12;
        m.commit = HistSnapshot {
            count: 2,
            mean: 1_500.0,
            p50: 1_000,
            p95: 2_000,
            p99: 2_000,
            max: 2_000,
            buckets: vec![(1_000, 1), (2_000, 1)],
        };
        m.span_ring_high_water = 9;
        m.gauges.push(("pool_queue_depth".into(), 4));
        m.hotspots.push(crate::conflicts::Hotspot {
            cell: 0xff,
            top_validation: 2,
            sub_validation: 0,
            inter_tree: 1,
            last_writer_tree: 3,
        });
        m.waits.push(crate::snapshot::WaitEdge {
            thread: 1,
            depth: 0,
            kind: rtf_txengine::StallKind::TicketWait,
            tree: 2,
            a: 0,
            b: 5,
            waited_ns: 10,
        });
        let text = render_prometheus(&m);
        for needle in [
            "# TYPE rtf_top_commits_total counter",
            "rtf_top_commits_total 12",
            "# TYPE rtf_commit_latency_ns summary",
            "rtf_commit_latency_ns{quantile=\"0.5\"} 1000",
            "rtf_commit_latency_ns_sum 3000",
            "rtf_commit_latency_ns_count 2",
            "rtf_span_ring_high_water 9",
            "rtf_pool_queue_depth 4",
            "rtf_cell_aborts_total{cell=\"ff\",kind=\"top_validation\"} 2",
            "rtf_cell_aborts_total{cell=\"ff\",kind=\"inter_tree\"} 1",
            "rtf_abort_hotspots_truncated 1",
            "rtf_wait_sites{kind=\"ticket_wait\"} 1",
            "rtf_wait_sites{kind=\"quiescence\"} 0",
        ] {
            assert!(text.contains(needle), "exposition missing {needle:?}:\n{text}");
        }
        // Every HELP has a TYPE and every series line parses as name value.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP") || line.starts_with("# TYPE"));
            } else {
                let (_, value) = line.rsplit_once(' ').expect("series line");
                value.parse::<f64>().expect("numeric sample value");
            }
        }
    }

    #[cfg(feature = "live-tcp")]
    #[test]
    fn tcp_endpoint_serves_scrapes() {
        use std::io::{Read, Write};
        let obs = crate::obs::TxObs::new(crate::obs::ObsConfig::default());
        use rtf_txengine::{Event, EventSink};
        obs.event(Event::Count(Counter::TopCommits, 1));
        let mut server = PromServer::start("127.0.0.1:0", std::sync::Arc::clone(&obs)).unwrap();
        for _ in 0..2 {
            let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
            conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.0 200 OK"));
            assert!(response.contains("rtf_top_commits_total 1"));
        }
        server.stop();
    }
}
