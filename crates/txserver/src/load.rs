//! Load generation: Zipfian key skew, closed- and open-loop drivers,
//! per-operation latency recording, and tail-latency SLO checks.
//!
//! The same machinery serves the `txload` binary and the soak harness's
//! in-process clients. Everything is seeded: two runs with the same
//! [`LoadConfig`] produce the same request streams.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rtf_benchkit::measure::LatencyStats;

use crate::protocol::{read_frame, write_frame, OpCode, Request, Response, Status, FLAG_ORDERED};

/// Next draw of the seedable `splitmix64` stream kept in `state`.
fn next_u64(state: &mut u64) -> u64 {
    let r = rtf_txfault::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    r
}

fn next_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// YCSB-style Zipfian generator over `0..n` with skew `theta`
/// (Gray et al.'s rejection-free incremental method).
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// A generator over `0..n` with skew `theta` (`0.99` is the YCSB
    /// default; `0.0` degenerates to uniform).
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Next key, advancing `state`.
    pub fn sample(&self, state: &mut u64) -> u64 {
        if self.theta == 0.0 {
            return next_u64(state) % self.n;
        }
        let u = next_f64(state);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.n
    }
}

/// Operation mix, in parts (normalized internally). The default is a
/// KV-heavy read-mostly mix with a tail of Vacation and TPC-C traffic.
#[derive(Clone, Debug)]
pub struct Mix {
    /// KV_GET parts.
    pub kv_get: u32,
    /// KV_PUT parts.
    pub kv_put: u32,
    /// KV_INCR parts.
    pub kv_incr: u32,
    /// KV_CAS parts.
    pub kv_cas: u32,
    /// VAC_RESERVE parts.
    pub vac_reserve: u32,
    /// VAC_BILL parts.
    pub vac_bill: u32,
    /// TPCC_PAYMENT parts.
    pub tpcc_payment: u32,
    /// TPCC_STOCK_LEVEL parts.
    pub tpcc_stock: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            kv_get: 50,
            kv_put: 20,
            kv_incr: 10,
            kv_cas: 5,
            vac_reserve: 5,
            vac_bill: 2,
            tpcc_payment: 5,
            tpcc_stock: 3,
        }
    }
}

impl Mix {
    fn total(&self) -> u32 {
        self.kv_get
            + self.kv_put
            + self.kv_incr
            + self.kv_cas
            + self.vac_reserve
            + self.vac_bill
            + self.tpcc_payment
            + self.tpcc_stock
    }
}

/// Load-driver knobs.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Closed loop: in-flight pipeline depth per connection. Open loop:
    /// ignored.
    pub pipeline: usize,
    /// Open-loop target rate, requests/second across all connections.
    /// `None` = closed loop.
    pub rate: Option<f64>,
    /// Zipfian skew over the key space (`0.99` = YCSB default).
    pub zipf_theta: f64,
    /// KV key-space size.
    pub keys: u64,
    /// Relative deadline stamped on every request (0 = none).
    pub deadline_ms: u16,
    /// Request ordered commit on read-write ops.
    pub ordered: bool,
    /// Stream seed.
    pub seed: u64,
    /// Operation mix.
    pub mix: Mix,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            conns: 4,
            duration: Duration::from_secs(5),
            pipeline: 8,
            rate: None,
            zipf_theta: 0.99,
            keys: 4096,
            deadline_ms: 0,
            ordered: false,
            seed: 0x10AD,
            mix: Mix::default(),
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// `Status::Ok` responses.
    pub ok: u64,
    /// Overload sheds (any `Shed*` status).
    pub shed: u64,
    /// Typed transaction errors (`Err*` statuses).
    pub errors: u64,
    /// Responses by status byte (index = wire value).
    pub by_status: [u64; 10],
    /// Responses that never arrived (connection died / run ended).
    pub lost: u64,
    /// End-to-end latency of OK responses.
    pub latency: LatencyStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Achieved goodput (OK responses per second).
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Tail-latency / shed-rate SLO check. `Err` carries a human-readable
    /// violation description.
    pub fn check_slo(&self, p99_ms: f64, max_shed_frac: f64) -> Result<(), String> {
        let p99 = self.latency.p99_ns as f64 / 1e6;
        if self.ok > 0 && p99 > p99_ms {
            return Err(format!("p99 {:.2}ms exceeds SLO {:.2}ms", p99, p99_ms));
        }
        let replied = self.sent.saturating_sub(self.lost);
        if replied > 0 {
            let frac = self.shed as f64 / replied as f64;
            if frac > max_shed_frac {
                return Err(format!(
                    "shed fraction {:.3} exceeds SLO {:.3} (shed {} of {})",
                    frac, max_shed_frac, self.shed, replied
                ));
            }
        }
        Ok(())
    }

    fn absorb(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.lost += other.lost;
        for (a, b) in self.by_status.iter_mut().zip(other.by_status) {
            *a += b;
        }
    }
}

/// Seeded request generator (one per connection).
pub struct RequestGen {
    state: u64,
    zipf: Zipfian,
    mix: Mix,
    mix_total: u32,
    deadline_ms: u16,
    ordered: bool,
    next_id: u64,
}

impl RequestGen {
    /// A generator with its own substream of `cfg.seed`.
    pub fn new(cfg: &LoadConfig, stream: u64) -> RequestGen {
        RequestGen {
            state: cfg.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
            zipf: Zipfian::new(cfg.keys.max(1), cfg.zipf_theta),
            mix: cfg.mix.clone(),
            mix_total: cfg.mix.total().max(1),
            deadline_ms: cfg.deadline_ms,
            ordered: cfg.ordered,
            next_id: stream << 48,
        }
    }

    /// Next request in the stream.
    pub fn next_request(&mut self) -> Request {
        let key = self.zipf.sample(&mut self.state);
        let r = next_u64(&mut self.state) % self.mix_total as u64;
        let mut cut = 0u64;
        let mut pick = |parts: u32| {
            cut += parts as u64;
            r < cut
        };
        let (op, body) = if pick(self.mix.kv_get) {
            (OpCode::KvGet, key.to_le_bytes().to_vec())
        } else if pick(self.mix.kv_put) {
            let mut b = key.to_le_bytes().to_vec();
            b.extend_from_slice(&next_u64(&mut self.state).to_le_bytes());
            (OpCode::KvPut, b)
        } else if pick(self.mix.kv_incr) {
            let mut b = key.to_le_bytes().to_vec();
            b.extend_from_slice(&1u64.to_le_bytes());
            (OpCode::KvIncr, b)
        } else if pick(self.mix.kv_cas) {
            let mut b = key.to_le_bytes().to_vec();
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&next_u64(&mut self.state).to_le_bytes());
            (OpCode::KvCas, b)
        } else if pick(self.mix.vac_reserve) {
            let mut b = (key % 64).to_le_bytes().to_vec();
            b.push((key % 3) as u8);
            b.extend_from_slice(&(next_u64(&mut self.state) % 64).to_le_bytes());
            (OpCode::VacReserve, b)
        } else if pick(self.mix.vac_bill) {
            (OpCode::VacBill, (key % 64).to_le_bytes().to_vec())
        } else if pick(self.mix.tpcc_payment) {
            let mut b = (key % 2).to_le_bytes().to_vec();
            b.extend_from_slice(&(key % 10).to_le_bytes());
            b.extend_from_slice(&(key % 30).to_le_bytes());
            b.extend_from_slice(&(1 + (key % 100) as i64).to_le_bytes());
            (OpCode::TpccPayment, b)
        } else {
            let mut b = (key % 2).to_le_bytes().to_vec();
            b.extend_from_slice(&(key % 10).to_le_bytes());
            b.extend_from_slice(&15i32.to_le_bytes());
            (OpCode::TpccStockLevel, b)
        };
        // Ordered commit only makes sense for writes; the flag on a
        // read-only op would spend a ticket for nothing.
        let flags = if self.ordered && !op.is_read_only() { FLAG_ORDERED } else { 0 };
        self.next_id += 1;
        Request { req_id: self.next_id, op, flags, deadline_ms: self.deadline_ms, body }
    }
}

fn classify(
    resp: &Response,
    report: &mut LoadReport,
    latency_ns: Option<u64>,
    samples: &mut Vec<u64>,
) {
    report.by_status[resp.status as usize] += 1;
    if resp.status == Status::Ok {
        report.ok += 1;
        if let Some(ns) = latency_ns {
            samples.push(ns);
        }
    } else if resp.status.is_shed() {
        report.shed += 1;
    } else {
        report.errors += 1;
    }
}

/// One closed-loop driver: keep `pipeline` requests in flight, record
/// end-to-end latency per response. A dead connection (server reset, an
/// injected accept/read/write fault) is *expected* under soak — the driver
/// counts the in-flight requests as lost and reconnects, so load keeps
/// flowing for the whole run instead of dying at the first fault.
fn closed_loop_conn(cfg: &LoadConfig, stream_id: u64, until: Instant) -> io::Result<LoadReport> {
    let mut gen = RequestGen::new(cfg, stream_id);
    let mut report = LoadReport::default();
    let mut samples = Vec::new();
    while Instant::now() < until {
        match closed_loop_session(cfg, &mut gen, until, &mut report, &mut samples) {
            SessionEnd::Deadline => break,
            SessionEnd::ConnLost => thread::sleep(Duration::from_millis(2)),
        }
    }
    report.latency = LatencyStats::from_samples(samples);
    Ok(report)
}

/// How one closed-loop connection session ended.
enum SessionEnd {
    /// Ran to the deadline and drained its stragglers.
    Deadline,
    /// The connection died mid-run (reset or injected fault) — reconnect.
    ConnLost,
}

/// One connection's lifetime within [`closed_loop_conn`]: connect, pipeline
/// until the deadline, drain stragglers. Counters accumulate into the
/// caller's report across sessions.
fn closed_loop_session(
    cfg: &LoadConfig,
    gen: &mut RequestGen,
    until: Instant,
    report: &mut LoadReport,
    samples: &mut Vec<u64>,
) -> SessionEnd {
    let Ok(stream) = TcpStream::connect(&cfg.addr) else {
        return SessionEnd::ConnLost;
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let Ok(mut rd) = stream.try_clone() else {
        return SessionEnd::ConnLost;
    };
    let mut wr = stream;
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    while Instant::now() < until {
        while outstanding.len() < cfg.pipeline.max(1) {
            let req = gen.next_request();
            if write_frame(&mut wr, &req.encode()).is_err() {
                report.lost += outstanding.len() as u64;
                return SessionEnd::ConnLost;
            }
            outstanding.insert(req.req_id, Instant::now());
            report.sent += 1;
        }
        match read_frame(&mut rd) {
            Ok(Some(frame)) => {
                if let Some(resp) = Response::decode(&frame) {
                    let lat =
                        outstanding.remove(&resp.req_id).map(|t0| t0.elapsed().as_nanos() as u64);
                    classify(&resp, report, lat, samples);
                }
            }
            Ok(None) | Err(_) => {
                report.lost += outstanding.len() as u64;
                return SessionEnd::ConnLost;
            }
        }
    }
    // Collect stragglers (bounded by the read timeout).
    while !outstanding.is_empty() {
        match read_frame(&mut rd) {
            Ok(Some(frame)) => {
                if let Some(resp) = Response::decode(&frame) {
                    let lat =
                        outstanding.remove(&resp.req_id).map(|t0| t0.elapsed().as_nanos() as u64);
                    classify(&resp, report, lat, samples);
                }
            }
            Ok(None) | Err(_) => break,
        }
    }
    report.lost += outstanding.len() as u64;
    SessionEnd::Deadline
}

/// One open-loop connection pair (paced sender + response reader).
fn open_loop_conn(
    cfg: &LoadConfig,
    stream_id: u64,
    per_conn_rate: f64,
    until: Instant,
) -> io::Result<LoadReport> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let rd = stream.try_clone()?;
    let sent_at: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let sent_count = Arc::new(AtomicU64::new(0));

    let reader = {
        let sent_at = Arc::clone(&sent_at);
        thread::spawn(move || {
            let mut rd = rd;
            let mut report = LoadReport::default();
            let mut samples = Vec::new();
            while let Ok(Some(frame)) = read_frame(&mut rd) {
                if let Some(resp) = Response::decode(&frame) {
                    let lat = sent_at
                        .lock()
                        .remove(&resp.req_id)
                        .map(|t0| t0.elapsed().as_nanos() as u64);
                    classify(&resp, &mut report, lat, &mut samples);
                }
            }
            report.latency = LatencyStats::from_samples(samples);
            report
        })
    };

    let mut gen = RequestGen::new(cfg, stream_id);
    let mut wr = stream;
    let interval = Duration::from_secs_f64(1.0 / per_conn_rate.max(1e-3));
    let mut next_send = Instant::now();
    while Instant::now() < until {
        let now = Instant::now();
        if now < next_send {
            thread::sleep((next_send - now).min(Duration::from_millis(10)));
            continue;
        }
        // Open loop: the schedule does not wait for responses — a slow
        // server eats queueing delay, which shows up in the tail.
        next_send += interval;
        let req = gen.next_request();
        sent_at.lock().insert(req.req_id, Instant::now());
        if write_frame(&mut wr, &req.encode()).is_err() {
            break;
        }
        sent_count.fetch_add(1, Ordering::Relaxed);
    }
    // Give stragglers one timeout's worth of grace, then cut the socket so
    // the reader can't block forever.
    thread::sleep(Duration::from_millis(200));
    let _ = wr.shutdown(std::net::Shutdown::Both);
    let mut report = reader.join().unwrap_or_default();
    report.sent = sent_count.load(Ordering::Relaxed);
    report.lost = sent_at.lock().len() as u64;
    Ok(report)
}

/// Runs the configured load against `cfg.addr`; blocks until done and
/// returns the merged report. Counters sum across connections; latency
/// percentiles take the worst connection's distribution (conservative for
/// SLO gating — a merge that understated the tail would defeat the check).
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let start = Instant::now();
    let until = start + cfg.duration;
    let per_conn_rate = cfg.rate.map(|r| r / cfg.conns.max(1) as f64);
    let reports: Vec<io::Result<LoadReport>> = thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns.max(1))
            .map(|i| {
                s.spawn(move || match per_conn_rate {
                    Some(r) => open_loop_conn(cfg, i as u64 + 1, r, until),
                    None => closed_loop_conn(cfg, i as u64 + 1, until),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut merged = LoadReport::default();
    let mut worst = LatencyStats::default();
    for r in reports {
        let r = r?;
        // Conservative percentile merge: max across connections (each
        // connection's distribution is already over its full sample set).
        if r.latency.p99_ns > worst.p99_ns {
            worst = r.latency.clone();
        }
        merged.absorb(r);
    }
    merged.latency = worst;
    merged.elapsed = start.elapsed();
    Ok(merged)
}

/// Renders a human-readable report block.
pub fn render_report(r: &LoadReport) -> String {
    let mut out = String::new();
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "sent {}  ok {}  shed {}  errors {}  lost {}  goodput {:.0}/s",
        r.sent,
        r.ok,
        r.shed,
        r.errors,
        r.lost,
        r.goodput()
    );
    let _ = writeln!(
        out,
        "latency  p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  max {:.2}ms",
        r.latency.p50_ns as f64 / 1e6,
        r.latency.p95_ns as f64 / 1e6,
        r.latency.p99_ns as f64 / 1e6,
        r.latency.max_ns as f64 / 1e6,
    );
    let names = [
        "ok",
        "shed_admission",
        "shed_saturated",
        "shed_draining",
        "err_retry_exhausted",
        "err_stall_aborted",
        "err_panicked",
        "err_cancelled",
        "err_bad_request",
        "shed_readonly",
    ];
    for (name, count) in names.iter().zip(r.by_status) {
        if count > 0 {
            let _ = writeln!(out, "  {name:<20} {count}");
        }
    }
    let _ = std::io::stdout().flush();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut state = 42u64;
        let mut head = 0u64;
        let n = 10_000;
        for _ in 0..n {
            let k = z.sample(&mut state);
            assert!(k < 1000);
            if k < 10 {
                head += 1;
            }
        }
        // With theta=0.99 the top-10 keys draw a large share (far above
        // the 1% a uniform distribution would give them).
        assert!(head > n / 5, "zipf head too light: {head}/{n}");
    }

    #[test]
    fn zipfian_theta_zero_is_roughly_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut state = 7u64;
        let mut head = 0u64;
        for _ in 0..10_000 {
            if z.sample(&mut state) < 10 {
                head += 1;
            }
        }
        assert!((500..2000).contains(&head), "uniform head share: {head}");
    }

    #[test]
    fn request_stream_is_deterministic_per_seed() {
        let cfg = LoadConfig { ordered: true, ..Default::default() };
        let a: Vec<Request> = (0..50).map(|_| RequestGen::new(&cfg, 3).next_request()).collect();
        let mut g1 = RequestGen::new(&cfg, 3);
        let mut g2 = RequestGen::new(&cfg, 3);
        for _ in 0..50 {
            assert_eq!(g1.next_request(), g2.next_request());
        }
        // Different stream id → different stream.
        let mut g3 = RequestGen::new(&cfg, 4);
        let b: Vec<Request> = (0..50).map(|_| g3.next_request()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn ordered_flag_only_on_read_write_ops() {
        let cfg = LoadConfig { ordered: true, ..Default::default() };
        let mut g = RequestGen::new(&cfg, 1);
        for _ in 0..200 {
            let r = g.next_request();
            if r.op.is_read_only() {
                assert_eq!(r.flags & FLAG_ORDERED, 0);
            }
        }
    }

    #[test]
    fn slo_check_flags_violations() {
        let mut r = LoadReport { sent: 100, ok: 100, ..Default::default() };
        r.latency.p99_ns = 5_000_000; // 5ms
        assert!(r.check_slo(10.0, 0.1).is_ok());
        assert!(r.check_slo(1.0, 0.1).is_err());
        r.shed = 50;
        assert!(r.check_slo(10.0, 0.1).is_err());
    }
}
