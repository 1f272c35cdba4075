//! `wire_mix`: an in-process `txserver::Server` (two executor threads, a
//! one-worker runtime pool, default state and admission) driven over one
//! TCP connection by one closed-loop generator thread with eight requests
//! in flight, from `RequestGen`'s default mix over 4096 keys at theta 0.99.
//!
//! The loop is the benchmark's own rather than `txserver::load::run_load`:
//! it merges every latency sample and counts every non-OK or missing reply
//! as failed.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtf::RunBudget;
use rtf_txserver::protocol::{read_frame, write_frame};
use rtf_txserver::workloads::{execute, Op};
use rtf_txserver::{
    LoadConfig, OpCode, Request, RequestGen, Response, Server, ServerConfig, ServerState,
    StateConfig, Status,
};

use super::{measure, substream, Phase, Workload};
use crate::stats::Recorder;
use crate::trace::{self, Name};

const KEYS: u64 = 4096;
const DEPTH: usize = 8;
/// The generator's `RequestGen` stream id.
const STREAM: u64 = 1;
/// A reply missing this long is lost; the run then fails its checks.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Wire {
    server: Server,
    rd: BufReader<TcpStream>,
    wr: BufWriter<TcpStream>,
    gen: RequestGen,
    /// Requests that never got a reply.
    lost: u64,
    /// In-process replay target (traced runs only).
    replay: Option<Arc<ServerState>>,
    replay_errors: u64,
}

fn put(key: u64, value: u64, req_id: u64) -> Request {
    let mut body = key.to_le_bytes().to_vec();
    body.extend_from_slice(&value.to_le_bytes());
    Request { req_id, op: OpCode::KvPut, flags: 0, deadline_ms: 0, body }
}

/// Connection gone or reply overdue: every request still outstanding is
/// lost, and the connection is not used again.
fn lose<T>(outstanding: &mut HashMap<u64, T>, lost: &mut u64, rec: &mut Recorder) {
    let end = Instant::now();
    *lost += outstanding.len() as u64;
    for _ in outstanding.drain() {
        rec.fail(end);
    }
}

/// Server in-flight samples of a traced loop.
#[derive(Default)]
struct Inflight {
    sum: u64,
    samples: u64,
}

impl Wire {
    /// Sends requests from `next` with `DEPTH` in flight until `until` or
    /// until `next` runs dry, then collects the stragglers; outcomes go to
    /// `rec` (TPC-C StockLevel is the mix's longest transaction). With
    /// `TRACED`, records a span per request and samples the server's
    /// admitted in-flight count at every reply.
    fn drive<const TRACED: bool>(
        &mut self,
        until: Instant,
        rec: &mut Recorder,
        mut next: impl FnMut(&mut RequestGen) -> Option<Request>,
    ) -> Inflight {
        let mut inflight = Inflight::default();
        let mut outstanding: HashMap<u64, (Instant, OpCode)> = HashMap::with_capacity(DEPTH);
        let mut sending = self.lost == 0;
        loop {
            while sending && outstanding.len() < DEPTH {
                let req = match next(&mut self.gen) {
                    Some(req) if Instant::now() < until => req,
                    _ => {
                        sending = false;
                        break;
                    }
                };
                outstanding.insert(req.req_id, (Instant::now(), req.op));
                if write_frame(&mut self.wr, &req.encode()).is_err() {
                    lose(&mut outstanding, &mut self.lost, rec);
                    return inflight;
                }
            }
            if outstanding.is_empty() {
                return inflight;
            }
            let resp = match read_frame(&mut self.rd) {
                Ok(Some(frame)) => Response::decode(&frame),
                Ok(None) | Err(_) => {
                    lose(&mut outstanding, &mut self.lost, rec);
                    return inflight;
                }
            };
            let end = Instant::now();
            let Some(resp) = resp else {
                rec.fail(end);
                continue;
            };
            let Some((start, op)) = outstanding.remove(&resp.req_id) else {
                rec.fail(end);
                continue;
            };
            if TRACED {
                trace::leaf(Name::WireRequest, start, end);
                inflight.sum += self.server.inflight() as u64;
                inflight.samples += 1;
            }
            if resp.status == Status::Ok {
                rec.ok(end, end - start, op == OpCode::TpccStockLevel);
            } else {
                rec.fail(end);
            }
        }
    }

    /// Replays the generator's request stream from its start through
    /// `workloads::execute` on the server's runtime, one request at a time,
    /// against a state of its own loaded like the server's.
    fn replay(&mut self, input: &LoadConfig, dur: Duration) {
        let tm = self.server.tm().clone();
        let state = Arc::clone(self.replay.get_or_insert_with(|| {
            let state = ServerState::load(&tm, &StateConfig::default());
            for key in 0..KEYS {
                let op = Op::KvPut { key, value: substream(input.seed, key) };
                execute(&tm, &state, op, RunBudget::default(), None).expect("replay load put");
            }
            state
        }));
        let mut gen = RequestGen::new(input, STREAM);
        let until = Instant::now() + dur;
        while Instant::now() < until {
            let op = Op::parse(&gen.next_request()).expect("RequestGen emits valid requests");
            let _s = trace::span(Name::ServerExecute);
            // The mix's TPC-C requests run the server's own Payment and
            // StockLevel bodies over the tpcc tables: time them as that
            // layer's spans too.
            let _tpcc = match op {
                Op::TpccPayment { .. } => Some(trace::span(Name::TpccPayment)),
                Op::TpccStockLevel { .. } => Some(trace::span(Name::TpccStockLevel)),
                _ => None,
            };
            if execute(&tm, &state, op, RunBudget::default(), None).is_err() {
                self.replay_errors += 1;
            }
        }
    }

    fn close(self) -> (rtf_txserver::DrainReport, u64, u64) {
        // Hang up first so the server sees a clean EOF, not a reset.
        drop(self.wr);
        drop(self.rd);
        (self.server.shutdown(), self.lost, self.replay_errors)
    }
}

impl Workload for Wire {
    type Input = LoadConfig;

    fn input(seed: u64) -> LoadConfig {
        LoadConfig {
            conns: 1,
            pipeline: DEPTH,
            keys: KEYS,
            zipf_theta: 0.99,
            deadline_ms: 0,
            ordered: false,
            seed: substream(seed, 0),
            ..LoadConfig::default()
        }
    }

    fn setup(input: &LoadConfig) -> Wire {
        let tm = rtf::Rtf::builder().workers(1).build();
        let config = ServerConfig { exec_workers: 2, ..ServerConfig::default() };
        let server = Server::start(tm, config).expect("start in-process server");
        let stream = TcpStream::connect(server.local_addr()).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
        let rd = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut w = Wire {
            server,
            rd,
            wr: BufWriter::new(stream),
            gen: RequestGen::new(input, STREAM),
            lost: 0,
            replay: None,
            replay_errors: 0,
        };
        // Load phase: every key once, through the wire.
        let mut keys = 0..KEYS;
        let mut load = Recorder::new(Instant::now(), REPLY_TIMEOUT);
        w.drive::<false>(Instant::now() + REPLY_TIMEOUT, &mut load, |_| {
            keys.next().map(|k| put(k, substream(input.seed, k), u64::MAX - k))
        });
        let load = load.total();
        assert_eq!(
            (load.succeeded(), load.failed),
            (KEYS, 0),
            "wire_mix load phase: every put must succeed"
        );
        w
    }

    fn run(&mut self, input: &LoadConfig, dur: Duration, traced: bool) -> Phase {
        let tm = self.server.tm().clone();
        let next = |g: &mut RequestGen| Some(g.next_request());
        if !traced {
            return measure(&tm, dur, |mut rec| {
                self.drive::<false>(rec.start() + dur, &mut rec, next);
                (rec, None, Vec::new())
            });
        }
        // Traced: half the time on the wire, half replaying in-process.
        let wire = dur / 2;
        let mut inflight = Inflight::default();
        let mut phase = measure(&tm, wire, |mut rec| {
            trace::install(rec.start(), 1);
            inflight = self.drive::<true>(rec.start() + wire, &mut rec, next);
            (rec, None, Vec::new())
        });
        self.replay(input, dur - wire);
        let tracer = trace::take().expect("installed above");
        let exec_us = tracer.durations(Name::ServerExecute).percentile(0.5) as f64 / 1e3;
        let wire_us = phase.rec.total().ok_latency.percentile(0.5) as f64 / 1e3;
        phase.extra = vec![
            ("txserver.execute_us_p50", exec_us),
            ("txserver.serve_overhead_us_p50", wire_us - exec_us),
            ("txserver.inflight_mean", inflight.sum as f64 / inflight.samples.max(1) as f64),
        ];
        phase.trace = Some(tracer);
        phase
    }

    fn finish(self) -> Result<(), String> {
        let (report, lost, replay_errors) = self.close();
        if lost == 0 && report.reconciled && replay_errors == 0 {
            Ok(())
        } else {
            Err(format!(
                "wire_mix: lost replies {lost}, drain reconciled {} ({:?}), replay errors \
                 {replay_errors}",
                report.reconciled, report
            ))
        }
    }

    fn discard(self) {
        let _ = self.close();
    }
}
