//! End-to-end serving tests: real sockets, real frames, full accounting.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use rtf_txserver::protocol::{read_frame, write_frame, OpCode, Request, Response, Status};
use rtf_txserver::{
    AdmissionConfig, LoadConfig, Mix, RequestGen, Server, ServerConfig, SoakConfig, StateConfig,
};

fn test_server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        exec_workers: 2,
        per_conn_inflight: 8,
        admission: AdmissionConfig::default(),
        state: StateConfig {
            vac_customers: 8,
            vac_resources: 8,
            vac_units: 100,
            tpcc: rtf_tpcc::TpccScale {
                warehouses: 1,
                customers_per_district: 5,
                items: 32,
                seed: 7,
            },
        },
        drain_deadline: Duration::from_secs(2),
    }
}

fn start() -> (Server, TcpStream) {
    let tm = rtf::Rtf::builder().workers(2).ordered(1).build();
    let server = Server::start(tm, test_server_config()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (server, stream)
}

fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.encode()).unwrap();
    let frame = read_frame(stream).unwrap().expect("response frame");
    Response::decode(&frame).expect("decodable response")
}

fn req(id: u64, op: OpCode, body: Vec<u8>) -> Request {
    Request { req_id: id, op, flags: 0, deadline_ms: 0, body }
}

#[test]
fn kv_ops_roundtrip_over_the_wire() {
    let (server, mut c) = start();
    let mut put = 7u64.to_le_bytes().to_vec();
    put.extend_from_slice(&41u64.to_le_bytes());
    assert_eq!(roundtrip(&mut c, &req(1, OpCode::KvPut, put)).status, Status::Ok);

    let mut incr = 7u64.to_le_bytes().to_vec();
    incr.extend_from_slice(&1u64.to_le_bytes());
    let r = roundtrip(&mut c, &req(2, OpCode::KvIncr, incr));
    assert_eq!(r.status, Status::Ok);
    assert_eq!(u64::from_le_bytes(r.body.try_into().unwrap()), 42);

    let r = roundtrip(&mut c, &req(3, OpCode::KvGet, 7u64.to_le_bytes().to_vec()));
    assert_eq!(r.req_id, 3);
    assert_eq!((r.body[0], u64::from_le_bytes(r.body[1..9].try_into().unwrap())), (1, 42));

    let report = server.shutdown();
    assert_eq!(report.admitted, 3);
    assert_eq!(report.completed, 3);
    assert_eq!(report.failed, 0);
    assert!(report.reconciled, "admitted == completed + drained");
}

#[test]
fn bad_requests_get_typed_errors_without_admission() {
    let (server, mut c) = start();
    // Unknown opcode.
    let mut frame = req(9, OpCode::Ping, vec![]).encode();
    frame[8] = 0xEE;
    write_frame(&mut c, &frame).unwrap();
    let r = Response::decode(&read_frame(&mut c).unwrap().unwrap()).unwrap();
    assert_eq!((r.req_id, r.status), (9, Status::ErrBadRequest));
    // Short body for the opcode.
    let r = roundtrip(&mut c, &req(10, OpCode::KvGet, vec![1, 2]));
    assert_eq!(r.status, Status::ErrBadRequest);
    let report = server.shutdown();
    assert_eq!(report.admitted, 0, "bad requests never reach admission");
    assert!(report.reconciled);
}

#[test]
fn vacation_and_tpcc_over_the_wire() {
    let (server, mut c) = start();
    let mut res = 1u64.to_le_bytes().to_vec();
    res.push(2); // Room
    res.extend_from_slice(&3u64.to_le_bytes());
    let r = roundtrip(&mut c, &req(1, OpCode::VacReserve, res));
    assert_eq!((r.status, r.body[0]), (Status::Ok, 1));

    let r = roundtrip(&mut c, &req(2, OpCode::VacBill, 1u64.to_le_bytes().to_vec()));
    assert_eq!(r.status, Status::Ok);
    assert_eq!(r.body[0], 1);

    let mut pay = 0u64.to_le_bytes().to_vec();
    pay.extend_from_slice(&0u64.to_le_bytes());
    pay.extend_from_slice(&0u64.to_le_bytes());
    pay.extend_from_slice(&10i64.to_le_bytes());
    let r = roundtrip(&mut c, &req(3, OpCode::TpccPayment, pay));
    assert_eq!(r.status, Status::Ok);

    let mut sl = 0u64.to_le_bytes().to_vec();
    sl.extend_from_slice(&0u64.to_le_bytes());
    sl.extend_from_slice(&i32::MAX.to_le_bytes());
    let r = roundtrip(&mut c, &req(4, OpCode::TpccStockLevel, sl));
    assert_eq!(r.status, Status::Ok);

    assert!(server.shutdown().reconciled);
}

/// A runtime without pool workers still serves: each executor runs its
/// request on its own thread, and any wait inside helps the pool instead
/// of sleeping. KV, Vacation and TPC-C requests, unordered and with
/// `FLAG_ORDERED` on an ordered runtime, must all answer `Ok`.
#[test]
fn zero_worker_runtime_serves_every_op_family() {
    let mix = Mix {
        kv_get: 1,
        kv_put: 1,
        kv_incr: 1,
        kv_cas: 1,
        vac_reserve: 1,
        vac_bill: 1,
        tpcc_payment: 1,
        tpcc_stock: 1,
    };
    for ordered in [false, true] {
        let mut builder = rtf::Rtf::builder().workers(0);
        if ordered {
            builder = builder.ordered(1);
        }
        let config = ServerConfig { state: StateConfig::default(), ..test_server_config() };
        let server = Server::start(builder.build(), config).unwrap();
        let load = LoadConfig { ordered, mix: mix.clone(), ..Default::default() };
        let addr = server.local_addr();
        let clients: Vec<_> = (0..2u64)
            .map(|stream| {
                let load = load.clone();
                std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let mut gen = RequestGen::new(&load, stream);
                    let mut ops = Vec::new();
                    // 40 pipelined bursts of 4, so both executors stay busy.
                    for _ in 0..40 {
                        let burst: Vec<_> = (0..4).map(|_| gen.next_request()).collect();
                        for r in &burst {
                            write_frame(&mut c, &r.encode()).unwrap();
                        }
                        // Two executors may answer a burst out of order.
                        let mut answered: Vec<_> = (0..burst.len())
                            .map(|_| {
                                let frame = read_frame(&mut c).unwrap().unwrap();
                                let resp = Response::decode(&frame).unwrap();
                                assert_eq!(resp.status, Status::Ok, "request {}", resp.req_id);
                                resp.req_id
                            })
                            .collect();
                        answered.sort_unstable();
                        assert_eq!(answered, burst.iter().map(|r| r.req_id).collect::<Vec<_>>());
                        ops.extend(burst.iter().map(|r| (r.op, r.ordered())));
                    }
                    ops
                })
            })
            .collect();
        let ops: Vec<_> = clients.into_iter().flat_map(|h| h.join().unwrap()).collect();
        for family in [OpCode::KvIncr, OpCode::VacReserve, OpCode::TpccPayment] {
            assert!(ops.iter().any(|(op, _)| *op == family), "no {family:?} request was sent");
        }
        assert_eq!(ops.iter().any(|(_, o)| *o), ordered, "FLAG_ORDERED use");
        let tm = server.tm().clone();
        let report = server.shutdown();
        assert_eq!((report.admitted, report.completed, report.failed), (320, 320, 0));
        assert!(report.reconciled, "ordered={ordered}: drain did not reconcile");
        if ordered {
            let s = tm.stats();
            assert!(s.ordered_commits > 0, "no request committed through the ordered lane");
            assert_eq!(s.tickets_issued, s.ordered_commits + s.tickets_abandoned);
        }
    }
}

#[test]
fn draining_server_sheds_with_typed_status() {
    let tm = rtf::Rtf::builder().workers(2).build();
    let server = Server::start(tm, test_server_config()).unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Prove the path works before drain.
    assert_eq!(roundtrip(&mut c, &req(1, OpCode::Ping, vec![])).status, Status::Ok);
    // Race-free: admission flips before shutdown() closes sockets only
    // within shutdown itself, so send the request after the report starts
    // is impossible — instead exercise the admission unit directly through
    // a parallel connection while the server drains.
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.shutdown());
    // While draining, new requests (on the still-open conn) answer
    // SHED_DRAINING until the socket closes under us.
    let mut saw_drain_status = false;
    for i in 2..200u64 {
        if write_frame(&mut c, &req(i, OpCode::Ping, vec![]).encode()).is_err() {
            break;
        }
        match read_frame(&mut c) {
            Ok(Some(f)) => {
                let r = Response::decode(&f).unwrap();
                if r.status == Status::ShedDraining {
                    saw_drain_status = true;
                    break;
                }
            }
            _ => break,
        }
    }
    let report = handle.join().unwrap();
    assert!(report.reconciled);
    // Either we observed the typed drain shed, or the drain won the race
    // and closed the socket first — both are clean shutdown behaviors, but
    // at least the connection never hangs.
    let _ = saw_drain_status;
    let _ = TcpStream::connect(addr); // may fail; must not block
}

#[test]
fn per_connection_backpressure_stops_reading_not_responding() {
    // A tiny per-conn budget with a pipelined burst: the server must
    // answer everything (slowly), never deadlock, and the connection's
    // in-flight never exceeds its budget (observable indirectly: all
    // responses arrive and accounting reconciles).
    let tm = rtf::Rtf::builder().workers(2).build();
    let mut cfg = test_server_config();
    cfg.per_conn_inflight = 2;
    let server = Server::start(tm, cfg).unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wr = c.try_clone().unwrap();
    const N: u64 = 64;
    let writer = std::thread::spawn(move || {
        for i in 0..N {
            let mut body = (i % 8).to_le_bytes().to_vec();
            body.extend_from_slice(&1u64.to_le_bytes());
            write_frame(&mut wr, &req(i, OpCode::KvIncr, body).encode()).unwrap();
        }
        wr.flush().unwrap();
    });
    let mut got = 0;
    while got < N {
        let f = read_frame(&mut c).unwrap().expect("response");
        let r = Response::decode(&f).unwrap();
        assert_eq!(r.status, Status::Ok);
        got += 1;
    }
    writer.join().unwrap();
    let report = server.shutdown();
    assert_eq!(report.admitted, N);
    assert_eq!(report.completed, N);
    assert!(report.reconciled);
}

#[test]
fn saturation_sheds_are_typed_not_dropped() {
    // max_inflight 1 with a pipelined client: some requests must come back
    // as SHED_SATURATED (typed), and the sum of outcomes equals sends.
    let tm = rtf::Rtf::builder().workers(2).build();
    let mut cfg = test_server_config();
    cfg.admission = AdmissionConfig { max_inflight: 1, ..AdmissionConfig::default() };
    cfg.per_conn_inflight = 64;
    let server = Server::start(tm, cfg).unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wr = c.try_clone().unwrap();
    const N: u64 = 64;
    for i in 0..N {
        let mut body = 1u64.to_le_bytes().to_vec();
        body.extend_from_slice(&1u64.to_le_bytes());
        write_frame(&mut wr, &req(i, OpCode::KvIncr, body).encode()).unwrap();
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..N {
        let f = read_frame(&mut c).unwrap().expect("response");
        let r = Response::decode(&f).unwrap();
        match r.status {
            Status::Ok => ok += 1,
            Status::ShedSaturated | Status::ShedAdmission => shed += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(ok + shed, N);
    assert!(ok >= 1, "at least the unsaturated head completes");
    let report = server.shutdown();
    assert_eq!(report.admitted, ok);
    assert_eq!(report.shed, shed);
    assert!(report.reconciled);
}

#[test]
fn deadline_propagates_into_the_retry_budget() {
    // A request whose deadline has effectively passed at admission (1ms)
    // either completes on its first attempt or surfaces as a typed
    // ERR_RETRY_EXHAUSTED — never an untyped drop or hang.
    let (server, mut c) = start();
    let mut body = 3u64.to_le_bytes().to_vec();
    body.extend_from_slice(&1u64.to_le_bytes());
    let r = roundtrip(
        &mut c,
        &Request { req_id: 1, op: OpCode::KvIncr, flags: 0, deadline_ms: 1, body },
    );
    assert!(
        matches!(r.status, Status::Ok | Status::ErrRetryExhausted),
        "typed outcome, got {:?}",
        r.status
    );
    assert!(server.shutdown().reconciled);
}

#[test]
fn soak_without_faults_reconciles() {
    // The soak harness itself, fault-free and short: exercises server,
    // load generator, disconnectors, drain and every invariant check.
    let report = rtf_txserver::run_soak(&SoakConfig {
        seed: 42,
        duration: Duration::from_millis(1500),
        conns: 2,
        disconnectors: 1,
        faults: false,
        server: test_server_config(),
    })
    .unwrap();
    assert!(
        report.passed(),
        "soak violations: {:?}\n{}",
        report.violations,
        rtf_txserver::soak::render_soak(&report)
    );
    assert!(report.drain.admitted > 0);
    assert!(report.load.ok > 0);
}
