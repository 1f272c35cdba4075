//! Serving under faults.
//!
//! * A client that disconnects mid-ticketed-transaction: an ordered
//!   request is admitted, its commit ticket is drawn, and then the client
//!   vanishes before reading (or even before the executor runs). The
//!   server must abandon the ticket cleanly — the lane retires the turn,
//!   no tentative record leaks, the GC watermark keeps advancing — and the
//!   accounting must still reconcile.
//! * A request that panics inside the executor (failpoint
//!   `txserver.exec`, armed only with `--features fault-inject`): the
//!   client gets a typed `ErrPanicked`, and the executor keeps serving.
//! * A shutdown that lands while an idle executor sits between its stop
//!   check and its park (failpoint `txserver.exec.park`): the executor
//!   must still wake and exit, so `shutdown` returns.

use std::net::TcpStream;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rtf_txfault::{FaultPlan, SiteRule};
use rtf_txserver::protocol::{
    read_frame, write_frame, OpCode, Request, Response, Status, FLAG_ORDERED,
};
use rtf_txserver::{AdmissionConfig, Server, ServerConfig, StateConfig};

fn chaos_server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        exec_workers: 2,
        per_conn_inflight: 32,
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
        drain_deadline: Duration::from_secs(3),
    }
}

/// Serializes the tests of this binary: a fault plan is process-wide, so an
/// armed site must not fire inside a neighbouring test's server.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn ordered_incr(req_id: u64, key: u64) -> Request {
    let mut body = key.to_le_bytes().to_vec();
    body.extend_from_slice(&1u64.to_le_bytes());
    Request { req_id, op: OpCode::KvIncr, flags: FLAG_ORDERED, deadline_ms: 0, body }
}

#[test]
fn disconnect_mid_ticketed_pipeline_abandons_tickets_without_leaks() {
    let _gate = lock();
    let tm = rtf::Rtf::builder()
        .workers(2)
        .ordered(2)
        .max_retries(64)
        .retry_deadline(Duration::from_secs(2))
        .build();
    let server = Server::start(tm, chaos_server_config()).unwrap();
    let addr = server.local_addr();

    // Phase 1: well-behaved churn so versions pile up and the GC watermark
    // has something to advance over.
    let mut polite = TcpStream::connect(addr).unwrap();
    polite.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut churned = 0u64;
    for round in 0..200u64 {
        let req = ordered_incr(round, round % 4);
        write_frame(&mut polite, &req.encode()).unwrap();
        let r = Response::decode(&read_frame(&mut polite).unwrap().unwrap()).unwrap();
        if r.status == Status::Ok {
            churned += 1;
        }
    }
    assert!(churned > 0, "churn phase produced no commits");

    // Phase 2: rude clients. Each sends a pipelined burst of *ordered*
    // requests and drops the socket without reading a single response —
    // tickets for admitted requests are in flight when the FIN arrives.
    for wave in 0..8u64 {
        let mut rude = TcpStream::connect(addr).unwrap();
        rude.set_nodelay(true).unwrap();
        for i in 0..12u64 {
            let req = ordered_incr(wave * 100 + i, i % 4);
            if write_frame(&mut rude, &req.encode()).is_err() {
                break;
            }
        }
        drop(rude); // mid-pipeline disconnect
    }

    // Phase 3: the polite client keeps working — the abandoned tickets
    // must not wedge the ordered lanes for anyone else.
    for round in 0..50u64 {
        let req = ordered_incr(10_000 + round, round % 4);
        write_frame(&mut polite, &req.encode()).unwrap();
        let r = Response::decode(&read_frame(&mut polite).unwrap().unwrap()).unwrap();
        assert!(
            matches!(r.status, Status::Ok | Status::ErrRetryExhausted),
            "post-chaos request got {:?}",
            r.status
        );
    }
    drop(polite);

    let tm = server.tm().clone();
    let report = server.shutdown();
    let stats = tm.stats();

    // Admission accounting reconciles exactly even though clients vanished:
    // queued work for a dead connection still runs (the write just fails).
    assert!(
        report.reconciled,
        "admitted {} != completed {} + drained {} (leftover {})",
        report.admitted, report.completed, report.drained, report.leftover_inflight
    );

    // Every ticket ever issued was either committed or abandoned — the
    // ordered lane ledger balances, nothing is wedged waiting for a turn
    // owned by a dead client.
    assert_eq!(
        stats.tickets_issued,
        stats.ordered_commits + stats.tickets_abandoned,
        "ticket ledger: issued {} committed {} abandoned {}",
        stats.tickets_issued,
        stats.ordered_commits,
        stats.tickets_abandoned
    );
    assert!(stats.tickets_issued > 0, "ordered path never exercised");

    // No commit records leaked: the chain is fully helped.
    assert_eq!(tm.commit_backlog(), 0, "commit chain not quiesced after drain");

    // The GC watermark advanced under churn — abandoned work didn't pin
    // old versions forever.
    assert!(stats.versions_gced > 0, "version GC watermark never advanced");

    // The rude disconnects were observed and counted.
    assert!(report.conn_resets > 0, "mid-flight disconnects not detected");
}

#[test]
fn panicking_request_is_answered_and_the_executor_keeps_serving() {
    if !rtf_txfault::enabled() {
        eprintln!("skipped: build with --features fault-inject");
        return;
    }
    let _gate = lock();
    // One executor and one in-flight slot per connection: if the panic
    // leaked either slot, or killed the executor, the next request on the
    // same connection would never be answered.
    let config = ServerConfig { exec_workers: 1, per_conn_inflight: 1, ..chaos_server_config() };
    let server = Server::start(rtf::Rtf::builder().workers(1).build(), config).unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut roundtrip = |req: Request| {
        write_frame(&mut c, &req.encode()).unwrap();
        Response::decode(&read_frame(&mut c).unwrap().expect("response frame")).unwrap()
    };
    let incr = |req_id| Request { flags: 0, ..ordered_incr(req_id, 5) };

    rtf_txfault::install(
        FaultPlan::new(3).rule(SiteRule::at("txserver.exec").panic(1_000_000).cap(1)),
    );
    let r = roundtrip(incr(1));
    let injected = rtf_txfault::injected_total();
    rtf_txfault::clear();
    assert_eq!(injected, 1, "the txserver.exec panic never fired");
    assert_eq!((r.req_id, r.status), (1, Status::ErrPanicked));

    for id in 2..6u64 {
        let r = roundtrip(incr(id));
        assert_eq!((r.req_id, r.status), (id, Status::Ok));
        // The panicked increment left no effect: values count from 1.
        assert_eq!(u64::from_le_bytes(r.body.try_into().unwrap()), id - 1);
    }
    drop(c);

    let report = server.shutdown();
    assert_eq!((report.admitted, report.completed, report.drained), (5, 5, 0));
    assert_eq!(report.failed, 1);
    assert!(report.reconciled, "leftover in-flight {}", report.leftover_inflight);
}

#[test]
fn shutdown_wakes_an_executor_held_between_its_stop_check_and_its_park() {
    if !rtf_txfault::enabled() {
        eprintln!("skipped: build with --features fault-inject");
        return;
    }
    let _gate = lock();
    // The idle executor's first pass through the park failpoint sleeps
    // 500 ms, with the stop flag already checked and the park still ahead.
    rtf_txfault::install(
        FaultPlan::new(5).rule(SiteRule::at("txserver.exec.park").delay(1_000_000, 500_000).cap(1)),
    );
    let config = ServerConfig { exec_workers: 1, ..chaos_server_config() };
    let server = Server::start(rtf::Rtf::builder().workers(1).build(), config).unwrap();
    let held_by = Instant::now() + Duration::from_secs(5);
    while rtf_txfault::injected_total() == 0 {
        assert!(Instant::now() < held_by, "the executor never reached txserver.exec.park");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Shut down inside the window. A stop flag stored outside the queue
    // lock lands now, its notify finds no waiter, and the executor then
    // parks for good: `shutdown` would block in `join` forever, so it runs
    // on its own thread under a deadline.
    let (done, finished) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let report = finished.recv_timeout(Duration::from_secs(10));
    rtf_txfault::clear();
    let report = report.expect("shutdown did not return within 10 s: lost executor wakeup");
    shutdown.join().unwrap();
    assert!(report.reconciled, "leftover in-flight {}", report.leftover_inflight);
}
