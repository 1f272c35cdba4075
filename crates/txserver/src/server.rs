//! The serving core: listener, per-connection readers with backpressure,
//! a worker pool executing admitted requests as transactions, and the
//! graceful drain.
//!
//! # Threading model
//!
//! * One **accept** thread (non-blocking poll so drain can stop it).
//! * One **reader** thread per connection. The reader parses frames, runs
//!   admission, and — for admitted requests — claims one of the
//!   connection's in-flight slots *before* reading the next frame. When
//!   the budget is exhausted the reader simply stops reading: bytes pile
//!   up in the kernel buffer (past the reader's own bounded read buffer),
//!   TCP flow control pushes back to the client.
//!   That is the whole backpressure mechanism — no application-level
//!   window, no unbounded queue per connection.
//! * `workers` **executor** threads popping admitted jobs from one FIFO
//!   queue and running each as a top-level transaction on the executor
//!   thread itself ([`rtf::Rtf::run_with`]); a thread blocked inside one
//!   helps the runtime's pool rather than sleeping, so a zero-worker
//!   runtime still serves. A panic escaping a request is contained at the
//!   executor and answered [`Status::ErrPanicked`]. Ordered tickets are
//!   drawn at *dequeue* time, under the
//!   queue lock: ticket order equals dequeue order (= arrival order, the
//!   FIFO contract), and — crucially — every outstanding ticket belongs to
//!   a job an executor is actively running. Drawing at admission instead
//!   would mint tickets for work nobody may be free to start, and on an
//!   ordered runtime (which draws implicit tickets for unordered requests
//!   at execution time) all executors could wait on buried tickets — a
//!   queue/lane deadlock only the stall watchdog would break.
//!
//! # Accounting invariant
//!
//! Every admitted request releases its admission slot exactly once, down
//! one of exactly two paths: **completed** (the transaction ran — OK or
//! typed error) or **drained** (still queued when the drain deadline
//! expired). Hence `server_admitted == server_completed + server_drained`
//! at final export, which the soak harness and `metrics_check
//! --require-server` verify. Sheds never claim a slot; connection resets
//! never leak one (queued work of a dead connection still executes, the
//! response write just fails).

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rtf::{Counter, Rtf, TxError};

use crate::admission::{Admission, AdmissionConfig, Decision};
use crate::protocol::{read_frame, write_frame, Request, Response, Status};
use crate::workloads::{budget_for, execute, Op, ServerState, StateConfig};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Executor threads driving admitted transactions.
    pub exec_workers: usize,
    /// Per-connection in-flight budget (backpressure threshold).
    pub per_conn_inflight: usize,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Seed-data sizes.
    pub state: StateConfig,
    /// How long a drain waits for admitted work before flushing the queue
    /// as [`Status::ShedDraining`].
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            exec_workers: 4,
            per_conn_inflight: 32,
            admission: AdmissionConfig::default(),
            state: StateConfig::default(),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Per-connection shared half: the write side, the in-flight slot budget,
/// and the reset latch.
struct ConnShared {
    id: u64,
    /// Write half (a `try_clone` of the reader's stream; both views shut
    /// down together).
    write: Mutex<TcpStream>,
    inflight: Mutex<usize>,
    cv: Condvar,
    reset: AtomicBool,
}

impl ConnShared {
    /// Sends one response frame. Returns `false` when the connection is
    /// gone (first failure latches the reset and counts it once).
    fn send(&self, resp: &Response, tm: &Rtf) -> bool {
        if rtf_txfault::fail_point!("txserver.conn.write").is_abort() {
            self.mark_reset(tm);
            return false;
        }
        if self.reset.load(Ordering::Acquire) {
            return false;
        }
        let mut w = self.write.lock();
        match write_frame(&mut *w, &resp.encode()) {
            Ok(()) => true,
            Err(_) => {
                drop(w);
                self.mark_reset(tm);
                false
            }
        }
    }

    /// Latches the reset (idempotent; first caller emits the event and
    /// tears the socket down so the peer and our reader both notice).
    fn mark_reset(&self, tm: &Rtf) {
        if !self.reset.swap(true, Ordering::AcqRel) {
            tm.telemetry().count(Counter::ServerConnResets, 1);
            let _ = self.write.lock().shutdown(Shutdown::Both);
            self.cv.notify_all();
        }
    }

    /// Claims one in-flight slot, blocking while the budget is exhausted —
    /// the read loop pausing here IS the backpressure. Reset unblocks (the
    /// reader then exits; its queued work still runs).
    fn acquire_slot(&self, cap: usize) {
        let mut n = self.inflight.lock();
        while *n >= cap && !self.reset.load(Ordering::Acquire) {
            self.cv.wait(&mut n);
        }
        *n += 1;
    }

    fn release_slot(&self) {
        let mut n = self.inflight.lock();
        debug_assert!(*n > 0);
        *n -= 1;
        drop(n);
        self.cv.notify_all();
    }

    fn inflight(&self) -> usize {
        *self.inflight.lock()
    }
}

/// One admitted request, queued for an executor.
struct Job {
    conn: Arc<ConnShared>,
    req_id: u64,
    op: Op,
    deadline_ms: u16,
    admitted_at: Instant,
    /// Commit at a FIFO-ordered ticket. The ticket itself is drawn at
    /// *dequeue* time (see [`executor_loop`]), never at admission: a ticket
    /// minted for a queued-but-not-executing job could be waited on by
    /// every executor while nobody is free to run it.
    ordered: bool,
}

struct Shared {
    tm: Rtf,
    state: Arc<ServerState>,
    admission: Admission,
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    qcv: Condvar,
    /// Executors exit when set (after the queue is empty).
    stop_workers: AtomicBool,
    /// Drain deadline expired: executors flush remaining queued jobs as
    /// [`Status::ShedDraining`] instead of starting them.
    drain_flush: AtomicBool,
    conns: Mutex<Vec<Arc<ConnShared>>>,
    conn_seq: AtomicU64,
}

impl Shared {
    /// Enqueues an admitted job. Ordering is recorded as a flag; the actual
    /// commit ticket is drawn when an executor dequeues the job (under the
    /// same queue lock, so ticket order still equals arrival order).
    fn enqueue(&self, conn: Arc<ConnShared>, req: &Request, op: Op, admitted_at: Instant) {
        let mut q = self.queue.lock();
        q.push_back(Job {
            conn,
            req_id: req.req_id,
            op,
            deadline_ms: req.deadline_ms,
            admitted_at,
            ordered: req.ordered() && self.tm.is_ordered(),
        });
        drop(q);
        self.qcv.notify_one();
    }
}

/// Final accounting of a drained server, read back from the runtime's own
/// counters (the same numbers every telemetry surface exports).
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Requests past admission.
    pub admitted: u64,
    /// Admitted requests whose transaction ran (OK or typed error).
    pub completed: u64,
    /// Completed requests that surfaced a typed [`rtf::TxError`].
    pub failed: u64,
    /// Requests shed by the admission ladder (never admitted).
    pub shed: u64,
    /// Admitted requests flushed at the drain deadline without running.
    pub drained: u64,
    /// Connections torn down mid-stream.
    pub conn_resets: u64,
    /// `admitted == completed + drained` — the no-leak invariant.
    pub reconciled: bool,
    /// Admission slots still held when the drain gave up (0 on a clean
    /// drain; non-zero means a transaction outlived every budget).
    pub leftover_inflight: usize,
}

/// A running server. Drop without [`Server::shutdown`] aborts ungracefully
/// (threads are detached); call `shutdown` for the drain path.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    listener: TcpListener,
}

impl Server {
    /// Binds and starts serving on `config.addr`. The runtime is supplied
    /// by the caller (build it ordered to honor [`crate::protocol::FLAG_ORDERED`];
    /// attach observers/live metrics there too — the server only reports
    /// events to its telemetry).
    pub fn start(tm: Rtf, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = ServerState::load(&tm, &config.state);
        let shared = Arc::new(Shared {
            admission: Admission::new(config.admission.clone()),
            tm,
            state,
            config,
            queue: Mutex::new(VecDeque::new()),
            qcv: Condvar::new(),
            stop_workers: AtomicBool::new(false),
            drain_flush: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
        });
        let readers = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..shared.config.exec_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("txserver-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let listener = listener.try_clone()?;
            let readers = Arc::clone(&readers);
            thread::Builder::new()
                .name("txserver-accept".into())
                .spawn(move || accept_loop(listener, &shared, &readers))
                .expect("spawn acceptor")
        };
        Ok(Server { shared, local_addr, accept: Some(accept), workers, readers, listener })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The runtime this server executes on.
    pub fn tm(&self) -> &Rtf {
        &self.shared.tm
    }

    /// Current admitted-but-unfinished count (test/diagnostic surface).
    pub fn inflight(&self) -> usize {
        self.shared.admission.inflight()
    }

    /// Graceful drain: stop admitting (every new request answers
    /// [`Status::ShedDraining`]), stop accepting, wait up to the drain
    /// deadline for admitted work, flush whatever is still queued as
    /// drained, then tear down connections and join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        let shared = &self.shared;
        shared.admission.start_drain();
        // Phase 1: wait for admitted work under the deadline.
        let deadline = Instant::now() + shared.config.drain_deadline;
        while shared.admission.inflight() > 0 && Instant::now() < deadline {
            let _ = rtf_txfault::fail_point!("txserver.drain");
            thread::sleep(Duration::from_millis(2));
        }
        // Phase 2: deadline expired — flush still-queued jobs as drained.
        shared.drain_flush.store(true, Ordering::Release);
        shared.qcv.notify_all();
        // Phase 3: bounded wait for in-flight transactions (they carry
        // retry budgets and the stall watchdog; "forever" is not an
        // option for them, so neither is it for us).
        let hard = Instant::now() + shared.config.drain_deadline;
        while shared.admission.inflight() > 0 && Instant::now() < hard {
            thread::sleep(Duration::from_millis(2));
        }
        let leftover_inflight = shared.admission.inflight();
        // Stop executors and join them (queue is empty or flushing ends).
        // The flag is set under the queue lock: an executor checks it while
        // holding that lock and then parks, so an unlocked store could land
        // between its check and its park, and the notify would find no
        // waiter (a lost wakeup that leaves `join` blocked for good).
        {
            let _q = shared.queue.lock();
            shared.stop_workers.store(true, Ordering::Release);
        }
        shared.qcv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Tear down sockets so readers unblock, then join them and the
        // acceptor (it polls the drain flag).
        for conn in shared.conns.lock().iter() {
            let _ = conn.write.lock().shutdown(Shutdown::Both);
            conn.cv.notify_all();
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let joins: Vec<_> = std::mem::take(&mut *self.readers.lock());
        for r in joins {
            let _ = r.join();
        }
        drop(self.listener);
        let s = shared.tm.stats();
        DrainReport {
            admitted: s.server_admitted,
            completed: s.server_completed,
            failed: s.server_failed,
            shed: s.server_shed,
            drained: s.server_drained,
            conn_resets: s.server_conn_resets,
            reconciled: s.server_admitted == s.server_completed + s.server_drained
                && leftover_inflight == 0,
            leftover_inflight,
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    loop {
        if shared.admission.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if rtf_txfault::fail_point!("txserver.accept").is_abort() {
                    // Injected accept failure: the young connection dies
                    // before its first byte.
                    drop(stream);
                    continue;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let _ = stream.set_nodelay(true);
                let conn = Arc::new(ConnShared {
                    id: shared.conn_seq.fetch_add(1, Ordering::Relaxed),
                    write: Mutex::new(write_half),
                    inflight: Mutex::new(0),
                    cv: Condvar::new(),
                    reset: AtomicBool::new(false),
                });
                shared.conns.lock().push(Arc::clone(&conn));
                let shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name(format!("txserver-conn-{}", conn.id))
                    .spawn(move || reader_loop(stream, conn, &shared))
                    .expect("spawn reader");
                readers.lock().push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn reader_loop(stream: TcpStream, conn: Arc<ConnShared>, shared: &Arc<Shared>) {
    let telemetry = shared.tm.telemetry();
    // One read syscall takes in every frame a pipelining client has sent,
    // rather than two per frame (prefix, then payload).
    let mut stream = BufReader::new(stream);
    loop {
        if rtf_txfault::fail_point!("txserver.conn.read").is_abort() {
            conn.mark_reset(&shared.tm);
            break;
        }
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => {
                // Clean EOF — a reset only if the client walked away from
                // in-flight work.
                if conn.inflight() > 0 {
                    conn.mark_reset(&shared.tm);
                }
                break;
            }
            Err(_) => {
                conn.mark_reset(&shared.tm);
                break;
            }
        };
        let Some(req) = Request::decode(&frame) else {
            // Can't even extract a req_id reliably; answer with id 0.
            let id = if frame.len() >= 8 {
                u64::from_le_bytes(frame[0..8].try_into().unwrap())
            } else {
                0
            };
            conn.send(
                &Response { req_id: id, status: Status::ErrBadRequest, body: vec![] },
                &shared.tm,
            );
            continue;
        };
        let Some(op) = Op::parse(&req) else {
            conn.send(
                &Response { req_id: req.req_id, status: Status::ErrBadRequest, body: vec![] },
                &shared.tm,
            );
            continue;
        };
        let decision = shared.admission.decide(
            req.op,
            shared.tm.commit_lane_depth(),
            shared.tm.pool_queue_depth(),
        );
        match decision {
            Decision::Shed(status) => {
                telemetry.count(Counter::ServerShed, 1);
                conn.send(&Response { req_id: req.req_id, status, body: vec![] }, &shared.tm);
            }
            Decision::Admit => {
                telemetry.count(Counter::ServerAdmitted, 1);
                // Backpressure: block here (not in the kernel) until the
                // connection has a free slot; while blocked, no further
                // frames are read from this socket.
                conn.acquire_slot(shared.config.per_conn_inflight);
                shared.enqueue(Arc::clone(&conn), &req, op, Instant::now());
            }
        }
    }
    shared.conns.lock().retain(|c| c.id != conn.id);
}

fn executor_loop(shared: &Arc<Shared>) {
    let telemetry = shared.tm.telemetry();
    loop {
        let (job, ticket) = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(j) = q.pop_front() {
                    // Draw the commit ticket here — at execution start,
                    // under the queue lock — not at admission. Still under
                    // the lock, ticket order equals dequeue order equals
                    // arrival order (the FIFO contract); but unlike
                    // admission-time drawing, every outstanding ticket now
                    // belongs to a job an executor is actually running, so
                    // the lane can never wait on work nobody is free to
                    // start. (The runtime draws implicit tickets for
                    // *unordered* requests too at execution time; mixing
                    // those with admission-time explicit tickets is exactly
                    // the inversion that wedged: all executors holding late
                    // implicit tickets, early explicit tickets buried in
                    // this queue.)
                    let ticket = (j.ordered).then(|| shared.tm.ticket());
                    break (j, ticket);
                }
                if shared.stop_workers.load(Ordering::Acquire) {
                    return;
                }
                // A delay here holds the executor between its stop check
                // and its park: the window in which a `stop_workers` store
                // made outside the queue lock would lose its wakeup.
                rtf_txfault::fail_point!("txserver.exec.park");
                shared.qcv.wait(&mut q);
            }
        };
        if shared.drain_flush.load(Ordering::Acquire) {
            // Past the drain deadline: don't start the transaction. The
            // just-drawn ticket (if any) drops here — abandoned, so the
            // ordered lane skips its turn instead of wedging successors.
            drop(ticket);
            telemetry.count(Counter::ServerDrained, 1);
            job.conn.send(
                &Response { req_id: job.req_id, status: Status::ShedDraining, body: vec![] },
                &shared.tm,
            );
            shared.admission.release();
            job.conn.release_slot();
            continue;
        }
        let budget = budget_for(job.deadline_ms, job.admitted_at);
        // A panic escaping the request (its body, or a bug below it) is
        // contained here: the request is answered `ErrPanicked`, its ticket
        // (dropped while unwinding) is abandoned, and both of its slots are
        // released below exactly as for any other verdict.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = rtf_txfault::fail_point!("txserver.exec");
            execute(&shared.tm, &shared.state, job.op, budget, ticket)
        }))
        .unwrap_or_else(|_| {
            Err(TxError::FuturePanicked { message: "request execution panicked".into() })
        });
        let resp = match &result {
            Ok(body) => Response { req_id: job.req_id, status: Status::Ok, body: body.clone() },
            Err(e) => {
                Response { req_id: job.req_id, status: Status::from_tx_error(e), body: vec![] }
            }
        };
        telemetry.count(Counter::ServerCompleted, 1);
        if result.is_err() {
            telemetry.count(Counter::ServerFailed, 1);
        }
        job.conn.send(&resp, &shared.tm);
        shared.admission.release();
        job.conn.release_slot();
    }
}
