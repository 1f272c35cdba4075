//! Span recorder for the traced run.
//!
//! Each benchmark thread owns a tracer in a thread-local. A span covers one
//! call from the benchmark into a layer: it records its name, start, end,
//! the span that was open when it began (its parent) and the id of the op
//! it belongs to. Durations and self times (duration minus child spans) go
//! into per-name histograms for every span; the span records themselves are
//! kept in memory up to a cap and written out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Hist;

/// Span names: one per layer boundary the benchmark wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `Rtf::run` (core: run loop, commit).
    Run,
    /// The transaction body passed to `Rtf::run`, one span per attempt.
    Body,
    /// `THashMap::get` inside a body.
    HashGet,
    /// `THashMap::insert` inside a body.
    HashInsert,
    /// `vacation::Client::execute` per op type.
    VacMakeReservation,
    VacDeleteCustomer,
    VacUpdateTables,
    VacPriceRange,
    /// `tpcc::run_op` per op type.
    TpccNewOrder,
    TpccPayment,
    TpccOrderStatus,
    TpccDelivery,
    TpccStockLevel,
    TpccAudit,
    /// One wire request, from send to its reply.
    WireRequest,
    /// `txserver::workloads::execute`, called in-process.
    ServerExecute,
}

/// Number of span names.
const NAMES: usize = Name::ServerExecute as usize + 1;

impl Name {
    /// Label used in the span file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Run => "core.run",
            Name::Body => "bench.body",
            Name::HashGet => "tstructs.get",
            Name::HashInsert => "tstructs.insert",
            Name::VacMakeReservation => "vacation.make_reservation",
            Name::VacDeleteCustomer => "vacation.delete_customer",
            Name::VacUpdateTables => "vacation.update_tables",
            Name::VacPriceRange => "vacation.price_range",
            Name::TpccNewOrder => "tpcc.new_order",
            Name::TpccPayment => "tpcc.payment",
            Name::TpccOrderStatus => "tpcc.order_status",
            Name::TpccDelivery => "tpcc.delivery",
            Name::TpccStockLevel => "tpcc.stock_level",
            Name::TpccAudit => "tpcc.audit",
            Name::WireRequest => "txserver.request",
            Name::ServerExecute => "txserver.execute",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Span records kept per thread; later spans still feed the histograms.
const SPAN_CAP: usize = 50_000;
/// Parent index of a root span (or of one whose parent was not kept).
const NO_PARENT: u32 = u32::MAX;

struct SpanRec {
    op: u64,
    name: Name,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    slot: u32,
}

/// One thread's spans and per-name histograms.
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    ops: u64,
    spans: Vec<SpanRec>,
    stack: Vec<Open>,
    durations: Vec<Hist>,
    self_times: Vec<Hist>,
}

impl Tracer {
    fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            thread,
            ops: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            durations: vec![Hist::default(); NAMES],
            self_times: vec![Hist::default(); NAMES],
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: Name) {
        if self.stack.is_empty() {
            self.ops += 1;
        }
        let start_ns = self.now();
        let slot = if self.spans.len() < SPAN_CAP {
            let parent = self.stack.last().map_or(NO_PARENT, |p| p.slot);
            self.spans.push(SpanRec {
                op: (self.thread << 48) | self.ops,
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open { name, start_ns, child_ns: 0, slot });
    }

    fn exit(&mut self) {
        let end_ns = self.now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(rec) = self.spans.get_mut(open.slot as usize) {
            rec.end_ns = end_ns;
        }
        self.durations[open.name.index()].record(dur);
        self.self_times[open.name.index()].record(dur.saturating_sub(open.child_ns));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    fn leaf(&mut self, name: Name, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        if self.stack.is_empty() {
            self.ops += 1;
        }
        if self.spans.len() < SPAN_CAP {
            let parent = self.stack.last().map_or(NO_PARENT, |p| p.slot);
            let op = (self.thread << 48) | self.ops;
            self.spans.push(SpanRec { op, name, parent, start_ns, end_ns });
        }
        let dur = end_ns.saturating_sub(start_ns);
        self.durations[name.index()].record(dur);
        self.self_times[name.index()].record(dur);
    }

    /// Duration histogram of every span named `name`.
    pub fn durations(&self, name: Name) -> &Hist {
        &self.durations[name.index()]
    }

    /// Self-time histogram (duration minus child spans) of `name`.
    pub fn self_times(&self, name: Name) -> &Hist {
        &self.self_times[name.index()]
    }

    /// Adds another thread's histograms and span records.
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.durations.iter_mut().zip(&other.durations) {
            a.merge(b);
        }
        for (a, b) in self.self_times.iter_mut().zip(&other.self_times) {
            a.merge(b);
        }
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// The kept spans as tab-separated lines:
    /// `index op name parent start_ns end_ns` (parent `-` for a root).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\top\tname\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{i}\t{:#x}\t{}\t{parent}\t{}\t{}",
                s.op,
                s.name.label(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on the calling thread. `thread` tags its op ids; `epoch`
/// is shared by every thread of a run so span times line up.
pub fn install(epoch: Instant, thread: u64) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(epoch, thread)));
}

/// Stops tracing on the calling thread and returns what it recorded.
pub fn take() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Records a finished span with no children, for calls that overlap on one
/// thread (pipelined wire requests) and so cannot nest.
pub fn leaf(name: Name, start: Instant, end: Instant) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.leaf(name, start, end);
        }
    });
}

/// An open span; closes when dropped, unwinding included.
pub struct Span(bool);

/// Opens a span named `name` under the currently open one. A no-op on a
/// thread without a tracer, so untraced runs pay one thread-local check.
pub fn span(name: Name) -> Span {
    Span(TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.enter(name);
            true
        }
        None => false,
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.0 {
            TRACER.with(|t| {
                if let Some(tr) = t.borrow_mut().as_mut() {
                    tr.exit();
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        install(Instant::now(), 1);
        {
            let _run = span(Name::Run);
            {
                let _body = span(Name::Body);
                let _get = span(Name::HashGet);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = take().expect("installed");
        let run = t.durations(Name::Run).percentile(0.5);
        let run_self = t.self_times(Name::Run).percentile(0.5);
        let body = t.durations(Name::Body).percentile(0.5);
        assert!(body >= 2_000_000 && run >= body);
        assert!(run_self < run - 1_900_000, "self {run_self} of run {run}");
        let tsv = t.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("core.run\t-"));
        assert!(lines[2].contains("bench.body\t0\t"));
        assert!(lines[3].contains("tstructs.get\t1\t"));
        assert!(take().is_none());
    }

    #[test]
    fn untraced_threads_record_nothing() {
        let _s = span(Name::Run);
        assert!(take().is_none());
    }
}
