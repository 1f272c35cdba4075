//! Turns measured phases into the named metrics the benchmark reports.

use rtf::StatSnapshot;

use crate::stats::{median, Hist};
use crate::trace::{Name, Tracer};
use crate::workloads::Phase;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median over a phase's slices of `f(slice)`, skipping slices where it
/// is undefined (`None`).
fn slice_median(p: &Phase, f: impl Fn(usize) -> Option<f64>) -> f64 {
    let v: Vec<f64> = (0..p.rec.tallies.len()).filter_map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Successful ops per second: the median over the phase's slices.
pub fn throughput(p: &Phase) -> f64 {
    slice_median(p, |i| Some(p.rec.tallies[i].succeeded() as f64 / p.slice_secs(i)))
}

/// The end-to-end metrics of an untraced phase. Every figure but set-up
/// time and peak RSS is the median of its per-slice values.
pub fn end_to_end(setup_s: f64, p: &Phase, peak_rss_mb: f64) -> Vec<Metric> {
    let pct = |q: f64| {
        slice_median(p, |i| {
            let lat = &p.rec.tallies[i].ok_latency;
            (lat.count() > 0).then(|| us(lat.percentile(q)))
        })
    };
    let cpu_per_op = slice_median(p, |i| {
        let ok = p.rec.tallies[i].succeeded();
        (ok > 0).then(|| p.cpu[i].as_secs_f64() * 1e6 / ok as f64)
    });
    let long_p50 = slice_median(p, |i| {
        let h = &p.rec.longs[i];
        (h.count() > 0).then(|| us(h.percentile(0.50)))
    });
    vec![
        m("setup_s", "s", setup_s),
        m("throughput_ops_s", "1/s", throughput(p)),
        m("latency_p50_us", "us", pct(0.50)),
        m("latency_p99_us", "us", pct(0.99)),
        m("cpu_us_per_op", "us", cpu_per_op),
        m("peak_rss_mb", "MB", peak_rss_mb),
        m("long_txn_p50_us", "us", long_p50),
    ]
}

/// The per-layer metrics of a traced phase, with the tracing overhead
/// measured against the untraced phase that preceded it.
pub fn per_layer(untraced: &Phase, traced: &Phase, t: &Tracer) -> Vec<Metric> {
    let s: &StatSnapshot = &traced.stats;
    let ops = traced.rec.total().attempted();
    let per_op = |n: u64| ratio(n, ops);
    let us_per_op = |ns: u64| ratio(ns, ops) / 1e3;
    let mut hash_ops = Hist::default();
    hash_ops.merge(t.durations(Name::HashGet));
    hash_ops.merge(t.durations(Name::HashInsert));
    let mut out = vec![
        m("trace.overhead_pct", "%", (throughput(untraced) / throughput(traced) - 1.0) * 100.0),
        m("core.run_self_ns_p50", "ns", t.self_times(Name::Run).percentile(0.50) as f64),
        m("tstructs.op_ns_p50", "ns", hash_ops.percentile(0.50) as f64),
        m("mvstm.top_abort_rate", "frac", s.top_abort_rate()),
        m("mvstm.executions_per_commit", "1/commit", s.executions_per_commit()),
        m(
            "mvstm.lane_fallback_frac",
            "frac",
            ratio(s.lane_fallbacks, s.lane_commits + s.lane_fallbacks),
        ),
        m("mvstm.helped_writeback_frac", "frac", ratio(s.helped_writebacks, s.top_commits)),
        m("txengine.read_slow_frac", "frac", ratio(s.read_slow, s.read_fast + s.read_slow)),
        m("txengine.validation_us_per_op", "us/op", us_per_op(s.validation_ns)),
        m("txengine.retry_backoff_us_per_op", "us/op", us_per_op(s.retry_backoff_ns)),
        m("txengine.versions_gced_per_op", "1/op", per_op(s.versions_gced)),
        m("core.futures_per_op", "1/op", per_op(s.futures_submitted)),
        m("core.wait_turn_us_per_op", "us/op", us_per_op(s.wait_turn_ns)),
        m("core.sub_validation_aborts_per_op", "1/op", per_op(s.sub_validation_aborts)),
        m(
            "core.ro_validation_skip_frac",
            "frac",
            ratio(s.ro_validation_skips, s.ro_validation_skips + s.ro_validation_taken),
        ),
        m("core.continuation_restarts_per_op", "1/op", per_op(s.continuation_restarts)),
        m("core.fallback_runs_per_op", "1/op", per_op(s.fallback_runs)),
        m(
            "taskpool.helped_tasks_per_future",
            "frac",
            ratio(s.pool_helped_tasks, s.futures_submitted),
        ),
        m("core.async_polls_per_op", "1/op", per_op(s.async_polls)),
        m("core.async_spurious_poll_frac", "frac", ratio(s.async_spurious_polls, s.async_polls)),
        m("txserver.shed_frac", "frac", ratio(s.server_shed, s.server_admitted + s.server_shed)),
    ];
    for (name, span) in [
        ("vacation.make_reservation_us_p50", Name::VacMakeReservation),
        ("vacation.delete_customer_us_p50", Name::VacDeleteCustomer),
        ("vacation.update_tables_us_p50", Name::VacUpdateTables),
        ("vacation.price_range_us_p50", Name::VacPriceRange),
        ("tpcc.new_order_us_p50", Name::TpccNewOrder),
        ("tpcc.payment_us_p50", Name::TpccPayment),
        ("tpcc.order_status_us_p50", Name::TpccOrderStatus),
        ("tpcc.delivery_us_p50", Name::TpccDelivery),
        ("tpcc.stock_level_us_p50", Name::TpccStockLevel),
        ("tpcc.audit_us_p50", Name::TpccAudit),
    ] {
        out.push(m(name, "us", us(t.durations(span).percentile(0.50))));
    }
    // Figures only the wire workload measures read zero elsewhere.
    for name in
        ["txserver.execute_us_p50", "txserver.serve_overhead_us_p50", "txserver.inflight_mean"]
    {
        let value = traced.extra.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        let unit = if name == "txserver.inflight_mean" { "requests" } else { "us" };
        out.push(m(name, unit, value));
    }
    out
}
