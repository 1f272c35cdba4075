//! The observer: one [`TxObs`] aggregates everything the instrumentation
//! seam emits.
//!
//! A `TxObs` is an [`EventSink`] observer; attach it to any TM instance and
//! it accumulates:
//!
//! * counters — its own [`TmStats`], fed by the same [`Event::counter`]
//!   mapping as the runtime's, so one observer can aggregate across many TM
//!   instances (e.g. every cell of a benchmark sweep);
//! * latency histograms — commit, `waitTurn`, validation and future
//!   submission-to-completion, log-bucketed ([`LogHist`]);
//! * abort attribution — a per-cell [`ConflictTable`];
//! * spans — per-thread lock-free [`SpanRing`]s, drained on demand.
//!
//! [`TxObs::from_env`] builds an observer from the `RTF_METRICS`,
//! `RTF_METRICS_TEXT` and `RTF_CHROME_TRACE` environment variables;
//! [`TxObs::global_from_env`] memoizes one process-wide instance so every TM
//! created during a run feeds the same exported files.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rtf_txbase::{Counter, FxHashMap, StatSnapshot, TmStats};
use rtf_txengine::{obs_now_ns, stable_thread_id, Event, EventSink, SpanRec};

use crate::chrome::chrome_trace;
use crate::conflicts::{ConflictTable, Hotspot};
use crate::hist::{HistSnapshot, LogHist};
use crate::json::Json;
use crate::report;
use crate::ring::SpanRing;
use crate::snapshot::WaitEdge;

/// Observer tunables.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Whether to capture lifecycle spans (histograms and attribution are
    /// always on — they are O(1) per event).
    pub spans: bool,
    /// Capacity of each per-thread span ring (a power of two). When a ring
    /// fills, new spans are shed and counted, never blocked on.
    pub ring_capacity: usize,
    /// Rows in the exported conflict-hotspot report.
    pub top_n: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { spans: true, ring_capacity: 8192, top_n: 16 }
    }
}

/// Where [`TxObs::export_or_warn`] writes its documents.
#[derive(Clone, Debug, Default)]
pub struct ExportPaths {
    /// Machine-readable metrics snapshot (`RTF_METRICS`).
    pub metrics_json: Option<PathBuf>,
    /// Human-readable text report (`RTF_METRICS_TEXT`).
    pub text: Option<PathBuf>,
    /// Chrome trace-event document (`RTF_CHROME_TRACE`).
    pub chrome_trace: Option<PathBuf>,
}

/// One drained span plus the stable id of the thread that recorded it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanObs {
    /// The lifecycle record.
    pub rec: SpanRec,
    /// Stable id of the recording thread.
    pub thread: u64,
}

/// A point-in-time copy of everything a [`TxObs`] has aggregated.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Flat event counters (summed across every attached TM).
    pub counters: StatSnapshot,
    /// Successful top-level commit-chain latency.
    pub commit: HistSnapshot,
    /// `waitTurn` blocking time (strong ordering's direct cost).
    pub wait_turn: HistSnapshot,
    /// Sub-transaction validation time.
    pub validation: HistSnapshot,
    /// Future submission-to-completion latency.
    pub future_lifetime: HistSnapshot,
    /// Most-conflicted cells, descending.
    pub hotspots: Vec<Hotspot>,
    /// Spans successfully recorded into rings.
    pub spans_recorded: u64,
    /// Spans shed because a ring was full.
    pub spans_dropped: u64,
    /// Peak single-ring occupancy over the run — the ring-sizing signal
    /// that predicts `spans_dropped` before drops happen.
    pub span_ring_high_water: u64,
    /// Instantaneous values of every registered gauge (`(name, value)`,
    /// sorted by name), sampled when the snapshot was cut.
    pub gauges: Vec<(String, u64)>,
    /// Live blocked-on edges (who waits on whom), sorted by
    /// `(thread, depth)`, as of when the snapshot was cut.
    pub waits: Vec<WaitEdge>,
}

fn hist_json(h: &HistSnapshot) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::U64(h.count)),
        ("mean_ns".into(), Json::F64(h.mean)),
        ("p50_ns".into(), Json::U64(h.p50)),
        ("p95_ns".into(), Json::U64(h.p95)),
        ("p99_ns".into(), Json::U64(h.p99)),
        ("max_ns".into(), Json::U64(h.max)),
        (
            "buckets".into(),
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(lo, c)| Json::Arr(vec![Json::U64(lo), Json::U64(c)]))
                    .collect(),
            ),
        ),
    ])
}

impl MetricsSnapshot {
    /// The machine-readable export document (`RTF_METRICS` format).
    pub fn to_json(&self) -> Json {
        let c = &self.counters;
        let counters = Json::Obj(
            Counter::ALL.iter().map(|&k| (k.name().into(), Json::U64(c.get(k)))).collect(),
        );
        let derived = Json::Obj(vec![
            ("commits".into(), Json::U64(c.commits())),
            ("top_aborts".into(), Json::U64(c.top_aborts())),
            ("top_abort_rate".into(), Json::F64(c.top_abort_rate())),
            ("executions_per_commit".into(), Json::F64(c.executions_per_commit())),
        ]);
        let hotspots = Json::Arr(
            self.hotspots
                .iter()
                .map(|h| {
                    Json::Obj(vec![
                        ("cell".into(), Json::U64(h.cell)),
                        ("total".into(), Json::U64(h.total())),
                        ("top_validation".into(), Json::U64(h.top_validation)),
                        ("sub_validation".into(), Json::U64(h.sub_validation)),
                        ("inter_tree".into(), Json::U64(h.inter_tree)),
                        ("last_writer_tree".into(), Json::U64(h.last_writer_tree)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::str("rtf-metrics-v1")),
            ("counters".into(), counters),
            ("derived".into(), derived),
            (
                "histograms_ns".into(),
                Json::Obj(vec![
                    ("commit".into(), hist_json(&self.commit)),
                    ("wait_turn".into(), hist_json(&self.wait_turn)),
                    ("validation".into(), hist_json(&self.validation)),
                    ("future_lifetime".into(), hist_json(&self.future_lifetime)),
                ]),
            ),
            ("abort_hotspots".into(), hotspots),
            (
                "spans".into(),
                Json::Obj(vec![
                    ("recorded".into(), Json::U64(self.spans_recorded)),
                    ("dropped".into(), Json::U64(self.spans_dropped)),
                    ("high_water".into(), Json::U64(self.span_ring_high_water)),
                ]),
            ),
            (
                "gauges".into(),
                Json::Obj(self.gauges.iter().map(|(n, v)| (n.clone(), Json::U64(*v))).collect()),
            ),
            ("waits".into(), Json::Arr(self.waits.iter().map(WaitEdge::to_json).collect())),
        ])
    }

    /// The human-readable report (`RTF_METRICS_TEXT` format).
    pub fn text_report(&self) -> String {
        report::text_report(self)
    }
}

static OBS_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of (observer id → this thread's ring). Observers
    /// are few and long-lived; a linear scan beats hashing.
    static TLS_RINGS: std::cell::RefCell<Vec<(u64, Arc<SpanRing>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// What one thread published on entering a wait site (the live half of a
/// [`WaitEdge`]; `waited_ns` is resolved at snapshot time).
#[derive(Clone, Copy)]
struct WaitStart {
    kind: rtf_txengine::StallKind,
    tree: u64,
    a: u64,
    b: u64,
    since_ns: u64,
}

/// A registered live gauge: sampled (not accumulated) at snapshot time.
type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

/// The observability aggregate (see module docs). Create with
/// [`TxObs::new`] and attach via [`TxObs::sink`]; it is an [`EventSink`].
pub struct TxObs {
    id: u64,
    config: ObsConfig,
    exports: ExportPaths,
    stats: TmStats,
    hist_commit: LogHist,
    hist_wait_turn: LogHist,
    hist_validation: LogHist,
    hist_future: LogHist,
    conflicts: ConflictTable,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    collected: Mutex<Vec<SpanObs>>,
    // Wait sites and gauges are slow-path state (threads touch `waits` only
    // when they are about to park; gauges only at snapshot time), so plain
    // mutex-guarded maps are plenty — same reasoning as `ConflictTable`.
    waits: Mutex<FxHashMap<u64, Vec<WaitStart>>>,
    gauges: Mutex<Vec<(String, GaugeFn)>>,
}

impl fmt::Debug for TxObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxObs").field("id", &self.id).field("config", &self.config).finish()
    }
}

impl TxObs {
    /// A fresh observer with no export paths (snapshot programmatically).
    pub fn new(config: ObsConfig) -> Arc<TxObs> {
        TxObs::with_exports(config, ExportPaths::default())
    }

    /// A fresh observer that [`TxObs::export_or_warn`] will write out.
    pub fn with_exports(config: ObsConfig, exports: ExportPaths) -> Arc<TxObs> {
        Arc::new(TxObs {
            id: OBS_IDS.fetch_add(1, Ordering::Relaxed),
            config,
            exports,
            stats: TmStats::default(),
            hist_commit: LogHist::new(),
            hist_wait_turn: LogHist::new(),
            hist_validation: LogHist::new(),
            hist_future: LogHist::new(),
            conflicts: ConflictTable::default(),
            rings: Mutex::new(Vec::new()),
            collected: Mutex::new(Vec::new()),
            waits: Mutex::new(FxHashMap::default()),
            gauges: Mutex::new(Vec::new()),
        })
    }

    /// An observer configured from the environment, or `None` when no
    /// export variable is set. `RTF_METRICS=<path>` requests the JSON
    /// snapshot, `RTF_METRICS_TEXT=<path>` the text report, and
    /// `RTF_CHROME_TRACE=<path>` the trace (which also switches span
    /// capture on).
    pub fn from_env() -> Option<Arc<TxObs>> {
        fn path(var: &str) -> Option<PathBuf> {
            std::env::var_os(var).filter(|v| !v.is_empty()).map(PathBuf::from)
        }
        let exports = ExportPaths {
            metrics_json: path("RTF_METRICS"),
            text: path("RTF_METRICS_TEXT"),
            chrome_trace: path("RTF_CHROME_TRACE"),
        };
        if exports.metrics_json.is_none()
            && exports.text.is_none()
            && exports.chrome_trace.is_none()
        {
            return None;
        }
        let config = ObsConfig { spans: exports.chrome_trace.is_some(), ..ObsConfig::default() };
        Some(TxObs::with_exports(config, exports))
    }

    /// The process-wide env-configured observer (memoized [`TxObs::from_env`]),
    /// so every TM instance created during a run aggregates into the same
    /// exported files.
    pub fn global_from_env() -> Option<Arc<TxObs>> {
        static GLOBAL: OnceLock<Option<Arc<TxObs>>> = OnceLock::new();
        GLOBAL.get_or_init(TxObs::from_env).clone()
    }

    /// This observer as an attachable sink.
    pub fn sink(self: &Arc<Self>) -> Arc<dyn EventSink> {
        Arc::clone(self) as Arc<dyn EventSink>
    }

    /// The observer's tunables.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// The configured export destinations.
    pub fn exports(&self) -> &ExportPaths {
        &self.exports
    }

    fn ring_for_this_thread(&self) -> Arc<SpanRing> {
        TLS_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(SpanRing::new(self.config.ring_capacity, stable_thread_id()));
            self.rings.lock().push(Arc::clone(&ring));
            cache.push((self.id, Arc::clone(&ring)));
            ring
        })
    }

    /// Drains every thread's ring into the retained span list and returns a
    /// copy of everything collected so far, ordered by start time.
    pub fn collected_spans(&self) -> Vec<SpanObs> {
        let mut collected = self.collected.lock();
        for ring in self.rings.lock().iter() {
            let thread = ring.thread();
            collected.extend(ring.drain().into_iter().map(|rec| SpanObs { rec, thread }));
        }
        collected.sort_by_key(|s| (s.rec.start_ns, s.rec.end_ns, s.rec.node));
        collected.clone()
    }

    /// Registers a live gauge sampled into every snapshot's `gauges` list.
    /// Re-registering a name replaces the previous closure, so a sequence
    /// of TM instances sharing one observer (a benchmark sweep) always
    /// reports the newest instance and drops the stale capture.
    pub fn register_gauge(
        &self,
        name: impl Into<String>,
        sample: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let name = name.into();
        let mut gauges = self.gauges.lock();
        if let Some(slot) = gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = Box::new(sample);
        } else {
            gauges.push((name, Box::new(sample)));
        }
    }

    /// The live blocked-on edges as of now (see [`WaitEdge`]), sorted by
    /// `(thread, depth)`.
    pub fn active_waits(&self) -> Vec<WaitEdge> {
        let now = obs_now_ns();
        let mut edges: Vec<WaitEdge> = self
            .waits
            .lock()
            .iter()
            .flat_map(|(&thread, stack)| {
                stack.iter().enumerate().map(move |(depth, w)| WaitEdge {
                    thread,
                    depth: depth as u32,
                    kind: w.kind,
                    tree: w.tree,
                    a: w.a,
                    b: w.b,
                    waited_ns: now.saturating_sub(w.since_ns),
                })
            })
            .collect();
        edges.sort_by_key(|e| (e.thread, e.depth));
        edges
    }

    /// A point-in-time copy of all aggregates (does not drain spans).
    pub fn metrics(&self) -> MetricsSnapshot {
        let (mut recorded, mut dropped, mut high_water) = (0, 0, 0);
        for ring in self.rings.lock().iter() {
            recorded += ring.pushed();
            dropped += ring.dropped();
            high_water = high_water.max(ring.high_water());
        }
        let mut gauges: Vec<(String, u64)> =
            self.gauges.lock().iter().map(|(n, f)| (n.clone(), f())).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters: self.stats.snapshot(),
            commit: self.hist_commit.snapshot(),
            wait_turn: self.hist_wait_turn.snapshot(),
            validation: self.hist_validation.snapshot(),
            future_lifetime: self.hist_future.snapshot(),
            hotspots: self.conflicts.top_n(self.config.top_n),
            spans_recorded: recorded,
            spans_dropped: dropped,
            span_ring_high_water: high_water,
            gauges,
            waits: self.active_waits(),
        }
    }

    /// Writes every configured export document, returning the paths
    /// written.
    pub fn export_configured(&self) -> std::io::Result<Vec<PathBuf>> {
        fn write(path: &Path, contents: String, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
            std::fs::write(path, contents)?;
            out.push(path.to_path_buf());
            Ok(())
        }
        let mut written = Vec::new();
        if self.exports.metrics_json.is_some() || self.exports.text.is_some() {
            let snap = self.metrics();
            if let Some(p) = &self.exports.metrics_json {
                write(p, snap.to_json().pretty(), &mut written)?;
            }
            if let Some(p) = &self.exports.text {
                write(p, snap.text_report(), &mut written)?;
            }
        }
        if let Some(p) = &self.exports.chrome_trace {
            write(p, chrome_trace(&self.collected_spans()).pretty(), &mut written)?;
        }
        Ok(written)
    }

    /// [`TxObs::export_configured`], downgrading IO failures to a stderr
    /// warning (the drop path must not panic).
    pub fn export_or_warn(&self) {
        if let Err(e) = self.export_configured() {
            eprintln!("[rtf txobs] metrics export failed: {e}");
        }
    }
}

impl EventSink for TxObs {
    fn event(&self, event: Event) {
        if let Some((c, n)) = event.counter() {
            self.stats.add(c, n);
        }
        match event {
            Event::TopCommitNs(ns) => self.hist_commit.record(ns),
            Event::Count(Counter::WaitTurnNs, ns) => self.hist_wait_turn.record(ns),
            Event::Count(Counter::ValidationNs, ns) => self.hist_validation.record(ns),
            Event::FutureLifetimeNs(ns) => self.hist_future.record(ns),
            Event::Conflict { kind, cell, writer_tree } => {
                self.conflicts.record(kind, cell.raw() as u64, writer_tree.0);
            }
            Event::WaitBegin { kind, tree, a, b } => {
                self.waits.lock().entry(stable_thread_id()).or_default().push(WaitStart {
                    kind,
                    tree,
                    a,
                    b,
                    since_ns: obs_now_ns(),
                });
            }
            Event::WaitEnd => {
                let mut waits = self.waits.lock();
                let tid = stable_thread_id();
                if let Some(stack) = waits.get_mut(&tid) {
                    stack.pop();
                    if stack.is_empty() {
                        waits.remove(&tid);
                    }
                }
            }
            _ => {}
        }
    }

    fn spans_enabled(&self) -> bool {
        self.config.spans
    }

    fn span(&self, rec: SpanRec) {
        // A full ring sheds the record (and counts it) rather than blocking.
        self.ring_for_this_thread().push(&rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_txengine::{ConflictKind, SpanKind};

    fn cell_id(raw: usize) -> rtf_txengine::CellId {
        // CellId wraps a raw pointer-derived usize; any value works for
        // attribution bookkeeping.
        rtf_txengine::CellId::from_raw(raw)
    }

    #[test]
    fn events_feed_counters_histograms_and_hotspots() {
        let obs = TxObs::new(ObsConfig::default());
        let sink = obs.sink();
        sink.event(Event::Count(Counter::TopCommits, 1));
        sink.event(Event::TopCommitNs(1_000));
        sink.event(Event::TopCommitNs(2_000));
        sink.event(Event::Count(Counter::WaitTurnNs, 500));
        sink.event(Event::Count(Counter::ValidationNs, 50));
        sink.event(Event::FutureLifetimeNs(9_999));
        sink.event(Event::Conflict {
            kind: ConflictKind::SubValidation,
            cell: cell_id(0xabc),
            writer_tree: rtf_txbase::TreeId(7),
        });
        let m = obs.metrics();
        assert_eq!(m.counters.top_commits, 1);
        assert_eq!(m.commit.count, 2);
        assert_eq!(m.wait_turn.count, 1);
        assert_eq!(m.validation.count, 1);
        assert_eq!(m.future_lifetime.count, 1);
        assert_eq!(m.hotspots.len(), 1);
        assert_eq!(m.hotspots[0].cell, 0xabc);
        assert_eq!(m.hotspots[0].last_writer_tree, 7);
    }

    #[test]
    fn spans_round_trip_through_rings() {
        let obs = TxObs::new(ObsConfig { spans: true, ring_capacity: 8, top_n: 4 });
        let sink = obs.sink();
        assert!(sink.spans_enabled());
        let rec = SpanRec {
            kind: SpanKind::Future,
            tree: 1,
            node: 2,
            parent: 3,
            start_ns: 100,
            end_ns: 200,
            ok: true,
        };
        sink.span(rec);
        let spans = obs.collected_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].rec, rec);
        assert_eq!(spans[0].thread, stable_thread_id());
        // Collected spans are retained across repeated drains.
        assert_eq!(obs.collected_spans().len(), 1);
        let m = obs.metrics();
        assert_eq!(m.spans_recorded, 1);
        assert_eq!(m.spans_dropped, 0);
    }

    #[test]
    fn span_capture_can_be_disabled() {
        let obs = TxObs::new(ObsConfig { spans: false, ..ObsConfig::default() });
        assert!(!obs.sink().spans_enabled());
    }

    #[test]
    fn multi_thread_spans_carry_their_thread_ids() {
        let obs = TxObs::new(ObsConfig::default());
        let hs: Vec<_> = (0..3)
            .map(|i| {
                let obs = Arc::clone(&obs);
                std::thread::spawn(move || {
                    obs.span(SpanRec {
                        kind: SpanKind::WaitTurn,
                        tree: i,
                        node: 0,
                        parent: 0,
                        start_ns: i,
                        end_ns: i + 1,
                        ok: true,
                    });
                    stable_thread_id()
                })
            })
            .collect();
        let mut tids: Vec<u64> = hs.into_iter().map(|h| h.join().unwrap()).collect();
        let spans = obs.collected_spans();
        let mut seen: Vec<u64> = spans.iter().map(|s| s.thread).collect();
        tids.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, tids);
    }

    #[test]
    fn wait_begin_end_maintains_a_per_thread_stack_of_edges() {
        use rtf_txengine::StallKind;
        let obs = TxObs::new(ObsConfig::default());
        let sink = obs.sink();
        sink.event(Event::WaitBegin { kind: StallKind::TicketWait, tree: 7, a: 0, b: 42 });
        sink.event(Event::WaitBegin { kind: StallKind::WaitTurn, tree: 7, a: 3, b: 9 });
        let m = obs.metrics();
        assert_eq!(m.waits.len(), 2);
        assert_eq!(m.waits[0].depth, 0);
        assert_eq!(m.waits[0].kind, StallKind::TicketWait);
        assert_eq!((m.waits[0].a, m.waits[0].b), (0, 42));
        assert_eq!(m.waits[1].depth, 1);
        assert_eq!(m.waits[1].kind, StallKind::WaitTurn);
        assert_eq!(m.waits[0].thread, stable_thread_id());
        // LIFO: the inner site clears first.
        sink.event(Event::WaitEnd);
        let m = obs.metrics();
        assert_eq!(m.waits.len(), 1);
        assert_eq!(m.waits[0].kind, StallKind::TicketWait);
        sink.event(Event::WaitEnd);
        assert!(obs.metrics().waits.is_empty());
        // A stray WaitEnd with no open site is ignored.
        sink.event(Event::WaitEnd);
        assert!(obs.metrics().waits.is_empty());
    }

    #[test]
    fn gauges_are_sampled_at_snapshot_time_and_replace_by_name() {
        let obs = TxObs::new(ObsConfig::default());
        let v = Arc::new(AtomicU64::new(5));
        let v2 = Arc::clone(&v);
        obs.register_gauge("queue_depth", move || v2.load(Ordering::Relaxed));
        obs.register_gauge("lane_depth", || 3);
        let m = obs.metrics();
        // Sorted by name.
        assert_eq!(m.gauges, vec![("lane_depth".into(), 3), ("queue_depth".into(), 5)]);
        v.store(9, Ordering::Relaxed);
        assert_eq!(obs.metrics().gauges[1], ("queue_depth".into(), 9));
        // Re-registration replaces rather than duplicates.
        obs.register_gauge("lane_depth", || 4);
        let m = obs.metrics();
        assert_eq!(m.gauges.len(), 2);
        assert_eq!(m.gauges[0], ("lane_depth".into(), 4));
    }

    #[test]
    fn export_writes_all_configured_documents() {
        let dir = std::env::temp_dir().join(format!("rtf-txobs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let exports = ExportPaths {
            metrics_json: Some(dir.join("m.json")),
            text: Some(dir.join("m.txt")),
            chrome_trace: Some(dir.join("t.json")),
        };
        let obs = TxObs::with_exports(ObsConfig::default(), exports);
        obs.event(Event::Count(Counter::TopCommits, 1));
        obs.event(Event::TopCommitNs(123));
        obs.span(SpanRec {
            kind: SpanKind::TopLevel,
            tree: 1,
            node: 1,
            parent: 0,
            start_ns: 0,
            end_ns: 10,
            ok: true,
        });
        let written = obs.export_configured().unwrap();
        assert_eq!(written.len(), 3);
        let metrics = Json::parse(&std::fs::read_to_string(dir.join("m.json")).unwrap()).unwrap();
        assert_eq!(metrics.path(&["counters", "top_commits"]).unwrap().as_u64(), Some(1));
        assert_eq!(metrics.path(&["histograms_ns", "commit", "count"]).unwrap().as_u64(), Some(1));
        let trace = Json::parse(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
        assert!(std::fs::read_to_string(dir.join("m.txt")).unwrap().contains("commits"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
