//! CI validator for the observability exports: parses an `RTF_METRICS`
//! JSON snapshot (and, optionally, an `RTF_CHROME_TRACE` document) and
//! asserts the fields a contended run must populate — non-zero commit and
//! abort counters, ordered commit/waitTurn/validation percentiles, an
//! abort-hotspot table, and future/continuation spans nested under their
//! top-level transaction.
//!
//! Usage: `metrics_check [flags] <metrics.json> [chrome_trace.json]`
//!
//! Flags (each enables an extra assertion for runs that must exhibit it):
//!
//! * `--require-reads` — the wait-free read fast path fired
//!   (`counters.read_fast > 0`) and slow-path walks did not dominate;
//! * `--require-gc` — the version GC trimmed permanent versions under load
//!   (`counters.versions_gced > 0`);
//! * `--no-dropped-spans` — the span rings kept up (`spans.dropped == 0`);
//! * `--require-stall-probe` — the starvation watchdog fired at least once
//!   (`counters.stalls_detected > 0`), proving the stall path is wired all
//!   the way through the event sink into the export;
//! * `--require-ordered` — the ordered-commit lane ran and its ticket
//!   lifecycle balanced: tickets were issued, commits flowed through the
//!   lane, and `issued == ordered_commits + abandoned` (every ticket
//!   resolved exactly once);
//! * `--require-server` — the network-facing server layer ran and its
//!   admission accounting reconciled exactly: requests were admitted
//!   (`counters.server_admitted > 0`), every admitted request was resolved
//!   (`server_admitted == server_completed + server_drained` — nothing
//!   leaked past the drain), and typed failures stayed a minority of the
//!   answered requests (`server_failed <= server_completed`);
//! * `--require-live STREAM.jsonl` — validates a live telemetry stream
//!   (`RTF_METRICS_STREAM`) against the final snapshot: every line parses
//!   with the `rtf-metrics-stream-v1` schema, sequence numbers are dense
//!   from 0, timestamps and every counter are monotone non-decreasing, the
//!   stream holds at least three snapshots, and the last line's counters
//!   and histogram counts equal the final `metrics.json` *exactly* (the
//!   sampler's final tick runs after the workload quiesced and before the
//!   export was written, so any difference is a lost update).
//!
//! Exits non-zero with a message naming the first failed assertion.

use rtf_txobs::Json;

fn fail(msg: &str) -> ! {
    eprintln!("metrics_check: FAIL: {msg}");
    std::process::exit(1);
}

fn u64_at(doc: &Json, path: &[&str]) -> u64 {
    doc.path(path)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(&format!("missing or non-integer field {}", path.join("."))))
}

fn check_hist(doc: &Json, name: &str, require_nonempty: bool) {
    let count = u64_at(doc, &["histograms_ns", name, "count"]);
    if require_nonempty && count == 0 {
        fail(&format!("histogram {name} recorded no samples"));
    }
    let p50 = u64_at(doc, &["histograms_ns", name, "p50_ns"]);
    let p95 = u64_at(doc, &["histograms_ns", name, "p95_ns"]);
    let p99 = u64_at(doc, &["histograms_ns", name, "p99_ns"]);
    let max = u64_at(doc, &["histograms_ns", name, "max_ns"]);
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        fail(&format!("histogram {name} percentiles disordered: {p50}/{p95}/{p99}/{max}"));
    }
    if count > 0 && max == 0 {
        fail(&format!("histogram {name} has {count} samples but max 0ns"));
    }
}

/// Extra assertions requested on the command line.
#[derive(Default)]
struct Requirements {
    reads: bool,
    gc: bool,
    no_dropped_spans: bool,
    stall_probe: bool,
    ordered: bool,
    server: bool,
    /// Path of a live JSONL stream to reconcile against the final snapshot.
    live_stream: Option<String>,
}

fn check_metrics(doc: &Json, req: &Requirements) {
    if doc.path(&["schema"]).and_then(Json::as_str) != Some("rtf-metrics-v1") {
        fail("schema is not rtf-metrics-v1");
    }
    let commits = u64_at(doc, &["derived", "commits"]);
    if commits == 0 {
        fail("derived.commits is zero — the smoke run committed nothing");
    }
    let aborts = u64_at(doc, &["derived", "top_aborts"])
        + u64_at(doc, &["counters", "sub_validation_aborts"]);
    if aborts == 0 {
        fail("no aborts recorded — the smoke run was not contended");
    }
    check_hist(doc, "commit", true);
    check_hist(doc, "wait_turn", false);
    check_hist(doc, "validation", false);
    check_hist(doc, "future_lifetime", false);
    let hotspots = doc
        .path(&["abort_hotspots"])
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail("abort_hotspots missing"));
    if hotspots.is_empty() {
        fail("aborts recorded but abort_hotspots is empty");
    }
    for h in hotspots {
        if h.get("total").and_then(Json::as_u64).unwrap_or(0) == 0 {
            fail("hotspot row with zero conflicts");
        }
    }
    let read_fast = u64_at(doc, &["counters", "read_fast"]);
    let read_slow = u64_at(doc, &["counters", "read_slow"]);
    if req.reads {
        if read_fast == 0 {
            fail("read_fast is zero — the wait-free read fast path never fired");
        }
        // A contended-but-healthy run reads mostly at the head; a slow-path
        // majority means snapshots chronically trail the committed head.
        if read_slow > read_fast {
            fail(&format!("slow-path reads dominate: fast {read_fast} vs slow {read_slow}"));
        }
    }
    if req.gc && u64_at(doc, &["counters", "versions_gced"]) == 0 {
        fail("versions_gced is zero — the version GC never trimmed under load");
    }
    if req.no_dropped_spans {
        let dropped = u64_at(doc, &["spans", "dropped"]);
        if dropped > 0 {
            fail(&format!("{dropped} spans dropped — ring buffers fell behind"));
        }
    }
    if req.stall_probe && u64_at(doc, &["counters", "stalls_detected"]) == 0 {
        fail("stalls_detected is zero — the starvation watchdog never reported through the sink");
    }
    if req.ordered {
        let issued = u64_at(doc, &["counters", "tickets_issued"]);
        let ordered_commits = u64_at(doc, &["counters", "ordered_commits"]);
        let abandoned = u64_at(doc, &["counters", "tickets_abandoned"]);
        if issued == 0 {
            fail("tickets_issued is zero — the ordered lane never issued a ticket");
        }
        if ordered_commits == 0 {
            fail("ordered_commits is zero — nothing committed through the ordered lane");
        }
        // A quiescent export must balance: RAII resolves every ticket
        // exactly once, as a commit or an abandonment.
        if ordered_commits + abandoned != issued {
            fail(&format!(
                "ticket lifecycle leak: issued {issued} != commits {ordered_commits} + \
                 abandoned {abandoned}"
            ));
        }
    }
    if req.server {
        let admitted = u64_at(doc, &["counters", "server_admitted"]);
        let completed = u64_at(doc, &["counters", "server_completed"]);
        let drained = u64_at(doc, &["counters", "server_drained"]);
        let failed = u64_at(doc, &["counters", "server_failed"]);
        if admitted == 0 {
            fail("server_admitted is zero — no request ever passed admission");
        }
        // The drain contract: every admission is resolved exactly once, as
        // a completion or a drain-time force-resolution. Anything else is a
        // leaked in-flight slot.
        if admitted != completed + drained {
            fail(&format!(
                "server admission leak: admitted {admitted} != completed {completed} + \
                 drained {drained}"
            ));
        }
        // `server_failed` counts completions answered with a typed TxError
        // (a subset of completed); a failure majority means the soak's
        // fault plan overwhelmed the retry machinery rather than probing it.
        if failed > completed {
            fail(&format!("server_failed {failed} exceeds server_completed {completed}"));
        }
    }
    println!(
        "metrics ok: {commits} commits, {aborts} aborts, {} hotspot rows, commit p99 {}ns, \
         reads fast/slow {read_fast}/{read_slow}, {} versions gced",
        hotspots.len(),
        u64_at(doc, &["histograms_ns", "commit", "p99_ns"]),
        u64_at(doc, &["counters", "versions_gced"]),
    );
}

/// Validates a live JSONL stream (`rtf-metrics-stream-v1`) and reconciles
/// its last line against the final exported snapshot. See the module docs
/// for the exact contract.
fn check_live(stream_path: &str, final_doc: &Json) {
    let text = std::fs::read_to_string(stream_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {stream_path}: {e}")));
    let lines: Vec<Json> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            Json::parse(line)
                .unwrap_or_else(|e| fail(&format!("{stream_path} line {}: {e}", i + 1)))
        })
        .collect();
    if lines.len() < 3 {
        fail(&format!(
            "live stream holds {} snapshots — need at least 3 (start, interval, final)",
            lines.len()
        ));
    }
    let mut prev_t = 0u64;
    let mut prev_counters: Vec<(String, u64)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.path(&["schema"]).and_then(Json::as_str) != Some("rtf-metrics-stream-v1") {
            fail(&format!("line {} schema is not rtf-metrics-stream-v1", i + 1));
        }
        let seq = u64_at(line, &["seq"]);
        if seq != i as u64 {
            fail(&format!("line {} has seq {seq} — sequence numbers must be dense from 0", i + 1));
        }
        let t = u64_at(line, &["t_ns"]);
        if t < prev_t {
            fail(&format!("line {} timestamp went backwards: {t} < {prev_t}", i + 1));
        }
        prev_t = t;
        let counters = line
            .path(&["metrics", "counters"])
            .and_then(Json::as_obj)
            .unwrap_or_else(|| fail(&format!("line {} has no metrics.counters", i + 1)));
        let counters: Vec<(String, u64)> = counters
            .iter()
            .map(|(name, v)| {
                let v = v.as_u64().unwrap_or_else(|| {
                    fail(&format!("line {} counter {name} is not an integer", i + 1))
                });
                (name.clone(), v)
            })
            .collect();
        for ((name, now), (pname, before)) in counters.iter().zip(prev_counters.iter()) {
            if name != pname {
                fail(&format!("line {} counter order changed at {name} vs {pname}", i + 1));
            }
            if now < before {
                fail(&format!("counter {name} went backwards at line {}: {now} < {before}", i + 1));
            }
        }
        prev_counters = counters;
    }
    // The final tick ran after the workload quiesced and before the export
    // was written, so the last streamed snapshot must equal the export.
    let last = lines.last().expect("at least 3 lines");
    let final_counters = final_doc
        .path(&["counters"])
        .and_then(Json::as_obj)
        .unwrap_or_else(|| fail("final snapshot has no counters"));
    for (name, v) in final_counters {
        let final_v = v.as_u64().unwrap_or(0);
        let streamed = u64_at(last, &["metrics", "counters", name]);
        if streamed != final_v {
            fail(&format!(
                "last streamed counter {name} = {streamed} but final export has {final_v} — \
                 stream and export do not reconcile"
            ));
        }
    }
    for hist in ["commit", "wait_turn", "validation", "future_lifetime"] {
        let streamed = u64_at(last, &["metrics", "histograms_ns", hist, "count"]);
        let final_v = u64_at(final_doc, &["histograms_ns", hist, "count"]);
        if streamed != final_v {
            fail(&format!(
                "last streamed {hist} histogram count {streamed} != final export {final_v}"
            ));
        }
    }
    println!(
        "live stream ok: {} snapshots over {:.2}s, last reconciles with the final export",
        lines.len(),
        prev_t.saturating_sub(u64_at(&lines[0], &["t_ns"])) as f64 / 1e9,
    );
}

fn check_trace(doc: &Json) {
    let events = doc
        .path(&["traceEvents"])
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail("traceEvents missing from chrome trace"));
    if events.is_empty() {
        fail("chrome trace has no events");
    }
    let named = |name: &str| {
        events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some(name)).count()
    };
    if named("top_level") == 0 {
        fail("chrome trace has no top_level spans");
    }
    if named("future") == 0 && named("continuation") == 0 {
        fail("chrome trace has no future/continuation spans");
    }
    // Every async lifecycle event must carry the tree id Perfetto nests by,
    // and begin/end phases must balance per id.
    let mut balance: std::collections::BTreeMap<String, i64> = Default::default();
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("b") | Some("e") => {
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| fail("async event without a tree id"));
                *balance.entry(id.to_string()).or_insert(0) +=
                    if e.get("ph").and_then(Json::as_str) == Some("b") { 1 } else { -1 };
            }
            Some("X") => {
                if e.get("dur").is_none() {
                    fail("complete event without dur");
                }
            }
            _ => fail("event with unexpected phase"),
        }
    }
    if let Some((id, n)) = balance.iter().find(|(_, n)| **n != 0) {
        fail(&format!("unbalanced async span nesting for {id}: {n}"));
    }
    println!(
        "trace ok: {} events, {} top-level spans, {} future spans",
        events.len(),
        named("top_level"),
        named("future")
    );
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
}

fn main() {
    let mut req = Requirements::default();
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require-reads" => req.reads = true,
            "--require-gc" => req.gc = true,
            "--no-dropped-spans" => req.no_dropped_spans = true,
            "--require-stall-probe" => req.stall_probe = true,
            "--require-ordered" => req.ordered = true,
            "--require-server" => req.server = true,
            "--require-live" => {
                req.live_stream = Some(args.next().unwrap_or_else(|| {
                    eprintln!("metrics_check: --require-live needs a STREAM.jsonl path");
                    std::process::exit(2);
                }));
            }
            _ if arg.starts_with("--") => {
                eprintln!("metrics_check: unknown flag {arg}");
                std::process::exit(2);
            }
            _ => positional.push(arg),
        }
    }
    let mut positional = positional.into_iter();
    let metrics = positional.next().unwrap_or_else(|| {
        eprintln!("usage: metrics_check [flags] <metrics.json> [chrome_trace.json]");
        std::process::exit(2);
    });
    let metrics_doc = load(&metrics);
    check_metrics(&metrics_doc, &req);
    if let Some(stream) = &req.live_stream {
        check_live(stream, &metrics_doc);
    }
    if let Some(trace) = positional.next() {
        check_trace(&load(&trace));
    }
}
