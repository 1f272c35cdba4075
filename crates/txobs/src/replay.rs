//! Commit-order record/replay (`rtf-replay-v1`).
//!
//! In ordered mode the runtime emits one [`Event::TicketCommit`] per
//! committed top-level transaction, *while the committer still holds its
//! lane's turn* — so the event stream of one lane is strictly ascending in
//! `seq` and, per lane, totally ordered. [`CommitLog`] is the sink that
//! captures this stream; [`ReplayArtifact`] freezes a finished run (commit
//! order per lane, final state hash, and the deterministic counter subset)
//! into a schema-versioned JSON document that a replay run re-derives and
//! compares bit-for-bit.
//!
//! ## What is (and is not) deterministic
//!
//! With a fixed ticket-issue order and a fixed txfault seed whose plan
//! injects only *aborts/delays/spurious wakeups* (no panics — a panic kills
//! whichever transaction the scheduler happens to hand the fault, which is
//! a scheduling-dependent choice), every retried transaction converges and
//! commits at its reserved position: the commit log, the final state, and
//! the lifecycle counters `{tickets_issued, ordered_commits,
//! tickets_abandoned}` are run-invariant. Raw *attempt* counters
//! (validation aborts, helped writebacks, wait times) remain
//! scheduling-dependent and are deliberately excluded, as are tree ids
//! (process-global, not reproducible across runs).

use std::sync::Arc;

use parking_lot::Mutex;
use rtf_txbase::StatSnapshot;
use rtf_txengine::{Event, EventSink};

use crate::json::Json;

/// Schema tag of the replay artifact document.
pub const REPLAY_SCHEMA: &str = "rtf-replay-v1";

/// An [`EventSink`] recording the ordered lane's commit order: one
/// `(lane, seq)` entry per [`Event::TicketCommit`], in emission order.
/// Attach via `RtfBuilder::event_sink`.
#[derive(Default)]
pub struct CommitLog {
    entries: Mutex<Vec<(u32, u64)>>,
}

impl CommitLog {
    /// A fresh, shareable log.
    pub fn new() -> Arc<CommitLog> {
        Arc::new(CommitLog::default())
    }

    /// The recorded `(lane, seq)` entries, in emission order.
    pub fn entries(&self) -> Vec<(u32, u64)> {
        self.entries.lock().clone()
    }

    /// Number of recorded commits.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drops all recorded entries (for log reuse across runs).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

impl EventSink for CommitLog {
    fn event(&self, event: Event) {
        if let Event::TicketCommit { lane, seq, .. } = event {
            self.entries.lock().push((lane, seq));
        }
    }

    fn timings_enabled(&self) -> bool {
        false
    }
}

/// Order-independent hash of a final state: fold each value with its index
/// so permutations differ, using FNV-1a over the little-endian bytes.
/// Stable across runs, platforms and (unlike `DefaultHasher`) Rust
/// versions — artifact hashes must be comparable across recordings.
pub fn state_hash(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for (i, v) in values.into_iter().enumerate() {
        fold(i as u64);
        fold(v);
    }
    h
}

/// The deterministic counter subset of a [`StatSnapshot`] (see module docs
/// for why only lifecycle counters qualify).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCounters {
    /// Tickets drawn from the dispenser.
    pub tickets_issued: u64,
    /// Commits through the ordered lane.
    pub ordered_commits: u64,
    /// Tickets abandoned before commit.
    pub tickets_abandoned: u64,
}

impl ReplayCounters {
    /// Extracts the deterministic subset from a full snapshot.
    pub fn from_stats(s: &StatSnapshot) -> ReplayCounters {
        ReplayCounters {
            tickets_issued: s.tickets_issued,
            ordered_commits: s.ordered_commits,
            tickets_abandoned: s.tickets_abandoned,
        }
    }
}

/// One recorded ordered-mode run, comparable across record and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayArtifact {
    /// Workload name (free-form; names the (workload, seed) pair).
    pub workload: String,
    /// The txfault seed the run was recorded under (0 = no fault plan).
    pub seed: u64,
    /// Dispenser shard count the run used.
    pub shards: u32,
    /// Per-lane commit order: `lanes[l]` is the ascending list of committed
    /// seqs of lane `l`. Grouping by lane makes the artifact deterministic
    /// for any shard count (cross-lane interleaving is scheduling noise).
    pub lanes: Vec<Vec<u64>>,
    /// Order-independent hash of the final transactional state.
    pub state_hash: u64,
    /// Deterministic lifecycle counters.
    pub counters: ReplayCounters,
}

impl ReplayArtifact {
    /// Builds the artifact from a finished run's raw commit log.
    pub fn from_run(
        workload: impl Into<String>,
        seed: u64,
        shards: u32,
        log: &CommitLog,
        state_hash: u64,
        stats: &StatSnapshot,
    ) -> ReplayArtifact {
        let mut lanes: Vec<Vec<u64>> = vec![Vec::new(); shards.max(1) as usize];
        for (lane, seq) in log.entries() {
            if let Some(l) = lanes.get_mut(lane as usize) {
                l.push(seq);
            }
        }
        ReplayArtifact {
            workload: workload.into(),
            seed,
            shards: shards.max(1),
            lanes,
            state_hash,
            counters: ReplayCounters::from_stats(stats),
        }
    }

    /// The `rtf-replay-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(REPLAY_SCHEMA)),
            ("workload".into(), Json::str(&self.workload)),
            ("seed".into(), Json::U64(self.seed)),
            ("shards".into(), Json::U64(self.shards as u64)),
            (
                "lanes".into(),
                Json::Arr(
                    self.lanes
                        .iter()
                        .map(|l| Json::Arr(l.iter().map(|&s| Json::U64(s)).collect()))
                        .collect(),
                ),
            ),
            ("state_hash".into(), Json::U64(self.state_hash)),
            (
                "counters".into(),
                Json::Obj(vec![
                    ("tickets_issued".into(), Json::U64(self.counters.tickets_issued)),
                    ("ordered_commits".into(), Json::U64(self.counters.ordered_commits)),
                    ("tickets_abandoned".into(), Json::U64(self.counters.tickets_abandoned)),
                ]),
            ),
        ])
    }

    /// Parses a serialized artifact, checking the schema tag.
    pub fn parse(text: &str) -> Result<ReplayArtifact, String> {
        let doc = Json::parse(text).map_err(|e| format!("replay artifact: {e:?}"))?;
        let schema = doc.path(&["schema"]).and_then(Json::as_str).unwrap_or_default();
        if schema != REPLAY_SCHEMA {
            return Err(format!("unsupported replay schema {schema:?} (want {REPLAY_SCHEMA})"));
        }
        let u64_at = |p: &[&str]| {
            doc.path(p).and_then(Json::as_u64).ok_or_else(|| format!("missing field {p:?}"))
        };
        let workload = doc
            .path(&["workload"])
            .and_then(Json::as_str)
            .ok_or("missing field workload")?
            .to_string();
        let lanes = doc
            .path(&["lanes"])
            .and_then(Json::as_arr)
            .ok_or("missing field lanes")?
            .iter()
            .map(|l| {
                l.as_arr()
                    .ok_or_else(|| "lane is not an array".to_string())
                    .map(|seqs| seqs.iter().filter_map(Json::as_u64).collect())
            })
            .collect::<Result<Vec<Vec<u64>>, String>>()?;
        Ok(ReplayArtifact {
            workload,
            seed: u64_at(&["seed"])?,
            shards: u64_at(&["shards"])? as u32,
            lanes,
            state_hash: u64_at(&["state_hash"])?,
            counters: ReplayCounters {
                tickets_issued: u64_at(&["counters", "tickets_issued"])?,
                ordered_commits: u64_at(&["counters", "ordered_commits"])?,
                tickets_abandoned: u64_at(&["counters", "tickets_abandoned"])?,
            },
        })
    }

    /// `None` when the runs are identical; otherwise a description of the
    /// *first* divergence (the replayable repro pointer).
    pub fn diff(&self, other: &ReplayArtifact) -> Option<String> {
        if self.shards != other.shards {
            return Some(format!("shard count {} != {}", self.shards, other.shards));
        }
        if self.seed != other.seed {
            return Some(format!("seed {:#x} != {:#x}", self.seed, other.seed));
        }
        for (l, (a, b)) in self.lanes.iter().zip(&other.lanes).enumerate() {
            if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
                return Some(format!("lane {l}: commit #{i} is seq {} vs seq {}", a[i], b[i]));
            }
            if a.len() != b.len() {
                return Some(format!("lane {l}: {} commits vs {}", a.len(), b.len()));
            }
        }
        if self.lanes.len() != other.lanes.len() {
            return Some(format!("lane count {} != {}", self.lanes.len(), other.lanes.len()));
        }
        if self.state_hash != other.state_hash {
            return Some(format!(
                "state hash {:#018x} != {:#018x}",
                self.state_hash, other.state_hash
            ));
        }
        if self.counters != other.counters {
            return Some(format!("counters {:?} != {:?}", self.counters, other.counters));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayArtifact {
        let log = CommitLog::new();
        log.event(Event::TicketCommit { lane: 0, seq: 0, tree: 11 });
        log.event(Event::TicketCommit { lane: 1, seq: 0, tree: 12 });
        log.event(Event::TicketCommit { lane: 0, seq: 1, tree: 13 });
        log.event(Event::Count(crate::Counter::TicketsIssued, 1)); // ignored by the log
        let stats = StatSnapshot { tickets_issued: 4, ordered_commits: 3, ..Default::default() };
        ReplayArtifact::from_run("unit", 0xC0FFEE, 2, &log, state_hash([1, 2, 3]), &stats)
    }

    #[test]
    fn log_captures_only_ticket_commits_in_order() {
        let log = CommitLog::new();
        assert!(log.is_empty());
        log.event(Event::Count(crate::Counter::TopCommits, 1));
        log.event(Event::TicketCommit { lane: 0, seq: 0, tree: 1 });
        log.event(Event::TicketAbandoned { lane: 0, seq: 1 });
        log.event(Event::TicketCommit { lane: 0, seq: 2, tree: 2 });
        assert_eq!(log.entries(), vec![(0, 0), (0, 2)]);
        assert_eq!(log.len(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let a = sample();
        assert_eq!(a.lanes, vec![vec![0, 1], vec![0]]);
        let text = a.to_json().pretty();
        let b = ReplayArtifact::parse(&text).expect("parse back");
        assert_eq!(a, b);
        assert_eq!(a.diff(&b), None);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = r#"{"schema": "rtf-metrics-v1"}"#;
        let err = ReplayArtifact::parse(text).unwrap_err();
        assert!(err.contains("rtf-replay-v1"), "{err}");
    }

    #[test]
    fn diff_names_first_divergence() {
        let a = sample();
        let mut b = a.clone();
        b.lanes[0][1] = 9;
        let d = a.diff(&b).expect("must diverge");
        assert!(d.contains("lane 0") && d.contains("commit #1"), "{d}");

        let mut c = a.clone();
        c.lanes[1].push(7);
        let d = a.diff(&c).expect("length divergence");
        assert!(d.contains("lane 1"), "{d}");

        let mut e = a.clone();
        e.state_hash ^= 1;
        assert!(a.diff(&e).expect("hash divergence").contains("state hash"));

        let mut f = a.clone();
        f.counters.tickets_abandoned = 5;
        assert!(a.diff(&f).expect("counter divergence").contains("counters"));
    }

    #[test]
    fn state_hash_is_order_sensitive_and_stable() {
        assert_eq!(state_hash([1, 2, 3]), state_hash([1, 2, 3]));
        assert_ne!(state_hash([1, 2, 3]), state_hash([3, 2, 1]));
        assert_ne!(state_hash([0]), state_hash([0, 0]));
        assert_ne!(state_hash([]), state_hash([0]));
    }
}
