//! Top-level transactions (paper §III-A).
//!
//! A top-level transaction takes its snapshot version from the global clock
//! at begin time. Writes are buffered in a private write-set; reads check
//! the write-set first and otherwise return the most recent committed
//! version at or below the snapshot. Read-write transactions validate their
//! read-set at commit and install their writes through the commit chain;
//! read-only transactions commit immediately with no validation (§IV-E —
//! multi-versioning guarantees their snapshot is consistent, if possibly
//! stale).
//!
//! Both reads and commit-time validation run through the shared engine
//! pipeline (`rtf-txengine`); this module contributes only the top-level
//! [`Visibility`] policy — [`TopVisibility`]: tentative entries are never
//! visible, the local buffer is the private write-set, and the permanent
//! lookup is bounded by the snapshot (or unbounded, for validation).
//!
//! This module is both the *baseline TM* used by the evaluation (the
//! "no futures" configurations of Figs 5 and 6) and the foundation the
//! `rtf` core crate builds transaction trees upon.

use std::sync::Arc;

use rtf_txbase::{clock::Registration, TmStats, Version, WriteToken};
use rtf_txengine::{
    downcast, erase, read_pin, resolve_read, CellId, Event, ReadPath, ReadPin, ReadRecord, ReadSet,
    Source, TentativeEntry, TxData, VBox, VBoxCell, Val, Visibility, WriteSet,
};

use crate::commit::Conflict;
use crate::MvStm;

/// The top-level visibility policy: no tentative entry is ever visible
/// (top-level transactions read only committed state plus their own
/// write-set), the local buffer is the private write-set, and the permanent
/// lookup is bounded by `snapshot`.
pub struct TopVisibility<'a> {
    snapshot: Version,
    writes: Option<&'a WriteSet>,
}

impl<'a> TopVisibility<'a> {
    /// Policy for in-transaction reads at `snapshot`, consulting `writes`.
    pub fn reads(snapshot: Version, writes: &'a WriteSet) -> Self {
        TopVisibility { snapshot, writes: Some(writes) }
    }

    /// Policy for commit-time validation: re-resolving a read against the
    /// *latest* committed state. A read stays valid iff it would observe
    /// the same write token again, which holds exactly when no version
    /// newer than the reader's snapshot committed to that cell — the JVSTM
    /// validation rule, expressed through the engine's token comparison.
    pub fn latest() -> Self {
        TopVisibility { snapshot: Version::MAX, writes: None }
    }
}

impl Visibility for TopVisibility<'_> {
    fn tentative(&self, _entry: &TentativeEntry) -> Option<Source> {
        None
    }

    fn local(&self, id: CellId) -> Option<(Val, WriteToken)> {
        self.writes.and_then(|w| w.get(id))
    }

    fn snapshot(&self) -> Version {
        self.snapshot
    }

    fn scans_tentative(&self) -> bool {
        false
    }
}

/// A running top-level transaction.
///
/// Obtained from [`MvStm::atomic`] / [`MvStm::atomic_ro`] (which retry on
/// conflict) or from [`MvStm::begin`] for manual control.
pub struct TopTxn<'tm> {
    tm: &'tm MvStm,
    start: Version,
    _reg: Registration<'tm>,
    reads: ReadSet,
    writes: WriteSet,
    /// Declared read-only: reads skip read-set recording, writes panic.
    ro_mode: bool,
    /// Read-path counts accumulated locally and flushed as one
    /// [`Event::ReadPathBatch`] at commit/decomposition — per-read shared
    /// counters would serialize the lock-free read path (see `TmStats`).
    reads_fast: u64,
    reads_slow: u64,
    /// Epoch pin held for the transaction's lifetime, so every version-list
    /// read inside it pins reentrantly — a thread-local depth bump instead
    /// of the full era-advertisement fence ([`ReadPin`]).
    _pin: ReadPin,
}

impl<'tm> TopTxn<'tm> {
    pub(crate) fn new(tm: &'tm MvStm, ro_mode: bool) -> Self {
        let (reg, start) = tm.begin_snapshot();
        TopTxn {
            tm,
            start,
            _reg: reg,
            reads: ReadSet::new(),
            writes: WriteSet::new(),
            ro_mode,
            reads_fast: 0,
            reads_slow: 0,
            _pin: read_pin(),
        }
    }

    /// Flushes the locally accumulated read-path counts as one event.
    fn flush_read_paths(&mut self) {
        if self.reads_fast > 0 || self.reads_slow > 0 {
            self.tm
                .sink()
                .event(Event::ReadPathBatch { fast: self.reads_fast, slow: self.reads_slow });
            self.reads_fast = 0;
            self.reads_slow = 0;
        }
    }

    /// The snapshot version this transaction reads at.
    #[inline]
    pub fn snapshot(&self) -> Version {
        self.start
    }

    /// Whether any write was buffered so far.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Transactional read.
    pub fn read<T: TxData>(&mut self, vbox: &VBox<T>) -> Arc<T> {
        downcast(self.read_cell(vbox.cell()))
    }

    /// Transactional write (replaces the box's value).
    pub fn write<T: TxData>(&mut self, vbox: &VBox<T>, value: T) {
        self.write_cell(vbox.cell(), erase(value));
    }

    /// Untyped read (used by the core crate and data structures).
    pub fn read_cell(&mut self, cell: &Arc<VBoxCell>) -> Val {
        let r = resolve_read(&TopVisibility::reads(self.start, &self.writes), cell);
        match r.path {
            ReadPath::Fast => self.reads_fast += 1,
            ReadPath::Slow => self.reads_slow += 1,
        }
        // Reads served from the write-set carry no validation obligation;
        // everything else is a permanent-snapshot observation to validate.
        if r.source == Source::Permanent && !self.ro_mode {
            self.reads.record(ReadRecord {
                cell: Arc::clone(cell),
                token: r.token,
                source: r.source,
                epoch: 0,
            });
        }
        r.value
    }

    /// Untyped write.
    pub fn write_cell(&mut self, cell: &Arc<VBoxCell>, value: Val) {
        assert!(!self.ro_mode, "write inside a transaction declared read-only (atomic_ro)");
        self.writes.put(cell, value);
    }

    /// Attempts to commit. On success returns the commit version (`None`
    /// for the read-only fast path, which consumes no version number).
    pub fn try_commit(mut self) -> Result<Option<Version>, Conflict> {
        self.flush_read_paths();
        let sink = self.tm.sink();
        if self.writes.is_empty() {
            // Read-only fast path: the snapshot was consistent by
            // construction; commit without validation (§IV-E).
            sink.event(Event::TopRoCommit);
            return Ok(None);
        }
        let begun = std::time::Instant::now();
        match self.tm.chain().try_commit(
            &self.reads,
            self.writes.into_writes(),
            self.tm.clock(),
            self.tm.registry(),
            sink.as_ref(),
        ) {
            Ok(v) => {
                sink.event(Event::TopCommitNs(begun.elapsed().as_nanos() as u64));
                sink.event(Event::TopCommit);
                Ok(Some(v))
            }
            Err(c) => {
                sink.event(Event::TopValidationAbort);
                Err(c)
            }
        }
    }

    /// Decomposes the transaction into raw parts (used by the `rtf` core
    /// crate, whose tree roots extend this read/write-set bookkeeping).
    pub fn into_parts(mut self) -> (Version, ReadSet, WriteSet) {
        self.flush_read_paths();
        (self.start, self.reads, self.writes)
    }

    /// Statistics of the owning TM.
    pub fn stats(&self) -> &Arc<TmStats> {
        self.tm.stats_arc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MvStm;

    #[test]
    fn atomic_read_write_roundtrip() {
        let tm = MvStm::new();
        let b = VBox::new(1u64);
        let out = tm.atomic(|tx| {
            let v = *tx.read(&b);
            tx.write(&b, v + 10);
            *tx.read(&b)
        });
        assert_eq!(out, 11);
        assert_eq!(*b.read_committed(), 11);
    }

    #[test]
    fn snapshot_isolation_within_txn() {
        let tm = MvStm::new();
        let a = VBox::new(5u64);
        let b = VBox::new(7u64);
        tm.atomic(|tx| {
            let x = *tx.read(&a);
            let y = *tx.read(&b);
            assert_eq!(x + y, 12);
        });
    }

    #[test]
    fn read_your_own_writes() {
        let tm = MvStm::new();
        let b = VBox::new(0u64);
        tm.atomic(|tx| {
            tx.write(&b, 42);
            assert_eq!(*tx.read(&b), 42);
            tx.write(&b, 43);
            assert_eq!(*tx.read(&b), 43);
        });
        assert_eq!(*b.read_committed(), 43);
    }

    #[test]
    fn conflicting_increments_retry_to_correctness() {
        let tm = Arc::new(MvStm::new());
        let b = VBox::new(0u64);
        let threads = 4;
        let per = 250;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tm = Arc::clone(&tm);
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..per {
                        tm.atomic(|tx| {
                            let v = *tx.read(&b);
                            tx.write(&b, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*b.read_committed(), (threads * per) as u64);
        let snap = tm.stats().snapshot();
        assert_eq!(snap.top_commits, (threads * per) as u64);
    }

    #[test]
    fn read_only_fast_path_counts() {
        let tm = MvStm::new();
        let b = VBox::new(3u64);
        let v = tm.atomic(|tx| *tx.read(&b));
        assert_eq!(v, 3);
        let snap = tm.stats().snapshot();
        assert_eq!(snap.top_ro_commits, 1);
        assert_eq!(snap.top_commits, 0);
    }

    #[test]
    fn atomic_ro_reads_consistent_snapshot() {
        let tm = MvStm::new();
        let b = VBox::new(3u64);
        let v = tm.atomic_ro(|tx| *tx.read(&b));
        assert_eq!(v, 3);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn atomic_ro_rejects_writes() {
        let tm = MvStm::new();
        let b = VBox::new(3u64);
        tm.atomic_ro(|tx| tx.write(&b, 4));
    }

    #[test]
    fn manual_begin_commit() {
        let tm = MvStm::new();
        let b = VBox::new(0u64);
        let mut tx = tm.begin();
        tx.write(&b, 17);
        let v = tx.try_commit().unwrap();
        assert_eq!(v, Some(1));
        assert_eq!(*b.read_committed(), 17);
    }

    #[test]
    fn manual_conflict_reported() {
        let tm = MvStm::new();
        let b = VBox::new(0u64);
        let mut t1 = tm.begin();
        let _ = *t1.read(&b);
        t1.write(&b, 1);
        tm.atomic(|tx| tx.write(&b, 2));
        assert!(t1.try_commit().is_err());
        assert_eq!(*b.read_committed(), 2);
    }

    #[test]
    fn writes_invisible_until_commit() {
        let tm = MvStm::new();
        let b = VBox::new(0u64);
        let mut t1 = tm.begin();
        t1.write(&b, 99);
        // A concurrent transaction must not see the buffered write.
        let seen = tm.atomic(|tx| *tx.read(&b));
        assert_eq!(seen, 0);
        t1.try_commit().unwrap();
        assert_eq!(*b.read_committed(), 99);
    }

    #[test]
    fn write_set_reads_are_not_validated() {
        // A transaction that only re-reads its own write survives a
        // concurrent commit to the same box (the read never touched the
        // permanent state).
        let tm = MvStm::new();
        let b = VBox::new(0u64);
        let mut t1 = tm.begin();
        t1.write(&b, 1);
        assert_eq!(*t1.read(&b), 1);
        tm.atomic(|tx| {
            let _ = *tx.read(&b);
        });
        assert!(t1.try_commit().is_ok(), "blind write must win");
        assert_eq!(*b.read_committed(), 1);
    }
}
