//! Sub-transaction visibility policies — Algorithms 1, 2 and the validation
//! half of Algorithm 4 of the paper, expressed over the shared engine.
//!
//! The actual read-resolution walk and validation loop live in
//! `rtf-txengine` ([`rtf_txengine::resolve_read`] /
//! [`rtf_txengine::validate_reads`]); this module contributes only the
//! [`Visibility`] policies of a root attempt's reads ([`TopRead`]) and of
//! sub-transactions, plus the tentative-list *write* path (Alg 1), which
//! is specific to transaction trees.
//!
//! # Top-level read — [`TopRead`]
//! A root attempt reads as a plain top-level transaction until its first
//! submit, and a fallback attempt always does: no tentative entry is
//! visible (it has no sub-transaction yet, and other trees' entries never
//! are), then its own write-set, then the permanent versions at its
//! snapshot.
//!
//! # Write (Alg 1)
//! A sub-transaction writing a box appends a tentative version to the box's
//! tentative list, inserted at its serialization-order position. The
//! occupied list acts as a tree-wide lock: if the list holds live entries of
//! a *different* tree, the write reports an inter-tree conflict and the
//! caller tears its tree down (the paper's `ownedByAnotherTree` fallback,
//! DESIGN.md D3). Entries of aborted executions are scrubbed in passing.
//!
//! # Read (Alg 2) — [`SubRead`]
//! A sub-transaction read walks the tentative list most-recent-first and
//! returns the first *visible* entry; failing that it consults the
//! top-level private write-set (Alg 2 lines 21–22) and finally the permanent
//! versions at the tree snapshot. Visibility of a tentative entry with
//! ownership record `(owner o, txTreeVer v)` for reader `T` (Fig 4):
//!
//! * `o == T` — `T`'s own write, or a write adopted from a committed child;
//! * `o` is an ancestor `A` of `T` with `T.ancVer[A] >= v` — the write was
//!   propagated to `A` before `T` started (`v = 0` covers `A`'s own live
//!   writes, which necessarily precede `T`'s spawn).
//!
//! # Validation — [`SubValidation`]
//! At commit (after `waitTurn`, so every predecessor has committed and
//! propagated), each recorded read is *re-resolved* against the final
//! predecessor state: the first non-aborted entry whose order key precedes
//! the read position and whose owner is the reader or one of its ancestors.
//! A token mismatch means the read would return a different value in the
//! serialization order — the sub-transaction missed a write and must
//! re-execute.

use std::sync::Arc;

use rtf_txbase::{
    new_write_token, NodeId, OrderKey, Orec, OrecStatus, TreeId, Version, WriteToken,
};
use rtf_txengine::{
    tentative_insert, CellId, ConflictSite, ReadRecord, Source, TentativeEntry, VBoxCell, Val,
    Visibility, WriteSet,
};

use crate::node::Node;
use crate::tree::TreeCtx;

/// Error: the tentative list is owned by another active transaction tree.
/// Carries the owning tree for abort attribution (hotspot reports name the
/// last tree that displaced a writer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterTreeConflict {
    /// The tree holding live tentative entries on the contested box.
    pub writer_tree: TreeId,
}

// Retries spent in `orec_snapshot` on this thread since the last flush.
// Each `Tx` drains the counter when it drops and adds it to
// `Counter::OrecSnapshotRetries` in one batch — a per-retry shared counter
// would serialize the lock-free read path it measures.
thread_local! {
    static OREC_SNAPSHOT_RETRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Drains this thread's accumulated snapshot-retry count.
pub(crate) fn take_orec_snapshot_retries() -> u64 {
    OREC_SNAPSHOT_RETRIES.with(|c| c.replace(0))
}

/// Consistent snapshot of an orec's `(owner, tx_tree_ver, status)`.
///
/// Propagation stores `tx_tree_ver` before `owner`; re-reading `owner`
/// afterwards detects a propagation racing in between (ownership only ever
/// moves to fresh node ids, so an unchanged owner pins the pair).
///
/// The retry loop is bounded in *behaviour*, not iterations: a conflicting
/// propagation is a handful of stores, so a retry storm means the writer
/// thread was descheduled mid-propagation — after a short pure-spin burst
/// the loop escalates to `yield_now` to hand it the CPU instead of burning
/// it. Retries are counted (see [`take_orec_snapshot_retries`]) so a
/// pathological site shows up in the metrics rather than as mystery CPU.
fn orec_snapshot(orec: &Orec) -> (NodeId, u64, OrecStatus) {
    const SPIN_LIMIT: u32 = 64;
    let mut retries: u32 = 0;
    loop {
        let o1 = orec.owner();
        let ver = orec.tx_tree_ver();
        let status = orec.status();
        if orec.owner() == o1 {
            if retries > 0 {
                OREC_SNAPSHOT_RETRIES.with(|c| c.set(c.get() + u64::from(retries)));
            }
            return (o1, ver, status);
        }
        retries = retries.saturating_add(1);
        if retries < SPIN_LIMIT {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Read-time visibility of a root attempt that has built no tree (module
/// docs): the attempt's write-set, then its snapshot.
pub struct TopRead<'a> {
    writes: &'a WriteSet,
    snapshot: Version,
}

impl<'a> TopRead<'a> {
    /// The read policy of a root attempt at `snapshot` that buffered
    /// `writes`.
    pub fn new(writes: &'a WriteSet, snapshot: Version) -> Self {
        TopRead { writes, snapshot }
    }
}

impl Visibility for TopRead<'_> {
    fn tentative(&self, _entry: &TentativeEntry) -> Option<Source> {
        None
    }

    fn local(&self, id: CellId) -> Option<(Val, WriteToken)> {
        self.writes.get(id)
    }

    fn snapshot(&self) -> Version {
        self.snapshot
    }

    fn scans_tentative(&self) -> bool {
        false
    }
}

/// Read-time visibility of a sub-transaction (module docs; Alg 2). The
/// tentative rule is the paper's Fig 4; the local buffer is the top-level
/// private write-set (Alg 2 lines 21–22) and the permanent fallback is
/// bounded by the tree snapshot.
pub struct SubRead<'a> {
    tree: &'a TreeCtx,
    node: &'a Node,
}

impl<'a> SubRead<'a> {
    /// The read policy of `node` within `tree`.
    pub fn new(tree: &'a TreeCtx, node: &'a Node) -> Self {
        SubRead { tree, node }
    }
}

impl Visibility for SubRead<'_> {
    fn tentative(&self, entry: &TentativeEntry) -> Option<Source> {
        if entry.tree != self.tree.tree_id {
            return None;
        }
        let (owner, ver, status) = orec_snapshot(&entry.orec);
        if status == OrecStatus::Aborted {
            return None;
        }
        if owner == self.node.id {
            if Arc::ptr_eq(&entry.orec, &self.node.orec) {
                return Some(Source::OwnWrite);
            }
            return Some(Source::Tentative); // adopted from a committed child
        }
        match self.node.anc_ver.get(&owner) {
            Some(&witnessed) if witnessed >= ver => Some(Source::Tentative),
            _ => None,
        }
    }

    fn local(&self, id: CellId) -> Option<(Val, WriteToken)> {
        self.tree.root_ws.get(id)
    }

    fn snapshot(&self) -> Version {
        self.tree.start_version
    }

    fn tentative_tree(&self) -> Option<TreeId> {
        // The tentative rule filters by `entry.tree` first: entries of other
        // trees are never admitted, so the cell's owner tag can route this
        // reader around the mutex when only foreign entries are present.
        Some(self.tree.tree_id)
    }
}

/// Validation-time visibility (Alg 4 line 3): every predecessor of the
/// validating node has committed and propagated, so a predecessor write is
/// recognized by its owner being the node itself or any ancestor; `anc_ver`
/// *values* are deliberately ignored — that is exactly how a missed write is
/// caught. Entries at or after the read's own serialization position
/// (`read_pos`) are skipped: they are the reader's own later writes or its
/// children's, all within its subtree.
pub struct SubValidation<'a> {
    tree: &'a TreeCtx,
    node: &'a Node,
    read_pos: OrderKey,
}

impl<'a> SubValidation<'a> {
    /// The validation policy for one recorded read of `node`: it
    /// re-resolves *at the read's serialization position*.
    pub fn for_read(tree: &'a TreeCtx, node: &'a Node, read: &ReadRecord) -> Self {
        SubValidation { tree, node, read_pos: node.path.write_key(read.epoch) }
    }
}

impl Visibility for SubValidation<'_> {
    fn tentative(&self, entry: &TentativeEntry) -> Option<Source> {
        if entry.tree != self.tree.tree_id {
            return None;
        }
        if Arc::ptr_eq(&entry.orec, &self.node.orec) {
            return None; // the validating node's own (program-order later) write
        }
        if entry.key >= self.read_pos {
            return None; // serialized after the read
        }
        let (owner, _ver, status) = orec_snapshot(&entry.orec);
        if status == OrecStatus::Aborted {
            return None;
        }
        if owner == self.node.id || self.node.anc_ver.contains_key(&owner) {
            Some(Source::Tentative)
        } else {
            None
        }
    }

    fn local(&self, id: CellId) -> Option<(Val, WriteToken)> {
        self.tree.root_ws.get(id)
    }

    fn snapshot(&self) -> Version {
        self.tree.start_version
    }

    fn tentative_tree(&self) -> Option<TreeId> {
        // Same tree filter as `SubRead` (see there).
        Some(self.tree.tree_id)
    }
}

/// Transactional write by a sub-transaction (Alg 1). On success the new
/// tentative version is in place; `Err` reports an inter-tree conflict
/// (`ownedByAnotherTree`).
pub fn sub_write(
    tree: &TreeCtx,
    node: &Node,
    cell: &Arc<VBoxCell>,
    value: Val,
) -> Result<WriteToken, InterTreeConflict> {
    let key = node.path.write_key(node.fork_count.load(std::sync::atomic::Ordering::Relaxed));
    let mut list = cell.tentative_lock();
    // Inter-tree check (Alg 1 lines 10–23): live entries of another tree
    // mean that tree holds the write lock on this box.
    let mut foreign_live: Option<TreeId> = None;
    list.retain(|e| {
        let aborted = e.orec.status() == OrecStatus::Aborted;
        if e.tree != tree.tree_id && !aborted {
            foreign_live = Some(e.tree);
        }
        !aborted // scrub aborted leftovers of any tree in passing
    });
    if let Some(writer_tree) = foreign_live {
        return Err(InterTreeConflict { writer_tree });
    }
    let token = new_write_token();
    tentative_insert(
        &mut list,
        TentativeEntry { key, token, value, orec: Arc::clone(&node.orec), tree: tree.tree_id },
    );
    drop(list);
    tree.touch(cell);
    Ok(token)
}

/// Validates a sub-transaction's read-set (Alg 4 line 3) through the
/// engine's single validation loop. `Ok` = commit may proceed; `Err` = the
/// sub-transaction missed a preceding write and must re-execute, and the
/// [`ConflictSite`] names the first stale cell and the tree owning the
/// displacing write.
pub fn validate_reads_detailed<'a, I>(
    tree: &TreeCtx,
    node: &Node,
    reads: I,
) -> Result<(), ConflictSite>
where
    I: IntoIterator<Item = &'a ReadRecord>,
{
    rtf_txengine::validate_reads_detailed(reads, |r| SubValidation::for_read(tree, node, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use crate::tree::AttemptId;
    use rtf_txengine::{downcast, erase, read_pin, resolve_read, VBox, WriteSet};

    fn validate_reads<'a>(
        tree: &TreeCtx,
        node: &Node,
        reads: impl IntoIterator<Item = &'a ReadRecord>,
    ) -> bool {
        validate_reads_detailed(tree, node, reads).is_ok()
    }

    use crate::tree::tests::tree;

    /// A sub-transaction read (Alg 2) as `Tx::read_cell` performs it in a
    /// read-write transaction: the value and the read-set record.
    fn sub_read(tree: &TreeCtx, node: &Node, cell: &Arc<VBoxCell>) -> (Val, ReadRecord) {
        let epoch = node.fork_count.load(std::sync::atomic::Ordering::Relaxed);
        let pin = read_pin();
        let r = resolve_read(&SubRead::new(tree, node), cell, &pin);
        let record = ReadRecord { cell: Arc::clone(cell), token: r.token, source: r.source, epoch };
        (r.value.into_owned(), record)
    }

    #[test]
    fn read_falls_back_to_permanent() {
        let t = tree();
        let b = VBox::new(5u32);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        let (v, entry) = sub_read(&t, &f, b.cell());
        assert_eq!(*downcast::<u32>(v), 5);
        assert_eq!(entry.source, Source::Permanent);
    }

    #[test]
    fn read_sees_root_ws() {
        let b = VBox::new(5u32);
        let mut ws = WriteSet::new();
        ws.put(b.cell(), erase(6u32));
        let t = TreeCtx::new(AttemptId::new(), 0, ws);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        let (v, entry) = sub_read(&t, &f, b.cell());
        assert_eq!(*downcast::<u32>(v), 6);
        assert_eq!(entry.source, Source::Local);
    }

    #[test]
    fn own_write_read_back() {
        let t = tree();
        let b = VBox::new(0u32);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        sub_write(&t, &f, b.cell(), erase(7u32)).unwrap();
        let (v, entry) = sub_read(&t, &f, b.cell());
        assert_eq!(*downcast::<u32>(v), 7);
        assert_eq!(entry.source, Source::OwnWrite);
        // Overwrite in place: list keeps a single entry.
        sub_write(&t, &f, b.cell(), erase(8u32)).unwrap();
        assert_eq!(b.cell().tentative_lock().len(), 1);
        let (v, _) = sub_read(&t, &f, b.cell());
        assert_eq!(*downcast::<u32>(v), 8);
    }

    #[test]
    fn sibling_writes_invisible_until_committed_and_witnessed() {
        let t = tree();
        let b = VBox::new(0u32);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        // Continuation starts *before* the future commits: ancVer[root]=0.
        let c = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });
        sub_write(&t, &f, b.cell(), erase(9u32)).unwrap();
        let (v, entry) = sub_read(&t, &c, b.cell());
        assert_eq!(*downcast::<u32>(v), 0, "uncommitted future write must be invisible");
        assert_eq!(entry.source, Source::Permanent);

        // The future commits and propagates to the root (ver = 1).
        f.orec.propagate_to(t.root.id, 1);
        t.root.bump_nclock();

        // c started before the commit: still invisible (Fig 4's TC6 case).
        let (v, _) = sub_read(&t, &c, b.cell());
        assert_eq!(*downcast::<u32>(v), 0);

        // A continuation attempt started *after* the commit sees it (TC4).
        let c2 = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });
        let (v, entry) = sub_read(&t, &c2, b.cell());
        assert_eq!(*downcast::<u32>(v), 9);
        assert_eq!(entry.source, Source::Tentative);
    }

    #[test]
    fn inter_tree_write_conflict_detected() {
        let t1 = tree();
        let t2 = tree();
        let b = VBox::new(0u32);
        let f1 = Node::new_child(&t1.root, NodeKind::Future { fork_idx: 0 });
        let f2 = Node::new_child(&t2.root, NodeKind::Future { fork_idx: 0 });
        sub_write(&t1, &f1, b.cell(), erase(1u32)).unwrap();
        assert_eq!(
            sub_write(&t2, &f2, b.cell(), erase(2u32)),
            Err(InterTreeConflict { writer_tree: t1.tree_id }),
            "the conflict names the owning tree"
        );
        // After t1 aborts, t2 may proceed (aborted entries are scrubbed).
        f1.orec.mark_aborted();
        sub_write(&t2, &f2, b.cell(), erase(2u32)).unwrap();
        let list = b.cell().tentative_lock();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].tree, t2.tree_id);
    }

    #[test]
    fn other_trees_tentative_writes_invisible_to_readers() {
        let t1 = tree();
        let t2 = tree();
        let b = VBox::new(0u32);
        let f1 = Node::new_child(&t1.root, NodeKind::Future { fork_idx: 0 });
        sub_write(&t1, &f1, b.cell(), erase(1u32)).unwrap();
        let f2 = Node::new_child(&t2.root, NodeKind::Future { fork_idx: 0 });
        let (v, entry) = sub_read(&t2, &f2, b.cell());
        assert_eq!(*downcast::<u32>(v), 0);
        assert_eq!(entry.source, Source::Permanent);
    }

    #[test]
    fn validation_catches_missed_future_write() {
        // The continuation reads x from the snapshot while its future
        // concurrently writes x; once the future commits, the continuation's
        // validation must fail (the paper's "misses the write" case).
        let t = tree();
        let b = VBox::new(0u32);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        let c = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });
        let (_, read) = sub_read(&t, &c, b.cell());
        assert!(validate_reads(&t, &c, &[read]), "nothing committed yet");

        let (_, read) = sub_read(&t, &c, b.cell());
        sub_write(&t, &f, b.cell(), erase(1u32)).unwrap();
        f.orec.propagate_to(t.root.id, 1);
        t.root.bump_nclock();
        assert!(!validate_reads(&t, &c, &[read]), "missed write must fail validation");
    }

    #[test]
    fn validation_ignores_writes_serialized_after_the_read() {
        // A node reads x at epoch 0, forks, and the (committed) future child
        // writes x. The child's write serializes *after* the read: the read
        // stays valid.
        let t = tree();
        let b = VBox::new(0u32);
        let c = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });
        let (_, read) = sub_read(&t, &c, b.cell());
        // Fork: child future of c writes x and commits into c.
        let child = Node::new_child(&c, NodeKind::Future { fork_idx: 0 });
        sub_write(&t, &child, b.cell(), erase(5u32)).unwrap();
        child.orec.propagate_to(c.id, 1);
        c.bump_nclock();
        c.fork_count.store(1, std::sync::atomic::Ordering::Relaxed);
        assert!(validate_reads(&t, &c, &[read]));
        // But a read at epoch 1 (after the join) must see the child's value.
        let (v, entry) = sub_read(&t, &c, b.cell());
        assert_eq!(*downcast::<u32>(v), 5);
        assert_eq!(entry.source, Source::Tentative);
        assert!(validate_reads(&t, &c, &[entry]));
    }

    #[test]
    fn own_write_reads_exempt_from_validation() {
        let t = tree();
        let b = VBox::new(0u32);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        sub_write(&t, &f, b.cell(), erase(1u32)).unwrap();
        let (_, read) = sub_read(&t, &f, b.cell());
        assert_eq!(read.source, Source::OwnWrite);
        // Overwriting one's own value must not invalidate the earlier read.
        sub_write(&t, &f, b.cell(), erase(2u32)).unwrap();
        assert!(validate_reads(&t, &f, &[read]));
    }

    #[test]
    fn own_later_write_never_invalidates() {
        let t = tree();
        let b = VBox::new(0u32);
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        let (_, read) = sub_read(&t, &f, b.cell());
        assert_eq!(read.source, Source::Permanent);
        sub_write(&t, &f, b.cell(), erase(9u32)).unwrap();
        assert!(validate_reads(&t, &f, [&read]), "own program-order-later write is exempt");
        // The exemption is the validating node's own orec, not the order
        // key: an own entry placed before the read position is skipped too.
        let own_earlier = TentativeEntry {
            key: OrderKey::root().write_key(0),
            token: new_write_token(),
            value: erase(0u32),
            orec: Arc::clone(&f.orec),
            tree: t.tree_id,
        };
        assert!(own_earlier.key < f.path.write_key(read.epoch));
        assert_eq!(SubValidation::for_read(&t, &f, &read).tentative(&own_earlier), None);
    }

    #[test]
    fn aborted_attempt_writes_invisible() {
        let t = tree();
        let b = VBox::new(0u32);
        let f1 = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        sub_write(&t, &f1, b.cell(), erase(1u32)).unwrap();
        f1.orec.mark_aborted();
        // Fresh attempt at the same position.
        let f2 = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        let (v, entry) = sub_read(&t, &f2, b.cell());
        assert_eq!(*downcast::<u32>(v), 0);
        assert_eq!(entry.source, Source::Permanent);
    }

    /// Fig 4 visibility, table-driven: each case builds one tentative entry
    /// and asserts what `SubRead::tentative` — the pure policy function —
    /// answers for a given reader. Covers every row of the paper's table
    /// plus the negative cases.
    #[test]
    fn fig4_visibility_table() {
        use rtf_txbase::new_tree_id;

        let t = tree();
        let reader = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });

        // A tentative entry owned by `orec`, tagged for tree `tree_id`.
        let entry = |orec: &Arc<Orec>, tree_id| TentativeEntry {
            key: OrderKey::root().write_key(0),
            token: new_write_token(),
            value: erase(0u32),
            orec: Arc::clone(orec),
            tree: tree_id,
        };

        let policy = SubRead::new(&t, &reader);

        // 1. Own write: same orec as the reader.
        assert_eq!(policy.tentative(&entry(&reader.orec, t.tree_id)), Some(Source::OwnWrite));

        // 2. Adopted child write: owner == reader id, but a different orec
        //    (a committed child's orec propagated to the reader).
        let child = Node::new_child(&reader, NodeKind::Future { fork_idx: 0 });
        child.orec.propagate_to(reader.id, 1);
        assert_eq!(policy.tentative(&entry(&child.orec, t.tree_id)), Some(Source::Tentative));

        // 3. Live ancestor write, made before the reader was spawned:
        //    owner = root, tx_tree_ver = 0, and ancVer[root] >= 0 always.
        assert_eq!(policy.tentative(&entry(&t.root.orec, t.tree_id)), Some(Source::Tentative));

        // 4. Propagated commit the reader witnessed: owner = root with
        //    tx_tree_ver v, reader spawned after nClock reached v.
        t.root.bump_nclock(); // nClock: 1
        let late_reader = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });
        let sibling = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        sibling.orec.propagate_to(t.root.id, 1);
        let late_policy = SubRead::new(&t, &late_reader);
        assert_eq!(
            late_policy.tentative(&entry(&sibling.orec, t.tree_id)),
            Some(Source::Tentative),
            "ancVer[root] = 1 >= v = 1: propagated commit is visible"
        );

        // 5. Negative: propagated commit the reader did NOT witness
        //    (ancVer[root] = 0 < v = 1).
        let sibling2 = Node::new_child(&t.root, NodeKind::Future { fork_idx: 1 });
        sibling2.orec.propagate_to(t.root.id, 2);
        assert_eq!(
            policy.tentative(&entry(&sibling2.orec, t.tree_id)),
            None,
            "reader spawned before the commit: invisible"
        );

        // 6. Negative: non-ancestor owner (a live sibling).
        let live_sibling = Node::new_child(&t.root, NodeKind::Future { fork_idx: 2 });
        assert_eq!(policy.tentative(&entry(&live_sibling.orec, t.tree_id)), None);

        // 7. Negative: aborted entries are never visible, whoever owns them.
        let aborted = Node::new_child(&t.root, NodeKind::Future { fork_idx: 3 });
        aborted.orec.propagate_to(t.root.id, 1);
        aborted.orec.mark_aborted();
        assert_eq!(policy.tentative(&entry(&aborted.orec, t.tree_id)), None);

        // 8. Negative: another tree's entries are filtered before any
        //    ownership reasoning.
        assert_eq!(policy.tentative(&entry(&reader.orec, new_tree_id())), None);
    }

    /// The validation policy as a pure function: own writes and entries at
    /// or after the read position are skipped; committed-predecessor writes
    /// (owner = reader or ancestor) count regardless of `ancVer` values.
    #[test]
    fn fig4_validation_table() {
        let t = tree();
        let reader = Node::new_child(&t.root, NodeKind::Continuation { fork_idx: 0 });
        let read = ReadRecord {
            cell: Arc::clone(VBox::new(0u32).cell()),
            token: new_write_token(),
            source: Source::Permanent,
            epoch: 0,
        };
        let policy = SubValidation::for_read(&t, &reader, &read);
        let read_pos = reader.path.write_key(0);

        let entry = |orec: &Arc<Orec>, key: OrderKey| TentativeEntry {
            key,
            token: new_write_token(),
            value: erase(0u32),
            orec: Arc::clone(orec),
            tree: t.tree_id,
        };
        // The future sibling precedes the continuation in serialization
        // order; once committed (owner moved to an ancestor of the reader)
        // its write must be seen by validation even though the reader's
        // ancVer never witnessed it.
        let f = Node::new_child(&t.root, NodeKind::Future { fork_idx: 0 });
        let f_key = f.path.write_key(0);
        assert!(f_key < read_pos, "future writes precede the continuation");
        assert_eq!(policy.tentative(&entry(&f.orec, f_key.clone())), None, "live: not yet visible");
        f.orec.propagate_to(t.root.id, 1);
        assert_eq!(
            policy.tentative(&entry(&f.orec, f_key)),
            Some(Source::Tentative),
            "committed predecessor counts even with ancVer[root] = 0"
        );
        // The reader's own write is never a validation witness.
        assert_eq!(policy.tentative(&entry(&reader.orec, read_pos)), None);
        // A write serialized at or after the read position is skipped.
        let later = Node::new_child(&reader, NodeKind::Future { fork_idx: 0 });
        later.orec.propagate_to(reader.id, 1);
        assert_eq!(policy.tentative(&entry(&later.orec, reader.path.write_key(1))), None);
    }
}
