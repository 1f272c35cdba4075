//! Per-tree (top-level transaction attempt) shared context.
//!
//! A root attempt runs as a plain top-level transaction until its first
//! `submit` or `fork` (paper §III-A: the tree of sub-transactions exists only
//! once a future is submitted); that first submit builds the [`TreeCtx`].
//! It holds everything the concurrently running sub-transactions of one
//! transaction tree share: the snapshot version, the root's private
//! write-set as it stood at the first submit (the paper's top-level
//! write-set, consulted by sub-transaction reads — Alg 2 lines 21–22), the
//! set of boxes with tentative entries (for commit-time write-back and
//! abort-time cleanup), the read-write sub-commit counter backing the
//! read-only future optimization (§IV-E), the in-flight task counter
//! (quiescence on whole-tree teardown) and the poison latch that broadcasts
//! teardown to running sub-transactions.

use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rtf_txbase::{
    new_node_id, new_tree_id, FxHashSet, NodeId, OrecStatus, TreeId, Version, WaitQueue,
};
use rtf_txengine::{CellId, VBoxCell, WriteEntry, WriteSet};

use crate::node::Node;

/// The identity of one top-level attempt, drawn when the attempt begins:
/// its tree id (the ordering realm of its futures, and the tag of its
/// tentative entries) and its root node's id. A root attempt carries it
/// before any tree exists; the tree takes it over at the first submit.
#[derive(Clone, Copy, Debug)]
pub struct AttemptId {
    /// Tree identity.
    pub tree: TreeId,
    /// Id of the root node.
    pub root: NodeId,
}

impl AttemptId {
    /// Fresh ids for a new attempt.
    pub fn new() -> AttemptId {
        let tree = new_tree_id();
        AttemptId { tree, root: new_node_id() }
    }
}

/// Why a tree attempt is being torn down.
pub enum PoisonKind {
    /// A sub-transaction hit a tentative list owned by another active tree
    /// (write-write conflict between top-level transactions, Alg 1 line 21).
    InterTree,
    /// An implicit (cursor-style) continuation failed validation; without
    /// first-class continuations the whole top-level transaction restarts
    /// (DESIGN.md D1).
    ContinuationRestart,
    /// User code panicked inside a sub-transaction; the payload is resumed
    /// on the thread that called `atomic`.
    UserPanic(Box<dyn Any + Send + 'static>),
    /// A future task died without settling its handle (its panic was
    /// contained at the pool layer, or the task closure was dropped unrun).
    /// Unlike [`PoisonKind::UserPanic`] there is no payload to resume; the
    /// runtime surfaces [`crate::TxError::FuturePanicked`] instead.
    FuturePanicked {
        /// Human-readable description of what died (best effort).
        message: String,
    },
    /// The starvation watchdog converted a wait stalled past
    /// `RTF_STALL_ABORT_MS` into a teardown
    /// ([`crate::TxError::StallAborted`]).
    Stalled {
        /// Which wait stalled (`wait_turn`, `quiescence`, `future_wait`).
        kind: &'static str,
        /// How long the waiter had been blocked, milliseconds.
        waited_ms: u64,
    },
}

impl std::fmt::Debug for PoisonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoisonKind::InterTree => write!(f, "InterTree"),
            PoisonKind::ContinuationRestart => write!(f, "ContinuationRestart"),
            PoisonKind::UserPanic(_) => write!(f, "UserPanic(..)"),
            PoisonKind::FuturePanicked { message } => write!(f, "FuturePanicked({message})"),
            PoisonKind::Stalled { kind, waited_ms } => {
                write!(f, "Stalled({kind}, {waited_ms}ms)")
            }
        }
    }
}

/// Shared state of one execution attempt of a top-level transaction, built
/// at its first submit.
///
/// # Root write-set invariant
///
/// `root_ws` is the write-set the root attempt buffered before its first
/// submit, moved here when that submit builds the tree and never written
/// again: after it the root writes tentatively, like every other node, and
/// a fallback attempt never builds a tree. The spawn of the first future (a
/// synchronizing hand-off to the pool) publishes the set to the workers, so
/// a sub-transaction read consults it without a lock.
pub struct TreeCtx {
    /// Tree identity (distinguishes tentative entries of different trees).
    pub tree_id: TreeId,
    /// Snapshot version of the whole tree (children inherit it, §III-A).
    pub start_version: Version,
    /// The root node of this attempt.
    pub root: Arc<Node>,
    /// The top-level private write-set (`rootWriteSet` in the paper): the
    /// writes the root performed before its first submit. An engine
    /// [`WriteSet`] — overwrites kept the write's token, so a slot has one
    /// identity for the whole attempt. Shared through the tree's `Arc`, so
    /// nothing writes it after construction.
    pub root_ws: WriteSet,
    /// Boxes carrying tentative entries of this tree.
    touched: Mutex<TouchedSet>,
    /// Advances by two per committed read-write sub-transaction, once on
    /// each side of its parent's `nclock` bump (§IV-E: backs the read-only
    /// future validation skip).
    pub rw_commit_clock: AtomicU64,
    poison_flag: AtomicBool,
    poison: Mutex<Option<PoisonKind>>,
    tasks: Mutex<usize>,
    /// Quiescence waiters (teardown), woken when `tasks` reaches zero.
    tasks_waiters: WaitQueue,
}

#[derive(Default)]
struct TouchedSet {
    seen: FxHashSet<CellId>,
    cells: Vec<Arc<VBoxCell>>,
}

impl TreeCtx {
    /// The tree of attempt `id`, whose root buffered `root_ws` before its
    /// first submit.
    pub fn new(id: AttemptId, start_version: Version, root_ws: WriteSet) -> Arc<TreeCtx> {
        Arc::new(TreeCtx {
            tree_id: id.tree,
            start_version,
            root: Node::new_root(id.root),
            root_ws,
            touched: Mutex::new(TouchedSet::default()),
            rw_commit_clock: AtomicU64::new(0),
            poison_flag: AtomicBool::new(false),
            poison: Mutex::new(None),
            tasks: Mutex::new(0),
            tasks_waiters: WaitQueue::new(),
        })
    }

    // ---- tentative bookkeeping ----------------------------------------

    /// Records that `cell` now carries a tentative entry of this tree.
    pub fn touch(&self, cell: &Arc<VBoxCell>) {
        let mut t = self.touched.lock();
        if t.seen.insert(cell.id()) {
            t.cells.push(Arc::clone(cell));
        }
    }

    /// Takes the boxes carrying (or having carried) tentative entries of
    /// this tree. Called once, by the root commit or the teardown, when no
    /// sub-transaction of the tree runs any more; the caller scrubs them
    /// with [`scrub_tentative`].
    pub fn take_touched(&self) -> Vec<Arc<VBoxCell>> {
        std::mem::take(&mut self.touched.lock().cells)
    }

    /// The top level's consolidated write-set: the root write-set,
    /// overridden by the head (latest in serialization order) of each
    /// tentative list in `touched`. `WriteSet::insert` keeps the tentative
    /// entry's own token, so the write retains one identity through
    /// write-back.
    pub fn consolidate(&self, touched: &[Arc<VBoxCell>]) -> WriteSet {
        let mut writes = WriteSet::new();
        for e in self.root_ws.iter() {
            writes.insert(WriteEntry {
                cell: Arc::clone(&e.cell),
                value: e.value.clone(),
                token: e.token,
            });
        }
        for cell in touched {
            let list = cell.tentative_lock();
            if let Some(e) = list
                .iter()
                .find(|e| e.tree == self.tree_id && e.orec.status() != OrecStatus::Aborted)
            {
                debug_assert_eq!(
                    e.orec.owner(),
                    self.root.id,
                    "all committed sub-transaction writes must be root-owned at top commit"
                );
                writes.insert(WriteEntry {
                    cell: Arc::clone(cell),
                    value: e.value.clone(),
                    token: e.token,
                });
            }
        }
        writes
    }

    // ---- poison -------------------------------------------------------

    /// Whether this attempt is being torn down.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poison_flag.load(Ordering::Acquire)
    }

    /// Latches a teardown reason (first reason wins) and returns whether
    /// this call was the one that latched it.
    pub fn poison(&self, kind: PoisonKind) -> bool {
        let mut p = self.poison.lock();
        let latched = if p.is_none() {
            *p = Some(kind);
            true
        } else {
            false
        };
        self.poison_flag.store(true, Ordering::Release);
        latched
    }

    /// Takes the teardown reason (root thread, after quiescence).
    pub fn take_poison(&self) -> Option<PoisonKind> {
        self.poison.lock().take()
    }

    // ---- in-flight task tracking ---------------------------------------

    /// A future task is about to run.
    pub fn task_started(&self) {
        *self.tasks.lock() += 1;
    }

    /// A future task finished (committed or unwound).
    pub fn task_finished(&self) {
        let mut g = self.tasks.lock();
        debug_assert!(*g > 0, "task_finished without task_started");
        *g -= 1;
        if *g == 0 {
            drop(g);
            self.tasks_waiters.notify_all();
        }
    }

    /// Future tasks of this tree currently in flight (instantaneous; used
    /// by the wait-graph inspector to label quiescence waits).
    pub fn tasks_in_flight(&self) -> usize {
        *self.tasks.lock()
    }

    /// Blocks until no task of this tree is in flight, running `help`
    /// while waiting (queued tasks of this very tree may need a thread).
    pub fn wait_quiescent(&self, mut help: impl FnMut() -> bool) {
        loop {
            // Token before predicate (see `rtf_txbase::wait`): a final
            // task_finished landing after the check cannot be slept through.
            let token = self.tasks_waiters.epoch();
            if *self.tasks.lock() == 0 {
                return;
            }
            if !help() {
                let _ = self.tasks_waiters.park(token, 0, std::time::Duration::from_micros(200));
            }
        }
    }
}

impl std::fmt::Debug for TreeCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TreeCtx({:?}, start=v{}, poisoned={})",
            self.tree_id,
            self.start_version,
            self.is_poisoned()
        )
    }
}

/// Removes every tentative entry of tree `tree` from `cells` (the boxes
/// [`TreeCtx::take_touched`] returned); called after the root commit (the
/// entries were written back) and on whole-tree abort.
pub fn scrub_tentative(tree: TreeId, cells: &[Arc<VBoxCell>]) {
    for cell in cells {
        cell.tentative_lock().retain(|e| e.tree != tree);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtf_txengine::{downcast, erase, tentative_insert, TentativeEntry, VBox};

    /// A tree with an empty root write-set.
    pub(crate) fn tree() -> Arc<TreeCtx> {
        TreeCtx::new(AttemptId::new(), 0, WriteSet::new())
    }

    #[test]
    fn consolidate_overrides_the_root_write_set_with_tentative_heads() {
        use rtf_txbase::{new_write_token, OrderKey};

        let (a, b) = (VBox::new(0u32), VBox::new(0u32));
        let mut ws = WriteSet::new();
        ws.put(a.cell(), erase(1u32));
        ws.put(b.cell(), erase(2u32));
        let (_, a_token) = ws.get(a.id()).unwrap();
        let tree = TreeCtx::new(AttemptId::new(), 0, ws);
        assert_eq!(*downcast::<u32>(tree.root_ws.get(b.id()).unwrap().0), 2);
        // The root's post-submit write of `b`, adopted by the root.
        let b_token = new_write_token();
        tentative_insert(
            &mut b.cell().tentative_lock(),
            TentativeEntry {
                key: OrderKey::root().write_key(1),
                token: b_token,
                value: erase(3u32),
                orec: Arc::clone(&tree.root.orec),
                tree: tree.tree_id,
            },
        );
        tree.touch(b.cell());
        let touched = tree.take_touched();
        assert!(tree.take_touched().is_empty(), "taken once");
        let writes = tree.consolidate(&touched);
        assert_eq!(writes.len(), 2);
        let (v, t) = writes.get(a.id()).unwrap();
        assert_eq!((*downcast::<u32>(v), t), (1, a_token));
        let (v, t) = writes.get(b.id()).unwrap();
        assert_eq!((*downcast::<u32>(v), t), (3, b_token));
        // Consolidation copies the frozen set, which stays readable.
        assert_eq!(tree.consolidate(&[]).len(), 2);
    }

    #[test]
    fn touch_dedupes() {
        let tree = tree();
        let b = VBox::new(1u32);
        tree.touch(b.cell());
        tree.touch(b.cell());
        assert_eq!(tree.take_touched().len(), 1);
    }

    #[test]
    fn poison_latches_first_reason() {
        let tree = tree();
        assert!(!tree.is_poisoned());
        assert!(tree.poison(PoisonKind::InterTree));
        assert!(!tree.poison(PoisonKind::ContinuationRestart));
        assert!(tree.is_poisoned());
        match tree.take_poison() {
            Some(PoisonKind::InterTree) => {}
            other => panic!("unexpected poison {other:?}"),
        }
    }

    #[test]
    fn quiescence_waits_for_tasks() {
        let tree = tree();
        tree.task_started();
        tree.task_started();
        let t2 = Arc::clone(&tree);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            t2.task_finished();
            std::thread::sleep(std::time::Duration::from_millis(10));
            t2.task_finished();
        });
        tree.wait_quiescent(|| false);
        h.join().unwrap();
    }

    #[test]
    fn scrub_removes_only_own_entries() {
        use rtf_txbase::{new_node_id, new_write_token, OrderKey, Orec};

        let tree = tree();
        let other_tree = new_tree_id();
        let b = VBox::new(0u32);
        {
            let mut list = b.cell().tentative_lock();
            tentative_insert(
                &mut list,
                TentativeEntry {
                    key: OrderKey::root().write_key(0),
                    token: new_write_token(),
                    value: erase(1u32),
                    orec: Arc::new(Orec::new(new_node_id())),
                    tree: tree.tree_id,
                },
            );
            tentative_insert(
                &mut list,
                TentativeEntry {
                    key: OrderKey::root().child_future(0).write_key(0),
                    token: new_write_token(),
                    value: erase(2u32),
                    orec: Arc::new(Orec::new(new_node_id())),
                    tree: other_tree,
                },
            );
        }
        tree.touch(b.cell());
        scrub_tentative(tree.tree_id, &tree.take_touched());
        let list = b.cell().tentative_lock();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].tree, other_tree);
    }
}
