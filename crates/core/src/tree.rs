//! Per-tree (top-level transaction attempt) shared context.
//!
//! Everything the concurrently running sub-transactions of one transaction
//! tree share: the snapshot version, the root's private write-set (the
//! paper's top-level write-set, consulted by sub-transaction reads — Alg 2
//! lines 21–22), the set of boxes with tentative entries (for commit-time
//! write-back and abort-time cleanup), the read-write sub-commit counter
//! backing the read-only future optimization (§IV-E), the in-flight task
//! counter (quiescence on whole-tree teardown) and the poison latch that
//! broadcasts teardown to running sub-transactions.

use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rtf_txbase::{new_tree_id, FxHashSet, TreeId, Version, WaitQueue, WriteToken};
use rtf_txengine::{CellId, VBoxCell, Val, WriteEntry, WriteSet};

use crate::node::Node;

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

/// Shared state of one execution attempt of a top-level transaction.
///
/// # Root write-set invariant
///
/// Only two writers ever touch `root_ws`: the root before its first fork
/// (`fork_count == 0`, still on the thread that called `atomic`) and a
/// fallback attempt, which runs every future inline on that same thread.
/// So once a future has been spawned the set is immutable, and the spawn
/// (a synchronizing hand-off to the pool) publishes it to the workers.
/// `root_ws_written` records whether any write happened at all: while it
/// reads `false`, [`TreeCtx::root_ws_get`] answers `None` without touching
/// the lock, so a sub-transaction read writes no word of the shared
/// `RwLock`.
pub struct TreeCtx {
    /// Tree identity (distinguishes tentative entries of different trees).
    pub tree_id: TreeId,
    /// Snapshot version of the whole tree (children inherit it, §III-A).
    pub start_version: Version,
    /// The root node of this attempt.
    pub root: Arc<Node>,
    /// The top-level private write-set (`rootWriteSet` in the paper):
    /// writes the root performed before its first submit (and all writes in
    /// sequential-fallback mode). An engine [`WriteSet`] — overwrites keep
    /// the write's token, so a slot has one identity for the whole attempt.
    root_ws: RwLock<WriteSet>,
    /// Set (Release) by the first `root_ws_put`; never cleared.
    root_ws_written: AtomicBool,
    /// Boxes carrying tentative entries of this tree.
    touched: Mutex<TouchedSet>,
    /// Advances by two per committed read-write sub-transaction, once on
    /// each side of its parent's `nclock` bump (§IV-E: backs the read-only
    /// future validation skip).
    pub rw_commit_clock: AtomicU64,
    /// Sequential fallback mode: futures run inline, writes go to `root_ws`.
    pub fallback: bool,
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
    /// Fresh attempt context.
    pub fn new(start_version: Version, fallback: bool) -> Arc<TreeCtx> {
        Arc::new(TreeCtx {
            tree_id: new_tree_id(),
            start_version,
            root: Node::new_root(),
            root_ws: RwLock::new(WriteSet::new()),
            root_ws_written: AtomicBool::new(false),
            touched: Mutex::new(TouchedSet::default()),
            rw_commit_clock: AtomicU64::new(0),
            fallback,
            poison_flag: AtomicBool::new(false),
            poison: Mutex::new(None),
            tasks: Mutex::new(0),
            tasks_waiters: WaitQueue::new(),
        })
    }

    // ---- root write-set ----------------------------------------------

    /// Value previously written by the top-level context, if any. Takes
    /// no lock while the root has written nothing (see the invariant on
    /// [`TreeCtx`]).
    #[inline]
    pub fn root_ws_get(&self, id: CellId) -> Option<(Val, WriteToken)> {
        if !self.root_ws_written.load(Ordering::Acquire) {
            return None;
        }
        self.root_ws.read().get(id)
    }

    /// Buffers a top-level private write.
    pub fn root_ws_put(&self, cell: &Arc<VBoxCell>, value: Val) {
        self.root_ws.write().put(cell, value);
        self.root_ws_written.store(true, Ordering::Release);
    }

    /// Drains the top-level write-set for commit.
    pub fn root_ws_drain(&self) -> Vec<WriteEntry> {
        self.root_ws.write().drain().collect()
    }

    // ---- tentative bookkeeping ----------------------------------------

    /// Records that `cell` now carries a tentative entry of this tree.
    pub fn touch(&self, cell: &Arc<VBoxCell>) {
        let mut t = self.touched.lock();
        if t.seen.insert(cell.id()) {
            t.cells.push(Arc::clone(cell));
        }
    }

    /// All boxes carrying (or having carried) tentative entries of this
    /// tree.
    pub fn touched_cells(&self) -> Vec<Arc<VBoxCell>> {
        self.touched.lock().cells.clone()
    }

    /// Removes every tentative entry of this tree from the boxes it
    /// touched; called after root commit (entries were written back) and on
    /// whole-tree abort.
    pub fn scrub_tentative(&self) {
        let cells = self.touched_cells();
        for cell in cells {
            let mut list = cell.tentative_lock();
            list.retain(|e| e.tree != self.tree_id);
        }
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
            "TreeCtx({:?}, start=v{}, fallback={}, poisoned={})",
            self.tree_id,
            self.start_version,
            self.fallback,
            self.is_poisoned()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_txengine::{downcast, erase, VBox};

    #[test]
    fn root_ws_roundtrip_and_drain() {
        let tree = TreeCtx::new(0, false);
        let b = VBox::new(1u32);
        assert!(tree.root_ws_get(b.id()).is_none());
        assert!(!tree.root_ws_written.load(Ordering::Relaxed), "no write yet: lock-free get");
        tree.root_ws_put(b.cell(), erase(2u32));
        assert!(tree.root_ws_written.load(Ordering::Relaxed));
        let (v, t1) = tree.root_ws_get(b.id()).unwrap();
        assert_eq!(*downcast::<u32>(v), 2);
        // Overwrite keeps the token (same logical write slot).
        tree.root_ws_put(b.cell(), erase(3u32));
        let (v, t2) = tree.root_ws_get(b.id()).unwrap();
        assert_eq!(*downcast::<u32>(v), 3);
        assert_eq!(t1, t2);
        let drained = tree.root_ws_drain();
        assert_eq!(drained.len(), 1);
        assert!(tree.root_ws_drain().is_empty());
    }

    #[test]
    fn touch_dedupes() {
        let tree = TreeCtx::new(0, false);
        let b = VBox::new(1u32);
        tree.touch(b.cell());
        tree.touch(b.cell());
        assert_eq!(tree.touched_cells().len(), 1);
    }

    #[test]
    fn poison_latches_first_reason() {
        let tree = TreeCtx::new(0, false);
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
        let tree = TreeCtx::new(0, false);
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
        use rtf_txengine::{tentative_insert, TentativeEntry};

        let tree = TreeCtx::new(0, false);
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
        tree.scrub_tentative();
        let list = b.cell().tentative_lock();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].tree, other_tree);
    }
}
