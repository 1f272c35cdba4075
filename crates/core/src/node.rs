//! Nodes of a transaction tree.
//!
//! Every submit point splits the current transactional context into two
//! sibling sub-transactions — the transactional future and the continuation
//! (paper §II, Fig 3a) — so a top-level transaction unfolds into a binary
//! tree rooted at the top-level (root) node. A [`Node`] represents one
//! *execution attempt* of one tree position: a re-executed sub-transaction
//! gets a brand-new node (fresh id and fresh ownership record), which is how
//! reads distinguish current writes from leftovers of aborted attempts.
//!
//! The node carries the metadata of §III-A:
//!
//! * `nclock` — incremented each time a direct child commits, with a keyed
//!   `WaitQueue` so `waitTurn` waiters block instead of spinning and only
//!   the waiters whose threshold was reached are woken;
//! * `anc_ver` — for every ancestor, that ancestor's `nclock` value when
//!   this node started; the visibility rule compares it against the
//!   `txTreeVer` of ownership records (Fig 4);
//! * the node's [`OrderKey`] path encoding its serialization position, and
//!   `fork_count`, the number of completed submit points, which determines
//!   the order key of the node's own writes.

use parking_lot::Mutex;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

use rtf_txbase::{new_node_id, FxHashMap, NodeId, OrderKey, Orec, WaitQueue, WriteToken};
use rtf_txengine::VBoxCell;

/// Role of a node within its parent (the paper's future/continuation
/// distinction, extended with the fork index for nodes that fork several
/// times — see `rtf_txbase::order` for why that stays faithful to the
/// strictly binary trees of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The top-level transaction.
    Root,
    /// A transactional future created by its parent's `fork_idx`-th submit.
    Future {
        /// 0-based submit index within the parent.
        fork_idx: u32,
    },
    /// The continuation created by its parent's `fork_idx`-th submit.
    Continuation {
        /// 0-based submit index within the parent.
        fork_idx: u32,
    },
}

/// Contributions a committed child hands to its parent (the paper's
/// "read and write sets of a sub-transaction that commits are consolidated
/// by the parent", §II).
#[derive(Default)]
pub struct Inbox {
    /// Ownership records now owned by this node (its committed descendants'
    /// records, re-owned transitively at each sub-commit — Alg 4 lines
    /// 10–13).
    pub adopted_orecs: Vec<Arc<Orec>>,
    /// Reads served from the *permanent* store by committed descendants;
    /// needed for the top-level (inter-tree) validation at root commit.
    pub perm_reads: Vec<(Arc<VBoxCell>, WriteToken)>,
    /// Cells written by committed descendants (tree-abort cleanup).
    pub written_cells: Vec<Arc<VBoxCell>>,
}

/// One execution attempt of one tree position.
pub struct Node {
    /// Unique id of this attempt.
    pub id: NodeId,
    /// Role within the parent.
    pub kind: NodeKind,
    /// Parent attempt (`None` for the root).
    pub parent: Option<Arc<Node>>,
    /// Serialization-order path of this position.
    pub path: OrderKey,
    /// `ancVer`: ancestor id → that ancestor's `nclock` when this node
    /// started (paper §III-A). Includes *all* ancestors up to the root.
    pub anc_ver: FxHashMap<NodeId, u64>,
    /// Ownership record of this attempt's writes.
    pub orec: Arc<Orec>,
    /// Number of committed direct children.
    nclock: Mutex<u64>,
    /// `waitTurn` waiters, keyed by the threshold they wait for, so a bump
    /// wakes exactly the waiters whose turn arrived (`key <= new nclock`).
    nclock_waiters: WaitQueue,
    /// Number of completed submit points of this node (its next write gets
    /// order key `path.write_key(fork_count)`).
    pub fork_count: AtomicU32,
    /// Contributions from committed children.
    pub inbox: Mutex<Inbox>,
}

impl Node {
    /// Creates the root node of a new tree attempt.
    pub fn new_root() -> Arc<Node> {
        let id = new_node_id();
        Arc::new(Node {
            id,
            kind: NodeKind::Root,
            parent: None,
            path: OrderKey::root(),
            anc_ver: FxHashMap::default(),
            orec: Arc::new(Orec::new(id)),
            nclock: Mutex::new(0),
            nclock_waiters: WaitQueue::new(),
            fork_count: AtomicU32::new(0),
            inbox: Mutex::new(Inbox::default()),
        })
    }

    /// Creates a child attempt under `parent`. `anc_ver` is snapshotted
    /// *now*, walking the ancestor chain and reading every ancestor's
    /// current `nclock` (not the parent's possibly stale copy): a child may
    /// observe anything committed-and-propagated before it starts — all of
    /// which precedes it in the serialization order — and a re-created
    /// attempt (after a validation abort) thereby gains visibility of the
    /// writes it previously missed ("transactions that re-execute … read
    /// the writes they missed on their previous execution", §III-A).
    pub fn new_child(parent: &Arc<Node>, kind: NodeKind) -> Arc<Node> {
        let path = match kind {
            NodeKind::Future { fork_idx } => parent.path.child_future(fork_idx),
            NodeKind::Continuation { fork_idx } => parent.path.child_cont(fork_idx),
            NodeKind::Root => unreachable!("roots have no parent"),
        };
        let mut anc_ver = FxHashMap::default();
        let mut anc = Arc::clone(parent);
        loop {
            anc_ver.insert(anc.id, anc.nclock());
            match &anc.parent {
                Some(p) => {
                    let p = Arc::clone(p);
                    anc = p;
                }
                None => break,
            }
        }
        let id = new_node_id();
        Arc::new(Node {
            id,
            kind,
            parent: Some(Arc::clone(parent)),
            path,
            anc_ver,
            orec: Arc::new(Orec::new(id)),
            nclock: Mutex::new(0),
            nclock_waiters: WaitQueue::new(),
            fork_count: AtomicU32::new(0),
            inbox: Mutex::new(Inbox::default()),
        })
    }

    /// Current `nclock` value.
    pub fn nclock(&self) -> u64 {
        *self.nclock.lock()
    }

    /// Registers a child commit: bumps `nclock` and wakes `waitTurn`
    /// waiters. Returns the new value (the `txTreeVer` the child's orecs
    /// are propagated with — Alg 4 lines 7–8).
    pub fn bump_nclock(&self) -> u64 {
        let mut g = self.nclock.lock();
        *g += 1;
        let v = *g;
        drop(g);
        // Successor-only wake: only waiters whose threshold is now met.
        self.nclock_waiters.notify_where(|threshold| threshold <= v);
        v
    }

    /// Waits until `nclock >= threshold`, interleaving calls to `help`
    /// (pool helping) and checking `poisoned` (tree teardown). Returns
    /// `false` when the wait was interrupted by poisoning. `forced_round`
    /// skips the first threshold check, so the waiter helps or parks once
    /// even when the turn has already come (fault injection).
    pub fn wait_nclock_at_least(
        &self,
        threshold: u64,
        mut forced_round: bool,
        mut help: impl FnMut() -> bool,
        poisoned: impl Fn() -> bool,
    ) -> bool {
        loop {
            // Token before predicate: a bump landing after the check bumps
            // the epoch, so the park below returns Raced instead of
            // sleeping through its own wakeup.
            let token = self.nclock_waiters.epoch();
            if !std::mem::take(&mut forced_round) && *self.nclock.lock() >= threshold {
                return true;
            }
            if poisoned() {
                return false;
            }
            // Help with no locks held; only park when idle.
            if !help() {
                let _ = self.nclock_waiters.park(
                    token,
                    threshold,
                    std::time::Duration::from_micros(200),
                );
            }
        }
    }

    /// Wakes every `waitTurn` waiter parked on this node, whatever its
    /// threshold (subtree abort or tree teardown): they must observe the
    /// poison flag and give up.
    pub fn cancel(&self) {
        self.nclock_waiters.notify_all();
    }

    /// `waitTurn` target (Alg 3, generalized to multi-fork nodes): the
    /// `(node, threshold)` whose `nclock` reaching `threshold` certifies
    /// that every sub-transaction serialized before this node's subtree has
    /// committed. `None` means no wait (first in the serialization order).
    ///
    /// * continuation of fork `i`: parent's `nclock >= 2i+1` (its sibling
    ///   future's subtree committed);
    /// * future of fork `i > 0`: parent's `nclock >= 2i` (both children of
    ///   every earlier fork committed);
    /// * future of fork `0`: recurse on the parent — the paper's upward
    ///   traversal of `ancVer` to the first continuation ancestor;
    /// * root: no wait.
    pub fn wait_turn_target(self: &Arc<Node>) -> Option<(Arc<Node>, u64)> {
        let mut cur = Arc::clone(self);
        loop {
            match cur.kind {
                NodeKind::Root => return None,
                NodeKind::Continuation { fork_idx } => {
                    let parent = Arc::clone(cur.parent.as_ref().expect("non-root has parent"));
                    return Some((parent, 2 * fork_idx as u64 + 1));
                }
                NodeKind::Future { fork_idx } => {
                    let parent = Arc::clone(cur.parent.as_ref().expect("non-root has parent"));
                    if fork_idx > 0 {
                        return Some((parent, 2 * fork_idx as u64));
                    }
                    cur = parent;
                }
            }
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({:?}, {:?}, {:?})", self.id, self.kind, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn child_paths_follow_order_scheme() {
        let root = Node::new_root();
        let f = Node::new_child(&root, NodeKind::Future { fork_idx: 0 });
        let c = Node::new_child(&root, NodeKind::Continuation { fork_idx: 0 });
        assert!(f.path < c.path);
        assert!(root.path.is_ancestor_of(&f.path));
        assert_eq!(f.anc_ver.get(&root.id), Some(&0));
    }

    #[test]
    fn anc_ver_snapshots_parent_nclock() {
        let root = Node::new_root();
        root.bump_nclock();
        let c = Node::new_child(&root, NodeKind::Continuation { fork_idx: 0 });
        assert_eq!(c.anc_ver.get(&root.id), Some(&1));
        let gc = Node::new_child(&c, NodeKind::Future { fork_idx: 0 });
        assert_eq!(gc.anc_ver.get(&root.id), Some(&1));
        assert_eq!(gc.anc_ver.get(&c.id), Some(&0));
        assert_eq!(gc.anc_ver.len(), 2);
    }

    #[test]
    fn wait_turn_targets_match_alg3() {
        let root = Node::new_root();
        // Fig 3a: TF1 = future(0) of root — first in order, no wait.
        let tf1 = Node::new_child(&root, NodeKind::Future { fork_idx: 0 });
        assert!(tf1.wait_turn_target().is_none());
        // TF2 = future(0) of TF1 — still leftmost: no wait.
        let tf2 = Node::new_child(&tf1, NodeKind::Future { fork_idx: 0 });
        assert!(tf2.wait_turn_target().is_none());
        // TC3 = continuation(0) of TF1: waits TF1.nclock >= 1.
        let tc3 = Node::new_child(&tf1, NodeKind::Continuation { fork_idx: 0 });
        let (n, th) = tc3.wait_turn_target().unwrap();
        assert_eq!(n.id, tf1.id);
        assert_eq!(th, 1);
        // TC4 = continuation(0) of root: waits root.nclock >= 1.
        let tc4 = Node::new_child(&root, NodeKind::Continuation { fork_idx: 0 });
        let (n, th) = tc4.wait_turn_target().unwrap();
        assert_eq!(n.id, root.id);
        assert_eq!(th, 1);
        // TF5 = future(0) of TC4: recurse to TC4's rule — root.nclock >= 1.
        let tf5 = Node::new_child(&tc4, NodeKind::Future { fork_idx: 0 });
        let (n, th) = tf5.wait_turn_target().unwrap();
        assert_eq!(n.id, root.id);
        assert_eq!(th, 1);
        // A second fork of the root: its future waits root.nclock >= 2.
        let f2 = Node::new_child(&root, NodeKind::Future { fork_idx: 1 });
        let (n, th) = f2.wait_turn_target().unwrap();
        assert_eq!(n.id, root.id);
        assert_eq!(th, 2);
        // ... and its continuation waits root.nclock >= 3.
        let c2 = Node::new_child(&root, NodeKind::Continuation { fork_idx: 1 });
        let (n, th) = c2.wait_turn_target().unwrap();
        assert_eq!(n.id, root.id);
        assert_eq!(th, 3);
    }

    #[test]
    fn wait_nclock_blocks_until_bumped() {
        let root = Node::new_root();
        let r2 = Arc::clone(&root);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(15));
            r2.bump_nclock();
        });
        let ok = root.wait_nclock_at_least(1, false, || false, || false);
        assert!(ok);
        h.join().unwrap();
    }

    #[test]
    fn wait_nclock_interrupted_by_poison() {
        let root = Node::new_root();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(15));
            f2.store(true, Ordering::Release);
        });
        let ok = root.wait_nclock_at_least(5, false, || false, || flag.load(Ordering::Acquire));
        assert!(!ok);
        h.join().unwrap();
    }

    #[test]
    fn a_forced_round_helps_once_even_when_the_turn_has_come() {
        let root = Node::new_root();
        root.bump_nclock();
        let helps = std::cell::Cell::new(0);
        let help = || {
            helps.set(helps.get() + 1);
            true
        };
        assert!(root.wait_nclock_at_least(1, true, help, || false));
        assert_eq!(helps.get(), 1);
        assert!(root.wait_nclock_at_least(1, false, help, || false));
        assert_eq!(helps.get(), 1);
    }
}
