//! Identifiers used across the transactional-memory stack.
//!
//! All identifiers are plain `u64` newtypes allocated from process-wide
//! monotonic counters. They are cheap to copy, hash and store inside atomic
//! fields (ownership records store a raw [`NodeId`]).
//!
//! Each thread takes ids from the shared counters in blocks of 1,024 and
//! hands them out locally, so an attempt's fresh tree, node and write ids
//! cost no write to a line other threads write. Ids are unique
//! process-wide and increase within a thread; ids of different threads are
//! not ordered by allocation time (nothing compares them so).

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot / commit version number drawn from the global version clock.
///
/// Version `0` is the initial snapshot: every box's initial value commits at
/// version `0` and every transaction started before any commit reads it.
pub type Version = u64;

/// Identifier of one *node* of a transaction tree: the top-level (root)
/// transaction, a transactional future, or a continuation.
///
/// Node ids are unique across the whole process and across re-executions:
/// every execution *attempt* of a sub-transaction gets a fresh node id, which
/// lets visibility checks distinguish writes of an aborted previous attempt
/// from writes of the current one (paper §IV-B, read rule (1)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Identifier of a transaction *tree* (one per top-level transaction
/// attempt). Used to detect inter-tree conflicts on tentative lists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeId(pub u64);

/// Unique identity of one written value (permanent or tentative version).
///
/// Read-sets record the token of the version they observed; validation
/// re-resolves the read and compares tokens, which is equivalent to the
/// paper's "does the version coincide with the one in the read-set" check
/// without comparing values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WriteToken(pub u64);

impl NodeId {
    /// Sentinel id that never names a real node.
    pub const NONE: NodeId = NodeId(0);

    /// Raw integer value (for storage in atomics).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl TreeId {
    /// Sentinel id that never names a real tree.
    pub const NONE: TreeId = TreeId(0);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for TreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Debug for WriteToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Ids a thread claims from a shared counter at a time.
const ID_BLOCK: u64 = 1024;

/// A thread's current block of one id kind: `next..end`, empty when equal.
struct IdBlock {
    next: Cell<u64>,
    end: Cell<u64>,
}

impl IdBlock {
    const fn new() -> Self {
        IdBlock { next: Cell::new(0), end: Cell::new(0) }
    }

    /// The next id of this thread's block, refilling it from `shared`
    /// (which starts at 1, so [`NodeId::NONE`] and [`TreeId::NONE`] are
    /// never issued).
    #[inline]
    fn take(&self, shared: &AtomicU64) -> u64 {
        let mut id = self.next.get();
        if id == self.end.get() {
            id = shared.fetch_add(ID_BLOCK, Ordering::Relaxed);
            debug_assert!(id.checked_add(ID_BLOCK).is_some(), "id space exhausted");
            self.end.set(id + ID_BLOCK);
        }
        self.next.set(id + 1);
        id
    }
}

static NODE_IDS: AtomicU64 = AtomicU64::new(1);
static TREE_IDS: AtomicU64 = AtomicU64::new(1);
static WRITE_TOKENS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static NODE_BLOCK: IdBlock = const { IdBlock::new() };
    static TREE_BLOCK: IdBlock = const { IdBlock::new() };
    static WRITE_BLOCK: IdBlock = const { IdBlock::new() };
}

/// Allocates a fresh process-unique [`NodeId`].
#[inline]
pub fn new_node_id() -> NodeId {
    NodeId(NODE_BLOCK.with(|b| b.take(&NODE_IDS)))
}

/// Allocates a fresh process-unique [`TreeId`].
#[inline]
pub fn new_tree_id() -> TreeId {
    TreeId(TREE_BLOCK.with(|b| b.take(&TREE_IDS)))
}

/// Allocates a fresh process-unique [`WriteToken`].
#[inline]
pub fn new_write_token() -> WriteToken {
    WriteToken(WRITE_BLOCK.with(|b| b.take(&WRITE_TOKENS)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = new_node_id();
        let b = new_node_id();
        assert!(b.0 > a.0);
        let t1 = new_tree_id();
        let t2 = new_tree_id();
        assert_ne!(t1, t2);
        let w1 = new_write_token();
        let w2 = new_write_token();
        assert!(w2 > w1);
    }

    #[test]
    fn sentinels_never_collide_with_fresh_ids() {
        assert_ne!(new_node_id(), NodeId::NONE);
        assert_ne!(new_tree_id(), TreeId::NONE);
    }

    #[test]
    fn ids_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| new_node_id().0).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn block_allocated_ids_are_distinct_across_threads() {
        // Each thread spans three blocks of every id kind.
        let n = 3 * ID_BLOCK as usize;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let nodes: Vec<u64> = (0..n).map(|_| new_node_id().0).collect();
                    let trees: Vec<u64> = (0..n).map(|_| new_tree_id().0).collect();
                    let writes: Vec<u64> = (0..n).map(|_| new_write_token().0).collect();
                    for ids in [&nodes, &trees, &writes] {
                        assert!(ids.windows(2).all(|w| w[0] < w[1]), "monotone within a thread");
                    }
                    (nodes, trees, writes)
                })
            })
            .collect();
        let (mut nodes, mut trees, mut writes) = (Vec::new(), Vec::new(), Vec::new());
        for h in handles {
            let (a, b, c) = h.join().unwrap();
            nodes.extend(a);
            trees.extend(b);
            writes.extend(c);
        }
        for all in [&mut nodes, &mut trees, &mut writes] {
            assert!(!all.contains(&0), "NONE must never be issued");
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 4 * n);
        }
    }
}
