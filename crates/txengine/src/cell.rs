//! Versioned boxes (`VBox`), the paper's transactional data containers.
//!
//! A `VBox` stores every committed (*permanent*) version of a value that may
//! still be required by a running transaction, in a list sorted by descending
//! commit version (paper §III-A, Fig 3b), plus a second, *tentative* list
//! holding the in-flight writes of sub-transactions of (at most) one
//! transaction tree, sorted by descending serialization order (§IV-A).
//!
//! The structural operations on both lists live here; the *policies*
//! (snapshot selection for top-level reads, visibility and ownership rules
//! for sub-transactions) are supplied by the client crates through the
//! [`crate::Visibility`] trait and consumed by [`crate::resolve_read`].
//!
//! # Permanent list: lock-free cons list (DESIGN.md D2)
//!
//! The permanent versions form a JVSTM-style **immutable cons list with an
//! atomic head**: each [`PermVersion`] node links to the next-older version
//! through an epoch-managed atomic pointer, commits prepend with CAS, and
//! readers traverse with zero locks. The head node *is* the latest committed
//! version, so the common read (snapshot at or above the head version) is
//! wait-free: one `Acquire` load of the head plus one dereference
//! ([`ReadPath::Fast`]). Older snapshots walk the `next` links
//! ([`ReadPath::Slow`]); the walk is lock-free and never blocks on writers.
//!
//! Two structural mutations cannot be expressed as a head CAS and are
//! serialized per cell by a tiny spin flag that readers never touch:
//!
//! * **out-of-order write-back** — a lagging helper replaying an old commit
//!   record after newer versions already landed must splice mid-list;
//! * **GC trim** — detaching the suffix below the keep node (the newest
//!   version at or below the watermark) and retiring it through
//!   `crossbeam-epoch`, so concurrent readers still inside the suffix stay
//!   valid until they unpin.
//!
//! Reclamation protocol: trim unlinks the suffix (`keep.next := null`)
//! *before* retiring its nodes, and retirement is era-stamped, so any reader
//! that could still reach a retired node pinned before the unlink and blocks
//! its reclamation until it unpins. Mid-list splices hold the same flag as
//! trims, so an insert can never target a pointer inside a detached suffix.
//!
//! # Tentative list
//!
//! The paper manipulates the tentative list with CAS; we keep a short
//! `parking_lot::Mutex` critical section for its *structural* updates while
//! preserving the same ordering, ownership-record and visibility semantics —
//! but readers skip the mutex entirely unless the list may hold entries of
//! their own tree: an atomic owner tag ([`VBoxCell::tentative_scan_needed`])
//! names the tree whose entries currently occupy the list, maintained when
//! the [`TentativeGuard`] unlocks. Top-level readers and sub-transactions of
//! other trees therefore never contend on the mutex.

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rtf_txbase::{new_write_token, OrderKey, Orec, TreeId, Version, WriteToken};

use crate::value::{downcast, erase, TxData, Val};

/// One committed version of a box's value — a node of the cell's lock-free
/// cons list, linked newest-to-oldest.
pub struct PermVersion {
    /// Global commit version that produced this value (0 = initial value).
    pub version: Version,
    /// Unique identity of this write.
    pub token: WriteToken,
    /// The value snapshot.
    pub value: Val,
    /// Next-older version (null at the tail). Readers traverse with
    /// `Acquire` loads under an epoch pin.
    next: Atomic<PermVersion>,
}

/// A thread-level epoch pin amortized across many reads.
///
/// Every permanent-list read pins the epoch for the duration of its pointer
/// walk. Pinning is reentrant: while any guard is held by the current
/// thread, nested pins are a thread-local depth bump with no atomic
/// operations at all. A transaction (or a benchmark loop) that holds a
/// `ReadPin` across its lifetime therefore pays the pin's ordering cost —
/// the store/load fence that makes the era advertisement visible to the
/// collector — once, instead of once per read.
///
/// Holding a pin delays reclamation of every version retired while it is
/// held (they are freed at the next collection after the outermost unpin),
/// which mirrors — and is bounded by — the retention the GC watermark
/// already grants the oldest registered transaction.
///
/// A pin also bounds the lifetime of the borrowed reads of
/// [`VBoxCell::read_ref_at`]: a version it reaches stays allocated until the
/// pin drops, even if a trim retires it meanwhile.
pub struct ReadPin {
    guard: Guard,
}

/// Pins the current thread for a batch of reads (see [`ReadPin`]).
#[inline]
pub fn read_pin() -> ReadPin {
    ReadPin { guard: epoch::pin() }
}

/// Which permanent-list path served a read (exported through the
/// `read_fast`/`read_slow` stats counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPath {
    /// The wait-free fast path: the head version was already at or below
    /// the snapshot — one atomic load, one dereference.
    Fast,
    /// The lock-free slow path: the snapshot predates the head version, so
    /// the read walked the version list.
    Slow,
}

/// One in-flight write by a sub-transaction of the tree currently owning
/// this box's tentative list.
pub struct TentativeEntry {
    /// Serialization-order key of the write (strong ordering semantics).
    pub key: OrderKey,
    /// Unique identity of this write.
    pub token: WriteToken,
    /// The value snapshot.
    pub value: Val,
    /// Ownership record of the execution that created the write.
    pub orec: Arc<Orec>,
    /// Tree the writer belongs to (paper: the root of the writer's
    /// transaction tree, compared to detect inter-tree conflicts).
    pub tree: TreeId,
}

/// Stable identity of a box, used as read-/write-set key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(usize);

impl CellId {
    /// The raw identity value (stable for the box's lifetime within one
    /// process — the observability layer exports it in hotspot reports).
    pub fn raw(self) -> usize {
        self.0
    }

    /// Rebuilds an id from [`CellId::raw`] output (tests and tooling; a
    /// fabricated id never matches a live box unless the raw value came
    /// from one).
    pub fn from_raw(raw: usize) -> CellId {
        CellId(raw)
    }
}

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell@{:x}", self.0)
    }
}

/// Owner-tag value when the tentative list is empty ([`TreeId::NONE`]).
const TENTATIVE_NONE: u64 = 0;
/// Owner-tag value when entries of more than one tree are present (only
/// transiently possible, while aborted foreign entries await scrubbing).
const TENTATIVE_MIXED: u64 = u64::MAX;

/// RAII holder of the per-cell structural-operation flag, serializing GC
/// trims and out-of-order mid-list splices against each other. Readers and
/// in-order (prepending) commits never touch it.
struct ListOpGuard<'a>(&'a AtomicBool);

impl<'a> ListOpGuard<'a> {
    /// Spin-acquires the flag (used by mid-list splices, which must run).
    fn acquire(flag: &'a AtomicBool) -> ListOpGuard<'a> {
        loop {
            if let Some(g) = ListOpGuard::try_acquire(flag) {
                return g;
            }
            std::hint::spin_loop();
        }
    }

    /// Acquires the flag only if free (trims are skippable optimizations).
    fn try_acquire(flag: &'a AtomicBool) -> Option<ListOpGuard<'a>> {
        // Lazy `then`: a guard built for a failed attempt would release the
        // holder's flag when dropped, letting two trims detach and retire
        // the same suffix (a double free).
        flag.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then(|| ListOpGuard(flag))
    }
}

impl Drop for ListOpGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The untyped storage shared by all views of one `VBox`.
pub struct VBoxCell {
    /// Newest committed version; never null. Not cache-padded, so the cell
    /// stays 56 bytes (a 72-byte `Arc` allocation per box, DESIGN.md §3.1):
    /// the head's line is written only when a commit prepends a version,
    /// and the trim that follows writes `list_op` anyway; sub-transaction
    /// writers take the tentative mutex; and a reader that records its read
    /// already writes the cell's `Arc` refcount.
    head: Atomic<PermVersion>,
    /// Serializes GC trims and out-of-order splices (see module docs).
    list_op: AtomicBool,
    /// Tree whose entries currently occupy the tentative list:
    /// [`TENTATIVE_NONE`] when empty, the tree's raw id when uniform,
    /// [`TENTATIVE_MIXED`] otherwise. Maintained by [`TentativeGuard`].
    tentative_owner: AtomicU64,
    tentative: Mutex<Vec<TentativeEntry>>,
}

/// Guard over the tentative list. Dereferences to the entry vector;
/// recomputes the cell's owner tag when dropped, so lock-free readers
/// always observe a tag at least as fresh as the last structural change.
pub struct TentativeGuard<'a> {
    list: MutexGuard<'a, Vec<TentativeEntry>>,
    owner: &'a AtomicU64,
}

impl std::ops::Deref for TentativeGuard<'_> {
    type Target = Vec<TentativeEntry>;
    fn deref(&self) -> &Vec<TentativeEntry> {
        &self.list
    }
}

impl std::ops::DerefMut for TentativeGuard<'_> {
    fn deref_mut(&mut self) -> &mut Vec<TentativeEntry> {
        &mut self.list
    }
}

impl Drop for TentativeGuard<'_> {
    fn drop(&mut self) {
        let mut tag = TENTATIVE_NONE;
        for e in self.list.iter() {
            if tag == TENTATIVE_NONE {
                tag = e.tree.0;
            } else if tag != e.tree.0 {
                tag = TENTATIVE_MIXED;
                break;
            }
        }
        // Release: a reader that is obliged to see an entry (its own write,
        // or a propagated write it witnessed through `nClock`) synchronizes
        // with this store through the same chain that publishes the entry,
        // so it can never skip the mutex while a visible entry is inside.
        self.owner.store(tag, Ordering::Release);
    }
}

impl VBoxCell {
    /// Creates a cell whose initial value committed at version 0.
    pub fn new(initial: Val) -> Arc<VBoxCell> {
        Arc::new(VBoxCell {
            head: Atomic::new(PermVersion {
                version: 0,
                token: new_write_token(),
                value: initial,
                next: Atomic::null(),
            }),
            list_op: AtomicBool::new(false),
            tentative_owner: AtomicU64::new(TENTATIVE_NONE),
            tentative: Mutex::new(Vec::new()),
        })
    }

    /// Identity of this cell.
    #[inline]
    pub fn id(self: &Arc<Self>) -> CellId {
        CellId(Arc::as_ptr(self) as usize)
    }

    /// Returns the most recent committed version at or below `snapshot`
    /// (the top-level read rule of §III-A).
    ///
    /// # Panics
    /// If the snapshot predates every retained version, which the version GC
    /// watermark makes unreachable for registered transactions.
    #[inline]
    pub fn read_at(&self, snapshot: Version) -> (Val, WriteToken) {
        let pin = read_pin();
        let (value, token, _) = self.read_ref_at(snapshot, &pin);
        (value.clone(), token)
    }

    /// [`VBoxCell::read_at`] without cloning the value, also reporting
    /// which path served the read — the wait-free head check or the
    /// lock-free list walk. The returned reference points into the version
    /// node itself and lives as long as both the cell borrow and `pin`.
    /// Reading through it writes no shared word — not even the value's
    /// reference count.
    #[inline]
    pub fn read_ref_at<'g>(
        &'g self,
        snapshot: Version,
        pin: &'g ReadPin,
    ) -> (&'g Val, WriteToken, ReadPath) {
        let guard = &pin.guard;
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: `head` is never null (cells are born with their initial
        // version and trims always retain the keep node) and is protected by
        // the pin. The node outlives `'g`: a trim only retires it, and
        // retired nodes are freed after every pin of their era ends; the
        // cell's own `Drop`, which frees directly, cannot run while `self`
        // is borrowed.
        let node = unsafe { head.deref() };
        if node.version <= snapshot {
            return (&node.value, node.token, ReadPath::Fast);
        }
        let mut cur = node.next.load(Ordering::Acquire, guard);
        // SAFETY: loaded under the pin from a reachable node; trimmed
        // suffixes are retired, not freed, until every pin of their era ends.
        while let Some(n) = unsafe { cur.as_ref() } {
            if n.version <= snapshot {
                return (&n.value, n.token, ReadPath::Slow);
            }
            cur = n.next.load(Ordering::Acquire, guard);
        }
        panic!(
            "rtf internal error: no committed version <= {snapshot} retained \
             (GC watermark violated)"
        );
    }

    /// The head node (never null) under `guard`'s protection.
    fn head_ref<'g>(&self, guard: &'g Guard) -> &'g PermVersion {
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: the head is never null and `guard` pins the epoch.
        unsafe { head.deref() }
    }

    /// Token of the newest committed version.
    pub fn latest_token(&self) -> WriteToken {
        self.head_ref(&epoch::pin()).token
    }

    /// Version number of the newest committed version.
    pub fn latest_version(&self) -> Version {
        self.head_ref(&epoch::pin()).version
    }

    /// Newest committed value (diagnostic / quiescent use).
    pub fn latest_value(&self) -> Val {
        self.head_ref(&epoch::pin()).value.clone()
    }

    /// Installs the write of a committed top-level transaction.
    ///
    /// Idempotent per `version`, so helping threads may race on the same
    /// commit record (paper §III-A: JVSTM's helping write-back). The common
    /// case — this version is newer than the head — is a lock-free CAS
    /// prepend; a lagging helper replaying an older record splices mid-list
    /// under the per-cell structural flag. Returns the number of versions
    /// trimmed by the garbage collector (versions older than the newest
    /// version at or below `watermark` can no longer be read by any live
    /// transaction).
    pub fn apply_commit(
        &self,
        version: Version,
        value: Val,
        token: WriteToken,
        watermark: Version,
    ) -> usize {
        let guard = epoch::pin();
        let mut new = Owned::new(PermVersion { version, token, value, next: Atomic::null() });
        'install: loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: head is never null; protected by `guard`.
            let h = unsafe { head.deref() };
            if h.version == version {
                break 'install; // another helper already wrote this version back
            }
            if h.version < version {
                // In-order write-back: prepend. Release publishes the fully
                // initialized node (including its `next` link) to readers'
                // Acquire head loads.
                rtf_txfault::fail_point!("txengine.cell.prepend");
                new.next.store(head, Ordering::Relaxed);
                match self.head.compare_exchange(
                    head,
                    new,
                    Ordering::Release,
                    Ordering::Relaxed,
                    &guard,
                ) {
                    Ok(_) => break 'install,
                    Err(e) => {
                        new = e.new;
                        continue 'install;
                    }
                }
            }
            // Out-of-order write-back (lagging helper): splice mid-list,
            // serialized with trims so the walk cannot enter a suffix that a
            // concurrent trim detaches.
            rtf_txfault::fail_point!("txengine.cell.splice");
            let _lk = ListOpGuard::acquire(&self.list_op);
            // Re-read the head under the flag: head versions only grow, so
            // it still precedes our splice position, and no node reachable
            // from it can be detached while we hold the flag.
            let mut prev = self.head_ref(&guard);
            loop {
                let nxt = prev.next.load(Ordering::Acquire, &guard);
                // SAFETY: reachable under the pin; trim is excluded by the flag.
                match unsafe { nxt.as_ref() } {
                    Some(n) if n.version > version => prev = n,
                    Some(n) if n.version == version => break 'install,
                    _ => {
                        new.next.store(nxt, Ordering::Relaxed);
                        // Plain store: the flag excludes other splices and
                        // trims, and prepends never touch interior links.
                        prev.next.store(new, Ordering::Release);
                        break 'install;
                    }
                }
            }
        }
        self.trim(watermark, &guard)
    }

    /// Detaches and retires every version older than the keep node (the
    /// newest version at or below `watermark`). Returns the number of nodes
    /// retired; skips (returning 0) when another structural operation is in
    /// flight — trimming is an optimization, not an obligation.
    fn trim(&self, watermark: Version, guard: &Guard) -> usize {
        let Some(_lk) = ListOpGuard::try_acquire(&self.list_op) else {
            return 0;
        };
        // Trims are skippable: an injected abort models "GC lost the flag
        // race" and exercises the no-trim path under load.
        if rtf_txfault::fail_point!("txengine.cell.trim").is_abort() {
            return 0;
        }
        let mut keep = self.head_ref(guard);
        while keep.version > watermark {
            let nxt = keep.next.load(Ordering::Acquire, guard);
            // SAFETY: reachable under the pin; splices are excluded by the flag.
            match unsafe { nxt.as_ref() } {
                Some(n) => keep = n,
                // Nothing at or below the watermark: nothing to anchor a trim.
                None => return 0,
            }
        }
        let mut cur = keep.next.load(Ordering::Acquire, guard);
        if cur.is_null() {
            return 0;
        }
        // Unlink first, then retire: readers that can still reach the suffix
        // pinned before this store and hold reclamation back until they
        // unpin (see module docs for the full protocol).
        keep.next.store(Shared::<PermVersion>::null(), Ordering::Release);
        let mut trimmed = 0;
        // SAFETY: the suffix is now unreachable from the cell; each node is
        // read before retirement and freed only after all current pins end.
        while let Some(n) = unsafe { cur.as_ref() } {
            let next = n.next.load(Ordering::Acquire, guard);
            unsafe { guard.defer_destroy(cur) };
            trimmed += 1;
            cur = next;
        }
        trimmed
    }

    /// Number of retained committed versions (diagnostics).
    pub fn permanent_len(&self) -> usize {
        self.versions().len()
    }

    /// Versions of the retained committed nodes, newest first
    /// (diagnostics).
    pub fn versions(&self) -> Vec<Version> {
        let guard = epoch::pin();
        let mut versions = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: reachable nodes under the pin.
        while let Some(n) = unsafe { cur.as_ref() } {
            versions.push(n.version);
            cur = n.next.load(Ordering::Acquire, &guard);
        }
        versions
    }

    /// Locks the tentative list for structural manipulation. The returned
    /// guard maintains the cell's owner tag on unlock.
    pub fn tentative_lock(&self) -> TentativeGuard<'_> {
        TentativeGuard { list: self.tentative.lock(), owner: &self.tentative_owner }
    }

    /// Whether a reader must take the tentative-list mutex at all: `false`
    /// when the list is empty, or when it holds only entries of trees other
    /// than `reader` (which that reader can never observe — entries are
    /// filtered by tree before any ownership reasoning). `reader = None`
    /// means an unrestricted policy: scan unless empty.
    ///
    /// Memory ordering: the tag is written (`Release`) after the entries,
    /// under the same mutex; a reader that must see an entry — its own
    /// write (program order) or a propagated write it witnessed (the
    /// `propagate_to`/`nClock` Release/Acquire chain) — is downstream of
    /// that unlock, so it observes a tag that routes it into the scan.
    #[inline]
    pub fn tentative_scan_needed(&self, reader: Option<TreeId>) -> bool {
        let tag = self.tentative_owner.load(Ordering::Acquire);
        if tag == TENTATIVE_NONE {
            return false;
        }
        match reader {
            None => true,
            Some(t) => tag == TENTATIVE_MIXED || tag == t.0,
        }
    }

    /// Whether the tentative list is (currently) empty, without blocking:
    /// used by the top-level fast read path (Alg 2 line 6's cheap case).
    pub fn tentative_is_empty(&self) -> bool {
        self.tentative_owner.load(Ordering::Acquire) == TENTATIVE_NONE
    }
}

impl Drop for VBoxCell {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): walk and free the version list.
        let guard = unsafe { epoch::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, guard);
        while !cur.is_null() {
            // SAFETY: exclusive access; every node was allocated by Owned.
            let owned = unsafe { cur.into_owned() };
            cur = owned.next.load(Ordering::Relaxed, guard);
        }
    }
}

impl fmt::Debug for VBoxCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VBoxCell{{versions: {:?}}}", self.versions())
    }
}

/// Inserts `entry` into a tentative list kept in *descending* serialization
/// order, as required so reads stop at the first visible entry and the
/// top-level write-back takes the head (§IV-A).
///
/// If an entry with the same order key owned by the same orec exists, the
/// write overwrites it in place (Alg 1 line 7: a transaction re-writing a
/// box updates its own tentative version).
pub fn tentative_insert(list: &mut Vec<TentativeEntry>, entry: TentativeEntry) {
    for (i, e) in list.iter_mut().enumerate() {
        if Arc::ptr_eq(&e.orec, &entry.orec) && e.key == entry.key {
            *e = entry;
            return;
        }
        if entry.key > e.key {
            list.insert(i, entry);
            return;
        }
    }
    list.push(entry);
}

/// A typed, shareable handle to a versioned box.
///
/// `VBox` is the only container whose accesses the TM tracks, mirroring the
/// JTF programming model (§III): programs put shared state into boxes and
/// read/write them through a transaction handle.
pub struct VBox<T: TxData> {
    cell: Arc<VBoxCell>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: TxData> VBox<T> {
    /// Creates a box whose initial value is committed at version 0 (visible
    /// to every transaction).
    pub fn new(initial: T) -> Self {
        VBox { cell: VBoxCell::new(erase(initial)), _marker: PhantomData }
    }

    /// The untyped cell (runtime use).
    #[inline]
    pub fn cell(&self) -> &Arc<VBoxCell> {
        &self.cell
    }

    /// Identity of this box.
    #[inline]
    pub fn id(&self) -> CellId {
        self.cell.id()
    }

    /// Reads the latest committed value outside any transaction.
    ///
    /// Only meaningful when no transaction is running (tests, reporting
    /// after a benchmark); transactional code must go through a transaction
    /// handle.
    pub fn read_committed(&self) -> Arc<T> {
        downcast(self.cell.latest_value())
    }
}

impl<T: TxData> Clone for VBox<T> {
    fn clone(&self) -> Self {
        VBox { cell: Arc::clone(&self.cell), _marker: PhantomData }
    }
}

impl<T: TxData> fmt::Debug for VBox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VBox<{}>({:?})", std::any::type_name::<T>(), self.cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::downcast_ref;
    use rtf_txbase::new_node_id;

    /// A million-box table pays this per box, so the cell must stay within
    /// one cache line and carry no padding alignment.
    #[test]
    fn cell_footprint_fits_one_unpadded_line() {
        assert!(std::mem::size_of::<VBoxCell>() <= 64, "{}", std::mem::size_of::<VBoxCell>());
        assert!(std::mem::align_of::<VBoxCell>() <= 8, "{}", std::mem::align_of::<VBoxCell>());
    }

    #[test]
    fn initial_version_readable_at_any_snapshot() {
        let b = VBox::new(7u32);
        let (v, _) = b.cell().read_at(0);
        assert_eq!(*downcast::<u32>(v), 7);
        let (v, _) = b.cell().read_at(1_000_000);
        assert_eq!(*downcast::<u32>(v), 7);
    }

    #[test]
    fn read_at_picks_snapshot_version() {
        let b = VBox::new(0u32);
        let c = b.cell();
        c.apply_commit(5, erase(50u32), new_write_token(), 0);
        c.apply_commit(9, erase(90u32), new_write_token(), 0);
        assert_eq!(*downcast::<u32>(c.read_at(0).0), 0);
        assert_eq!(*downcast::<u32>(c.read_at(4).0), 0);
        assert_eq!(*downcast::<u32>(c.read_at(5).0), 50);
        assert_eq!(*downcast::<u32>(c.read_at(8).0), 50);
        assert_eq!(*downcast::<u32>(c.read_at(9).0), 90);
        assert_eq!(*downcast::<u32>(c.read_at(100).0), 90);
        assert_eq!(c.latest_version(), 9);
    }

    #[test]
    fn read_paths_are_attributed() {
        let b = VBox::new(0u32);
        let c = b.cell();
        c.apply_commit(5, erase(50u32), new_write_token(), 0);
        // Snapshot at or above the head: wait-free fast path.
        let pin = read_pin();
        assert_eq!(c.read_ref_at(5, &pin).2, ReadPath::Fast);
        assert_eq!(c.read_ref_at(100, &pin).2, ReadPath::Fast);
        // Older snapshot: list walk.
        assert_eq!(c.read_ref_at(4, &pin).2, ReadPath::Slow);
        assert_eq!(*downcast_ref::<u32>(c.read_ref_at(4, &pin).0), 0);
    }

    #[test]
    fn apply_commit_is_idempotent_per_version() {
        let b = VBox::new(0u32);
        let c = b.cell();
        let tok = new_write_token();
        c.apply_commit(3, erase(30u32), tok, 0);
        // A helping thread replays the same record.
        c.apply_commit(3, erase(30u32), tok, 0);
        assert_eq!(c.permanent_len(), 2);
        assert_eq!(c.latest_token(), tok);
    }

    #[test]
    fn out_of_order_writeback_splices_mid_list() {
        // A lagging helper applies version 4 after 6 and 8 already landed:
        // the splice must keep the list sorted and every snapshot readable.
        let b = VBox::new(0u32);
        let c = b.cell();
        c.apply_commit(6, erase(60u32), new_write_token(), 0);
        c.apply_commit(8, erase(80u32), new_write_token(), 0);
        c.apply_commit(4, erase(40u32), new_write_token(), 0);
        assert_eq!(c.permanent_len(), 4);
        assert_eq!(*downcast::<u32>(c.read_at(3).0), 0);
        assert_eq!(*downcast::<u32>(c.read_at(4).0), 40);
        assert_eq!(*downcast::<u32>(c.read_at(5).0), 40);
        assert_eq!(*downcast::<u32>(c.read_at(7).0), 60);
        assert_eq!(*downcast::<u32>(c.read_at(9).0), 80);
        // Replaying the spliced version is still idempotent.
        c.apply_commit(4, erase(40u32), new_write_token(), 0);
        assert_eq!(c.permanent_len(), 4);
    }

    #[test]
    fn failed_list_op_acquire_leaves_the_holder_in_place() {
        let flag = AtomicBool::new(false);
        let held = ListOpGuard::try_acquire(&flag).expect("free flag");
        assert!(ListOpGuard::try_acquire(&flag).is_none());
        assert!(flag.load(Ordering::Acquire), "a failed attempt released the holder's flag");
        assert!(ListOpGuard::try_acquire(&flag).is_none());
        drop(held);
        assert!(ListOpGuard::try_acquire(&flag).is_some());
    }

    #[test]
    fn gc_trims_below_watermark_keeping_one_readable() {
        let b = VBox::new(0u32);
        let c = b.cell();
        for v in 1..=10u64 {
            c.apply_commit(v, erase(v as u32), new_write_token(), 0);
        }
        assert_eq!(c.permanent_len(), 11);
        // Oldest live transaction started at version 7.
        let trimmed = c.apply_commit(11, erase(110u32), new_write_token(), 7);
        // Keep versions 11..=8 plus the newest <= 7 (version 7 itself).
        assert_eq!(trimmed, 7);
        assert_eq!(c.permanent_len(), 5);
        assert_eq!(*downcast::<u32>(c.read_at(7).0), 7);
        assert_eq!(*downcast::<u32>(c.read_at(100).0), 110);
    }

    #[test]
    #[should_panic(expected = "GC watermark violated")]
    fn reading_below_retained_panics() {
        let b = VBox::new(0u32);
        let c = b.cell();
        c.apply_commit(5, erase(1u32), new_write_token(), 5);
        c.apply_commit(6, erase(2u32), new_write_token(), 6);
        // Versions 0 and 5 trimmed; snapshot 3 unreadable.
        let _ = c.read_at(3);
    }

    #[test]
    fn tentative_insert_keeps_descending_order_and_overwrites() {
        let root = OrderKey::root();
        let o1 = Arc::new(Orec::new(new_node_id()));
        let o2 = Arc::new(Orec::new(new_node_id()));
        let mut list = Vec::new();
        let tree = rtf_txbase::new_tree_id();
        let entry = |key: OrderKey, orec: &Arc<Orec>, val: u32| TentativeEntry {
            key,
            token: new_write_token(),
            value: erase(val),
            orec: Arc::clone(orec),
            tree,
        };
        tentative_insert(&mut list, entry(root.child_future(0).write_key(0), &o1, 1));
        tentative_insert(&mut list, entry(root.child_cont(0).write_key(0), &o2, 2));
        tentative_insert(&mut list, entry(root.write_key(0), &o1, 3));
        let keys: Vec<_> = list.iter().map(|e| e.key.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(keys, sorted, "list must be descending");
        assert_eq!(list.len(), 3);

        // Overwrite: same orec, same key.
        tentative_insert(&mut list, entry(root.write_key(0), &o1, 30));
        assert_eq!(list.len(), 3);
        let tail = &list[2];
        assert_eq!(*downcast::<u32>(tail.value.clone()), 30);
    }

    #[test]
    fn owner_tag_tracks_tentative_occupancy() {
        let b = VBox::new(0u32);
        let c = b.cell();
        let mine = rtf_txbase::new_tree_id();
        let other = rtf_txbase::new_tree_id();
        assert!(c.tentative_is_empty());
        assert!(!c.tentative_scan_needed(Some(mine)));
        assert!(!c.tentative_scan_needed(None));

        let entry = |tree| TentativeEntry {
            key: OrderKey::root().write_key(0),
            token: new_write_token(),
            value: erase(1u32),
            orec: Arc::new(Orec::new(new_node_id())),
            tree,
        };
        tentative_insert(&mut c.tentative_lock(), entry(other));
        assert!(!c.tentative_is_empty());
        // Another tree's entries can never be visible to `mine`: skip.
        assert!(!c.tentative_scan_needed(Some(mine)));
        assert!(c.tentative_scan_needed(Some(other)));
        // Unrestricted policies scan whenever the list is non-empty.
        assert!(c.tentative_scan_needed(None));

        // Mixed occupancy (foreign aborted leftovers): everyone scans.
        c.tentative_lock().push(entry(mine));
        assert!(c.tentative_scan_needed(Some(mine)));
        assert!(c.tentative_scan_needed(Some(other)));

        c.tentative_lock().clear();
        assert!(c.tentative_is_empty());
        assert!(!c.tentative_scan_needed(Some(mine)));
    }

    #[test]
    fn cell_ids_are_distinct_and_stable() {
        let a = VBox::new(1u8);
        let b = VBox::new(1u8);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.clone().id());
    }

    #[test]
    fn read_committed_outside_txn() {
        let b = VBox::new(String::from("hi"));
        assert_eq!(&*b.read_committed(), "hi");
    }

    #[test]
    fn concurrent_readers_commits_and_gc_agree() {
        // Stress the lock-free read path against concurrent prepends and
        // trims: every read at a snapshot `s` must return the value
        // committed at the newest version <= s (values mirror versions).
        // Readers register before loading their snapshot and the writer
        // trims at the registry's watermark, both fenced, like the real
        // begin and write-back paths (`ActiveTxnRegistry::begin`,
        // `CommitChain`).
        use rtf_txbase::ActiveTxnRegistry;
        use std::sync::atomic::AtomicU64;
        let b = VBox::new(0u64);
        let c = Arc::clone(b.cell());
        let published = Arc::new(AtomicU64::new(0));
        let registry = Arc::new(ActiveTxnRegistry::new());
        let writer = {
            let c = Arc::clone(&c);
            let published = Arc::clone(&published);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for v in 1..=2000u64 {
                    let now = published.load(Ordering::Relaxed);
                    std::sync::atomic::fence(Ordering::SeqCst);
                    let watermark = registry.min_active(now).min(now);
                    c.apply_commit(v, erase(v), new_write_token(), watermark);
                    published.store(v, Ordering::Release);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&c);
                let published = Arc::clone(&published);
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for _ in 0..4000 {
                        let _reg = registry.register(published.load(Ordering::Acquire));
                        std::sync::atomic::fence(Ordering::SeqCst);
                        let snap = published.load(Ordering::Acquire);
                        let (val, _) = c.read_at(snap);
                        let got = *downcast::<u64>(val);
                        assert!(
                            got <= snap && got + 4 >= snap.saturating_sub(0).min(got + 4),
                            "read at {snap} returned {got}"
                        );
                        assert_eq!(
                            got,
                            snap.min(2000),
                            "snapshot read must return the newest version <= snapshot"
                        );
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*downcast::<u64>(c.read_at(2000).0), 2000);
    }
}
