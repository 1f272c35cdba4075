//! Top-level commit: the lock-free helping algorithm of JVSTM (paper
//! §III-A), generalized to a *sharded commit backbone* of N lanes, plus a
//! coarse global-mutex strategy kept for the A1 ablation.
//!
//! # The single-lane algorithm (lanes = 1, the default)
//!
//! A committing read-write transaction:
//!
//! 1. validates its read-set (no box it read gained a committed — or
//!    enqueued-to-commit — version newer than its snapshot);
//! 2. enqueues a commit record by CAS-ing the chain tail, which atomically
//!    assigns it the next version number;
//! 3. *helps*: writes back every not-yet-written record up to and including
//!    its own (idempotently — several threads may replay the same record),
//!    publishing the global clock after each record completes.
//!
//! Step 3 is the paper's "helping mechanism to implement the following two
//! steps in a non-blocking, yet atomic, fashion: increasing the global
//! counter and writing-back the values from the transaction's write-set".
//! A thread that stalls after enqueueing cannot block others: any later
//! committer (or reader that needs the clock to advance) completes the
//! write-back on its behalf.
//!
//! # The sharded backbone (lanes > 1)
//!
//! With one chain, *every* read-write commit funnels through one CAS tail
//! and one clock line even when footprints are disjoint. The backbone
//! splits the chain into N lanes keyed by cell-id hash; commits whose whole
//! footprint (reads ∪ writes) hashes to one lane validate, enqueue and
//! write back entirely within that lane, in parallel with other lanes.
//! Correctness changes in three places:
//!
//! * **version draw** — versions come from a shared dispenser, but a record
//!   is enqueued *first* (version 0, visible to validators) and its number
//!   is CAS-assigned strictly oldest-first per lane. Helpers that complete
//!   a draw for a stalled committer abandon their own freshly drawn number
//!   as a gap, marking it done in the [`PublishLadder`] immediately. Within
//!   a lane, chain order therefore implies version order — which is what
//!   makes validate-then-enqueue sound (everything enqueued after me in my
//!   lane serializes after me; other lanes are footprint-disjoint by hash).
//! * **clock publish** — lanes finish write-backs out of global version
//!   order, so publishing directly would break resolvability ("a reader at
//!   clock `v` finds every version ≤ v"). Completed versions are instead
//!   marked in the ladder, and the [`rtf_txbase::ShardedClock`] advances
//!   only along the contiguous completed prefix (see `sclock.rs` for the
//!   full ordering audit). A commit returns only once the clock has reached
//!   its version — draining by *helping all lanes*, never by blocking — so
//!   the legacy real-time guarantee (a transaction beginning after
//!   `try_commit` returns observes it) is preserved.
//! * **cross-lane conflicts** — a commit whose footprint spans several
//!   lanes falls back to a reconciling order: write-lock every touched lane
//!   in ascending index order (deadlock-free), quiesce each (help its
//!   pending records to done), validate against permanent state only, draw
//!   a version, write back directly, mark the ladder, unlock. Single-lane
//!   commits hold their lane's lock in *read* mode across validate→enqueue,
//!   so the fallback cannot slip between a fast-path validation and its
//!   enqueue; fast-path committers in the same lane share the read lock and
//!   serialize through the CAS tail as usual.
//!
//! Memory reclamation of chain records uses `crossbeam-epoch`.

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rtf_txbase::{ActiveTxnRegistry, PublishLadder, ShardedClock, TreeId, Version};
use rtf_txengine::{
    validate_reads_detailed, ConflictKind, ConflictSite, Event, EventSink, ReadSet, WriteEntry,
};

use crate::txn::TopVisibility;

/// How top-level commits serialize their write-back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CommitStrategy {
    /// JVSTM's lock-free enqueue + helping write-back (the paper's design).
    #[default]
    LockFreeHelping,
    /// A single global mutex around validate + write-back (ablation A1).
    GlobalMutex,
}

/// Validation failure: the transaction must re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

/// The ordered-execution lane's in-order commit gate.
///
/// `wait` blocks until it is the transaction's turn to commit (the
/// cross-transaction analogue of waitTurn, Alg 3) and returns whether the
/// turn actually arrived — `false` means the wait was abandoned (stall
/// watchdog fired, cancellation) and the commit must not proceed. The
/// closure lives in the caller (core) because waiting sensibly means
/// *helping* through the task pool, which mvstm does not know about —
/// and because how the thread actually blocks is a stack-wide policy:
/// core routes the closure into `TicketLane::wait_turn`, whose parking
/// runs on the `rtf_txbase::wait` primitive (epoch-token `WaitQueue`,
/// successor-only wakes; see DESIGN.md §3.14 "Blocking model"). Keeping
/// mvstm behind this closure boundary is what lets the blocking core
/// change without this crate noticing.
pub struct TurnGate<'a> {
    /// Blocks for the turn; `false` abandons the commit.
    pub wait: &'a mut dyn FnMut() -> bool,
}

/// One write to install at commit (the engine's buffered-write entry).
pub use rtf_txengine::WriteEntry as CommitWrite;

struct Record {
    /// Commit version. In single-lane mode, assigned (`tail + 1`) before
    /// the enqueue CAS. In lane mode, enqueued as 0 and CAS-assigned from
    /// the dispenser strictly oldest-first per lane.
    version: AtomicU64,
    writes: Box<[WriteEntry]>,
    done: AtomicBool,
    prev: Atomic<Record>,
}

/// One commit lane: an independent helping chain plus the lock that
/// arbitrates between its fast-path committers (shared) and cross-lane
/// fallback commits (exclusive).
struct Lane {
    tail: Atomic<Record>,
    lock: RwLock<()>,
}

impl Lane {
    fn new() -> Self {
        let sentinel = Record {
            version: AtomicU64::new(0),
            writes: Box::new([]),
            done: AtomicBool::new(true),
            prev: Atomic::null(),
        };
        Lane { tail: Atomic::new(sentinel), lock: RwLock::new(()) }
    }
}

/// Fx-style multiplicative mix for lane placement (see `txbase::fxmap`).
const LANE_HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The commit backbone: one or more commit lanes over a shared dispenser
/// and publish ladder. With one lane it is byte-for-byte the legacy global
/// commit chain (dense versions, direct clock publish, no locks).
pub struct CommitChain {
    lanes: Box<[CachePadded<Lane>]>,
    /// `lanes.len() - 1`; the lane count is a power of two.
    lane_mask: u64,
    /// Last drawn version (lane mode only): `fetch_add(1) + 1` draws.
    dispenser: CachePadded<AtomicU64>,
    /// Contiguous-prefix publisher (lane mode only).
    ladder: PublishLadder,
    mutex: Mutex<()>,
    strategy: CommitStrategy,
}

impl CommitChain {
    /// Creates a single-lane chain with a pre-written sentinel at version 0.
    pub fn new(strategy: CommitStrategy) -> Self {
        Self::with_lanes(strategy, 1)
    }

    /// Creates the backbone with `lanes` commit lanes (rounded up to a
    /// power of two; 0 is treated as 1). One lane is the legacy algorithm;
    /// more engage the dispenser/ladder protocol.
    pub fn with_lanes(strategy: CommitStrategy, lanes: usize) -> Self {
        let lanes = lanes.max(1).next_power_of_two();
        CommitChain {
            lanes: (0..lanes).map(|_| CachePadded::new(Lane::new())).collect::<Vec<_>>().into(),
            lane_mask: lanes as u64 - 1,
            dispenser: CachePadded::new(AtomicU64::new(0)),
            ladder: PublishLadder::new(),
            mutex: Mutex::new(()),
            strategy,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> CommitStrategy {
        self.strategy
    }

    /// Number of commit lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Which lane a cell id hashes to (also the placement layer's key for
    /// pinning conflicting transaction families to a lane's worker group).
    #[inline]
    pub fn lane_of_id(&self, id: rtf_txengine::CellId) -> usize {
        ((id.raw() as u64).wrapping_mul(LANE_HASH_SEED) >> 32) as usize & self.lane_mask as usize
    }

    /// Deepest per-lane backlog of enqueued-but-unwritten records (gauge).
    /// Bounded walk: backlogs beyond 64 report as 64.
    pub fn max_lane_depth(&self) -> u64 {
        let guard = epoch::pin();
        let mut max = 0u64;
        for lane in self.lanes.iter() {
            let mut depth = 0u64;
            let mut cur = lane.tail.load(Ordering::Acquire, &guard);
            while let Some(rec) = unsafe { cur.as_ref() } {
                if rec.done.load(Ordering::Acquire) || depth >= 64 {
                    break;
                }
                depth += 1;
                cur = rec.prev.load(Ordering::Acquire, &guard);
            }
            max = max.max(depth);
        }
        max
    }

    /// Validates and commits a read-write top-level transaction.
    ///
    /// `reads` records the write token observed for each box read; `writes`
    /// is the private write-set to install. Returns the commit version on
    /// success. Instrumentation (helped write-backs, GC trims, lane
    /// routing) is reported to `sink`.
    ///
    /// No snapshot version is needed: validation compares write tokens, and
    /// "the token I read is still the newest" is exactly "nothing newer than
    /// my snapshot committed" (tokens are unique per write).
    pub fn try_commit(
        &self,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
    ) -> Result<Version, Conflict> {
        debug_assert!(!writes.is_empty(), "read-only transactions skip the commit chain");
        // Injected abort: behave exactly like a failed validation, so the
        // caller's re-execution machinery is what gets exercised.
        if rtf_txfault::fail_point!("mvstm.commit.validate").is_abort() {
            return Err(Conflict);
        }
        match self.strategy {
            CommitStrategy::GlobalMutex => self.commit_mutex(reads, writes, clock, registry, sink),
            CommitStrategy::LockFreeHelping => {
                if self.lanes.len() == 1 {
                    return self.commit_lockfree(reads, writes, clock, registry, sink);
                }
                // Lane routing: the whole footprint (reads ∪ writes)
                // decides. Reads matter because single-lane validation only
                // walks its own lane's pending records.
                let mut mask = 0u64;
                for w in writes.iter() {
                    mask |= 1u64 << self.lane_of_id(w.cell.id());
                }
                for r in reads.iter() {
                    mask |= 1u64 << self.lane_of_id(r.cell.id());
                }
                // Injected abort at lane routing: exercises the caller's
                // re-execution machinery on the sharded paths.
                if rtf_txfault::fail_point!("mvstm.commit.lane").is_abort() {
                    return Err(Conflict);
                }
                if mask.count_ones() == 1 {
                    let lane = mask.trailing_zeros() as usize;
                    self.commit_in_lane(lane, reads, writes, clock, registry, sink)
                } else {
                    self.commit_cross_lane(mask, reads, writes, clock, registry, sink)
                }
            }
        }
    }

    /// [`CommitChain::try_commit`] behind an optional in-order gate: when
    /// `gate` is present the commit first waits for its ticket's turn, so
    /// the chain's version order extends the predefined ticket order.
    ///
    /// The caller must hold the turn through the entire enqueue +
    /// write-back (i.e. retire its ticket only after this returns): the
    /// gate serializes *entry* into the chain, and because each committer
    /// CASes the tail before its successor may enter, per-lane ticket order
    /// and chain version order coincide.
    pub fn try_commit_gated(
        &self,
        gate: Option<TurnGate<'_>>,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
    ) -> Result<Version, Conflict> {
        if let Some(gate) = gate {
            // Injected abort at the ticket handoff: the ticket is abandoned
            // by the caller's abort path, exercising hole-skipping in the
            // lane.
            if rtf_txfault::fail_point!("mvstm.commit.ticket").is_abort() {
                return Err(Conflict);
            }
            if !(gate.wait)() {
                return Err(Conflict);
            }
        }
        self.try_commit(reads, writes, clock, registry, sink)
    }

    /// Read-set-only validation for empty-write-set (read-only) top-level
    /// commits in the ordered lane. A read-only transaction publishes
    /// nothing, so the unordered fast path skips validation entirely and
    /// serializes at its snapshot — but a *ticketed* one must serialize at
    /// its ticket position, so once the turn is won its reads must still
    /// be current. Returns `Err(Conflict)` (reporting the displaced cell)
    /// when they are not; the caller re-executes at the same position.
    pub fn validate_ro(&self, reads: &ReadSet, sink: &dyn EventSink) -> Result<(), Conflict> {
        if rtf_txfault::fail_point!("mvstm.commit.validate").is_abort() {
            return Err(Conflict);
        }
        let site = match self.strategy {
            CommitStrategy::GlobalMutex => {
                let _g = self.mutex.lock();
                validate_reads_detailed(reads.iter(), |_| TopVisibility::latest()).err()
            }
            CommitStrategy::LockFreeHelping => {
                let guard = epoch::pin();
                // Walk every lane's pending suffix; permanent state is
                // checked once (inside validate_against of the last lane
                // walk would double-count, so do the parts separately).
                let mut site = None;
                for lane in self.lanes.iter() {
                    let tail = lane.tail.load(Ordering::Acquire, &guard);
                    if let Err(s) = Self::validate_pending(tail, reads, &guard) {
                        site = Some(s);
                        break;
                    }
                }
                if site.is_none() {
                    site = validate_reads_detailed(reads.iter(), |_| TopVisibility::latest()).err();
                }
                site
            }
        };
        match site {
            Some(site) => {
                Self::report_conflict(sink, site);
                Err(Conflict)
            }
            None => Ok(()),
        }
    }

    /// Reports an attributed top-level validation failure to the sink.
    fn report_conflict(sink: &dyn EventSink, site: ConflictSite) {
        sink.event(Event::Conflict {
            kind: ConflictKind::TopValidation,
            cell: site.cell,
            writer_tree: site.writer_tree,
        });
    }

    fn commit_mutex(
        &self,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
    ) -> Result<Version, Conflict> {
        let _g = self.mutex.lock();
        if let Err(site) = validate_reads_detailed(reads.iter(), |_| TopVisibility::latest()) {
            Self::report_conflict(sink, site);
            return Err(Conflict);
        }
        let version = clock.now() + 1;
        let watermark = registry.min_active(clock.now());
        for w in writes {
            w.cell.apply_commit(version, w.value, w.token, watermark);
        }
        clock.publish(version);
        Ok(version)
    }

    /// The legacy single-lane lock-free commit: version = tail + 1 assigned
    /// at the enqueue CAS, clock published directly per record. Byte-exact
    /// with the pre-sharding algorithm (dense versions, `now()` equals the
    /// number of committed read-write transactions).
    fn commit_lockfree(
        &self,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
    ) -> Result<Version, Conflict> {
        let lane = &self.lanes[0];
        let guard = epoch::pin();
        let mut newrec = Owned::new(Record {
            version: AtomicU64::new(0),
            writes: writes.into_boxed_slice(),
            done: AtomicBool::new(false),
            prev: Atomic::null(),
        });
        let me = loop {
            let tail = lane.tail.load(Ordering::Acquire, &guard);
            // Full (re-)validation per attempt: enqueued-but-unwritten
            // records first, then the permanent state. See module docs for
            // why this two-part check cannot miss a conflicting commit.
            if let Err(site) = Self::validate_against(tail, reads, &guard) {
                Self::report_conflict(sink, site);
                // `newrec` (and the write values it owns) drop here.
                return Err(Conflict);
            }
            // Delay here widens the validate→enqueue window, forcing CAS
            // retries and full re-validations on the loser.
            rtf_txfault::fail_point!("mvstm.commit.enqueue");
            let tail_ver = unsafe { tail.deref() }.version.load(Ordering::Acquire);
            newrec.version.store(tail_ver + 1, Ordering::Relaxed);
            newrec.prev.store(tail, Ordering::Relaxed);
            match lane.tail.compare_exchange(
                tail,
                newrec,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(me) => break me,
                Err(e) => newrec = e.new,
            }
        };
        let my_version = unsafe { me.deref() }.version.load(Ordering::Relaxed);
        self.write_back_through(me, false, clock, registry, sink, &guard);
        unsafe { Self::cleanup(me, &guard) };
        Ok(my_version)
    }

    /// Single-lane fast path of the sharded backbone: the whole footprint
    /// hashes to `lane`, so validation + enqueue happen under the lane's
    /// *shared* lock (excluding only cross-lane fallbacks) and the version
    /// is drawn from the dispenser after the enqueue.
    fn commit_in_lane(
        &self,
        lane_idx: usize,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
    ) -> Result<Version, Conflict> {
        let lane = &self.lanes[lane_idx];
        let guard = epoch::pin();
        let mut newrec = Owned::new(Record {
            version: AtomicU64::new(0),
            writes: writes.into_boxed_slice(),
            done: AtomicBool::new(false),
            prev: Atomic::null(),
        });
        let me = {
            // The shared lock spans validate→enqueue so a cross-lane
            // fallback (which writes lane cells without a record) cannot
            // commit between our validation and our CAS.
            let _shared = lane.lock.read();
            loop {
                let tail = lane.tail.load(Ordering::Acquire, &guard);
                if let Err(site) = Self::validate_against(tail, reads, &guard) {
                    Self::report_conflict(sink, site);
                    return Err(Conflict);
                }
                rtf_txfault::fail_point!("mvstm.commit.enqueue");
                newrec.prev.store(tail, Ordering::Relaxed);
                match lane.tail.compare_exchange(
                    tail,
                    newrec,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &guard,
                ) {
                    Ok(me) => break me,
                    Err(e) => newrec = e.new,
                }
            }
        };
        let my_version = self.assign_versions(me, clock, sink, &guard);
        self.write_back_through(me, true, clock, registry, sink, &guard);
        unsafe { Self::cleanup(me, &guard) };
        sink.event(Event::LaneCommit { lane: lane_idx as u32 });
        self.drain_to(my_version, clock, registry, sink, &guard);
        Ok(my_version)
    }

    /// Cross-lane fallback: write-lock every touched lane (ascending index
    /// order — deadlock-free), quiesce each, validate against permanent
    /// state, then write back directly under the locks.
    fn commit_cross_lane(
        &self,
        mask: u64,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
    ) -> Result<Version, Conflict> {
        let guard = epoch::pin();
        let touched: Vec<usize> =
            (0..self.lanes.len()).filter(|l| mask & (1u64 << l) != 0).collect();
        let _locks: Vec<_> = touched.iter().map(|&l| self.lanes[l].lock.write()).collect();
        // Quiesce: help every pending record in the touched lanes to done,
        // so permanent state alone reflects everything that serializes
        // before us in these lanes.
        for &l in &touched {
            let tail = self.lanes[l].tail.load(Ordering::Acquire, &guard);
            if let Some(rec) = unsafe { tail.as_ref() } {
                if !rec.done.load(Ordering::Acquire) {
                    self.assign_versions(tail, clock, sink, &guard);
                    self.write_back_through(tail, true, clock, registry, sink, &guard);
                }
            }
        }
        if let Err(site) = validate_reads_detailed(reads.iter(), |_| TopVisibility::latest()) {
            Self::report_conflict(sink, site);
            return Err(Conflict);
        }
        let version = self.dispenser.fetch_add(1, Ordering::Relaxed) + 1;
        let watermark = registry.min_active(clock.now());
        rtf_txfault::fail_point!("mvstm.commit.writeback");
        let mut gced = 0;
        for w in writes {
            gced += w.cell.apply_commit(version, w.value, w.token, watermark);
        }
        self.ladder.mark(version, clock);
        drop(_locks);
        sink.event(Event::LaneFallback { lanes: mask.count_ones() });
        if gced > 0 {
            sink.event(Event::VersionsGced(gced as u64));
        }
        self.drain_to(version, clock, registry, sink, &guard);
        Ok(version)
    }

    /// Draws dispenser versions for the unassigned suffix ending at `me`,
    /// strictly oldest-first, and returns `me`'s version. Racing helpers
    /// are resolved by the CAS on each record's version; a loser marks its
    /// own orphaned draw done in the ladder (a harmless version-space gap).
    ///
    /// Oldest-first assignment is what keeps chain order and version order
    /// aligned within a lane: a helper draws for a record only after its
    /// predecessor's number is assigned (it either assigned it itself or
    /// observed the assignment when its CAS failed), and the dispenser is
    /// monotone, so every later chain position gets a larger version.
    fn assign_versions(
        &self,
        me: Shared<'_, Record>,
        clock: &ShardedClock,
        sink: &dyn EventSink,
        guard: &Guard,
    ) -> Version {
        let mut unassigned: Vec<Shared<'_, Record>> = Vec::new();
        let mut cur = me;
        while let Some(rec) = unsafe { cur.as_ref() } {
            if rec.done.load(Ordering::Acquire) || rec.version.load(Ordering::Acquire) != 0 {
                break;
            }
            unassigned.push(cur);
            cur = rec.prev.load(Ordering::Acquire, guard);
        }
        for shared in unassigned.into_iter().rev() {
            let rec = unsafe { shared.deref() };
            if rec.version.load(Ordering::Acquire) != 0 {
                continue; // another helper got here first
            }
            let draw = self.dispenser.fetch_add(1, Ordering::Relaxed) + 1;
            match rec.version.compare_exchange(0, draw, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if shared != me {
                        sink.event(Event::LaneHelpedDraw);
                    }
                }
                Err(_) => {
                    // Lost the assignment race: nobody will ever write
                    // `draw` back, so mark it done immediately (straight-
                    // line, panic-free) lest the ladder wedge on the gap.
                    self.ladder.mark(draw, clock);
                }
            }
        }
        unsafe { me.deref() }.version.load(Ordering::Acquire)
    }

    /// Helps every lane's pending write-backs until the clock reaches `v`.
    /// Never blocks on a lock: lane write-backs are idempotent helping, and
    /// a cross-lane fallback's direct write-back is performed by a running
    /// thread. This preserves the legacy real-time guarantee — a commit
    /// returns only once its version is visible to new snapshots.
    fn drain_to(
        &self,
        v: Version,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
        guard: &Guard,
    ) {
        while clock.now() < v {
            for lane in self.lanes.iter() {
                let tail = lane.tail.load(Ordering::Acquire, guard);
                if let Some(rec) = unsafe { tail.as_ref() } {
                    if !rec.done.load(Ordering::Acquire) {
                        self.assign_versions(tail, clock, sink, guard);
                        self.write_back_through(tail, true, clock, registry, sink, guard);
                    }
                }
            }
            self.ladder.advance(clock);
            std::hint::spin_loop();
        }
    }

    /// Pending-suffix overlap check for one lane (part 1 of validation).
    fn validate_pending(
        tail: Shared<'_, Record>,
        reads: &ReadSet,
        guard: &Guard,
    ) -> Result<(), ConflictSite> {
        let mut cur = tail;
        while let Some(rec) = unsafe { cur.as_ref() } {
            if rec.done.load(Ordering::Acquire) {
                break;
            }
            for w in rec.writes.iter() {
                if reads.contains(w.cell.id()) {
                    return Err(ConflictSite { cell: w.cell.id(), writer_tree: TreeId::NONE });
                }
            }
            cur = rec.prev.load(Ordering::Acquire, guard);
        }
        Ok(())
    }

    /// Chain + permanent validation. `tail` is the current lane tail. A
    /// failure names the conflicted cell ([`ConflictSite`]); the displacing
    /// write is a (pending or permanent) top-level commit either way, so no
    /// writer tree is attributed.
    fn validate_against(
        tail: Shared<'_, Record>,
        reads: &ReadSet,
        guard: &Guard,
    ) -> Result<(), ConflictSite> {
        // Part 1: enqueued records that are not yet written back. Their
        // writes are invisible in the permanent lists but will commit with a
        // version greater than `start`, so overlap with the read-set is a
        // conflict.
        Self::validate_pending(tail, reads, guard)?;
        // Part 2: committed state, via the engine's single validation loop —
        // a read stays valid iff re-resolving against the latest committed
        // state observes the same write token (JVSTM read-set validation).
        validate_reads_detailed(reads.iter(), |_| TopVisibility::latest())
    }

    /// Writes back every unwritten record up to and including `me`, oldest
    /// first; idempotent and performed by any number of helping threads.
    /// `via_ladder` selects how a completed version is published: directly
    /// to the clock (single-lane mode, versions complete in order) or by
    /// marking the publish ladder (lane mode, out-of-order completion).
    fn write_back_through(
        &self,
        me: Shared<'_, Record>,
        via_ladder: bool,
        clock: &ShardedClock,
        registry: &ActiveTxnRegistry,
        sink: &dyn EventSink,
        guard: &Guard,
    ) {
        // Collect the unwritten suffix (me .. first done record].
        let mut pending: Vec<Shared<'_, Record>> = Vec::new();
        let mut cur = me;
        while let Some(rec) = unsafe { cur.as_ref() } {
            if rec.done.load(Ordering::Acquire) {
                break;
            }
            pending.push(cur);
            cur = rec.prev.load(Ordering::Acquire, guard);
        }
        // One watermark per write-back quantum: the whole batch shares a
        // single O(shards) registry scan instead of one per record.
        let watermark = registry.min_active(clock.now());
        for shared in pending.into_iter().rev() {
            let rec = unsafe { shared.deref() };
            if rec.done.load(Ordering::Acquire) {
                continue; // another helper finished it meanwhile
            }
            let version = rec.version.load(Ordering::Acquire);
            if version == 0 {
                // Lane mode: the draw for this record has not completed yet
                // (assign_versions raced); it will be helped again.
                continue;
            }
            // A stalled write-back is exactly what the helping protocol
            // exists for: a delay here must be recovered by other committers
            // replaying the record.
            rtf_txfault::fail_point!("mvstm.commit.writeback");
            let mut gced = 0;
            for w in rec.writes.iter() {
                gced += w.cell.apply_commit(version, w.value.clone(), w.token, watermark);
            }
            let first = !rec.done.swap(true, Ordering::AcqRel);
            if via_ladder {
                self.ladder.mark(version, clock);
            } else {
                clock.publish(version);
            }
            if first && shared != me {
                sink.event(Event::HelpedWriteback);
            }
            if gced > 0 {
                sink.event(Event::VersionsGced(gced as u64));
            }
        }
    }

    /// Unlinks and reclaims fully-written records from the old end of the
    /// chain. Only records that are done *and* whose own `prev` is already
    /// null are released, so concurrent validators can always walk from the
    /// tail to the first done record.
    unsafe fn cleanup(me: Shared<'_, Record>, guard: &Guard) {
        loop {
            // Find the deepest pair (cur -> p) where p is terminal.
            let mut cur = me;
            let mut victim = None;
            loop {
                let rec = unsafe { cur.deref() };
                let p = rec.prev.load(Ordering::Acquire, guard);
                let Some(pref) = (unsafe { p.as_ref() }) else { break };
                if pref.done.load(Ordering::Acquire)
                    && pref.prev.load(Ordering::Acquire, guard).is_null()
                {
                    victim = Some((cur, p));
                    break;
                }
                cur = p;
            }
            match victim {
                Some((holder, p)) => {
                    let holder_rec = unsafe { holder.deref() };
                    if holder_rec
                        .prev
                        .compare_exchange(
                            p,
                            Shared::null(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_ok()
                    {
                        unsafe { guard.defer_destroy(p) };
                    } else {
                        return; // someone else is cleaning; stop
                    }
                }
                None => return,
            }
        }
    }
}

impl Drop for CommitChain {
    fn drop(&mut self) {
        // Exclusive access: walk each lane's chain and free every record.
        let guard = unsafe { epoch::unprotected() };
        for lane in self.lanes.iter() {
            let mut cur = lane.tail.load(Ordering::Relaxed, guard);
            while !cur.is_null() {
                let owned = unsafe { cur.into_owned() };
                cur = owned.prev.load(Ordering::Relaxed, guard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_txbase::new_write_token;
    use rtf_txengine::{downcast, erase, NullSink, ReadRecord, Source, VBox};
    use std::sync::Arc;

    fn read_obs(b: &VBox<u64>, start: Version) -> ReadRecord {
        let (_, token) = b.cell().read_at(start);
        ReadRecord { cell: Arc::clone(b.cell()), token, source: Source::Permanent, epoch: 0 }
    }

    fn write_of(b: &VBox<u64>, v: u64) -> CommitWrite {
        CommitWrite { cell: Arc::clone(b.cell()), value: erase(v), token: new_write_token() }
    }

    fn harness() -> (CommitChain, ShardedClock, ActiveTxnRegistry) {
        (
            CommitChain::new(CommitStrategy::LockFreeHelping),
            ShardedClock::new(1),
            ActiveTxnRegistry::new(),
        )
    }

    fn lane_harness(lanes: usize) -> (CommitChain, ShardedClock, ActiveTxnRegistry) {
        (
            CommitChain::with_lanes(CommitStrategy::LockFreeHelping, lanes),
            ShardedClock::new(lanes),
            ActiveTxnRegistry::new(),
        )
    }

    #[test]
    fn single_commit_advances_clock_and_writes_back() {
        let (chain, clock, reg) = harness();
        let b = VBox::new(0u64);
        let reads = ReadSet::new();
        let v = chain.try_commit(&reads, vec![write_of(&b, 9)], &clock, &reg, &NullSink).unwrap();
        assert_eq!(v, 1);
        assert_eq!(clock.now(), 1);
        assert_eq!(*downcast::<u64>(b.cell().read_at(1).0), 9);
        assert_eq!(*downcast::<u64>(b.cell().read_at(0).0), 0);
    }

    #[test]
    fn stale_read_conflicts() {
        let (chain, clock, reg) = harness();
        let b = VBox::new(0u64);
        // T1 starts at snapshot 0 and reads b.
        let mut reads = ReadSet::new();
        reads.record(read_obs(&b, 0));
        // T2 commits a write to b.
        chain.try_commit(&ReadSet::new(), vec![write_of(&b, 5)], &clock, &reg, &NullSink).unwrap();
        // T1 now fails validation.
        let r = chain.try_commit(&reads, vec![write_of(&b, 7)], &clock, &reg, &NullSink);
        assert_eq!(r, Err(Conflict));
        assert_eq!(clock.now(), 1);
        assert_eq!(*downcast::<u64>(b.cell().read_at(1).0), 5);
    }

    #[test]
    fn disjoint_writes_all_commit() {
        let (chain, clock, reg) = harness();
        let a = VBox::new(0u64);
        let b = VBox::new(0u64);
        chain.try_commit(&ReadSet::new(), vec![write_of(&a, 1)], &clock, &reg, &NullSink).unwrap();
        chain.try_commit(&ReadSet::new(), vec![write_of(&b, 2)], &clock, &reg, &NullSink).unwrap();
        assert_eq!(clock.now(), 2);
        assert_eq!(*downcast::<u64>(a.cell().read_at(2).0), 1);
        assert_eq!(*downcast::<u64>(b.cell().read_at(2).0), 2);
        // Snapshot 1 sees only the first commit.
        assert_eq!(*downcast::<u64>(b.cell().read_at(1).0), 0);
    }

    #[test]
    fn mutex_strategy_equivalent() {
        let chain = CommitChain::new(CommitStrategy::GlobalMutex);
        let (clock, reg) = (ShardedClock::new(1), ActiveTxnRegistry::new());
        let b = VBox::new(0u64);
        let v = chain
            .try_commit(&ReadSet::new(), vec![write_of(&b, 3)], &clock, &reg, &NullSink)
            .unwrap();
        assert_eq!(v, 1);
        let mut reads = ReadSet::new();
        reads.record(read_obs(&b, 0));
        assert_eq!(
            chain.try_commit(&reads, vec![write_of(&b, 4)], &clock, &reg, &NullSink),
            Err(Conflict)
        );
    }

    #[test]
    fn concurrent_counter_increments_serialize() {
        // N threads repeatedly read-modify-write one box through the chain;
        // the final value must equal the number of successful commits.
        let chain = Arc::new(CommitChain::new(CommitStrategy::LockFreeHelping));
        let clock = Arc::new(ShardedClock::new(1));
        let reg = Arc::new(ActiveTxnRegistry::new());
        let b = VBox::new(0u64);

        let threads = 4;
        let per = 200;
        let total_committed = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (chain, clock, reg, b, total) = (
                    Arc::clone(&chain),
                    Arc::clone(&clock),
                    Arc::clone(&reg),
                    b.clone(),
                    Arc::clone(&total_committed),
                );
                std::thread::spawn(move || {
                    let mut committed = 0;
                    while committed < per {
                        // Register BEFORE taking the snapshot, like the real
                        // begin path (`TopTxn::new`): registering first pins
                        // the GC watermark at or below the snapshot we then
                        // take; snapshot-then-register leaves a window where
                        // a concurrent write-back trims the version this
                        // reader is about to need.
                        let _reg = reg.register(clock.now());
                        let start = clock.now();
                        let (val, token) = b.cell().read_at(start);
                        let cur = *downcast::<u64>(val);
                        let mut reads = ReadSet::new();
                        reads.record(ReadRecord {
                            cell: Arc::clone(b.cell()),
                            token,
                            source: Source::Permanent,
                            epoch: 0,
                        });
                        let w = CommitWrite {
                            cell: Arc::clone(b.cell()),
                            value: erase(cur + 1),
                            token: new_write_token(),
                        };
                        if chain.try_commit(&reads, vec![w], &clock, &reg, &NullSink).is_ok() {
                            committed += 1;
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = total_committed.load(Ordering::Relaxed);
        assert_eq!(expected, (threads * per) as u64);
        assert_eq!(*downcast::<u64>(b.cell().read_at(clock.now()).0), expected);
        assert_eq!(clock.now(), expected);
    }

    #[test]
    fn gate_refusal_aborts_without_writing() {
        let (chain, clock, reg) = harness();
        let b = VBox::new(0u64);
        let mut refused = || false;
        let r = chain.try_commit_gated(
            Some(TurnGate { wait: &mut refused }),
            &ReadSet::new(),
            vec![write_of(&b, 1)],
            &clock,
            &reg,
            &NullSink,
        );
        assert_eq!(r, Err(Conflict));
        assert_eq!(clock.now(), 0, "a refused gate must not touch the chain");
        assert_eq!(*downcast::<u64>(b.cell().read_at(0).0), 0);
    }

    #[test]
    fn gate_admission_commits_and_none_gate_is_transparent() {
        let (chain, clock, reg) = harness();
        let b = VBox::new(0u64);
        let mut waited = false;
        let mut admit = || {
            waited = true;
            true
        };
        let v = chain
            .try_commit_gated(
                Some(TurnGate { wait: &mut admit }),
                &ReadSet::new(),
                vec![write_of(&b, 8)],
                &clock,
                &reg,
                &NullSink,
            )
            .unwrap();
        assert_eq!(v, 1);
        assert!(waited, "the gate must have been consulted");
        let v2 = chain
            .try_commit_gated(None, &ReadSet::new(), vec![write_of(&b, 9)], &clock, &reg, &NullSink)
            .unwrap();
        assert_eq!(v2, 2);
        assert_eq!(*downcast::<u64>(b.cell().read_at(2).0), 9);
    }

    #[test]
    fn chain_does_not_grow_unboundedly() {
        let (chain, clock, reg) = harness();
        let b = VBox::new(0u64);
        for i in 0..1000u64 {
            chain
                .try_commit(&ReadSet::new(), vec![write_of(&b, i)], &clock, &reg, &NullSink)
                .unwrap();
        }
        // Walk the chain: it must be short (cleanup keeps only a small tail).
        let guard = epoch::pin();
        let mut len = 0;
        let mut cur = chain.lanes[0].tail.load(Ordering::Acquire, &guard);
        while let Some(rec) = unsafe { cur.as_ref() } {
            len += 1;
            cur = rec.prev.load(Ordering::Acquire, &guard);
        }
        assert!(len <= 4, "chain length {len} after 1000 commits");
    }

    // ---- sharded backbone (lanes > 1) ----

    #[test]
    fn sharded_single_commit_is_visible_and_clock_reaches_version() {
        let (chain, clock, reg) = lane_harness(4);
        let b = VBox::new(0u64);
        let v = chain
            .try_commit(&ReadSet::new(), vec![write_of(&b, 9)], &clock, &reg, &NullSink)
            .unwrap();
        assert!(clock.now() >= v, "commit must not return before its version is readable");
        assert_eq!(*downcast::<u64>(b.cell().read_at(clock.now()).0), 9);
    }

    #[test]
    fn sharded_stale_read_conflicts() {
        let (chain, clock, reg) = lane_harness(4);
        let b = VBox::new(0u64);
        let mut reads = ReadSet::new();
        reads.record(read_obs(&b, 0));
        chain.try_commit(&ReadSet::new(), vec![write_of(&b, 5)], &clock, &reg, &NullSink).unwrap();
        let r = chain.try_commit(&reads, vec![write_of(&b, 7)], &clock, &reg, &NullSink);
        assert_eq!(r, Err(Conflict));
        assert_eq!(*downcast::<u64>(b.cell().read_at(clock.now()).0), 5);
    }

    #[test]
    fn sharded_cross_lane_footprint_takes_fallback_and_commits() {
        let (chain, clock, reg) = lane_harness(4);
        // Make enough boxes that at least two land in different lanes.
        let boxes: Vec<VBox<u64>> = (0..16).map(|_| VBox::new(0u64)).collect();
        let (i, j) = {
            let mut found = (0, 1);
            'outer: for i in 0..boxes.len() {
                for j in (i + 1)..boxes.len() {
                    if chain.lane_of_id(boxes[i].cell().id())
                        != chain.lane_of_id(boxes[j].cell().id())
                    {
                        found = (i, j);
                        break 'outer;
                    }
                }
            }
            found
        };
        assert_ne!(
            chain.lane_of_id(boxes[i].cell().id()),
            chain.lane_of_id(boxes[j].cell().id()),
            "fixture must span two lanes"
        );
        let v = chain
            .try_commit(
                &ReadSet::new(),
                vec![write_of(&boxes[i], 11), write_of(&boxes[j], 22)],
                &clock,
                &reg,
                &NullSink,
            )
            .unwrap();
        assert!(clock.now() >= v);
        assert_eq!(*downcast::<u64>(boxes[i].cell().read_at(clock.now()).0), 11);
        assert_eq!(*downcast::<u64>(boxes[j].cell().read_at(clock.now()).0), 22);
    }

    #[test]
    fn sharded_fallback_sees_pending_fast_path_writes() {
        // A fast-path commit followed by a cross-lane commit reading the
        // same cell: the fallback's quiesce + permanent validation must
        // observe the earlier write (conflict when read stale).
        let (chain, clock, reg) = lane_harness(4);
        let a = VBox::new(0u64);
        let boxes: Vec<VBox<u64>> = (0..16).map(|_| VBox::new(0u64)).collect();
        let other = boxes
            .iter()
            .find(|b| chain.lane_of_id(b.cell().id()) != chain.lane_of_id(a.cell().id()))
            .expect("a box in another lane");
        // Stale read of `a`, then someone commits to `a`.
        let mut reads = ReadSet::new();
        reads.record(read_obs(&a, 0));
        chain.try_commit(&ReadSet::new(), vec![write_of(&a, 5)], &clock, &reg, &NullSink).unwrap();
        // Cross-lane commit (reads `a`, writes `other`) must conflict.
        let r = chain.try_commit(&reads, vec![write_of(other, 1)], &clock, &reg, &NullSink);
        assert_eq!(r, Err(Conflict));
    }

    #[test]
    fn sharded_concurrent_counter_increments_serialize() {
        // The lane-mode analogue of the legacy serialization test: final
        // value equals successful commits; the clock covers every version
        // drawn (gaps from helped draws included) but never runs ahead of
        // the dispenser.
        let chain = Arc::new(CommitChain::with_lanes(CommitStrategy::LockFreeHelping, 4));
        let clock = Arc::new(ShardedClock::new(4));
        let reg = Arc::new(ActiveTxnRegistry::new());
        let b = VBox::new(0u64);

        let threads = 4;
        let per = 150;
        let total_committed = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (chain, clock, reg, b, total) = (
                    Arc::clone(&chain),
                    Arc::clone(&clock),
                    Arc::clone(&reg),
                    b.clone(),
                    Arc::clone(&total_committed),
                );
                std::thread::spawn(move || {
                    let mut committed = 0;
                    while committed < per {
                        let _reg = reg.register(clock.now());
                        let start = clock.now();
                        let (val, token) = b.cell().read_at(start);
                        let cur = *downcast::<u64>(val);
                        let mut reads = ReadSet::new();
                        reads.record(ReadRecord {
                            cell: Arc::clone(b.cell()),
                            token,
                            source: Source::Permanent,
                            epoch: 0,
                        });
                        let w = CommitWrite {
                            cell: Arc::clone(b.cell()),
                            value: erase(cur + 1),
                            token: new_write_token(),
                        };
                        if chain.try_commit(&reads, vec![w], &clock, &reg, &NullSink).is_ok() {
                            committed += 1;
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = total_committed.load(Ordering::Relaxed);
        assert_eq!(expected, (threads * per) as u64);
        assert_eq!(*downcast::<u64>(b.cell().read_at(clock.now()).0), expected);
        assert!(clock.now() >= expected, "clock must cover every commit");
    }

    #[test]
    fn sharded_disjoint_lanes_commit_in_parallel_and_stay_consistent() {
        // Writers hammer per-lane disjoint boxes from separate threads; all
        // final values must be the per-box commit counts and every lane's
        // chain must stay short.
        let lanes = 4;
        let chain = Arc::new(CommitChain::with_lanes(CommitStrategy::LockFreeHelping, lanes));
        let clock = Arc::new(ShardedClock::new(lanes));
        let reg = Arc::new(ActiveTxnRegistry::new());
        let boxes: Vec<VBox<u64>> = (0..8).map(|_| VBox::new(0u64)).collect();
        let per = 200u64;
        let handles: Vec<_> = boxes
            .iter()
            .map(|b| {
                let (chain, clock, reg, b) =
                    (Arc::clone(&chain), Arc::clone(&clock), Arc::clone(&reg), b.clone());
                std::thread::spawn(move || {
                    for i in 1..=per {
                        chain
                            .try_commit(
                                &ReadSet::new(),
                                vec![CommitWrite {
                                    cell: Arc::clone(b.cell()),
                                    value: erase(i),
                                    token: new_write_token(),
                                }],
                                &clock,
                                &reg,
                                &NullSink,
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let now = clock.now();
        for b in &boxes {
            assert_eq!(*downcast::<u64>(b.cell().read_at(now).0), per);
        }
        assert!(chain.max_lane_depth() == 0, "all lanes quiesced after joins");
    }

    #[test]
    fn sharded_gate_and_validate_ro_work() {
        let (chain, clock, reg) = lane_harness(4);
        let b = VBox::new(0u64);
        let mut admit = || true;
        let v = chain
            .try_commit_gated(
                Some(TurnGate { wait: &mut admit }),
                &ReadSet::new(),
                vec![write_of(&b, 8)],
                &clock,
                &reg,
                &NullSink,
            )
            .unwrap();
        assert!(clock.now() >= v);
        // Fresh read validates; stale read does not.
        let mut fresh = ReadSet::new();
        fresh.record(read_obs(&b, clock.now()));
        assert!(chain.validate_ro(&fresh, &NullSink).is_ok());
        let mut stale = ReadSet::new();
        stale.record(ReadRecord {
            cell: Arc::clone(b.cell()),
            token: rtf_txbase::WriteToken(u64::MAX), // never matches a live write
            source: Source::Permanent,
            epoch: 0,
        });
        assert!(chain.validate_ro(&stale, &NullSink).is_err());
    }
}
