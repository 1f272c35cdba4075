//! Top-level commit: the lock-free helping algorithm of JVSTM (paper
//! §III-A).
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
//! write-back on its behalf. Versions are dense: the clock equals the
//! number of committed read-write transactions.
//!
//! Memory reclamation of chain records uses `crossbeam-epoch`.

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{fence, AtomicBool, Ordering};

use rtf_txbase::{ActiveTxnRegistry, GlobalClock, TreeId, Version};
use rtf_txengine::{
    validate_reads_detailed, ConflictKind, ConflictSite, Counter, Event, ReadSet, Telemetry,
    WriteEntry,
};

use crate::txn::TopVisibility;

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
    /// Commit version (`tail + 1`), set before the enqueue CAS publishes
    /// the record and immutable afterwards.
    version: Version,
    writes: Box<[WriteEntry]>,
    done: AtomicBool,
    prev: Atomic<Record>,
}

/// The commit chain: a lock-free queue of commit records whose tail CAS
/// orders every top-level read-write commit.
pub struct CommitChain {
    tail: CachePadded<Atomic<Record>>,
}

impl CommitChain {
    /// Creates a chain with a pre-written sentinel at version 0.
    pub fn new() -> Self {
        let sentinel = Record {
            version: 0,
            writes: Box::new([]),
            done: AtomicBool::new(true),
            prev: Atomic::null(),
        };
        CommitChain { tail: CachePadded::new(Atomic::new(sentinel)) }
    }

    /// Enqueued-but-unpublished commit records right now (the
    /// `commit_lane_depth` gauge). Versions are dense and `clock` publishes
    /// them in chain order, so the backlog is the tail's version minus the
    /// clock: O(1), and exact however deep the chain is.
    pub fn backlog(&self, clock: &GlobalClock) -> u64 {
        let now = clock.now();
        let guard = epoch::pin();
        let tail = self.tail.load(Ordering::Acquire, &guard);
        // SAFETY: the tail is never null (the chain starts at a sentinel
        // and the tail CAS only installs new records), and the guard keeps
        // the record it points to from being reclaimed.
        unsafe { tail.deref() }.version.saturating_sub(now)
    }

    /// Validates and commits a read-write top-level transaction.
    ///
    /// `reads` records the write token observed for each box read; `writes`
    /// is the private write-set to install. Returns the commit version on
    /// success. Instrumentation (helped write-backs, GC trims) is reported
    /// to `telemetry`.
    ///
    /// No snapshot version is needed: validation compares write tokens, and
    /// "the token I read is still the newest" is exactly "nothing newer than
    /// my snapshot committed" (tokens are unique per write).
    pub fn try_commit(
        &self,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &GlobalClock,
        registry: &ActiveTxnRegistry,
        telemetry: &Telemetry,
    ) -> Result<Version, Conflict> {
        debug_assert!(!writes.is_empty(), "read-only transactions skip the commit chain");
        // Injected abort: behave exactly like a failed validation, so the
        // caller's re-execution machinery is what gets exercised.
        if rtf_txfault::fail_point!("mvstm.commit.validate").is_abort() {
            return Err(Conflict);
        }
        let guard = epoch::pin();
        let mut newrec = Owned::new(Record {
            version: 0,
            writes: writes.into_boxed_slice(),
            done: AtomicBool::new(false),
            prev: Atomic::null(),
        });
        let me = loop {
            let tail = self.tail.load(Ordering::Acquire, &guard);
            // Full (re-)validation per attempt against this tail: a
            // conflicting commit is either still enqueued behind it or
            // already in the permanent lists.
            if let Err(site) = Self::validate_against(tail, reads, &guard) {
                Self::report_conflict(telemetry, site);
                // `newrec` (and the write values it owns) drop here.
                return Err(Conflict);
            }
            // Delay here widens the validate→enqueue window, forcing CAS
            // retries and full re-validations on the loser.
            rtf_txfault::fail_point!("mvstm.commit.enqueue");
            newrec.version = unsafe { tail.deref() }.version + 1;
            newrec.prev.store(tail, Ordering::Relaxed);
            match self.tail.compare_exchange(
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
        let my_version = unsafe { me.deref() }.version;
        Self::write_back_through(me, clock, registry, telemetry, &guard);
        unsafe { Self::cleanup(me, &guard) };
        Ok(my_version)
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
    pub fn try_commit_in_turn(
        &self,
        gate: Option<TurnGate<'_>>,
        reads: &ReadSet,
        writes: Vec<WriteEntry>,
        clock: &GlobalClock,
        registry: &ActiveTxnRegistry,
        telemetry: &Telemetry,
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
        self.try_commit(reads, writes, clock, registry, telemetry)
    }

    /// Read-set-only validation for empty-write-set (read-only) top-level
    /// commits in the ordered lane. A read-only transaction publishes
    /// nothing, so the unordered fast path skips validation entirely and
    /// serializes at its snapshot — but a *ticketed* one must serialize at
    /// its ticket position, so once the turn is won its reads must still
    /// be current. Returns `Err(Conflict)` (reporting the displaced cell)
    /// when they are not; the caller re-executes at the same position.
    pub fn validate_ro(&self, reads: &ReadSet, telemetry: &Telemetry) -> Result<(), Conflict> {
        if rtf_txfault::fail_point!("mvstm.commit.validate").is_abort() {
            return Err(Conflict);
        }
        let guard = epoch::pin();
        let tail = self.tail.load(Ordering::Acquire, &guard);
        match Self::validate_against(tail, reads, &guard) {
            Err(site) => {
                Self::report_conflict(telemetry, site);
                Err(Conflict)
            }
            Ok(()) => Ok(()),
        }
    }

    /// Reports an attributed top-level validation failure.
    fn report_conflict(telemetry: &Telemetry, site: ConflictSite) {
        telemetry.event(Event::Conflict {
            kind: ConflictKind::TopValidation,
            cell: site.cell,
            writer_tree: site.writer_tree,
        });
    }

    /// Chain + permanent validation. `tail` is the current chain tail. A
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
        // Part 2: committed state, via the engine's single validation loop —
        // a read stays valid iff re-resolving against the latest committed
        // state observes the same write token (JVSTM read-set validation).
        validate_reads_detailed(reads.iter(), |_| TopVisibility::latest())
    }

    /// Writes back every unwritten record up to and including `me`, oldest
    /// first; idempotent and performed by any number of helping threads.
    /// Versions complete in chain order, so each is published to the clock
    /// directly.
    fn write_back_through(
        me: Shared<'_, Record>,
        clock: &GlobalClock,
        registry: &ActiveTxnRegistry,
        telemetry: &Telemetry,
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
        // single O(shards) registry scan instead of one per record. The
        // fence pairs with the one between registering and snapshotting,
        // and the cap at `now` covers registrations newer than `now` (see
        // the `rtf_txbase::clock` module docs).
        let now = clock.now();
        fence(Ordering::SeqCst);
        let watermark = registry.min_active(now).min(now);
        for shared in pending.into_iter().rev() {
            let rec = unsafe { shared.deref() };
            if rec.done.load(Ordering::Acquire) {
                continue; // another helper finished it meanwhile
            }
            let version = rec.version;
            // A stalled write-back is exactly what the helping protocol
            // exists for: a delay here must be recovered by other committers
            // replaying the record.
            rtf_txfault::fail_point!("mvstm.commit.writeback");
            let mut gced = 0;
            for w in rec.writes.iter() {
                gced += w.cell.apply_commit(version, w.value.clone(), w.token, watermark);
            }
            let first = !rec.done.swap(true, Ordering::AcqRel);
            clock.publish(version);
            if first && shared != me {
                telemetry.count(Counter::HelpedWritebacks, 1);
            }
            if gced > 0 {
                telemetry.count(Counter::VersionsGced, gced as u64);
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

impl Default for CommitChain {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CommitChain {
    fn drop(&mut self) {
        // Exclusive access: walk the chain and free every record.
        let guard = unsafe { epoch::unprotected() };
        let mut cur = self.tail.load(Ordering::Relaxed, guard);
        while !cur.is_null() {
            let owned = unsafe { cur.into_owned() };
            cur = owned.prev.load(Ordering::Relaxed, guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_txbase::new_write_token;
    use rtf_txengine::{downcast, erase, ReadRecord, Source, Telemetry, VBox};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn read_obs(b: &VBox<u64>, start: Version) -> ReadRecord {
        let (_, token) = b.cell().read_at(start);
        ReadRecord { cell: Arc::clone(b.cell()), token, source: Source::Permanent, epoch: 0 }
    }

    fn write_of(b: &VBox<u64>, v: u64) -> CommitWrite {
        CommitWrite { cell: Arc::clone(b.cell()), value: erase(v), token: new_write_token() }
    }

    fn harness() -> (CommitChain, GlobalClock, ActiveTxnRegistry, Telemetry) {
        (CommitChain::new(), GlobalClock::new(), ActiveTxnRegistry::new(), Telemetry::default())
    }

    #[test]
    fn single_commit_advances_clock_and_writes_back() {
        let (chain, clock, reg, tel) = harness();
        let b = VBox::new(0u64);
        let reads = ReadSet::new();
        let v = chain.try_commit(&reads, vec![write_of(&b, 9)], &clock, &reg, &tel).unwrap();
        assert_eq!(v, 1);
        assert_eq!(clock.now(), 1);
        assert_eq!(*downcast::<u64>(b.cell().read_at(1).0), 9);
        assert_eq!(*downcast::<u64>(b.cell().read_at(0).0), 0);
    }

    #[test]
    fn stale_read_conflicts() {
        let (chain, clock, reg, tel) = harness();
        let b = VBox::new(0u64);
        // T1 starts at snapshot 0 and reads b.
        let mut reads = ReadSet::new();
        reads.record(read_obs(&b, 0));
        // T2 commits a write to b.
        chain.try_commit(&ReadSet::new(), vec![write_of(&b, 5)], &clock, &reg, &tel).unwrap();
        // T1 now fails validation.
        let r = chain.try_commit(&reads, vec![write_of(&b, 7)], &clock, &reg, &tel);
        assert_eq!(r, Err(Conflict));
        assert_eq!(clock.now(), 1);
        assert_eq!(*downcast::<u64>(b.cell().read_at(1).0), 5);
    }

    #[test]
    fn disjoint_writes_all_commit() {
        let (chain, clock, reg, tel) = harness();
        let a = VBox::new(0u64);
        let b = VBox::new(0u64);
        chain.try_commit(&ReadSet::new(), vec![write_of(&a, 1)], &clock, &reg, &tel).unwrap();
        chain.try_commit(&ReadSet::new(), vec![write_of(&b, 2)], &clock, &reg, &tel).unwrap();
        assert_eq!(clock.now(), 2);
        assert_eq!(*downcast::<u64>(a.cell().read_at(2).0), 1);
        assert_eq!(*downcast::<u64>(b.cell().read_at(2).0), 2);
        // Snapshot 1 sees only the first commit.
        assert_eq!(*downcast::<u64>(b.cell().read_at(1).0), 0);
    }

    #[test]
    fn concurrent_counter_increments_serialize() {
        // N threads repeatedly read-modify-write one box through the chain;
        // the final value must equal the number of successful commits.
        let chain = Arc::new(CommitChain::new());
        let clock = Arc::new(GlobalClock::new());
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
                    let tel = Telemetry::default();
                    let mut committed = 0;
                    while committed < per {
                        // The real begin path: registering first pins the
                        // GC watermark at or below the snapshot taken next;
                        // snapshot-then-register leaves a window where a
                        // concurrent write-back trims the version this
                        // reader is about to need.
                        let (_reg, start) = reg.begin(&clock);
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
                        if chain.try_commit(&reads, vec![w], &clock, &reg, &tel).is_ok() {
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
        let (chain, clock, reg, tel) = harness();
        let b = VBox::new(0u64);
        let mut refused = || false;
        let r = chain.try_commit_in_turn(
            Some(TurnGate { wait: &mut refused }),
            &ReadSet::new(),
            vec![write_of(&b, 1)],
            &clock,
            &reg,
            &tel,
        );
        assert_eq!(r, Err(Conflict));
        assert_eq!(clock.now(), 0, "a refused gate must not touch the chain");
        assert_eq!(*downcast::<u64>(b.cell().read_at(0).0), 0);
    }

    #[test]
    fn gate_admission_commits_and_none_gate_is_transparent() {
        let (chain, clock, reg, tel) = harness();
        let b = VBox::new(0u64);
        let mut waited = false;
        let mut admit = || {
            waited = true;
            true
        };
        let v = chain
            .try_commit_in_turn(
                Some(TurnGate { wait: &mut admit }),
                &ReadSet::new(),
                vec![write_of(&b, 8)],
                &clock,
                &reg,
                &tel,
            )
            .unwrap();
        assert_eq!(v, 1);
        assert!(waited, "the gate must have been consulted");
        let v2 = chain
            .try_commit_in_turn(None, &ReadSet::new(), vec![write_of(&b, 9)], &clock, &reg, &tel)
            .unwrap();
        assert_eq!(v2, 2);
        assert_eq!(*downcast::<u64>(b.cell().read_at(2).0), 9);
    }

    #[test]
    fn chain_does_not_grow_unboundedly() {
        let (chain, clock, reg, tel) = harness();
        let b = VBox::new(0u64);
        for i in 0..1000u64 {
            chain.try_commit(&ReadSet::new(), vec![write_of(&b, i)], &clock, &reg, &tel).unwrap();
        }
        // Walk the chain: it must be short (cleanup keeps only a small tail).
        let guard = epoch::pin();
        let mut len = 0;
        let mut cur = chain.tail.load(Ordering::Acquire, &guard);
        while let Some(rec) = unsafe { cur.as_ref() } {
            len += 1;
            cur = rec.prev.load(Ordering::Acquire, &guard);
        }
        assert!(len <= 4, "chain length {len} after 1000 commits");
    }

    #[test]
    fn validate_ro_accepts_fresh_reads_and_rejects_stale_ones() {
        let (chain, clock, reg, tel) = harness();
        let b = VBox::new(0u64);
        chain.try_commit(&ReadSet::new(), vec![write_of(&b, 8)], &clock, &reg, &tel).unwrap();
        let mut fresh = ReadSet::new();
        fresh.record(read_obs(&b, clock.now()));
        assert!(chain.validate_ro(&fresh, &tel).is_ok());
        let mut stale = ReadSet::new();
        stale.record(read_obs(&b, 0));
        assert!(chain.validate_ro(&stale, &tel).is_err());
        assert_eq!(chain.backlog(&clock), 0, "the chain is fully written back");
    }

    #[test]
    fn backlog_above_64_reads_as_its_exact_size() {
        let (chain, clock, reg, tel) = harness();
        // Enqueue 100 records without writing them back, as 100 committers
        // stalled between their enqueue CAS and their write-back would.
        {
            let guard = epoch::pin();
            for _ in 0..100 {
                let tail = chain.tail.load(Ordering::Acquire, &guard);
                // SAFETY: as in `backlog`: a non-null tail, pinned.
                let rec = Owned::new(Record {
                    version: unsafe { tail.deref() }.version + 1,
                    writes: Box::new([]),
                    done: AtomicBool::new(false),
                    prev: Atomic::null(),
                });
                rec.prev.store(tail, Ordering::Relaxed);
                chain.tail.store(rec, Ordering::Release);
            }
        }
        assert_eq!(chain.backlog(&clock), 100);
        // The next committer helps the whole backlog through.
        let b = VBox::new(0u64);
        let v =
            chain.try_commit(&ReadSet::new(), vec![write_of(&b, 1)], &clock, &reg, &tel).unwrap();
        assert_eq!(v, 101);
        assert_eq!(clock.now(), 101);
        assert_eq!(chain.backlog(&clock), 0);
    }
}
