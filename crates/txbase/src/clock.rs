//! The global version clock and the active-transaction registry.
//!
//! Every top-level transaction in JTF receives, at begin time, the version
//! number of the latest committed read-write transaction; this establishes
//! the data snapshot the transaction observes (paper §III-A). The clock is
//! published *after* a commit's write-back completes, so readers that see
//! version `v` are guaranteed to find every version `<= v` in the permanent
//! lists.
//!
//! The [`ActiveTxnRegistry`] tracks the start version of every live
//! transaction in padded per-slot atomics; its minimum is the watermark under
//! which old permanent versions may be garbage collected (JVSTM-style version
//! GC).
//!
//! # Memory-ordering audit (lock-free read path)
//!
//! The `VBox` permanent lists are read with zero locks, so the orderings in
//! this module are the *only* synchronization between a commit's write-back
//! and a reader's snapshot lookup. The required chain:
//!
//! 1. write-back installs version `v` into each written cell with a
//!    `Release` head-CAS (or a `Release` splice under the cell's structural
//!    flag);
//! 2. [`GlobalClock::publish`]`(v)` then CAS-stores the clock with
//!    `Release` — ordered after every store of step 1;
//! 3. a reader's [`GlobalClock::now`] is `Acquire`: reading `v`
//!    synchronizes-with the publishing CAS, so every version `<= v` of every
//!    written cell is visible before the reader walks any list. This is the
//!    invariant "a snapshot obtained from the clock can always be resolved".
//!
//! Each `Relaxed` in this module, and why it is sufficient:
//!
//! * [`GlobalClock::publish`]'s initial load and CAS-failure ordering — the
//!   loaded value only seeds the monotone-max retry loop; the sole
//!   publication edge is the *successful* CAS, which is `Release`.
//! * [`ActiveTxnRegistry::active_count`] — diagnostics only; never feeds a
//!   GC or visibility decision (per-shard `Relaxed` counter reads).
//!
//! The registration/GC edge must be stronger, and is. The registry is
//! sharded (`REGISTRY_SHARDS` shards of `SLOTS_PER_SHARD` padded slots),
//! and placement is thread-affine: a thread registers in the shard of its
//! [`thread_stripe`] (overflowing to the next shards only when its own is
//! full), so the shard lock, slot and count lines a registration writes
//! were last written by the same thread unless another thread shares its
//! stripe. Slot membership *changes* (register/deregister) serialize on
//! the per-shard micro-lock, under which the shard's cached minimum is
//! recomputed and `Release`-stored;
//! [`ActiveTxnRegistry::min_active`] is a wait-free `Acquire` read of one
//! cached minimum per shard — O(shards), not O(slots), which matters
//! because every commit write-back reads the watermark. The lock makes the
//! cached minimum trivially exact with respect to completed registrations:
//! a deregistration can never leave the cached minimum above a version that
//! is still registered in its shard, because the recompute scans the slots
//! while holding the same lock every registration holds.
//!
//! # The registration/watermark fence pairing
//!
//! Release/Acquire alone does not order a *new* registration against a
//! concurrent watermark computation. A beginning transaction stores its
//! registration (the shard minimum) and then loads the clock for its
//! snapshot; a write-back loads the clock and then the shard minima. That
//! is the store-buffering pattern: without a store→load fence on both
//! sides, the reader's snapshot may predate the writer's clock read while
//! the writer still misses the registration, and the watermark can then
//! exceed the snapshot. Both sides therefore put a `fence(SeqCst)` between
//! the store and the load:
//!
//! * begin ([`ActiveTxnRegistry::begin`], which `Rtf::run_attempts` calls
//!   for every top-level attempt): `register(clock.now())`,
//!   `fence(SeqCst)`, then `start = clock.now()`;
//! * write-back (`CommitChain::write_back_through`): `now = clock.now()`,
//!   `fence(SeqCst)`, then `watermark = min_active(now).min(now)`.
//!
//! The two fences are totally ordered. If the begin fence comes first, the
//! write-back's minimum loads see the registration (or a later minimum of
//! that shard, which is recomputed under the lock and still counts it), so
//! `watermark <= registered <= start`. If the write-back fence comes first,
//! the reader's clock load is coherence-ordered after the writer's, so
//! `start >= now >= watermark` — which is why the watermark is also capped
//! at `now`: other shards may hold registrations newer than `now`. Either
//! way no watermark exceeds a live or future snapshot, so trimming below
//! the newest version at or below it never detaches a version a resolvable
//! snapshot still needs.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::ids::Version;
use crate::stats::thread_stripe;

/// Monotonic clock of committed read-write top-level transactions.
#[derive(Debug)]
pub struct GlobalClock {
    now: CachePadded<AtomicU64>,
}

impl GlobalClock {
    /// Creates a clock at version `0` (the initial snapshot).
    pub fn new() -> Self {
        GlobalClock { now: CachePadded::new(AtomicU64::new(0)) }
    }

    /// Current snapshot version: the latest fully written-back commit.
    #[inline]
    pub fn now(&self) -> Version {
        self.now.load(Ordering::Acquire)
    }

    /// Publishes `v` as completed. Called once per commit record after its
    /// write-back finished; helping threads may race, so the clock only moves
    /// forward (monotone max).
    #[inline]
    pub fn publish(&self, v: Version) {
        let mut cur = self.now.load(Ordering::Relaxed);
        while cur < v {
            match self.now.compare_exchange_weak(cur, v, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

const REGISTRY_SHARDS: usize = 8;
const SLOTS_PER_SHARD: usize = 16;
const FREE: u64 = u64::MAX;

/// One shard of the registry: a padded slot block, a micro-lock serializing
/// membership changes, and the cached minimum `min_active` reads wait-free.
#[derive(Debug)]
struct RegistryShard {
    /// Start versions of registrations placed here (`FREE` = empty). Only
    /// mutated under `lock`; read locklessly by the overflow diagnostics.
    slots: Box<[CachePadded<AtomicU64>]>,
    /// Serializes register/deregister within the shard so the cached
    /// minimum is always exact w.r.t. completed membership changes.
    lock: parking_lot::Mutex<()>,
    /// Cached `min(slots)` (`FREE` when the shard is empty); `Release`
    /// stored under `lock`, `Acquire` read by `min_active`.
    min: CachePadded<AtomicU64>,
    /// Live registrations in this shard (diagnostics).
    count: CachePadded<AtomicU64>,
}

impl RegistryShard {
    fn new() -> Self {
        RegistryShard {
            slots: (0..SLOTS_PER_SHARD)
                .map(|_| CachePadded::new(AtomicU64::new(FREE)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            lock: parking_lot::Mutex::new(()),
            min: CachePadded::new(AtomicU64::new(FREE)),
            count: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Claims a free slot for `version` under the shard lock; returns the
    /// slot index, or `None` when the shard is full.
    fn try_register(&self, version: Version) -> Option<usize> {
        let _g = self.lock.lock();
        let idx = self.slots.iter().position(|s| s.load(Ordering::Relaxed) == FREE)?;
        self.slots[idx].store(version, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // The cached minimum is the shard's only publication point.
        if version < self.min.load(Ordering::Relaxed) {
            self.min.store(version, Ordering::Release);
        }
        Some(idx)
    }

    fn deregister(&self, slot: usize) {
        let _g = self.lock.lock();
        self.slots[slot].store(FREE, Ordering::Relaxed);
        self.count.fetch_sub(1, Ordering::Relaxed);
        let min = self.slots.iter().map(|s| s.load(Ordering::Relaxed)).min().unwrap_or(FREE);
        self.min.store(min, Ordering::Release);
    }
}

/// Registry of the start versions of in-flight transactions.
///
/// A transaction registers its start version when it begins and deregisters
/// on commit/abort. [`ActiveTxnRegistry::min_active`] returns the smallest
/// registered version (or the supplied `fallback` when none is registered),
/// which bounds the oldest snapshot any live transaction can still read:
/// permanent versions strictly older than the watermark (other than the most
/// recent one at or below it) are unreachable and can be trimmed.
#[derive(Debug)]
pub struct ActiveTxnRegistry {
    shards: Box<[RegistryShard]>,
}

/// RAII registration handle; deregisters on drop.
#[derive(Debug)]
pub struct Registration<'a> {
    registry: &'a ActiveTxnRegistry,
    shard: usize,
    slot: usize,
}

impl ActiveTxnRegistry {
    /// Creates a registry with a fixed number of shards of padded slots.
    pub fn new() -> Self {
        let shards = (0..REGISTRY_SHARDS)
            .map(|_| RegistryShard::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ActiveTxnRegistry { shards }
    }

    /// Registers a transaction that started at `version`; the returned guard
    /// deregisters it when dropped.
    ///
    /// Placement is thread-affine: the calling thread's own shard (by its
    /// [`thread_stripe`]) first, then the following shards if it is full.
    /// A transaction that snapshots the clock goes through
    /// [`ActiveTxnRegistry::begin`], which adds the required fence.
    pub fn register(&self, version: Version) -> Registration<'_> {
        debug_assert_ne!(version, FREE);
        let start = thread_stripe();
        // With more concurrent transactions than total slots we spin — in
        // practice thread counts are far below the capacity.
        loop {
            for off in 0..self.shards.len() {
                let shard = (start + off) % self.shards.len();
                if let Some(slot) = self.shards[shard].try_register(version) {
                    return Registration { registry: self, shard, slot };
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Registers a beginning top-level transaction and takes its snapshot
    /// from `clock`; the registration lasts until the guard drops.
    ///
    /// It registers *before* taking the snapshot: the GC watermark must
    /// cover the version the transaction will read. Registering a (possibly
    /// slightly older) clock value first guarantees watermark <= start, so
    /// every version in (watermark, start] plus the newest one at or below
    /// the watermark — everything a reader at `start` can need — is
    /// retained. The `SeqCst` fence orders the registration before the
    /// snapshot load (see the module docs on the fence pairing).
    #[inline]
    pub fn begin(&self, clock: &GlobalClock) -> (Registration<'_>, Version) {
        let reg = self.register(clock.now());
        fence(Ordering::SeqCst);
        (reg, clock.now())
    }

    /// Minimum start version among live transactions, or `fallback` when no
    /// transaction is registered. Wait-free: one cached-minimum read per
    /// shard (the shard locks serialize only membership *changes*).
    pub fn min_active(&self, fallback: Version) -> Version {
        let mut min = FREE;
        for shard in self.shards.iter() {
            let v = shard.min.load(Ordering::Acquire);
            if v < min {
                min = v;
            }
        }
        if min == FREE {
            fallback
        } else {
            min
        }
    }

    /// Number of currently registered transactions (for diagnostics) —
    /// a padded per-shard counter read, not a slot scan.
    pub fn active_count(&self) -> usize {
        self.shards.iter().map(|s| s.count.load(Ordering::Relaxed) as usize).sum()
    }
}

impl Default for ActiveTxnRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.registry.shards[self.shard].deregister(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_is_monotone_under_racing_publishes() {
        let clock = Arc::new(GlobalClock::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        clock.publish(i * 4 + t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now(), 999 * 4 + 3);
        clock.publish(5); // stale publish must not move the clock back
        assert_eq!(clock.now(), 999 * 4 + 3);
    }

    #[test]
    fn registry_tracks_minimum() {
        let reg = ActiveTxnRegistry::new();
        assert_eq!(reg.min_active(42), 42);
        let a = reg.register(10);
        let b = reg.register(7);
        let c = reg.register(30);
        assert_eq!(reg.min_active(0), 7);
        assert_eq!(reg.active_count(), 3);
        drop(b);
        assert_eq!(reg.min_active(0), 10);
        drop(a);
        drop(c);
        assert_eq!(reg.min_active(99), 99);
        assert_eq!(reg.active_count(), 0);
    }

    #[test]
    fn registry_handles_slot_churn() {
        let reg = Arc::new(ActiveTxnRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let r = reg.register(t * 1000 + i + 1);
                        assert!(reg.min_active(u64::MAX - 1) <= t * 1000 + i + 1);
                        drop(r);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.active_count(), 0);
    }

    #[test]
    fn a_thread_keeps_its_registry_shard() {
        let reg = ActiveTxnRegistry::new();
        let shards: Vec<usize> = (0..10).map(|v| reg.register(v + 1).shard).collect();
        assert!(shards.iter().all(|&s| s == shards[0]), "{shards:?}");
        // Live registrations share it too while it has free slots.
        let live: Vec<_> = (0..4).map(|v| reg.register(v + 1)).collect();
        assert!(live.iter().all(|r| r.shard == shards[0]));
    }
}
