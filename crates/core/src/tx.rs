//! The transaction handle: reads, writes, `submit`, `fork`, `eval`, and the
//! sub-transaction commit protocol (Algs 3 & 4).
//!
//! # Execution model
//!
//! A root attempt starts as a plain top-level transaction (§III-A): the
//! [`Tx`] itself holds its snapshot, ids, read log and write-set, reads
//! through [`TopRead`] and commits straight from those sets. Its first
//! [`Tx::submit`] or [`Tx::fork`] builds the transaction tree, moving the
//! write-set into it as the frozen root write-set; a fallback attempt runs
//! its submits inline and never builds one.
//!
//! Once there is a tree, a [`Tx`] is a *cursor* over it. It starts at the
//! node its closure was entered with (the root for `atomic`, a future node
//! for a pool task, a continuation node for `fork`'s second closure). Each
//! [`Tx::submit`] splits the current node: the future body is scheduled on
//! the pool and the cursor descends into the freshly created continuation
//! child — exactly the paper's model where the parent halts at the submit
//! point and the rest of its code *is* the continuation.
//!
//! When the closure returns, the runtime commits the chain of implicit
//! continuations bottom-up and then the entry node itself; each commit
//! waits its turn (Alg 3), validates (Alg 4), and propagates ownership to
//! the parent. A validation failure re-executes the innermost enclosing
//! *closure* (see DESIGN.md D1 for how this maps to the paper's
//! FCC-based partial rollback):
//!
//! * a future body — re-run by its pool task;
//! * `fork`'s continuation closure — re-run by `fork` (partial rollback);
//! * the `atomic` body itself — the top-level transaction restarts.
//!
//! # Control flow
//!
//! Tree teardown (inter-tree conflict, top-level restart, user panic in a
//! sub-transaction) propagates by unwinding with the private
//! [`PoisonSignal`] payload; every transactional operation polls the tree's
//! poison latch so all participants converge to the `atomic` retry loop.
//! An attempt without a tree has no other participant: it unwinds with the
//! [`PoisonKind`] itself.

// Audited `clippy::panic` exemption: this module's panics are the
// runtime's typed unwind channels (`PoisonSignal` / `CancelSignal` /
// structured `TxError` payloads) plus documented API-contract panics;
// every one is caught or surfaced at the `Rtf` boundary, never a bug trap.
#![allow(clippy::panic)]

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rtf_taskpool::{OrderTag, Pool};
use rtf_txbase::{OrderKey, TreeId, Version, WriteToken};
use rtf_txengine::{
    downcast, downcast_ref, erase, obs_now_ns, read_pin, resolve_read, tx_trace, ConflictKind,
    Counter, Event, ReadLog, ReadPath, ReadPin, ReadRecord, ReadSet, Source, SpanKind, SpanRec,
    StallKind, Telemetry, TxData, VBox, VBoxCell, Val, WaitSiteGuard, WriteSet,
};

use crate::error::TxError;
use crate::future::TxFuture;
use crate::node::{Node, NodeKind};
use crate::rw::{sub_write, validate_reads_detailed, SubRead, TopRead};
use crate::stall::{StallAction, StallThresholds, StallWatch};
use crate::tree::{AttemptId, PoisonKind, TreeCtx};

/// Unwind payload used for tree teardown; never escapes the crate.
pub(crate) struct PoisonSignal;

/// Silences the default panic hook for unwinds the runtime itself raises
/// and handles: [`PoisonSignal`]/[`PoisonKind`]/[`CancelSignal`] (internal
/// control flow),
/// structured [`TxError`]/[`crate::FutureError`] payloads (surfaced at the
/// API boundary), and injected [`rtf_txfault::InjectedPanic`] faults
/// (contained by the pool). None of these are errors worth a stderr report;
/// everything else is delegated to the previously installed hook.
pub(crate) fn install_quiet_poison_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<PoisonSignal>()
                || p.is::<PoisonKind>()
                || p.is::<CancelSignal>()
                || p.is::<TxError>()
                || p.is::<crate::error::FutureError>()
                || p.is::<rtf_txfault::InjectedPanic>()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// A sub-transaction failed validation and must re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubConflict;

/// Unwind payload of [`Tx::cancel`]: abandon the transaction without
/// retrying. Caught by `Rtf::run`.
pub(crate) struct CancelSignal;

/// Per-node execution state while the node is the cursor (or suspended
/// beneath it).
pub(crate) struct Frame {
    pub node: Arc<Node>,
    reads: ReadLog,
    written: Vec<Arc<VBoxCell>>,
    wrote: bool,
    /// Tree-wide read-write sub-commit count at frame creation (§IV-E).
    ro_snapshot: u64,
    /// Span start timestamp; `0` when span recording is off.
    born_ns: u64,
}

impl Frame {
    fn new(node: Arc<Node>, ro_snapshot: u64, env: &TxEnv) -> Frame {
        Frame {
            node,
            reads: ReadLog::new(),
            written: Vec::new(),
            wrote: false,
            ro_snapshot,
            born_ns: if env.telemetry.spans() { obs_now_ns() } else { 0 },
        }
    }

    /// The frame of `tree`'s root, built at the root's first submit.
    fn root(tree: &TreeCtx, env: &TxEnv) -> Frame {
        let ro_snapshot = tree.rw_commit_clock.load(Ordering::Acquire);
        Frame::new(Arc::clone(&tree.root), ro_snapshot, env)
    }

    /// A frame for a fresh child attempt of `parent`. The §IV-E snapshot is
    /// taken *before* the node snapshots its ancestors' `nclock`s: every
    /// commit whose second clock increment the snapshot counts has already
    /// bumped its parent's `nclock` (see `commit_frame`), so the node sees
    /// its writes. Taken after, a commit landing in between would be
    /// counted yet invisible, and a stale read could skip validation.
    fn child(parent: &Arc<Node>, kind: NodeKind, tree: &TreeCtx, env: &TxEnv) -> Frame {
        let ro_snapshot = tree.rw_commit_clock.load(Ordering::Acquire);
        Frame::new(Node::new_child(parent, kind), ro_snapshot, env)
    }
}

/// Runtime facilities a `Tx` needs (provided by `crate::Rtf`).
///
/// Aligned to a cache line pair (the `CachePadded` size on x86_64) so the
/// reference count of an `Arc<TxEnv>` — which every attempt bumps — sits
/// alone on its line: the runtime keeps one replica per thread stripe, and
/// neighbouring allocations must not share their counts' line.
#[repr(align(128))]
pub(crate) struct TxEnv {
    pub pool: Pool,
    /// The runtime's instrumentation: every event of the tree machinery
    /// reports here.
    pub telemetry: Arc<Telemetry>,
    /// §IV-E read-only validation skip enabled (ablation A2 turns it off).
    pub ro_opt: bool,
    /// Starvation-watchdog thresholds (builder/env resolved once at build).
    pub stall: StallThresholds,
}

/// A root attempt that has built no tree: the plain top-level transaction
/// of §III-A. Its first submit moves this state into a [`TreeCtx`]; a
/// fallback attempt keeps it to the end.
struct TopLevel {
    id: AttemptId,
    start: Version,
    reads: ReadLog,
    /// The top-level private write-set.
    writes: WriteSet,
    /// Sequential fallback mode: submits run inline (DESIGN.md D3).
    fallback: bool,
}

/// What a [`Tx`] runs in.
enum Mode {
    /// A root attempt before its first submit, or a fallback attempt.
    Top(TopLevel),
    /// A transaction tree; the `Tx` is a cursor over it.
    Tree(Arc<TreeCtx>),
}

/// Handle to the current transactional context.
///
/// Obtained inside [`crate::Rtf::atomic`]; passed by `&mut` to future and
/// continuation closures. All shared-state access goes through this handle.
pub struct Tx {
    env: Arc<TxEnv>,
    mode: Mode,
    /// Tree mode: the frames from the entry node down to the cursor. Empty
    /// in top mode.
    frames: Vec<Frame>,
    /// Read-only transaction: skip read-set recording, forbid writes.
    ro_mode: bool,
    /// Read-path counts accumulated locally and flushed once, as
    /// `read_fast` / `read_slow`, when the handle drops (a per-read shared
    /// counter would serialize the lock-free read path it measures).
    reads_fast: u64,
    reads_slow: u64,
}

impl Drop for Tx {
    fn drop(&mut self) {
        if self.reads_fast > 0 {
            self.env.telemetry.count(Counter::ReadFast, self.reads_fast);
        }
        if self.reads_slow > 0 {
            self.env.telemetry.count(Counter::ReadSlow, self.reads_slow);
        }
        let orec_retries = crate::rw::take_orec_snapshot_retries();
        if orec_retries > 0 {
            self.env.telemetry.count(Counter::OrecSnapshotRetries, orec_retries);
        }
    }
}

impl Tx {
    /// A root attempt `id` at snapshot `start`; it builds no tree until
    /// its first submit, and never in `fallback` mode.
    pub(crate) fn new_for_root(
        env: Arc<TxEnv>,
        id: AttemptId,
        start: Version,
        ro_mode: bool,
        fallback: bool,
    ) -> Tx {
        let top = TopLevel { id, start, reads: ReadLog::new(), writes: WriteSet::new(), fallback };
        Tx { env, mode: Mode::Top(top), frames: Vec::new(), ro_mode, reads_fast: 0, reads_slow: 0 }
    }

    fn new_for_frame(env: Arc<TxEnv>, tree: Arc<TreeCtx>, frame: Frame, ro_mode: bool) -> Tx {
        Tx {
            env,
            mode: Mode::Tree(tree),
            frames: vec![frame],
            ro_mode,
            reads_fast: 0,
            reads_slow: 0,
        }
    }

    /// The attempt's tree, once built.
    pub(crate) fn tree(&self) -> Option<&TreeCtx> {
        match &self.mode {
            Mode::Tree(tree) => Some(tree.as_ref()),
            Mode::Top(_) => None,
        }
    }

    /// The tree of a `Tx` in tree mode.
    fn built_tree(&self) -> &Arc<TreeCtx> {
        match &self.mode {
            Mode::Tree(tree) => tree,
            Mode::Top(_) => unreachable!("a top-level attempt has no tree"),
        }
    }

    /// Builds the attempt's tree at its first submit: the tree takes over
    /// the attempt's ids and snapshot, its write-set (frozen as the root
    /// write-set) and its read log (the root frame's). A no-op once the tree
    /// exists.
    fn promote(&mut self) {
        if let Mode::Top(top) = &mut self.mode {
            let tree = TreeCtx::new(top.id, top.start, std::mem::take(&mut top.writes));
            let mut root = Frame::root(&tree, &self.env);
            root.reads = std::mem::take(&mut top.reads);
            self.frames.push(root);
            self.mode = Mode::Tree(tree);
        }
    }

    #[inline]
    fn current(&self) -> &Frame {
        self.frames.last().expect("a tree-mode Tx holds its entry frame")
    }

    #[inline]
    fn check_poison(&self) {
        if self.tree().is_some_and(TreeCtx::is_poisoned) {
            std::panic::panic_any(PoisonSignal);
        }
    }

    /// Snapshot version of the enclosing top-level transaction.
    pub fn snapshot(&self) -> Version {
        match &self.mode {
            Mode::Top(top) => top.start,
            Mode::Tree(tree) => tree.start_version,
        }
    }

    /// Whether this attempt runs in the sequential fallback mode
    /// (after inter-tree conflicts; futures execute inline).
    pub fn is_fallback(&self) -> bool {
        matches!(&self.mode, Mode::Top(top) if top.fallback)
    }

    /// Aborts the current top-level transaction attempt and re-executes it
    /// from the beginning (all buffered effects are discarded first).
    ///
    /// Useful when a transaction discovers mid-flight that its snapshot is
    /// semantically unusable (e.g. business rules changed under it) and
    /// wants a fresh one. A restart counts toward
    /// [`crate::RtfConfig::fallback_threshold`] like a continuation restart.
    pub fn restart(&mut self) -> ! {
        abandon(self.tree(), PoisonKind::ContinuationRestart)
    }

    /// Cancels the transaction: every buffered effect is discarded and
    /// control returns to [`crate::Rtf::run`] with `Err(TxError::Cancelled)`.
    ///
    /// This is the deliberate-rollback primitive database workloads need
    /// (e.g. TPC-C's 1% of NewOrder transactions that must roll back).
    /// Panics the current thread with an internal payload; inside
    /// [`crate::Rtf::atomic`] (which cannot return a cancellation) it is
    /// reported as a user panic.
    pub fn cancel(&mut self) -> ! {
        std::panic::panic_any(CancelSignal)
    }

    // ---------------------------------------------------------------- reads

    /// Reads a box, returning a shared handle to the value snapshot.
    ///
    /// The handle is a clone of the value's `Arc`: two atomic writes to a
    /// count every reader of the version shares. Use [`Tx::read_with`]
    /// unless the value must outlive the call.
    pub fn read<T: TxData>(&mut self, vbox: &VBox<T>) -> Arc<T> {
        downcast(self.read_cell(vbox.cell()))
    }

    /// Untyped read (data-structure crates build on this).
    pub fn read_cell(&mut self, cell: &Arc<VBoxCell>) -> Val {
        let pin = read_pin();
        self.resolve(cell, &pin).into_owned()
    }

    /// Reads a box and passes `f` a borrow of the value, returning what `f`
    /// returns — a read that writes no shared reference count.
    ///
    /// A committed value is borrowed in place, kept alive by an epoch pin
    /// held for the call; a value written earlier in this transaction is a
    /// clone private to the transaction. The read is recorded exactly as
    /// [`Tx::read`] records it, and `f` may use the handle for further reads
    /// and writes — including of `vbox`, which leaves the borrowed value as
    /// it was read.
    ///
    /// ```
    /// use rtf::{Rtf, VBox};
    ///
    /// let tm = Rtf::new();
    /// let b = VBox::new(vec![1u64, 2, 3]);
    /// let sum = tm.atomic(|tx| tx.read_with(&b, |_, v| v.iter().sum::<u64>()));
    /// assert_eq!(sum, 6);
    /// ```
    #[inline]
    pub fn read_with<T: TxData, R>(
        &mut self,
        vbox: &VBox<T>,
        f: impl FnOnce(&mut Tx, &T) -> R,
    ) -> R {
        let pin = read_pin();
        // Unpacked before `f` runs: keeping the `Cow` alive across the
        // call measured ~40% slower per one-thread B-tree get (EXPERIMENTS
        // P6).
        let owned;
        let value = match self.resolve(vbox.cell(), &pin) {
            Cow::Borrowed(v) => v,
            Cow::Owned(v) => {
                owned = v;
                &owned
            }
        };
        f(self, downcast_ref(value))
    }

    /// One transactional read of `cell`: resolves it (Alg 2), counts its
    /// path and records it for validation. A permanent value comes back
    /// borrowed for as long as `pin` lasts.
    ///
    /// Always inlined, so that in each `read_with` instance the `Cow`
    /// dissolves into the branch that built it; called out of line, the
    /// one-thread B-tree get measured ~40% slower (EXPERIMENTS P6).
    #[inline(always)]
    fn resolve<'g>(&mut self, cell: &'g Arc<VBoxCell>, pin: &'g ReadPin) -> Cow<'g, Val> {
        let (r, reads, epoch) = match &mut self.mode {
            Mode::Top(top) => {
                (resolve_read(&TopRead::new(&top.writes, top.start), cell, pin), &mut top.reads, 0)
            }
            Mode::Tree(tree) => {
                if tree.is_poisoned() {
                    std::panic::panic_any(PoisonSignal);
                }
                let frame = self.frames.last_mut().expect("entry frame");
                let r = resolve_read(&SubRead::new(tree, &frame.node), cell, pin);
                // `fork_count` only moves on the thread running this node,
                // so loading it after the walk is the same as before it.
                (r, &mut frame.reads, frame.node.fork_count.load(Ordering::Relaxed))
            }
        };
        match r.path {
            ReadPath::Fast => self.reads_fast += 1,
            ReadPath::Slow => self.reads_slow += 1,
        }
        // A read-only transaction keeps no read-set, so it builds no record
        // (and never clones the cell's `Arc`).
        if !self.ro_mode {
            reads.push(ReadRecord {
                cell: Arc::clone(cell),
                token: r.token,
                source: r.source,
                epoch,
            });
        }
        r.value
    }

    // --------------------------------------------------------------- writes

    /// Writes a box (the new value replaces the old at commit).
    pub fn write<T: TxData>(&mut self, vbox: &VBox<T>, value: T) {
        self.write_cell(vbox.cell(), erase(value));
    }

    /// Untyped write.
    pub fn write_cell(&mut self, cell: &Arc<VBoxCell>, value: Val) {
        self.check_poison();
        assert!(!self.ro_mode, "write inside a transaction declared read-only (atomic_ro)");
        let tree = match &mut self.mode {
            // Top-level private write-set (paper §III-A); also the
            // `rootWriteSet` of the inter-tree fallback (DESIGN.md D3).
            Mode::Top(top) => return top.writes.put(cell, value),
            Mode::Tree(tree) => tree,
        };
        let frame = self.frames.last_mut().expect("entry frame");
        match sub_write(tree, &frame.node, cell, value) {
            Ok(_) => {
                frame.written.push(Arc::clone(cell));
                frame.wrote = true;
            }
            Err(c) => {
                // ownedByAnotherTree: tear the whole tree down; the atomic
                // runner re-executes (eventually in fallback mode).
                self.env.telemetry.event(Event::Conflict {
                    kind: ConflictKind::InterTree,
                    cell: cell.id(),
                    writer_tree: c.writer_tree,
                });
                tree.poison(PoisonKind::InterTree);
                std::panic::panic_any(PoisonSignal);
            }
        }
    }

    // ------------------------------------------------------------- futures

    /// Submits `body` as a transactional future (paper §II).
    ///
    /// The future is serialized *here* — at its submission point — no
    /// matter when or where it is evaluated (strong ordering semantics).
    /// The calling context continues as the continuation sub-transaction.
    ///
    /// `body` must be re-executable (`Fn`): it re-runs if it misses a write
    /// of an earlier-serialized sub-transaction. If the *continuation*
    /// (the code following this call) fails validation, the whole top-level
    /// transaction restarts; use [`Tx::fork`] to get partial rollback of
    /// the continuation as well.
    ///
    /// In sequential fallback mode ([`crate::RtfConfig::fallback_threshold`])
    /// `body` runs inline, here, before the continuation. A body that
    /// blocks on something a later part of the same transaction provides
    /// outside the TM (a channel, a latch) therefore deadlocks there.
    pub fn submit<A, F>(&mut self, body: F) -> TxFuture<A>
    where
        A: TxData,
        F: Fn(&mut Tx) -> A + Send + 'static,
    {
        self.check_poison();
        self.env.telemetry.count(Counter::FuturesSubmitted, 1);
        if self.is_fallback() {
            // Sequential fallback: run inline at the submission point —
            // literally the sequential execution the semantics are defined
            // against.
            let v = self.timed_inline(body);
            return TxFuture::ready(Arc::new(v));
        }
        self.promote();
        let parent = Arc::clone(&self.current().node);
        let fork_idx = parent.fork_count.load(Ordering::Relaxed);
        let handle = TxFuture::new_pending();
        self.spawn_future_task(&parent, fork_idx, handle.clone(), body);
        parent.fork_count.store(fork_idx + 1, Ordering::Relaxed);
        // The cursor descends into the continuation.
        let frame = Frame::child(
            &parent,
            NodeKind::Continuation { fork_idx },
            self.built_tree(),
            &self.env,
        );
        tx_trace!(
            self.env.telemetry,
            "submit: parent {:?} fork {} cont {:?}",
            parent.id,
            fork_idx,
            frame.node.id
        );
        self.frames.push(frame);
        handle
    }

    /// Structured submit: runs `body` as a transactional future in parallel
    /// with `cont` (the continuation), and returns `cont`'s result once the
    /// whole future/continuation pair has committed.
    ///
    /// Unlike [`Tx::submit`], a continuation that misses its future's write
    /// is re-executed from the start of `cont` — the paper's partial
    /// rollback (§III-A), with the closure as the checkpoint boundary
    /// instead of a first-class continuation.
    ///
    /// In sequential fallback mode `body` runs inline before `cont`, with
    /// the same deadlock hazard as in [`Tx::submit`]: `body` must not block
    /// on anything `cont` provides outside the TM.
    pub fn fork<A, B, F, C>(&mut self, body: F, cont: C) -> B
    where
        A: TxData,
        F: Fn(&mut Tx) -> A + Send + 'static,
        C: Fn(&mut Tx, &TxFuture<A>) -> B,
    {
        self.check_poison();
        self.env.telemetry.count(Counter::FuturesSubmitted, 1);
        if self.is_fallback() {
            let v = self.timed_inline(body);
            let handle = TxFuture::ready(Arc::new(v));
            return cont(self, &handle);
        }
        self.promote();
        let parent = Arc::clone(&self.current().node);
        let fork_idx = parent.fork_count.load(Ordering::Relaxed);
        let handle = TxFuture::new_pending();
        self.spawn_future_task(&parent, fork_idx, handle.clone(), body);
        parent.fork_count.store(fork_idx + 1, Ordering::Relaxed);

        // Continuation scope with partial rollback.
        let depth = self.frames.len();
        loop {
            self.check_poison();
            let kind = NodeKind::Continuation { fork_idx };
            let frame = Frame::child(&parent, kind, self.built_tree(), &self.env);
            self.frames.push(frame);
            let out = cont(self, &handle);
            match self.commit_frames_down_to(depth) {
                Ok(()) => return out,
                Err(SubConflict) => {
                    self.abort_frames_down_to(depth);
                    self.env.telemetry.count(Counter::SubValidationAborts, 1);
                }
            }
        }
    }

    /// Maps `items` through `f` using `parallelism` transactional futures
    /// (plus the calling continuation working on the first chunk), and
    /// returns the results in item order.
    ///
    /// A convenience wrapper over [`Tx::submit`]/[`Tx::eval`] for the most
    /// common future-parallelization pattern in the paper's workloads:
    /// splitting a long loop over domain objects across futures.
    ///
    /// ```
    /// use rtf::{Rtf, VBox};
    /// use std::sync::Arc;
    ///
    /// let tm = Rtf::builder().workers(4).build();
    /// let boxes: Arc<Vec<VBox<u64>>> = Arc::new((0..100).map(VBox::new).collect());
    /// let doubled = tm.atomic(|tx| {
    ///     let boxes = Arc::clone(&boxes);
    ///     tx.map_futures(3, (0..100usize).collect(), move |tx, i| *tx.read(&boxes[*i]) * 2)
    /// });
    /// assert_eq!(doubled[7], 14);
    /// ```
    pub fn map_futures<T, R, F>(&mut self, parallelism: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: TxData + Clone,
        F: Fn(&mut Tx, &T) -> R + Send + Sync + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let f = Arc::new(f);
        let chunk = items.len().div_ceil(parallelism.max(1).min(items.len()));
        // Futures take the leading chunks (serialized at their submission
        // points, i.e. in item order); the continuation — which serializes
        // last — processes the final chunk. This keeps writing closures
        // exactly equivalent to the sequential item-order loop.
        let mut tail = items;
        let mut chunks = Vec::new();
        while tail.len() > chunk {
            let rest = tail.split_off(chunk);
            chunks.push(std::mem::replace(&mut tail, rest));
        }
        let handles: Vec<TxFuture<Vec<R>>> = chunks
            .into_iter()
            .map(|part| {
                let f = Arc::clone(&f);
                self.submit(move |tx| part.iter().map(|it| f(tx, it)).collect::<Vec<R>>())
            })
            .collect();
        let tail_results: Vec<R> = tail.iter().map(|it| f(self, it)).collect();
        let mut out = Vec::new();
        for h in &handles {
            out.extend(self.eval(h).iter().cloned());
        }
        out.extend(tail_results);
        out
    }

    /// Evaluates a transactional future: blocks until its sub-transaction
    /// commits and returns its result. While blocked, the thread helps run
    /// queued futures, so bounded pools cannot deadlock.
    pub fn eval<A: TxData>(&mut self, fut: &TxFuture<A>) -> Arc<A> {
        self.check_poison();
        // Borrow the pool, tree and telemetry: cloning them would write
        // reference counts every thread shares, once per evaluation.
        let (pool, tree) = (&self.env.pool, self.tree());
        if rtf_txfault::fail_point!("core.eval.wait").is_abort() {
            // Injected fault: the evaluation "fails" as a restart of the
            // whole attempt (the strongest recoverable outcome at this
            // boundary).
            abandon(tree, PoisonKind::ContinuationRestart);
        }
        // The evaluating position: the cursor's node, or the root of an
        // attempt that has built no tree.
        let (realm, node, path) = match &self.mode {
            Mode::Top(top) => (top.id.tree, top.id.root, None),
            Mode::Tree(tree) => {
                let node = &self.current().node;
                (tree.tree_id, node.id, Some(&node.path))
            }
        };
        tx_trace!(self.env.telemetry, "eval begin (node {:?})", node);
        let mut watch = StallWatch::new(
            StallKind::FutureWait,
            realm.0,
            node.raw(),
            &self.env.telemetry,
            self.env.stall,
        );
        // Helping is fenced at the current node's serialization position:
        // running a *later*-positioned task inline could suspend our
        // uncommitted frames beneath work that transitively waits on them
        // (see the taskpool module docs on the helping inversion).
        let bound = order_tag(realm, path.unwrap_or(&OrderKey::root()));
        // Publish the blocked-on edge only when the handle is actually
        // unsettled — the common already-committed eval stays a probe.
        let _wait = (!fut.is_settled()).then(|| {
            WaitSiteGuard::enter(&self.env.telemetry, StallKind::FutureWait, realm.0, node.raw(), 0)
        });
        match fut.wait_helping(move || {
            if tree.is_some_and(TreeCtx::is_poisoned) {
                std::panic::panic_any(PoisonSignal);
            }
            if let StallAction::Abort { waited_ms } = watch.tick() {
                abandon(
                    tree,
                    PoisonKind::Stalled { kind: StallKind::FutureWait.name(), waited_ms },
                );
            }
            pool.help_one(Some(&bound))
        }) {
            Ok(v) => v,
            Err(reason) => {
                // Failed handle: if it is our own tree being torn down,
                // converge to the retry loop (the runtime surfaces the
                // latched poison reason); otherwise the caller holds a
                // handle from a superseded or crashed execution of some
                // other transaction — surface the reason directly.
                if tree.is_some_and(TreeCtx::is_poisoned) {
                    std::panic::panic_any(PoisonSignal);
                }
                match reason {
                    crate::error::FutureError::Panicked => {
                        std::panic::panic_any(TxError::FuturePanicked { message: String::new() })
                    }
                    _ => panic!(
                        "evaluated a transactional future whose submitting transaction \
                         execution was aborted and re-executed; re-obtain the handle \
                         from the new execution"
                    ),
                }
            }
        }
    }

    /// Runs a future body inline (sequential fallback), reporting its
    /// lifetime when an observer consumes it.
    fn timed_inline<A>(&mut self, body: impl Fn(&mut Tx) -> A) -> A {
        if !self.env.telemetry.timings() {
            return body(self);
        }
        let t0 = obs_now_ns();
        let v = body(self);
        self.env.telemetry.event(Event::FutureLifetimeNs(obs_now_ns().saturating_sub(t0)));
        v
    }

    fn spawn_future_task<A, F>(
        &self,
        parent: &Arc<Node>,
        fork_idx: u32,
        handle: TxFuture<A>,
        body: F,
    ) where
        A: TxData,
        F: Fn(&mut Tx) -> A + Send + 'static,
    {
        let tree = self.built_tree();
        let stage = FutureStage {
            env: Arc::clone(&self.env),
            tree: Arc::clone(tree),
            parent: Arc::clone(parent),
            fork_idx,
            handle,
            body,
            ro_mode: self.ro_mode,
            attempt: None,
            submitted_ns: if self.env.telemetry.timings() { obs_now_ns() } else { 0 },
        };
        stage.tree.task_started();
        let tag = order_tag(tree.tree_id, &parent.path.child_future(fork_idx));
        self.env.pool.spawn_ordered(tag, Box::new(move || run_future_task(stage)));
    }

    // ----------------------------------------------- sub-commit machinery

    /// Commits and pops frames until only `depth` remain, blocking in
    /// `waitTurn` as needed. Every caller uses it: the `atomic` body's
    /// implicit chain, `fork`'s continuation and a future's pool task.
    pub(crate) fn commit_frames_down_to(&mut self, depth: usize) -> Result<(), SubConflict> {
        let Mode::Tree(tree) = &self.mode else {
            return Ok(()); // no tree, no frames
        };
        while self.frames.len() > depth {
            let frame = self.frames.last_mut().expect("frames non-empty");
            commit_frame(&self.env, tree, frame)?;
            self.frames.pop();
        }
        Ok(())
    }

    /// Marks every write of the remaining frames at `depth` and above (and
    /// of their committed descendants) aborted, and drops those frames.
    pub(crate) fn abort_frames_down_to(&mut self, depth: usize) {
        for frame in self.frames.drain(depth..) {
            let inbox = std::mem::take(&mut *frame.node.inbox.lock());
            frame.node.orec.mark_aborted();
            for orec in inbox.adopted_orecs {
                orec.mark_aborted();
            }
            frame.node.cancel();
        }
    }

    /// The top level's writes for the root commit, and the boxes whose
    /// tentative entries the commit scrubs afterwards (none without a
    /// tree). Called once the implicit chain has committed down to the root.
    pub(crate) fn take_top_writes(&mut self) -> (WriteSet, Vec<Arc<VBoxCell>>) {
        match &mut self.mode {
            Mode::Top(top) => (std::mem::take(&mut top.writes), Vec::new()),
            Mode::Tree(tree) => {
                let touched = tree.take_touched();
                (tree.consolidate(&touched), touched)
            }
        }
    }

    /// The top level's permanent reads, which the root commit validates
    /// against other top-level transactions: in a tree, those its committed
    /// sub-transactions handed to the root, then the root's own. Moved, not
    /// cloned; first read of a cell wins, which `ReadSet::record`
    /// guarantees.
    pub(crate) fn take_top_reads(&mut self) -> ReadSet {
        let mut reads = ReadSet::new();
        let mut record = |(cell, token)| {
            reads.record(ReadRecord { cell, token, source: Source::Permanent, epoch: 0 });
        };
        match &mut self.mode {
            Mode::Top(top) => permanent_reads(&mut top.reads).for_each(record),
            Mode::Tree(tree) => {
                let inbox = std::mem::take(&mut *tree.root.inbox.lock());
                inbox.perm_reads.into_iter().for_each(&mut record);
                let root = self.frames.first_mut().expect("the root frame");
                permanent_reads(&mut root.reads).for_each(record);
            }
        }
        reads
    }
}

/// Abandons the attempt for `kind`. A tree latches the reason and unwinds
/// with [`PoisonSignal`], so every participant converges; an attempt that
/// has built no tree has no other participant and unwinds with the reason.
fn abandon(tree: Option<&TreeCtx>, kind: PoisonKind) -> ! {
    match tree {
        Some(tree) => {
            tree.poison(kind);
            std::panic::panic_any(PoisonSignal)
        }
        None => std::panic::panic_any(kind),
    }
}

/// Moves the permanent reads out of `reads`, as `(cell, token)` pairs: the
/// frame is dropped right after, so moving its cell handles saves a count
/// increment and decrement per read on the line holding the cell's head.
fn permanent_reads(reads: &mut ReadLog) -> impl Iterator<Item = (Arc<VBoxCell>, WriteToken)> + '_ {
    reads.drain().filter(|r| r.source == Source::Permanent).map(|r| (r.cell, r.token))
}

/// The pool-level serialization tag of position `key` within tree `realm`
/// (positions of different trees never constrain each other).
fn order_tag(realm: TreeId, key: &OrderKey) -> OrderTag {
    OrderTag::new(realm.0, key.components())
}

/// Commits one frame's node into its parent: `waitTurn` (Alg 3), read-set
/// validation with the §IV-E read-only skip, ownership propagation and
/// `nClock` bump (Alg 4). `Err` means validation failed and the subtree
/// must re-execute.
///
/// `waitTurn` blocks, helping the pool fenced at the node's position: the
/// helped tasks are serialized before the node, so none of them waits on
/// the frames this thread holds suspended (see the taskpool module docs).
fn commit_frame(env: &TxEnv, tree: &TreeCtx, frame: &mut Frame) -> Result<(), SubConflict> {
    let node = &frame.node;
    let parent = Arc::clone(node.parent.as_ref().expect("sub-transactions have a parent"));
    let spans = env.telemetry.spans();
    // Phase spans share the node/parent coordinates of the frame span so
    // the exporters can nest them under the right tree position.
    let phase_span = |kind: SpanKind, start_ns: u64, end_ns: u64, ok: bool| {
        if spans {
            env.telemetry.span(SpanRec {
                kind,
                tree: tree.tree_id.0,
                node: node.id.raw(),
                parent: parent.id.raw(),
                start_ns,
                end_ns,
                ok,
            });
        }
    };

    // waitTurn: everything serialized before this subtree must have
    // committed.
    if let Some((target, threshold)) = node.wait_turn_target() {
        // Injected fault: one help-or-park round before the turn check,
        // even when the turn has already come.
        let forced_round = rtf_txfault::fail_point!("core.wait_turn").is_abort();
        tx_trace!(
            env.telemetry,
            "waitTurn {:?} {:?} -> target {:?} nclock {} >= {}",
            node.id,
            node.kind,
            target.id,
            target.nclock(),
            threshold
        );
        let t0 = obs_now_ns();
        // Fence helping at the committing node's position, for the same
        // reason as in `Tx::eval`: everything this wait depends on is
        // serialized strictly before `node`.
        let bound = order_tag(tree.tree_id, &node.path);
        let mut watch = StallWatch::new(
            StallKind::WaitTurn,
            tree.tree_id.0,
            node.id.raw(),
            &env.telemetry,
            env.stall,
        );
        // Wait-graph edge: "this thread waits for `target`'s nClock to
        // reach `threshold`" — skipped when the turn is already here.
        let _wait = (target.nclock() < threshold).then(|| {
            WaitSiteGuard::enter(
                &env.telemetry,
                StallKind::WaitTurn,
                tree.tree_id.0,
                target.id.raw(),
                threshold,
            )
        });
        let ok = target.wait_nclock_at_least(
            threshold,
            forced_round,
            || {
                if let StallAction::Abort { waited_ms } = watch.tick() {
                    // Poison instead of unwinding from inside the wait:
                    // the loop's poison check converges every waiter.
                    tree.poison(PoisonKind::Stalled {
                        kind: StallKind::WaitTurn.name(),
                        waited_ms,
                    });
                }
                env.pool.help_one(Some(&bound))
            },
            || tree.is_poisoned(),
        );
        let t1 = obs_now_ns();
        env.telemetry.count(Counter::WaitTurnNs, t1.saturating_sub(t0));
        phase_span(SpanKind::WaitTurn, t0, t1, ok);
        if !ok {
            std::panic::panic_any(PoisonSignal);
        }
        tx_trace!(env.telemetry, "waitTurn {:?} done (ok)", node.id);
    }
    if tree.is_poisoned() {
        std::panic::panic_any(PoisonSignal);
    }
    let inbox = std::mem::take(&mut *node.inbox.lock());
    if rtf_txfault::fail_point!("core.subcommit.validate").is_abort() {
        // Injected validation failure: restore the inbox (the caller aborts
        // the subtree and needs the adopted orecs) and re-execute.
        *node.inbox.lock() = inbox;
        return Err(SubConflict);
    }
    let wrote_any = frame.wrote || !inbox.written_cells.is_empty();

    // §IV-E: a read-only sub-transaction may skip validation iff no
    // read-write sub-transaction of the tree committed since it started.
    let can_skip = env.ro_opt
        && !wrote_any
        && tree.rw_commit_clock.load(Ordering::Acquire) == frame.ro_snapshot;
    tx_trace!(
        env.telemetry,
        "commit {:?} {:?}: wrote_any={} skip={} reads={} rw_clock={} ro_snap={}",
        node.id,
        node.kind,
        wrote_any,
        can_skip,
        frame.reads.len(),
        tree.rw_commit_clock.load(Ordering::Acquire),
        frame.ro_snapshot
    );
    if can_skip {
        env.telemetry.count(Counter::RoValidationSkips, 1);
    } else {
        if !wrote_any {
            env.telemetry.count(Counter::RoValidationTaken, 1);
        }
        let tv = obs_now_ns();
        let outcome = validate_reads_detailed(tree, node, frame.reads.iter());
        let tv_end = obs_now_ns();
        env.telemetry.count(Counter::ValidationNs, tv_end.saturating_sub(tv));
        phase_span(SpanKind::Validation, tv, tv_end, outcome.is_ok());
        if let Err(site) = outcome {
            env.telemetry.event(Event::Conflict {
                kind: ConflictKind::SubValidation,
                cell: site.cell,
                writer_tree: site.writer_tree,
            });
            // Put the inbox back: the caller aborts the whole subtree and
            // needs the adopted orecs to mark them aborted.
            *node.inbox.lock() = inbox;
            return Err(SubConflict);
        }
    }

    if rtf_txfault::fail_point!("core.subcommit.propagate").is_abort() {
        // Injected fault just before propagation: behaves like a validation
        // failure (nothing has been propagated yet, so re-execution is the
        // correct recovery).
        *node.inbox.lock() = inbox;
        return Err(SubConflict);
    }
    // Propagation (Alg 4 lines 7–13). `ver` is what the parent's nclock
    // becomes; ordering (re-own, merge, then bump) ensures that once a
    // waiter wakes on the bump, the propagated state is in place.
    let ver = parent.nclock() + 1;
    let mut orecs = inbox.adopted_orecs;
    if frame.wrote {
        orecs.push(Arc::clone(&node.orec));
    }
    for orec in &orecs {
        orec.propagate_to(parent.id, ver);
    }
    {
        let mut pin = parent.inbox.lock();
        pin.adopted_orecs.extend(orecs);
        pin.perm_reads.extend(inbox.perm_reads);
        pin.perm_reads.extend(permanent_reads(&mut frame.reads));
        pin.written_cells.extend(inbox.written_cells);
        pin.written_cells.append(&mut frame.written);
    }
    if wrote_any {
        // Count every write-carrying sub-commit — own writes *or* adopted
        // descendant writes. The latter matters for the §IV-E skip: a
        // write only becomes visible to later sub-transactions once it has
        // propagated into a common ancestor, and that propagation step is
        // this (possibly itself read-only) node's commit.
        //
        // The clock moves twice, around the `nclock` bump. The first
        // increment precedes it, so a `waitTurn` waiter woken by the bump
        // never takes the skip on a snapshot older than this commit. The
        // second follows it: a frame snapshots the clock before its node
        // snapshots `anc_ver` (`Frame::child`), so a snapshot equal to the
        // final value implies the bump — and the writes — are visible.
        tree.rw_commit_clock.fetch_add(1, Ordering::AcqRel);
        parent.bump_nclock();
        tree.rw_commit_clock.fetch_add(1, Ordering::AcqRel);
    } else {
        parent.bump_nclock();
    }
    env.telemetry.count(Counter::SubCommits, 1);
    if spans && frame.born_ns != 0 {
        let kind = match node.kind {
            NodeKind::Future { .. } => SpanKind::Future,
            NodeKind::Continuation { .. } => SpanKind::Continuation,
            NodeKind::Root => unreachable!("the root never passes commit_frame"),
        };
        phase_span(kind, frame.born_ns, obs_now_ns(), true);
    }
    Ok(())
}

/// The state of one transactional-future position, owned by its pool task.
///
/// The task runs the body, then commits its frames with the same blocking
/// [`Tx::commit_frames_down_to`] the client thread uses: `waitTurn` blocks
/// and helps the pool, fenced at the committing node's position, so it only
/// runs tasks serialized before that node (the taskpool module docs give
/// why that cannot deadlock).
///
/// # Drop guard
///
/// The stage's `Drop` is the panic-safety backstop of the whole future
/// lifecycle. However the task dies — a fault injected before the closure
/// runs (the pool contains the panic and drops the unrun closure, and the
/// stage with it), a panic escaping [`run_future_task`]'s internal catches,
/// or the pool discarding queued closures at shutdown — dropping the stage:
///
/// 1. aborts the frames of an execution that has not committed (its writes
///    stay invisible and its orecs read as aborted);
/// 2. if the handle never settled, poisons the tree as
///    [`PoisonKind::FuturePanicked`] and fails the handle, so `eval`ers and
///    `waitTurn` waiters wake instead of hanging and the runtime surfaces
///    [`TxError::FuturePanicked`];
/// 3. reports `task_finished` exactly once, releasing quiescence waiters.
///
/// Normal completion and teardown paths settle the handle first, making the
/// guard a no-op beyond the task-count decrement.
struct FutureStage<A: TxData, F> {
    env: Arc<TxEnv>,
    tree: Arc<TreeCtx>,
    parent: Arc<Node>,
    fork_idx: u32,
    handle: TxFuture<A>,
    body: F,
    ro_mode: bool,
    /// The current execution, from the start of its body until it commits
    /// or is aborted for re-execution.
    attempt: Option<Tx>,
    /// Submission timestamp; resolution emits [`Event::FutureLifetimeNs`]
    /// (submission-to-completion latency, including every re-execution).
    /// `0`, and no event, when no observer consumes timings.
    submitted_ns: u64,
}

impl<A: TxData, F> FutureStage<A, F> {
    /// Aborts the current execution's frames before a re-execution.
    fn abort_attempt(&mut self) {
        if let Some(mut tx) = self.attempt.take() {
            tx.abort_frames_down_to(0);
        }
        self.env.telemetry.count(Counter::SubValidationAborts, 1);
    }

    /// Settles the handle after an unwind out of the body or the commit.
    fn fail(&self, payload: Box<dyn std::any::Any + Send>) {
        if payload.is::<PoisonSignal>() {
            self.handle.cancel();
        } else {
            // User panic inside the future: poison the tree; the atomic
            // runner resumes the payload on the caller.
            self.env.telemetry.count(Counter::FuturePanics, 1);
            self.tree.poison(PoisonKind::UserPanic(payload));
            self.handle.cancel_panicked();
        }
    }
}

impl<A: TxData, F> Drop for FutureStage<A, F> {
    fn drop(&mut self) {
        // Abort executed-but-uncommitted frames first: their writes must
        // never become visible, whatever killed the task.
        if let Some(mut tx) = self.attempt.take() {
            tx.abort_frames_down_to(0);
        }
        if !self.handle.is_settled() {
            // Abandoned mid-flight: the pool contained a panic and dropped
            // the closure, or the closure was discarded unrun. There is no
            // payload left to resume — surface a structured future-panic
            // and wake every waiter.
            self.env.telemetry.count(Counter::FuturePanics, 1);
            self.tree.poison(PoisonKind::FuturePanicked {
                message: format!(
                    "future task (fork {} under {:?}) died before settling its handle",
                    self.fork_idx, self.parent.id
                ),
            });
            self.handle.cancel_panicked();
        }
        self.tree.task_finished();
    }
}

/// Pool task driving one transactional future position: executes the body,
/// commits its chain (blocking in `waitTurn`), and re-executes on
/// validation conflicts (the future side of partial rollback). Converges on
/// tree teardown. The stage's drop guard reports `task_finished` exactly
/// once and cleans up after any abnormal exit.
fn run_future_task<A, F>(mut stage: FutureStage<A, F>)
where
    A: TxData,
    F: Fn(&mut Tx) -> A + Send + 'static,
{
    loop {
        // One epoch pin per execution: every version-list read and
        // write-back inside the body or the commit pins reentrantly (a
        // thread-local depth bump instead of the era-advertisement fence).
        let _pin = read_pin();
        if stage.tree.is_poisoned() {
            stage.handle.cancel();
            return;
        }
        // Execute (or re-execute) the body in a fresh node attempt.
        let frame = Frame::child(
            &stage.parent,
            NodeKind::Future { fork_idx: stage.fork_idx },
            &stage.tree,
            &stage.env,
        );
        tx_trace!(
            stage.env.telemetry,
            "task run future {:?} parent {:?} fork {}",
            frame.node.id,
            stage.parent.id,
            stage.fork_idx
        );
        let tx = stage.attempt.insert(Tx::new_for_frame(
            Arc::clone(&stage.env),
            Arc::clone(&stage.tree),
            frame,
            stage.ro_mode,
        ));
        let body = &stage.body;
        // The failpoint runs inside the same containment as the body:
        // an injected *panic* here is indistinguishable from a user
        // panic (and carries its site in the surfaced message), while
        // an injected *abort* re-executes the attempt from scratch.
        let value = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if rtf_txfault::fail_point!("core.future.body").is_abort() {
                return None;
            }
            Some(body(tx))
        })) {
            Ok(Some(value)) => value,
            Ok(None) => {
                stage.abort_attempt();
                continue;
            }
            Err(payload) => return stage.fail(payload),
        };
        if rtf_txfault::fail_point!("core.future.commit").is_abort() {
            // Injected commit failure: partial rollback and re-execution.
            stage.abort_attempt();
            continue;
        }
        let tx = stage.attempt.as_mut().expect("attempt set above");
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.commit_frames_down_to(0)))
        {
            Ok(Ok(())) => {
                tx_trace!(stage.env.telemetry, "task complete");
                stage.attempt = None;
                if stage.env.telemetry.timings() {
                    stage.env.telemetry.event(Event::FutureLifetimeNs(
                        obs_now_ns().saturating_sub(stage.submitted_ns),
                    ));
                }
                stage.handle.complete(Arc::new(value));
                return;
            }
            // Partial rollback: abort this subtree, re-execute the body.
            Ok(Err(SubConflict)) => stage.abort_attempt(),
            Err(payload) => return stage.fail(payload),
        }
    }
    // `task_finished` runs in the stage's drop guard — on every path.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rtf;

    /// Reads `b` through [`Tx::read_with`] and then [`Tx::read`]: both
    /// values, and where the first read was served from.
    fn both_reads(tx: &mut Tx, b: &VBox<u64>) -> (u64, u64, Option<Source>) {
        let with = tx.read_with(b, |_, v| *v);
        let reads = match &tx.mode {
            Mode::Top(top) => &top.reads,
            Mode::Tree(_) => &tx.current().reads,
        };
        let source = reads.iter().last().map(|r| r.source);
        (with, *tx.read(b), source)
    }

    #[test]
    fn read_with_returns_what_read_returns_from_every_source() {
        use Source::*;
        let tm = Rtf::builder().workers(1).build();
        let (perm, local, tent, own) =
            (VBox::new(1u64), VBox::new(2u64), VBox::new(3), VBox::new(4));
        let seen = tm.atomic(|tx| {
            let mut seen = vec![both_reads(tx, &perm)];
            tx.write(&local, 20); // pre-fork root write: the root write-set
            seen.push(both_reads(tx, &local));
            let first = tx.submit({
                let (perm, local) = (perm.clone(), local.clone());
                move |tx| [both_reads(tx, &perm), both_reads(tx, &local)]
            });
            // The cursor is now the continuation: its writes are tentative.
            tx.write(&tent, 30);
            seen.push(both_reads(tx, &tent));
            let second = tx.submit({
                let (tent, own) = (tent.clone(), own.clone());
                move |tx| {
                    let ancestor = both_reads(tx, &tent);
                    tx.write(&own, 40);
                    [ancestor, both_reads(tx, &own)]
                }
            });
            seen.extend(tx.eval(&first).iter().chain(tx.eval(&second).iter()));
            seen
        });
        assert_eq!(
            seen,
            [
                (1, 1, Some(Permanent)),
                (20, 20, Some(Local)),
                (30, 30, Some(OwnWrite)),
                (1, 1, Some(Permanent)),
                (20, 20, Some(Local)),
                (30, 30, Some(Tentative)),
                (40, 40, Some(OwnWrite)),
            ]
        );

        // Sequential fallback: futures run inline and every write goes to
        // the root write-set.
        let tm = Rtf::builder().workers(1).fallback_threshold(0).build();
        let seen = tm.atomic(|tx| {
            let f = tx.submit({
                let (perm, local) = (perm.clone(), local.clone());
                move |tx| {
                    tx.write(&local, 21);
                    [both_reads(tx, &perm), both_reads(tx, &local)]
                }
            });
            tx.eval(&f).to_vec()
        });
        assert_eq!(seen, [(1, 1, Some(Permanent)), (21, 21, Some(Local))]);
    }

    #[test]
    fn root_writes_before_the_first_submit_reach_both_sides_and_commit_once() {
        let tm = Rtf::builder().workers(1).build();
        let (x, y) = (VBox::new(0u64), VBox::new(0u64));
        let clock = tm.clock_now();
        let seen = tm.atomic(|tx| {
            tx.write(&x, 5);
            tx.write(&y, 1);
            let f = tx.submit({
                let x = x.clone();
                move |tx| both_reads(tx, &x)
            });
            let cont = both_reads(tx, &x);
            // The continuation's write is tentative and overrides the root
            // write-set's value of `y` at the root commit.
            tx.write(&y, 2);
            (*tx.eval(&f), cont)
        });
        let local = (5, 5, Some(Source::Local));
        assert_eq!(seen, (local, local), "future, continuation");
        assert_eq!((*x.read_committed(), *y.read_committed()), (5, 2));
        assert_eq!(tm.clock_now(), clock + 1, "one commit record");
        assert_eq!(tm.stats().top_commits, 1);
    }

    #[test]
    fn reads_before_the_first_submit_are_validated_at_the_root_commit() {
        use std::sync::atomic::AtomicU32;
        let tm = Rtf::builder().workers(1).build();
        let (x, y) = (VBox::new(1u64), VBox::new(0u64));
        let attempts = AtomicU32::new(0);
        tm.atomic(|tx| {
            let v = *tx.read(&x);
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                // Another transaction overwrites the read before the tree
                // exists.
                let (tm, x) = (tm.clone(), x.clone());
                std::thread::spawn(move || tm.atomic(|tx| tx.write(&x, 5))).join().unwrap();
            }
            let f = tx.submit(|_| ());
            tx.eval(&f);
            tx.write(&y, v + 1);
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "the stale read aborts the first attempt");
        assert_eq!(tm.stats().top_validation_aborts, 1);
        assert_eq!(*y.read_committed(), 6);
    }

    #[test]
    fn a_root_that_never_submits_evaluates_another_transactions_handle() {
        let tm = Rtf::builder().workers(1).build();
        let (x, y) = (VBox::new(1u64), VBox::new(0u64));
        let f = tm.atomic(|tx| {
            tx.write(&x, 10);
            tx.submit({
                let x = x.clone();
                move |tx| *tx.read(&x) * 2
            })
        });
        let (v, built) = tm.atomic(|tx| {
            let v = *tx.eval(&f);
            tx.write(&y, v);
            (v, matches!(tx.mode, Mode::Tree(_)))
        });
        assert_eq!(v, 20);
        assert!(!built, "an eval builds no tree");
        assert_eq!(*y.read_committed(), 20);
    }

    #[test]
    fn restart_and_cancel_work_before_the_first_submit() {
        use std::sync::atomic::AtomicU32;
        // Threshold 2: the re-execution after one restart is still parallel.
        let tm = Rtf::builder().workers(1).fallback_threshold(2).build();
        let x = VBox::new(0u64);
        let attempts = AtomicU32::new(0);
        let got = tm.run(|tx| {
            tx.write(&x, 10);
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                tx.restart();
            }
            assert!(!tx.is_fallback());
            let f = tx.submit({
                let x = x.clone();
                move |tx| *tx.read(&x)
            });
            *tx.eval(&f)
        });
        assert_eq!(got, Ok(10));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(tm.stats().continuation_restarts, 1);
        assert_eq!(*x.read_committed(), 10);

        let cancelled = tm.run(|tx| {
            tx.write(&x, 11);
            tx.cancel()
        });
        assert_eq!(cancelled, Err(TxError::Cancelled));
        assert_eq!(*x.read_committed(), 10);
        assert!(x.cell().tentative_lock().is_empty());
    }

    #[test]
    fn a_fallback_run_returns_what_a_tree_returns_and_builds_no_tree() {
        let run = |tm: Rtf| {
            let (x, y) = (VBox::new(0u64), VBox::new(0u64));
            let built = std::cell::Cell::new(false);
            let out = tm.atomic(|tx| {
                tx.write(&x, 3);
                let f = tx.submit({
                    let (x, y) = (x.clone(), y.clone());
                    move |tx| {
                        let v = *tx.read(&x);
                        tx.write(&y, v * 10);
                        v
                    }
                });
                built.set(matches!(tx.mode, Mode::Tree(_)));
                let cont = *tx.read(&x);
                tx.write(&x, cont + 1);
                (*tx.eval(&f), cont)
            });
            (out, *x.read_committed(), *y.read_committed(), built.get())
        };
        assert_eq!(run(Rtf::builder().workers(1).build()), ((3, 3), 4, 30, true));
        let fallback = Rtf::builder().workers(1).fallback_threshold(0).build();
        assert_eq!(run(fallback), ((3, 3), 4, 30, false));
    }

    /// The count of the value a read observes, sampled inside the read
    /// against a handle held outside it: a borrowed read leaves it alone.
    fn count_during_read(tx: &mut Tx, b: &VBox<u64>, held: &Arc<u64>) -> (usize, usize) {
        let before = Arc::strong_count(held);
        (before, tx.read_with(b, |_, _| Arc::strong_count(held)))
    }

    #[test]
    fn borrowed_reads_leave_the_value_count_unchanged() {
        let tm = Rtf::builder().workers(1).build();
        let b = VBox::new(7u64);
        let held = b.read_committed();
        let base = Arc::strong_count(&held);
        let (before, during) = tm.atomic_ro(|tx| count_during_read(tx, &b, &held));
        assert_eq!(during, before, "read-only attempt");
        let (before, during) = tm.atomic(|tx| {
            let f = tx.submit({
                let (b, held) = (b.clone(), Arc::clone(&held));
                move |tx| count_during_read(tx, &b, &held)
            });
            *tx.eval(&f)
        });
        assert_eq!(during, before, "future of a read-write attempt");
        assert_eq!(Arc::strong_count(&held), base);
    }
}
