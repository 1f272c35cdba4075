//! Model-check-style tests for the lock-free `VBoxCell` permanent list:
//! CAS prepend vs. concurrent snapshot readers vs. GC trim vs. lagging
//! out-of-order write-back.
//!
//! Compiled only under `--cfg loom` so the tier-1 `cargo test` run is
//! unaffected:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p rtf-txengine --test loom_cell --release
//! ```
//!
//! The vendored `loom` is an offline shim (randomized stress scheduling over
//! the loom API, not exhaustive DPOR — see `vendor/loom/src/lib.rs` for the
//! fidelity caveats); swapping in the real crate requires no changes here.
//! Each `loom::model` closure is one small, fixed interleaving scenario with
//! full-state assertions, exactly the shape real loom wants.

#![cfg(loom)]

use loom::thread;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtf_txbase::new_write_token;
use rtf_txengine::{downcast, erase, read_pin, ReadPath, VBox, VBoxCell};

/// The invariant every scenario checks: a read at snapshot `s` returns the
/// value committed by the newest version at or below `s` (values mirror
/// version numbers in these tests).
fn assert_snapshot_read(cell: &Arc<VBoxCell>, snapshot: u64) {
    let (val, _) = cell.read_at(snapshot);
    let got = *downcast::<u64>(val);
    assert!(got <= snapshot, "read at {snapshot} returned future version {got}");
}

/// CAS prepends race a snapshot reader: the reader must always observe the
/// exact newest version at or below its (published) snapshot.
#[test]
fn prepend_vs_reader() {
    loom::model(|| {
        let b = VBox::new(0u64);
        let cell = Arc::clone(b.cell());
        let published = Arc::new(AtomicU64::new(0));

        let writer = {
            let cell = Arc::clone(&cell);
            let published = Arc::clone(&published);
            thread::spawn(move || {
                for v in 1..=6u64 {
                    cell.apply_commit(v, erase(v), new_write_token(), 0);
                    published.store(v, Ordering::Release);
                    thread::yield_now();
                }
            })
        };
        let reader = {
            let cell = Arc::clone(&cell);
            let published = Arc::clone(&published);
            thread::spawn(move || {
                for _ in 0..12 {
                    let snap = published.load(Ordering::Acquire);
                    let (val, _) = cell.read_at(snap);
                    // No trimming here: the newest version <= snap is snap.
                    assert_eq!(*downcast::<u64>(val), snap);
                    thread::yield_now();
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(cell.permanent_len(), 7);
        let pin = read_pin();
        assert_eq!(cell.read_ref_at(6, &pin).2, ReadPath::Fast);
        assert_eq!(cell.read_ref_at(3, &pin).2, ReadPath::Slow);
    });
}

/// Prepends with an aggressively advancing GC watermark race a reader whose
/// snapshot is covered by that watermark: the trim must never detach a
/// version the reader can still need, and the reader must never observe a
/// torn or future value.
#[test]
fn prepend_vs_reader_vs_trim() {
    loom::model(|| {
        let b = VBox::new(0u64);
        let cell = Arc::clone(b.cell());
        let published = Arc::new(AtomicU64::new(0));
        // The reader's current snapshot, announced before it reads (the
        // role the active-transaction registry plays in the engine).
        let active = Arc::new(AtomicU64::new(0));

        let writer = {
            let cell = Arc::clone(&cell);
            let published = Arc::clone(&published);
            let active = Arc::clone(&active);
            thread::spawn(move || {
                for v in 1..=8u64 {
                    // Watermark trails the published version by 2, but never
                    // passes the reader's announced snapshot: a reader that
                    // loaded an old snapshot and then stalled still needs it.
                    let watermark = published
                        .load(Ordering::Relaxed)
                        .saturating_sub(2)
                        .min(active.load(Ordering::Acquire));
                    cell.apply_commit(v, erase(v), new_write_token(), watermark);
                    published.store(v, Ordering::Release);
                    thread::yield_now();
                }
            })
        };
        let reader = {
            let cell = Arc::clone(&cell);
            let published = Arc::clone(&published);
            let active = Arc::clone(&active);
            thread::spawn(move || {
                for _ in 0..16 {
                    let snap = published.load(Ordering::Acquire);
                    // Every announced value is <= the current snapshot, so a
                    // writer that loads a stale one trims less, never more.
                    active.store(snap, Ordering::Release);
                    let (val, _) = cell.read_at(snap);
                    assert_eq!(*downcast::<u64>(val), snap);
                    thread::yield_now();
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Everything below the final keep node is eventually trimmed.
        let final_trim = cell.apply_commit(9, erase(9u64), new_write_token(), 9);
        let _ = final_trim;
        assert!(cell.permanent_len() <= 2, "list not trimmed: {:?}", cell);
        assert_snapshot_read(&cell, 9);
    });
}

/// A lagging helper splices an old version mid-list while a newer prepend
/// and a trim run concurrently (the write-back race of the helping commit
/// chain): the list stays sorted, idempotent, and every live snapshot
/// remains readable.
#[test]
fn lagging_splice_vs_prepend_vs_trim() {
    loom::model(|| {
        let b = VBox::new(0u64);
        let cell = Arc::clone(b.cell());
        cell.apply_commit(2, erase(2u64), new_write_token(), 0);

        // Helper A lags with version 3; helper B races ahead with 4 and 5
        // (trimming below 2 at the end); both replay version 3 — the
        // idempotence the helping write-back relies on.
        let a = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                thread::yield_now();
                cell.apply_commit(3, erase(3u64), new_write_token(), 0);
            })
        };
        let bt = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.apply_commit(4, erase(4u64), new_write_token(), 0);
                thread::yield_now();
                cell.apply_commit(3, erase(3u64), new_write_token(), 0);
                cell.apply_commit(5, erase(5u64), new_write_token(), 2);
            })
        };
        let reader = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for _ in 0..8 {
                    // Snapshot 2 is protected by every watermark used above.
                    let (val, _) = cell.read_at(2);
                    assert_eq!(*downcast::<u64>(val), 2);
                    thread::yield_now();
                }
            })
        };
        a.join().unwrap();
        bt.join().unwrap();
        reader.join().unwrap();

        // Quiescent state: exactly one node per version, descending.
        for snap in 2..=5u64 {
            let (val, _) = cell.read_at(snap);
            assert_eq!(*downcast::<u64>(val), snap);
        }
        // Versions 2–5 appear once each. The only other node allowed is
        // version 0: B's trim at watermark 2 is skipped while A's lagging
        // splice holds the structural flag (trims are optional).
        let versions = cell.versions();
        assert!(
            versions == [5, 4, 3, 2] || versions == [5, 4, 3, 2, 0],
            "duplicate or unexpected nodes: {cell:?}"
        );
        // The next commit at the same watermark trims what was skipped.
        let trimmed = cell.apply_commit(6, erase(6u64), new_write_token(), 2);
        assert_eq!(trimmed, versions.len() - 4, "{cell:?}");
        assert_eq!(cell.versions(), [6, 5, 4, 3, 2], "{cell:?}");
    });
}

/// Two helpers replay the same commit record concurrently (same version,
/// token, value): exactly one node is installed.
#[test]
fn racing_helpers_are_idempotent() {
    loom::model(|| {
        let b = VBox::new(0u64);
        let cell = Arc::clone(b.cell());
        let token = new_write_token();
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    thread::yield_now();
                    cell.apply_commit(1, erase(1u64), token, 0);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(cell.permanent_len(), 2, "double-applied version: {:?}", cell);
        assert_eq!(cell.latest_token(), token);
        assert_snapshot_read(&cell, 1);
    });
}
