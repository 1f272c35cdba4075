//! Loom-shim stress for the sharded active-transaction registry: the
//! GC-watermark safety of its per-shard cached minimum under churn.
//!
//! Compiled only under `--cfg loom` so the tier-1 `cargo test` run is
//! unaffected:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p rtf-integration --test loom_registry --release
//! ```
//!
//! The vendored `loom` is an offline shim (randomized stress scheduling over
//! the loom API, not exhaustive DPOR); swapping in the real crate requires
//! no changes here. Each `loom::model` closure is one small, fixed scenario
//! with full-state assertions.

#![cfg(loom)]

use loom::thread;
use std::sync::Arc;

use rtf_txbase::ActiveTxnRegistry;

/// Sharded-registry watermark safety: while any transaction is registered
/// at version `v`, no `min_active` result may exceed `v` — the invariant GC
/// trimming rides on. Churn from several threads exercises the per-shard
/// cached-minimum recompute.
#[test]
fn sharded_registry_watermark_never_exceeds_live_registration() {
    loom::model(|| {
        let reg = Arc::new(ActiveTxnRegistry::new());
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    for i in 0..3u64 {
                        let v = t * 100 + i + 1;
                        let r = reg.register(v);
                        // While registered, the watermark is pinned at or
                        // below our version no matter what others do.
                        assert!(reg.min_active(u64::MAX - 1) <= v, "watermark overtook {v}");
                        thread::yield_now();
                        assert!(reg.min_active(u64::MAX - 1) <= v, "watermark overtook {v}");
                        drop(r);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Quiescent: the fallback passes through and the count is zero.
        assert_eq!(reg.min_active(42), 42);
        assert_eq!(reg.active_count(), 0);
    });
}
