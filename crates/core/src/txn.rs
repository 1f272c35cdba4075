//! Tests of the flat top-level transaction (paper §III-A): snapshot reads,
//! the private write-set, commit-time validation and the read-only fast
//! path, with no futures submitted — the paper's no-future baseline.

mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    use crate::{Rtf, VBox};

    fn tm() -> Rtf {
        Rtf::builder().workers(0).build()
    }

    #[test]
    fn atomic_read_write_roundtrip() {
        let tm = tm();
        let b = VBox::new(1u64);
        let out = tm.atomic(|tx| {
            let v = *tx.read(&b);
            tx.write(&b, v + 10);
            *tx.read(&b)
        });
        assert_eq!(out, 11);
        assert_eq!(*b.read_committed(), 11);
    }

    #[test]
    fn snapshot_isolation_within_txn() {
        let tm = tm();
        let a = VBox::new(5u64);
        let b = VBox::new(7u64);
        tm.atomic(|tx| {
            let x = *tx.read(&a);
            let y = *tx.read(&b);
            assert_eq!(x + y, 12);
        });
    }

    #[test]
    fn read_your_own_writes() {
        let tm = tm();
        let b = VBox::new(0u64);
        tm.atomic(|tx| {
            tx.write(&b, 42);
            assert_eq!(*tx.read(&b), 42);
            tx.write(&b, 43);
            assert_eq!(*tx.read(&b), 43);
        });
        assert_eq!(*b.read_committed(), 43);
    }

    #[test]
    fn conflicting_increments_retry_to_correctness() {
        let tm = tm();
        let b = VBox::new(0u64);
        let threads = 4;
        let per = 250;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (tm, b) = (tm.clone(), b.clone());
                std::thread::spawn(move || {
                    for _ in 0..per {
                        tm.atomic(|tx| {
                            let v = *tx.read(&b);
                            tx.write(&b, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*b.read_committed(), (threads * per) as u64);
        assert_eq!(tm.stats().top_commits, (threads * per) as u64);
    }

    #[test]
    fn read_only_fast_path_counts() {
        let tm = tm();
        let b = VBox::new(3u64);
        let v = tm.atomic(|tx| *tx.read(&b));
        assert_eq!(v, 3);
        let snap = tm.stats();
        assert_eq!(snap.top_ro_commits, 1);
        assert_eq!(snap.top_commits, 0);
    }

    #[test]
    fn atomic_ro_reads_consistent_snapshot() {
        let tm = tm();
        let b = VBox::new(3u64);
        let v = tm.atomic_ro(|tx| *tx.read(&b));
        assert_eq!(v, 3);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn atomic_ro_rejects_writes() {
        let tm = tm();
        let b = VBox::new(3u64);
        tm.atomic_ro(|tx| tx.write(&b, 4));
    }

    #[test]
    fn manual_begin_commit() {
        // The first read-write commit takes version 1 and installs its
        // write.
        let tm = tm();
        let b = VBox::new(0u64);
        tm.atomic(|tx| tx.write(&b, 17));
        assert_eq!(tm.clock_now(), 1);
        assert_eq!(*b.read_committed(), 17);
    }

    #[test]
    fn manual_conflict_reported() {
        // A commit whose read was displaced by a concurrent commit fails
        // validation, is counted, and re-executes on the new value.
        let tm = tm();
        let b = VBox::new(0u64);
        let attempts = AtomicU32::new(0);
        tm.atomic(|tx| {
            let v = *tx.read(&b);
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                std::thread::scope(|s| {
                    s.spawn(|| tm.atomic(|tx| tx.write(&b, 2)));
                });
            }
            tx.write(&b, v + 1);
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(tm.stats().top_validation_aborts, 1);
        assert_eq!(*b.read_committed(), 3);
    }

    #[test]
    fn writes_invisible_until_commit() {
        let tm = tm();
        let b = VBox::new(0u64);
        tm.atomic(|tx| {
            tx.write(&b, 99);
            // A concurrent transaction must not see the buffered write.
            let seen = std::thread::scope(|s| s.spawn(|| tm.atomic(|tx| *tx.read(&b))).join());
            assert_eq!(seen.unwrap(), 0);
        });
        assert_eq!(*b.read_committed(), 99);
    }

    #[test]
    fn write_set_reads_are_not_validated() {
        // A transaction that only re-reads its own write survives a
        // concurrent commit to the same box (the read never touched the
        // permanent state).
        let tm = tm();
        let b = VBox::new(0u64);
        let attempts = AtomicU32::new(0);
        tm.atomic(|tx| {
            attempts.fetch_add(1, Ordering::Relaxed);
            tx.write(&b, 1);
            assert_eq!(*tx.read(&b), 1);
            std::thread::scope(|s| {
                s.spawn(|| tm.atomic(|tx| tx.write(&b, 5)));
            });
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 1, "blind write must win");
        assert_eq!(*b.read_committed(), 1);
    }
}
