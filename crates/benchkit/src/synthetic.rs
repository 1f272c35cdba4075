//! The synthetic array benchmark of Fig 5 (§V).
//!
//! Each transaction performs a configurable number of memory accesses over
//! a large array, with a tunable CPU-bound loop of `iter` register
//! operations between consecutive accesses (the paper's dial between
//! memory-bound and CPU-bound workloads):
//!
//! * **read-only** (Fig 5a): uniform random reads; run with transactional
//!   futures, with *plain* futures (no TM — isolates JTF's semantic
//!   overhead), or without futures;
//! * **contended** (Fig 5b/5c): a variable-length read prefix followed by
//!   10 updates on 20 hot-spot items, selected uniformly with replacement.
//!
//! Parallelization splits the access loop across `j - 1` futures plus the
//! continuation, exactly the structure the paper evaluates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtf::{Rtf, Tx};
use rtf_plainfut::PlainExecutor;
use rtf_tstructs::TArray;
use std::sync::Arc;

/// Workload shape (paper parameters).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Array size (paper: 1M elements).
    pub array_size: usize,
    /// Memory accesses per transaction ("transaction length").
    pub tx_len: usize,
    /// CPU-bound loop iterations between two accesses (`iter`).
    pub iters_between: u32,
    /// Hot-spot set size for the contended variant (paper: 20).
    pub hot_spots: usize,
    /// Updates per contended transaction (paper: 10).
    pub hot_writes: usize,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            array_size: 1 << 20,
            tx_len: 1000,
            iters_between: 100,
            hot_spots: 20,
            hot_writes: 10,
        }
    }
}

/// The populated array plus a non-transactional twin for the plain-future
/// baseline.
pub struct SyntheticArray {
    /// Workload shape.
    pub cfg: SyntheticConfig,
    arr: TArray<u64>,
    twin: Arc<Vec<u64>>,
}

/// The CPU-bound `iter` loop: register arithmetic the optimizer cannot
/// remove.
#[inline]
pub fn cpu_work(iters: u32) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        acc = std::hint::black_box(acc.rotate_left(7) ^ (i as u64).wrapping_mul(0xff51_afd7));
    }
    acc
}

impl SyntheticArray {
    /// Builds the array (element `i` holds `i`).
    pub fn new(cfg: SyntheticConfig) -> SyntheticArray {
        SyntheticArray {
            cfg,
            arr: TArray::new(cfg.array_size, |i| i as u64),
            twin: Arc::new((0..cfg.array_size as u64).collect()),
        }
    }

    /// A view over the same data with a different workload shape (lets a
    /// parameter sweep reuse one expensive array allocation). The array
    /// size cannot change.
    pub fn with_config(&self, cfg: SyntheticConfig) -> SyntheticArray {
        assert_eq!(cfg.array_size, self.arr.len(), "array size is fixed at construction");
        SyntheticArray { cfg, arr: self.arr.clone(), twin: Arc::clone(&self.twin) }
    }

    /// One read-only transaction parallelized across `futures`
    /// transactional futures (0 = no futures). Returns a checksum.
    pub fn run_read_only(&self, tm: &Rtf, futures: usize, seed: u64) -> u64 {
        let cfg = self.cfg;
        let arr = self.arr.clone();
        tm.atomic_ro(move |tx| {
            if futures == 0 {
                return scan_chunk(tx, &arr, cfg, seed, cfg.tx_len);
            }
            let chunk = cfg.tx_len.div_ceil(futures + 1);
            let mut handles = Vec::new();
            for f in 1..=futures {
                let arr = arr.clone();
                let len = chunk.min(cfg.tx_len.saturating_sub(f * chunk));
                handles.push(
                    tx.submit(move |tx| {
                        scan_chunk(tx, &arr, cfg, seed.wrapping_add(f as u64), len)
                    }),
                );
            }
            let mut acc = scan_chunk(tx, &arr, cfg, seed, chunk);
            for h in &handles {
                acc = acc.wrapping_add(*tx.eval(h));
            }
            acc
        })
    }

    /// The plain-future baseline of Fig 5a: identical access/CPU pattern,
    /// no concurrency control.
    pub fn run_read_only_plain(&self, ex: &PlainExecutor, futures: usize, seed: u64) -> u64 {
        let cfg = self.cfg;
        if futures == 0 {
            return plain_chunk(&self.twin, cfg, seed, cfg.tx_len);
        }
        let chunk = cfg.tx_len.div_ceil(futures + 1);
        let mut handles = Vec::new();
        for f in 1..=futures {
            let twin = Arc::clone(&self.twin);
            let len = chunk.min(cfg.tx_len.saturating_sub(f * chunk));
            handles
                .push(ex.submit(move || plain_chunk(&twin, cfg, seed.wrapping_add(f as u64), len)));
        }
        let mut acc = plain_chunk(&self.twin, cfg, seed, chunk);
        for h in &handles {
            acc = acc.wrapping_add(ex.eval(h));
        }
        acc
    }

    /// One contended transaction (Fig 5b/5c): read prefix of `tx_len`
    /// accesses (parallelized), then `hot_writes` updates over the
    /// `hot_spots` first elements, uniformly with replacement.
    pub fn run_contended(&self, tm: &Rtf, futures: usize, seed: u64) -> u64 {
        let cfg = self.cfg;
        let arr = self.arr.clone();
        tm.atomic(move |tx| {
            let acc = if futures == 0 {
                scan_chunk(tx, &arr, cfg, seed, cfg.tx_len)
            } else {
                let chunk = cfg.tx_len.div_ceil(futures + 1);
                let mut handles = Vec::new();
                for f in 1..=futures {
                    let arr = arr.clone();
                    let len = chunk.min(cfg.tx_len.saturating_sub(f * chunk));
                    handles.push(tx.submit(move |tx| {
                        scan_chunk(tx, &arr, cfg, seed.wrapping_add(f as u64), len)
                    }));
                }
                let mut acc = scan_chunk(tx, &arr, cfg, seed, chunk);
                for h in &handles {
                    acc = acc.wrapping_add(*tx.eval(h));
                }
                acc
            };
            // Hot-spot updates in the continuation (after the joins).
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1407_5EED);
            for _ in 0..cfg.hot_writes {
                let i = rng.gen_range(0..cfg.hot_spots);
                let v = *arr.get(tx, i);
                arr.set(tx, i, v.wrapping_add(acc | 1));
            }
            acc
        })
    }

    /// Sum of the hot-spot elements (post-run verification).
    pub fn hot_sum(&self) -> u64 {
        (0..self.cfg.hot_spots)
            .map(|i| *self.arr.slot(i).read_committed())
            .fold(0, u64::wrapping_add)
    }
}

/// `len` random reads with `iters_between` CPU work between them.
fn scan_chunk(tx: &mut Tx, arr: &TArray<u64>, cfg: SyntheticConfig, seed: u64, len: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0u64;
    for _ in 0..len {
        let idx = rng.gen_range(0..cfg.array_size);
        acc = acc.wrapping_add(*arr.get(tx, idx));
        acc = acc.wrapping_add(cpu_work(cfg.iters_between));
    }
    acc
}

/// The same loop without transactions.
fn plain_chunk(twin: &[u64], cfg: SyntheticConfig, seed: u64, len: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0u64;
    for _ in 0..len {
        let idx = rng.gen_range(0..cfg.array_size);
        acc = acc.wrapping_add(std::hint::black_box(twin[idx]));
        acc = acc.wrapping_add(cpu_work(cfg.iters_between));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            array_size: 1024,
            tx_len: 64,
            iters_between: 4,
            hot_spots: 8,
            hot_writes: 4,
        }
    }

    #[test]
    fn read_only_checksum_deterministic_per_shape() {
        // Each chunk draws from its own RNG stream, so the checksum depends
        // on the futures count — but for a fixed (seed, futures) shape it
        // must be exactly reproducible.
        let tm = Rtf::builder().workers(2).build();
        let s = SyntheticArray::new(small());
        assert_eq!(s.run_read_only(&tm, 0, 42), s.run_read_only(&tm, 0, 42));
        assert_eq!(s.run_read_only(&tm, 3, 42), s.run_read_only(&tm, 3, 42));
        assert_ne!(s.run_read_only(&tm, 0, 42), s.run_read_only(&tm, 0, 43));
    }

    #[test]
    fn plain_baseline_matches_transactional_checksum() {
        let tm = Rtf::builder().workers(2).build();
        let ex = PlainExecutor::new(2);
        let s = SyntheticArray::new(small());
        assert_eq!(s.run_read_only(&tm, 2, 7), s.run_read_only_plain(&ex, 2, 7));
    }

    #[test]
    fn contended_run_commits_and_mutates_hot_spots() {
        let tm = Rtf::builder().workers(2).build();
        let s = SyntheticArray::new(small());
        let before = s.hot_sum();
        for i in 0..10 {
            s.run_contended(&tm, 2, i);
        }
        assert_ne!(before, s.hot_sum());
        assert_eq!(tm.stats().commits(), 10);
    }

    #[test]
    fn cpu_work_scales_and_is_pure() {
        assert_eq!(cpu_work(10), cpu_work(10));
        assert_ne!(cpu_work(10), cpu_work(11));
    }
}
