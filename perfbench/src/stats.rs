//! Fixed-size latency histogram and per-phase op accounting.
//!
//! Latencies go into a log-linear histogram instead of a raw sample vector,
//! so a run's memory does not grow with its op count and `peak_rss_mb`
//! measures the program, not the benchmark's sample buffers.

use std::time::Duration;

/// Values below this are kept exactly (one bucket per value).
const LINEAR: u64 = 256;
/// Sub-buckets per power of two above `LINEAR` (7 mantissa bits).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above `LINEAR`: exponents 8..=63.
const OCTAVES: usize = 64 - 8;
const BUCKETS: usize = LINEAR as usize + OCTAVES * SUB;

/// Log-linear histogram of `u64` values (nanoseconds, by convention).
///
/// Values under 256 are exact; above, each power of two is split into 128
/// equal buckets and a percentile reports its bucket's midpoint, so the
/// relative error of any reported value is at most 1/256 (0.4%).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    count: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS].into_boxed_slice(), count: 0, max: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= 8
    let mantissa = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    LINEAR as usize + (exp as usize - 8) * SUB + mantissa
}

/// Midpoint of bucket `b`'s value range.
fn value_of(b: usize) -> u64 {
    if b < LINEAR as usize {
        return b as u64;
    }
    let exp = (b - LINEAR as usize) / SUB + 8;
    let mantissa = ((b - LINEAR as usize) % SUB) as u64;
    let width = 1u64 << (exp as u32 - SUB_BITS);
    let lo = (1u64 << exp) + mantissa * width;
    lo + width / 2
}

impl Hist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `q` in `[0, 1]` (0 when empty). The top rank
    /// reads the exact maximum; no value reads above it.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return value_of(b).min(self.max);
            }
        }
        self.max
    }
}

/// Outcome accounting of one measured phase: every attempted op either
/// succeeds (its latency is recorded) or fails (counted, never timed).
#[derive(Clone, Default)]
pub struct Tally {
    /// Latency of successful ops, nanoseconds.
    pub ok_latency: Hist,
    /// Ops that ended in an error, a non-OK reply, or no reply.
    pub failed: u64,
}

impl Tally {
    /// Records a successful op.
    pub fn ok(&mut self, latency: Duration) {
        self.ok_latency.record(latency.as_nanos() as u64);
    }

    /// Records a failed op.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Successful ops.
    pub fn succeeded(&self) -> u64 {
        self.ok_latency.count()
    }

    /// Ops attempted (successes plus failures).
    pub fn attempted(&self) -> u64 {
        self.succeeded() + self.failed
    }

    /// Adds another thread's tally.
    pub fn merge(&mut self, other: &Tally) {
        self.ok_latency.merge(&other.ok_latency);
        self.failed += other.failed;
    }
}

/// Length of one slice of a measured phase.
pub const SLICE: Duration = Duration::from_secs(1);

/// Per-slice accounting of a measured phase. The phase is cut into
/// one-second slices by completion time, so each figure can be reported as
/// the median over slices: a burst of host noise then moves one slice, not
/// the run's result.
#[derive(Clone)]
pub struct Recorder {
    start: std::time::Instant,
    /// Tally of every op that completed in each slice.
    pub tallies: Vec<Tally>,
    /// Latency of the workload's longest transaction type, per slice.
    pub longs: Vec<Hist>,
}

impl Recorder {
    /// A recorder for a phase of length `dur` starting at `start`.
    pub fn new(start: std::time::Instant, dur: Duration) -> Recorder {
        let n = ((dur.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(1);
        Recorder { start, tallies: vec![Tally::default(); n], longs: vec![Hist::default(); n] }
    }

    /// When the phase started.
    pub fn start(&self) -> std::time::Instant {
        self.start
    }

    /// Slice of an op completing at `end`; overruns land in the last one.
    pub fn slice_of(&self, end: std::time::Instant) -> usize {
        let i = (end.saturating_duration_since(self.start).as_secs_f64() / SLICE.as_secs_f64())
            as usize;
        i.min(self.tallies.len() - 1)
    }

    /// Records a successful op; `long` marks the longest transaction type.
    pub fn ok(&mut self, end: std::time::Instant, latency: Duration, long: bool) {
        let i = self.slice_of(end);
        self.tallies[i].ok(latency);
        if long {
            self.longs[i].record(latency.as_nanos() as u64);
        }
    }

    /// Records a failed op.
    pub fn fail(&mut self, end: std::time::Instant) {
        let i = self.slice_of(end);
        self.tallies[i].fail();
    }

    /// Adds another thread's recorder of the same phase, slice by slice.
    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.tallies.iter_mut().zip(&other.tallies) {
            a.merge(b);
        }
        for (a, b) in self.longs.iter_mut().zip(&other.longs) {
            a.merge(b);
        }
    }

    /// The whole phase as one tally.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.tallies {
            t.merge(s);
        }
        t
    }
}

/// Median of a non-empty set of values.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values spread over many octaves.
    fn values(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let octave = (s >> 58) as u32; // 0..64 → up to 2^40
                (s >> 20) % (1u64 << octave.min(40)).max(2)
            })
            .collect()
    }

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_are_within_one_percent_of_exact() {
        let mut v = values(50_000, 7);
        let mut h = Hist::default();
        for &x in &v {
            h.record(x);
        }
        v.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.percentile(q) as f64, exact(&v, q) as f64);
            assert!((got - want).abs() <= want * 0.01, "q={q}: got {got}, exact {want}");
        }
        assert_eq!(h.percentile(1.0), *v.last().unwrap());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::default();
        for x in [3u64, 1, 2, 255, 0] {
            h.record(x);
        }
        assert_eq!(h.percentile(0.2), 0);
        assert_eq!(h.percentile(0.5), 2);
        assert_eq!(h.percentile(1.0), 255);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn every_bucket_midpoint_maps_back_to_its_bucket() {
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(value_of(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (a, b) = (values(10_000, 1), values(7_000, 2));
        let (mut ha, mut hb, mut hu) = (Hist::default(), Hist::default(), Hist::default());
        for &x in &a {
            ha.record(x);
            hu.record(x);
        }
        for &x in &b {
            hb.record(x);
            hu.record(x);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hu.count());
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(ha.percentile(q), hu.percentile(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Hist::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn failures_count_as_attempted_but_are_never_timed() {
        let mut t = Tally::default();
        t.ok(Duration::from_micros(5));
        t.fail();
        t.fail();
        t.ok(Duration::from_micros(7));
        assert_eq!((t.succeeded(), t.failed, t.attempted()), (2, 2, 4));
        assert_eq!(t.ok_latency.percentile(1.0), 7_000);
        assert_eq!(t.ok_latency.percentile(0.5), 5_000 + 8, "midpoint of 5000's bucket");

        let mut other = Tally::default();
        other.fail();
        other.ok(Duration::from_micros(1));
        t.merge(&other);
        assert_eq!((t.succeeded(), t.failed, t.attempted()), (3, 3, 6));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn recorder_slices_by_completion_time_and_merges() {
        let t0 = std::time::Instant::now();
        let mut a = Recorder::new(t0, Duration::from_millis(2600));
        assert_eq!(a.tallies.len(), 3);
        let us = Duration::from_micros;
        a.ok(t0 + Duration::from_millis(10), us(4), false);
        a.ok(t0 + Duration::from_millis(1500), us(9), true);
        a.fail(t0 + Duration::from_millis(1600));
        // Overrun past the last slice lands in it.
        a.ok(t0 + Duration::from_secs(7), us(2), false);
        let per_slice: Vec<(u64, u64)> =
            a.tallies.iter().map(|t| (t.succeeded(), t.failed)).collect();
        assert_eq!(per_slice, vec![(1, 0), (1, 1), (1, 0)]);
        assert_eq!(a.longs[1].count(), 1);

        let mut b = Recorder::new(t0, Duration::from_millis(2600));
        b.fail(t0);
        a.merge(&b);
        let total = a.total();
        assert_eq!((total.succeeded(), total.failed, total.attempted()), (3, 2, 5));
    }
}
