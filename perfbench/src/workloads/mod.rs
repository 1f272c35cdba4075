//! The four workloads and what each measured phase hands back.

use std::time::{Duration, Instant};

use rtf::{Rtf, StatSnapshot};

use crate::stats::{Recorder, SLICE};
use crate::trace::{self, Name, Span, Tracer};

pub mod kv;
pub mod tpcc;
pub mod vacation;
pub mod wire;

/// Per-transaction retry budget of the three engine workloads: an op that
/// has not committed after this long ends in `TxError::RetryExhausted` and
/// counts as failed.
pub const RETRY_DEADLINE: Duration = Duration::from_millis(50);

/// What one measured phase observed.
pub struct Phase {
    /// Per-slice op outcomes and latencies.
    pub rec: Recorder,
    /// Process CPU (user + system) spent in each slice.
    pub cpu: Vec<Duration>,
    /// Wall-clock length of the phase.
    pub elapsed: Duration,
    /// Runtime counters accumulated during the phase.
    pub stats: StatSnapshot,
    /// Spans of a traced phase, merged across the benchmark's threads.
    pub trace: Option<Tracer>,
    /// Per-layer figures only one workload can measure.
    pub extra: Vec<(&'static str, f64)>,
}

impl Phase {
    /// Wall-clock length of slice `i` (the last one absorbs the overrun).
    pub fn slice_secs(&self, i: usize) -> f64 {
        let n = self.rec.tallies.len();
        if i + 1 < n {
            SLICE.as_secs_f64()
        } else {
            self.elapsed.as_secs_f64() - (n - 1) as f64 * SLICE.as_secs_f64()
        }
    }
}

/// A workload: seeded inputs, a timed set-up, repeatable measured phases,
/// and the output checks that decide whether the run was correct.
pub trait Workload: Sized {
    /// Generated inputs; built once per run, outside set-up timing.
    type Input;

    /// Generates the inputs for `seed`.
    fn input(seed: u64) -> Self::Input;

    /// Builds the runtime and loads the data (timed as `setup_s`).
    fn setup(input: &Self::Input) -> Self;

    /// Runs the workload for `dur`; with `traced`, records spans.
    fn run(&mut self, input: &Self::Input, dur: Duration, traced: bool) -> Phase;

    /// Runs the output checks over everything the instance executed, then
    /// tears it down.
    fn finish(self) -> Result<(), String>;

    /// Tears down an instance built only to time set-up.
    fn discard(self) {}
}

/// What a phase body hands back: its recorder, its spans, and any
/// workload-specific per-layer figures.
pub type Observed = (Recorder, Option<Tracer>, Vec<(&'static str, f64)>);

/// Measures a phase of length `dur` around `body`, which receives an empty
/// recorder for the phase (clone it per thread and merge). A sampler
/// thread reads the process CPU clock at every slice boundary.
pub fn measure(tm: &Rtf, dur: Duration, body: impl FnOnce(Recorder) -> Observed) -> Phase {
    let stats0 = tm.stats();
    let start = Instant::now();
    let rec = Recorder::new(start, dur);
    let slices = rec.tallies.len();
    let (marks, (rec, trace, extra), end_cpu, elapsed) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut marks = vec![crate::sys::process_cpu()];
            for i in 1..slices {
                let boundary = start + SLICE * i as u32;
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                marks.push(crate::sys::process_cpu());
            }
            marks
        });
        let observed = body(rec);
        let (end_cpu, elapsed) = (crate::sys::process_cpu(), start.elapsed());
        (sampler.join().expect("cpu sampler panicked"), observed, end_cpu, elapsed)
    });
    let mut cpu: Vec<Duration> = marks.windows(2).map(|w| w[1].saturating_sub(w[0])).collect();
    cpu.push(end_cpu.saturating_sub(*marks.last().expect("first mark")));
    let stats = tm.stats().since(&stats0);
    Phase { rec, cpu, elapsed, stats, trace, extra }
}

/// Opens a span only in the traced instantiation of a loop, so untraced
/// phases run the same code with no tracing calls at all.
#[inline(always)]
pub fn span<const TRACED: bool>(name: Name) -> Option<Span> {
    TRACED.then(|| trace::span(name))
}

/// `splitmix64`: the seeded stream every generated input draws from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for sub-stream `stream` of the run seed `seed`.
pub fn substream(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// Closed-loop end-of-phase check, read every `every` ops (`Instant::now`
/// costs a measurable share of a microsecond-scale op).
pub struct Until {
    end: Instant,
    every: u32,
    n: u32,
}

impl Until {
    pub fn new(dur: Duration, every: u32) -> Until {
        Until { end: Instant::now() + dur, every, n: 0 }
    }

    /// Whether the phase should keep issuing ops.
    pub fn more(&mut self) -> bool {
        self.n = self.n.wrapping_add(1);
        !self.n.is_multiple_of(self.every) || Instant::now() < self.end
    }
}
