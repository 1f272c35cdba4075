//! Retry pacing of the top-level re-execution loop.
//!
//! `Rtf::run_attempts` follows the loop shape run, fail, back off, run
//! again. A [`RetryDriver`] counts the failed attempts, enforces the
//! [`RetryBudget`] and pauses between attempts with one of two [`Backoff`]
//! arms: the default ladder (brief spin, then yields, then escalating
//! sleeps), tuned for commit-time conflicts that resolve within
//! microseconds but must not melt the scheduler when they don't, or the
//! serving side's [`SeededBackoff`].

use std::time::{Duration, Instant};

/// How a [`RetryDriver`] pauses before attempt number `attempt` (1-based:
/// the first *retry* is attempt 1).
#[derive(Clone, Copy, Debug, Default)]
pub enum Backoff {
    /// The default ladder: spin briefly, then yield, then sleep in
    /// escalating (capped) slices.
    #[default]
    Ladder,
    /// Capped exponential sleeps with deterministic jitter.
    Seeded(SeededBackoff),
}

impl Backoff {
    /// Blocks the calling thread appropriately for `attempt`. Returns the
    /// nanoseconds slept (scheduler-visible pauses only — spins and yields
    /// report 0), so the driver's caller can account backoff time without
    /// re-reading the clock.
    fn pause(&self, attempt: u32) -> u64 {
        match self {
            Backoff::Ladder => match attempt {
                0 => 0,
                1..=3 => {
                    for _ in 0..(1u32 << attempt) {
                        std::hint::spin_loop();
                    }
                    0
                }
                4..=6 => {
                    std::thread::yield_now();
                    0
                }
                n => {
                    let us = ((n - 6) as u64 * 50).min(2_000);
                    std::thread::sleep(Duration::from_micros(us));
                    us * 1_000
                }
            },
            Backoff::Seeded(p) => {
                let pause = p.pause_for(attempt);
                if pause.is_zero() {
                    return 0;
                }
                std::thread::sleep(pause);
                pause.as_nanos().min(u128::from(u64::MAX)) as u64
            }
        }
    }
}

/// Capped exponential backoff with deterministic, seed-derived jitter —
/// the serving-side policy. Where [`Backoff::Ladder`] optimizes for
/// microsecond-scale commit conflicts (spin first), this one optimizes for
/// sustained contention under load: every retry sleeps, the window doubles
/// per attempt up to `cap`, and the actual pause is drawn uniformly from
/// `[window/2, window)` by a splitmix64 stream keyed on `(seed, attempt)` —
/// decorrelating retriers that aborted together without any global RNG
/// state, and bit-reproducible for a fixed seed.
#[derive(Clone, Copy, Debug)]
pub struct SeededBackoff {
    /// First retry's full window.
    base: Duration,
    /// Upper bound on the window.
    cap: Duration,
    /// Jitter stream key (derive per transaction to decorrelate peers).
    seed: u64,
}

impl SeededBackoff {
    /// A policy sleeping `[base/2, base)` on the first retry, doubling up to
    /// `cap`, jittered by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> SeededBackoff {
        SeededBackoff { base, cap: cap.max(base), seed }
    }

    /// The full (pre-jitter) window for `attempt`, in nanoseconds.
    fn window_ns(&self, attempt: u32) -> u64 {
        let base = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        base.saturating_mul(1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX))
            .min(cap)
    }

    /// The deterministic pause for `attempt` (what [`Backoff::Seeded`]
    /// sleeps), exposed so callers can pre-check deadlines.
    pub fn pause_for(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let window = self.window_ns(attempt);
        if window == 0 {
            return Duration::ZERO;
        }
        // Uniform in [window/2, window): half the window is deterministic
        // spacing, half is jitter — enough spread to break abort convoys
        // without collapsing short windows to zero.
        let draw = rtf_txfault::splitmix64(
            self.seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        let half = window / 2;
        Duration::from_nanos(half + draw % half.max(1))
    }
}

/// Limits on how long a [`RetryDriver`] may keep retrying. The default is
/// unlimited (the paper's optimistic loops retry until they win).
#[derive(Clone, Copy, Debug, Default)]
pub struct RetryBudget {
    /// Maximum number of failed attempts before giving up.
    pub max_attempts: Option<u32>,
    /// Wall-clock instant after which no further attempt is made.
    pub deadline: Option<Instant>,
}

impl RetryBudget {
    /// The unlimited budget (retry forever).
    pub const UNLIMITED: RetryBudget = RetryBudget { max_attempts: None, deadline: None };

    /// True when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_attempts.is_none() && self.deadline.is_none()
    }
}

/// Why a bounded retry loop gave up (see [`RetryDriver::try_backoff`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryExhausted {
    /// The attempt cap was reached.
    Attempts {
        /// Failed attempts performed.
        attempts: u32,
    },
    /// The deadline passed.
    Deadline {
        /// Failed attempts performed when the deadline fired.
        attempts: u32,
    },
}

impl RetryExhausted {
    /// Failed attempts performed before giving up.
    pub fn attempts(&self) -> u32 {
        match *self {
            RetryExhausted::Attempts { attempts } | RetryExhausted::Deadline { attempts } => {
                attempts
            }
        }
    }
}

/// Counts failed attempts, enforces a [`RetryBudget`] and pauses with a
/// [`Backoff`] between attempts: the retry driver of the top-level loop.
#[derive(Debug, Default)]
pub struct RetryDriver {
    attempt: u32,
    backoff: Backoff,
    budget: RetryBudget,
}

impl RetryDriver {
    /// A driver pacing retries with `backoff` within `budget`.
    pub fn new(backoff: Backoff, budget: RetryBudget) -> RetryDriver {
        RetryDriver { attempt: 0, backoff, budget }
    }

    /// Number of failed attempts so far.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Registers a failed attempt and pauses before the next one
    /// (unbounded: ignores the budget). Returns slept nanoseconds.
    pub fn backoff(&mut self) -> u64 {
        self.attempt += 1;
        self.backoff.pause(self.attempt)
    }

    /// Registers a failed attempt; pauses and returns the slept nanoseconds
    /// if the budget permits another try, or reports [`RetryExhausted`]
    /// without pausing.
    pub fn try_backoff(&mut self) -> Result<u64, RetryExhausted> {
        self.attempt += 1;
        if let Some(max) = self.budget.max_attempts {
            if self.attempt >= max {
                return Err(RetryExhausted::Attempts { attempts: self.attempt });
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Err(RetryExhausted::Deadline { attempts: self.attempt });
            }
        }
        Ok(self.backoff.pause(self.attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_counts_attempts() {
        let mut d = RetryDriver::default();
        assert_eq!(d.attempt(), 0);
        d.backoff();
        d.backoff();
        assert_eq!(d.attempt(), 2);
    }

    #[test]
    fn driver_consults_policy_with_one_based_attempts() {
        // The seeded windows of attempts 1 and 2 are disjoint, so each
        // slept duration names the attempt number the driver passed.
        let p = SeededBackoff::new(Duration::from_micros(10), Duration::from_millis(1), 3);
        let mut d = RetryDriver::new(Backoff::Seeded(p), RetryBudget::UNLIMITED);
        assert_eq!(d.backoff(), p.pause_for(1).as_nanos() as u64);
        assert_eq!(d.backoff(), p.pause_for(2).as_nanos() as u64);
    }

    #[test]
    fn attempt_budget_exhausts() {
        let mut d = RetryDriver::new(
            Backoff::Ladder,
            RetryBudget { max_attempts: Some(3), deadline: None },
        );
        assert!(d.try_backoff().is_ok());
        assert!(d.try_backoff().is_ok());
        assert_eq!(d.try_backoff(), Err(RetryExhausted::Attempts { attempts: 3 }));
    }

    #[test]
    fn deadline_budget_exhausts() {
        let mut d = RetryDriver::new(
            Backoff::Ladder,
            RetryBudget {
                max_attempts: None,
                deadline: Some(Instant::now() - Duration::from_millis(1)),
            },
        );
        match d.try_backoff() {
            Err(RetryExhausted::Deadline { attempts: 1 }) => {}
            other => panic!("expected deadline exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        assert!(RetryBudget::UNLIMITED.is_unlimited());
        let mut d = RetryDriver::default();
        for _ in 0..8 {
            assert!(d.try_backoff().is_ok());
        }
    }

    #[test]
    fn backoff_levels_terminate() {
        // Spin, yield and sleep levels all return promptly.
        for attempt in 0..=8 {
            Backoff::Ladder.pause(attempt);
        }
    }

    #[test]
    fn seeded_backoff_is_deterministic_per_seed() {
        let p = SeededBackoff::new(Duration::from_micros(100), Duration::from_millis(5), 42);
        let q = SeededBackoff::new(Duration::from_micros(100), Duration::from_millis(5), 42);
        let r = SeededBackoff::new(Duration::from_micros(100), Duration::from_millis(5), 43);
        let mut diverged = false;
        for attempt in 1..=12 {
            assert_eq!(p.pause_for(attempt), q.pause_for(attempt));
            diverged |= p.pause_for(attempt) != r.pause_for(attempt);
        }
        assert!(diverged, "different seeds must produce different jitter");
    }

    #[test]
    fn seeded_backoff_doubles_then_caps() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_micros(400);
        let p = SeededBackoff::new(base, cap, 7);
        assert_eq!(p.pause_for(0), Duration::ZERO);
        for attempt in 1..=10 {
            let window = base.as_nanos().min(u128::from(u64::MAX)) as u64;
            let full = (window << (attempt - 1).min(3)).min(cap.as_nanos() as u64);
            let pause = p.pause_for(attempt as u32).as_nanos() as u64;
            assert!(pause >= full / 2 && pause < full, "attempt {attempt}: {pause} vs {full}");
        }
    }

    #[test]
    fn seeded_backoff_reports_slept_ns() {
        let p = SeededBackoff::new(Duration::from_micros(10), Duration::from_micros(20), 1);
        let mut d = RetryDriver::new(Backoff::Seeded(p), RetryBudget::UNLIMITED);
        let slept = d.backoff();
        assert_eq!(slept, p.pause_for(1).as_nanos() as u64);
        assert!(slept > 0);
    }
}
