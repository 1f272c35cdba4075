//! Seedable, deterministic fault-injection failpoints for the `rtf` stack.
//!
//! The strong-ordering protocol (waitTurn, Alg 3; sub-commit propagation,
//! Alg 4) is a web of blocking dependencies between parent continuations and
//! future sub-transactions — exactly the shape where one dead participant
//! hangs the whole tree. This crate provides the instrument for probing that
//! failure surface: named **failpoints** compiled into the commit, waiting
//! and task-execution paths of every layer, which a chaos harness can arm
//! with a seeded schedule of injected faults.
//!
//! # Model
//!
//! A *site* is a `&'static str` name (`"mvstm.commit.validate"`,
//! `"taskpool.task.run"`, …) placed in the code with the [`fail_point!`]
//! macro. A [`FaultPlan`] maps site names (exact, or `"prefix.*"` patterns)
//! to per-hit probabilities of four actions:
//!
//! * **abort** — the failpoint returns [`Outcome::Abort`]; the site
//!   translates it into its local "validation failed / conflict" path, so
//!   the injected fault exercises the real abort machinery;
//! * **panic** — the failpoint panics with an [`InjectedPanic`] payload,
//!   modelling a crashed task or a bug unwinding through the stack;
//! * **delay** — the failpoint sleeps for the rule's `delay_us`, widening
//!   race windows and provoking the starvation watchdog;
//! * **spurious wakeup** — the failpoint returns [`Outcome::SpuriousWake`];
//!   wait-loop sites skip one park and re-check their predicate, modelling
//!   a condvar spurious wakeup.
//!
//! # Determinism
//!
//! Every site keeps a hit counter; the decision for hit *n* of site *s* is a
//! pure function `splitmix64(seed ^ fnv1a(s) ^ n)` of the plan seed. Given
//! the same per-site hit sequence, a seed replays the same fault schedule.
//! (Thread interleaving still decides *which thread* takes hit *n* — the
//! schedule is deterministic per site, not per thread.)
//!
//! # Cost
//!
//! Without the `fault-inject` cargo feature, [`hit`] is a constant
//! [`Outcome::None`] and the optimizer deletes the site entirely; production
//! builds carry no branch, no load, no registry. With the feature on but no
//! plan installed, a hit is one atomic load.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

/// What a failpoint asks its call site to do.
///
/// `Panic` and `Delay` are performed *inside* [`hit`] (the panic unwinds
/// from the macro, the delay sleeps before returning `None`); only the
/// outcomes that need site cooperation are surfaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No fault injected (also returned after an injected delay).
    None,
    /// Behave as if the operation failed its validation / lost its race:
    /// take the local conflict-abort path.
    Abort,
    /// A wait loop should skip one park and re-check its predicate.
    SpuriousWake,
}

impl Outcome {
    /// `true` when the site should take its conflict-abort path.
    #[inline]
    pub fn is_abort(self) -> bool {
        self == Outcome::Abort
    }
}

/// Panic payload used for injected panics, so containment layers (and the
/// quiet panic hook) can distinguish injected faults from real bugs.
#[derive(Clone, Copy, Debug)]
pub struct InjectedPanic {
    /// The failpoint site that injected the panic.
    pub site: &'static str,
}

impl fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected panic at failpoint `{}`", self.site)
    }
}

/// Evaluates the failpoint `site`. Expands to [`hit`]; see the crate docs.
///
/// ```ignore
/// if rtf_txfault::fail_point!("mvstm.commit.validate").is_abort() {
///     return Err(Conflict);
/// }
/// ```
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::hit($site)
    };
}

/// `true` when this build compiled the failpoint machinery in.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "fault-inject")
}

/// Evaluates a failpoint. Call through [`fail_point!`].
#[inline(always)]
pub fn hit(site: &'static str) -> Outcome {
    #[cfg(feature = "fault-inject")]
    {
        imp::hit_impl(site)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = site;
        Outcome::None
    }
}

/// One rule of a [`FaultPlan`]: probabilities (parts-per-million per hit)
/// for each action at the matching site(s).
#[derive(Clone, Debug, Default)]
pub struct SiteRule {
    /// Site name to match: exact (`"core.wait_turn"`) or a prefix pattern
    /// ending in `*` (`"txengine.cell.*"`).
    pub site: String,
    /// Probability of [`Outcome::Abort`], in parts per million per hit.
    pub abort_ppm: u32,
    /// Probability of an [`InjectedPanic`] unwind, in ppm per hit.
    pub panic_ppm: u32,
    /// Probability of an injected sleep, in ppm per hit.
    pub delay_ppm: u32,
    /// Length of an injected sleep, microseconds.
    pub delay_us: u64,
    /// Probability of [`Outcome::SpuriousWake`], in ppm per hit.
    pub spurious_ppm: u32,
    /// Optional cap on the number of injections (non-`None` outcomes and
    /// panics/delays) this rule may perform across all matching sites.
    pub max_injections: Option<u64>,
}

impl SiteRule {
    /// New no-op rule matching `site` (exact name, or `"prefix.*"`).
    pub fn at(site: impl Into<String>) -> SiteRule {
        SiteRule { site: site.into(), ..SiteRule::default() }
    }

    /// Sets the abort probability (ppm per hit).
    pub fn abort(mut self, ppm: u32) -> SiteRule {
        self.abort_ppm = ppm;
        self
    }

    /// Sets the panic probability (ppm per hit).
    pub fn panic(mut self, ppm: u32) -> SiteRule {
        self.panic_ppm = ppm;
        self
    }

    /// Sets the delay probability (ppm per hit) and duration (µs).
    pub fn delay(mut self, ppm: u32, delay_us: u64) -> SiteRule {
        self.delay_ppm = ppm;
        self.delay_us = delay_us;
        self
    }

    /// Sets the spurious-wakeup probability (ppm per hit).
    pub fn spurious(mut self, ppm: u32) -> SiteRule {
        self.spurious_ppm = ppm;
        self
    }

    /// Caps the total number of injections this rule may perform.
    pub fn cap(mut self, max: u64) -> SiteRule {
        self.max_injections = Some(max);
        self
    }

    /// Whether this rule matches `site` (exact, or `"prefix.*"`).
    pub fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A seeded schedule of faults: which sites misbehave, how, and how often.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the deterministic per-hit decision stream.
    pub seed: u64,
    /// Rules, first match wins.
    pub rules: Vec<SiteRule>,
}

impl FaultPlan {
    /// New empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Adds a rule (builder style). First matching rule wins per site.
    pub fn rule(mut self, rule: SiteRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }
}

/// Injection counters for one site, from [`stats`].
#[derive(Clone, Debug, Default)]
pub struct SiteReport {
    /// Site name.
    pub site: &'static str,
    /// Times the failpoint was evaluated.
    pub hits: u64,
    /// [`Outcome::Abort`]s returned.
    pub aborts: u64,
    /// [`InjectedPanic`]s raised.
    pub panics: u64,
    /// Sleeps injected.
    pub delays: u64,
    /// [`Outcome::SpuriousWake`]s returned.
    pub spurious: u64,
}

impl SiteReport {
    /// Total faults injected at this site (everything but plain hits).
    pub fn injected(&self) -> u64 {
        self.aborts + self.panics + self.delays + self.spurious
    }
}

/// Installs `plan` as the process-wide active schedule, resetting all
/// counters. A no-op (returning `false`) unless built with `fault-inject`.
pub fn install(plan: FaultPlan) -> bool {
    #[cfg(feature = "fault-inject")]
    {
        imp::install_impl(plan);
        true
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = plan;
        false
    }
}

/// Removes the active plan. Counters of the removed plan are discarded.
pub fn clear() {
    #[cfg(feature = "fault-inject")]
    imp::clear_impl();
}

/// Per-site injection counters of the active plan (empty without one, or
/// without the `fault-inject` feature).
pub fn stats() -> Vec<SiteReport> {
    #[cfg(feature = "fault-inject")]
    {
        imp::stats_impl()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        Vec::new()
    }
}

/// Sum of all injected faults across sites under the active plan.
pub fn injected_total() -> u64 {
    stats().iter().map(SiteReport::injected).sum()
}

/// Deterministic per-hit decision stream: `splitmix64(seed ^ fnv1a(site) ^ n)`.
/// Public so harnesses can predict / replay a schedule offline.
pub fn decision_stream(seed: u64, site: &str, hit_index: u64) -> u64 {
    splitmix64(seed ^ fnv1a(site) ^ hit_index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `splitmix64`: the workspace's one 64-bit mixing function, used for every
/// deterministic derivation (fault decisions, backoff jitter, load-generator
/// streams). A stateful stream is `splitmix64(state)` followed by
/// `state += 0x9e37_79b9_7f4a_7c15`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(feature = "fault-inject")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, RwLock};
    use std::time::Duration;

    use crate::{decision_stream, FaultPlan, InjectedPanic, Outcome, SiteReport};

    #[derive(Default)]
    struct SiteState {
        hits: AtomicU64,
        seq: AtomicU64,
        aborts: AtomicU64,
        panics: AtomicU64,
        delays: AtomicU64,
        spurious: AtomicU64,
        rule: Option<usize>,
    }

    struct Active {
        plan: FaultPlan,
        injections: Vec<AtomicU64>, // per rule, for max_injections caps
        sites: Mutex<HashMap<&'static str, Arc<SiteState>>>,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static ACTIVE: RwLock<Option<Arc<Active>>> = RwLock::new(None);

    pub(crate) fn install_impl(plan: FaultPlan) {
        let injections = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
        let active = Arc::new(Active { plan, injections, sites: Mutex::new(HashMap::new()) });
        *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(active);
        ARMED.store(true, Ordering::Release);
    }

    pub(crate) fn clear_impl() {
        ARMED.store(false, Ordering::Release);
        *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    pub(crate) fn stats_impl() -> Vec<SiteReport> {
        let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
        let Some(active) = guard.as_ref() else { return Vec::new() };
        let sites = active.sites.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<SiteReport> = sites
            .iter()
            .map(|(site, s)| SiteReport {
                site,
                hits: s.hits.load(Ordering::Relaxed),
                aborts: s.aborts.load(Ordering::Relaxed),
                panics: s.panics.load(Ordering::Relaxed),
                delays: s.delays.load(Ordering::Relaxed),
                spurious: s.spurious.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|r| r.site);
        out
    }

    #[inline]
    pub(crate) fn hit_impl(site: &'static str) -> Outcome {
        if !ARMED.load(Ordering::Acquire) {
            return Outcome::None;
        }
        let active = {
            let guard = ACTIVE.read().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(a) => Arc::clone(a),
                None => return Outcome::None,
            }
        };
        let state = {
            let mut sites = active.sites.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(sites.entry(site).or_insert_with(|| {
                let rule = active.plan.rules.iter().position(|r| r.matches(site));
                Arc::new(SiteState { rule, ..SiteState::default() })
            }))
        };
        state.hits.fetch_add(1, Ordering::Relaxed);
        let Some(rule_idx) = state.rule else { return Outcome::None };
        let rule = &active.plan.rules[rule_idx];
        let n = state.seq.fetch_add(1, Ordering::Relaxed);
        let draw = (decision_stream(active.plan.seed, site, n) % 1_000_000) as u32;

        let abort_end = rule.abort_ppm;
        let panic_end = abort_end.saturating_add(rule.panic_ppm);
        let delay_end = panic_end.saturating_add(rule.delay_ppm);
        let spurious_end = delay_end.saturating_add(rule.spurious_ppm);
        if draw >= spurious_end {
            return Outcome::None;
        }
        // An action was drawn; honor the rule's injection cap.
        if let Some(max) = rule.max_injections {
            if active.injections[rule_idx].fetch_add(1, Ordering::Relaxed) >= max {
                return Outcome::None;
            }
        }
        if draw < abort_end {
            state.aborts.fetch_add(1, Ordering::Relaxed);
            Outcome::Abort
        } else if draw < panic_end {
            state.panics.fetch_add(1, Ordering::Relaxed);
            std::panic::panic_any(InjectedPanic { site });
        } else if draw < delay_end {
            state.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(rule.delay_us));
            Outcome::None
        } else {
            state.spurious.fetch_add(1, Ordering::Relaxed);
            Outcome::SpuriousWake
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_deterministic() {
        let a: Vec<u64> = (0..16).map(|n| decision_stream(42, "x.y", n)).collect();
        let b: Vec<u64> = (0..16).map(|n| decision_stream(42, "x.y", n)).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..16).map(|n| decision_stream(43, "x.y", n)).collect();
        assert_ne!(a, c, "different seeds must produce different schedules");
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first three outputs of the reference SplitMix64 seeded with 0.
        let mut state = 0u64;
        let draws: Vec<u64> = (0..3)
            .map(|_| {
                let r = splitmix64(state);
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                r
            })
            .collect();
        assert_eq!(draws, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
    }

    #[test]
    fn rule_matching_exact_and_prefix() {
        assert!(SiteRule::at("a.b").matches("a.b"));
        assert!(!SiteRule::at("a.b").matches("a.b.c"));
        assert!(SiteRule::at("a.*").matches("a.b.c"));
        assert!(!SiteRule::at("a.*").matches("b.a"));
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn disabled_build_is_inert() {
        assert!(!enabled());
        assert!(!install(FaultPlan::new(1).rule(SiteRule::at("x").abort(1_000_000))));
        assert_eq!(fail_point!("x"), Outcome::None);
        assert!(stats().is_empty());
    }

    #[cfg(feature = "fault-inject")]
    mod armed {
        use super::super::*;
        use std::sync::{Mutex, OnceLock};

        // The registry is process-global; serialize tests that install plans.
        fn lock() -> std::sync::MutexGuard<'static, ()> {
            static GATE: OnceLock<Mutex<()>> = OnceLock::new();
            GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn abort_probability_one_always_aborts() {
            let _g = lock();
            install(FaultPlan::new(7).rule(SiteRule::at("t.abort").abort(1_000_000)));
            for _ in 0..100 {
                assert_eq!(fail_point!("t.abort"), Outcome::Abort);
            }
            let s = stats();
            let r = s.iter().find(|r| r.site == "t.abort").expect("site registered");
            assert_eq!(r.hits, 100);
            assert_eq!(r.aborts, 100);
            clear();
        }

        #[test]
        fn panic_injection_carries_site_payload() {
            let _g = lock();
            install(FaultPlan::new(9).rule(SiteRule::at("t.panic").panic(1_000_000)));
            let err = std::panic::catch_unwind(|| fail_point!("t.panic"))
                .expect_err("failpoint must panic");
            let p = err.downcast_ref::<InjectedPanic>().expect("InjectedPanic payload");
            assert_eq!(p.site, "t.panic");
            clear();
        }

        #[test]
        fn injection_cap_limits_faults() {
            let _g = lock();
            install(FaultPlan::new(3).rule(SiteRule::at("t.cap").abort(1_000_000).cap(5)));
            let aborts = (0..50).filter(|_| fail_point!("t.cap").is_abort()).count();
            assert_eq!(aborts, 5);
            clear();
        }

        #[test]
        fn same_seed_replays_same_schedule() {
            let _g = lock();
            let run = || {
                install(FaultPlan::new(1234).rule(SiteRule::at("t.replay").abort(250_000)));
                let v: Vec<bool> = (0..200).map(|_| fail_point!("t.replay").is_abort()).collect();
                clear();
                v
            };
            assert_eq!(run(), run());
        }

        #[test]
        fn unmatched_sites_only_count_hits() {
            let _g = lock();
            install(FaultPlan::new(5).rule(SiteRule::at("t.other").abort(1_000_000)));
            for _ in 0..10 {
                assert_eq!(fail_point!("t.unmatched"), Outcome::None);
            }
            let s = stats();
            let r = s.iter().find(|r| r.site == "t.unmatched").expect("registered");
            assert_eq!(r.hits, 10);
            assert_eq!(r.injected(), 0);
            clear();
        }
    }
}
