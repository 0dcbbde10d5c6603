//! Bounded retries with exponential backoff and deterministic jitter.
//!
//! The worker's result-publication loop and bounded replay re-queues need to
//! wait-and-retry on transient conditions. Fixed sleeps either burn
//! CPU (too short) or add latency cliffs (too long); this module replaces
//! them with exponential backoff whose jitter comes from [`DetRng`], so two
//! runs with the same seed sleep the same schedule.

use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Retry/backoff policy. Part of `EngineConfig`, so tests and benchmarks can
/// tighten or loosen every retry loop in one place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts for *bounded* operations (replay re-queues and other
    /// give-uppable retries). `Backoff` built via [`RetryPolicy::backoff`]
    /// yields `None` once exhausted. Unbounded loops (result publication)
    /// use [`RetryPolicy::backoff_unbounded`] and ignore this.
    pub max_attempts: u32,
    /// First delay.
    pub base_delay: Duration,
    /// Delay ceiling.
    pub max_delay: Duration,
    /// Growth factor per attempt (>= 1.0).
    pub multiplier: f64,
    /// Fraction of each delay that is randomized (0.0 = none, 0.5 = the
    /// delay lands uniformly in [0.5·d, 1.0·d + 0.5·d)). Jitter decorrelates
    /// workers hammering the same contended GCS key.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Engine defaults: generous enough that transient faults (worker
    /// failure windows, dropped pushes, CAS aborts) clear, tight enough
    /// that a genuinely fatal condition surfaces quickly.
    pub fn engine_default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(5),
            multiplier: 2.0,
            jitter: 0.5,
        }
    }

    /// A bounded backoff iterator seeded deterministically.
    pub fn backoff(&self, seed: u64) -> Backoff {
        Backoff { policy: *self, bounded: true, attempt: 0, rng: DetRng::derive(seed, 0xBAC0_FF5E) }
    }

    /// An unbounded backoff iterator (never yields `None`); used where
    /// giving up is not an option and progress is guarded externally (the
    /// publish loop re-checks channel ownership; the watchdog bounds the
    /// whole query).
    pub fn backoff_unbounded(&self, seed: u64) -> Backoff {
        Backoff { bounded: false, ..self.backoff(seed) }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::engine_default()
    }
}

/// Stateful backoff: each call to [`Backoff::next_delay`] returns the next
/// jittered delay, or `None` when a bounded policy is exhausted.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    bounded: bool,
    attempt: u32,
    rng: DetRng,
}

impl Backoff {
    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay to sleep before retrying, or `None` if the bounded
    /// attempt budget is spent.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.bounded && self.attempt >= self.policy.max_attempts {
            return None;
        }
        let exp = self.policy.multiplier.powi(self.attempt.min(30) as i32);
        let raw = self.policy.base_delay.as_secs_f64() * exp;
        let capped = raw.min(self.policy.max_delay.as_secs_f64());
        let jitter = self.policy.jitter.clamp(0.0, 1.0);
        let jittered = capped * (1.0 - jitter) + capped * jitter * self.rng.next_f64() * 2.0;
        self.attempt = self.attempt.saturating_add(1);
        Some(Duration::from_secs_f64(jittered.min(self.policy.max_delay.as_secs_f64() * 2.0)))
    }

    /// Sleep for the next delay. Returns `false` when the budget is spent
    /// (and does not sleep).
    pub fn sleep(&mut self) -> bool {
        match self.next_delay() {
            Some(d) => {
                std::thread::sleep(d);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_backoff_exhausts_after_max_attempts() {
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::engine_default() };
        let mut b = policy.backoff(42);
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_some());
        assert!(b.next_delay().is_some());
        assert_eq!(b.next_delay(), None);
        assert_eq!(b.attempts(), 3);
    }

    #[test]
    fn unbounded_backoff_never_exhausts_and_caps_delay() {
        let policy = RetryPolicy::engine_default();
        let mut b = policy.backoff_unbounded(7);
        for _ in 0..100 {
            let d = b.next_delay().expect("unbounded");
            assert!(d <= policy.max_delay * 2, "delay {d:?} exceeds cap");
        }
    }

    #[test]
    fn delays_grow_and_jitter_is_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.0,
        };
        let mut b = policy.backoff(0);
        let d0 = b.next_delay().unwrap();
        let d3 = {
            b.next_delay();
            b.next_delay();
            b.next_delay().unwrap()
        };
        assert!(d3 > d0 * 4, "exponential growth expected: {d0:?} -> {d3:?}");

        let jittery = RetryPolicy { jitter: 0.5, ..policy };
        let seq_a: Vec<_> = (0..5).map_while(|_| jittery.backoff(9).next_delay()).collect();
        let mut x = jittery.backoff(9);
        let mut y = jittery.backoff(9);
        for _ in 0..5 {
            assert_eq!(x.next_delay(), y.next_delay(), "same seed, same schedule");
        }
        assert!(!seq_a.is_empty());
    }

    #[test]
    fn zero_attempt_policy_gives_up_immediately() {
        let policy = RetryPolicy { max_attempts: 0, ..RetryPolicy::engine_default() };
        let mut b = policy.backoff(1);
        assert_eq!(b.next_delay(), None);
        assert!(!b.sleep());
    }
}
