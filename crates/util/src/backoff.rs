//! Bounded exponential backoff with deterministic, seeded jitter.
//!
//! [`Backoff`] paces the maintenance coordinator's transient-failure
//! retries (`smc_maint::coordinator::run_pass`), so they are reproducible
//! from a seed instead of depending on wall-clock entropy. The envelope is
//! the classic decorrelated-ish scheme: attempt `n` draws a delay uniformly
//! from `[base·2ⁿ/2, base·2ⁿ)`, capped at `cap`. Jitter comes from a
//! [`Pcg32`] stream seeded by the caller, so a fixed seed reproduces the
//! exact same delay sequence on every machine.

use std::time::Duration;

use crate::rng::Pcg32;

/// Stateful bounded-exponential backoff with seeded jitter.
///
/// ```
/// use std::time::Duration;
/// use smc_util::backoff::Backoff;
///
/// let mut b = Backoff::new(7, Duration::from_millis(1), Duration::from_millis(64));
/// let first = b.next_delay();
/// assert!(first >= Duration::from_micros(500) && first < Duration::from_millis(1));
/// let mut again = Backoff::new(7, Duration::from_millis(1), Duration::from_millis(64));
/// assert_eq!(again.next_delay(), first, "same seed, same sequence");
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: Pcg32,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A backoff whose whole delay sequence is a pure function of `seed`.
    /// `base` is the attempt-0 envelope; `cap` bounds every delay.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            rng: Pcg32::seed_from_u64(seed),
            base,
            cap,
            attempt: 0,
        }
    }

    /// The next delay: uniform in `[envelope/2, envelope)` where the
    /// envelope doubles per attempt, both halves capped at `cap`.
    pub fn next_delay(&mut self) -> Duration {
        let base_ns = self.base.as_nanos().max(1).min(u64::MAX as u128) as u64;
        let cap_ns = self.cap.as_nanos().max(1).min(u64::MAX as u128) as u64;
        let envelope = base_ns
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(cap_ns);
        self.attempt = self.attempt.saturating_add(1);
        let lo = (envelope / 2).max(1);
        let jittered = if envelope > lo {
            self.rng.gen_range(lo..envelope)
        } else {
            lo
        };
        Duration::from_nanos(jittered)
    }

    /// Attempts drawn since construction or the last [`reset`](Self::reset).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Rewinds the envelope to the base (the jitter stream keeps advancing,
    /// staying a pure function of the seed and total draws).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_delay_sequence() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(10);
        let mut a = Backoff::new(42, base, cap);
        let mut b = Backoff::new(42, base, cap);
        let seq_a: Vec<Duration> = (0..32).map(|_| a.next_delay()).collect();
        let seq_b: Vec<Duration> = (0..32).map(|_| b.next_delay()).collect();
        assert_eq!(seq_a, seq_b, "fixed seed must reproduce the sequence");
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_secs(1);
        let mut a = Backoff::new(1, base, cap);
        let mut b = Backoff::new(2, base, cap);
        let same = (0..32).filter(|_| a.next_delay() == b.next_delay()).count();
        assert!(
            same < 4,
            "seeds should decorrelate the jitter ({same} equal)"
        );
    }

    #[test]
    fn delays_respect_envelope_and_cap() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(2);
        let mut b = Backoff::new(9, base, cap);
        for n in 0..20u32 {
            let envelope = (base * 2u32.pow(n.min(16))).min(cap);
            let d = b.next_delay();
            assert!(
                d < envelope.max(Duration::from_nanos(2)),
                "attempt {n}: {d:?}"
            );
            assert!(d >= envelope / 2, "attempt {n}: {d:?} under half-envelope");
            assert!(d <= cap, "attempt {n}: {d:?} over cap");
        }
    }

    #[test]
    fn reset_rewinds_envelope() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_secs(1);
        let mut b = Backoff::new(5, base, cap);
        for _ in 0..8 {
            b.next_delay();
        }
        assert_eq!(b.attempt(), 8);
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert!(
            b.next_delay() < base,
            "post-reset delay back inside attempt-0 envelope"
        );
    }
}
