//! Token-bucket pacer bounding how fast the coordinator may start passes.
//!
//! The planner must take one token per planned pass; tokens refill at a
//! fixed rate up to a burst capacity. With one worker thread this bounds both
//! work in flight *and* work per second, so a pathological context (e.g. one
//! hovering exactly at a threshold) cannot turn the coordinator into a busy
//! loop of back-to-back passes.
//!
//! Time is passed in explicitly (`smc_obs::clock` nanosecond readings)
//! rather than read from the clock, so unit tests drive the bucket
//! deterministically.

/// A token bucket: `capacity` burst tokens, refilled continuously at
/// `refill_per_sec`.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Option<u64>,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub(crate) fn new(capacity: f64, refill_per_sec: f64) -> TokenBucket {
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_sec,
            last: None,
        }
    }

    /// Takes one token if available at time `now` (nanoseconds). Returns
    /// false (and takes nothing) when the bucket is empty.
    pub(crate) fn try_take(&mut self, now: u64) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn refill(&mut self, now: u64) {
        if let Some(last) = self.last {
            let dt = now.saturating_sub(last);
            if dt > 0 {
                self.tokens =
                    (self.tokens + dt as f64 / 1e9 * self.refill_per_sec).min(self.capacity);
            }
        }
        self.last = Some(self.last.map_or(now, |l| l.max(now)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn burst_then_empty_then_refill() {
        let t0 = 7 * SEC;
        let mut b = TokenBucket::new(3.0, 2.0);
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst capacity is 3");
        // 500 ms at 2 tokens/s refills exactly one token.
        let t1 = t0 + SEC / 2;
        assert!(b.try_take(t1));
        assert!(!b.try_take(t1));
    }

    #[test]
    fn refill_caps_at_capacity() {
        let t0 = 7 * SEC;
        let mut b = TokenBucket::new(2.0, 100.0);
        assert!(b.try_take(t0));
        // A minute at 100 tokens/s would mint 6 000; the bucket holds two.
        let much_later = t0 + 60 * SEC;
        assert!(b.try_take(much_later));
        assert!(b.try_take(much_later));
        assert!(!b.try_take(much_later), "refill must cap at capacity");
    }

    #[test]
    fn zero_refill_never_recovers() {
        let t0 = 7 * SEC;
        let mut b = TokenBucket::new(1.0, 0.0);
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0 + 3600 * SEC));
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let t0 = 7 * SEC;
        let mut b = TokenBucket::new(1.0, 1.0);
        assert!(b.try_take(t0 + SEC));
        // An earlier reading must not mint tokens or panic.
        assert!(!b.try_take(t0));
    }
}
