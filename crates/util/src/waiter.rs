//! A spin-then-park waiter: one thread waits, any number of peers wake it.
//!
//! The serve layer pairs every [`spsc`](crate::spsc) ring with one of these
//! on its consuming side. A waiting thread first *polls* — its peer usually
//! answers within microseconds, and staying on the CPU for that long is
//! cheaper than a trip through the scheduler — and only when one fixed
//! budget runs out does it park. A peer that publishes work calls
//! [`Waiter::wake`], which costs a fence and a load while the waiter is
//! awake and an `unpark` only when it really sleeps.
//!
//! ## The handshake
//!
//! Going to sleep is the classic store-then-recheck (Dekker) protocol:
//!
//! ```text
//! waiter                              waker
//! sleeping = true                     publish work (ring push)
//! fence(SeqCst)                       fence(SeqCst)
//! poll() again ── found? stay up      sleeping? ── swap false, unpark
//! park()
//! ```
//!
//! The two `SeqCst` fences order each side's store before its load, so at
//! least one side sees the other: either the waiter's re-poll finds the
//! work, or the waker sees `sleeping` and unparks. A wake-up cannot be
//! lost, and `park`'s own token makes an `unpark` that lands between the
//! re-poll and the `park` call return immediately.
//!
//! Unlike every other time read in the library, this module reads
//! `Instant` directly, not the freezable `smc_obs::clock`: its spin budget
//! is CPU time the waiting thread burns, and under a frozen clock an idle
//! shard would spin for ever instead of parking.
//!
//! The flag, the fences and the park go through [`crate::sync`], so the
//! `smc-check` model checker explores the handshake. Under
//! `--cfg smc_check` the spin budget is a fixed count of polls and the park
//! is the shim's parker, which reports `Spin`; time is virtual there, so a
//! checked wait passes no timeout.
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use smc_util::waiter::Waiter;
//!
//! let waiter = Arc::new(Waiter::new());
//! let flag = Arc::new(AtomicBool::new(false));
//! let (w, f) = (waiter.clone(), flag.clone());
//! let peer = std::thread::spawn(move || {
//!     f.store(true, Ordering::Release);
//!     w.wake();
//! });
//! let seen = waiter.wait(None, || flag.load(Ordering::Acquire).then_some(7));
//! assert_eq!(seen, Some(7));
//! peer.join().unwrap();
//! ```

use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::mutation::{self, Mutation};
use crate::sync::thread::{self, Thread};
use crate::sync::{fence, AtomicBool, AtomicU64};

/// How long a wait polls before it parks: on the order of one park/unpark
/// round trip, so a peer that answers about as fast as the scheduler could
/// have woken us is met awake, and anything slower costs one bounded spin.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Polls between two `yield_now` calls (and two clock reads) while
/// spinning: the yield lets a runnable peer have this core when there are
/// more threads than cores.
#[cfg(not(smc_check))]
const POLLS_PER_YIELD: u32 = 32;

/// The spin budget under the model checker, in polls: time is virtual
/// there, and every poll is a chain of switch points, so the budget is a
/// count, kept small.
#[cfg(smc_check)]
const CHECKED_SPIN_POLLS: usize = 2;

/// The waiting side's state; see the module docs for the protocol.
///
/// One thread at a time may [`wait`](Waiter::wait) on a waiter, and it must
/// always be the same thread (the shard thread for a shard's waiter, the
/// connection thread for a connection's). Any thread may
/// [`wake`](Waiter::wake).
#[derive(Debug)]
pub struct Waiter {
    /// Set by the waiting thread just before it parks; cleared by whichever
    /// waker claims the `unpark`, or by the waiter when it gets up.
    sleeping: AtomicBool,
    /// The waiting thread, recorded the first time it is about to park.
    thread: OnceLock<Thread>,
    /// Returns from `park`, for tests and diagnostics.
    wakeups: AtomicU64,
    spin: Duration,
}

impl Default for Waiter {
    fn default() -> Waiter {
        Waiter::new()
    }
}

impl Waiter {
    /// A waiter with the default spin budget.
    pub fn new() -> Waiter {
        Waiter::with_spin(SPIN_BUDGET)
    }

    fn with_spin(spin: Duration) -> Waiter {
        Waiter {
            sleeping: AtomicBool::new(false),
            thread: OnceLock::new(),
            wakeups: AtomicU64::new(0),
            spin,
        }
    }

    /// Calls `poll` until it yields a value or `timeout` has passed (`None`
    /// waits for ever): spinning for the budget, then parked between
    /// wake-ups. `poll` must observe everything a waker publishes before it
    /// calls [`wake`](Waiter::wake) — a condition `poll` cannot see is a
    /// condition this wait can sleep through.
    pub fn wait<T>(
        &self,
        timeout: Option<Duration>,
        mut poll: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        if let Some(v) = poll() {
            return Some(v);
        }
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);
        if let Some(v) = self.spin(start, &mut poll) {
            return Some(v);
        }
        let me = self.thread.get_or_init(thread::current);
        debug_assert_eq!(
            me.id(),
            std::thread::current().id(),
            "a Waiter has one waiting thread"
        );
        loop {
            let early = mutation::enabled(Mutation::SleepAfterRecheck);
            let mut found = if early { poll() } else { None };
            self.sleeping.store(true, Ordering::Relaxed);
            // Pairs with the fence in `wake`: our `sleeping` store is
            // ordered before the re-poll, the waker's publish before its
            // `sleeping` load, so one of the two sees the other.
            fence(Ordering::SeqCst);
            if !early {
                found = poll();
            }
            let left = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            if found.is_some() || left.is_zero() {
                self.sleeping.store(false, Ordering::Relaxed);
                return found;
            }
            match deadline {
                Some(_) => thread::park_timeout(left),
                None => thread::park(),
            }
            self.sleeping.store(false, Ordering::Relaxed);
            self.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The spin phase: polls until the budget is spent, or returns what a
    /// poll found.
    #[cfg(not(smc_check))]
    fn spin<T>(&self, start: Instant, poll: &mut impl FnMut() -> Option<T>) -> Option<T> {
        if self.spin.is_zero() {
            return None;
        }
        let spin_end = start + self.spin;
        loop {
            for _ in 0..POLLS_PER_YIELD {
                std::hint::spin_loop();
                if let Some(v) = poll() {
                    return Some(v);
                }
            }
            std::thread::yield_now();
            if Instant::now() >= spin_end {
                return None;
            }
        }
    }

    /// The spin phase under the model checker: a fixed count of polls, each
    /// behind a plain switch point. Not `Spin`: the checker would then run
    /// every peer before the next poll, as if a peer always answered within
    /// the budget, and never explore a budget that runs out first — the
    /// path to the sleeping-flag handshake.
    #[cfg(smc_check)]
    fn spin<T>(&self, _: Instant, poll: &mut impl FnMut() -> Option<T>) -> Option<T> {
        if self.spin.is_zero() {
            return None;
        }
        (0..CHECKED_SPIN_POLLS).find_map(|_| {
            crate::sync::yield_point();
            poll()
        })
    }

    /// Wakes the waiting thread if it sleeps. Call *after* publishing what
    /// its `poll` looks for.
    #[inline]
    pub fn wake(&self) {
        // Pairs with the fence in `wait`.
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::Relaxed) && self.sleeping.swap(false, Ordering::Relaxed) {
            // `sleeping` is only ever set after `thread` is.
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// Times the waiting thread came back from `park` (by `unpark`, by
    /// timeout or spuriously). An idle waiter with no deadline adds none.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// True while the waiting thread is parked or about to park.
    pub fn is_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc;
    use std::sync::Arc;

    /// Two threads bounce a counter through a pair of rings, each waiting
    /// on its own waiter. A lost wake-up parks both for ever, which the
    /// watchdog turns into a failure instead of a hung test run.
    fn ping_pong(spin: Duration, rounds: u64) -> (u64, u64) {
        let (to_echo, mut echo_in) = spsc::channel::<u64>(4);
        let (to_main, mut main_in) = spsc::channel::<u64>(4);
        let main_waiter = Arc::new(Waiter::with_spin(spin));
        let echo_waiter = Arc::new(Waiter::with_spin(spin));
        let (done_tx, done_rx) = std::sync::mpsc::channel();

        let (mw, ew) = (main_waiter.clone(), echo_waiter.clone());
        let echo = std::thread::spawn(move || {
            for _ in 0..rounds {
                let v = ew.wait(None, || echo_in.pop()).expect("no deadline");
                to_main.push(v + 1).expect("ring holds one in flight");
                mw.wake();
            }
        });
        let (mw, ew) = (main_waiter.clone(), echo_waiter.clone());
        let main = std::thread::spawn(move || {
            let mut v = 0u64;
            for _ in 0..rounds {
                to_echo.push(v).expect("ring holds one in flight");
                ew.wake();
                v = mw.wait(None, || main_in.pop()).expect("no deadline");
            }
            done_tx.send(v).expect("watchdog listens");
        });

        let v = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("ping-pong stalled: a wake-up was lost");
        assert_eq!(v, rounds, "every round trip adds one");
        main.join().unwrap();
        echo.join().unwrap();
        (main_waiter.wakeups(), echo_waiter.wakeups())
    }

    #[test]
    fn ping_pong_with_zero_spin_parks_every_wait_and_loses_no_wakeup() {
        let (main, echo) = ping_pong(Duration::ZERO, 200_000);
        assert!(
            main + echo > 0,
            "zero budget must reach the park path (main {main}, echo {echo})"
        );
    }

    #[test]
    fn ping_pong_with_default_spin_loses_no_wakeup() {
        ping_pong(SPIN_BUDGET, 200_000);
    }

    #[test]
    fn deadline_expires_without_a_waker() {
        let w = Waiter::new();
        let start = Instant::now();
        let got: Option<()> = w.wait(Some(Duration::from_millis(20)), || None);
        assert!(got.is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(!w.is_sleeping(), "a timed-out wait leaves the flag clear");
    }

    #[test]
    fn wake_without_a_sleeper_is_a_no_op() {
        let w = Waiter::new();
        w.wake();
        assert_eq!(w.wait(None, || Some(1)), Some(1));
        assert_eq!(w.wakeups(), 0);
    }
}
