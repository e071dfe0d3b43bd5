//! The process clock: every time read in the library goes through [`now`],
//! nanoseconds since one process-wide origin (its first read).
//!
//! A test can hold time still: [`Manual::install`] freezes [`now`] on every
//! thread until [`Manual::advance`] moves it, so a time-dependent decision
//! (the §5.2 patience bail, the coordinator's period) is tested by
//! stepping the clock, not by sleeping. The freeze is process-wide, so
//! installs serialise on a lock and each test that installs one is an
//! integration-test binary of its own. Readings never go backwards across
//! install, advance and drop, except that a read straddling an install on
//! another thread may return a real reading past the frozen one: install
//! before starting the threads a test observes.
//!
//! The default path is one load of a process-wide word and a branch before
//! the `Instant` arithmetic. The atomics are plain `std` ones, so the
//! `cfg(smc_check)` build gains no switch points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Set in [`STATE`] while a [`Manual`] clock is installed; the other bits
/// are then the frozen reading itself.
const FROZEN: u64 = 1 << 63;

/// `FROZEN | reading` while a manual clock is installed; otherwise the
/// offset added to real elapsed time (non-zero once a manual clock advanced
/// past real time has been dropped).
static STATE: AtomicU64 = AtomicU64::new(0);

#[inline]
fn real() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds since the process clock's origin (its first read).
#[inline]
pub fn now() -> u64 {
    // Acquire pairs with `Manual::drop`'s release: a read that sees the
    // resumed offset takes its real reading after the drop took its own.
    let state = STATE.load(Ordering::Acquire);
    if state & FROZEN != 0 {
        return state & !FROZEN;
    }
    real() + state
}

/// A frozen process clock, for tests. While the guard lives, [`now`]
/// returns the same reading on every thread until [`advance`](Self::advance)
/// moves it; dropping the guard resumes real time from the frozen reading.
///
/// ```
/// use std::time::Duration;
/// use smc_obs::clock::{self, Manual};
///
/// let clock = Manual::install();
/// let t0 = clock::now();
/// std::thread::sleep(Duration::from_millis(1));
/// assert_eq!(clock::now(), t0, "held still");
/// clock.advance(Duration::from_millis(100));
/// assert_eq!(clock::now(), t0 + 100_000_000);
/// drop(clock);
/// assert!(clock::now() >= t0 + 100_000_000, "never goes back");
/// ```
#[derive(Debug)]
pub struct Manual {
    _exclusive: MutexGuard<'static, ()>,
}

impl Manual {
    /// Freezes the clock at its current reading, first waiting for any other
    /// `Manual` in this process to be dropped.
    pub fn install() -> Manual {
        static EXCLUSIVE: Mutex<()> = Mutex::new(());
        let exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        STATE.store(FROZEN | now(), Ordering::Release);
        Manual {
            _exclusive: exclusive,
        }
    }

    /// Moves the frozen clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        STATE.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }
}

impl Drop for Manual {
    fn drop(&mut self) {
        let frozen = STATE.load(Ordering::Acquire) & !FROZEN;
        STATE.store(frozen.saturating_sub(real()), Ordering::Release);
    }
}
