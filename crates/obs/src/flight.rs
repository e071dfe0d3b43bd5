//! Always-on flight recorder: a fixed-budget global ring of the most
//! recent trace events, dumped on demand for crash forensics.
//!
//! The per-thread rings ([`crate::trace`]) are an *export* path: they are
//! enabled for a run, drained once, and written out. The flight recorder is
//! a *forensic* path: once [`enable`]d it taps every [`crate::trace::emit`] into
//! one process-global ring of [`FLIGHT_CAPACITY`] slots allocated exactly
//! once — zero steady-state allocation, oldest records overwritten — and
//! [`dump`] writes the surviving window as a Chrome trace (plus a
//! `flightTrigger` top-level field) to the path named by the
//! **`SMC_FLIGHT_OUT`** environment variable. `smc-serve` dumps on panic
//! ([`install_panic_hook`]), SIGUSR1, SLO breach, and failed drain verify.
//!
//! The ring is the tracer's own ring type at a larger capacity, shared by
//! every thread: a writer claims a position by one `fetch_add` on the head
//! and publishes it seqlock-style. Two writers only meet on a slot when
//! they are a whole ring apart ([`FLIGHT_CAPACITY`] events); the later one
//! then finds the slot owned and drops its record — an acceptable loss for
//! a forensic ring, and one that never blocks or tears a record.
//!
//! ```
//! use smc_obs::{flight, trace};
//! use smc_obs::trace::Event;
//!
//! flight::enable();
//! trace::emit(Event::EpochAdvance { epoch: 41 });
//! assert!(flight::snapshot()
//!     .iter()
//!     .any(|t| matches!(t.event, Event::EpochAdvance { epoch: 41 })));
//! flight::disable();
//! ```

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use crate::chrome::ChromeTrace;
use crate::report::JsonValue;
use crate::trace::{self, Ring, TracedEvent};

/// Events the flight ring holds before overwriting the oldest. At 9 words
/// (72 bytes) per slot the whole recorder is a fixed ~288 KiB.
pub const FLIGHT_CAPACITY: usize = 4096;

/// Environment variable naming the dump destination. [`dump`] without it is
/// a no-op (recording still runs; there is just nowhere to write).
pub const FLIGHT_OUT_ENV: &str = "SMC_FLIGHT_OUT";

/// The one ring, allocated on first [`enable`] and kept for the process
/// lifetime (so a race between `disable` and an in-flight `record` can
/// never use freed memory).
static RING: OnceLock<Ring> = OnceLock::new();

/// Turns the flight recorder on, allocating its ring on the first call.
/// Independent of [`crate::trace::enable`]: either sink can run alone.
pub fn enable() {
    RING.get_or_init(|| Ring::new(0, FLIGHT_CAPACITY));
    trace::set_flight_mode(true);
}

/// Stops recording (the ring and its contents are retained, so a dump
/// after `disable` still shows the window leading up to it).
pub fn disable() {
    trace::set_flight_mode(false);
}

/// True while the recorder is tapping emissions.
pub fn is_enabled() -> bool {
    trace::flight_mode()
}

/// Records one already-encoded emission (called from `trace::emit` when the
/// flight mode bit is set). Wait-free: one `fetch_add` plus the slot's
/// claim and relaxed stores.
pub(crate) fn record(words: [u64; 8]) {
    if let Some(ring) = RING.get() {
        ring.push(words);
    }
}

/// Every currently-consistent record in the ring, sorted by global
/// sequence number. Slots caught mid-write are skipped.
pub fn snapshot() -> Vec<TracedEvent> {
    trace::snapshot_of(RING.get())
}

/// Records overwritten by ring wraparound since [`enable`].
pub fn dropped() -> u64 {
    RING.get().map_or(0, Ring::dropped)
}

/// Dumps the current flight window as a Chrome trace to the path named by
/// [`FLIGHT_OUT_ENV`], recording `trigger` (`panic`, `sigusr1`,
/// `slo-breach`, `drain-verify-failed`) as the document's `flightTrigger`
/// field. Returns the written path, or `None` when the env var is unset,
/// the recorder was never enabled, or the write failed (a dump must never
/// take the process down — it runs from panic hooks).
///
/// Dumps are serialized and each overwrites the previous one: the *last*
/// trigger before you look is the one you see, which is the forensic
/// contract (the window leading up to the most recent incident).
pub fn dump(trigger: &str) -> Option<PathBuf> {
    static DUMP_LOCK: Mutex<()> = Mutex::new(());
    let _g = DUMP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = PathBuf::from(std::env::var_os(FLIGHT_OUT_ENV)?);
    RING.get()?;
    let mut export = ChromeTrace::new();
    export.add_events(&snapshot());
    export.set_top_level("flightTrigger", JsonValue::from(trigger));
    export.set_top_level("flightDropped", JsonValue::from(dropped()));
    match export.write(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("smc-obs: flight dump to {} failed: {e}", path.display());
            None
        }
    }
}

/// Chains a panic hook that dumps the flight window (trigger `panic`)
/// before the previous hook runs. Idempotent per call site in practice —
/// calling it twice dumps twice, which is harmless (same file).
pub fn install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = dump("panic");
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, test_lock, Event, ShortLabel};

    #[test]
    fn flight_taps_emissions_without_ring_tracing() {
        let _g = test_lock();
        trace::disable();
        enable();
        trace::emit(Event::ReqStage {
            req: 0xf11647,
            stage: ShortLabel::new("conn"),
            nanos: 5,
        });
        let hit = snapshot()
            .iter()
            .any(|t| matches!(t.event, Event::ReqStage { req: 0xf11647, .. }));
        disable();
        assert!(hit, "flight records even while ring tracing is off");
        assert!(
            !trace::snapshot()
                .iter()
                .any(|t| matches!(t.event, Event::ReqStage { req: 0xf11647, .. })),
            "the per-thread rings stayed untouched"
        );
    }

    #[test]
    fn flight_wraps_and_counts_drops() {
        let _g = test_lock();
        enable();
        let before = dropped();
        let total = FLIGHT_CAPACITY as u64 + 50;
        for i in 0..total {
            trace::emit(Event::MorselDispatch {
                worker: 0xf1,
                morsel: i,
            });
        }
        let survivors = snapshot()
            .iter()
            .filter(|t| matches!(t.event, Event::MorselDispatch { worker: 0xf1, .. }))
            .count();
        disable();
        assert!(survivors <= FLIGHT_CAPACITY);
        assert!(
            survivors >= FLIGHT_CAPACITY - 64,
            "most of the window survives"
        );
        assert!(dropped() >= before + 50);
    }

    #[test]
    fn dump_without_env_is_a_noop() {
        let _g = test_lock();
        enable();
        // The test harness never sets SMC_FLIGHT_OUT; a dump with no
        // destination must return None without touching the filesystem.
        if std::env::var_os(FLIGHT_OUT_ENV).is_none() {
            assert_eq!(dump("test"), None);
        }
        disable();
    }

    #[test]
    fn disabled_recorder_snapshot_is_empty_before_first_enable() {
        // Can't assert RING is uninitialized (other tests share the
        // process), but snapshot() must never panic either way.
        let _ = snapshot();
        let _ = dropped();
    }
}
