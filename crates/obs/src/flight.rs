//! Flight recorder: the per-thread trace rings, dumped on demand for crash
//! forensics.
//!
//! The recorder is not a sink of its own. A process arms it by turning the
//! tracer on ([`crate::trace::enable`]): every thread then keeps its last
//! [`RING_CAPACITY`](crate::trace::RING_CAPACITY) events in its own ring,
//! and [`dump`] writes what the rings hold as a Chrome trace (plus
//! `flightTrigger` and `flightDropped` top-level fields) to the path named
//! by the **`SMC_FLIGHT_OUT`** environment variable. `smc-serve` arms it
//! for its whole life and dumps on panic ([`install_panic_hook`]),
//! SIGUSR1, SLO breach, and failed drain verify. A thread that exits hands
//! its ring to the next thread that emits, so the recorder's memory is one
//! ring per thread emitting at once.

use std::path::PathBuf;
use std::sync::Mutex;

use crate::chrome::ChromeTrace;
use crate::report::JsonValue;
use crate::trace;

/// Environment variable naming the dump destination. [`dump`] without it is
/// a no-op (recording still runs; there is just nowhere to write).
pub const FLIGHT_OUT_ENV: &str = "SMC_FLIGHT_OUT";

/// Dumps what the trace rings hold as a Chrome trace to the path named by
/// [`FLIGHT_OUT_ENV`], recording `trigger` (`panic`, `sigusr1`,
/// `slo-breach`, `drain-verify-failed`) as the document's `flightTrigger`
/// field and the rings' overwrites as `flightDropped`. Returns the written
/// path, or `None` when the env var is unset or the write failed (a dump
/// must never take the process down — it runs from panic hooks).
///
/// Dumps are serialized and each overwrites the previous one: the *last*
/// trigger before you look is the one you see, which is the forensic
/// contract (the window leading up to the most recent incident).
pub fn dump(trigger: &str) -> Option<PathBuf> {
    static DUMP_LOCK: Mutex<()> = Mutex::new(());
    let _g = DUMP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = PathBuf::from(std::env::var_os(FLIGHT_OUT_ENV)?);
    let mut export = ChromeTrace::from_ring_snapshot();
    export.set_top_level("flightTrigger", JsonValue::from(trigger));
    export.set_top_level("flightDropped", JsonValue::from(trace::dropped()));
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

    #[test]
    fn dump_without_env_is_a_noop() {
        // The test harness never sets SMC_FLIGHT_OUT; a dump with no
        // destination must return None without touching the filesystem.
        if std::env::var_os(FLIGHT_OUT_ENV).is_none() {
            assert_eq!(dump("test"), None);
        }
    }
}
