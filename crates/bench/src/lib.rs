//! # smc-bench — the paper's figures and the operator tools
//!
//! One `figures` binary regenerates the evaluation: `figures <id>` runs a
//! row of [`figures::FIGURES`] (`fig06` … `fig13`), prints its series as
//! pipe tables — what EXPERIMENTS.md pastes — writes `BENCH_<id>.json` and
//! exits by the figure's checks, which are the paper's claims
//! (`tests/paper_claims.rs` runs the same eight at test scale). Beside it
//! live the operator tools — `smc-serve`, `smc-loadgen` and `smc-top` —
//! which share the helpers below. Per-operation and end-to-end
//! *measurement* is not here: that is the gated benchmark in `benchmark/`.

#![warn(missing_docs)]

use std::path::PathBuf;

pub use smc_obs::{JsonValue, Report, SeriesId};

pub mod figures;

/// Enables the structured tracer when `SMC_TRACE_OUT` names a destination
/// file. Call at the top of `main`, before the workload; [`finish`] (or
/// [`trace_lost`]) later drains the rings into a Chrome `trace_event` file
/// at the path. A no-op when the variable is unset, so the disabled-tracer
/// fast path stays untouched.
pub fn init_tracing() {
    if std::env::var_os("SMC_TRACE_OUT").is_some() {
        smc_obs::trace::enable();
    }
}

/// What one [`drain_trace`] exported.
struct TraceExport {
    /// Timeline records written (thread and drop metadata do not count).
    events: u64,
    /// Events the per-thread rings overwrote before the drain.
    dropped: u64,
    /// Why [`validate`](smc_obs::chrome::validate) rejected the export.
    malformed: Option<String>,
}

impl TraceExport {
    /// The tracer-honesty rule: an empty export beside non-zero ring drops
    /// means the tracer recorded work and the export lost all of it, so the
    /// "empty" trace is a lie.
    fn silently_empty(&self) -> bool {
        self.events == 0 && self.dropped > 0
    }
}

/// Drains the trace rings into the Chrome trace file named by
/// `SMC_TRACE_OUT`, validates it, and says so on stderr (stdout may be a
/// tool's JSON); `None` when the variable is unset. The one trace writer
/// under every binary in this crate.
fn drain_trace() -> Option<TraceExport> {
    let path = PathBuf::from(std::env::var_os("SMC_TRACE_OUT")?);
    let trace = smc_obs::ChromeTrace::from_ring_snapshot();
    let shape = smc_obs::chrome::validate(&trace.to_json());
    let export = TraceExport {
        events: shape.as_ref().map_or(0, |shape| shape.timeline as u64),
        dropped: smc_obs::trace::dropped(),
        malformed: shape.err(),
    };
    match trace.write(&path) {
        Ok(()) => eprintln!(
            "trace: {} ({} events, {} dropped)",
            path.display(),
            export.events,
            export.dropped
        ),
        Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
    }
    if let Some(e) = &export.malformed {
        eprintln!("trace {} is malformed: {e}", path.display());
    }
    Some(export)
}

/// The trace export of a tool that has no [`Report`] (`smc-serve`): writes
/// the trace and returns true — having said so on stderr — when it is
/// malformed or silently empty, which the tool turns into a non-zero exit.
/// Report binaries get the same rules from [`finish`] as the
/// `trace_well_formed` and `trace_not_silently_empty` checks.
pub fn trace_lost() -> bool {
    let lost = drain_trace().is_some_and(|t| t.malformed.is_some() || t.silently_empty());
    if lost {
        eprintln!("FAILED: the trace is malformed, or empty while the rings dropped events");
    }
    lost
}

/// The trace export of a report binary: the `trace_events` /
/// `trace_events_dropped` counters, the drops itemized per ring, and the
/// `trace_well_formed` and `trace_not_silently_empty` checks. Called by
/// [`finish`].
fn export_trace(report: &mut Report) {
    let Some(export) = drain_trace() else {
        return;
    };
    report.counter("trace_events", export.events);
    report.counter("trace_events_dropped", export.dropped);
    let verdict = export.malformed.as_deref().unwrap_or("passes validate");
    report.check("trace_well_formed", export.malformed.is_none(), verdict);
    report.check(
        "trace_not_silently_empty",
        !export.silently_empty(),
        format!(
            "{} events exported, {} dropped by the rings",
            export.events, export.dropped
        ),
    );
    // Itemize the drops per ring so a lossy trace names the thread that
    // overflowed rather than one opaque total (mirrors the per-ring
    // metadata records the Chrome export carries).
    let by_thread = smc_obs::trace::dropped_by_thread();
    if !by_thread.is_empty() {
        let id = report.series("trace_drops_by_thread", &["thread", "dropped"]);
        for (thread, dropped) in by_thread {
            report.push_row(
                id,
                vec![
                    JsonValue::Num(thread as f64),
                    JsonValue::Num(dropped as f64),
                ],
            );
        }
    }
}

/// `--name value` in `args`: `Ok(None)` when the flag is absent, the parsed
/// value when present, and an error naming the flag when the value is
/// missing or does not parse — never a silent default.
fn arg_in<T>(
    args: &[String],
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let v = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    parse(v)
        .map(Some)
        .ok_or_else(|| format!("{name}: cannot parse {v:?}"))
}

/// Integers are decimal or `0x` hex — the form the tools print seeds in, so
/// a printed seed replays as typed.
fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Parses `--name value` from argv with `parse`, falling back to `default`
/// only when the flag is absent; a bad or missing value is a usage error
/// (exit 2, naming the flag).
pub fn arg_parsed<T>(name: &str, default: T, parse: impl Fn(&str) -> Option<T>) -> T {
    let args: Vec<String> = std::env::args().collect();
    match arg_in(&args, name, parse) {
        Ok(v) => v.unwrap_or(default),
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2)
        }
    }
}

/// Parses an integer `--name value` over the full `u64` range (seeds).
pub fn arg_u64(name: &str, default: u64) -> u64 {
    arg_parsed(name, default, parse_u64)
}

/// Parses an integer `--name value`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_parsed(name, default, |v| parse_u64(v)?.try_into().ok())
}

/// The raw `--name value`, if the flag is present.
pub fn arg_string(name: &str) -> Option<String> {
    arg_parsed(name, None, |v| Some(Some(v.to_string())))
}

/// True if the flag is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Prints a CSV record with the `csv,` prefix the harness greps for.
pub fn csv(fields: &[&str]) {
    println!("csv,{}", fields.join(","));
}

/// Exports the Chrome trace (when `SMC_TRACE_OUT` is set), writes the report
/// JSON — even when checks failed; that is the point: CI archives the
/// artifact — and exits 0 when no check failed, 1 on a failed check, 2 when
/// the report could not be written. `figures` and `smc-loadgen` end
/// through here, so the exit code is the gate and every bench emits its
/// trace file alongside `BENCH_*.json` with no per-binary wiring.
pub fn finish(report: &mut Report) -> ! {
    export_trace(report);
    match report.write() {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => {
            eprintln!("failed to write report: {e}");
            std::process::exit(2);
        }
    }
    for (name, why) in report.unmeasured_checks() {
        println!("check unmeasured: {name}: {why}");
    }
    let failed = report.failed_checks();
    for (name, detail) in &failed {
        eprintln!("CHECK FAILED: {name}: {detail}");
    }
    std::process::exit(i32::from(!failed.is_empty()))
}

/// Graceful-shutdown signal handling for long-running binaries
/// (`smc-serve`, `smc-top`, `smc-loadgen`): [`install_signal_handler`]
/// registers an async-signal-safe handler for SIGINT and SIGTERM that only
/// sets a flag; the main loop polls [`interrupted`] and winds down in order
/// — quiesce the maintenance coordinator, drain the tracer rings to
/// `SMC_TRACE_OUT`, write the report — instead of dying mid-pass. Zero dependencies: the handler is
/// registered through libc's `signal`, which Rust's std already links.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    static USR1: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: the full shutdown runs on the main thread.
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    extern "C" fn on_usr1(_signum: i32) {
        USR1.store(true, Ordering::Relaxed);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SIGUSR1 is 10 on Linux but 30 on the BSD lineage (macOS included).
    #[cfg(target_os = "linux")]
    const SIGUSR1: i32 = 10;
    #[cfg(not(target_os = "linux"))]
    const SIGUSR1: i32 = 30;

    /// Routes SIGINT and SIGTERM to a flag instead of process abort.
    pub fn install_signal_handler() {
        unsafe {
            let handler = on_signal as *const () as usize;
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Routes SIGUSR1 to a separate flag; the main loop polls
    /// [`usr1_requested`] and dumps the flight recorder — the handler itself
    /// only stores, so it stays async-signal-safe.
    pub fn install_usr1_handler() {
        unsafe {
            signal(SIGUSR1, on_usr1 as *const () as usize);
        }
    }

    /// True once SIGINT or SIGTERM has been received.
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::Relaxed)
    }

    /// Drains the SIGUSR1 flag: true exactly once per delivered signal.
    pub fn usr1_requested() -> bool {
        USR1.swap(false, Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod signals {
    /// No-op on non-unix targets: the default ^C behavior applies.
    pub fn install_signal_handler() {}

    /// No-op on non-unix targets: there is no SIGUSR1.
    pub fn install_usr1_handler() {}

    /// Always false on non-unix targets.
    pub fn interrupted() -> bool {
        false
    }

    /// Always false on non-unix targets.
    pub fn usr1_requested() -> bool {
        false
    }
}

pub use signals::{install_signal_handler, install_usr1_handler, interrupted, usr1_requested};

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn integers_parse_as_integers_in_decimal_and_hex() {
        let a = args(&["tool", "--seed", "0x7a69", "--ops", "5000"]);
        assert_eq!(arg_in(&a, "--seed", parse_u64), Ok(Some(31337)));
        assert_eq!(arg_in(&a, "--ops", parse_u64), Ok(Some(5000)));
        assert_eq!(arg_in(&a, "--rounds", parse_u64), Ok(None), "absent");
        // Every u64 survives: 2^53 + 1 is the first integer an f64 rounds.
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let a = args(&["tool", "--seed", &seed.to_string()]);
            assert_eq!(arg_in(&a, "--seed", parse_u64), Ok(Some(seed)));
            let a = args(&["tool", "--seed", &format!("{seed:#x}")]);
            assert_eq!(arg_in(&a, "--seed", parse_u64), Ok(Some(seed)));
        }
    }

    #[test]
    fn bad_or_missing_values_are_errors_naming_the_flag() {
        for bad in ["banana", "5k", "1.5", "-3", "0x", "0xzz", ""] {
            let a = args(&["tool", "--seed", bad]);
            let err = arg_in(&a, "--seed", parse_u64).unwrap_err();
            assert!(err.contains("--seed"), "{bad:?}: {err}");
        }
        let err = arg_in(&args(&["tool", "--ops"]), "--ops", parse_u64).unwrap_err();
        assert!(err.contains("--ops"), "{err}");
    }

    #[test]
    fn figures_takes_one_id_and_two_flags_and_names_anything_else() {
        use figures::parse_args;
        let (fig, scale) = parse_args(&args(&["fig11"])).unwrap();
        assert_eq!((fig.id, scale), ("fig11", fig.default));
        let a = args(&["fig07", "--objects", "0x10", "--sf", "3"]);
        let (fig, scale) = parse_args(&a).unwrap();
        assert_eq!((fig.id, scale.sf, scale.objects), ("fig07", 3.0, 16));
        let ids = "fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13";
        let cases: [(&[&str], &str); 9] = [
            (&[], ids),
            (&["fig14"], ids),
            (&["--sf", "0.1"], "\"--sf\""),
            (&["fig11", "--sf0.05"], "\"--sf0.05\""),
            (&["fig11", "--SF", "3"], "\"--SF\""),
            (&["fig11", "fig12"], "\"fig12\""),
            (&["fig11", "--sf"], "--sf needs a value"),
            (&["fig11", "--sf", "-1"], "--sf: cannot parse"),
            (&["fig06", "--objects", "many"], "--objects: cannot parse"),
        ];
        for (words, named) in cases {
            let err = parse_args(&args(words)).map(|_| ()).unwrap_err();
            assert!(err.contains(named), "{words:?}: {err}");
        }
    }
}
