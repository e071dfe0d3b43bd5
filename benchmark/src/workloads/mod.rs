//! The four closed-loop workloads and what they share: the phase plan, the
//! set-up laps, the oracle tally and the process-level readings.

pub mod embed_churn;
pub mod embed_query;
pub mod serve_point;
pub mod spill_recover;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use smc_memory::MemoryStats;

use crate::metrics::Values;
use crate::stats;

/// Windows the measured phase is cut into; a rate is the median of theirs.
pub const WINDOWS: usize = 8;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_LAPS: usize = 3;

/// What one invocation asks of a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// The per-layer run: spans on, alternating by window, then the probes.
    pub traced: bool,
    /// A directory of the run's own, inside the build directory.
    pub scratch: PathBuf,
}

impl RunConfig {
    pub fn plan(&self) -> Plan {
        let measure = Duration::from_secs_f64(self.seconds);
        Plan {
            warmup: measure / 8,
            measure,
            window: measure / WINDOWS as u32,
        }
    }
}

/// Discarded warm-up, then the measured phase in [`WINDOWS`] windows.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub measure: Duration,
    pub window: Duration,
}

impl Plan {
    pub fn windows(&self) -> stats::Windows {
        stats::Windows::new(self.window, WINDOWS)
    }

    /// How far into the measured phase `since_start` is; `None` during the
    /// warm-up and after the last window.
    pub fn measured(&self, since_start: Duration) -> Option<Duration> {
        since_start
            .checked_sub(self.warmup)
            .filter(|at| *at < self.measure)
    }

    pub fn end(&self) -> Duration {
        self.warmup + self.measure
    }
}

/// In a traced run, spans are recorded in the even windows of the measured
/// phase only; the odd windows give the untraced rate of the same run.
pub fn trace_window(plan: &Plan, since_start: Duration) {
    let on = since_start >= plan.warmup
        && ((since_start - plan.warmup).as_nanos() / plan.window.as_nanos().max(1)) % 2 == 0;
    crate::trace::set_enabled(on);
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end cells, exactly the ones ticked for the workload.
    pub end_to_end: Values,
    /// Per-layer rows this workload is the home of; traced runs only.
    pub layers: Values,
    /// Ops attempted and failed over the whole run, oracles included.
    pub tally: Tally,
}

/// Runs the workload with that index in [`crate::metrics::WORKLOADS`].
pub fn run(workload: usize, cfg: &RunConfig) -> Outcome {
    match workload {
        crate::metrics::SERVE_POINT => serve_point::run(cfg),
        crate::metrics::EMBED_QUERY => embed_query::run(cfg),
        crate::metrics::EMBED_CHURN => embed_churn::run(cfg),
        crate::metrics::SPILL_RECOVER => spill_recover::run(cfg),
        other => panic!("no workload {other}"),
    }
}

/// The three `MemoryStats` counters every traced run reports the deltas of.
#[derive(Debug, Clone, Copy)]
pub struct MemoryCounters([u64; 3]);

impl MemoryCounters {
    const ROWS: [&'static str; 3] = [
        "memory.blocks_faulted",
        "memory.blocks_spilled",
        "memory.remote_frees",
    ];

    pub fn read(stats: &MemoryStats) -> MemoryCounters {
        MemoryCounters([
            MemoryStats::get(&stats.blocks_faulted_in),
            MemoryStats::get(&stats.blocks_spilled),
            MemoryStats::get(&stats.remote_frees),
        ])
    }

    /// Sets the three ladder rows to what was counted since `before`.
    pub fn set_deltas(&self, before: &MemoryCounters, layers: &mut Values) {
        for (row, (now, then)) in Self::ROWS.into_iter().zip(self.0.iter().zip(before.0)) {
            layers.set(row, (now - then) as f64);
        }
    }
}

/// Ops attempted and failed, with the first few failures kept as text.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    const KEPT: usize = 8;

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < Self::KEPT {
            self.failures.push(what());
        }
    }

    /// Counts one op, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < Self::KEPT {
                self.failures.push(f);
            }
        }
    }
}

/// Builds the workload's state [`SETUP_LAPS`] times, tearing down all but
/// the last, and returns the last with the median build time in seconds.
/// The run measures on the last build, so every run, traced or not, measures
/// on memory the process has already used once: the first touch of fresh
/// memory is where this sandbox varies most from run to run.
pub fn setup_laps<S>(mut build: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_LAPS);
    let mut state = None;
    for _ in 0..SETUP_LAPS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        state = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        state.expect("at least one lap ran"),
        stats::median(&times).expect("at least one lap ran"),
    )
}

/// `VmHWM` of this process in MB (10^6 bytes), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Hardware threads; generator threads plus connections stay within it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 64-byte row of `embed_churn` and `spill_recover`: every word is a
/// function of the key, so any reader can tell a torn or foreign row.
pub type WideRow = [u64; 8];

pub fn wide_row(key: u64) -> WideRow {
    let mut row = [0u64; 8];
    row[0] = key;
    for (i, w) in row.iter_mut().enumerate().skip(1) {
        *w = smc_util::rng::splitmix64(key ^ ((i as u64) << 56));
    }
    row
}

/// True when `row` is exactly what [`wide_row`] wrote for its key.
pub fn wide_row_ok(row: &WideRow) -> bool {
    // Checking two words catches a torn or stale row without making the
    // oracle cost more than the scan it rides on.
    row[1] == smc_util::rng::splitmix64(row[0] ^ (1 << 56))
        && row[7] == smc_util::rng::splitmix64(row[0] ^ (7 << 56))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_laps_reports_the_median_and_keeps_the_last() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (state, secs) = setup_laps(
            || {
                built += 1;
                std::thread::sleep(Duration::from_millis(if built == 2 { 30 } else { 5 }));
                built
            },
            |s| torn_down.push(s),
        );
        assert_eq!(state, 3);
        assert_eq!(torn_down, [1, 2]);
        assert!((0.005..0.030).contains(&secs), "{secs}");
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(true, || unreachable!());
        for i in 0..20 {
            t.fail(|| format!("op {i}"));
        }
        assert_eq!((t.attempted, t.failed), (22, 20));
        assert_eq!(t.failures.len(), Tally::KEPT);
    }

    #[test]
    fn wide_rows_check_themselves() {
        let mut row = wide_row(42);
        assert!(wide_row_ok(&row));
        row[7] ^= 1;
        assert!(!wide_row_ok(&row));
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn plan_splits_the_run() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 16.0,
            traced: false,
            scratch: PathBuf::new(),
        };
        let plan = cfg.plan();
        assert_eq!(plan.warmup, Duration::from_secs(2));
        assert_eq!(plan.window, Duration::from_secs(2));
        assert_eq!(plan.measured(Duration::from_secs(1)), None);
        assert_eq!(
            plan.measured(Duration::from_secs(5)),
            Some(Duration::from_secs(3))
        );
        assert_eq!(plan.measured(Duration::from_secs(18)), None);
    }
}
