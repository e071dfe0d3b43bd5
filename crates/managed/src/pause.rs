//! Pause accounting for the simulated collector.
//!
//! Fig 9 measures the longest mutator stall caused by garbage collection as
//! the live heap grows. The collector records every stop-the-world interval
//! here; benchmarks additionally measure stalls from the mutator side with
//! a sleeper thread, exactly as the paper does.
//!
//! Since the observability PR, the interval distribution lives in an
//! [`smc_obs::Histogram`] instead of ad-hoc count/total/max atomics: the
//! exact count, sum, and max the old bookkeeping provided fall out of the
//! histogram for free, and [`PauseReport`] additionally carries p50/p95/p99
//! (the numbers Fig 9 actually argues about).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use smc_obs::Histogram;

/// Aggregated collector pause statistics.
///
/// The stop-the-world interval distribution is held in a mergeable
/// [`Histogram`]; cycle/object counters remain plain atomics.
#[derive(Debug, Default)]
pub struct PauseStats {
    pauses_ns: Histogram,
    minor_collections: AtomicU64,
    major_collections: AtomicU64,
    objects_traced: AtomicU64,
    objects_swept: AtomicU64,
}

impl PauseStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one stop-the-world interval, in nanoseconds.
    pub fn record(&self, pause_ns: u64) {
        self.pauses_ns.record(pause_ns);
    }

    /// Records a completed collection cycle.
    pub fn record_cycle(&self, major: bool, traced: u64, swept: u64) {
        if major {
            self.major_collections.fetch_add(1, Ordering::Relaxed);
        } else {
            self.minor_collections.fetch_add(1, Ordering::Relaxed);
        }
        self.objects_traced.fetch_add(traced, Ordering::Relaxed);
        self.objects_swept.fetch_add(swept, Ordering::Relaxed);
    }

    /// The underlying pause-time histogram (nanoseconds), e.g. for merging
    /// into a benchmark-wide distribution or a
    /// [`Report`](smc_obs::Report).
    pub fn histogram(&self) -> &Histogram {
        &self.pauses_ns
    }

    /// Snapshot for reporting. Count, total, max, and mean are exact;
    /// p50/p95/p99 are bucket-resolved (≤ 1/16 relative error).
    pub fn report(&self) -> PauseReport {
        let s = self.pauses_ns.summary();
        PauseReport {
            pauses: s.count,
            total: Duration::from_nanos(s.sum),
            max: Duration::from_nanos(s.max),
            mean: Duration::from_nanos(s.mean),
            p50: Duration::from_nanos(s.p50),
            p95: Duration::from_nanos(s.p95),
            p99: Duration::from_nanos(s.p99),
            minor_collections: self.minor_collections.load(Ordering::Relaxed),
            major_collections: self.major_collections.load(Ordering::Relaxed),
            objects_traced: self.objects_traced.load(Ordering::Relaxed),
            objects_swept: self.objects_swept.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter (between benchmark phases).
    pub fn reset(&self) {
        self.pauses_ns.reset();
        self.minor_collections.store(0, Ordering::Relaxed);
        self.major_collections.store(0, Ordering::Relaxed);
        self.objects_traced.store(0, Ordering::Relaxed);
        self.objects_swept.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time pause summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseReport {
    /// Number of stop-the-world intervals.
    pub pauses: u64,
    /// Sum of all pause durations (exact).
    pub total: Duration,
    /// Longest single pause (exact).
    pub max: Duration,
    /// Mean pause duration (exact).
    pub mean: Duration,
    /// Median pause (bucket-resolved).
    pub p50: Duration,
    /// 95th-percentile pause (bucket-resolved).
    pub p95: Duration,
    /// 99th-percentile pause (bucket-resolved).
    pub p99: Duration,
    /// Minor (nursery) collections run.
    pub minor_collections: u64,
    /// Major (full-heap) collections run.
    pub major_collections: u64,
    /// Objects traced across all cycles.
    pub objects_traced: u64,
    /// Objects swept (reclaimed) across all cycles.
    pub objects_swept: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let s = PauseStats::new();
        s.record(100_000);
        s.record(300_000);
        s.record_cycle(false, 10, 4);
        s.record_cycle(true, 50, 20);
        let r = s.report();
        assert_eq!(r.pauses, 2);
        assert_eq!(r.max, Duration::from_micros(300));
        assert_eq!(r.mean, Duration::from_micros(200));
        assert_eq!(r.minor_collections, 1);
        assert_eq!(r.major_collections, 1);
        assert_eq!(r.objects_traced, 60);
        assert_eq!(r.objects_swept, 24);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let s = PauseStats::new();
        for micros in 1..=100u64 {
            s.record(micros * 1_000);
        }
        let r = s.report();
        assert_eq!(r.pauses, 100);
        // p99 resolves to a bucket whose bounds contain the exact value;
        // with 6.25% bucket error the bound below is safe.
        assert!(r.p99 >= Duration::from_micros(93), "p99 = {:?}", r.p99);
        assert!(r.p99 <= r.max);
        assert!(r.p50 >= Duration::from_micros(47));
        assert!(r.p50 <= Duration::from_micros(54));
        assert_eq!(s.histogram().count(), 100);
    }

    #[test]
    fn reset_zeroes() {
        let s = PauseStats::new();
        s.record(5_000_000);
        s.reset();
        let r = s.report();
        assert_eq!(r.pauses, 0);
        assert_eq!(r.max, Duration::ZERO);
        assert_eq!(r.p99, Duration::ZERO);
    }
}
