//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw `u32` nanosecond samples and sorted once at the
//! end of a run, so a percentile carries no bucketing error
//! (`smc_obs::Histogram`'s log2 buckets alone are 6.25 % wide, more than
//! half of the 10 % regression bound).

use std::time::Duration;

/// A tail percentile is reported only for an op class with at least this
/// many samples in the run: p99 then has 200 samples beyond it.
pub const TAIL_MIN_SAMPLES: usize = 20_000;

/// Raw latency samples of one op class over the measured phase, in
/// nanoseconds. Anything over `u32::MAX` ns (4.29 s) saturates.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn record(&mut self, latency: Duration) {
        self.0
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds another thread's samples.
    pub fn merge(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Sorts the samples; call once, then read percentiles.
    pub fn sorted(mut self) -> SortedSamples {
        self.0.sort_unstable();
        SortedSamples(self.0)
    }
}

/// Samples after the final sort.
#[derive(Debug)]
pub struct SortedSamples(Vec<u32>);

impl SortedSamples {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Exact nearest-rank percentile in microseconds: the smallest sample
    /// with at least `p` percent of all samples at or below it. `None` when
    /// empty.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        // The epsilon keeps a product like 0.99 * 20 000 = 19 800.000000000004
        // from rounding up a rank.
        let rank = (p * self.0.len() as f64 / 100.0 - 1e-9).ceil() as usize;
        let idx = rank.clamp(1, self.0.len()) - 1;
        Some(f64::from(self.0[idx]) / 1e3)
    }

    pub fn p50_us(&self) -> Option<f64> {
        self.percentile_us(50.0)
    }

    /// p99, or `None` below [`TAIL_MIN_SAMPLES`].
    pub fn p99_us(&self) -> Option<f64> {
        if self.0.len() < TAIL_MIN_SAMPLES {
            return None;
        }
        self.percentile_us(99.0)
    }
}

/// Median of a list (mean of the middle pair for even lengths). `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (method "exclusive"), which is what the acceptance rule is
/// stated in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Per-window completion counts of a workload's primary op. The rate
/// reported is the median of the windows, so one disturbed window does not
/// move it.
#[derive(Debug, Clone)]
pub struct Windows {
    window: Duration,
    counts: Vec<u64>,
}

impl Windows {
    pub fn new(window: Duration, n: usize) -> Windows {
        Windows {
            window,
            counts: vec![0; n],
        }
    }

    /// Counts `n` ops completed `since_start` after the measured phase
    /// began; completions after the last window are not counted.
    pub fn add(&mut self, since_start: Duration, n: u64) {
        let i = (since_start.as_nanos() / self.window.as_nanos().max(1)) as usize;
        if let Some(count) = self.counts.get_mut(i) {
            *count += n;
        }
    }

    /// Adds another thread's counts window by window.
    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Ops per second of each window.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.window.as_secs_f64();
        self.counts.iter().map(|&c| c as f64 / secs).collect()
    }

    /// Median of the per-window rates.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates()).unwrap_or(0.0)
    }

    /// Median rate of the even windows over that of the odd ones: a traced
    /// run records spans in the even windows only, so this is what tracing
    /// costs.
    pub fn even_over_odd(&self) -> f64 {
        let of = |parity: usize| {
            let rates: Vec<f64> = self.rates().into_iter().skip(parity).step_by(2).collect();
            median(&rates).unwrap_or(0.0)
        };
        of(0) / of(1).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ns: impl IntoIterator<Item = u32>) -> SortedSamples {
        let mut s = Samples::default();
        for n in ns {
            s.record(Duration::from_nanos(u64::from(n)));
        }
        s.sorted()
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        // 1..=100 us: p50 is the 50th value, p99 the 99th, p100 the last.
        let s = samples((1..=100).rev().map(|us| us * 1000));
        assert_eq!(s.percentile_us(50.0), Some(50.0));
        assert_eq!(s.percentile_us(99.0), Some(99.0));
        assert_eq!(s.percentile_us(100.0), Some(100.0));
        assert_eq!(s.percentile_us(0.0), Some(1.0));
        // No interpolation: a value that was never observed is never reported.
        let s = samples([1000, 2000, 3000, 10_000]);
        assert_eq!(s.p50_us(), Some(2.0));
        assert_eq!(s.percentile_us(75.0), Some(3.0));
        assert_eq!(s.percentile_us(76.0), Some(10.0));
        assert_eq!(samples([]).p50_us(), None);
    }

    #[test]
    fn tail_needs_twenty_thousand_samples() {
        let few = samples((0..TAIL_MIN_SAMPLES as u32 - 1).map(|i| i + 1));
        assert!(few.p50_us().is_some());
        assert_eq!(few.p99_us(), None);
        let enough = samples((0..TAIL_MIN_SAMPLES as u32).map(|i| (i + 1) * 1000));
        assert_eq!(enough.p99_us(), Some(19_800.0));
    }

    #[test]
    fn samples_pool_across_threads_and_saturate() {
        let mut s = Samples::default();
        s.record(Duration::from_secs(10));
        let mut other = Samples::default();
        other.record(Duration::from_micros(3));
        other.record(Duration::from_micros(5));
        s.merge(other);
        assert_eq!(s.len(), 3);
        let s = s.sorted();
        assert_eq!(s.p50_us(), Some(5.0));
        assert_eq!(s.percentile_us(100.0), Some(f64::from(u32::MAX) / 1e3));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_windows_ignores_one_disturbed_window() {
        let mut w = Windows::new(Duration::from_secs(2), 5);
        for (i, n) in [1000u64, 1200, 10, 1100, 1005].into_iter().enumerate() {
            w.add(Duration::from_secs(2 * i as u64 + 1), n);
        }
        // Completions past the last window are dropped, not folded into it.
        w.add(Duration::from_secs(10), 1_000_000);
        assert_eq!(w.rates(), [500.0, 600.0, 5.0, 550.0, 502.5]);
        assert_eq!(w.median_rate(), 502.5);
        // even windows 500, 5, 502.5 -> 500; odd windows 600, 550 -> 575.
        assert_eq!(w.even_over_odd(), 500.0 / 575.0);

        let mut other = Windows::new(Duration::from_secs(2), 5);
        other.add(Duration::from_secs(5), 90);
        w.merge(&other);
        assert_eq!(w.rates()[2], 50.0);
    }
}
