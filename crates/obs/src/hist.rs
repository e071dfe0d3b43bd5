//! Log2-bucketed, mergeable latency histograms (HDR-style).
//!
//! A [`Histogram`] is a fixed-size array of atomic counters — no allocation
//! at record time, `const`-constructible (so it can live in a `static`), and
//! mergeable across threads by bucket-wise addition. Values are bucketed by
//! their power of two with [`SUB_BUCKETS`] linear sub-buckets per power, so
//! any reported quantile is within `1/SUB_BUCKETS` (6.25 %) of the true
//! value; values below [`SUB_BUCKETS`] are exact. The observed sum, maximum
//! and minimum are tracked exactly alongside the buckets, so `mean()` and
//! `max()` carry no bucketing error.
//!
//! This is the pause/latency substrate required by the evaluation: GC and
//! compaction pauses (Fig 9) and per-query latencies are recorded here and
//! reported as p50/p95/p99 in the `BENCH_*.json` files.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power of two (16 → ≤ 6.25 % quantile error).
pub const SUB_BUCKETS: usize = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: usize = 4;
/// Total bucket count covering the full `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS) * SUB_BUCKETS + SUB_BUCKETS;

/// A lock-free, fixed-footprint, mergeable log2 histogram of `u64` samples
/// (by convention: nanoseconds).
///
/// ```
/// use smc_obs::hist::Histogram;
///
/// let h = Histogram::new();
/// for v in [100, 200, 300, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 10_000);
/// // p50 lands in the bucket containing 300 (≤ 6.25 % wide).
/// let p50 = h.percentile(50.0);
/// assert!((281..=320).contains(&p50), "{p50}");
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram. `const`, so histograms can be `static`:
    /// recording never allocates.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Index of the bucket holding `v`: exact below [`SUB_BUCKETS`], then
    /// `SUB_BUCKETS` linear sub-buckets per power of two.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize;
            let sub = (v >> (msb - SUB_BITS)) as usize; // in [16, 32)
            (msb - SUB_BITS) * SUB_BUCKETS + sub
        }
    }

    /// Smallest value mapping to bucket `i` (inverse of
    /// [`bucket_index`](Self::bucket_index)).
    pub fn bucket_low(i: usize) -> u64 {
        if i < 2 * SUB_BUCKETS {
            i as u64
        } else {
            let msb = i / SUB_BUCKETS + SUB_BITS - 1;
            let sub = (i % SUB_BUCKETS + SUB_BUCKETS) as u64;
            sub << (msb - SUB_BITS)
        }
    }

    /// Largest value mapping to bucket `i`.
    pub fn bucket_high(i: usize) -> u64 {
        if i + 1 >= NUM_BUCKETS {
            u64::MAX
        } else {
            Self::bucket_low(i + 1) - 1
        }
    }

    /// Records one sample. Lock-free: one `fetch_add` on the bucket plus the
    /// exact count/sum/max/min updates, all relaxed.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        match self.min.load(Ordering::Relaxed) {
            u64::MAX => 0,
            v => v,
        }
    }

    /// Exact mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Value at or below which `p` percent of samples fall, reported as the
    /// containing bucket's upper bound (≤ 6.25 % above the true quantile)
    /// clamped to the exact observed maximum. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 100.0) / 100.0 * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_high(i).min(self.max());
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Adds every sample of `other` into `self` (bucket-wise). This is how
    /// per-thread or per-run histograms combine into one report.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes every bucket and statistic.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }

    /// Point-in-time summary (the shape serialized into `BENCH_*.json`).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
        }
    }
}

/// Plain-value percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: u64,
    /// Exact minimum sample.
    pub min: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Exact mean sample.
    pub mean: u64,
    /// Median, within one bucket (≤ 6.25 %).
    pub p50: u64,
    /// 95th percentile, within one bucket.
    pub p95: u64,
    /// 99th percentile, within one bucket.
    pub p99: u64,
}

impl std::fmt::Display for Summary {
    /// `count=… p50=… p95=… p99=… max=…`, durations rendered in ms.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |n: u64| n as f64 / 1e6;
        write!(
            f,
            "count={} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
            self.count,
            ms(self.p50),
            ms(self.p95),
            ms(self.p99),
            ms(self.max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_low(v as usize), v);
            assert_eq!(Histogram::bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotonic() {
        // Every bucket's low bound is one past the previous bucket's high
        // bound, across the sub-bucket and power-of-two transitions.
        for i in 1..NUM_BUCKETS - 1 {
            assert_eq!(
                Histogram::bucket_low(i),
                Histogram::bucket_high(i - 1) + 1,
                "gap at bucket {i}"
            );
        }
        // Spot-check the documented transitions.
        assert_eq!(Histogram::bucket_index(15), 15);
        assert_eq!(Histogram::bucket_index(16), 16);
        assert_eq!(Histogram::bucket_index(31), 31);
        assert_eq!(Histogram::bucket_index(32), 32);
        assert_eq!(Histogram::bucket_index(33), 32, "32 and 33 share a bucket");
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn every_value_lands_within_its_bucket_bounds() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + 1, v.saturating_mul(3) / 2] {
                let i = Histogram::bucket_index(probe);
                assert!(
                    Histogram::bucket_low(i) <= probe,
                    "{probe} below bucket {i}"
                );
                assert!(
                    probe <= Histogram::bucket_high(i),
                    "{probe} above bucket {i}"
                );
            }
            v *= 2;
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Bucket width / low bound ≤ 1/16 for values ≥ 2 * SUB_BUCKETS.
        let mut v = 32u64;
        while v < 1 << 60 {
            let i = Histogram::bucket_index(v);
            let width = Histogram::bucket_high(i) - Histogram::bucket_low(i) + 1;
            assert!(
                (width as f64) / (Histogram::bucket_low(i) as f64) <= 1.0 / 16.0 + 1e-12,
                "bucket {i} too wide: {width} at {v}"
            );
            v = v.saturating_mul(7) / 3;
        }
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let h = Histogram::new();
        // 1..=100 → p50 ≈ 50, p95 ≈ 95, p99 ≈ 99; all within one bucket.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.mean(), 50);
        let within = |got: u64, want: u64| {
            let i = Histogram::bucket_index(want);
            (Histogram::bucket_low(i)..=Histogram::bucket_high(i)).contains(&got)
        };
        assert!(within(h.p50(), 50), "p50={}", h.p50());
        assert!(within(h.p95(), 95), "p95={}", h.p95());
        assert!(within(h.p99(), 99), "p99={}", h.p99());
        // p100 is the exact maximum; p0 still returns a value ≥ min.
        assert_eq!(h.percentile(100.0), 100);
        assert!(h.percentile(0.0) >= 1);
    }

    #[test]
    fn percentile_clamped_to_exact_max() {
        let h = Histogram::new();
        h.record(1_000_003); // bucket upper bound is far above the sample
        assert_eq!(h.p50(), 1_000_003);
        assert_eq!(h.p99(), 1_000_003);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.summary(), Summary::default());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [10u64, 20, 30] {
            a.record(v);
        }
        for v in [1u64, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 1_000_061);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.min(), 1);
        // Merged percentiles see both populations.
        assert!(a.p50() <= 30);
        assert!(a.p99() >= 900_000);
        // b is untouched.
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn merge_is_bucketwise_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let merged = Histogram::new();
        for v in 0..1000u64 {
            let h = if v % 2 == 0 { &a } else { &b };
            h.record(v * 17);
            merged.record(v * 17);
        }
        a.merge(&b);
        for p in [1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), merged.percentile(p), "p{p}");
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record_n(42, 10);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.p99(), 0);
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 7);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 97);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn summary_display_renders_ms() {
        let h = Histogram::new();
        h.record(2_000_000); // 2 ms
        let s = h.summary().to_string();
        assert!(s.contains("count=1"), "{s}");
        assert!(s.contains("max=2.000ms"), "{s}");
    }

    #[test]
    fn duration_recording() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(5));
        assert_eq!(h.max(), 5_000);
    }
}
