//! [`Histogram`]: a lock-free log-linear-bucket histogram in the
//! HDR-histogram family, sized for latencies (nanoseconds) and byte
//! counts.
//!
//! The bucket layout is the classic log-linear compromise: values below
//! [`SUBBUCKETS`] get one bucket each (exact), and every power-of-two
//! range above that is split into [`SUBBUCKETS`] linear sub-buckets, so
//! the relative width of any bucket is at most `1/SUBBUCKETS` (6.25%).
//! That bounds every reported percentile to within one bucket of the
//! true order statistic — precise enough to tell a 1.0 ms p99 from a
//! 1.1 ms p99 — while the whole `u64` range fits in [`BUCKETS`] slots
//! and recording is branch-light integer arithmetic plus one relaxed
//! `fetch_add`.
//!
//! Every mutator takes `&self` and touches only atomics, so one
//! histogram can be shared by any number of recording threads with no
//! lock; [`Histogram::merge_from`] additionally folds whole histograms
//! together (shard-per-thread then merge, if contention ever warrants
//! it). Readers take [`Histogram::snapshot`] — a plain-`u64` copy that
//! supports percentiles, deltas between two snapshots (per-phase
//! percentiles without resetting the live histogram), and exposition.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two range (and the count of exact
/// one-value buckets at the bottom). 16 sub-buckets bound the relative
/// bucket width at 6.25%.
pub const SUBBUCKETS: usize = 16;

/// Number of low bits that index within one power-of-two range.
const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();

/// Total bucket count covering the full `u64` value range: the exact
/// linear prefix plus `SUBBUCKETS` buckets for each exponent from
/// `SUB_BITS` to 63.
pub const BUCKETS: usize = SUBBUCKETS + SUBBUCKETS * (64 - SUB_BITS as usize);

/// Bucket index for a recorded value (total order, saturating only in
/// the sense that the top bucket's upper bound is `u64::MAX`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS as u64 {
        v as usize
    } else {
        // `v >= SUBBUCKETS` so the leading-zero count is at most
        // `63 - SUB_BITS` and the shift below never underflows.
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
        SUBBUCKETS + ((exp - SUB_BITS) as usize) * SUBBUCKETS + sub
    }
}

/// Smallest value mapping to bucket `idx`.
#[inline]
pub fn bucket_lo(idx: usize) -> u64 {
    if idx < SUBBUCKETS {
        idx as u64
    } else {
        let group = (idx - SUBBUCKETS) / SUBBUCKETS;
        let sub = ((idx - SUBBUCKETS) % SUBBUCKETS) as u64;
        (SUBBUCKETS as u64 + sub) << group
    }
}

/// Largest value mapping to bucket `idx` (the top bucket ends at
/// `u64::MAX`).
#[inline]
pub fn bucket_hi(idx: usize) -> u64 {
    if idx < SUBBUCKETS {
        idx as u64
    } else {
        let group = (idx - SUBBUCKETS) / SUBBUCKETS;
        bucket_lo(idx) + ((1u64 << group) - 1)
    }
}

/// A concurrent log-linear histogram, documented in this file's module comment.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("min", &s.min())
            .field("max", &s.max())
            .finish()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value: one relaxed `fetch_add` on the bucket plus
    /// the count/sum/min/max upkeep — no locks, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Count last: a reader that loads `count` first then `sum` sees
        // a sum covering at least `count` records (see `snapshot`).
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Sum of all recorded values (wrapping at `u64::MAX`, which a
    /// nanosecond total reaches after ~584 years of busy time).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds every record of `other` into `self`. Merging is bucket
    /// addition, so it is associative and commutative up to min/max,
    /// which fold exactly.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count
            .fetch_add(other.count.load(Ordering::Acquire), Ordering::Release);
    }

    /// Copies the current state into a plain snapshot.
    ///
    /// Load order is fixed and documented so derived views stay sane
    /// under concurrency: `count` is loaded first (acquire, recorded
    /// last by writers), then buckets/sum/min/max — so the snapshot's
    /// aggregates cover at least `count` records and percentile walks
    /// stop after `count` entries even while writers keep recording.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Value at quantile `q` of the live histogram — see
    /// [`HistogramSnapshot::value_at_quantile`].
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        self.snapshot().value_at_quantile(q)
    }

    /// Sets every bucket and aggregate back to zero. Not atomic as a
    /// whole: values recorded concurrently with a reset may be kept or
    /// dropped per-field (bench phases prefer snapshot deltas —
    /// [`HistogramSnapshot::delta_from`] — over resets for exactly
    /// that reason).
    pub fn reset(&self) {
        // Count first (inverse of `record`'s order): a concurrent
        // percentile walk sees count = 0 before buckets drain, so it
        // terminates immediately instead of reading half-cleared
        // buckets as a plausible distribution.
        self.count.store(0, Ordering::Release);
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`] — plain integers, cheap to
/// diff and query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts, [`BUCKETS`] entries.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`HistogramSnapshot::delta_from`]).
    pub fn empty() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: vec![0; BUCKETS] }
    }

    /// Smallest recorded value, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank value at quantile `q ∈ [0, 1]`: the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` record, clamped to the
    /// recorded maximum. Values below [`SUBBUCKETS`] are exact; above
    /// that the result is within one sub-bucket (≤ 6.25% relative) of
    /// the true order statistic.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return bucket_hi(idx).min(self.max);
            }
        }
        self.max
    }

    /// The records added between `earlier` and `self` — per-phase
    /// percentiles without resetting the live histogram. Counts
    /// subtract saturating, so a torn pair degrades to smaller deltas,
    /// never underflow; min/max are the later snapshot's (the interval
    /// extremes are not recoverable from totals).
    pub fn delta_from(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    /// Cumulative `(upper_bound, count_at_or_below)` pairs for every
    /// non-empty bucket — the Prometheus histogram exposition shape
    /// (the `+Inf` bucket is the caller's `count`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                cum = cum.saturating_add(n);
                out.push((bucket_hi(idx), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotonic_and_self_inverse() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1023,
            1024,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "{v} -> {idx}");
            assert!(bucket_lo(idx) <= v && v <= bucket_hi(idx), "{v} outside bucket {idx}");
            if let Some(prev) = last {
                assert!(idx >= prev, "bucket order broke at {v}");
            }
            last = Some(idx);
        }
        // Buckets tile the range: each hi + 1 == next lo.
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_hi(idx).wrapping_add(1), bucket_lo(idx + 1), "gap after {idx}");
        }
        assert_eq!(bucket_hi(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUBBUCKETS as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for p in 1..=SUBBUCKETS {
            let q = p as f64 / SUBBUCKETS as f64;
            assert_eq!(s.value_at_quantile(q), p as u64 - 1);
        }
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 15);
        assert_eq!(s.sum, (0..16).sum::<u64>());
    }

    #[test]
    fn quantiles_track_percentiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        let s = h.snapshot();
        let p50 = s.value_at_quantile(0.5);
        let p99 = s.value_at_quantile(0.99);
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.07, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.07, "{p99}");
        assert_eq!(s.value_at_quantile(1.0), 1_000_000);
        assert_eq!(s.max(), 1_000_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 99, 1_000_000, 17, 42, 8_000_000_000] {
            all.record(v);
        }
        for v in [3u64, 99, 1_000_000] {
            a.record(v);
        }
        for v in [17u64, 42, 8_000_000_000] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn delta_isolates_a_phase() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        for _ in 0..100 {
            h.record(5000);
        }
        let phase = h.snapshot().delta_from(&before);
        assert_eq!(phase.count, 100);
        let p50 = phase.value_at_quantile(0.5);
        assert!(bucket_index(p50) == bucket_index(5000), "{p50}");
    }

    #[test]
    fn empty_histogram_is_inert() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.value_at_quantile(0.99), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cumulative_buckets().is_empty());
    }
}
