//! Lock-free log-linear (HDR-style) histograms.
//!
//! The bucket layout is the classic log-linear compromise between a plain
//! linear histogram (unbounded bucket count) and a pure log histogram
//! (coarse at scale): values below [`SUB`] get one exact bucket each;
//! above that, each power-of-two magnitude tier is subdivided into
//! [`SUB`] linear sub-buckets, bounding the relative quantization error
//! at `1/SUB` (3.125%) across the whole `u64` range. With `SUB = 32`
//! that is 1 920 buckets — 15 KiB of `AtomicU64`s per histogram, paid
//! once per `(name, labels)` series.
//!
//! Recording is wait-free: one relaxed `fetch_add` on the bucket plus
//! relaxed updates of count/sum and a CAS loop only for the exact
//! min/max. Snapshots are consistent enough for percentile reporting
//! (each bucket is read atomically; a concurrent writer may straddle two
//! snapshots, which shifts a quantile by at most one sample).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two tier (and the width of the exact
/// region at the bottom of the range).
pub const SUB: usize = 32;
const SUB_BITS: u32 = SUB.trailing_zeros(); // 5
/// Total bucket count covering all of `u64`: the exact region plus one
/// tier of [`SUB`] sub-buckets per magnitude `SUB_BITS..=63`.
pub const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a value. Values `< SUB` map exactly; larger values map
/// to `SUB` linear sub-buckets inside their power-of-two tier.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let tier = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        SUB + tier * SUB + sub
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let tier = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        (SUB as u64 + sub as u64) << tier
    }
}

/// Exclusive upper bound of a bucket (saturating at `u64::MAX`).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64 + 1
    } else {
        let tier = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        (SUB as u64 + sub as u64 + 1).saturating_mul(1 << tier)
    }
}

/// A lock-free log-linear histogram of `u64` values (typically
/// nanoseconds or bits). Shared freely across threads behind an `Arc`.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
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
    /// An empty histogram.
    pub fn new() -> Self {
        // Array literals of non-Copy atomics: build via a Vec.
        let v: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; N_BUCKETS]> = match v.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("vector has exactly N_BUCKETS elements"),
        };
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one value if the telemetry gate is on; a no-op (one
    /// relaxed load) otherwise.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Records one value unconditionally (for callers that already
    /// checked the gate — a closing span — or tests).
    pub fn record_always(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Total values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; N_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the histogram in place.
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }
}

/// Immutable histogram state: percentile queries, merging (for combining
/// per-thread or per-shard histograms), and deltas between snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`N_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Exact largest recorded value (0 when empty).
    pub max: u64,
    /// Exact smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a representative value of the
    /// bucket holding that rank: the bucket midpoint, clamped by the
    /// exact min/max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based ceil so q=1.0 is the last.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = bucket_low(i) + (bucket_high(i) - bucket_low(i)) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another snapshot into this one (bucket-wise sum) — the
    /// cross-thread / cross-shard aggregation primitive.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Bucket-wise saturating difference `self - earlier`: the histogram
    /// of values recorded between the two snapshots. Min/max cannot be
    /// recovered for the window, so the delta keeps `self`'s (the
    /// conservative envelope).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            max: self.max,
            min: self.min,
        }
    }

    /// `(bucket_low, bucket_high, count)` for the non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (bucket_low(i), bucket_high(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_sorted_and_contiguous() {
        for i in 1..N_BUCKETS {
            assert_eq!(bucket_high(i - 1), bucket_low(i), "gap at bucket {i}");
            assert!(bucket_low(i) < bucket_high(i) || bucket_high(i) == u64::MAX);
        }
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_low(i) <= v && v < bucket_high(i), "v={v} bucket {i}");
        }
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        for v in [100u64, 10_000, 1_000_000, 123_456_789] {
            h.record_always(v);
            let q = h.snapshot().quantile(1.0);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "v={v} q={q} err={err}");
            h.clear();
        }
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record_always(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let (p50, p90, p99) = (s.p50(), s.p90(), s.p99());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max);
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.05, "p99={p99}");
        assert_eq!(s.quantile(0.0), s.min.max(bucket_low(bucket_index(1))));
        assert_eq!(s.quantile(1.0).max(s.max), s.max);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let (a, b, c) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..500u64 {
            a.record_always(v * 3);
            c.record_always(v * 3);
        }
        for v in 0..500u64 {
            b.record_always(v * 7 + 1);
            c.record_always(v * 7 + 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, c.snapshot());
    }

    #[test]
    fn since_isolates_a_window() {
        let h = Histogram::new();
        h.record_always(10);
        let before = h.snapshot();
        h.record_always(1_000);
        h.record_always(2_000);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 2);
        assert!(delta.quantile(0.5) >= 900, "delta p50 reflects the window");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_always(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count, 0);
    }
}
