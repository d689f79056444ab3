//! Log-bucketed (HDR-style) histograms.
//!
//! Values are `u64` (typically nanoseconds). Buckets cover the whole
//! range in constant memory: values below [`SUBS`] get exact unit
//! buckets; above that, each power of two is split into [`SUBS`] linear
//! sub-buckets, so relative error is bounded by `1/SUBS` everywhere.
//! Recording is one shard-free atomic increment — histograms count rare
//! events (checkpoint latencies, resize durations), not per-read ops.

use crate::registry::{entry, Lazy};
use rcuarray_analysis::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits: each power of two splits into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 2;

/// Sub-buckets per power of two (`2^SUB_BITS`).
pub const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`:
/// `SUBS` exact unit buckets + `(64 - SUB_BITS)` octaves × `SUBS`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Bucket index for a value. Total order: `bucket_index` is monotone in
/// `v` and every value maps into exactly one bucket (property-tested in
/// `tests/histogram_prop.rs`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    ((exp - SUB_BITS) as usize + 1) * SUBS + sub
}

/// Inclusive lower bound of bucket `i`. Buckets are contiguous:
/// bucket `i` holds exactly `[bucket_lo(i), bucket_lo(i+1))` (the last
/// bucket is unbounded above).
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i < SUBS {
        return i as u64;
    }
    let octave = (i / SUBS) as u32; // >= 1
    let sub = (i % SUBS) as u64;
    let exp = octave - 1 + SUB_BITS;
    (1u64 << exp) + (sub << (exp - SUB_BITS))
}

/// The histogram core: per-bucket atomic counts plus total count, sum
/// and max.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value: one bucket increment plus count/sum/max
    /// bookkeeping, all `Relaxed` (statistical data, no synchronization).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((i, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: sparse `(bucket index, count)` pairs plus
/// aggregates. Snapshots [merge](HistogramSnapshot::merge)
/// associatively, so per-shard or per-run histograms can be combined in
/// any grouping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Sorted, sparse `(bucket index, count)` pairs (only non-empty
    /// buckets).
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the lower bound of the
    /// bucket holding the `ceil(q * count)`-th value. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lo(i);
            }
        }
        self.max
    }

    /// Merge two snapshots bucket-wise. Commutative and associative
    /// (property-tested), so any combination order yields the same
    /// result.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        buckets.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        buckets.push((ia, na));
                        a.next();
                    } else {
                        buckets.push((ib, nb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    buckets.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    buckets.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets,
        }
    }
}

/// A statically declarable histogram handle; see [`Lazy`] for the
/// interning/disable contract.
pub type LazyHistogram = Lazy<Histogram>;

impl LazyHistogram {
    /// Record a value (no-op when telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        entry(self).core.record(v);
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        entry(self).core.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
        }
    }

    #[test]
    fn bucket_lo_is_a_fixed_point_of_bucket_index() {
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn boundaries_are_contiguous() {
        for i in 0..NUM_BUCKETS - 1 {
            let next_lo = bucket_lo(i + 1);
            assert_eq!(bucket_index(next_lo - 1), i, "upper edge of bucket {i}");
            assert_eq!(bucket_index(next_lo), i + 1);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn record_and_aggregate() {
        let h = Histogram::new();
        for v in [1u64, 1, 5, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_001_007);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.quantile(0.2), 1);
        assert!(s.quantile(1.0) <= 1_000_000);
        assert!(s.quantile(1.0) >= 786_432, "p100 in the max's bucket");
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        a.record(100);
        b.record(100);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        let idx100 = bucket_index(100);
        assert!(m.buckets.contains(&(idx100, 2)));
    }
}
