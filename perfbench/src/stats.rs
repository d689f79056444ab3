//! Exact quantiles over raw samples.
//!
//! Samples are kept raw (no histogram buckets: `obs::Histogram` steps
//! about 20% between buckets, coarser than the bounds the benchmark
//! enforces) and sorted once at the end of a run.

/// A quantile as reported: the percentile actually used, the value and
/// the number of samples it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Requested quantile, lowered when too few samples lie beyond it.
    pub q: f64,
    /// Estimated value, in the samples' unit.
    pub value: f64,
    /// Samples the estimate was drawn from.
    pub n: usize,
}

/// Samples a tail quantile must leave beyond it to be reported as such.
pub const TAIL_SUPPORT: usize = 10;

/// Quantile `q` of `sorted` (ascending): the mean of the order
/// statistics within ±0.25% of rank around the nearest rank. Averaging a
/// narrow rank window keeps the estimate exact to the samples while
/// giving it sub-nanosecond resolution, so integer timer ticks do not
/// quantize run-to-run comparisons.
///
/// `q` is lowered to the highest quantile that still has
/// [`TAIL_SUPPORT`] samples beyond it; the returned [`Quantile::q`]
/// says which one was used.
pub fn quantile(sorted: &[u64], q: f64) -> Quantile {
    let n = sorted.len();
    if n == 0 {
        return Quantile {
            q,
            value: f64::NAN,
            n,
        };
    }
    let supported = if n > 2 * TAIL_SUPPORT {
        (n - TAIL_SUPPORT) as f64 / n as f64
    } else {
        0.5
    };
    let q = q.min(supported);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let w = n / 400;
    let lo = rank.saturating_sub(w);
    let hi = (rank + w).min(n - 1);
    let sum: f64 = sorted[lo..=hi].iter().map(|&v| v as f64).sum();
    Quantile {
        q,
        value: sum / (hi - lo + 1) as f64,
        n,
    }
}

/// Median of `values` (NaN when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Merge per-thread sample buffers and sort them.
pub fn merge_sorted<'a>(parts: impl IntoIterator<Item = &'a [u32]>) -> Vec<u64> {
    let mut all: Vec<u64> = parts.into_iter().flatten().map(|&v| u64::from(v)).collect();
    all.sort_unstable();
    all
}

/// A fixed-capacity raw sample buffer owned by one thread: recording is
/// one bounds check and a store, never an allocation or a shared write.
/// Samples past the capacity (far more than a stage takes) are not kept.
/// Samples are `u32` (ns up to 4.29 s, saturating) to halve the buffer's
/// share of the process's memory.
#[derive(Debug)]
pub struct SampleBuf {
    buf: Vec<u32>,
}

impl SampleBuf {
    /// A buffer for up to `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        SampleBuf {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Record `v` unless the buffer is full.
    #[inline]
    pub fn push(&mut self, v: u64) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(v.min(u32::MAX as u64) as u32);
        }
    }

    /// The samples recorded.
    pub fn samples(&self) -> &[u32] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_windows_are_exact_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5).value, 50.0);
        // p99 of 100 samples has one sample beyond it: lowered to p90.
        let p = quantile(&v, 0.99);
        assert_eq!(p.q, 0.9);
        assert_eq!(p.value, 90.0);
    }

    #[test]
    fn large_samples_keep_p99_and_average_a_rank_window() {
        let v: Vec<u64> = (0..100_000).collect();
        let p = quantile(&v, 0.99);
        assert_eq!(p.q, 0.99);
        assert_eq!(p.n, 100_000);
        assert!((p.value - 98_999.0).abs() < 1.0, "{}", p.value);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sample_buf_never_grows() {
        let mut b = SampleBuf::with_capacity(2);
        for i in 0..5 {
            b.push(i);
        }
        assert_eq!(b.samples(), &[0, 1]);
    }
}
