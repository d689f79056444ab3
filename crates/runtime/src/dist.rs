//! Index-to-locale distribution maps.
//!
//! * [`BlockDist`] — Chapel's standard `BlockDist`, used by the
//!   *ChapelArray*/*SyncArray* baselines: the index space is cut into one
//!   contiguous chunk per locale.
//! * [`RoundRobinCounter`] — the paper's `NextLocaleId` (Listing 1):
//!   RCUArray deals fixed-size blocks round-robin across locales at
//!   allocation time ("blocks of the array are distributed in a
//!   round-robin fashion similar to a block-cyclic distribution",
//!   paper §III-D); the block/offset math lives in `rcuarray`.

use crate::locale::LocaleId;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chapel-style block distribution: `n` indices split into `num_locales`
/// contiguous chunks, the first `n % num_locales` chunks one element
/// longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDist {
    n: usize,
    num_locales: usize,
}

impl BlockDist {
    /// Distribution of `n` indices over `num_locales` locales.
    ///
    /// # Panics
    /// Panics when `num_locales` is zero.
    pub fn new(n: usize, num_locales: usize) -> Self {
        assert!(num_locales > 0, "need at least one locale");
        BlockDist { n, num_locales }
    }

    /// Total number of indices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the index space is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The locale owning index `idx`.
    ///
    /// # Panics
    /// Panics when `idx >= len()`.
    #[inline]
    pub fn locale_of(&self, idx: usize) -> LocaleId {
        assert!(idx < self.n, "index {idx} out of bounds for {}", self.n);
        let base = self.n / self.num_locales;
        let rem = self.n % self.num_locales;
        // The first `rem` locales own `base + 1` elements each.
        let big = rem * (base + 1);
        let loc = if idx < big {
            idx / (base + 1)
        } else {
            rem + (idx - big) / base.max(1)
        };
        LocaleId::new(loc as u32)
    }

    /// The contiguous index range owned by `locale`.
    pub fn chunk_of(&self, locale: LocaleId) -> Range<usize> {
        let l = locale.index();
        assert!(l < self.num_locales, "locale {locale} outside distribution");
        let base = self.n / self.num_locales;
        let rem = self.n % self.num_locales;
        let start = if l < rem {
            l * (base + 1)
        } else {
            rem * (base + 1) + (l - rem) * base
        };
        let len = if l < rem { base + 1 } else { base };
        start..start + len
    }

    /// The offset of `idx` within its owner's chunk.
    #[inline]
    pub fn offset_within_chunk(&self, idx: usize) -> usize {
        let owner = self.locale_of(idx);
        idx - self.chunk_of(owner).start
    }
}

/// The paper's `NextLocaleId`: "a naive counter to handle distributing the
/// allocation of blocks across multiple locales in a block distributed
/// fashion". Writers advance it under the write lock; this type also
/// tolerates lock-free use.
#[derive(Debug)]
pub struct RoundRobinCounter {
    next: AtomicUsize,
    num_locales: usize,
}

impl RoundRobinCounter {
    /// A counter over `num_locales` locales starting at locale 0.
    pub fn new(num_locales: usize) -> Self {
        assert!(num_locales > 0);
        RoundRobinCounter {
            next: AtomicUsize::new(0),
            num_locales,
        }
    }

    /// The locale the next allocation should go to, without advancing.
    pub fn peek(&self) -> LocaleId {
        LocaleId::new((self.next.load(Ordering::Relaxed) % self.num_locales) as u32)
    }

    /// Take the next locale and advance.
    pub fn take(&self) -> LocaleId {
        let v = self.next.fetch_add(1, Ordering::Relaxed);
        LocaleId::new((v % self.num_locales) as u32)
    }

    /// Overwrite the counter position (paper Algorithm 3 line 28 stores the
    /// final `locId` back after a resize).
    pub fn set(&self, locale: LocaleId) {
        self.next.store(locale.index(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_dist_chunks_partition_the_space() {
        for n in [0usize, 1, 7, 10, 64, 100] {
            for locales in [1usize, 2, 3, 4, 7] {
                let d = BlockDist::new(n, locales);
                let mut covered = 0;
                let mut expected_start = 0;
                for l in 0..locales {
                    let chunk = d.chunk_of(LocaleId::new(l as u32));
                    assert_eq!(chunk.start, expected_start, "n={n} locales={locales}");
                    expected_start = chunk.end;
                    covered += chunk.len();
                }
                assert_eq!(covered, n, "chunks must cover exactly n");
            }
        }
    }

    #[test]
    fn block_dist_locale_of_agrees_with_chunks() {
        let d = BlockDist::new(10, 3);
        for idx in 0..10 {
            let owner = d.locale_of(idx);
            assert!(d.chunk_of(owner).contains(&idx), "idx={idx} owner={owner}");
        }
    }

    #[test]
    fn block_dist_balance_within_one() {
        let d = BlockDist::new(100, 7);
        let sizes: Vec<usize> = (0..7).map(|l| d.chunk_of(LocaleId::new(l)).len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?} not balanced");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_dist_rejects_oob() {
        BlockDist::new(4, 2).locale_of(4);
    }

    #[test]
    fn round_robin_counter_cycles() {
        let c = RoundRobinCounter::new(3);
        assert_eq!(c.peek(), LocaleId::new(0));
        assert_eq!(c.take(), LocaleId::new(0));
        assert_eq!(c.take(), LocaleId::new(1));
        assert_eq!(c.take(), LocaleId::new(2));
        assert_eq!(c.take(), LocaleId::new(0));
    }

    #[test]
    fn round_robin_counter_set_positions() {
        let c = RoundRobinCounter::new(4);
        c.set(LocaleId::new(3));
        assert_eq!(c.take(), LocaleId::new(3));
        assert_eq!(c.take(), LocaleId::new(0));
    }

    #[test]
    fn offset_within_chunk() {
        let d = BlockDist::new(10, 3); // chunks: 0..4, 4..7, 7..10
        assert_eq!(d.offset_within_chunk(0), 0);
        assert_eq!(d.offset_within_chunk(3), 3);
        assert_eq!(d.offset_within_chunk(4), 0);
        assert_eq!(d.offset_within_chunk(9), 2);
    }
}
