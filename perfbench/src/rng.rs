//! Seeded integer PRNG and the draws the workloads need.
//!
//! SplitMix64: one add and two multiply-xorshift rounds per draw, cheap
//! enough to sit on a 50 ns hot path. Every stream is a pure function of
//! `(seed, stream)`, so the same `--seed` replays the same inputs.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// The SplitMix64 finalizer: a bijective 64-bit mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x632B_E59B_D9B4_E019)),
        ))
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// One op of the 90/10 mix: an index uniform over `keys` (a power of
    /// two) and whether the op is a write (one in ten).
    #[inline]
    pub fn mix_op(&mut self, keys: usize) -> (usize, bool) {
        let r = self.next_u64();
        (
            (r & (keys as u64 - 1)) as usize,
            (r >> 40).is_multiple_of(10),
        )
    }

    /// An exponential inter-arrival gap with mean `mean_ns`, from one
    /// 53-bit integer draw: `-ln(1 - u) * mean` with `u` in `[0, 1)`.
    /// The gaps of a Poisson arrival process.
    pub fn exp_gap_ns(&mut self, mean_ns: f64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (-(1.0 - u).ln() * mean_ns) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn exp_gaps_have_the_requested_mean() {
        let mut r = Rng::new(3, 0);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| r.exp_gap_ns(10_000.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10_000.0).abs() < 150.0, "mean gap {mean}");
    }
}
