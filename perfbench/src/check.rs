//! Output checks. A failed check aborts the run: no numbers are printed
//! for a program that answered wrongly.

use crate::rng::mix64;

/// The value every write to `idx` stores: a seed-derived tag, never 0,
/// so a read must return either 0 (never written) or exactly this.
#[inline]
pub fn tag(seed: u64, idx: usize) -> u64 {
    mix64(seed ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)) | 1
}

/// Whether `value`, read from `idx`, is a value the workload could have
/// stored there.
#[inline]
pub fn read_ok(seed: u64, idx: usize, value: u64) -> bool {
    value == 0 || value == tag(seed, idx)
}

/// A failed output check, with what was seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailed(pub String);

impl std::fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "output check failed: {}", self.0)
    }
}

/// `Err` unless `bad == 0`.
pub fn expect_no_bad_reads(stage: &str, bad: u64, reads: u64) -> Result<(), CheckFailed> {
    if bad == 0 {
        Ok(())
    } else {
        Err(CheckFailed(format!(
            "{stage}: {bad} of {reads} reads returned neither 0 nor the index's tag"
        )))
    }
}

/// `Err` unless the array grew by exactly `resizes` blocks.
pub fn expect_capacity(
    stage: &str,
    initial: usize,
    resizes: usize,
    block_size: usize,
    actual: usize,
) -> Result<(), CheckFailed> {
    let want = initial + resizes * block_size;
    if actual == want {
        Ok(())
    } else {
        Err(CheckFailed(format!(
            "{stage}: capacity {actual} after {resizes} resizes from {initial}, expected {want}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_nonzero_and_seed_dependent() {
        for i in 0..1000 {
            assert_ne!(tag(5, i), 0);
        }
        assert_ne!(tag(5, 3), tag(6, 3));
        assert_ne!(tag(5, 3), tag(5, 4));
    }

    #[test]
    fn validator_rejects_a_planted_wrong_read() {
        assert!(read_ok(9, 17, 0));
        assert!(read_ok(9, 17, tag(9, 17)));
        assert!(!read_ok(9, 17, tag(9, 18)), "another index's tag");
        assert!(!read_ok(9, 17, tag(10, 17)), "another seed's tag");
        assert!(!read_ok(9, 17, 1));
        assert!(expect_no_bad_reads("t", 1, 10).is_err());
    }

    #[test]
    fn capacity_check_counts_whole_blocks() {
        assert!(expect_capacity("t", 65536, 1024, 1024, 65536 + 1024 * 1024).is_ok());
        assert!(expect_capacity("t", 65536, 1024, 1024, 65536 + 1023 * 1024).is_err());
    }
}
