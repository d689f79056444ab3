//! Array configuration: block size, EBR protocol ordering, accounting,
//! retry policy.

use rcuarray_ebr::OrderingMode;
use rcuarray_reclaim::{PressureConfig, StallPolicy};
use rcuarray_runtime::RetryPolicy;

/// The paper's benchmarks resize "in increments of 1024" with blocks of
/// that size; this is the default `BlockSize`.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Construction-time knobs for an `RcuArray`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Elements per block (`BlockSize` in Listing 1).
    pub block_size: usize,
    /// Memory ordering of the EBR reader protocol (ignored under QSBR).
    pub ordering: OrderingMode,
    /// Whether element accesses are charged through the cluster's
    /// communication layer, identically across all array variants. On a
    /// healthy shmem cluster an access, local or remote, is a few plain
    /// stores into the calling thread's own row of the comm tally, with
    /// no lock-prefixed instruction and no branch on locality; with a
    /// fault plan, a latency model or the mesh backend a remote access
    /// goes through the transport, which meters it the same way. No
    /// access touches a line another thread writes: the registry's
    /// `rcuarray_comm_*` and `rcuarray_transport_*` totals are summed
    /// from the rows at snapshot time.
    /// Disable it only for microbenchmarks that isolate the reclamation
    /// protocol itself.
    pub account_comm: bool,
    /// How fault-injected communication failures are retried (consulted by
    /// `read`/`write`/`resize` only when the cluster's fault plan is
    /// enabled; a healthy cluster never enters the retry path).
    pub retry: RetryPolicy,
    /// Maximum deferred reclamations executed per quiescence point under
    /// the amortized scheme (`AmortizedScheme`); other schemes ignore it.
    /// Bounds the latency spike a rarely-quiescing thread pays for its
    /// backlog (DEBRA-style amortization).
    pub drain_budget: usize,
    /// Memory bound on the reclamation backlog (DESIGN.md §9). Unbounded
    /// by default; with a bound installed, resizes past the high
    /// watermark help reclaim, and past the byte cap they refuse with
    /// `CommError::Backpressure` instead of growing the backlog.
    pub pressure: PressureConfig,
    /// Stalled-reader detection (DESIGN.md §9). Disabled by default;
    /// with a policy installed, a reader that lags the reclamation
    /// protocol beyond the bound is quarantined (QSBR family) or routed
    /// around via evacuation (EBR) so it cannot wedge reclamation.
    pub stall: StallPolicy,
    /// Copies of every block, including the primary (DESIGN.md §15).
    /// `1` (the default) reproduces the paper exactly: one home locale
    /// per block and no replica traffic. `k > 1` places each block on a
    /// primary plus `k - 1` replica locales: writes fan out to replicas
    /// (primary-ack, replica charges drained at checkpoints), reads
    /// fail over to a replica while the primary is `Down`, and the
    /// array survives the loss of up to `k - 1` locales without losing
    /// acknowledged writes. Must not exceed the cluster's locale count
    /// (checked at array construction).
    pub replication_factor: usize,
}

/// Default per-quiesce drain budget for `AmortizedScheme`: large enough
/// that steady-state workloads drain as fast as they defer, small enough
/// to bound a cold checkpoint's latency.
pub const DEFAULT_DRAIN_BUDGET: usize = 64;

impl Default for Config {
    fn default() -> Self {
        Config {
            block_size: DEFAULT_BLOCK_SIZE,
            ordering: OrderingMode::SeqCst,
            account_comm: true,
            retry: RetryPolicy::default(),
            drain_budget: DEFAULT_DRAIN_BUDGET,
            pressure: PressureConfig::unbounded(),
            stall: StallPolicy::disabled(),
            replication_factor: 1,
        }
    }
}

impl Config {
    /// Default configuration with a custom block size.
    pub fn with_block_size(block_size: usize) -> Self {
        Config {
            block_size,
            ..Config::default()
        }
    }

    /// Validate invariants (positive block size, sound ordering).
    pub fn validate(&self) {
        assert!(self.block_size > 0, "block_size must be positive");
        assert!(
            self.ordering.is_sound(),
            "the relaxed ordering mode is measurement-only and cannot \
             protect reclamation"
        );
        assert!(
            self.drain_budget > 0,
            "drain_budget must be positive: a quiesce that can never free \
             anything would leak by construction"
        );
        self.pressure.validate();
        assert!(
            self.replication_factor >= 1,
            "replication_factor counts every copy including the primary; \
             0 would place blocks nowhere"
        );
    }

    /// Round an element count up to a whole number of blocks, in elements.
    /// The paper covers "only expansion by multiples of BlockSize"
    /// (footnote 12); this library rounds other requests up.
    pub fn round_up_to_blocks(&self, elements: usize) -> usize {
        elements.div_ceil(self.block_size) * self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = Config::default();
        assert_eq!(c.block_size, 1024);
        assert_eq!(c.ordering, OrderingMode::SeqCst);
        assert!(c.account_comm);
        assert_eq!(c.drain_budget, DEFAULT_DRAIN_BUDGET);
        assert!(!c.pressure.is_bounded(), "unbounded backlog by default");
        assert!(!c.stall.detects_lag(), "stall detection off by default");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn inverted_pressure_watermark_rejected() {
        let c = Config {
            pressure: PressureConfig {
                max_backlog_bytes: 100,
                high_watermark: 200,
            },
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "drain_budget")]
    fn zero_drain_budget_rejected() {
        let c = Config {
            drain_budget: 0,
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    fn default_replication_is_one_and_zero_is_rejected() {
        assert_eq!(Config::default().replication_factor, 1);
        let c = Config {
            replication_factor: 0,
            ..Config::default()
        };
        let died = std::panic::catch_unwind(move || c.validate());
        assert!(died.is_err(), "rf=0 must fail validation");
    }

    #[test]
    fn round_up() {
        let c = Config::with_block_size(100);
        assert_eq!(c.round_up_to_blocks(0), 0);
        assert_eq!(c.round_up_to_blocks(1), 100);
        assert_eq!(c.round_up_to_blocks(100), 100);
        assert_eq!(c.round_up_to_blocks(101), 200);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_rejected() {
        Config::with_block_size(0).validate();
    }

    #[test]
    #[should_panic(expected = "measurement-only")]
    fn relaxed_ordering_rejected() {
        let c = Config {
            ordering: OrderingMode::Relaxed,
            ..Config::default()
        };
        c.validate();
    }
}
