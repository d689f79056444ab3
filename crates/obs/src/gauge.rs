//! Gauges: a point-in-time signed value (backlog depths, epoch lag,
//! capacities). Unlike counters these are set/adjusted, not summed, so a
//! single padded atomic suffices — writers of a gauge are rare.

use crate::registry::{entry, Lazy};
use rcuarray_analysis::atomic::{AtomicI64, Ordering};

/// The gauge core: one cache-line-padded signed atomic.
#[repr(align(64))]
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A statically declarable gauge handle; see [`Lazy`] for the
/// interning/disable contract.
pub type LazyGauge = Lazy<Gauge>;

impl LazyGauge {
    /// Adjust by `delta` (no-op when telemetry is disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        entry(self).core.add(delta);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        entry(self).core.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }
}
