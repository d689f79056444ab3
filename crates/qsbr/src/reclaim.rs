//! The unified [`Reclaim`] trait implemented natively on [`QsbrDomain`],
//! plus [`AmortizedReclaim`] — the same protocol with a bounded
//! per-quiesce drain (DEBRA-style amortization).
//!
//! * Guard = `()`: QSBR reads are free by construction; `read_lock` only
//!   guarantees the calling thread participates in the minimum-epoch scan
//!   (an unregistered reader would be invisible and therefore
//!   unprotected).
//! * Retire = `QSBR_Defer`: push onto the calling thread's defer list,
//!   freed at a later quiescence point.
//! * Quiesce = `QSBR_Checkpoint`: announce quiescence and drain what is
//!   provably unreachable — everything for [`QsbrDomain`], at most
//!   `budget` entries for [`AmortizedReclaim`].

use crate::domain::QsbrDomain;
use rcuarray_reclaim::{PressureConfig, Reclaim, ReclaimStats, Retired};

/// Map a domain's counters into the scheme-neutral stats vocabulary.
///
/// QSBR counters live on the shared domain, not per handle, so the stats
/// are flagged `domain_wide`: merging per-locale clones takes the max
/// instead of summing the same numbers N times.
fn domain_stats(domain: &QsbrDomain, name_advances_from_checkpoints: bool) -> ReclaimStats {
    let s = domain.stats();
    ReclaimStats {
        guards: 0,
        guard_retries: 0,
        advances: if name_advances_from_checkpoints {
            s.checkpoints
        } else {
            0
        },
        retired: s.defers,
        reclaimed: s.reclaimed,
        pending: s.pending,
        pending_bytes: s.pending_bytes,
        // How far the slowest participant trails the state epoch right
        // now. Computed registry-side: probing stats must not register
        // the calling thread as a participant.
        epoch_lag: domain.epoch_lag(),
        // Cumulative quarantine events: every one is a participant the
        // domain declared stalled and force-parked.
        stalled: s.quarantines,
        // QSBR guards are free tokens; nothing to release on unwind.
        guard_panics: 0,
        domain_wide: true,
    }
}

impl Reclaim for QsbrDomain {
    type Guard<'a> = ();

    #[inline]
    fn read_lock(&self) -> Self::Guard<'_> {
        self.ensure_registered();
    }

    fn retire(&self, retired: Retired) {
        let (bytes, run) = retired.into_parts();
        self.defer_with_bytes(bytes, run);
    }

    #[inline]
    fn quiesce(&self) -> usize {
        self.checkpoint()
    }

    fn leave(&self) {
        self.unregister_current_thread();
    }

    #[inline]
    fn guards_reads(&self) -> bool {
        false
    }

    #[inline]
    fn name(&self) -> &'static str {
        "qsbr"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        domain_stats(self, true)
    }

    #[inline]
    fn pressure(&self) -> PressureConfig {
        self.pressure_config()
    }
}

/// QSBR with a bounded per-quiesce drain budget.
///
/// A plain QSBR checkpoint pays for the *entire* reclaimable backlog at
/// once, so a thread that checkpoints rarely takes a latency spike
/// proportional to how long it deferred. `AmortizedReclaim` caps that
/// cost: each [`quiesce`](Reclaim::quiesce) frees at most `budget`
/// entries (the oldest first) totalling at most `byte_budget` bytes,
/// spreading reclamation across calls — the amortization idea of DEBRA
/// (Brown, PODC 2015) expressed through the same [`QsbrDomain`]
/// machinery via [`QsbrDomain::checkpoint_budgeted_bytes`].
///
/// The byte budget is what makes the drain compose with
/// [`PressureConfig`]: both the cap and the drain are denominated in the
/// same byte hints, so "drain until under the watermark" terminates in a
/// predictable number of quiesces regardless of entry sizes.
#[derive(Clone, Debug)]
pub struct AmortizedReclaim {
    domain: QsbrDomain,
    budget: usize,
    byte_budget: usize,
}

impl AmortizedReclaim {
    /// A fresh domain draining at most `budget` entries per quiesce.
    /// A zero budget is clamped to 1: a quiesce that can never free
    /// anything would leak by construction.
    pub fn new(budget: usize) -> Self {
        Self::with_domain(QsbrDomain::new(), budget)
    }

    /// Wrap an existing (possibly shared) domain with a drain budget.
    pub fn with_domain(domain: QsbrDomain, budget: usize) -> Self {
        Self::with_budgets(domain, budget, usize::MAX)
    }

    /// Wrap an existing domain with both an entry and a byte budget per
    /// quiesce. Zero budgets are clamped to 1 / one-entry slack: a
    /// quiesce that can never free anything would leak by construction.
    pub fn with_budgets(domain: QsbrDomain, budget: usize, byte_budget: usize) -> Self {
        AmortizedReclaim {
            domain,
            budget: budget.max(1),
            byte_budget: byte_budget.max(1),
        }
    }

    /// The underlying shared domain.
    pub fn domain(&self) -> &QsbrDomain {
        &self.domain
    }

    /// The per-quiesce drain budget, in entries.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The per-quiesce drain budget, in bytes (`usize::MAX` = unbounded).
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }
}

impl Reclaim for AmortizedReclaim {
    type Guard<'a> = ();

    #[inline]
    fn read_lock(&self) -> Self::Guard<'_> {
        self.domain.ensure_registered();
    }

    fn retire(&self, retired: Retired) {
        let (bytes, run) = retired.into_parts();
        self.domain.defer_with_bytes(bytes, run);
    }

    #[inline]
    fn quiesce(&self) -> usize {
        self.domain
            .checkpoint_budgeted_bytes(self.budget, self.byte_budget)
    }

    fn leave(&self) {
        self.domain.unregister_current_thread();
    }

    #[inline]
    fn guards_reads(&self) -> bool {
        false
    }

    #[inline]
    fn name(&self) -> &'static str {
        "amortized"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        domain_stats(&self.domain, true)
    }

    #[inline]
    fn pressure(&self) -> PressureConfig {
        self.domain.pressure_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn retire_counting(r: &impl Reclaim, c: &Arc<AtomicUsize>) {
        let c = Arc::clone(c);
        r.retire(Retired::with_bytes(64, move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
    }

    #[test]
    fn qsbr_retire_defers_until_quiesce() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&d, &c);
        assert_eq!(c.load(Ordering::SeqCst), 0, "retire must not free eagerly");
        assert_eq!(d.quiesce(), 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
        assert!(!d.guards_reads());
        assert_eq!(Reclaim::name(&d), "qsbr");
    }

    #[test]
    fn qsbr_stats_are_domain_wide_with_byte_hints() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&d, &c);
        let s = d.reclaim_stats();
        assert!(s.domain_wide);
        assert_eq!(s.retired, 1);
        assert_eq!(s.pending, 1);
        assert_eq!(s.pending_bytes, 64);
        d.quiesce();
        let s = d.reclaim_stats();
        assert_eq!(s.reclaimed, 1);
        assert_eq!(s.pending, 0);
        assert_eq!(s.pending_bytes, 0);
    }

    #[test]
    fn qsbr_shared_domain_reclaims_across_clones() {
        let a = QsbrDomain::new();
        let b = a.clone();
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&a, &c);
        // A checkpoint through the *other* clone frees it: same domain.
        assert_eq!(b.quiesce(), 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn qsbr_epoch_lag_tracks_the_slowest_participant() {
        let d = QsbrDomain::new();
        d.register_current_thread();
        d.defer(|| {});
        d.defer(|| {});
        // Sole participant observed every bump, so lag is zero.
        assert_eq!(d.reclaim_stats().epoch_lag, 0);
        let d2 = d.clone();
        rcuarray_analysis::thread::spawn(move || {
            d2.register_current_thread();
            // Exits immediately; main keeps deferring below.
        })
        .join()
        .unwrap();
        d.defer(|| {});
        // Lag reflects registry state without registering the prober.
        let _ = d.reclaim_stats().epoch_lag;
    }

    #[test]
    fn amortized_quiesce_caps_the_drain() {
        let a = AmortizedReclaim::new(2);
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            retire_counting(&a, &c);
        }
        assert_eq!(a.quiesce(), 2);
        assert_eq!(a.quiesce(), 2);
        assert_eq!(a.quiesce(), 1);
        assert_eq!(a.quiesce(), 0);
        assert_eq!(c.load(Ordering::SeqCst), 5, "everything frees eventually");
        assert_eq!(a.name(), "amortized");
        assert!(!a.guards_reads());
    }

    #[test]
    fn amortized_shares_a_domain_with_plain_qsbr() {
        let d = QsbrDomain::new();
        let a = AmortizedReclaim::with_domain(d.clone(), 1);
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&a, &c);
        // A full checkpoint through the shared domain drains the entry the
        // amortized handle retired.
        assert_eq!(d.checkpoint(), 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
        assert!(a.reclaim_stats().domain_wide);
        assert_eq!(a.budget(), 1);
    }

    #[test]
    fn amortized_zero_budget_is_clamped() {
        let a = AmortizedReclaim::new(0);
        assert_eq!(a.budget(), 1, "budget 0 would leak by construction");
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&a, &c);
        assert_eq!(a.quiesce(), 1);
    }

    #[test]
    fn amortized_byte_budget_bounds_each_quiesce() {
        let a = AmortizedReclaim::with_budgets(QsbrDomain::new(), usize::MAX, 100);
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            retire_counting(&a, &c); // 64 bytes each
        }
        // 100 bytes fit one 64-byte entry; the second would cross.
        assert_eq!(a.quiesce(), 1);
        assert_eq!(a.quiesce(), 1);
        assert_eq!(a.byte_budget(), 100);
        while a.quiesce() > 0 {}
        assert_eq!(c.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn qsbr_pressure_flows_through_the_trait() {
        let d = QsbrDomain::new();
        d.set_pressure(rcuarray_reclaim::PressureConfig::bounded(256));
        assert_eq!(Reclaim::pressure(&d).max_backlog_bytes, 256);
        let a = AmortizedReclaim::with_domain(d.clone(), 4);
        assert_eq!(
            a.pressure().max_backlog_bytes,
            256,
            "shared domain, shared cap"
        );
    }

    #[test]
    fn qsbr_try_retire_backpressures_under_a_stalled_reader() {
        let d = QsbrDomain::new();
        d.set_pressure(rcuarray_reclaim::PressureConfig {
            max_backlog_bytes: 200,
            high_watermark: 100,
        });
        let gate = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let d2 = d.clone();
        let (g2, r2) = (Arc::clone(&gate), Arc::clone(&release));
        let staller = rcuarray_analysis::thread::spawn(move || {
            d2.register_current_thread();
            g2.wait();
            r2.wait();
            d2.checkpoint();
        });
        gate.wait();
        // Fill to the cap: the stalled reader gates every drain attempt.
        assert!(d.try_retire(Retired::with_bytes(200, || {})).is_ok());
        let err = d
            .try_retire(Retired::with_bytes(8, || {}))
            .expect_err("cap reached and nothing can drain");
        err.into_retired().run();
        // The reader quiesces: backpressure lifts.
        release.wait();
        staller.join().unwrap();
        assert!(d.try_retire(Retired::with_bytes(8, || {})).is_ok());
        d.checkpoint();
        assert_eq!(d.reclaim_stats().pending, 0);
    }

    #[test]
    fn read_lock_registers_the_calling_thread() {
        let d = QsbrDomain::new();
        let d2 = d.clone();
        rcuarray_analysis::thread::spawn(move || {
            d2.read_lock(); // guard is a free () token; registration is the effect
            assert!(d2.num_participants() >= 1);
        })
        .join()
        .unwrap();
    }
}
