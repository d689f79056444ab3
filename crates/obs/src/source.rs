//! Snapshot-time sources: counter blocks their owners keep, read by the
//! registry when it snapshots.
//!
//! An event is counted once, in a cell its owner keeps anyway. The
//! owner registers that block once, at construction, and holds the
//! [`SourceHandle`]. The list holds the block, never the owner, so
//! owners still drop; a dropping handle folds the block's counters into
//! per-name retired totals and leaves the list in one critical section,
//! so a total never goes backwards and never counts an event twice.

use std::collections::BTreeMap;
use std::sync::Arc;

/// One value a [`Source`] reports, tagged with how it aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// A monotonic count: retired total plus the sum over live sources.
    Counter(u64),
    /// A live level, summed over live sources (zero when none is live).
    Gauge(i64),
    /// A live level, maximised over live sources (zero when none is live).
    MaxGauge(i64),
}

impl Reading {
    fn merge(&mut self, other: Reading) {
        match (self, other) {
            (Reading::Counter(a), Reading::Counter(b)) => *a = a.wrapping_add(b),
            (Reading::Gauge(a), Reading::Gauge(b)) => *a += b,
            (Reading::MaxGauge(a), Reading::MaxGauge(b)) => *a = (*a).max(b),
            (a, b) => debug_assert!(false, "one name reported as {a:?} and {b:?}"),
        }
    }

    fn zero(self) -> Reading {
        match self {
            Reading::Counter(_) => Reading::Counter(0),
            Reading::Gauge(_) => Reading::Gauge(0),
            Reading::MaxGauge(_) => Reading::MaxGauge(0),
        }
    }

    /// What a reading leaves behind once its source has left: counts
    /// stay, levels drop to zero.
    fn retired(self) -> Reading {
        match self {
            Reading::Counter(_) => self,
            _ => self.zero(),
        }
    }
}

/// Where a source reports: `emit(name, help, reading)`.
pub type Emit<'a> = &'a mut dyn FnMut(&'static str, &'static str, Reading);

/// A counter block an owner keeps and the registry reads at snapshot
/// time. `report` runs under the source list's lock: it may take the
/// owner's own locks but must never register or drop a source. A name
/// keeps one kind, and is never also an interned metric's.
pub trait Source: Send + Sync + 'static {
    /// Report every metric of this block.
    fn report(&self, emit: Emit<'_>);
}

type Totals = BTreeMap<&'static str, (&'static str, Reading)>;

fn add(totals: &mut Totals, name: &'static str, help: &'static str, r: Reading) {
    totals.entry(name).or_insert((help, r.zero())).1.merge(r);
}

/// The registry's source list: live blocks, plus per name ever seen the
/// counts of blocks that left (gauge names stay, at zero).
#[derive(Default)]
pub(crate) struct Sources {
    live: Vec<Arc<dyn Source>>,
    retired: Totals,
}

impl Sources {
    /// Every source metric: retired plus live counters, live gauges.
    pub(crate) fn collect(&mut self) -> Totals {
        let mut now = self.retired.clone();
        let Sources { live, retired } = self;
        for s in live.iter() {
            s.report(&mut |name, help, r| {
                add(retired, name, help, r.zero());
                add(&mut now, name, help, r);
            });
        }
        now
    }
}

/// An owner's registration on the global source list. Not `Clone`: one
/// handle per block, dropped with its owner. Derefs to the block.
pub struct SourceHandle<S: Source> {
    block: Arc<S>,
}

impl<S: Source> SourceHandle<S> {
    /// Put `block` on the global source list: one lock and one push, with
    /// no checker scheduling point while the lock is held.
    pub fn new(block: Arc<S>) -> Self {
        crate::registry().sources.lock().live.push(block.clone());
        SourceHandle { block }
    }

    /// The block, for owners that share it further.
    pub fn block(&self) -> &Arc<S> {
        &self.block
    }
}

impl<S: Source> std::ops::Deref for SourceHandle<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.block
    }
}

impl<S: Source + std::fmt::Debug> std::fmt::Debug for SourceHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.block.fmt(f)
    }
}

impl<S: Source> Drop for SourceHandle<S> {
    fn drop(&mut self) {
        // Read before locking: the owner is dropping, so nothing writes
        // the block any more, and a read may be a checker scheduling
        // point, which must not happen under the list's lock.
        let mut readings = Vec::new();
        self.block.report(&mut |n, h, r| readings.push((n, h, r)));
        let key = Arc::as_ptr(&self.block) as *const ();
        let mut sources = crate::registry().sources.lock();
        for (n, h, r) in readings {
            add(&mut sources.retired, n, h, r.retired());
        }
        let at = sources
            .live
            .iter()
            .position(|s| Arc::as_ptr(s) as *const () == key);
        let listed = at.map(|at| sources.live.swap_remove(at));
        drop(sources);
        // Dropped unlocked: the block may own state whose drop runs
        // arbitrary code.
        drop(listed);
    }
}

/// How many blocks the global source list holds (tests: it must not
/// grow with the number of owners ever built).
pub fn live_sources() -> usize {
    crate::registry().sources.lock().live.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Block {
        hits: AtomicU64,
        level: AtomicU64,
    }

    impl Source for Block {
        fn report(&self, emit: Emit<'_>) {
            let hits = self.hits.load(Ordering::Relaxed);
            emit("obs_source_test_total", "hits", Reading::Counter(hits));
            let level = self.level.load(Ordering::Relaxed) as i64;
            emit("obs_source_test_level", "level", Reading::Gauge(level));
            emit("obs_source_test_max", "max", Reading::MaxGauge(level));
        }
    }

    fn read() -> (Option<u64>, Option<i64>, Option<i64>) {
        let s = crate::snapshot();
        (
            s.counter("obs_source_test_total"),
            s.gauge("obs_source_test_level"),
            s.gauge("obs_source_test_max"),
        )
    }

    #[test]
    fn sources_report_live_and_keep_retired_counts() {
        let a = SourceHandle::new(Arc::new(Block::default()));
        let b = SourceHandle::new(Arc::new(Block::default()));
        a.hits.fetch_add(3, Ordering::Relaxed);
        a.level.store(2, Ordering::Relaxed);
        b.hits.fetch_add(4, Ordering::Relaxed);
        b.level.store(5, Ordering::Relaxed);
        assert_eq!(read(), (Some(7), Some(7), Some(5)));
        drop(b);
        assert_eq!(read(), (Some(7), Some(2), Some(2)), "counts stay");
        a.hits.fetch_add(1, Ordering::Relaxed);
        drop(a);
        assert_eq!(read(), (Some(8), Some(0), Some(0)), "names outlive sources");
        let s = crate::snapshot();
        let mut names: Vec<_> = s.metrics.iter().map(|m| m.name()).collect();
        names.dedup();
        assert_eq!(names.len(), s.metrics.len(), "one entry per name");
    }
}
