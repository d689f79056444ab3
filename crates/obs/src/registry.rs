//! The global metric registry: interns statically-declared handles
//! (deduped by name) and produces point-in-time snapshots for the sinks.
//!
//! Registration is rare (once per metric per process) and goes through a
//! mutex; the hot path never touches the registry — handles cache an
//! interned `&'static` entry in a `OnceLock`. Events an owner already
//! tallies in cells of its own are reported through the source list
//! instead ([`crate::Source`]): the registry reads those cells at
//! snapshot time, so the event path touches no registry line at all.

use crate::counter::Counter;
use crate::gauge::Gauge;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::ring::Event;
use crate::source::{Reading, Sources};
use rcuarray_analysis::sync::Mutex;
use std::sync::OnceLock;

/// An interned metric: name, help text and its core.
pub struct Entry<T> {
    /// Metric name (Prometheus conventions).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The metric's core.
    pub core: T,
}

/// A statically declarable metric handle over a core `T`
/// ([`LazyCounter`](crate::LazyCounter), [`LazyGauge`](crate::LazyGauge),
/// [`LazyHistogram`](crate::LazyHistogram)).
///
/// The first touch interns the metric in the global registry (deduped by
/// name); later touches are a pointer chase. When telemetry is
/// [disabled](crate::disable) every recording call is a single `Relaxed`
/// load and an early return.
pub struct Lazy<T: 'static> {
    name: &'static str,
    help: &'static str,
    slot: OnceLock<&'static Entry<T>>,
}

impl<T> Lazy<T> {
    /// Declare a metric. `name` should follow Prometheus conventions
    /// (`snake_case`, a `_total` suffix for counters).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Lazy {
            name,
            help,
            slot: OnceLock::new(),
        }
    }
}

/// The entry a lazy handle stands for, interned on first use.
pub(crate) fn entry<T: Interned>(lazy: &Lazy<T>) -> &'static Entry<T> {
    lazy.slot
        .get_or_init(|| crate::registry().intern(lazy.name, lazy.help))
}

/// A metric core the registry interns, and the list that holds it.
pub(crate) trait Interned: Default + Sized + 'static {
    fn list(inner: &mut Inner) -> &mut Vec<&'static Entry<Self>>;
}

impl Interned for Counter {
    fn list(inner: &mut Inner) -> &mut Vec<&'static Entry<Self>> {
        &mut inner.counters
    }
}

impl Interned for Gauge {
    fn list(inner: &mut Inner) -> &mut Vec<&'static Entry<Self>> {
        &mut inner.gauges
    }
}

impl Interned for Histogram {
    fn list(inner: &mut Inner) -> &mut Vec<&'static Entry<Self>> {
        &mut inner.histograms
    }
}

#[derive(Default)]
pub(crate) struct Inner {
    counters: Vec<&'static Entry<Counter>>,
    gauges: Vec<&'static Entry<Gauge>>,
    histograms: Vec<&'static Entry<Histogram>>,
}

/// The metric registry. One global instance lives behind
/// [`registry()`]; entries are interned for the process lifetime
/// (leaked), which is what lets handles hold `&'static` references with
/// no reference counting on the hot path.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    /// The snapshot-time source list. A plain lock, not the facade's:
    /// owners register and leave inside checker sessions, and neither
    /// does anything under it that the checker schedules.
    pub(crate) sources: parking_lot::Mutex<Sources>,
}

impl Registry {
    /// An empty registry (tests; production uses [`registry()`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Intern a metric by name (first declaration wins; later handles
    /// with the same name share the metric).
    pub(crate) fn intern<T: Interned>(
        &self,
        name: &'static str,
        help: &'static str,
    ) -> &'static Entry<T> {
        let mut inner = self.inner.lock();
        let list = T::list(&mut inner);
        if let Some(e) = list.iter().find(|e| e.name == name) {
            return e;
        }
        let entry: &'static Entry<T> = Box::leak(Box::new(Entry {
            name,
            help,
            core: T::default(),
        }));
        list.push(entry);
        entry
    }

    /// Snapshot every registered metric, sorted by name, plus the
    /// current tracing-ring contents. Source metrics are reported as
    /// ordinary counters and gauges, whether or not telemetry is
    /// [enabled](crate::enabled): they read cells their owners keep
    /// anyway.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut metrics =
            Vec::with_capacity(inner.counters.len() + inner.gauges.len() + inner.histograms.len());
        for e in &inner.counters {
            metrics.push(MetricValue::Counter {
                name: e.name,
                help: e.help,
                value: e.core.value(),
            });
        }
        for e in &inner.gauges {
            metrics.push(MetricValue::Gauge {
                name: e.name,
                help: e.help,
                value: e.core.value(),
            });
        }
        for e in &inner.histograms {
            metrics.push(MetricValue::Histogram {
                name: e.name,
                help: e.help,
                value: e.core.snapshot(),
            });
        }
        // Sources take their owners' locks: read them with the interned
        // metrics unlocked.
        drop(inner);
        for (name, (help, r)) in self.sources.lock().collect() {
            metrics.push(match r {
                Reading::Counter(value) => MetricValue::Counter { name, help, value },
                Reading::Gauge(value) | Reading::MaxGauge(value) => {
                    MetricValue::Gauge { name, help, value }
                }
            });
        }
        metrics.sort_by_key(|m| m.name());
        Snapshot {
            metrics,
            spans: crate::trace_events(),
        }
    }
}

/// One metric's point-in-time value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter {
        /// Metric name.
        name: &'static str,
        /// Help text.
        help: &'static str,
        /// Current total.
        value: u64,
    },
    /// A point-in-time gauge.
    Gauge {
        /// Metric name.
        name: &'static str,
        /// Help text.
        help: &'static str,
        /// Current value.
        value: i64,
    },
    /// A log-bucketed histogram.
    Histogram {
        /// Metric name.
        name: &'static str,
        /// Help text.
        help: &'static str,
        /// Frozen contents.
        value: HistogramSnapshot,
    },
}

impl MetricValue {
    /// The metric's name.
    pub fn name(&self) -> &'static str {
        match self {
            MetricValue::Counter { name, .. }
            | MetricValue::Gauge { name, .. }
            | MetricValue::Histogram { name, .. } => name,
        }
    }
}

/// A point-in-time view of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All registered metrics, sorted by name.
    pub metrics: Vec<MetricValue>,
    /// Recent tracing spans from every thread's ring.
    pub spans: Vec<Event>,
}

impl Snapshot {
    /// Look up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Counter { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Look up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Gauge { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Histogram { name: n, value, .. } if *n == name => Some(value),
            _ => None,
        })
    }
}

/// The process-wide registry all lazy handles intern into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_by_name() {
        let r = Registry::new();
        let a = r.intern::<Counter>("x_total", "x");
        let b = r.intern::<Counter>("x_total", "other help ignored");
        assert!(std::ptr::eq(a, b));
        a.core.add(1);
        assert_eq!(b.core.value(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.intern::<Counter>("z_total", "z").core.add(9);
        r.intern::<Gauge>("a_gauge", "a").core.set(-2);
        let s = r.snapshot();
        let names: Vec<_> = s.metrics.iter().map(|m| m.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(s.counter("z_total"), Some(9));
        assert_eq!(s.gauge("a_gauge"), Some(-2));
        assert_eq!(s.counter("missing"), None);
    }
}
