//! The EBR, QSBR and array totals are read at snapshot time from the
//! cells their owners keep (DESIGN.md §7). They must equal what the
//! owners report through `stats()`, whether an owner is live or dropped
//! and whether telemetry is enabled or not; they must never go
//! backwards while owners come and go; and every name must appear once
//! per snapshot.
//!
//! One `#[test]` only: the totals are process-wide, so no other owner
//! may run in this binary while the deltas are checked.

use rcuarray::{EbrScheme, QsbrScheme};
use rcuarray_ebr::ZoneStats;
use rcuarray_obs::{live_sources, MetricValue};
use rcuarray_qsbr::DomainStats;
use rcuarray_reclaim::Retired;
use rcuarray_repro::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

const NAMES: [&str; 16] = [
    "rcuarray_ebr_pin_retries_total",
    "rcuarray_ebr_advances_total",
    "rcuarray_ebr_stalled_waits_total",
    "rcuarray_ebr_evacuations_drained_total",
    "rcuarray_ebr_guard_panics_total",
    "rcuarray_qsbr_defers_total",
    "rcuarray_qsbr_checkpoints_total",
    "rcuarray_qsbr_reclaimed_total",
    "rcuarray_qsbr_reclaimed_bytes_total",
    "rcuarray_qsbr_quarantines_total",
    "rcuarray_qsbr_rejoins_total",
    "rcuarray_resizes_total",
    "rcuarray_resize_aborts_total",
    "rcuarray_blocks_recycled_total",
    "rcuarray_failover_reads_total",
    "rcuarray_rereplication_bytes_total",
];

/// The levels read live at snapshot time.
const GAUGES: [&str; 7] = [
    "rcuarray_qsbr_epoch_lag",
    "rcuarray_qsbr_defer_backlog_entries",
    "rcuarray_qsbr_defer_backlog_bytes",
    "rcuarray_qsbr_quarantined_readers",
    "rcuarray_capacity",
    "rcuarray_replica_lag_bytes",
    "rcuarray_transport_queue_depth",
];

/// The sixteen totals in one snapshot, in [`NAMES`] order, after
/// checking that no name appears twice.
fn reported() -> [u64; 16] {
    let s = rcuarray_obs::snapshot();
    let mut names: Vec<_> = s.metrics.iter().map(MetricValue::name).collect();
    names.dedup();
    assert_eq!(names.len(), s.metrics.len(), "a name appears twice");
    NAMES.map(|n| s.counter(n).unwrap_or(0))
}

fn delta(after: [u64; 16], before: [u64; 16]) -> [u64; 16] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// What a set of owners reported themselves, in [`NAMES`] order.
#[derive(Default, Clone, Copy)]
struct Seen([u64; 16]);

impl Seen {
    fn add(&mut self, at: usize, values: &[u64]) {
        for (k, v) in values.iter().enumerate() {
            self.0[at + k] += v;
        }
    }

    fn zone(&mut self, z: ZoneStats) {
        let ZoneStats {
            retries,
            advances,
            stalled,
            evac_drained,
            guard_panics,
            ..
        } = z;
        self.add(0, &[retries, advances, stalled, evac_drained, guard_panics]);
    }

    fn domain(&mut self, d: DomainStats) {
        let DomainStats {
            defers,
            checkpoints,
            reclaimed,
            reclaimed_bytes,
            quarantines,
            rejoins,
            ..
        } = d;
        self.add(
            5,
            &[
                defers,
                checkpoints,
                reclaimed,
                reclaimed_bytes,
                quarantines,
                rejoins,
            ],
        );
    }

    /// An array's own totals plus its reclamation engine's: the QSBR
    /// domain's stats, or the EBR zones' through `ArrayStats::reclaim`.
    fn array<S: Scheme>(&mut self, a: &RcuArray<u64, S>) {
        let s = a.stats();
        self.add(
            11,
            &[
                s.resizes,
                s.aborted_resizes,
                s.blocks_recycled,
                s.failover_reads,
                s.rereplicated_bytes,
            ],
        );
        match a.qsbr_domain() {
            Some(d) => self.domain(d.stats()),
            None => {
                let r = s.reclaim;
                // Arrays run without a stall policy: no zone stalls, so
                // none evacuates.
                assert_eq!(r.stalled, 0, "{r:?}");
                self.add(0, &[r.guard_retries, r.advances, 0, 0, r.guard_panics]);
            }
        }
    }
}

fn cfg() -> Config {
    Config {
        block_size: 8,
        account_comm: true,
        ..Config::default()
    }
}

/// Grow, write, read, checkpoint, and panic one read past the end.
fn drive<S: Scheme>(a: &RcuArray<u64, S>, rounds: usize) {
    for r in 0..rounds {
        a.resize(16);
        for i in 0..a.capacity() {
            a.write(i, (i + r) as u64);
        }
        for i in 0..a.capacity() {
            assert_eq!(a.read(i), (i + r) as u64);
        }
        a.checkpoint();
    }
    let past_end = a.capacity() + 1_000;
    assert!(catch_unwind(AssertUnwindSafe(|| a.read(past_end))).is_err());
}

/// An RF=2 array on the mesh backend: two resize attempts fault and
/// roll back, then a locale dies, reads fail over and repair copies the
/// stranded replicas.
fn failover<S: Scheme>(seen: &mut Seen) {
    let plan = FaultPlan::new(7).trigger("resize.lock", 0, 2, FaultAction::Error);
    let c = Cluster::builder()
        .topology(Topology::new(3, 2))
        .fault_plan(plan)
        .backend(TransportKind::Mesh)
        .build();
    let a: RcuArray<u64, S> = RcuArray::with_config(
        &c,
        Config {
            replication_factor: 2,
            retry: RetryPolicy::new(8, Duration::from_secs(5)),
            ..cfg()
        },
    );
    a.resize(24);
    for i in 0..24 {
        a.write(i, i as u64);
    }
    c.fault().set_down(LocaleId::new(1), true);
    c.probe_membership();
    c.probe_membership();
    for i in 0..24 {
        assert_eq!(a.read(i), i as u64);
    }
    assert!(a.repair_replicas() > 0);
    a.checkpoint();
    let s = a.stats();
    assert!(s.aborted_resizes > 0 && s.failover_reads > 0, "{s:?}");
    seen.array(&a);
}

/// A zone whose pins race epoch advances until one retries; whose
/// writer then stalls behind a pinned reader, evacuates, and drains once
/// the reader leaves; and whose last guard is released by a panic.
fn busy_zone() -> EpochZone {
    let zone = EpochZone::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                zone.synchronize();
            }
        });
        for _ in 0..10_000_000 {
            if zone.stats().retries > 0 {
                break;
            }
            drop(zone.read_lock());
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(zone.stats().retries > 0, "no pin ever retried");
    zone.set_stall_policy(StallPolicy::after(1, 64));
    let guard = zone.read_lock();
    zone.retire(Retired::with_bytes(128, || {}));
    drop(guard);
    assert_eq!(zone.quiesce(), 1);
    let r = catch_unwind(AssertUnwindSafe(|| {
        let _guard = zone.read_lock();
        panic!("reader dies pinned");
    }));
    assert!(r.is_err());
    zone
}

/// A domain that quarantines a stalled participant, which then rejoins.
fn stalled_domain() -> QsbrDomain {
    let d = QsbrDomain::new();
    d.set_stall_policy(StallPolicy::after(1, 2));
    let (registered, release) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            d.register_current_thread();
            registered.wait();
            release.wait();
            d.checkpoint(); // rejoins
        });
        registered.wait();
        d.defer_with_bytes(64, || {});
        for _ in 0..64 {
            if d.num_quarantined() > 0 {
                break;
            }
            d.checkpoint();
        }
        assert_eq!(d.num_quarantined(), 1, "the staller is quarantined");
        release.wait();
    });
    d.checkpoint();
    d
}

/// Live, dropped and failed-over owners of both schemes; the dropped
/// ones run with telemetry disabled.
fn totals_are_exact() {
    let before = reported();
    let mut seen = Seen::default();
    let c = Cluster::builder().locales(3).build();
    let kept_ebr: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    let kept_qsbr: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    drive(&kept_ebr, 3);
    drive(&kept_qsbr, 3);
    let kept_zone = busy_zone();

    rcuarray_obs::disable();
    let dropped_ebr: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    let dropped_qsbr: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    drive(&dropped_ebr, 2);
    drive(&dropped_qsbr, 2);
    seen.array(&dropped_ebr);
    seen.array(&dropped_qsbr);
    drop((dropped_ebr, dropped_qsbr));
    let zone = busy_zone();
    seen.zone(zone.stats());
    drop(zone);
    let domain = stalled_domain();
    seen.domain(domain.stats());
    drop(domain);
    rcuarray_obs::enable();

    failover::<EbrScheme>(&mut seen);
    failover::<QsbrScheme>(&mut seen);

    seen.array(&kept_ebr);
    seen.array(&kept_qsbr);
    seen.zone(kept_zone.stats());
    let want = seen.0;
    assert!(
        want.iter().all(|&v| v > 0),
        "every total saw events: {want:?}"
    );
    assert_eq!(delta(reported(), before), want, "enabled: {NAMES:?}");
    rcuarray_obs::disable();
    assert_eq!(delta(reported(), before), want, "disabled: {NAMES:?}");
    rcuarray_obs::enable();

    // Every former registry mirror is still reported, with its kind.
    let s = rcuarray_obs::snapshot();
    for name in NAMES.iter().chain(&[
        "rcuarray_comm_retries_total",
        "rcuarray_comm_faults_injected_total",
    ]) {
        assert!(s.counter(name).is_some(), "{name} is a counter");
    }
    for name in GAUGES {
        assert!(s.gauge(name).is_some(), "{name} is a gauge");
    }
    assert!(s.counter("rcuarray_comm_faults_injected_total") > Some(0));

    drop((kept_ebr, kept_qsbr, kept_zone, c));
    assert_eq!(delta(reported(), before), want, "dropping keeps the counts");
    assert_eq!(live_sources(), 0, "dropped owners leave the live list");
}

/// One thread snapshots in a loop while two others build, drive and
/// drop arrays of both schemes: no total may go backwards, and the
/// final totals are exact.
fn totals_never_decrease() {
    const ARRAYS_PER_WORKER: usize = 24;
    let before = reported();
    let done = AtomicBool::new(false);
    let seen = Mutex::new(Seen::default());
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let (mut last, mut snapshots) = (reported(), 0u64);
            while !done.load(Ordering::Acquire) {
                let now = reported();
                for (i, name) in NAMES.iter().enumerate() {
                    assert!(now[i] >= last[i], "{name} went {} -> {}", last[i], now[i]);
                }
                last = now;
                snapshots += 1;
            }
            snapshots
        });
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let seen = &seen;
                s.spawn(move || {
                    let c = Cluster::builder().locales(2).build();
                    for k in 0..ARRAYS_PER_WORKER {
                        let mut mine = Seen::default();
                        if (w + k) % 2 == 0 {
                            let a: EbrArray<u64> = EbrArray::with_config(&c, cfg());
                            drive(&a, 2);
                            mine.array(&a);
                        } else {
                            let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
                            drive(&a, 2);
                            mine.array(&a);
                        }
                        let mut all = seen.lock().unwrap();
                        all.0 = std::array::from_fn(|i| all.0[i] + mine.0[i]);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        assert!(watcher.join().unwrap() > 0, "the watcher took snapshots");
    });
    let want = seen.into_inner().unwrap().0;
    assert_eq!(
        delta(reported(), before),
        want,
        "exact under churn: {NAMES:?}"
    );
    assert_eq!(live_sources(), 0);
}

#[test]
fn owner_totals_are_exact_and_monotonic() {
    totals_are_exact();
    totals_never_decrease();
}
