//! The process-wide comm/transport totals are read at snapshot time from
//! the clusters' own counters (DESIGN.md §7). They must equal what the
//! clusters themselves report, whether a cluster is live, dropped or
//! reset, and whether telemetry is enabled or not; and they must never
//! go backwards while clusters come and go.
//!
//! One `#[test]` only: the totals are process-wide, so no other cluster
//! may run in this binary while the deltas are checked.

use rcuarray_obs::live_sources;
use rcuarray_runtime::task::with_locale;
use rcuarray_runtime::{Cluster, CommMessage, CommStats, LinkStats, LocaleId, TransportKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const NAMES: [&str; 7] = [
    "rcuarray_comm_gets_total",
    "rcuarray_comm_puts_total",
    "rcuarray_comm_remote_execs_total",
    "rcuarray_comm_local_ops_total",
    "rcuarray_comm_bytes_total",
    "rcuarray_transport_messages_total",
    "rcuarray_transport_bytes_total",
];

/// The seven totals in one snapshot, in [`NAMES`] order.
fn reported() -> [u64; 7] {
    let s = rcuarray_obs::snapshot();
    NAMES.map(|n| s.counter(n).unwrap_or(0))
}

/// What a set of clusters reported themselves, in [`NAMES`] order.
#[derive(Default, Clone, Copy)]
struct Seen(CommStats, LinkStats);

impl Seen {
    fn of(c: &Cluster) -> Seen {
        let t = c.comm().transport();
        let ids = || (0..c.num_locales() as u32).map(LocaleId::new);
        let links = ids()
            .flat_map(|a| ids().map(move |b| t.link_stats(a, b)))
            .fold(LinkStats::default(), |a, b| a + b);
        Seen(c.comm_stats(), links)
    }

    fn add(&mut self, o: Seen) {
        *self = Seen(self.0 + o.0, self.1 + o.1);
    }

    fn as_array(&self) -> [u64; 7] {
        let Seen(c, l) = self;
        [
            c.gets,
            c.puts,
            c.remote_executes,
            c.local_accesses,
            c.bytes_moved,
            l.messages,
            l.bytes,
        ]
    }
}

fn delta(after: [u64; 7], before: [u64; 7]) -> [u64; 7] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Local, remote and lock traffic from every locale of `c`.
fn drive(c: &Cluster, rounds: usize) {
    let n = c.num_locales() as u32;
    for _ in 0..rounds {
        for i in 0..n {
            let me = LocaleId::new(i);
            let peer = LocaleId::new((i + 1) % n);
            with_locale(me, || {
                c.get_from(me, 8);
                c.put_to(me, 8);
                c.get_from(peer, 64);
                c.put_to(peer, 16);
                c.on(peer, || ());
                c.send_to(peer, CommMessage::LockAcquire).unwrap();
            });
        }
    }
}

fn cluster(kind: TransportKind) -> Arc<Cluster> {
    Cluster::builder().locales(3).backend(kind).build()
}

/// Three clusters per backend: one stays live, one is dropped, one is
/// reset mid-run. Half the traffic runs with telemetry disabled.
fn totals_are_exact() {
    let before = reported();
    let mut seen = Seen::default();
    let mut live = Vec::new();
    for kind in [TransportKind::Shmem, TransportKind::Mesh] {
        let (kept, dropped, reset) = (cluster(kind), cluster(kind), cluster(kind));
        drive(&kept, 3);
        rcuarray_obs::disable();
        drive(&dropped, 2);
        drive(&reset, 4);
        rcuarray_obs::enable();
        seen.add(Seen::of(&dropped));
        drop(dropped);
        seen.add(Seen::of(&reset));
        reset.comm().reset();
        assert_eq!(
            Seen::of(&reset).as_array(),
            [0; 7],
            "{kind}: reset clears both views"
        );
        drive(&reset, 1);
        live.push(kept);
        live.push(reset);
    }
    for c in &live {
        seen.add(Seen::of(c));
    }
    let want = seen.as_array();
    assert!(
        want.iter().all(|&v| v > 0),
        "every total saw traffic: {want:?}"
    );
    assert_eq!(delta(reported(), before), want, "enabled: {NAMES:?}");
    rcuarray_obs::disable();
    assert_eq!(delta(reported(), before), want, "disabled: {NAMES:?}");
    rcuarray_obs::enable();
    let text = rcuarray_obs::prometheus_text();
    let json = rcuarray_obs::json_snapshot();
    for name in NAMES {
        assert!(text.contains(&format!("# TYPE {name} counter")), "{name}");
        assert!(json.contains(&format!("\"{name}\"")), "{name}");
    }
    drop(live);
    assert_eq!(delta(reported(), before), want, "dropping keeps the counts");
    assert_eq!(live_sources(), 0, "dropped layers leave the live list");
}

/// One thread snapshots in a loop while two others build, drive, reset
/// and drop clusters: no total may go backwards, the final totals are
/// exact, and the live list does not grow with the clusters built.
fn totals_never_decrease() {
    const CLUSTERS_PER_WORKER: usize = 40;
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
                    for k in 0..CLUSTERS_PER_WORKER {
                        let kind = if (w + k) % 4 == 0 {
                            TransportKind::Mesh
                        } else {
                            TransportKind::Shmem
                        };
                        let c = cluster(kind);
                        drive(&c, 2);
                        let mut mine = Seen::of(&c);
                        c.comm().reset();
                        drive(&c, 1);
                        mine.add(Seen::of(&c));
                        seen.lock().unwrap().add(mine);
                        // Two live clusters: a comm layer each, plus a
                        // mesh when on that backend.
                        assert!(live_sources() <= 4, "live list outgrew the live clusters");
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
    let want = seen.into_inner().unwrap().as_array();
    assert_eq!(
        delta(reported(), before),
        want,
        "exact under churn: {NAMES:?}"
    );
    assert_eq!(live_sources(), 0);
}

#[test]
fn comm_and_transport_totals_are_exact_and_monotonic() {
    totals_are_exact();
    totals_never_decrease();
}
