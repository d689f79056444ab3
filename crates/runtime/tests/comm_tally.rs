//! The comm tally under concurrency (DESIGN.md §7): every thread charges
//! its own row with plain stores, so the counts must still be exact —
//! with several threads per locale, with threads coming and going, with
//! a charge made while a thread's thread-locals are being torn down, and
//! with `reset` racing the charges.
//!
//! The backend is the one `RCUARRAY_BACKEND` selects. The tests compare
//! process-wide totals before and after, so they take turns.

use rcuarray_runtime::task::with_locale;
use rcuarray_runtime::{Cluster, CommMessage, CommStats, LinkStats, LocaleId};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// The process-wide totals are shared: one test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const NAMES: [&str; 9] = [
    "rcuarray_comm_gets_total",
    "rcuarray_comm_puts_total",
    "rcuarray_comm_remote_execs_total",
    "rcuarray_comm_local_ops_total",
    "rcuarray_comm_bytes_total",
    "rcuarray_comm_retries_total",
    "rcuarray_comm_faults_injected_total",
    "rcuarray_transport_messages_total",
    "rcuarray_transport_bytes_total",
];

fn reported() -> [u64; 9] {
    let s = rcuarray_obs::snapshot();
    NAMES.map(|n| s.counter(n).unwrap_or(0))
}

fn delta(after: [u64; 9], before: [u64; 9]) -> [u64; 9] {
    std::array::from_fn(|i| after[i] - before[i])
}

fn l(i: usize) -> LocaleId {
    LocaleId::new(i as u32)
}

/// Local accesses per round of the concurrent phase, besides the two
/// every round makes: enough for the threads of one locale to overlap
/// on two CPUs, where a shared row would lose updates.
const BURST: u64 = 2_000;

/// What one thread charges per round from `me`: a GET, a PUT and a lock
/// acquisition against every other locale, and a local GET and PUT.
fn round(c: &Cluster, me: LocaleId) {
    for peer in (0..c.num_locales()).map(l).filter(|&p| p != me) {
        c.get_from(peer, 8);
        c.put_to(peer, 16);
        c.send_to(peer, CommMessage::LockAcquire).unwrap();
    }
    c.get_from(me, 8);
    c.put_to(me, 8);
}

/// What `rounds_per_locale` calls of [`round`] from every locale add up
/// to, per initiating locale and per link.
struct Want {
    per_locale: Vec<CommStats>,
    /// Messages per directed link.
    link_messages: u64,
}

impl Want {
    fn new(n: usize, rounds_per_locale: u64, bursts_per_locale: u64) -> Want {
        let peers = n as u64 - 1;
        let one = CommStats {
            // A lock acquisition is a GET of the lock word and a PUT back.
            gets: rounds_per_locale * peers * 2,
            puts: rounds_per_locale * peers * 2,
            remote_executes: 0,
            local_accesses: rounds_per_locale * 2 + bursts_per_locale * BURST,
            bytes_moved: rounds_per_locale * peers * (8 + 16 + 16),
        };
        Want {
            per_locale: vec![one; n],
            link_messages: rounds_per_locale * 3,
        }
    }

    fn total(&self) -> CommStats {
        self.per_locale
            .iter()
            .fold(CommStats::default(), |a, &b| a + b)
    }

    /// The process-wide deltas these charges should leave, in [`NAMES`]
    /// order.
    fn reported(&self) -> [u64; 9] {
        let t = self.total();
        let n = self.per_locale.len() as u64;
        [
            t.gets,
            t.puts,
            t.remote_executes,
            t.local_accesses,
            t.bytes_moved,
            0,
            0,
            self.link_messages * n * (n - 1),
            t.bytes_moved,
        ]
    }
}

/// `total()`, every `stats_for` and every `link_stats` of `c` against
/// `want`.
fn assert_cluster_reads(c: &Cluster, want: &Want, what: &str) {
    let n = c.num_locales();
    assert_eq!(c.comm().total(), want.total(), "{what}: total()");
    for (i, w) in want.per_locale.iter().enumerate() {
        assert_eq!(c.comm().stats_for(l(i)), *w, "{what}: stats_for({i})");
    }
    let per_link_bytes = want.per_locale[0].bytes_moved / (n as u64 - 1);
    for a in 0..n {
        for b in 0..n {
            let want = if a == b {
                LinkStats::default()
            } else {
                LinkStats {
                    messages: want.link_messages,
                    bytes: per_link_bytes,
                }
            };
            let got = c.comm().transport().link_stats(l(a), l(b));
            assert_eq!(got, want, "{what}: link {a} -> {b}");
        }
    }
}

/// Charges through an `Arc<Cluster>` from its destructor: run as a
/// thread-local, it charges while its thread is being torn down.
struct ChargeOnDrop(Arc<Cluster>, LocaleId);

impl Drop for ChargeOnDrop {
    fn drop(&mut self) {
        let (c, me) = (&self.0, self.1);
        with_locale(me, || round(c, me));
    }
}

thread_local! {
    static CHARGE_ON_EXIT: std::cell::RefCell<Option<ChargeOnDrop>> =
        const { std::cell::RefCell::new(None) };
}

#[test]
fn concurrent_and_short_lived_threads_charge_exactly() {
    let _serial = serial();
    const LOCALES: usize = 3;
    const ROUNDS: u64 = 500;
    let before = reported();
    let c = Cluster::builder().locales(LOCALES).build();

    // Two threads per locale, all charging at once.
    let start = Barrier::new(LOCALES * 2);
    std::thread::scope(|s| {
        for i in 0..LOCALES * 2 {
            let (c, me, start) = (&c, l(i % LOCALES), &start);
            s.spawn(move || {
                with_locale(me, || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        round(c, me);
                        for _ in 0..BURST {
                            c.get_from(me, 8);
                        }
                    }
                })
            });
        }
    });
    let want = Want::new(LOCALES, ROUNDS * 2, ROUNDS * 2);
    assert_cluster_reads(&c, &want, "two threads per locale");
    assert_eq!(delta(reported(), before), want.reported(), "{NAMES:?}");

    // 256 short-lived threads, never more than two alive at a time: a
    // join waits for the thread's destructors, its slot's release among
    // them, where the end of a scope need not.
    const SHORT_LIVED: usize = 256;
    for pair in 0..SHORT_LIVED / 2 {
        std::thread::scope(|s| {
            let pair: Vec<_> = (0..2)
                .map(|k| {
                    let (c, me) = (&c, l((pair * 2 + k) % LOCALES));
                    s.spawn(move || with_locale(me, || round(c, me)))
                })
                .collect();
            for h in pair {
                h.join().unwrap();
            }
        });
    }
    // One more whose last charge happens in a thread-local destructor,
    // registered before the thread's first charge so it runs after the
    // thread has handed its slot back.
    let exiting = Arc::clone(&c);
    std::thread::spawn(move || {
        let me = l(0);
        let on_exit = ChargeOnDrop(Arc::clone(&exiting), me);
        CHARGE_ON_EXIT.with(|slot| *slot.borrow_mut() = Some(on_exit));
        with_locale(me, || round(&exiting, me));
    })
    .join()
    .unwrap();
    // Per locale: 2 × ROUNDS rounds from the concurrent phase and one
    // per short-lived thread it hosted, plus two on locale 0 from the
    // exiting thread. Even the locales out by charging the difference
    // from here.
    let mut rounds = [ROUNDS * 2; LOCALES];
    for k in 0..SHORT_LIVED {
        rounds[k % LOCALES] += 1;
    }
    rounds[0] += 2;
    let most = *rounds.iter().max().unwrap();
    for (i, r) in rounds.iter().enumerate() {
        for _ in *r..most {
            with_locale(l(i), || round(&c, l(i)));
        }
    }
    let want = Want::new(LOCALES, most, ROUNDS * 2);
    assert_cluster_reads(&c, &want, "after thread churn");
    assert_eq!(delta(reported(), before), want.reported(), "{NAMES:?}");
}

#[test]
fn reset_racing_charges_loses_and_doubles_nothing() {
    let _serial = serial();
    const CHARGES: u64 = 20_000;
    // The chargers keep going until this many resets have run, so the
    // resets overlap the charges however the threads are scheduled.
    const RESETS: u64 = 16;
    let before = reported();
    let c = Cluster::builder().locales(2).build();
    // Charges begun and charges finished, for the reset thread's bound.
    let (started, finished) = (AtomicU64::new(0), AtomicU64::new(0));
    let (done, resets) = (AtomicBool::new(false), AtomicU64::new(0));
    let start = Barrier::new(2);
    let charged: u64 = std::thread::scope(|s| {
        let chargers: Vec<_> = (0..2)
            .map(|t| {
                let (c, started, finished) = (&c, &started, &finished);
                let (start, resets) = (&start, &resets);
                s.spawn(move || {
                    let me = l(t);
                    with_locale(me, || {
                        start.wait();
                        // An even count: half local, half remote.
                        let mut k = 0;
                        while k < CHARGES || resets.load(Ordering::SeqCst) < RESETS || k % 2 == 1 {
                            started.fetch_add(1, Ordering::SeqCst);
                            fence(Ordering::SeqCst);
                            // Every charge is one access: a GET, remote
                            // or local.
                            c.get_from(l((t + k as usize) % 2), 8);
                            finished.fetch_add(1, Ordering::SeqCst);
                            k += 1;
                        }
                        k
                    })
                })
            })
            .collect();
        // Reports the first over-count instead of panicking, which
        // would leave the chargers waiting for resets.
        let resetter = s.spawn(|| {
            let mut over = None;
            while !done.load(Ordering::Acquire) {
                let finished_before = finished.load(Ordering::SeqCst);
                c.comm().reset();
                resets.fetch_add(1, Ordering::SeqCst);
                let t = c.comm().total();
                fence(Ordering::SeqCst);
                let started_after = started.load(Ordering::SeqCst);
                let since = started_after - finished_before;
                let counted = t.gets + t.local_accesses;
                if counted > since && over.is_none() {
                    over = Some(format!(
                        "after a reset, total() counts {counted} accesses; \
                         only {since} were charged since it began"
                    ));
                }
            }
            over
        });
        let charged = chargers.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        if let Some(over) = resetter.join().unwrap() {
            panic!("{over}");
        }
        charged
    });
    assert!(resets.into_inner() >= RESETS, "the reset loop ran");
    // Each thread charged half its accesses remote, half local.
    let remote = charged / 2;
    let local = charged / 2;
    let got = delta(reported(), before);
    assert_eq!(
        got,
        [remote, 0, 0, local, remote * 8, 0, 0, remote, remote * 8],
        "process-wide totals keep every charge across resets: {NAMES:?}"
    );
    c.comm().reset();
    assert_eq!(c.comm().total(), CommStats::default());
}
