//! Direct probes of single layers, run only in traced runs. Each drives
//! one public entry point in a tight loop and reports ns per call.

use crate::check::read_ok;
use crate::env::{self, Sizes, LOCALES};
use crate::rng::Rng;
use crate::stats::median;
use rcuarray::{RcuArray, Reclaim, Scheme};
use rcuarray_ebr::EpochZone;
use rcuarray_obs::Counter;
use rcuarray_qsbr::QsbrDomain;
use rcuarray_runtime::{task, Cluster, LocaleId};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// Run `body(thread)` on `threads` threads released together; returns
/// the median over repetitions of the mean per-thread ns per iteration.
fn contended(threads: usize, iters: u64, body: impl Fn(usize, u64) + Sync) -> f64 {
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let barrier = Barrier::new(threads);
            let per: Vec<f64> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..threads)
                    .map(|t| {
                        let (barrier, body) = (&barrier, &body);
                        s.spawn(move || {
                            barrier.wait();
                            let t0 = Instant::now();
                            body(t, iters);
                            t0.elapsed().as_nanos() as f64 / iters as f64
                        })
                    })
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("probe thread"))
                    .collect()
            });
            per.iter().sum::<f64>() / per.len() as f64
        })
        .collect();
    median(&mut reps)
}

/// `Reclaim::read_lock` plus drop on one shared `EpochZone`, 2 threads:
/// the EBR read-increment-verify protocol alone.
pub fn ebr_pin_ns(iters: u64) -> f64 {
    let zone = EpochZone::new();
    contended(LOCALES, iters, |_, n| {
        for _ in 0..n {
            black_box(zone.read_lock());
        }
    })
}

/// The same loop on one shared `QsbrDomain` (a registration check).
pub fn qsbr_read_lock_ns(iters: u64) -> f64 {
    let domain = QsbrDomain::new();
    contended(LOCALES, iters, |_, n| {
        for _ in 0..n {
            black_box(&domain).read_lock();
        }
        domain.checkpoint();
    })
}

/// A random relaxed load from a shared 2^16-element `u64` array,
/// including the index draw: the floor a read can cost.
pub fn raw_load_ns(iters: u64, seed: u64) -> f64 {
    let cells: Vec<AtomicU64> = (0..1 << 16).map(AtomicU64::new).collect();
    contended(LOCALES, iters, |t, n| {
        let mut rng = Rng::new(seed, 0x200 + t as u64);
        let mut acc = 0u64;
        for _ in 0..n {
            let i = (rng.next_u64() & 0xFFFF) as usize;
            acc = acc.wrapping_add(cells[i].load(Ordering::Relaxed));
        }
        black_box(acc);
    })
}

/// `Cluster::get_from(owner, 8)` from a task on locale 0.
pub fn comm_get_ns(cluster: &Cluster, owner: u32, iters: u64) -> f64 {
    contended(1, iters, |_, n| {
        task::with_locale(LocaleId::ZERO, || {
            for _ in 0..n {
                cluster.get_from(LocaleId::new(owner), 8);
            }
        })
    })
}

/// Median µs of a no-op `coforall_locales` (one task per locale, joined).
pub fn coforall_us(cluster: &Cluster, reps: usize) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            cluster.coforall_locales(|loc| {
                black_box(loc);
            });
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&mut t)
}

/// 2 threads adding to one telemetry `Counter`.
pub fn counter_add_ns(iters: u64) -> f64 {
    let c = Counter::new();
    let ns = contended(LOCALES, iters, |_, n| {
        for _ in 0..n {
            c.add(1);
        }
    });
    black_box(c.value());
    ns
}

/// Median cost of one `Instant::now()`, ns (from back-to-back pairs).
pub fn timer_ns() -> f64 {
    let mut t: Vec<f64> = (0..REPS)
        .map(|_| {
            let n = 100_000u32;
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(n)
        })
        .collect();
    median(&mut t)
}

/// ns per read of a closed loop of random reads, one task per locale,
/// on a fresh array built with `account_comm`.
fn read_cost<S: Scheme>(sizes: &Sizes, seed: u64, account_comm: bool, iters: u64) -> f64 {
    let cfg = rcuarray::Config {
        account_comm,
        ..env::config(sizes.block_size)
    };
    let env = env::build::<S>(sizes, cfg);
    let array: &RcuArray<u64, S> = &env.array;
    let bad = AtomicU64::new(0);
    let ns = contended(LOCALES, iters, |t, n| {
        task::with_locale(LocaleId::new(t as u32), || {
            let mut rng = Rng::new(seed, 0x300 + t as u64);
            let mask = sizes.keys as u64 - 1;
            let mut wrong = 0;
            for _ in 0..n {
                let idx = (rng.next_u64() & mask) as usize;
                wrong += u64::from(!read_ok(seed, idx, array.read(idx)));
            }
            array.checkpoint();
            bad.fetch_add(wrong, Ordering::Relaxed);
        })
    });
    assert_eq!(
        bad.load(Ordering::Relaxed),
        0,
        "probe read a value never stored"
    );
    ns
}

/// Read cost with a switch on and off, interleaved ABAB: `(on, off)` ns.
fn on_off(mut probe: impl FnMut(bool) -> f64) -> (f64, f64) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on.push(probe(true));
        off.push(probe(false));
    }
    (median(&mut on), median(&mut off))
}

/// `Config::account_comm` on vs off: `(on, off)` ns per read.
pub fn comm_on_off<S: Scheme>(sizes: &Sizes, seed: u64, iters: u64) -> (f64, f64) {
    on_off(|on| read_cost::<S>(sizes, seed, on, iters))
}

/// Telemetry enabled vs `rcuarray_obs::disable()`: `(on, off)` ns per read.
pub fn obs_on_off<S: Scheme>(sizes: &Sizes, seed: u64, iters: u64) -> (f64, f64) {
    let r = on_off(|on| {
        if on {
            rcuarray_obs::enable();
        } else {
            rcuarray_obs::disable();
        }
        read_cost::<S>(sizes, seed, true, iters)
    });
    rcuarray_obs::enable();
    r
}
