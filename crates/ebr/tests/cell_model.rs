//! The generic RCU cell over this crate's zone, `RcuPtr<_, EpochZone>`:
//! property and stress tests against a sequential model, plus protocol
//! accounting under adversarial schedules.

use proptest::prelude::*;
use rcuarray_analysis::atomic::{AtomicBool, Ordering};
use rcuarray_ebr::{EpochZone, OrderingMode};
use rcuarray_reclaim::RcuPtr;
use std::sync::Arc;

type EbrCell<T> = RcuPtr<T, EpochZone>;

fn cell<T: Send + Sync + 'static>(value: T) -> EbrCell<T> {
    RcuPtr::new(value, Arc::new(EpochZone::new()))
}

fn cell_with_mode<T: Send + Sync + 'static>(value: T, mode: OrderingMode) -> EbrCell<T> {
    RcuPtr::new(value, Arc::new(EpochZone::with_mode(mode)))
}

#[derive(Debug, Clone)]
enum CellOp {
    Read,
    Add(u64),
    Replace(u64),
}

fn op_strategy() -> impl Strategy<Value = CellOp> {
    prop_oneof![
        Just(CellOp::Read),
        prop::num::u64::ANY.prop_map(|v| CellOp::Add(v % 1000)),
        prop::num::u64::ANY.prop_map(|v| CellOp::Replace(v % 1000)),
    ]
}

proptest! {
    #[test]
    fn cell_matches_sequential_model(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let cell = cell(0u64);
        let mut model = 0u64;
        for op in ops {
            match op {
                CellOp::Read => prop_assert_eq!(cell.read(|v| *v), model),
                CellOp::Add(x) => {
                    model = model.wrapping_add(x);
                    cell.update(|v| v.wrapping_add(x));
                }
                CellOp::Replace(x) => {
                    model = x;
                    cell.replace(x);
                }
            }
        }
        prop_assert_eq!(cell.read(|v| *v), model);
    }

    #[test]
    fn zone_parity_accounting_balances(pins in 1usize..50, advances in 0usize..20) {
        let zone = EpochZone::new();
        for _ in 0..advances {
            zone.synchronize();
        }
        let mut tickets = Vec::new();
        for _ in 0..pins {
            tickets.push(zone.pin());
        }
        let total: u64 = zone.readers_on(0) + zone.readers_on(1);
        prop_assert_eq!(total, pins as u64);
        for t in tickets {
            zone.unpin(t);
        }
        prop_assert_eq!(zone.readers_on(0) + zone.readers_on(1), 0);
        prop_assert_eq!(zone.stats().pins, pins as u64);
    }
}

#[test]
fn writes_are_serialized_and_none_lost() {
    let c = cell(0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let c = &c;
            s.spawn(move || {
                for _ in 0..250 {
                    c.update(|old| old + 1);
                }
            });
        }
    });
    assert_eq!(c.read(|v| *v), 1000);
}

#[test]
fn readers_never_see_a_snapshot_go_backwards() {
    let c = cell(0u64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (c, stop) = (&c, &stop);
            s.spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::SeqCst) {
                    let v = c.read(|v| *v);
                    assert!(v >= last, "snapshot went backwards");
                    last = v;
                }
            });
        }
        let (c, stop) = (&c, &stop);
        s.spawn(move || {
            for _ in 0..3000 {
                c.update(|v| v + 1);
            }
            stop.store(true, Ordering::SeqCst);
        });
    });
    assert_eq!(c.read(|v| *v), 3000);
}

#[test]
fn writers_starve_neither_readers_nor_each_other() {
    // Two cells sharing nothing; two writer threads and two reader
    // threads ping between them. Bounded runtime demonstrates absence of
    // livelock between the retry loop and the drain loop.
    let a = cell(0u64);
    let b = cell(0u64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for c in [&a, &b] {
            s.spawn(move || {
                for _ in 0..2000 {
                    c.update(|v| v + 1);
                }
            });
        }
        for _ in 0..2 {
            let (a, b, stop) = (&a, &b, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let x = a.read(|v| *v);
                    let y = b.read(|v| *v);
                    assert!(x <= 2000 && y <= 2000);
                }
            });
        }
        // Stop the readers once both writers reached their final value.
        let (a, b, stop) = (&a, &b, &stop);
        s.spawn(move || loop {
            if a.read(|v| *v) == 2000 && b.read(|v| *v) == 2000 {
                stop.store(true, Ordering::SeqCst);
                break;
            }
            rcuarray_analysis::thread::yield_now();
        });
    });
}

#[test]
fn stats_reflect_traffic() {
    let c = cell(1);
    for _ in 0..3 {
        c.read(|_| ());
    }
    c.update(|v| v + 1);
    let s = c.reclaimer().stats();
    assert_eq!(s.pins, 3);
    assert_eq!(s.advances, 1);
}

#[test]
fn retry_rate_is_visible_in_stats_under_writer_pressure() {
    let cell = cell(0u64);
    std::thread::scope(|s| {
        let c1 = &cell;
        s.spawn(move || {
            for _ in 0..3000 {
                c1.update(|v| v + 1);
            }
        });
        let c2 = &cell;
        s.spawn(move || {
            for _ in 0..30_000 {
                let _ = c2.read(|v| *v);
            }
        });
    });
    let stats = cell.reclaimer().stats();
    assert_eq!(stats.advances, 3000);
    assert_eq!(stats.pins, 30_000);
    // Retries are schedule-dependent; just require the counter is sane.
    assert!(stats.retries < 10_000_000);
}

#[test]
fn acqrel_cell_agrees_with_seqcst_cell_sequentially() {
    let a = cell_with_mode(0u64, OrderingMode::SeqCst);
    let b = cell_with_mode(0u64, OrderingMode::AcqRelFence);
    for k in 0..100 {
        a.update(|v| v + k);
        b.update(|v| v + k);
        assert_eq!(a.read(|v| *v), b.read(|v| *v));
    }
}

#[test]
#[should_panic(expected = "cannot protect real reclamation")]
fn relaxed_zone_never_reclaims_through_the_generic_cell() {
    // The measurement-only mode is racy (ebr_modes.rs finds the race);
    // the zone's retire path refuses to free under it.
    cell_with_mode(0u64, OrderingMode::Relaxed).replace(1);
}
