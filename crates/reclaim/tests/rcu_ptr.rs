//! `RcuPtr` under both real schemes: the same generic cell over
//! `EpochZone` (synchronous EBR) and `QsbrDomain` (deferred QSBR).

use rcuarray_analysis::atomic::{AtomicBool, Ordering};
use rcuarray_ebr::EpochZone;
use rcuarray_qsbr::QsbrDomain;
use rcuarray_reclaim::{RcuPtr, Reclaim};
use std::sync::Arc;

fn exercise<R: Reclaim>(reclaim: Arc<R>) {
    let p = RcuPtr::new(0u64, reclaim);
    assert_eq!(p.read(|v| *v), 0);
    p.update(|v| v + 5);
    p.replace(100);
    assert_eq!(p.read(|v| *v), 100);
    p.reclaimer().quiesce();
}

#[test]
fn works_under_ebr() {
    exercise(Arc::new(EpochZone::new()));
}

#[test]
fn works_under_qsbr() {
    exercise(Arc::new(QsbrDomain::new()));
}

#[test]
fn generic_code_is_scheme_agnostic() {
    fn double<R: Reclaim>(p: &RcuPtr<u32, R>) -> u32 {
        p.update(|v| v * 2);
        p.read(|v| *v)
    }
    let e = RcuPtr::new(4, Arc::new(EpochZone::new()));
    let q = RcuPtr::new(4, Arc::new(QsbrDomain::new()));
    assert_eq!(double(&e), 8);
    assert_eq!(double(&q), 8);
}

#[test]
fn concurrent_readers_and_writer_under_ebr() {
    let p = Arc::new(RcuPtr::new((0u64, 0u64), Arc::new(EpochZone::new())));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let (p, stop) = (&p, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    assert!(p.read(|&(a, b)| a == b), "torn snapshot");
                }
            });
        }
        let (p, stop) = (&p, &stop);
        s.spawn(move || {
            for _ in 0..2000 {
                p.update(|&(a, _)| (a + 1, a + 1));
            }
            stop.store(true, Ordering::SeqCst);
        });
    });
    assert_eq!(p.read(|v| v.0), 2000);
}

#[test]
fn qsbr_updates_reclaim_after_checkpoints() {
    let reclaim = Arc::new(QsbrDomain::new());
    let p = RcuPtr::new(0u32, Arc::clone(&reclaim));
    for _ in 0..10 {
        p.update(|v| v + 1);
    }
    // All ten retired snapshots free at this single-thread checkpoint.
    assert_eq!(reclaim.quiesce(), 10);
    assert_eq!(reclaim.reclaim_stats().pending, 0);
}

#[test]
fn two_ptrs_share_one_backend() {
    let reclaim = Arc::new(QsbrDomain::new());
    let a = RcuPtr::new(1u8, Arc::clone(&reclaim));
    let b = RcuPtr::new(2u8, Arc::clone(&reclaim));
    a.update(|v| v + 1);
    b.update(|v| v + 1);
    assert_eq!(reclaim.quiesce(), 2, "one checkpoint serves both cells");
}

#[test]
fn debug_names_value_and_scheme() {
    let p = RcuPtr::new(7u8, Arc::new(EpochZone::new()));
    assert_eq!(format!("{p:?}"), "RcuPtr { value: 7, scheme: \"ebr\" }");
}
