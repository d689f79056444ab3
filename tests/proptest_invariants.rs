//! Property-based tests of the core invariants the paper proves as
//! lemmas, checked against reference models under randomized inputs.

use proptest::prelude::*;
use rcuarray_qsbr::DeferList;
use rcuarray_repro::prelude::*;
use rcuarray_runtime::{BlockDist, RoundRobinCounter};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Lemma 4: the defer list is sorted by safe epoch in descending order,
// and pop_less_equal splits exactly at the boundary.
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn defer_list_matches_model(
        increments in prop::collection::vec(0u64..5, 1..80),
        min_offsets in prop::collection::vec(0u64..10, 1..8),
    ) {
        let mut list = DeferList::new();
        let mut model: Vec<u64> = Vec::new();
        let mut epoch = 0u64;
        for inc in increments {
            epoch += inc; // non-decreasing, like StateEpoch-derived epochs
            list.push(epoch, || {});
            model.push(epoch);
        }
        // Descending from head (Lemma 4).
        let epochs = list.epochs();
        prop_assert!(epochs.windows(2).all(|w| w[0] >= w[1]));

        for off in min_offsets {
            let min = epoch.saturating_sub(off * 3);
            let expect_cut = model.iter().filter(|&&e| e <= min).count();
            let chain = list.pop_less_equal(min);
            prop_assert_eq!(chain.len(), expect_cut);
            model.retain(|&e| e > min);
            prop_assert_eq!(list.len(), model.len());
            let epochs = list.epochs();
            prop_assert!(epochs.windows(2).all(|w| w[0] >= w[1]));
        }
    }
}

// ---------------------------------------------------------------------
// Lemma 2: epoch parity selects the right reader counter across any
// sequence of advances, including wrap-around from u64::MAX.
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn epoch_parity_model(start in prop::num::u64::ANY, advances in 0usize..50) {
        let zone = EpochZone::new();
        zone.set_epoch_for_test(start);
        let mut expected = start;
        for _ in 0..advances {
            let t = zone.pin();
            prop_assert_eq!(t.epoch(), expected);
            prop_assert_eq!(t.parity(), (expected & 1) as usize);
            prop_assert_eq!(zone.readers_on(t.parity()), 1);
            zone.unpin(t);
            let old = zone.advance();
            prop_assert_eq!(old, expected);
            expected = expected.wrapping_add(1);
            // The drained parity must be empty: a writer would proceed.
            zone.wait_for_readers(old);
        }
        prop_assert_eq!(zone.epoch(), expected);
    }
}

// ---------------------------------------------------------------------
// Distribution math: BlockDist chunks partition the index space and
// round-robin block placement covers all locales within a spread of one.
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn block_dist_partitions(n in 0usize..2000, locales in 1usize..16) {
        let d = BlockDist::new(n, locales);
        let mut total = 0usize;
        let mut next_start = 0usize;
        for l in 0..locales {
            let chunk = d.chunk_of(LocaleId::new(l as u32));
            prop_assert_eq!(chunk.start, next_start);
            next_start = chunk.end;
            total += chunk.len();
        }
        prop_assert_eq!(total, n);
        for idx in (0..n).step_by(7.max(n / 50 + 1)) {
            let owner = d.locale_of(idx);
            prop_assert!(d.chunk_of(owner).contains(&idx));
        }
    }

    #[test]
    fn round_robin_spread_within_one(blocks in 1usize..200, locales in 1usize..12) {
        let rr = RoundRobinCounter::new(locales);
        let mut hist = vec![0usize; locales];
        for _ in 0..blocks {
            hist[rr.take().index()] += 1;
        }
        let max = *hist.iter().max().unwrap();
        let min = *hist.iter().min().unwrap();
        prop_assert!(max - min <= 1, "hist {:?}", hist);
    }
}

// ---------------------------------------------------------------------
// The array against a Vec model under arbitrary op sequences
// (single-threaded determinism; concurrency is covered by stress tests).
// ---------------------------------------------------------------------
#[derive(Debug, Clone)]
enum Op {
    Read(usize),
    Write(usize, u64),
    Resize(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4096).prop_map(Op::Read),
        ((0usize..4096), prop::num::u64::ANY).prop_map(|(i, v)| Op::Write(i, v)),
        (1usize..64).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn array_matches_vec_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let cluster = Cluster::new(Topology::new(2, 1));
        let cfg = Config { block_size: 16, account_comm: false, ..Config::default() };
        let ebr: EbrArray<u64> = EbrArray::with_config(&cluster, cfg);
        let qsbr: QsbrArray<u64> = QsbrArray::with_config(&cluster, cfg);
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Read(i) => {
                    let i = if model.is_empty() { continue } else { i % model.len() };
                    let m = model[i];
                    prop_assert_eq!(ebr.read(i), m);
                    prop_assert_eq!(qsbr.read(i), m);
                }
                Op::Write(i, v) => {
                    if model.is_empty() { continue }
                    let i = i % model.len();
                    model[i] = v;
                    ebr.write(i, v);
                    qsbr.write(i, v);
                }
                Op::Resize(n) => {
                    let add = n.div_ceil(16) * 16;
                    model.resize(model.len() + add, 0);
                    prop_assert_eq!(ebr.resize(n), model.len());
                    prop_assert_eq!(qsbr.resize(n), model.len());
                }
            }
        }
        prop_assert_eq!(ebr.to_vec(), model.clone());
        prop_assert_eq!(qsbr.to_vec(), model);
        qsbr.checkpoint();
    }
}

// ---------------------------------------------------------------------
// QSBR end-to-end: any defer/checkpoint interleaving on one thread frees
// everything exactly once, never early.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn qsbr_frees_exactly_once(script in prop::collection::vec(prop::bool::ANY, 1..60)) {
        let domain = QsbrDomain::new();
        let freed = Arc::new(AtomicUsize::new(0));
        let mut deferred = 0usize;
        for do_defer in script {
            if do_defer {
                let f = Arc::clone(&freed);
                domain.defer(move || { f.fetch_add(1, Ordering::SeqCst); });
                deferred += 1;
                // Never freed at defer time.
                prop_assert!(freed.load(Ordering::SeqCst) < deferred + 1);
            } else {
                domain.checkpoint();
                // Sole participant: everything deferred so far is freed.
                prop_assert_eq!(freed.load(Ordering::SeqCst), deferred);
            }
        }
        domain.checkpoint();
        prop_assert_eq!(freed.load(Ordering::SeqCst), deferred);
    }
}

// ---------------------------------------------------------------------
// Lemma 6 as a property: updates through references taken at any point
// survive any subsequent resize schedule.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn refs_survive_any_resize_schedule(
        take_at in prop::collection::vec(0usize..64, 1..10),
        resizes in 1usize..8,
    ) {
        let cluster = Cluster::new(Topology::new(2, 1));
        let a: QsbrArray<u64> = QsbrArray::with_config(
            &cluster,
            Config { block_size: 16, account_comm: false, ..Config::default() },
        );
        a.resize(64);
        let refs: Vec<(usize, ElemRef<'_, u64>)> =
            take_at.iter().map(|&i| (i, a.get_ref(i))).collect();
        for _ in 0..resizes {
            a.resize(16);
        }
        for (i, r) in &refs {
            r.set(*i as u64 + 7);
        }
        for (i, _) in &refs {
            prop_assert_eq!(a.read(*i), *i as u64 + 7);
        }
        a.checkpoint();
    }
}
