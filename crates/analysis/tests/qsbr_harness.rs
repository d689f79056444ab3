//! The real QSBR defer/checkpoint drain under the checker.
//!
//! A reader thread reads a QSBR-protected payload and parks; the owner
//! defers the payload's reclamation and checkpoints until it runs.
//! Algorithm 2's guarantee under test: the deferred reclamation runs only
//! after every participant has quiesced, so the reader's payload read
//! must happen-before the reclaim on every schedule. The payload is a
//! shadow-tracked cell, so a read unordered with the reclaim is a data
//! race and a read after it is a use-after-reclaim.
//!
//! Two mutations must be found on every [`Policy::Dpor`] run: the owner
//! freeing by its own observed epoch instead of the minimum over all
//! participants (Lemma 5), and the reader holding its reference across
//! its own checkpoint (the paper's §III-B contract).

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::shadow::TrackedCell;
use rcuarray_analysis::{thread, CheckedCell, Checker, Config, Policy};
use rcuarray_qsbr::{QsbrDomain, Retired};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    /// Algorithm 2 as shipped.
    None,
    /// The owner's checkpoint frees by its own observed epoch instead of
    /// the minimum over all participants.
    LocalEpoch,
    /// The reader reads, checkpoints, and reads the same payload again.
    HoldAcrossCheckpoint,
}

/// The defer/checkpoint drain scenario shared by the sampled sweep and
/// the exhaustive-mode runs.
fn defer_drain(mutation: Mutation) -> impl Fn() + Send + Sync + 'static {
    move || {
        let domain = Arc::new(QsbrDomain::new());
        let payload = Arc::new(TrackedCell::new("qsbr-payload", 7u64));
        let ready = Arc::new(AtomicUsize::new(0));
        domain.register_current_thread();

        let d = domain.clone();
        let p = payload.clone();
        let rdy = ready.clone();
        let reader = thread::spawn(move || {
            d.ensure_registered();
            // Announce participation: a thread registered before the
            // defer gates reclamation; one that joins later does not.
            rdy.store(1, Ordering::Release);
            assert_eq!(p.read(), 7);
            if mutation == Mutation::HoldAcrossCheckpoint {
                // Checkpoint once the payload is retired, so this
                // checkpoint is what lets the owner free it.
                while rdy.load(Ordering::Acquire) != 2 {
                    thread::yield_now();
                }
                d.checkpoint();
                // The reference predates the checkpoint.
                assert_eq!(p.read(), 7);
            }
            // Done with protected data: park so an idle reader does not
            // gate the owner's reclamation forever.
            d.park();
        });
        while ready.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }

        // Retire the payload.
        let retired = Retired::new(|| {}).tracked(payload.id());
        domain.defer(move || retired.run());
        ready.store(2, Ordering::Release);

        // Drain. Terminates once the reader has parked (parked records
        // leave the min-observed scan).
        let mut freed = 0;
        while freed == 0 {
            freed = if mutation == Mutation::LocalEpoch {
                domain.checkpoint_local_epoch_for_test()
            } else {
                domain.checkpoint()
            };
            thread::yield_now();
        }
        assert_eq!(freed, 1);

        reader.join().unwrap();
    }
}

/// The [`Policy::Dpor`] budget every case here uses. The
/// registration/drain handshakes spin, so the budget bounds the
/// exploration rather than exhausting it.
fn dpor_config() -> Config {
    Config {
        policy: Policy::Dpor,
        iterations: 64,
        ..Config::default()
    }
}

/// A mutation must be found on every run, and the minimized
/// counterexample schedule must replay.
fn caught_on_every_dpor_run(mutation: Mutation) {
    for round in 0..2 {
        let report = Checker::new(Config {
            stop_on_first_race: true,
            ..dpor_config()
        })
        .run(defer_drain(mutation));
        assert!(
            !report.is_clean(),
            "round {round}: {mutation:?} not caught: {report}"
        );
        let schedule = report
            .first_schedule()
            .expect("DPOR counterexamples carry a schedule")
            .to_string();
        let replay = Checker::replay(schedule.as_str(), &Config::default(), defer_drain(mutation));
        assert!(
            !replay.is_clean(),
            "round {round}: schedule {schedule:?} did not reproduce"
        );
    }
}

#[test]
fn defer_drain_orders_reader_before_reclaim() {
    let report = Checker::new(Config {
        base_seed: 0x5eed_05b7,
        iterations: 24,
        ..Config::default()
    })
    .run(defer_drain(Mutation::None));
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
    assert!(report.leaks.is_empty(), "reclamation never ran: {report}");
}

/// The same drain under [`Policy::Dpor`]: systematic exploration instead
/// of seed sampling, clean across the budget's worth of *distinct*
/// schedules.
#[test]
fn defer_drain_clean_under_dpor() {
    let report = Checker::new(dpor_config()).run(defer_drain(Mutation::None));
    assert!(report.is_clean(), "{report}");
}

/// Lemma 5's hypothesis is load-bearing: freeing by the owner's own
/// observed epoch frees the payload under the still-reading participant.
#[test]
fn freeing_by_the_local_epoch_is_caught() {
    caught_on_every_dpor_run(Mutation::LocalEpoch);
}

/// "It is not safe to dereference any memory managed by QSBR if it has
/// been acquired prior to a checkpoint" (paper §III-B): the reader's
/// second read is flagged.
#[test]
fn holding_a_reference_across_its_own_checkpoint_is_caught() {
    caught_on_every_dpor_run(Mutation::HoldAcrossCheckpoint);
}

#[test]
fn two_reader_churn_is_clean() {
    let report = Checker::new(Config {
        base_seed: 0x5eed_05b8,
        iterations: 12,
        ..Config::default()
    })
    .run(|| {
        let domain = Arc::new(QsbrDomain::new());
        let payload = Arc::new(CheckedCell::new(1u64));
        let ready = Arc::new(AtomicUsize::new(0));
        domain.register_current_thread();

        let handles: Vec<_> = (0..2)
            .map(|_| {
                let d = domain.clone();
                let p = payload.clone();
                let rdy = ready.clone();
                thread::spawn(move || {
                    d.ensure_registered();
                    rdy.fetch_add(1, Ordering::AcqRel);
                    let v = p.read();
                    assert_ne!(v, 0xDEAD);
                    // Quiesce between reads: a checkpoint is a promise the
                    // thread holds no protected references.
                    d.checkpoint();
                    d.park();
                })
            })
            .collect();
        while ready.load(Ordering::Acquire) < 2 {
            thread::yield_now();
        }

        let p2 = payload.clone();
        domain.defer(move || p2.write(0xDEAD));
        let mut freed = 0;
        while freed == 0 {
            freed = domain.checkpoint();
            thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(report.is_clean(), "{report}");
}
