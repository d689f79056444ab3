//! Protocol tests against the *real* EBR zone (`rcuarray_ebr::EpochZone`),
//! exercised through the instrumented facade.
//!
//! The scenario is the paper's protocol verbatim: a reader pins, loads the
//! published version index, reads that version, and unpins; the writer
//! publishes the next version, runs advance + wait-for-readers
//! (Algorithm 1's writer barrier), then reclaims the retired version.
//! Versions are shadow-tracked cells that are never reused, so the checker
//! flags a reader's access that is unordered with the reclaim (a data
//! race) as well as one that lands after it (use-after-reclaim). Soundness
//! claim under test: the barrier orders every pinned reader's access
//! before the writer's reclaim.
//!
//! Ordering modes:
//! - `OrderingMode::Relaxed` (the measurement-only unsound mode) must
//!   produce a detected race with a reproducing seed / schedule;
//! - `SeqCst` (the paper's configuration) and `AcqRelFence` must come out
//!   clean across a bounded-exploration sweep.
//!
//! Protocol mutations under [`Policy::Dpor`], each found on every run with
//! a replayable minimized schedule: the writer skipping the drain, the
//! reader skipping the verify (Algorithm 1 line 13), and the reader
//! loading the snapshot before pinning across a full epoch wrap. The paper
//! protocol stays clean from start epochs on both sides of the `u64` wrap
//! (Lemma 2), and the early load stays clean below the wrap.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::shadow::{self, TrackedCell};
use rcuarray_analysis::{thread, Checker, Config, Policy, Report, ShadowKind};
use rcuarray_ebr::{EpochZone, OrderingMode};
use std::sync::Arc;

/// The read-side protocol a reader runs.
#[derive(Clone, Copy, Debug)]
enum ReadSide {
    /// Algorithm 1: pin (read-increment-verify), then load `cur`.
    Paper,
    /// Mutation: pin without the verification read (line 13).
    SkipVerify,
    /// Mutation: load `cur` before pinning. The index is loaded together
    /// with the epoch the pin must then match (unpin and retry on a
    /// mismatch), so the pin's verify is the only guard on it. Safe while
    /// the epoch cannot return to the loaded value; broken across a wrap.
    EarlyLoad,
}

/// One scenario: the zone's ordering mode and start epoch, the reader's
/// protocol, and the writer's `cycles` publish → advance → drain →
/// reclaim rounds.
#[derive(Clone, Copy, Debug)]
struct Case {
    mode: OrderingMode,
    start: u64,
    reader: ReadSide,
    cycles: usize,
    /// Mutation when false: the writer reclaims without draining.
    drain: bool,
    /// After its cycles the writer stores `start` back into the epoch.
    /// The store stands for the other 2^64 − 1 advances of a full wrap,
    /// each of which drains trivially while the reader has not announced.
    wrap: bool,
}

const PAPER: Case = Case {
    mode: OrderingMode::SeqCst,
    start: 0,
    reader: ReadSide::Paper,
    cycles: 1,
    drain: true,
    wrap: false,
};

struct Shared {
    zone: EpochZone,
    /// One payload per publication; `cur` publishes the live index.
    versions: Vec<TrackedCell<u64>>,
    cur: AtomicUsize,
}

impl Shared {
    fn new(case: Case) -> Arc<Self> {
        let zone = EpochZone::with_mode(case.mode);
        zone.set_epoch_for_test(case.start);
        Arc::new(Shared {
            zone,
            versions: (0..=case.cycles as u64)
                .map(|v| TrackedCell::new("ebr-version", v))
                .collect(),
            cur: AtomicUsize::new(0),
        })
    }

    fn read(&self, side: ReadSide) {
        let (ticket, idx) = match side {
            ReadSide::Paper => {
                let ticket = self.zone.pin();
                (ticket, self.cur.load(Ordering::Acquire))
            }
            ReadSide::SkipVerify => {
                let ticket = self.zone.pin_unverified_for_test();
                (ticket, self.cur.load(Ordering::Acquire))
            }
            ReadSide::EarlyLoad => loop {
                let seen = self.zone.epoch();
                let idx = self.cur.load(Ordering::Acquire);
                let ticket = self.zone.pin();
                if ticket.epoch() == seen {
                    break (ticket, idx);
                }
                self.zone.unpin(ticket);
            },
        };
        let v = self.versions[idx].read();
        assert_eq!(v, idx as u64, "torn version");
        self.zone.unpin(ticket);
    }

    fn write(&self, case: Case) {
        for k in 0..case.cycles {
            self.cur.store(k + 1, Ordering::Release);
            let old = self.zone.advance();
            if case.drain {
                self.zone.wait_for_readers(old);
            }
            // Reclaim the retired version. Safe iff the barrier ordered
            // every reader of it before this point.
            let id = self.versions[k].id();
            shadow::on_retire(id);
            shadow::on_reclaim(id);
        }
        if case.wrap {
            self.zone.set_epoch_for_test(case.start);
        }
    }
}

/// The writer on the root thread and `readers` spawned readers, for the
/// seeded sweeps.
fn writer_rooted(mode: OrderingMode, readers: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let case = Case { mode, ..PAPER };
        let sh = Shared::new(case);
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let r = sh.clone();
                thread::spawn(move || r.read(ReadSide::Paper))
            })
            .collect();
        sh.write(case);
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The reader on the root thread and the writer spawned, for
/// [`Policy::Dpor`]. This orientation puts the racy interleaving (reader
/// pinned and reading the old version before the writer publishes)
/// shallow in the exploration tree: the zone's pin-retry and barrier spin
/// loops make deep subtrees combinatorially large, and depth-first
/// exploration must drain a subtree before backtracking above it.
fn reader_rooted(case: Case) -> impl Fn() + Send + Sync + 'static {
    move || {
        let sh = Shared::new(case);
        let w = sh.clone();
        let writer = thread::spawn(move || w.write(case));
        sh.read(case.reader);
        let _ = writer.join();
    }
}

fn sweep(mode: OrderingMode) -> Report {
    Checker::new(Config {
        base_seed: 0x5eed_eb20,
        iterations: 48,
        ..Config::default()
    })
    .run(writer_rooted(mode, 1))
}

/// The [`Policy::Dpor`] budget every case here uses. The barrier spins
/// (each extra probe is its own Mazurkiewicz trace), so the budget bounds
/// the exploration: "found" means within the budget, "clean" means
/// across it.
fn dpor_config() -> Config {
    Config {
        policy: Policy::Dpor,
        iterations: 64,
        ..Config::default()
    }
}

fn dpor(case: Case) -> Report {
    Checker::new(dpor_config()).run(reader_rooted(case))
}

/// A mutation must be found on *every* run — systematic exploration, no
/// seed sweep, no luck — and the minimized counterexample schedule must
/// replay. Returns the last run's report.
fn caught_on_every_dpor_run(case: Case) -> Report {
    let mut last = None;
    for round in 0..2 {
        let report = Checker::new(Config {
            stop_on_first_race: true,
            ..dpor_config()
        })
        .run(reader_rooted(case));
        assert!(
            !report.is_clean(),
            "round {round}: {case:?} not caught: {report}"
        );
        let schedule = report
            .first_schedule()
            .expect("DPOR counterexamples carry a schedule")
            .to_string();
        let replay = Checker::replay(schedule.as_str(), &Config::default(), reader_rooted(case));
        assert!(
            !replay.is_clean(),
            "round {round}: schedule {schedule:?} did not reproduce"
        );
        last = Some(report);
    }
    last.unwrap()
}

#[test]
fn relaxed_mode_races_with_reproducing_seed() {
    let report = sweep(OrderingMode::Relaxed);
    assert!(
        !report.is_clean(),
        "the unsound Relaxed mode must be caught within the sweep"
    );
    let race = report.first_race().unwrap().clone();
    // The race is on the retired version: reader's read vs the writer's
    // reclaim, both in this file.
    assert!(race.first.site.contains("ebr_modes.rs"), "{race}");
    assert!(race.second.site.contains("ebr_modes.rs"), "{race}");

    // The recorded seed replays the exact interleaving.
    let replay = Checker::replay(
        race.seed,
        &Config::default(),
        writer_rooted(OrderingMode::Relaxed, 1),
    );
    assert!(
        !replay.is_clean(),
        "seed {:#x} did not reproduce",
        race.seed
    );
}

#[test]
fn relaxed_mode_found_on_every_dpor_run() {
    let report = caught_on_every_dpor_run(Case {
        mode: OrderingMode::Relaxed,
        ..PAPER
    });
    assert!(report.first_race().is_some(), "{report}");
}

/// The paper's SeqCst configuration under the same exploration budget:
/// no interleaving within the budget races.
#[test]
fn seqcst_mode_clean_under_dpor() {
    let report = dpor(PAPER);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn seqcst_mode_is_clean() {
    let report = sweep(OrderingMode::SeqCst);
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty());
}

#[test]
fn acqrel_fence_mode_is_clean() {
    let report = sweep(OrderingMode::AcqRelFence);
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty());
}

/// Two concurrent readers against one writer, sound modes only: the
/// barrier must serialize reclamation against both.
#[test]
fn two_readers_sound_modes_clean() {
    for mode in [OrderingMode::SeqCst, OrderingMode::AcqRelFence] {
        let report = Checker::new(Config {
            base_seed: 0x5eed_eb21,
            iterations: 24,
            ..Config::default()
        })
        .run(writer_rooted(mode, 2));
        assert!(report.is_clean(), "mode {mode:?}: {report}");
    }
}

/// Lemma 2 on the real zone: two writer cycles from start epochs on both
/// sides of the `u64` wrap (from `u64::MAX - 1` and `u64::MAX` the cycles
/// cross it). Parity alternates across the wrap, so the protocol stays
/// clean.
#[test]
fn paper_protocol_clean_from_every_start_epoch_across_the_wrap() {
    for start in [0, 1, u64::MAX - 1, u64::MAX] {
        let report = dpor(Case {
            start,
            cycles: 2,
            ..PAPER
        });
        assert!(report.is_clean(), "start epoch {start}: {report}");
    }
}

/// Mutation: the writer reclaims without waiting for readers (line 7).
#[test]
fn writer_skipping_the_drain_is_caught() {
    caught_on_every_dpor_run(Case {
        drain: false,
        ..PAPER
    });
}

/// Mutation: the reader skips the verification read (line 13). One cycle
/// is safe; the paper's scenario needs two: the first writer misses the
/// reader's late increment, and the *second* drains the other parity and
/// reclaims the version under the reader.
#[test]
fn reader_skipping_the_verify_is_caught() {
    caught_on_every_dpor_run(Case {
        reader: ReadSide::SkipVerify,
        cycles: 2,
        ..PAPER
    });
}

/// Loading the snapshot before pinning is safe while the epoch cannot
/// return to the value the reader loaded: any advance in between fails
/// the match and the reader retries with a fresh index.
#[test]
fn early_snapshot_load_is_safe_below_the_wrap() {
    for start in [0, u64::MAX] {
        let report = dpor(Case {
            start,
            reader: ReadSide::EarlyLoad,
            ..PAPER
        });
        assert!(report.is_clean(), "start epoch {start}: {report}");
    }
}

/// Across a full epoch wrap the early-load reader's verify passes
/// spuriously — the epoch is back at the value it loaded — while the
/// version it loaded was reclaimed a full cycle ago (DESIGN.md §5b). The
/// violation is a use-after-reclaim, not a race: the epoch store orders
/// the reclaim before the read. The same writer against the paper's
/// reader is clean: it loads the index *after* verifying, so a spurious
/// pass still hands it the current version.
#[test]
fn early_snapshot_load_across_the_wrap_is_caught() {
    let wrap = Case {
        start: u64::MAX,
        wrap: true,
        ..PAPER
    };
    let report = caught_on_every_dpor_run(Case {
        reader: ReadSide::EarlyLoad,
        ..wrap
    });
    assert!(
        report
            .shadow
            .iter()
            .any(|v| v.kind == ShadowKind::UseAfterReclaim),
        "{report}"
    );
    let report = dpor(wrap);
    assert!(report.is_clean(), "{report}");
}
