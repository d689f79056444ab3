//! Grow under load (the shape of the paper's Fig. 3): a task on locale 0
//! grows the array by one block, back to back, while a task on locale 1
//! runs the 90/10 mix over the first [`Sizes::keys`] elements and
//! checkpoints every [`Sizes::checkpoint_every`] ops. The reader runs
//! until the resizer finishes.

use crate::check::{self, CheckFailed};
use crate::env::{Env, Sizes};
use crate::mix::{worker, WorkerOut, WorkerPlan};
use crate::trace::{at_ns, Span};
use rcuarray::Scheme;
use rcuarray_runtime::{task, LocaleId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One round's results.
#[derive(Debug)]
pub struct RoundOut {
    /// The reader's work.
    pub reader: WorkerOut,
    /// Every resize's duration, ns.
    pub resize_ns: Vec<u64>,
    /// The resizer's checkpoint durations, ns.
    pub resizer_checkpoint_ns: Vec<u64>,
    /// Deferred reclamations the resizer's checkpoints ran.
    pub resizer_freed: u64,
    /// Resize spans (traced runs only).
    pub spans: Vec<Span>,
    /// Peak reclamation backlog sampled between resizes, bytes (traced
    /// runs only).
    pub backlog_peak_bytes: u64,
    /// Peak epoch lag sampled between resizes (traced runs only).
    pub epoch_lag_peak: u64,
}

/// Run one round on `env`, whose array holds [`Sizes::keys`] elements,
/// with the reader recording into `reader` (see [`worker`]). Checks that
/// the array ends exactly `grows_per_round` blocks larger.
pub fn round<S: Scheme>(
    env: &Env<S>,
    sizes: &Sizes,
    seed: u64,
    traced: bool,
    round_id: u64,
    reader: WorkerOut,
) -> Result<RoundOut, CheckFailed> {
    let array = &env.array;
    let initial = array.capacity();
    let stop = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    let progress = &progress;
    let plan = WorkerPlan {
        seed,
        keys: sizes.keys,
        sample_every: sizes.sample_every,
        checkpoint_every: sizes.checkpoint_every,
        traced,
        worker: 0x2000 | round_id,
    };
    let (reader, resizer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            task::with_locale(LocaleId::new(1), || {
                worker(array, plan, progress, &stop, reader)
            })
        });
        let resizer = s.spawn(|| {
            task::with_locale(LocaleId::new(0), || {
                let mut resize_ns = Vec::with_capacity(sizes.grows_per_round);
                let mut ckpt_ns = Vec::with_capacity(sizes.grows_per_round);
                let mut spans = Vec::new();
                let (mut freed, mut backlog, mut lag) = (0u64, 0u64, 0u64);
                // Let the reader reach its loop before the first resize.
                while progress.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                for i in 0..sizes.grows_per_round {
                    let t0 = Instant::now();
                    array.resize(sizes.block_size);
                    let t1 = Instant::now();
                    freed += array.checkpoint() as u64;
                    let t2 = Instant::now();
                    resize_ns.push((t1 - t0).as_nanos() as u64);
                    ckpt_ns.push((t2 - t1).as_nanos() as u64);
                    if traced {
                        spans.push(Span {
                            op: (round_id << 32) | i as u64,
                            name: "rcuarray.resize",
                            parent: None,
                            start: at_ns(t0),
                            end: at_ns(t1),
                        });
                        if i % 16 == 15 {
                            let r = array.stats().reclaim;
                            backlog = backlog.max(r.pending_bytes);
                            lag = lag.max(r.epoch_lag);
                        }
                    }
                }
                stop.store(true, Ordering::Relaxed);
                (resize_ns, ckpt_ns, freed, spans, backlog, lag)
            })
        });
        (
            reader.join().expect("grow reader panicked"),
            resizer.join().expect("resizer panicked"),
        )
    });
    let (resize_ns, resizer_checkpoint_ns, resizer_freed, spans, backlog, lag) = resizer;
    check::expect_no_bad_reads("qsbr_grow_mix", reader.bad_reads, reader.reads)?;
    check::expect_capacity(
        "qsbr_grow_mix",
        initial,
        resize_ns.len(),
        sizes.block_size,
        array.capacity(),
    )?;
    Ok(RoundOut {
        reader,
        resize_ns,
        resizer_checkpoint_ns,
        resizer_freed,
        spans,
        backlog_peak_bytes: backlog,
        epoch_lag_peak: lag,
    })
}
