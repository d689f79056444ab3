//! The closed-loop 90% read / 10% write mix over the first
//! [`Sizes::keys`](crate::env::Sizes) elements, and the worker loop the
//! grow-under-load reader shares with it.

use crate::check::{read_ok, tag};
use crate::env::{Env, Sizes, LOCALES};
use crate::rng::Rng;
use crate::stats::SampleBuf;
use crate::trace::{at_ns, Span};
use rcuarray::{RcuArray, Scheme};
use rcuarray_runtime::{task, LocaleId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Ops between a worker's stop-flag checks and progress publications.
const CHUNK: u64 = 256;
/// Read samples one worker keeps.
const READ_SAMPLES: usize = 1 << 18;
/// Traced runs record spans for one sampled op in this many.
const SPAN_EVERY: u64 = 8;
/// Write samples one worker keeps.
const WRITE_SAMPLES: usize = 1 << 17;

/// How one worker drives the array.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPlan {
    /// Tags written values and validates reads.
    pub seed: u64,
    /// Elements addressed, a power of two.
    pub keys: usize,
    /// Time one read in this many ops, and one write in an eighth as
    /// many (a power of two).
    pub sample_every: u64,
    /// Checkpoint every this many ops (0: never).
    pub checkpoint_every: u64,
    /// Record spans for the sampled ops.
    pub traced: bool,
    /// High bits of this worker's op ids.
    pub worker: u64,
}

/// What one worker did and saw.
#[derive(Debug)]
pub struct WorkerOut {
    /// Reads performed.
    pub reads: u64,
    /// Writes performed.
    pub writes: u64,
    /// Reads that returned a value the workload never stored there.
    pub bad_reads: u64,
    /// Sampled read latencies, ns.
    pub read_ns: SampleBuf,
    /// Sampled write latencies, ns.
    pub write_ns: SampleBuf,
    /// Every checkpoint's duration, ns.
    pub checkpoint_ns: Vec<u64>,
    /// Deferred reclamations the checkpoints ran.
    pub checkpoint_freed: u64,
    /// Spans of the sampled ops (traced runs only).
    pub spans: Vec<Span>,
    /// Ops timed so far.
    pub sampled: u64,
    /// CPU time the worker ran, ns.
    pub cpu_ns: u64,
}

impl WorkerOut {
    /// An empty result with its sample buffers allocated.
    pub fn with_buffers() -> Self {
        WorkerOut {
            reads: 0,
            writes: 0,
            bad_reads: 0,
            read_ns: SampleBuf::with_capacity(READ_SAMPLES),
            write_ns: SampleBuf::with_capacity(WRITE_SAMPLES),
            checkpoint_ns: Vec::new(),
            checkpoint_freed: 0,
            spans: Vec::new(),
            sampled: 0,
            cpu_ns: 0,
        }
    }

    /// Total ops.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Ops per second of the CPU time this worker ran.
    pub fn ops_per_cpu_s(&self) -> f64 {
        self.ops() as f64 * 1e9 / self.cpu_ns as f64
    }

    /// Free the latency sample buffers (once their quantiles are taken),
    /// so a run's memory does not grow with the samples it has kept.
    pub fn drop_samples(&mut self) {
        self.read_ns = SampleBuf::with_capacity(0);
        self.write_ns = SampleBuf::with_capacity(0);
    }
}

/// Run the 90/10 mix on the calling thread until `stop` is set,
/// publishing the op count to `progress` every [`CHUNK`] ops. Records
/// into `out`, a fresh [`WorkerOut::with_buffers`] (allocated by the caller, so a
/// caller measuring the heap can leave the sample buffers out).
pub fn worker<S: Scheme>(
    array: &RcuArray<u64, S>,
    plan: WorkerPlan,
    progress: &AtomicU64,
    stop: &AtomicBool,
    mut out: WorkerOut,
) -> WorkerOut {
    debug_assert!(plan.keys.is_power_of_two() && plan.sample_every.is_power_of_two());
    let mut rng = Rng::new(plan.seed, 0x100 + plan.worker);
    let sample_mask = plan.sample_every - 1;
    let cpu0 = crate::env::thread_cpu_ns();
    let mut n: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..CHUNK {
            let (idx, is_write) = rng.mix_op(plan.keys);
            // Writes are a tenth of the ops: sample them 8x as often so
            // each kind has enough samples for its p99.
            let mask = if is_write {
                sample_mask >> 3
            } else {
                sample_mask
            };
            if n & mask != 0 {
                if is_write {
                    array.write(idx, tag(plan.seed, idx));
                    out.writes += 1;
                } else {
                    let v = array.read(idx);
                    out.bad_reads += u64::from(!read_ok(plan.seed, idx, v));
                    out.reads += 1;
                }
            } else {
                sampled_op(array, &plan, &mut out, n, idx, is_write);
            }
            n += 1;
            if plan.checkpoint_every != 0 && n.is_multiple_of(plan.checkpoint_every) {
                let t0 = Instant::now();
                out.checkpoint_freed += array.checkpoint() as u64;
                let t1 = Instant::now();
                out.checkpoint_ns.push((t1 - t0).as_nanos() as u64);
                if plan.traced {
                    out.spans.push(Span {
                        op: (plan.worker << 48) | n | (1 << 47),
                        name: "rcuarray.checkpoint",
                        parent: None,
                        start: at_ns(t0),
                        end: at_ns(t1),
                    });
                }
            }
        }
        progress.store(n, Ordering::Relaxed);
    }
    out.cpu_ns = crate::env::thread_cpu_ns() - cpu0;
    out
}

/// One timed op; with tracing, an `op` span around the benchmark's own
/// work (tagging, checking) and a child span around the array call.
#[inline(never)]
fn sampled_op<S: Scheme>(
    array: &RcuArray<u64, S>,
    plan: &WorkerPlan,
    out: &mut WorkerOut,
    n: u64,
    idx: usize,
    is_write: bool,
) {
    out.sampled += 1;
    let ta = (plan.traced && out.sampled.is_multiple_of(SPAN_EVERY)).then(Instant::now);
    let (name, t0, t1) = if is_write {
        let value = tag(plan.seed, idx);
        let t0 = Instant::now();
        array.write(idx, value);
        let t1 = Instant::now();
        out.writes += 1;
        out.write_ns.push((t1 - t0).as_nanos() as u64);
        ("rcuarray.write", t0, t1)
    } else {
        let t0 = Instant::now();
        let v = array.read(idx);
        let t1 = Instant::now();
        out.bad_reads += u64::from(!read_ok(plan.seed, idx, v));
        out.reads += 1;
        out.read_ns.push((t1 - t0).as_nanos() as u64);
        ("rcuarray.read", t0, t1)
    };
    if let Some(ta) = ta {
        let op = (plan.worker << 48) | n;
        let td = Instant::now();
        out.spans.push(Span {
            op,
            name: "op",
            parent: None,
            start: at_ns(ta),
            end: at_ns(td),
        });
        out.spans.push(Span {
            op,
            name,
            parent: Some("op"),
            start: at_ns(t0),
            end: at_ns(t1),
        });
    }
}

/// Result of a closed-loop mix stage.
#[derive(Debug)]
pub struct MixOut {
    /// Per-worker results.
    pub workers: Vec<WorkerOut>,
    /// Aggregate ops/s of each measurement window after warm-up.
    pub window_rates: Vec<f64>,
}

/// Length of one throughput window.
pub const WINDOW: Duration = Duration::from_millis(100);
/// Windows discarded while caches fill.
pub const WARMUP_WINDOWS: usize = 1;

/// The mix stage: one worker task per locale, closed loop, for
/// `seconds`. The calling thread only sleeps and reads the workers'
/// progress counters once per [`WINDOW`]. `chunk` numbers the call
/// within a run, so each call draws its own op sequence.
pub fn run<S: Scheme>(
    env: &Env<S>,
    sizes: &Sizes,
    seed: u64,
    chunk: u64,
    seconds: f64,
    traced: bool,
) -> MixOut {
    let stop = AtomicBool::new(false);
    let progress: Vec<Padded> = (0..LOCALES).map(|_| Padded::default()).collect();
    let windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(WARMUP_WINDOWS + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..LOCALES)
            .map(|loc| {
                let (array, stop, progress) = (&env.array, &stop, &progress[loc].0);
                let plan = WorkerPlan {
                    seed,
                    keys: sizes.keys,
                    sample_every: sizes.sample_every,
                    checkpoint_every: 0,
                    traced,
                    worker: 0x1000 | (chunk << 4) | loc as u64,
                };
                s.spawn(move || {
                    task::with_locale(LocaleId::new(loc as u32), || {
                        worker(array, plan, progress, stop, WorkerOut::with_buffers())
                    })
                })
            })
            .collect();
        let total = || {
            progress
                .iter()
                .map(|p| p.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let mut rates = Vec::with_capacity(windows);
        let start = Instant::now();
        let mut prev = (start, total());
        for w in 1..=windows {
            let due = start + WINDOW * w as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = (Instant::now(), total());
            if w > WARMUP_WINDOWS {
                rates.push((now.1 - prev.1) as f64 / (now.0 - prev.0).as_secs_f64());
            }
            prev = now;
        }
        stop.store(true, Ordering::Relaxed);
        MixOut {
            workers: handles
                .into_iter()
                .map(|h| h.join().expect("mix worker panicked"))
                .collect(),
            window_rates: rates,
        }
    })
}

/// A progress counter on its own cache line, so publishing it never
/// shares a line with another worker's.
#[derive(Default)]
#[repr(align(128))]
pub struct Padded(pub AtomicU64);
