//! The two workloads and the metrics they report.
//!
//! A run is a series of identical cycles. Each cycle sets up a fresh
//! cluster and array (timed: `setup_s`), runs the workload's mix, grows
//! fresh arrays under a concurrent reader (the resize metrics), and
//! serves the array through `Service` at saturation. Every end-to-end
//! metric is thus measured on every workload, and each is a median over
//! cycles, rounds or windows: host stalls that last a few cycles move a
//! run's numbers little.
//!
//! A traced run (`--trace 1`) runs the same cycles with spans recorded
//! (the mix is traced on every other cycle, which measures the tracing
//! overhead) and with two open-loop service phases per cycle, then the
//! knee ladder and the direct layer probes, and reports the per-layer
//! split.

use crate::alloc;
use crate::check::{self, CheckFailed};
use crate::env::{self, Env, Sizes};
use crate::grow::{self, RoundOut};
use crate::mix::{self, MixOut, WorkerOut};
use crate::probes;
use crate::stats::{median, merge_sorted, quantile, Quantile};
use crate::svc::{self, hist_quantile, Capacity, Phase, PhaseOut, SloDelta};
use crate::trace::{self, Span};
use rcuarray::{EbrScheme, QsbrScheme, Scheme};
use rcuarray_service::{Service, ServiceConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Offered rate of the `svc_lo` phase, requests/s.
pub const SVC_LO_RPS: f64 = 2_000.0;
/// Offered rate of the `svc_hi` phase, requests/s.
pub const SVC_HI_RPS: f64 = 10_000.0;
/// Rates of the knee ladder, requests/s, run in order until one fails.
/// Steps of about sqrt(2).
pub const LADDER_RPS: [f64; 9] = [
    10_000.0, 14_000.0, 20_000.0, 28_000.0, 40_000.0, 56_000.0, 80_000.0, 112_000.0, 160_000.0,
];

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EBRArray, closed-loop 90/10 mix, no resizes in the mix.
    EbrReadMostly,
    /// QSBRArray, 90/10 reader next to a back-to-back resizer.
    QsbrGrowMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::EbrReadMostly, Workload::QsbrGrowMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EbrReadMostly => "ebr_read_mostly",
            Workload::QsbrGrowMix => "qsbr_grow_mix",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Sizes.
    pub sizes: Sizes,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was computed (percentile used, sample count).
    pub note: String,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: array ops, resizes, and service requests of
    /// the capacity and fixed-rate phases. Ladder requests (traced runs)
    /// are a capacity search and are left out.
    pub attempted: u64,
    /// Of those, requests refused, shed or failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    fn quantile(&mut self, name: &'static str, q: Quantile, scale: f64, unit: &'static str) {
        let note = format!("p{:.2} of {} samples", q.q * 100.0, q.n);
        self.put(name, q.value / scale, unit, note);
    }
}

/// Run one workload.
pub fn run(o: &Opts) -> Result<Report, CheckFailed> {
    match o.workload {
        Workload::EbrReadMostly => run_with::<EbrScheme>(o, Main::Mix),
        Workload::QsbrGrowMix => run_with::<QsbrScheme>(o, Main::Grow),
    }
}

/// The workloads differ in reclamation scheme and in how a cycle's
/// time is split between the mix and growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Main {
    /// Mostly the mix; one grow round per cycle. The mix gives the read,
    /// write and throughput figures.
    Mix,
    /// A short mix; three grow rounds per cycle, whose readers give the
    /// read, write and throughput figures.
    Grow,
}

/// The service's default configuration with a 1 s shedding deadline in
/// place of 50 ms. The host deschedules a vCPU for up to 80 ms at a time;
/// with the default, such a stall sheds the requests queued behind it,
/// and a run's `failed` count would report the host, not the service.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        deadline: Duration::from_secs(1),
        ..ServiceConfig::default()
    }
}

/// Nominal cycle length, s, by the workload's main stage. The timed
/// stages of a cycle are shares of it; a grow round is fixed work (0.2 to
/// 0.5 s on the host of METHOD.md), so the grow workload's cycles are
/// longer.
fn nominal_cycle_s(main: Main) -> f64 {
    match main {
        Main::Mix => 1.25,
        Main::Grow => 2.0,
    }
}
/// Set-ups per cycle; the last one's array is used.
const SETUPS_PER_CYCLE: usize = 32;
/// Capacity-phase client threads.
const CAPACITY_CLIENTS: usize = 1;
/// Requests each capacity client keeps in flight (two full batches per
/// worker).
const CAPACITY_DEPTH: usize = 128;

/// Stage lengths, as shares of the nominal cycle.
struct Plan {
    /// Mix per cycle, s.
    mix: f64,
    /// Grow rounds per cycle.
    rounds: usize,
    /// Saturated service phase per cycle, s.
    capacity: f64,
    /// Each fixed-rate service phase per cycle (traced runs), s.
    svc_phase: f64,
    /// Each knee-ladder rung (traced runs), s.
    rung: f64,
}

impl Plan {
    fn new(main: Main, seconds: f64) -> Plan {
        let cycle = nominal_cycle_s(main).min(seconds / 2.0);
        // (mix, grow rounds, capacity phase); the grow rounds take about
        // a fifth of a Mix cycle and three quarters of a Grow one.
        let (mix, rounds, capacity) = match main {
            Main::Mix => (0.5 * cycle, 1, 0.3 * cycle),
            Main::Grow => (0.1 * cycle, 3, 0.15 * cycle),
        };
        Plan {
            mix,
            rounds,
            capacity,
            svc_phase: 0.1 * cycle,
            rung: 0.04 * seconds,
        }
    }
}

/// Read and write latency quantiles of one mix stage or grow round.
#[derive(Debug, Clone, Copy)]
struct Lat {
    read: [Quantile; 2],
    write: [Quantile; 2],
}

fn lat_of(workers: &[&WorkerOut]) -> Lat {
    let q = |v: Vec<u64>| [quantile(&v, 0.5), quantile(&v, 0.99)];
    Lat {
        read: q(merge_sorted(workers.iter().map(|w| w.read_ns.samples()))),
        write: q(merge_sorted(workers.iter().map(|w| w.write_ns.samples()))),
    }
}

/// One cycle's results, with the raw latency samples already reduced.
struct Cycle {
    setup_secs: Vec<f64>,
    /// Latencies of the mix.
    lat: Lat,
    /// Latencies of each grow round's reader.
    round_lats: Vec<Lat>,
    mix: MixOut,
    mix_traced: bool,
    /// EBR pin retries and (remote ops, transport messages) in the mix.
    mix_counts: (u64, u64, u64),
    rounds: Vec<RoundOut>,
    /// Most heap bytes each grow round held at once, its set-up included.
    round_peaks: Vec<usize>,
    capacity: Capacity,
    /// Process CPU seconds used in the capacity phase.
    capacity_cpu_s: f64,
    lo: PhaseOut,
    hi: PhaseOut,
}

/// Everything a run measured.
struct Stages {
    cycles: Vec<Cycle>,
    reclaimed_bytes: u64,
    rungs: Vec<svc::Rung>,
}

fn run_with<S: Scheme>(o: &Opts, main: Main) -> Result<Report, CheckFailed> {
    let plan = Plan::new(main, o.seconds);
    let sizes = &o.sizes;
    let scfg = service_config();
    let reclaimed_before = reclaimed_bytes();
    // Cycles run until the budget is spent (at least two), ending as
    // near to it as the mean cycle allows.
    let start = Instant::now();
    let mut cycles = Vec::new();
    loop {
        cycles.push(cycle::<S>(o, &plan, cycles.len() as u64)?);
        let spent = start.elapsed().as_secs_f64();
        if cycles.len() >= 2 && spent + 0.5 * spent / cycles.len() as f64 >= o.seconds {
            break;
        }
    }
    let reclaimed_bytes = reclaimed_bytes() - reclaimed_before;

    let rungs = if o.traced {
        let env = env::build::<S>(sizes, env::config(sizes.block_size));
        let service = Service::start(env.array.clone(), scfg);
        let rungs = svc::ladder(&service, o.seed, &LADDER_RPS, plan.rung, sizes.keys)?;
        service.shutdown();
        rungs
    } else {
        Vec::new()
    };

    let st = Stages {
        cycles,
        reclaimed_bytes,
        rungs,
    };
    let mut rep = Report::default();
    count(&st, &mut rep);
    if o.traced {
        per_layer::<S>(o, &st, &mut rep);
    } else {
        end_to_end(&st, main, &mut rep);
    }
    Ok(rep)
}

/// One cycle: set up, mix, grow under load, serve.
fn cycle<S: Scheme>(o: &Opts, plan: &Plan, c: u64) -> Result<Cycle, CheckFailed> {
    let sizes = &o.sizes;
    let mut setup_secs = Vec::with_capacity(SETUPS_PER_CYCLE);
    let mut env = None;
    for _ in 0..SETUPS_PER_CYCLE {
        let t = Instant::now();
        let e = env::build::<S>(sizes, env::config(sizes.block_size));
        setup_secs.push(t.elapsed().as_secs_f64());
        drop(env.replace(e));
    }
    let env = env.expect("set up");

    // Traced runs trace every other mix; the untraced ones give the
    // baseline for the tracing overhead.
    let mix_traced = o.traced && c % 2 == 1;
    let before = (env.array.stats(), messages(&env));
    let mut mix = mix::run(&env, sizes, o.seed, c, plan.mix, mix_traced);
    let after = (env.array.stats(), messages(&env));
    check_mix(&mix)?;
    let mix_counts = (
        after.0.reclaim.guard_retries - before.0.reclaim.guard_retries,
        after.0.comm.remote_ops() - before.0.comm.remote_ops(),
        after.1 - before.1,
    );
    let lat = lat_of(&mix.workers.iter().collect::<Vec<_>>());
    mix.workers.iter_mut().for_each(WorkerOut::drop_samples);

    let mut rounds = Vec::with_capacity(plan.rounds);
    let mut round_lats = Vec::with_capacity(plan.rounds);
    let mut round_peaks = Vec::with_capacity(plan.rounds);
    for r in 0..plan.rounds {
        // The peak counts the round's cluster and array, but not the
        // reader's sample buffers or anything alive before the round.
        let reader = WorkerOut::with_buffers();
        let base = alloc::reset_peak();
        let fresh = env::build::<S>(sizes, env::config(sizes.block_size));
        let mut round = grow::round(&fresh, sizes, o.seed, o.traced, c * 8 + r as u64, reader)?;
        round_peaks.push(alloc::peak_bytes() - base);
        round_lats.push(lat_of(&[&round.reader]));
        round.reader.drop_samples();
        rounds.push(round);
    }

    let service = Service::start(env.array.clone(), service_config());
    let cpu0 = env::process_cpu_s();
    let capacity = svc::capacity_phase(
        &service,
        o.seed,
        0x800 + 4 * c,
        CAPACITY_CLIENTS,
        CAPACITY_DEPTH,
        plan.capacity,
        sizes.keys,
    )?;
    let capacity_cpu_s = env::process_cpu_s() - cpu0;
    let (lo, hi) = if o.traced {
        let phase = |rate| Phase {
            rate,
            secs: plan.svc_phase,
        };
        (
            svc::run_phase(
                &service,
                o.seed,
                0x500 + 2 * c,
                phase(SVC_LO_RPS),
                sizes.keys,
                true,
            )?,
            svc::run_phase(
                &service,
                o.seed,
                0x501 + 2 * c,
                phase(SVC_HI_RPS),
                sizes.keys,
                true,
            )?,
        )
    } else {
        (PhaseOut::default(), PhaseOut::default())
    };
    service.shutdown();
    Ok(Cycle {
        setup_secs,
        lat,
        round_lats,
        mix,
        mix_traced,
        mix_counts,
        rounds,
        round_peaks,
        capacity,
        capacity_cpu_s,
        lo,
        hi,
    })
}

/// Fail unless every read of the mix returned 0 or its index's tag.
pub fn check_mix(m: &MixOut) -> Result<(), CheckFailed> {
    let bad = m.workers.iter().map(|w| w.bad_reads).sum();
    let reads = m.workers.iter().map(|w| w.reads).sum();
    check::expect_no_bad_reads("mix", bad, reads)
}

fn messages<S: Scheme>(env: &Env<S>) -> u64 {
    let t = env.cluster.comm().transport();
    let n = env.cluster.num_locales() as u32;
    let ids = || (0..n).map(rcuarray_runtime::LocaleId::new);
    ids()
        .flat_map(|a| ids().map(move |b| (a, b)))
        .map(|(a, b)| t.link_stats(a, b).messages)
        .sum()
}

fn reclaimed_bytes() -> u64 {
    rcuarray_obs::snapshot()
        .counter("rcuarray_qsbr_reclaimed_bytes_total")
        .unwrap_or(0)
}

fn mix_ops(c: &Cycle) -> u64 {
    c.mix.workers.iter().map(WorkerOut::ops).sum()
}

fn rounds(st: &Stages) -> impl Iterator<Item = &RoundOut> {
    st.cycles.iter().flat_map(|c| &c.rounds)
}

fn count(st: &Stages, rep: &mut Report) {
    for c in &st.cycles {
        // A set-up's one resize, the reader's ops and the resizes.
        let grow: u64 = c
            .rounds
            .iter()
            .map(|r| 1 + r.reader.ops() + r.resize_ns.len() as u64)
            .sum();
        rep.attempted += SETUPS_PER_CYCLE as u64
            + mix_ops(c)
            + grow
            + c.capacity.outcomes.submitted
            + c.lo.outcomes.submitted
            + c.hi.outcomes.submitted;
        rep.failed +=
            c.capacity.outcomes.refused() + c.lo.outcomes.refused() + c.hi.outcomes.refused();
    }
}

/// Median of `f(lat)` over `lats`.
fn median_of(lats: &[&Lat], f: impl Fn(&Lat) -> Quantile) -> Quantile {
    let qs: Vec<Quantile> = lats.iter().map(|l| f(l)).collect();
    let mut v: Vec<f64> = qs.iter().map(|q| q.value).collect();
    Quantile {
        q: qs.iter().map(|q| q.q).fold(1.0, f64::min),
        value: median(&mut v),
        n: qs.iter().map(|q| q.n).sum(),
    }
}

fn end_to_end(st: &Stages, main: Main, rep: &mut Report) {
    let mut setup: Vec<f64> = st
        .cycles
        .iter()
        .flat_map(|c| c.setup_secs.iter().copied())
        .collect();
    let ns = setup.len();
    rep.put(
        "setup_s",
        median(&mut setup),
        "s",
        format!("median of {ns} set-ups"),
    );
    // Ops per second of the tasks' own CPU time: the hypervisor's steal
    // (up to a fifth of a vCPU here) drops out, while everything the
    // program spends stays in. A reader blocked by a resize shows in the
    // latencies below.
    let (mut rates, lats, stage, tasks): (Vec<f64>, Vec<&Lat>, _, _) = match main {
        Main::Mix => (
            st.cycles
                .iter()
                .map(|c| c.mix.workers.iter().map(WorkerOut::ops_per_cpu_s).sum())
                .collect(),
            st.cycles.iter().map(|c| &c.lat).collect(),
            "mixes",
            env::LOCALES,
        ),
        Main::Grow => (
            rounds(st).map(|r| r.reader.ops_per_cpu_s()).collect(),
            st.cycles.iter().flat_map(|c| &c.round_lats).collect(),
            "grow rounds' readers (next to the resizer)",
            1,
        ),
    };
    let n = lats.len();
    rep.put(
        "ops_per_s",
        median(&mut rates),
        "1/s",
        format!("ops per task CPU-second x {tasks} tasks, median over {n} {stage}"),
    );
    let lat = [
        ("read_p50_ns", 0, true),
        ("read_p99_ns", 1, true),
        ("write_p50_ns", 0, false),
        ("write_p99_ns", 1, false),
    ];
    for (name, i, read) in lat {
        let q = median_of(&lats, |l| if read { l.read[i] } else { l.write[i] });
        let note = format!(
            "median over {n} {stage} of p{:.2}; {} samples in all",
            q.q * 100.0,
            q.n
        );
        rep.put(name, q.value, "ns", note);
    }
    let mut resize: Vec<f64> = rounds(st).map(|r| resize_quantile(r, 0.5).value).collect();
    let nrounds = resize.len();
    rep.put(
        "resize_p50_us",
        median(&mut resize) / 1e3,
        "us",
        format!("median over {nrounds} grow rounds of their median"),
    );
    let mut peaks: Vec<f64> = st
        .cycles
        .iter()
        .flat_map(|c| c.round_peaks.iter().map(|&b| b as f64 / (1 << 20) as f64))
        .collect();
    rep.put(
        "peak_heap_mib",
        median(&mut peaks),
        "MiB",
        format!(
            "most heap bytes a grow round held at once, its set-up included, \
             median of {nrounds} rounds"
        ),
    );
    let (served, cpu) = st.cycles.iter().fold((0, 0.0), |a, c| {
        (a.0 + c.capacity.outcomes.served, a.1 + c.capacity_cpu_s)
    });
    rep.put(
        "svc.cpu_us_per_req",
        cpu * 1e6 / served as f64,
        "us",
        format!("process CPU per request served in the capacity phases ({served} requests)"),
    );
}

fn resize_quantile(r: &RoundOut, q: f64) -> Quantile {
    let mut v = r.resize_ns.clone();
    v.sort_unstable();
    quantile(&v, q)
}

fn per_layer<S: Scheme>(o: &Opts, st: &Stages, rep: &mut Report) {
    let sizes = &o.sizes;
    let cycles = &st.cycles;
    let mut spans: Vec<Span> = Vec::new();
    for c in cycles {
        spans.extend(c.mix.workers.iter().flat_map(|w| w.spans.iter().copied()));
        for r in &c.rounds {
            spans.extend(r.reader.spans.iter().chain(&r.spans).copied());
        }
        spans.extend(c.lo.spans.iter().chain(&c.hi.spans).copied());
    }
    if let Some(dir) = &o.trace_dir {
        let path = dir.join(format!("trace-{}-{}.csv", o.workload.name(), o.seed));
        if let Err(e) = trace::write_csv(&path, &spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let selfs = trace::self_times(&spans);
    let med = |name: &str| -> (f64, usize) {
        selfs
            .get(name)
            .map_or((f64::NAN, 0), |v| (quantile(v, 0.5).value, v.len()))
    };

    // rcuarray
    let (read_ns, n_read) = med("rcuarray.read");
    let (write_ns, n_write) = med("rcuarray.write");
    rep.put(
        "rcuarray.read.ns",
        read_ns,
        "ns",
        format!("median span of {n_read} sampled mix reads"),
    );
    rep.put(
        "rcuarray.write.ns",
        write_ns,
        "ns",
        format!("median span of {n_write} sampled mix writes"),
    );
    let mut resize_windows: Vec<(u64, u64)> = rounds(st)
        .flat_map(|r| r.spans.iter())
        .filter(|s| s.name == "rcuarray.resize")
        .map(|s| (s.start, s.end))
        .collect();
    resize_windows.sort_unstable();
    let reader_spans: Vec<Span> = rounds(st)
        .flat_map(|r| r.reader.spans.iter().copied())
        .collect();
    let mut during: Vec<u64> = trace::overlapping(&reader_spans, "rcuarray.read", &resize_windows)
        .map(Span::dur)
        .collect();
    during.sort_unstable();
    rep.put(
        "rcuarray.read_during_resize.ns",
        quantile(&during, 0.5).value,
        "ns",
        format!(
            "median of {} sampled reads overlapping a resize",
            during.len()
        ),
    );
    let mut busy: Vec<f64> = rounds(st)
        .map(|r| r.resize_ns.iter().sum::<u64>() as f64 / 1e3)
        .collect();
    let (per_round, nrounds) = (sizes.grows_per_round, busy.len());
    rep.put(
        "rcuarray.resize.busy_us",
        median(&mut busy),
        "us",
        format!("time inside resize per round of {per_round}, median of {nrounds} rounds"),
    );
    let mut p99: Vec<f64> = rounds(st).map(|r| resize_quantile(r, 0.99).value).collect();
    rep.put(
        "rcuarray.resize.p99_us",
        median(&mut p99) / 1e3,
        "us",
        format!("median over {nrounds} grow rounds of their p99"),
    );
    let resizes = cycles.len() * SETUPS_PER_CYCLE + nrounds * (1 + per_round);
    rep.put(
        "rcuarray.resize.count",
        resizes as f64,
        "count",
        "set-up and grow-round resizes",
    );
    let mut ckpt: Vec<u64> = rounds(st)
        .flat_map(|r| r.reader.checkpoint_ns.iter().copied())
        .collect();
    ckpt.sort_unstable();
    rep.put(
        "rcuarray.checkpoint.ns",
        quantile(&ckpt, 0.5).value,
        "ns",
        format!("median of {} reader checkpoints", ckpt.len()),
    );
    let calls: usize = rounds(st)
        .map(|r| r.reader.checkpoint_ns.len() + r.resizer_checkpoint_ns.len())
        .sum();
    let freed: u64 = rounds(st)
        .map(|r| r.reader.checkpoint_freed + r.resizer_freed)
        .sum();
    rep.put(
        "rcuarray.checkpoint.freed_per_call",
        freed as f64 / calls.max(1) as f64,
        "count",
        format!("{freed} freed by {calls} checkpoints"),
    );

    // reclaim
    let iters = sizes.probe_iters;
    let pin = probes::ebr_pin_ns(iters);
    rep.put(
        "ebr.pin.ns",
        pin,
        "ns",
        "read_lock+drop on one EpochZone, 2 threads",
    );
    let ops: u64 = cycles.iter().map(mix_ops).sum();
    let sum = |f: fn(&Cycle) -> u64| cycles.iter().map(f).sum::<u64>();
    let retries = sum(|c| c.mix_counts.0);
    rep.put(
        "ebr.pin_retries_per_op",
        retries as f64 / ops.max(1) as f64,
        "1/op",
        format!("{retries} retries in {ops} mix ops"),
    );
    let qsbr = probes::qsbr_read_lock_ns(iters);
    rep.put(
        "qsbr.read_lock.ns",
        qsbr,
        "ns",
        "read_lock on one QsbrDomain, 2 threads",
    );
    rep.put(
        "baseline.raw_load.ns",
        probes::raw_load_ns(iters, o.seed),
        "ns",
        "random relaxed load incl. index draw, 2 threads",
    );
    let backlog = rounds(st).map(|r| r.backlog_peak_bytes).max().unwrap_or(0);
    rep.put(
        "qsbr.backlog_peak_kib",
        backlog as f64 / 1024.0,
        "KiB",
        "sampled every 16 resizes",
    );
    let lag = rounds(st).map(|r| r.epoch_lag_peak).max().unwrap_or(0);
    rep.put(
        "qsbr.epoch_lag_peak",
        lag as f64,
        "count",
        "sampled every 16 resizes",
    );
    rep.put(
        "qsbr.reclaimed_bytes",
        st.reclaimed_bytes as f64,
        "bytes",
        "during the cycles",
    );

    // runtime
    let cluster = env::cluster();
    rep.put(
        "runtime.comm.get_local.ns",
        probes::comm_get_ns(&cluster, 0, iters),
        "ns",
        "get_from(0, 8) on locale 0",
    );
    rep.put(
        "runtime.comm.get_remote.ns",
        probes::comm_get_ns(&cluster, 1, iters),
        "ns",
        "get_from(1, 8) on locale 0",
    );
    let read_iters = sizes.probe_iters / 2;
    let (comm_on, comm_off) = probes::comm_on_off::<S>(sizes, o.seed, read_iters);
    let comm_share = (comm_on - comm_off) / comm_on;
    rep.put(
        "runtime.comm.share",
        comm_share,
        "ratio",
        format!("read {comm_on:.1} ns accounted vs {comm_off:.1} ns not"),
    );
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    rep.put(
        "runtime.comm.remote_per_op",
        per_op(sum(|c| c.mix_counts.1)),
        "1/op",
        "remote gets+puts+ons per mix op",
    );
    rep.put(
        "runtime.transport.messages_per_op",
        per_op(sum(|c| c.mix_counts.2)),
        "1/op",
        "transport messages per mix op",
    );
    rep.put(
        "runtime.task.coforall.us",
        probes::coforall_us(&cluster, 200),
        "us",
        "no-op coforall_locales, median of 200",
    );

    // obs
    let (obs_on, obs_off) = probes::obs_on_off::<S>(sizes, o.seed, read_iters);
    let obs_share = (obs_on - obs_off) / obs_on;
    rep.put(
        "obs.share",
        obs_share,
        "ratio",
        format!("read {obs_on:.1} ns enabled vs {obs_off:.1} ns disabled"),
    );
    rep.put(
        "obs.counter_add.ns",
        probes::counter_add_ns(iters),
        "ns",
        "Counter::add, 2 threads, one counter",
    );

    // service
    service_layer(st, rep);

    // the split of a read, and the tracing itself
    let timer = probes::timer_ns();
    rep.put("bench.timer.ns", timer, "ns", "one Instant::now()");
    let (op_self, _) = med("op");
    rep.put(
        "bench.op.self_ns",
        op_self,
        "ns",
        "op span minus its array call: draw, tag, check, timers",
    );
    let protocol = if S::NAME == "ebr" { pin } else { qsbr };
    let remainder = read_ns - protocol - (comm_share + obs_share) * read_ns - timer;
    rep.put(
        "rcuarray.read.remainder_ns",
        remainder,
        "ns",
        format!(
            "read {read_ns:.1} - protocol {protocol:.1} - comm {:.1} - obs {:.1} - timer {timer:.1}",
            comm_share * read_ns,
            obs_share * read_ns
        ),
    );
    let rate = |traced: bool| {
        let mut v: Vec<f64> = cycles
            .iter()
            .filter(|c| c.mix_traced == traced)
            .flat_map(|c| c.mix.window_rates.iter().copied())
            .collect();
        median(&mut v)
    };
    let (traced, untraced) = (rate(true), rate(false));
    rep.put(
        "mix.wall_ops_per_s",
        untraced,
        "1/s",
        "untraced mix ops/s of wall time, median over 100 ms windows",
    );
    rep.put(
        "trace.overhead",
        1.0 - traced / untraced,
        "ratio",
        format!("mix ops/s traced {traced:.0} vs untraced {untraced:.0}"),
    );
    rep.put(
        "process.peak_rss_mib",
        env::peak_rss_mib(),
        "MiB",
        "VmHWM (allocator-retained pages included)",
    );
}

fn service_layer(st: &Stages, rep: &mut Report) {
    let pooled = |f: fn(&Cycle) -> &PhaseOut, g: fn(&PhaseOut) -> Vec<u64>| {
        let mut v: Vec<u64> = st.cycles.iter().flat_map(|c| g(f(c))).collect();
        v.sort_unstable();
        v
    };
    let lo_all = pooled(|c| &c.lo, PhaseOut::all_ns);
    let hi_all = pooled(|c| &c.hi, PhaseOut::all_ns);
    // Open-loop tails: every request due during a host stall waits it
    // out, so these measure the host as much as the service (METHOD.md).
    rep.quantile("svc_lo.p50_us", quantile(&lo_all, 0.5), 1e3, "us");
    rep.quantile("svc_hi.p50_us", quantile(&hi_all, 0.5), 1e3, "us");
    rep.quantile("svc_lo.p99_us", quantile(&lo_all, 0.99), 1e3, "us");
    rep.quantile("svc_hi.p99_us", quantile(&hi_all, 0.99), 1e3, "us");
    let rungs: Vec<String> = st
        .rungs
        .iter()
        .map(|r| {
            format!(
                "{:.0}:{:.0}us{}",
                r.rate,
                r.p50_ns / 1e3,
                if r.holds() { "" } else { "!" }
            )
        })
        .collect();
    let knee = svc::knee(&st.rungs).unwrap_or_else(|| {
        // Not even the first rung held: scale its rate to the limit.
        let r = st.rungs[0];
        r.rate * (svc::KNEE_P50_LIMIT_NS / r.p50_ns).min(1.0)
    });
    rep.put(
        "svc.knee_rps",
        knee,
        "1/s",
        format!("rungs {}", rungs.join(" ")),
    );
    let mut cap: Vec<f64> = st
        .cycles
        .iter()
        .flat_map(|c| c.capacity.window_rps.iter().copied())
        .collect();
    let nw = cap.len();
    rep.put(
        "svc.capacity_rps",
        median(&mut cap),
        "1/s",
        format!("median of {nw} windows; {CAPACITY_CLIENTS} client x {CAPACITY_DEPTH} in flight"),
    );

    let mut hi = SloDelta::default();
    let mut lo = SloDelta::default();
    for c in &st.cycles {
        hi.add(&c.hi.slo);
        lo.add(&c.lo.slo);
    }
    let submit = pooled(|c| &c.hi, |p| p.submit_ns.clone());
    let submit = quantile(&submit, 0.5);
    rep.put(
        "service.submit.ns",
        submit.value,
        "ns",
        format!("median of {} submits at svc_hi", submit.n),
    );
    rep.put(
        "service.queue_wait.p50_us",
        hist_quantile(&hi.queue_wait, 0.5) / 1e3,
        "us",
        "svc_hi, telemetry histogram",
    );
    rep.put(
        "service.queue_wait.p99_us",
        hist_quantile(&hi.queue_wait, 0.99) / 1e3,
        "us",
        "svc_hi, telemetry histogram",
    );
    rep.put(
        "service.execute.p50_us",
        hist_quantile(&lo.execute, 0.5) / 1e3,
        "us",
        "per batch at svc_lo, telemetry histogram",
    );
    let mut both = hi;
    both.add(&lo);
    rep.put(
        "service.batch_size.mean",
        both.requests as f64 / both.batches.max(1) as f64,
        "count",
        "svc_lo+svc_hi",
    );
    rep.put(
        "service.requests_per_pin",
        both.requests as f64 / both.pins.max(1) as f64,
        "count",
        "svc_lo+svc_hi",
    );
    rep.put(
        "service.refused",
        st.cycles
            .iter()
            .map(|c| {
                c.capacity.outcomes.refused() + c.lo.outcomes.refused() + c.hi.outcomes.refused()
            })
            .sum::<u64>() as f64,
        "count",
        "refused, shed or failed: capacity, svc_lo and svc_hi phases",
    );
    let selfs = trace::self_times(
        &st.cycles
            .iter()
            .flat_map(|c| c.lo.spans.iter().chain(&c.hi.spans).copied())
            .collect::<Vec<_>>(),
    );
    let req = selfs.get("request").map_or(
        Quantile {
            q: 0.5,
            value: f64::NAN,
            n: 0,
        },
        |v| quantile(v, 0.5),
    );
    rep.put(
        "service.request.self_us",
        req.value / 1e3,
        "us",
        format!(
            "request span minus generator lateness and submit, median of {}",
            req.n
        ),
    );
    let late = pooled(|c| &c.hi, |p| p.late_ns.clone());
    rep.put(
        "bench.gen_late.p99_us",
        quantile(&late, 0.99).value / 1e3,
        "us",
        "generator lateness at svc_hi",
    );
}
