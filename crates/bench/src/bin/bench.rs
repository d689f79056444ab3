//! `bench` — telemetry-integrated workload runner.
//!
//! ```text
//! bench [WORKLOAD...] [OPTIONS]
//!
//! WORKLOADS
//!   indexing     Fig. 2-style random indexing with periodic checkpoints
//!   resize       Fig. 3-style incremental resizes from zero capacity
//!   checkpoint   Fig. 4-style checkpoint-frequency sweep
//!   service      open-loop load against the serving layer, batched
//!                (max_batch=32) vs unbatched (max_batch=1)
//!   all          everything above (default)
//!
//! OPTIONS
//!   --ops N          ops per task for indexing/checkpoint  (default 20000)
//!   --increments N   resizes for the resize workload       (default 256)
//!   --sample-ms N    gauge sampling interval               (default 1)
//!   --backend B      transport backend: shmem | mesh
//!                    (default: RCUARRAY_BACKEND env, else shmem)
//!   --replication K  copies of every block incl. the primary
//!                    (default 1: the paper's placement, no replicas)
//! ```
//!
//! `--replication 2` puts the RF=1 vs RF=2 read/write cost on record:
//! every write fans out to a replica, so the throughput delta against an
//! RF=1 run of the same workload is the price of surviving a locale
//! death. Clusters are widened to at least K locales (copies live on
//! distinct locales), and the report gains `replication_factor`,
//! per-variant `failover_reads` / `rereplicated_bytes`, and the
//! process-wide failover-latency histogram — all structurally zero at
//! RF = 1 (DESIGN.md §15).
//!
//! Each workload runs all four RCUArray reclamation schemes — EBR, QSBR,
//! Amortized (budgeted QSBR drains), Leak (never frees: the structural
//! upper bound) — through the identical `RcuArray` code path and writes
//! `BENCH_<workload>.json` to the current directory: per-variant
//! throughput, a sampled time series of epoch lag and retire backlog
//! (entries and bytes), and the full metrics-registry snapshot. The probe
//! is scheme-agnostic: it reads the array's merged
//! [`ReclaimStats`](rcuarray::ReclaimStats), so EBR's series are
//! structurally zero (synchronous reclamation), the QSBR family shows the
//! checkpoint sawtooth, and Leak shows a monotone ramp — each the honest
//! description of its protocol. EBR's pin-retry pressure shows up in the
//! embedded `rcuarray_ebr_pin_retries_total` counter instead
//! (DESIGN.md §7).

use rcuarray::{AmortizedArray, Config, EbrArray, LeakArray, QsbrArray, RcuArray, Scheme};
use rcuarray_bench::runner::{run_indexing, run_resize, IndexingParams, ResizeParams, RunResult};
use rcuarray_bench::service_load::{run_service_load, ServiceLoadParams, ServiceLoadResult};
use rcuarray_bench::telemetry::{write_bench_report, PressureEvents, Sampler, VariantReport};
use rcuarray_bench::workload::IndexPattern;
use rcuarray_runtime::{Cluster, Topology, TransportKind};
use rcuarray_service::{Service, ServiceConfig};
use std::time::Duration;

struct Options {
    workloads: Vec<String>,
    ops: usize,
    increments: usize,
    sample_ms: u64,
    backend: TransportKind,
    replication: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        workloads: Vec::new(),
        ops: 20_000,
        increments: 256,
        sample_ms: 1,
        backend: TransportKind::from_env(),
        replication: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => opts.ops = args.next().expect("--ops needs a value").parse().unwrap(),
            "--increments" => {
                opts.increments = args
                    .next()
                    .expect("--increments needs a value")
                    .parse()
                    .unwrap()
            }
            "--sample-ms" => {
                opts.sample_ms = args
                    .next()
                    .expect("--sample-ms needs a value")
                    .parse()
                    .unwrap()
            }
            "--backend" => {
                opts.backend = args
                    .next()
                    .expect("--backend needs a value")
                    .parse()
                    .unwrap_or_else(|e| panic!("--backend: {e}"))
            }
            "--replication" => {
                opts.replication = args
                    .next()
                    .expect("--replication needs a value")
                    .parse()
                    .unwrap();
                assert!(
                    opts.replication >= 1,
                    "--replication counts every copy including the primary"
                );
            }
            "--help" | "-h" => {
                eprintln!("workloads: indexing resize checkpoint service all; options: --ops --increments --sample-ms --backend --replication");
                std::process::exit(0);
            }
            other => opts.workloads.push(other.to_string()),
        }
    }
    if opts.workloads.is_empty() || opts.workloads.iter().any(|w| w == "all") {
        opts.workloads = vec![
            "indexing".into(),
            "resize".into(),
            "checkpoint".into(),
            "service".into(),
        ];
    }
    opts
}

/// Run `work`, sampling the array's merged reclamation stats in the
/// background; returns the report. The probe holds an aliasing clone of
/// the array and never enters a read-side critical section or registers
/// with a QSBR domain — a sampler must observe reclamation, not gate it.
fn sampled_run<S: Scheme>(
    name: impl Into<String>,
    array: &RcuArray<u64, S>,
    sample_ms: u64,
    work: impl FnOnce() -> RunResult,
) -> VariantReport {
    let probe = array.clone();
    let sampler = Sampler::spawn(Duration::from_millis(sample_ms.max(1)), move || {
        let s = probe.stats().reclaim;
        (s.epoch_lag, s.pending, s.pending_bytes)
    });
    // Pressure events are process-wide; variants run sequentially, so a
    // delta around the run attributes them to this variant.
    let pressure_before = PressureEvents::totals();
    let result = work();
    // Availability counters are per-array, so the run's totals ARE this
    // variant's (both structurally zero at replication_factor = 1).
    let avail = array.stats();
    VariantReport {
        name: name.into(),
        ops_per_sec: result.ops_per_sec,
        latency: result.latency,
        samples: sampler.finish(),
        pressure: PressureEvents::since(pressure_before),
        failover_reads: avail.failover_reads,
        rereplicated_bytes: avail.rereplicated_bytes,
    }
}

/// Build the bench cluster on the selected transport backend. Widened to
/// at least `--replication` locales: every copy of a block lives on a
/// distinct locale, so RF = 2 needs two of them even for the one-locale
/// checkpoint sweep.
fn bench_cluster(opts: &Options, locales: usize, cores: usize) -> std::sync::Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(locales.max(opts.replication), cores))
        .backend(opts.backend)
        .build()
}

fn bench_config(opts: &Options) -> Config {
    Config {
        block_size: 1024,
        account_comm: true,
        replication_factor: opts.replication,
        ..Config::default()
    }
}

fn indexing(opts: &Options) {
    let params = IndexingParams {
        tasks_per_locale: 2,
        ops_per_task: opts.ops,
        pattern: IndexPattern::Random,
        capacity: 1 << 14,
        // Periodic checkpoints: without them the QSBR backlog only grows
        // and the lag gauge never resets — the series would show a ramp,
        // not the paper's sawtooth.
        checkpoint_every: Some(256),
        read_percent: 0,
        seed: 0xC0FFEE,
    };
    let cluster = bench_cluster(opts, 2, 2);
    let mut variants = Vec::new();

    let ebr = EbrArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("EBRArray", &ebr, opts.sample_ms, || {
        run_indexing(&ebr, &cluster, &params)
    }));

    let qsbr = QsbrArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("QSBRArray", &qsbr, opts.sample_ms, || {
        run_indexing(&qsbr, &cluster, &params)
    }));

    let amortized = AmortizedArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run(
        "AmortizedArray",
        &amortized,
        opts.sample_ms,
        || run_indexing(&amortized, &cluster, &params),
    ));

    let leak = LeakArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("LeakArray", &leak, opts.sample_ms, || {
        run_indexing(&leak, &cluster, &params)
    }));

    finish("indexing", opts, variants);
}

fn resize(opts: &Options) {
    let params = ResizeParams {
        increments: opts.increments,
        increment: 256,
    };
    let cluster = bench_cluster(opts, 2, 2);
    let mut variants = Vec::new();

    let ebr = EbrArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("EBRArray", &ebr, opts.sample_ms, || {
        run_resize(&ebr, &params)
    }));

    let qsbr = QsbrArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("QSBRArray", &qsbr, opts.sample_ms, || {
        run_resize(&qsbr, &params)
    }));

    let amortized = AmortizedArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run(
        "AmortizedArray",
        &amortized,
        opts.sample_ms,
        || run_resize(&amortized, &params),
    ));

    let leak = LeakArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("LeakArray", &leak, opts.sample_ms, || {
        run_resize(&leak, &params)
    }));

    finish("resize", opts, variants);
}

fn checkpoint(opts: &Options) {
    let base = IndexingParams {
        tasks_per_locale: 2,
        ops_per_task: opts.ops.min(10_000),
        pattern: IndexPattern::Sequential,
        capacity: 1 << 13,
        checkpoint_every: None,
        read_percent: 0,
        seed: 0xC0FFEE,
    };
    let cluster = bench_cluster(opts, 1, 2);
    let mut variants = Vec::new();

    // Checkpoint-free baselines: Fig. 4 reuses the EBR indexing number as
    // a flat line; Leak adds the no-reclamation-at-all upper bound.
    let ebr = EbrArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("EBRArray", &ebr, opts.sample_ms, || {
        run_indexing(&ebr, &cluster, &base)
    }));

    let leak = LeakArray::<u64>::with_config(&cluster, bench_config(opts));
    variants.push(sampled_run("LeakArray", &leak, opts.sample_ms, || {
        run_indexing(&leak, &cluster, &base)
    }));

    for every in [1usize, 16, 256] {
        let params = IndexingParams {
            checkpoint_every: Some(every),
            ..base
        };

        let qsbr = QsbrArray::<u64>::with_config(&cluster, bench_config(opts));
        variants.push(sampled_run(
            format!("QSBRArray@ckpt={every}"),
            &qsbr,
            opts.sample_ms,
            || run_indexing(&qsbr, &cluster, &params),
        ));

        let amortized = AmortizedArray::<u64>::with_config(&cluster, bench_config(opts));
        variants.push(sampled_run(
            format!("AmortizedArray@ckpt={every}"),
            &amortized,
            opts.sample_ms,
            || run_indexing(&amortized, &cluster, &params),
        ));
    }

    finish("checkpoint", opts, variants);
}

/// Service config for one batching variant. `max_batch = 1` is the
/// unbatched control: every request is its own batch (and its own guard
/// pin), so the amortization win shows up as the throughput gap and in
/// the `rcuarray_service_pins_total` / `..requests_total` ratio.
fn service_cfg(max_batch: usize) -> ServiceConfig {
    ServiceConfig {
        // Deep enough to admit the whole open-loop flood: with refusals
        // out of the picture, wall time is the server's drain time and
        // the batched-vs-unbatched gap is pure amortization.
        queue_capacity: 1 << 16,
        max_batch,
        max_delay: if max_batch == 1 {
            Duration::ZERO
        } else {
            Duration::from_micros(200)
        },
        // Generous deadline: this workload measures amortized throughput,
        // not shedding (the SLO tests cover that).
        deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    }
}

/// Run one scheme × batching variant of the service workload.
fn service_variant<S: Scheme>(
    name: String,
    array: RcuArray<u64, S>,
    max_batch: usize,
    opts: &Options,
    p: &ServiceLoadParams,
) -> VariantReport {
    array.resize(p.capacity);
    let svc = Service::start(array, service_cfg(max_batch));
    let mut tally: Option<ServiceLoadResult> = None;
    let report = sampled_run(name, svc.array(), opts.sample_ms, || {
        let r = run_service_load(&svc, p);
        let run = RunResult {
            ops_per_sec: r.ops_per_sec,
            latency: r.latency.clone(),
        };
        tally = Some(r);
        run
    });
    svc.shutdown();
    let t = tally.expect("load generator ran");
    println!(
        "   service {:<22} served {}  overloaded {}  shed {}  failed {}",
        report.name, t.served, t.overloaded, t.shed, t.failed
    );
    report
}

fn service(opts: &Options) {
    let p = ServiceLoadParams {
        clients: 4,
        requests_per_client: opts.ops.clamp(1, 8192),
        read_percent: 80,
        capacity: 1 << 14,
        seed: 0xC0FFEE,
    };
    let cluster = bench_cluster(opts, 2, 2);
    let mut variants = Vec::new();

    for max_batch in [32usize, 1] {
        variants.push(service_variant(
            format!("EBRArray@batch={max_batch}"),
            EbrArray::<u64>::with_config(&cluster, bench_config(opts)),
            max_batch,
            opts,
            &p,
        ));
        variants.push(service_variant(
            format!("QSBRArray@batch={max_batch}"),
            QsbrArray::<u64>::with_config(&cluster, bench_config(opts)),
            max_batch,
            opts,
            &p,
        ));
    }

    // The amortization headline the report exists to show.
    let snap = rcuarray_obs::snapshot();
    let pins = snap.counter("rcuarray_service_pins_total").unwrap_or(0);
    let requests = snap.counter("rcuarray_service_requests_total").unwrap_or(0);
    println!("   service guard pins {pins} / requests {requests}");

    finish("service", opts, variants);
}

fn finish(workload: &str, opts: &Options, variants: Vec<VariantReport>) {
    let snap = rcuarray_obs::snapshot();
    // Lazily interned: absent (not zero) until the first failover read,
    // so an RF=1 run reports an empty histogram.
    let failover = snap
        .histogram("rcuarray_failover_latency_ns")
        .cloned()
        .unwrap_or_default();
    let metrics = rcuarray_obs::json_snapshot();
    let path = write_bench_report(
        workload,
        opts.backend.name(),
        opts.replication,
        &failover,
        &variants,
        &metrics,
    )
    .unwrap_or_else(|e| panic!("writing BENCH_{workload}.json: {e}"));
    for v in &variants {
        println!(
            "{workload:>10} {:<22} {:>12.0} ops/s  lat p50/p99/max {}/{}/{} ns  \
             peak lag {}  peak backlog {} ({} B)  forced drains {}",
            v.name,
            v.ops_per_sec,
            v.latency.quantile(0.50),
            v.latency.quantile(0.99),
            v.latency.max,
            v.peak_lag(),
            v.peak_backlog(),
            v.peak_backlog_bytes(),
            v.pressure.forced_drains
        );
    }
    println!("{workload:>10} wrote {}", path.display());
}

fn main() {
    rcuarray_bench::exit_if_instrumented();
    let opts = parse_args();
    println!(
        "transport backend: {}  replication factor: {}",
        opts.backend, opts.replication
    );
    for w in opts.workloads.clone() {
        match w.as_str() {
            "indexing" => indexing(&opts),
            "resize" => resize(&opts),
            "checkpoint" => checkpoint(&opts),
            "service" => service(&opts),
            other => {
                eprintln!(
                    "unknown workload '{other}' (try indexing, resize, checkpoint, service, all)"
                )
            }
        }
    }
}
