//! `paper_tables` — regenerate the series of every figure in the
//! RCUArray paper's evaluation (§V) and print them as tables.
//!
//! ```text
//! paper_tables [FIGURE...] [OPTIONS]
//!
//! FIGURES
//!   fig2a   Random indexing, 1024 ops/task   (EBR/QSBR/Chapel/Sync)
//!   fig2b   Sequential indexing, 1024 ops/task
//!   fig2c   Random indexing, many ops/task   (Sync excluded, like the paper)
//!   fig2d   Sequential indexing, many ops/task
//!   fig3    1024 incremental resizes, 0 -> ~1M elements
//!   fig4    QSBR checkpoint-frequency sweep (single locale)
//!   all     everything above (default)
//!
//!   readmix             read/update mix sweep across the reclaimer zoo
//!   ablation-clone      snapshot clone: recycled block pointers vs deep copy
//!   ablation-ordering   EBR pin/unpin per OrderingMode, alone and contended
//!   ablation-blocksize  QSBRArray updates and growth per block size
//!   ablation-vector     DistVector vs lock-free vector vs Mutex<Vec>
//!
//! OPTIONS
//!   --locales L1,L2,..   locale counts to sweep      (default 1,2,4,8)
//!   --tasks N            tasks per locale            (default 4)
//!   --ops N              ops/task for fig2c/fig2d    (default 65536)
//!   --increments N       resizes for fig3            (default 1024)
//!   --quick              tiny parameters (CI smoke)
//!   --full               the paper's exact op counts (1M ops/task)
//!   --extras             add RwLock/Hazard/LockFreeVec comparators
//!   --latency NS         inject NS nanoseconds per remote op
//!   --json               emit JSON instead of tables
//! ```

use parking_lot::Mutex;
use rcuarray::{Block, BlockRegistry, Config, Snapshot};
use rcuarray_baselines::LockFreeVector;
use rcuarray_bench::arrays::{make_array, make_array_config, ArrayKind};
use rcuarray_bench::report::{Series, Table};
use rcuarray_bench::runner::{
    run_checkpoint_sweep, run_indexing, run_resize, IndexingParams, ResizeParams,
};
use rcuarray_bench::workload::IndexPattern;
use rcuarray_collections::DistVector;
use rcuarray_ebr::{EpochZone, OrderingMode};
use rcuarray_runtime::{Cluster, LatencyModel, LocaleId, Topology};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mirrors every output line into `target/paper_tables_output.txt`, so a
/// run leaves a reviewable artifact without a shell redirect polluting
/// the repo root (the root path is git-ignored; the archive lives under
/// `target/` like every other build product).
struct Tee {
    file: Option<std::io::BufWriter<std::fs::File>>,
}

impl Tee {
    fn create() -> Tee {
        let path = std::path::Path::new("target").join("paper_tables_output.txt");
        let file = std::fs::create_dir_all("target")
            .and_then(|()| std::fs::File::create(&path))
            .map(std::io::BufWriter::new);
        match file {
            Ok(f) => Tee { file: Some(f) },
            Err(e) => {
                eprintln!("note: not archiving output ({}: {e})", path.display());
                Tee { file: None }
            }
        }
    }

    fn line(&mut self, s: impl std::fmt::Display) {
        println!("{s}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{s}");
        }
    }
}

#[derive(Debug, Clone)]
struct Options {
    figures: Vec<String>,
    locales: Vec<usize>,
    tasks: usize,
    big_ops: usize,
    increments: usize,
    extras: bool,
    latency: LatencyModel,
    json: bool,
    /// Repetitions per cell for the short (1024-op) figures; the best of
    /// N is reported, suppressing scheduler noise on oversubscribed
    /// hosts.
    reps: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            figures: vec![],
            locales: vec![1, 2, 4, 8],
            tasks: 4,
            big_ops: 65_536,
            increments: 1024,
            extras: false,
            latency: LatencyModel::None,
            json: false,
            reps: 5,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--locales" => {
                let v = args.next().expect("--locales needs a value");
                opts.locales = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad locale count"))
                    .collect();
            }
            "--tasks" => opts.tasks = args.next().expect("--tasks needs a value").parse().unwrap(),
            "--ops" => opts.big_ops = args.next().expect("--ops needs a value").parse().unwrap(),
            "--increments" => {
                opts.increments = args
                    .next()
                    .expect("--increments needs a value")
                    .parse()
                    .unwrap()
            }
            "--quick" => {
                opts.locales = vec![1, 2];
                opts.tasks = 2;
                opts.big_ops = 4096;
                opts.increments = 64;
            }
            "--full" => {
                opts.big_ops = 1_000_000;
                opts.increments = 1024;
            }
            "--extras" => opts.extras = true,
            "--latency" => {
                let ns: u64 = args
                    .next()
                    .expect("--latency needs nanoseconds")
                    .parse()
                    .unwrap();
                opts.latency = LatencyModel::SpinNanos(ns);
            }
            "--json" => opts.json = true,
            "--reps" => opts.reps = args.next().expect("--reps needs a value").parse().unwrap(),
            "--help" | "-h" => {
                eprintln!(
                    "figures: fig2a fig2b fig2c fig2d fig3 fig4 all readmix \
                     ablation-clone ablation-ordering ablation-blocksize \
                     ablation-vector; options: --locales --tasks --ops \
                     --increments --quick --full --extras --latency --json"
                );
                std::process::exit(0);
            }
            other => opts.figures.push(other.to_string()),
        }
    }
    const DEFAULT_FIGURES: [&str; 6] = ["fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4"];
    if opts.figures.is_empty() {
        opts.figures = DEFAULT_FIGURES.iter().map(|s| s.to_string()).collect();
    } else if let Some(pos) = opts.figures.iter().position(|f| f == "all") {
        // Expand "all" in place, keeping any extra figures (e.g. readmix).
        opts.figures
            .splice(pos..=pos, DEFAULT_FIGURES.iter().map(|s| s.to_string()));
    }
    opts
}

fn cluster_for(opts: &Options, locales: usize) -> Arc<Cluster> {
    Cluster::with_latency(Topology::new(locales, opts.tasks), opts.latency)
}

fn kinds_for(opts: &Options, include_sync: bool) -> Vec<ArrayKind> {
    let mut kinds: Vec<ArrayKind> = ArrayKind::PAPER
        .into_iter()
        .filter(|k| include_sync || *k != ArrayKind::Sync)
        .collect();
    // The post-paper schemes ride along in every figure: Amortized bounds
    // checkpoint cost, Leak is the reclamation-free upper bound through
    // the identical RcuArray code path.
    kinds.extend([ArrayKind::Amortized, ArrayKind::Leak]);
    if opts.extras {
        kinds.extend([ArrayKind::RwLock, ArrayKind::Hazard, ArrayKind::LockFreeVec]);
    }
    kinds
}

fn emit(opts: &Options, tee: &mut Tee, table: &Table) {
    if opts.json {
        tee.line(table.to_json());
    } else {
        tee.line(table);
    }
}

/// Figures 2a–2d: indexing throughput vs locale count.
fn fig2(
    opts: &Options,
    tee: &mut Tee,
    name: &str,
    pattern: IndexPattern,
    ops_per_task: usize,
    include_sync: bool,
) {
    let title = format!(
        "Fig. {name}: {} indexing, {ops_per_task} ops/task, {} tasks/locale",
        match pattern {
            IndexPattern::Random => "random",
            IndexPattern::Sequential => "sequential",
        },
        opts.tasks
    );
    let mut table = Table::new(title, "locales", opts.locales.clone());
    for kind in kinds_for(opts, include_sync) {
        let mut series = Series::new(kind.label());
        for &l in &opts.locales {
            let cluster = cluster_for(opts, l);
            let array = make_array(kind, &cluster, 1024);
            let params = IndexingParams {
                tasks_per_locale: opts.tasks,
                ops_per_task,
                pattern,
                capacity: 1 << 20,
                checkpoint_every: None,
                read_percent: 0,
                seed: 0xC0FFEE,
            };
            // Short runs (the 1024-op figures) are noisy at sub-ms cell
            // times; report the best of `reps` passes.
            let reps = if ops_per_task <= 4096 { opts.reps } else { 1 };
            let best = (0..reps.max(1))
                .map(|_| run_indexing(array.as_ref(), &cluster, &params).ops_per_sec)
                .fold(0.0f64, f64::max);
            series.push(l, best);
        }
        table.push_series(series);
    }
    emit(opts, tee, &table);
    if !opts.json {
        if let Some(x) = opts.locales.last().copied() {
            if let Some(r) = table.ratio_at("EBRArray", "ChapelArray", x) {
                tee.line(format!(
                    "   EBRArray / ChapelArray @ {x} locales: {:.1}% (paper: 2-40%)",
                    r * 100.0
                ));
            }
            if let Some(r) = table.ratio_at("QSBRArray", "ChapelArray", x) {
                tee.line(format!(
                    "   QSBRArray / ChapelArray @ {x} locales: {r:.2}x (paper: ~1x, up to 1.5x seq)"
                ));
            }
            tee.line("");
        }
    }
}

/// Figure 3: incremental resize throughput vs locale count.
fn fig3(opts: &Options, tee: &mut Tee) {
    let title = format!(
        "Fig. 3: {} resizes of +1024 elements (0 -> {} total)",
        opts.increments,
        opts.increments * 1024
    );
    let mut table = Table::new(title, "locales", opts.locales.clone());
    // SyncArray is excluded in the paper's Fig. 3 as well ("due to
    // required runtime", §V footnote 15).
    let mut kinds = vec![
        ArrayKind::Ebr,
        ArrayKind::Qsbr,
        ArrayKind::Amortized,
        ArrayKind::Leak,
        ArrayKind::Chapel,
    ];
    if opts.extras {
        kinds.extend([ArrayKind::RwLock, ArrayKind::Hazard, ArrayKind::LockFreeVec]);
    }
    for kind in kinds {
        let mut series = Series::new(kind.label());
        for &l in &opts.locales {
            let cluster = cluster_for(opts, l);
            let array = make_array(kind, &cluster, 1024);
            let params = ResizeParams {
                increments: opts.increments,
                increment: 1024,
            };
            series.push(l, run_resize(array.as_ref(), &params).ops_per_sec);
        }
        table.push_series(series);
    }
    emit(opts, tee, &table);
    if !opts.json {
        if let Some(x) = opts.locales.last().copied() {
            if let Some(r) = table.ratio_at("QSBRArray", "ChapelArray", x) {
                tee.line(format!(
                    "   QSBRArray / ChapelArray resize @ {x} locales: {r:.1}x (paper: >4x)"
                ));
            }
            if let Some(r) = table.ratio_at("EBRArray", "ChapelArray", x) {
                tee.line(format!(
                    "   EBRArray  / ChapelArray resize @ {x} locales: {r:.1}x (paper: >4x)"
                ));
            }
            tee.line("");
        }
    }
}

/// Extension figure: read/update mix sweep across the reclaimer zoo.
/// The paper's workloads are pure updates; this sweep shows where each
/// design's read-side cost dominates as the mix shifts read-heavy.
fn readmix(opts: &Options, tee: &mut Tee) {
    let mixes = [0usize, 50, 90, 99];
    let title = format!(
        "Ext: read-mix sweep, 2 locales, {} tasks, {} ops/task",
        opts.tasks, opts.big_ops
    );
    let mut table = Table::new(title, "reads %", mixes.to_vec());
    let cluster = cluster_for(opts, 2);
    for kind in [
        ArrayKind::Ebr,
        ArrayKind::Qsbr,
        ArrayKind::Chapel,
        ArrayKind::RwLock,
        ArrayKind::Hazard,
    ] {
        let mut series = Series::new(kind.label());
        for &mix in &mixes {
            let array = make_array(kind, &cluster, 1024);
            let params = IndexingParams {
                tasks_per_locale: opts.tasks,
                ops_per_task: opts.big_ops,
                pattern: IndexPattern::Random,
                capacity: 1 << 20,
                checkpoint_every: None,
                read_percent: mix as u8,
                seed: 0xC0FFEE,
            };
            series.push(
                mix,
                run_indexing(array.as_ref(), &cluster, &params).ops_per_sec,
            );
        }
        table.push_series(series);
    }
    emit(opts, tee, &table);
}

/// Figure 4: checkpoint-frequency sweep at one locale, EBR as baseline.
fn fig4(opts: &Options, tee: &mut Tee) {
    let ops = opts.big_ops;
    let frequencies: Vec<usize> = [1usize, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&f| f <= ops)
        .collect();
    let title = format!(
        "Fig. 4: QSBR checkpoint overhead, 1 locale, {} tasks, {ops} ops/task",
        opts.tasks
    );
    let mut table = Table::new(title, "ops/ckpt", frequencies.clone());
    let cluster = cluster_for(opts, 1);

    let base = IndexingParams {
        tasks_per_locale: opts.tasks,
        ops_per_task: ops,
        pattern: IndexPattern::Sequential,
        capacity: 1 << 20,
        checkpoint_every: None,
        read_percent: 0,
        seed: 0xC0FFEE,
    };
    let mut qsbr = Series::new("QSBR");
    for (every, tput) in run_checkpoint_sweep(
        || make_array(ArrayKind::Qsbr, &cluster, 1024),
        &cluster,
        &base,
        &frequencies,
    ) {
        qsbr.push(every, tput);
    }
    table.push_series(qsbr);

    // "The performance gathered from previous benchmarks for EBRArray in
    // Figure 2d are reused here and inserted as a baseline" (§V-B).
    let ebr_array = make_array(ArrayKind::Ebr, &cluster, 1024);
    let ebr_tput = run_indexing(ebr_array.as_ref(), &cluster, &base).ops_per_sec;
    let mut ebr = Series::new("EBR");
    for &f in &frequencies {
        ebr.push(f, ebr_tput);
    }
    table.push_series(ebr);

    emit(opts, tee, &table);
    if !opts.json {
        if let Some(r) = table.ratio_at("QSBR", "EBR", frequencies[0]) {
            tee.line(format!(
                "   QSBR@1-op-checkpoints / EBR: {r:.2}x (paper: QSBR exceeds EBR \
                 even at one op per checkpoint)\n"
            ));
        }
    }
}

/// Best-of-`reps` rate of `pass`, which returns `(items, elapsed)`.
fn best_rate(reps: usize, mut pass: impl FnMut() -> (usize, Duration)) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let (items, elapsed) = pass();
            items as f64 / elapsed.as_secs_f64()
        })
        .fold(0.0f64, f64::max)
}

/// Ablation (§III-C): a resize clones the snapshot by recycling block
/// pointers; the alternative (a Chapel-style realloc) allocates fresh
/// blocks and copies every element.
fn ablation_clone(opts: &Options, tee: &mut Tee) {
    const BLOCK: usize = 1024;
    let counts = vec![16usize, 128, 1024];
    let title = format!("Ablation: snapshot clone, elements/s ({BLOCK}-element blocks)");
    let mut table = Table::new(title, "blocks", counts.clone());
    let mut recycle = Series::new("recycle");
    let mut deep = Series::new("deep copy");
    for &blocks in &counts {
        let registry = BlockRegistry::new();
        let refs = (0..blocks)
            .map(|i| registry.adopt(Block::new(LocaleId::new((i % 4) as u32), BLOCK)))
            .collect();
        let snap = Snapshot::<u64>::from_blocks(refs, 0);
        let clones = (opts.big_ops / blocks).max(1);
        let elements = clones * blocks * BLOCK;
        recycle.push(
            blocks,
            best_rate(opts.reps, || {
                let start = Instant::now();
                for _ in 0..clones {
                    std::hint::black_box(snap.clone_recycled(&[]));
                }
                (elements, start.elapsed())
            }),
        );
        deep.push(
            blocks,
            best_rate(opts.reps, || {
                let mut elapsed = Duration::ZERO;
                for _ in 0..clones {
                    // A scratch registry per clone bounds memory; adopting
                    // the new blocks is part of what a realloc pays. Its
                    // drop stays outside the timed region.
                    let scratch = BlockRegistry::new();
                    let start = Instant::now();
                    let copies: Vec<_> = snap
                        .blocks()
                        .iter()
                        .map(|old| {
                            // SAFETY: `registry` owns these blocks and
                            // outlives the loop.
                            let old = unsafe { old.get() };
                            let new = Block::new(old.home(), old.capacity());
                            new.copy_from(old);
                            scratch.adopt(new)
                        })
                        .collect();
                    std::hint::black_box(Snapshot::from_blocks(copies, 1));
                    elapsed += start.elapsed();
                }
                (elements, elapsed)
            }),
        );
    }
    table.push_series(recycle);
    table.push_series(deep);
    emit(opts, tee, &table);
}

/// Ablation (§V-B): how much of EBR's read cost is the ordering of the
/// `EpochReaders` RMWs and how much is contention on them. Pin/unpin
/// pairs per second, alone and against two readers on the same zone.
fn ablation_ordering(opts: &Options, tee: &mut Tee) {
    let pairs = opts.big_ops * 16;
    let contenders = vec![0usize, 2];
    let title = format!("Ablation: EBR pin/unpin pairs/s per OrderingMode ({pairs} pairs)");
    let mut table = Table::new(title, "readers", contenders.clone());
    for (name, mode) in [
        ("SeqCst", OrderingMode::SeqCst),
        ("AcqRelFence", OrderingMode::AcqRelFence),
        // Measurement-only lower bound: the zone refuses to reclaim
        // under it, and pin/unpin never reclaims.
        ("Relaxed(unsound)", OrderingMode::Relaxed),
    ] {
        let mut series = Series::new(name);
        for &readers in &contenders {
            let rate = best_rate(opts.reps, || {
                let zone = EpochZone::with_mode(mode);
                let stop = AtomicBool::new(false);
                std::thread::scope(|s| {
                    for _ in 0..readers {
                        s.spawn(|| {
                            while !stop.load(Ordering::Relaxed) {
                                zone.unpin(zone.pin());
                            }
                        });
                    }
                    let start = Instant::now();
                    for _ in 0..pairs {
                        let t = zone.pin();
                        std::hint::black_box(&t);
                        zone.unpin(t);
                    }
                    let elapsed = start.elapsed();
                    stop.store(true, Ordering::Relaxed);
                    (pairs, elapsed)
                })
            });
            series.push(readers, rate);
        }
        table.push_series(series);
    }
    emit(opts, tee, &table);
}

/// Ablation: the `BlockSize` constant (paper: 1024). Small blocks grow
/// in cheap steps but give each snapshot more blocks to clone; large
/// blocks amortize metadata but coarsen placement.
fn ablation_blocksize(opts: &Options, tee: &mut Tee) {
    const CAPACITY: usize = 1 << 16;
    let sizes = vec![64usize, 256, 1024, 4096];
    let ops = (opts.big_ops / 8).max(1);
    let title = format!(
        "Ablation: QSBRArray block size, 2 locales x {} tasks: random updates/s \
         ({ops} ops/task) and elements grown/s (one-block resizes, 0 -> {CAPACITY})",
        opts.tasks
    );
    let mut table = Table::new(title, "block", sizes.clone());
    let mut updates = Series::new("updates/s");
    let mut grown = Series::new("grown/s");
    let cluster = cluster_for(opts, 2);
    let qsbr = |bs| make_array_config(ArrayKind::Qsbr, &cluster, bs, false, OrderingMode::SeqCst);
    for &bs in &sizes {
        let params = IndexingParams {
            tasks_per_locale: opts.tasks,
            ops_per_task: ops,
            capacity: CAPACITY,
            seed: 42,
            ..IndexingParams::default()
        };
        let updates_per_sec = run_indexing(qsbr(bs).as_ref(), &cluster, &params).ops_per_sec;
        updates.push(bs, updates_per_sec);
        let growth = ResizeParams {
            increments: CAPACITY / bs,
            increment: bs,
        };
        let resizes_per_sec = run_resize(qsbr(bs).as_ref(), &growth).ops_per_sec;
        grown.push(bs, resizes_per_sec * bs as f64);
    }
    table.push_series(updates);
    table.push_series(grown);
    emit(opts, tee, &table);
}

/// The growable-vector designs `ablation-vector` compares.
trait Vecish: Send + Sync {
    fn push(&self, v: u64);
    fn get(&self, i: usize) -> u64;
    fn len(&self) -> usize;
}

impl Vecish for DistVector<u64> {
    fn push(&self, v: u64) {
        DistVector::push(self, v);
    }
    fn get(&self, i: usize) -> u64 {
        DistVector::get(self, i)
    }
    fn len(&self) -> usize {
        DistVector::len(self)
    }
}

impl Vecish for LockFreeVector<u64> {
    fn push(&self, v: u64) {
        self.push_back(v);
    }
    fn get(&self, i: usize) -> u64 {
        self.read(i)
    }
    fn len(&self) -> usize {
        LockFreeVector::len(self)
    }
}

impl Vecish for Mutex<Vec<u64>> {
    fn push(&self, v: u64) {
        self.lock().push(v);
    }
    fn get(&self, i: usize) -> u64 {
        self.lock()[i]
    }
    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// Ablation (§VI, §II): the paper's distributed vector on the RCUArray
/// backbone vs the Dechev et al. lock-free vector vs a mutex-protected
/// `Vec`, for concurrent pushes and for indexed reads of a grown vector.
fn ablation_vector(opts: &Options, tee: &mut Tee) {
    let (n, n_reads) = (opts.big_ops, 4 * opts.big_ops);
    let threads = vec![1usize, 2];
    let cluster = cluster_for(opts, 2);
    let make = |name| -> Box<dyn Vecish> {
        match name {
            "DistVector" => {
                let config = Config {
                    block_size: 256,
                    account_comm: false,
                    ..Config::default()
                };
                Box::new(DistVector::<u64>::with_config(&cluster, config))
            }
            "LockFreeVec" => Box::new(LockFreeVector::<u64>::new()),
            _ => Box::new(Mutex::new(Vec::new())),
        }
    };
    let title = format!("Ablation: vector concurrent push, pushes/s ({n} per thread)");
    let mut pushes = Table::new(title, "threads", threads.clone());
    let title = format!("Ablation: vector indexed read, reads/s ({n_reads} per thread)");
    let mut reads = Table::new(title, "threads", threads.clone());
    for name in ["DistVector", "LockFreeVec", "MutexVec"] {
        let mut push_series = Series::new(name);
        let mut read_series = Series::new(name);
        for &t in &threads {
            let rate = best_rate(opts.reps, || {
                let v = make(name);
                let start = Instant::now();
                std::thread::scope(|s| {
                    for k in 0..t {
                        let v = &v;
                        s.spawn(move || (0..n).for_each(|i| v.push((k * n + i) as u64)));
                    }
                });
                let elapsed = start.elapsed();
                assert_eq!(v.len(), t * n, "{name} lost a push");
                (t * n, elapsed)
            });
            push_series.push(t, rate);
            let v = make(name);
            (0..n).for_each(|i| v.push(i as u64));
            let rate = best_rate(opts.reps, || {
                let start = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..t {
                        let v = &v;
                        s.spawn(move || {
                            let sum = (0..n_reads).fold(0u64, |a, i| a.wrapping_add(v.get(i % n)));
                            std::hint::black_box(sum);
                        });
                    }
                });
                (t * n_reads, start.elapsed())
            });
            read_series.push(t, rate);
        }
        pushes.push_series(push_series);
        reads.push_series(read_series);
    }
    emit(opts, tee, &pushes);
    emit(opts, tee, &reads);
}

fn main() {
    rcuarray_bench::exit_if_instrumented();
    let opts = parse_args();
    let mut tee = Tee::create();
    if !opts.json {
        tee.line(format!(
            "host: {} hardware thread(s) | latency model: {:?} | locales {:?} x {} tasks",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            opts.latency,
            opts.locales,
            opts.tasks
        ));
        tee.line(
            "note: absolute numbers are host-dependent; compare *shapes* \
             against the paper (see EXPERIMENTS.md)\n",
        );
    }
    for fig in opts.figures.clone() {
        match fig.as_str() {
            "fig2a" => fig2(&opts, &mut tee, "2a", IndexPattern::Random, 1024, true),
            "fig2b" => fig2(&opts, &mut tee, "2b", IndexPattern::Sequential, 1024, true),
            "fig2c" => fig2(
                &opts,
                &mut tee,
                "2c",
                IndexPattern::Random,
                opts.big_ops,
                false,
            ),
            "fig2d" => fig2(
                &opts,
                &mut tee,
                "2d",
                IndexPattern::Sequential,
                opts.big_ops,
                false,
            ),
            "fig3" => fig3(&opts, &mut tee),
            "fig4" => fig4(&opts, &mut tee),
            "readmix" => readmix(&opts, &mut tee),
            "ablation-clone" => ablation_clone(&opts, &mut tee),
            "ablation-ordering" => ablation_ordering(&opts, &mut tee),
            "ablation-blocksize" => ablation_blocksize(&opts, &mut tee),
            "ablation-vector" => ablation_vector(&opts, &mut tee),
            other => {
                eprintln!("unknown figure '{other}' (try fig2a..fig4, readmix, ablation-*, or all)")
            }
        }
    }
}
