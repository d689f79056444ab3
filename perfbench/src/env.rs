//! The system under test as every workload builds it: a 2-locale
//! cluster on the shmem backend and a `u64` array with 1024-element
//! blocks at replication factor 1, grown to its initial size one block
//! at a time.

use rcuarray::{Config, RcuArray, Scheme};
use rcuarray_runtime::{Cluster, Topology, TransportKind};
use std::sync::Arc;

/// Locales in every cluster (one per core of a 2-core host).
pub const LOCALES: usize = 2;

/// Sizes of a run. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] is for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Elements the mixes address, uniformly (a power of two).
    pub keys: usize,
    /// Elements per block; also the growth step of every resize.
    pub block_size: usize,
    /// One-block resizes per grow-under-load round.
    pub grows_per_round: usize,
    /// Ops between a grow-round reader's checkpoints.
    pub checkpoint_every: u64,
    /// Time one op in this many (a power of two).
    pub sample_every: u64,
    /// Iterations of each direct layer probe (traced runs).
    pub probe_iters: u64,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Self {
        Sizes {
            keys: 1 << 16,
            block_size: 1024,
            grows_per_round: 1024,
            checkpoint_every: 1024,
            sample_every: 256,
            probe_iters: 2_000_000,
        }
    }

    /// A configuration small enough for a unit test.
    pub fn tiny() -> Self {
        Sizes {
            keys: 1 << 12,
            block_size: 1024,
            grows_per_round: 16,
            checkpoint_every: 64,
            sample_every: 4,
            probe_iters: 2_000,
        }
    }
}

/// One cluster and one array on it.
pub struct Env<S: Scheme> {
    /// The cluster.
    pub cluster: Arc<Cluster>,
    /// The array, sized to [`Sizes::keys`].
    pub array: RcuArray<u64, S>,
}

/// A 2-locale shmem cluster with one task per locale.
pub fn cluster() -> Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(LOCALES, 1))
        .backend(TransportKind::Shmem)
        .build()
}

/// Array configuration: defaults (comm accounting on, RF = 1) with the
/// given block size.
pub fn config(block_size: usize) -> Config {
    Config::with_block_size(block_size)
}

/// Build a fresh cluster and array and size the array to [`Sizes::keys`]
/// with one resize.
pub fn build<S: Scheme>(sizes: &Sizes, cfg: Config) -> Env<S> {
    let cluster = cluster();
    let array = RcuArray::<u64, S>::with_config(&cluster, cfg);
    array.resize(sizes.keys);
    Env { cluster, array }
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time the process has used (user + system, all threads including
/// exited ones), s. `/proc/self/stat` counts in clock ticks (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // `rest` starts at field 3 (state, not numeric, filtered out).
    match (f.get(10), f.get(11)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// CPU time the calling thread has run, ns (`/proc/thread-self/schedstat`).
/// Time the hypervisor stole from the vCPU is not counted.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
