#![warn(missing_docs)]

//! # rcuarray-bench — the harness that regenerates every figure
//!
//! The paper's evaluation (§V) consists of Figures 2a–d (random/sequential
//! indexing at 1024 and 1M ops per task), Figure 3 (1024 incremental
//! resizes to ~1M elements) and Figure 4 (QSBR checkpoint-frequency
//! sweep). This crate provides:
//!
//! * [`workload`] — the index streams the benchmarks drive arrays with;
//! * [`arrays`] — one object-safe facade over every array variant
//!   (EBRArray, QSBRArray, ChapelArray/UnsafeArray, SyncArray, plus the
//!   extra comparators RwLockArray, HazardArray, LockFreeVector);
//! * [`runner`] — measured loops for the indexing, resize and checkpoint
//!   workloads, spawning the paper's "N tasks per locale" shape through
//!   the simulated cluster;
//! * [`service_load`] — an open-loop load generator for the serving
//!   layer (`rcuarray-service`), feeding the `service` workload;
//! * [`report`] — series/table formatting for `paper_tables` output;
//! * [`telemetry`] — background gauge sampling and the
//!   `BENCH_<workload>.json` report the `bench` binary emits.
//!
//! The `paper_tables` binary prints the rows/series the paper plots
//! (x = locales, y = operations per second) and the design ablations of
//! DESIGN.md §5 (`ablation-*` figures); the `bench` binary emits the
//! telemetry reports.

pub mod arrays;
pub mod report;
pub mod runner;
pub mod service_load;
pub mod telemetry;
pub mod workload;

pub use arrays::{make_array, ArrayKind, BenchArray};
pub use report::{Series, Table};
pub use runner::{
    run_checkpoint_sweep, run_indexing, run_resize, IndexingParams, ResizeParams, RunResult,
};
pub use service_load::{run_service_load, ServiceLoadParams, ServiceLoadResult};
pub use telemetry::{bench_json, write_bench_report, Sample, Sampler, VariantReport};
pub use workload::{sequential_indices, shuffled_indices, IndexPattern, IndexStream};

/// The reason a measured binary must refuse to run, or `None` when it may:
/// a build with the checker's `check` feature routes every atomic of the
/// measured crates through scheduling hooks, so its numbers would
/// describe the checker.
pub fn instrumented_build_refusal(check_enabled: bool) -> Option<&'static str> {
    check_enabled.then_some(
        "refusing to measure: built with the checker's `check` feature \
         (feature unification from a workspace test build); \
         rebuild with `cargo build --release -p rcuarray-bench`",
    )
}

/// Exit with status 2 and a one-line reason when this binary was built
/// with the checker's `check` feature (see [`instrumented_build_refusal`]).
pub fn exit_if_instrumented() {
    if let Some(reason) = instrumented_build_refusal(rcuarray_analysis::CHECK_ENABLED) {
        eprintln!("{reason}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::instrumented_build_refusal;

    #[test]
    fn instrumented_builds_are_refused_with_a_reason() {
        assert_eq!(instrumented_build_refusal(false), None);
        let reason = instrumented_build_refusal(true).expect("check builds are refused");
        assert!(reason.contains("`check` feature"), "{reason}");
        assert!(!reason.contains('\n'), "one line: {reason}");
    }
}
