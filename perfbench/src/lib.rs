//! The rcuarray benchmark: two workloads driven through the public API
//! of `rcuarray`, `rcuarray-service` and `rcuarray-runtime`, end-to-end
//! metrics from untraced runs and a per-layer split from traced runs.
//! See `METHOD.md` beside this crate for what each workload is for.

pub mod alloc;
pub mod check;
pub mod env;
pub mod grow;
pub mod mix;
pub mod probes;
pub mod rng;
pub mod stats;
pub mod svc;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
