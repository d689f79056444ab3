//! rcuarray-analysis: the concurrency analysis layer.
//!
//! Three pieces, mirroring the issue that motivated them:
//!
//! 1. **A sync facade** ([`atomic`], [`sync`], [`thread`], [`cell`]).
//!    The concurrency crates (`rcuarray-ebr`, `rcuarray-qsbr`,
//!    `rcuarray`, parts of `rcuarray-runtime`) import their atomics,
//!    locks and thread spawns from here instead of `std`/`parking_lot`.
//!    Without the `check` feature the facade re-exports the plain types
//!    (zero cost). With `check`, every operation becomes a scheduling
//!    point of the deterministic checker — against the *real* shipped
//!    code, not a model of it.
//!
//! 2. **A deterministic checker** ([`checker`], with [`sched`] and
//!    [`clock`]): seeded-random and PCT schedules with bounded
//!    preemptions, serialized execution of registered threads, and
//!    vector-clock happens-before race detection over instrumented
//!    accesses. Every report carries the seed that replays it. With
//!    `Policy::Dpor` ([`dpor`]) the sampler is replaced by exhaustive
//!    source-DPOR exploration with sleep-set pruning, and failures carry
//!    a minimized, replayable serialized schedule instead of a seed. A
//!    shadow-heap oracle ([`shadow`]) tracks retire → reclaim lifecycles
//!    by fresh id and turns use-after-reclaim, double-retire and
//!    double-reclaim into deterministic reports, plus leak accounting at
//!    session end.
//!
//! 3. **A source lint** ([`lint`], `cargo run -p rcuarray-analysis --bin
//!    lint`): every `unsafe` site must carry a `SAFETY:`/`# Safety`
//!    justification, `Ordering::Relaxed` and bare `std::sync::atomic` /
//!    `std::thread::spawn` are confined to explicit allowlists.
//!
//! See DESIGN.md §6 for the architecture and README "Checking" for the
//! commands.

pub mod atomic;
pub mod cell;
#[cfg(feature = "check")]
pub mod checker;
pub mod clock;
#[cfg(feature = "check")]
pub mod dpor;
pub mod lint;
pub mod sched;
#[cfg(feature = "check")]
pub mod shadow;
pub mod sync;
pub mod thread;

/// Whether this build compiles the instrumented facade (the `check`
/// feature). Measured binaries refuse to run when it is on: feature
/// unification turns it on for every crate of a build that includes this
/// crate's test targets (`cargo test --workspace`, `--all-targets`).
pub const CHECK_ENABLED: bool = cfg!(feature = "check");

pub use cell::CheckedCell;
pub use sched::Policy;
pub use sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "check")]
pub use checker::{
    BudgetAbort, Checker, Config, Race, RaceKind, ReplayToken, Report, ShadowLeak, ShadowViolation,
};
#[cfg(feature = "check")]
pub use dpor::{parse_schedule, serialize_schedule, DporReport};
#[cfg(feature = "check")]
pub use shadow::{ShadowId, ShadowKind, TrackedCell};
