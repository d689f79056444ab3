//! [`RcuPtr`]: an RCU-protected pointer generic over the reclamation
//! scheme — the paper's future-work "decoupling of EBR from RCUArray".
//!
//! ```
//! use rcuarray_reclaim::{LeakReclaim, RcuPtr, Reclaim};
//! use std::sync::Arc;
//!
//! fn sum_under<R: Reclaim>(p: &RcuPtr<Vec<u64>, R>) -> u64 {
//!     p.read(|v| v.iter().sum())
//! }
//!
//! let p = RcuPtr::new(vec![1, 2, 3], Arc::new(LeakReclaim::new()));
//! assert_eq!(sum_under(&p), 6);
//! p.update(|v| v.iter().map(|x| x * 2).collect());
//! assert_eq!(sum_under(&p), 12);
//! ```
//!
//! The same code runs under `rcuarray_ebr::EpochZone` (readers pay the
//! two-counter announcement, writers drain synchronously) and
//! `rcuarray_qsbr::QsbrDomain` (free reads, reclamation deferred to
//! [`Reclaim::quiesce`] checkpoints).

use crate::{Reclaim, Retired};
use rcuarray_analysis::atomic::{AtomicPtr, Ordering};
use rcuarray_analysis::sync::Mutex;
use std::sync::Arc;

/// Moves a raw pointer across the retire boundary. The value behind it is
/// `Send`, and ownership is unique once unlinked.
struct SendPtr<T>(*mut T);
// SAFETY: the value behind the pointer is `Send`, and ownership is unique
// once the pointer is unlinked from the cell.
unsafe impl<T: Send> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Consume the wrapper. A by-value method (rather than field access)
    /// so closures capture the whole `SendPtr` — edition-2021 disjoint
    /// field capture would otherwise capture the raw pointer directly and
    /// lose the `Send` impl.
    fn into_raw(self) -> *mut T {
        self.0
    }
}

/// An RCU-protected pointer: readers see consistent snapshots with the
/// scheme's read cost; writers clone-update-publish-retire.
///
/// This is the paper's `GlobalSnapshot` pattern (Algorithm 1's
/// `RCU_Read`/`RCU_Write`) reduced to a single reusable cell, with
/// `isQSBR` realized as the `R` type parameter. Writers serialize on an
/// internal lock (the paper's footnote 3 write lock), so the cell is safe
/// by construction; distributed structures that need a *cluster-wide*
/// lock, like RCUArray, drive their scheme directly.
pub struct RcuPtr<T, R: Reclaim> {
    ptr: AtomicPtr<T>,
    reclaim: Arc<R>,
    write_lock: Mutex<()>,
}

// SAFETY: readers dereference the published snapshot concurrently
// (`T: Sync`) and retired snapshots are dropped on whichever thread
// drains the reclaimer (`T: Send`); the raw pointer is only freed after
// the grace period proves no reader still holds it. The other fields are
// `Send + Sync` on their own (`Arc<R>` with `R: Reclaim: Send + Sync`,
// and the write lock guards `()`).
unsafe impl<T: Send + Sync, R: Reclaim> Send for RcuPtr<T, R> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Send + Sync, R: Reclaim> Sync for RcuPtr<T, R> {}

impl<T: Send + Sync + 'static, R: Reclaim> RcuPtr<T, R> {
    /// Protect `value` under the given reclaimer. Several `RcuPtr`s may
    /// share one reclaimer (sharing its epoch zone / QSBR domain).
    pub fn new(value: T, reclaim: Arc<R>) -> Self {
        RcuPtr {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            reclaim,
            write_lock: Mutex::new(()),
        }
    }

    /// The shared reclamation scheme.
    pub fn reclaimer(&self) -> &Arc<R> {
        &self.reclaim
    }

    /// `RCU_Read`: run `f` against the current snapshot inside a
    /// read-side critical section. The reference cannot outlive the call.
    #[inline]
    pub fn read<U>(&self, f: impl FnOnce(&T) -> U) -> U {
        let _guard = self.reclaim.read_lock();
        // Load after entering the critical section: under EBR the guard's
        // verified pin obliges writers to keep this snapshot alive (paper
        // Lemma 3); under QSBR the thread-level contract does.
        let snap = self.ptr.load(Ordering::Acquire);
        // SAFETY: published snapshot, protected as described above.
        f(unsafe { &*snap })
    }

    /// `RCU_Write`: derive a new value from the old, publish it, and hand
    /// the old value's destruction to the scheme.
    pub fn update(&self, f: impl FnOnce(&T) -> T) {
        let _wl = self.write_lock.lock();
        let old = self.ptr.load(Ordering::Acquire);
        // SAFETY: single writer (lock held); `old` is still published.
        let new = Box::into_raw(Box::new(f(unsafe { &*old })));
        self.ptr.store(new, Ordering::Release);
        let old = SendPtr(old);
        self.reclaim
            .retire(Retired::with_bytes(std::mem::size_of::<T>(), move || {
                // SAFETY: unlinked above; the scheme guarantees no reader
                // can still hold it when this closure runs.
                drop(unsafe { Box::from_raw(old.into_raw()) });
            }));
    }

    /// Replace the value outright.
    pub fn replace(&self, value: T) {
        let mut v = Some(value);
        self.update(|_| v.take().expect("update closure runs exactly once"));
    }
}

impl<T, R: Reclaim> Drop for RcuPtr<T, R> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; no readers can exist.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

impl<T: std::fmt::Debug + Send + Sync + 'static, R: Reclaim> std::fmt::Debug for RcuPtr<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.read(|v| {
            f.debug_struct("RcuPtr")
                .field("value", v)
                .field("scheme", &self.reclaim.name())
                .finish()
        })
    }
}
