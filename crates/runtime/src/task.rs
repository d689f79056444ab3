//! Task-local context: the current locale and the accounting slot.
//!
//! Chapel tasks always know which locale they execute on (`here`). The
//! simulation stores that in a thread-local cell: every task-spawning entry
//! point in [`crate::Cluster`] wraps the user closure in [`with_locale`],
//! and `on`-blocks temporarily override it. Code deep inside a data
//! structure asks [`current_locale`] — the equivalent of Chapel's `here.id`
//! — to find its privatized instance without any communication.
//!
//! A thread that was never adopted by a cluster reports locale 0, matching
//! Chapel's behaviour of starting the program on locale 0.
//!
//! Next to the locale sits the thread's **slot**: a small process-wide
//! index that names the row this thread alone writes in every comm
//! layer's tally (DESIGN.md §7). A thread claims a slot on its first
//! charge and returns it to a free list when it exits; the next thread
//! to claim reuses it. The claim and the release go through one mutex,
//! so the old owner's last stores happen before the new owner's first
//! load, and rows stay bounded by the peak number of live threads.

use crate::locale::LocaleId;
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// The slot cell of a thread that holds no slot.
const NO_SLOT: u32 = u32::MAX;

/// The locale, the accounting slot and the last tally row charged, in
/// one thread-local block with no destructor, so all stay readable while
/// the thread tears down.
struct TaskCtx {
    locale: Cell<LocaleId>,
    slot: Cell<u32>,
    /// The tally id and the address of this thread's row in that tally,
    /// for the tally this thread charged last; id 0 names none.
    row: Cell<(u64, *const ())>,
}

thread_local! {
    static TASK: TaskCtx = const {
        TaskCtx {
            locale: Cell::new(LocaleId::ZERO),
            slot: Cell::new(NO_SLOT),
            row: Cell::new((0, std::ptr::null())),
        }
    };
    /// Registered on a thread's first claim; its destructor hands the
    /// slot back when the thread exits.
    static SLOT_OWNER: SlotOwner = const { SlotOwner };
}

struct SlotOwner;

impl Drop for SlotOwner {
    fn drop(&mut self) {
        let slot = TASK.with(|t| {
            // The cached row belongs to the slot: forget both.
            t.row.set((0, std::ptr::null()));
            t.slot.replace(NO_SLOT)
        });
        if slot != NO_SLOT {
            release_slot(slot);
        }
    }
}

/// Free slots, last released on top, and the number ever handed out:
/// the peak number of slots held at once.
struct SlotPool {
    free: Vec<u32>,
    next: u32,
}

impl SlotPool {
    const fn new() -> Self {
        SlotPool {
            free: Vec::new(),
            next: 0,
        }
    }

    fn claim(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

static SLOTS: Mutex<SlotPool> = Mutex::new(SlotPool::new());

// Claim and release touch only this mutex and plain data: no checker
// scheduling point while it is held.
fn claim_slot() -> u32 {
    SLOTS.lock().unwrap_or_else(PoisonError::into_inner).claim()
}

fn release_slot(slot: u32) {
    let mut pool = SLOTS.lock().unwrap_or_else(PoisonError::into_inner);
    pool.free.push(slot);
}

/// Run `f` with the address of the calling thread's row in the tally
/// `id`. The row of the tally charged last is cached; on a miss,
/// `find(slot)` looks the row up by the thread's slot, claimed here on
/// the thread's first charge. The cache is dropped with the slot, so `f`
/// only ever sees a row of the slot the thread holds, or of one it
/// borrowed for this call: a charge from a thread whose destructors are
/// already running borrows a free slot, so it still counts.
///
/// # Safety
///
/// Ids must name tallies and never be reused, and `find(slot)` must
/// return the address of `slot`'s row in the tally `id`: `f` may be
/// handed a row `find` returned in an earlier call with the same `id`.
#[inline(always)]
pub(crate) unsafe fn with_row<R>(
    id: u64,
    find: impl FnOnce(usize) -> *const (),
    f: impl FnOnce(*const ()) -> R,
) -> R {
    let (cached, row) = TASK.with(|t| t.row.get());
    if cached == id {
        f(row)
    } else {
        with_found_row(id, find, f)
    }
}

#[cold]
fn with_found_row<R>(
    id: u64,
    find: impl FnOnce(usize) -> *const (),
    f: impl FnOnce(*const ()) -> R,
) -> R {
    let mut slot = TASK.with(|t| t.slot.get());
    if slot == NO_SLOT {
        slot = claim_slot();
        if SLOT_OWNER.try_with(|_| ()).is_err() {
            // The owner is gone: use the slot for this one charge, cache
            // nothing and hand it straight back.
            let r = f(find(slot as usize));
            release_slot(slot);
            return r;
        }
        TASK.with(|t| t.slot.set(slot));
    }
    let row = find(slot as usize);
    TASK.with(|t| t.row.set((id, row)));
    f(row)
}

/// The locale the current task is (logically) executing on.
///
/// Equivalent to Chapel's `here.id`. Defaults to locale 0 on threads that
/// were not spawned through a [`crate::Cluster`].
#[inline]
pub fn current_locale() -> LocaleId {
    TASK.with(|t| t.locale.get())
}

/// Run `f` with the current task's locale context set to `locale`,
/// restoring the previous context afterwards (also on panic).
pub fn with_locale<R>(locale: LocaleId, f: impl FnOnce() -> R) -> R {
    struct Restore(LocaleId);
    impl Drop for Restore {
        fn drop(&mut self) {
            TASK.with(|t| t.locale.set(self.0));
        }
    }
    let prev = TASK.with(|t| t.locale.replace(locale));
    let _restore = Restore(prev);
    f()
}

/// A scope helper for spawning locale-pinned tasks with `std::thread::scope`
/// ergonomics.
///
/// ```
/// use rcuarray_runtime::{task::TaskScope, LocaleId};
/// let results = TaskScope::run(|scope| {
///     for i in 0..4u32 {
///         scope.spawn_on(LocaleId::new(i), move || {
///             assert_eq!(rcuarray_runtime::current_locale(), LocaleId::new(i));
///         });
///     }
/// });
/// assert_eq!(results, 4);
/// ```
pub struct TaskScope<'scope, 'env: 'scope> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    spawned: Cell<usize>,
}

impl<'scope, 'env> TaskScope<'scope, 'env> {
    /// Open a scope, let `f` spawn locale-pinned tasks into it, join them
    /// all and return how many were spawned.
    pub fn run<F>(f: F) -> usize
    where
        F: for<'s> FnOnce(&TaskScope<'s, 'env>),
    {
        std::thread::scope(|scope| {
            let ts = TaskScope {
                scope,
                spawned: Cell::new(0),
            };
            f(&ts);
            ts.spawned.get()
        })
    }

    /// Spawn a task pinned to `locale`.
    pub fn spawn_on<F>(&self, locale: LocaleId, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawned.set(self.spawned.get() + 1);
        self.scope.spawn(move || with_locale(locale, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_released_slot_is_claimed_before_a_new_one() {
        let mut pool = SlotPool::new();
        let (a, b) = (pool.claim(), pool.claim());
        assert_eq!((a, b), (0, 1));
        pool.free.push(a);
        assert_eq!(pool.claim(), a);
        assert_eq!(pool.next, 2, "no slot beyond the two ever held at once");
    }

    #[test]
    fn default_locale_is_zero() {
        // Run on a fresh thread so other tests' contexts can't interfere.
        std::thread::spawn(|| assert_eq!(current_locale(), LocaleId::ZERO))
            .join()
            .unwrap();
    }

    #[test]
    fn with_locale_sets_and_restores() {
        let before = current_locale();
        let inner = with_locale(LocaleId::new(5), current_locale);
        assert_eq!(inner, LocaleId::new(5));
        assert_eq!(current_locale(), before);
    }

    #[test]
    fn with_locale_restores_on_panic() {
        let before = current_locale();
        let r = std::panic::catch_unwind(|| {
            with_locale(LocaleId::new(9), || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(current_locale(), before);
    }

    #[test]
    fn task_scope_pins_locales() {
        let n = TaskScope::run(|scope| {
            for i in 0..3u32 {
                scope.spawn_on(LocaleId::new(i), move || {
                    assert_eq!(current_locale(), LocaleId::new(i));
                });
            }
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn contexts_are_per_thread() {
        with_locale(LocaleId::new(2), || {
            std::thread::spawn(|| {
                // New thread: not inherited.
                assert_eq!(current_locale(), LocaleId::ZERO);
            })
            .join()
            .unwrap();
        });
    }
}
