//! The comm tally: everything a comm layer and its transport charge, in
//! single-writer rows (DESIGN.md §7).
//!
//! Every thread holds a slot ([`crate::task`]). A tally keeps one row
//! per slot, allocated on the slot's first charge, of cells indexed
//! `[from][to]`. A cell holds the GETs, PUTs and remote executions
//! `from` completed against `to`, and the messages and payload bytes the
//! transport moved over that link; a delivered message is charged with
//! one write to its cell. The diagonal cell `[l][l]` counts the
//! accesses that stayed on `l` in its message word, so one charge
//! covers a local and a remote access without a branch on which it is.
//! Only the slot's owner stores to its row, so a charge is a relaxed
//! load and a store, with no lock-prefixed read-modify-write, and no
//! update is lost. A thread keeps the address of its row in the tally
//! it charged last, so a charge looks the row up, under the rows' lock,
//! only on a miss. Reads sum only the cells they report over the rows:
//! a locale's totals are a sum over `to`, a link's are one cell.
//!
//! A reset cannot zero rows other threads own, so it captures a baseline
//! under a lock instead. Per-cluster reads subtract it. The process-wide
//! totals on the obs source list report the raw sums, which never go
//! backwards.
//!
//! Failures and retries are off the healthy path: they stay atomic
//! per-locale lines and share the same baseline.

use crate::comm::{CommStats, FaultStats};
use crate::fault::OpKind;
use crate::locale::LocaleId;
use crate::task;
use crate::transport::{CommMessage, LinkStats};
use rcuarray_obs::{Emit, Reading, Source};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// The words of a cell. Failure lines index their first three words the
// same way.
const GETS: usize = 0;
const PUTS: usize = 1;
const EXECS: usize = 2;
const MESSAGES: usize = 3;
const BYTES: usize = 4;
const WORDS: usize = 5;
/// Nothing crosses a link on the diagonal: its message word counts the
/// accesses that stayed home.
const LOCAL: usize = MESSAGES;
/// The last word of a failure line.
const RETRIES: usize = 3;
const FAULT_WORDS: usize = 4;

/// The cell word an operation kind charges.
#[inline]
fn word(op: OpKind) -> usize {
    match op {
        OpKind::Get => GETS,
        OpKind::Put => PUTS,
        OpKind::RemoteExec => EXECS,
    }
}

/// One `[from][to]` cell on a cache line of its own: a charge touches
/// one line, and no two rows share one.
#[repr(align(64))]
#[derive(Default)]
struct Cell([AtomicU64; WORDS]);

/// One locale's failures by kind and its retries.
#[repr(align(64))]
#[derive(Default)]
struct FaultLine([AtomicU64; FAULT_WORDS]);

const _: () = assert!(std::mem::align_of::<Cell>() >= 64);
const _: () = assert!(std::mem::align_of::<FaultLine>() >= 64);

type Row = Box<[Cell]>;

/// Add `k` to a word only the calling thread stores to.
#[inline]
fn bump(word: &AtomicU64, k: u64) {
    word.store(
        word.load(Ordering::Relaxed).wrapping_add(k),
        Ordering::Relaxed,
    );
}

/// The cells a read sums.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cells {
    All,
    /// What one locale initiated: its `[from][*]` cells.
    From(LocaleId),
    /// One `[from][to]` cell.
    Link(LocaleId, LocaleId),
}

/// A comm layer's counters, shared with its transport. Aligned so the
/// `Arc`'s reference counts sit on a line of their own.
#[repr(align(64))]
pub(crate) struct Tally {
    /// Never reused: a thread's cached row is known to be this tally's.
    id: u64,
    n: usize,
    faults: Box<[FaultLine]>,
    /// The rows by slot, each allocated on the slot's first charge. A
    /// row never moves and lives as long as the tally.
    rows: Mutex<Vec<Option<Row>>>,
    /// The sums the last reset captured.
    baseline: Mutex<Sums>,
}

impl Tally {
    pub(crate) fn new(n: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Tally {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            n,
            rows: Mutex::new(Vec::new()),
            faults: (0..n).map(|_| FaultLine::default()).collect(),
            baseline: Mutex::new(Sums::zero(n, 0..n * n)),
        }
    }

    /// The number of locales the tally spans.
    pub(crate) fn locales(&self) -> usize {
        self.n
    }

    /// The rows, locked. Only plain data and allocation happen under
    /// this plain mutex: no checker scheduling point while it is held.
    fn rows(&self) -> MutexGuard<'_, Vec<Option<Row>>> {
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The address of `slot`'s row, allocated on its first charge.
    #[cold]
    fn find_row(&self, slot: usize) -> *const () {
        let mut rows = self.rows();
        if rows.len() <= slot {
            rows.resize_with(slot + 1, || None);
        }
        let row = rows[slot]
            .get_or_insert_with(|| (0..self.n * self.n).map(|_| Cell::default()).collect());
        row.as_ptr().cast()
    }

    /// Run `f` on the calling thread's `[from][to]` cell. Always inlined,
    /// like [`charge`](Self::charge) and `CommLayer::access`: at the
    /// array's call sites the message is a constant, and the whole
    /// charge folds to a compare and a few stores (EXPERIMENTS.md).
    #[inline(always)]
    fn with_cell(&self, from: LocaleId, to: LocaleId, f: impl FnOnce(&[AtomicU64; WORDS])) {
        let (from, to) = (from.index(), to.index());
        assert!(from < self.n && to < self.n, "locale out of range");
        let charge = |row: *const ()| {
            // SAFETY: `with_row` hands over this tally's row of the
            // calling thread's slot (see below). A row never moves and
            // lives as long as the tally, which `&self` keeps alive, and
            // the assert above keeps the offset inside its `n * n` cells.
            let cell = unsafe { &*row.cast::<Cell>().add(from * self.n + to) };
            f(&cell.0)
        };
        // SAFETY: tally ids come from `NEXT_ID` and are never reused, and
        // `find_row` returns this tally's row of `slot`.
        unsafe { task::with_row(self.id, |slot| self.find_row(slot), charge) }
    }

    /// Charge `msg` from `from` to `to`. Over a link, that is one
    /// delivered message: its wire operations as completed, the message
    /// and its payload bytes. On the diagonal (`from == to`) the message
    /// word alone moves and counts one local access. Nothing branches on
    /// which of the two it is.
    #[inline(always)]
    pub(crate) fn charge(&self, from: LocaleId, to: LocaleId, msg: &CommMessage) {
        let remote = u64::from(from != to);
        let (ops, bytes) = (msg.wire_ops(), msg.payload_bytes() as u64);
        self.with_cell(from, to, |c| {
            for &(op, _) in ops.as_slice() {
                bump(&c[word(op)], remote);
            }
            bump(&c[MESSAGES], 1);
            bump(&c[BYTES], bytes * remote);
        });
    }

    /// Charge an access that stayed on `at`.
    #[inline]
    pub(crate) fn local(&self, at: LocaleId) {
        self.with_cell(at, at, |c| bump(&c[LOCAL], 1));
    }

    /// Charge one failed operation to its initiator.
    #[cold]
    pub(crate) fn failed(&self, from: LocaleId, op: OpKind) {
        self.faults[from.index()].0[word(op)].fetch_add(1, Ordering::Relaxed);
    }

    /// Charge one retry attempt to `at`.
    #[inline]
    pub(crate) fn retry(&self, at: LocaleId) {
        self.faults[at.index()].0[RETRIES].fetch_add(1, Ordering::Relaxed);
    }

    /// The indices of `cells` in a row.
    fn range(&self, cells: Cells) -> Range<usize> {
        let n = self.n;
        match cells {
            Cells::All => 0..n * n,
            Cells::From(l) => l.index() * n..(l.index() + 1) * n,
            Cells::Link(from, to) => {
                let i = from.index() * n + to.index();
                i..i + 1
            }
        }
    }

    /// `cells` and every failure line, summed over the rows since the
    /// tally was built.
    fn sums(&self, cells: Cells) -> Sums {
        let mut s = Sums::zero(self.n, self.range(cells));
        for row in self.rows().iter().flatten() {
            for (sum, cell) in s.cells.iter_mut().zip(&row[s.first..]) {
                for (v, w) in sum.iter_mut().zip(&cell.0) {
                    *v += w.load(Ordering::Relaxed);
                }
            }
        }
        for (sum, line) in s.faults.iter_mut().zip(self.faults.iter()) {
            for (v, w) in sum.iter_mut().zip(&line.0) {
                *v = w.load(Ordering::Relaxed);
            }
        }
        s
    }

    /// Under the baseline's plain mutex only std atomics are read and the
    /// rows locked: no checker scheduling point while it is held.
    fn baseline(&self) -> MutexGuard<'_, Sums> {
        self.baseline.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sums of `cells` since the last [`reset`](Self::reset) began.
    /// The baseline stays locked while the rows are read, so a racing
    /// reset cannot make a read exceed what was charged since it began.
    pub(crate) fn since_reset(&self, cells: Cells) -> Sums {
        let base = self.baseline();
        self.sums(cells).minus(&base)
    }

    /// Make every per-cluster read start again from zero.
    pub(crate) fn reset(&self) {
        let mut base = self.baseline();
        *base = self.sums(Cells::All);
    }

    /// Transmission totals for the `from → to` link since the last reset.
    pub(crate) fn link_stats(&self, from: LocaleId, to: LocaleId) -> LinkStats {
        self.since_reset(Cells::Link(from, to))
            .link(from.index(), to.index())
    }

    /// How many rows the tally has allocated.
    #[cfg(test)]
    fn row_count(&self) -> usize {
        self.rows().iter().flatten().count()
    }
}

impl std::fmt::Debug for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tally")
            .field("locales", &self.n)
            .finish_non_exhaustive()
    }
}

/// The process-wide `rcuarray_comm_*` and
/// `rcuarray_transport_{messages,bytes}_total` counters: the raw sums,
/// unaffected by resets.
impl Source for Tally {
    fn report(&self, emit: Emit<'_>) {
        let s = self.sums(Cells::All);
        let comm = (0..self.n)
            .map(|l| s.comm(l))
            .fold(CommStats::default(), |a, b| a + b);
        let links = (0..self.n)
            .flat_map(|a| (0..self.n).filter(move |&b| b != a).map(move |b| (a, b)))
            .map(|(a, b)| s.link(a, b))
            .fold(LinkStats::default(), |a, b| a + b);
        let failed = s.faults.iter().map(|f| f[GETS] + f[PUTS] + f[EXECS]).sum();
        let retries = s.faults.iter().map(|f| f[RETRIES]).sum();
        let totals = [
            (
                "rcuarray_comm_gets_total",
                "remote GET operations",
                comm.gets,
            ),
            (
                "rcuarray_comm_puts_total",
                "remote PUT operations",
                comm.puts,
            ),
            (
                "rcuarray_comm_remote_execs_total",
                "remote on-block executions",
                comm.remote_executes,
            ),
            (
                "rcuarray_comm_local_ops_total",
                "accesses that stayed on their home locale",
                comm.local_accesses,
            ),
            (
                "rcuarray_comm_bytes_total",
                "bytes moved by remote GET/PUT operations",
                comm.bytes_moved,
            ),
            (
                "rcuarray_comm_retries_total",
                "retry attempts charged by the retry policy",
                retries,
            ),
            (
                "rcuarray_comm_faults_injected_total",
                "remote operations charged as failed (fault plan or transport refusal)",
                failed,
            ),
            (
                "rcuarray_transport_messages_total",
                "messages transmitted across locale links",
                links.messages,
            ),
            (
                "rcuarray_transport_bytes_total",
                "payload bytes transmitted across locale links",
                links.bytes,
            ),
        ];
        for (name, help, v) in totals {
            emit(name, help, Reading::Counter(v));
        }
    }
}

/// Some of a tally's cells (row indices `first..`) and all its failure
/// lines, summed over its rows.
#[derive(Debug, Clone)]
pub(crate) struct Sums {
    n: usize,
    first: usize,
    cells: Vec<[u64; WORDS]>,
    faults: Vec<[u64; FAULT_WORDS]>,
}

impl Sums {
    fn zero(n: usize, cells: Range<usize>) -> Self {
        Sums {
            n,
            first: cells.start,
            cells: vec![[0; WORDS]; cells.len()],
            faults: vec![[0; FAULT_WORDS]; n],
        }
    }

    /// Subtract the matching cells and failure lines of `base`, which
    /// holds every cell.
    fn minus(mut self, base: &Sums) -> Sums {
        let pairs = self
            .cells
            .iter_mut()
            .flatten()
            .zip(base.cells[self.first..].iter().flatten());
        let fault_pairs = self
            .faults
            .iter_mut()
            .flatten()
            .zip(base.faults.iter().flatten());
        for (v, b) in pairs.chain(fault_pairs) {
            *v = v.saturating_sub(*b);
        }
        self
    }

    /// The `[from][to]` cell; panics unless it was summed.
    fn cell(&self, from: usize, to: usize) -> &[u64; WORDS] {
        &self.cells[from * self.n + to - self.first]
    }

    /// What locale `l` initiated: a sum over its cells.
    pub(crate) fn comm(&self, l: usize) -> CommStats {
        let mut s = CommStats::default();
        for (to, c) in (0..self.n).map(|to| (to, self.cell(l, to))) {
            if to == l {
                s.local_accesses += c[LOCAL];
            } else {
                s.gets += c[GETS];
                s.puts += c[PUTS];
                s.remote_executes += c[EXECS];
                s.bytes_moved += c[BYTES];
            }
        }
        s
    }

    /// What the transport moved over the `from → to` link.
    pub(crate) fn link(&self, from: usize, to: usize) -> LinkStats {
        if from == to {
            return LinkStats::default();
        }
        let c = self.cell(from, to);
        LinkStats {
            messages: c[MESSAGES],
            bytes: c[BYTES],
        }
    }

    /// Locale `l`'s fault accounting. An attempt is a failure, or a
    /// completion when a fault plan is installed (`plan_enabled`).
    pub(crate) fn faults(&self, l: usize, plan_enabled: bool) -> FaultStats {
        let f = &self.faults[l];
        let done = if plan_enabled {
            self.comm(l)
        } else {
            CommStats::default()
        };
        FaultStats {
            gets_attempted: done.gets + f[GETS],
            puts_attempted: done.puts + f[PUTS],
            ons_attempted: done.remote_executes + f[EXECS],
            gets_failed: f[GETS],
            puts_failed: f[PUTS],
            ons_failed: f[EXECS],
            retries: f[RETRIES],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocaleId {
        LocaleId::new(i)
    }

    #[test]
    fn links_are_directed_and_the_diagonal_counts_local_accesses() {
        let t = Tally::new(3);
        t.charge(l(0), l(1), &CommMessage::Get { bytes: 100 });
        t.charge(l(0), l(1), &CommMessage::LockAcquire);
        t.charge(l(2), l(0), &CommMessage::RemoteExec);
        t.local(l(1));
        let s = t.since_reset(Cells::All);
        assert_eq!(
            s.link(0, 1),
            LinkStats {
                messages: 2,
                bytes: 116
            }
        );
        assert_eq!(s.link(1, 0), LinkStats::default(), "links are directed");
        assert_eq!(s.link(1, 1), LinkStats::default(), "no link to oneself");
        assert_eq!(s.link(2, 0).messages, 1);
        let c0 = s.comm(0);
        assert_eq!((c0.gets, c0.puts, c0.bytes_moved), (2, 1, 116));
        assert_eq!(s.comm(2).remote_executes, 1);
        assert_eq!(s.comm(1).local_accesses, 1);
    }

    #[test]
    fn reset_subtracts_a_baseline_and_keeps_the_raw_sums() {
        let t = Tally::new(2);
        t.charge(l(0), l(1), &CommMessage::LockAcquire);
        t.failed(l(1), OpKind::Put);
        t.reset();
        t.charge(l(0), l(1), &CommMessage::Get { bytes: 8 });
        let since = t.since_reset(Cells::All);
        assert_eq!((since.comm(0).gets, since.comm(0).puts), (1, 0));
        assert_eq!(since.faults(1, true).puts_failed, 0);
        let raw = t.sums(Cells::All);
        assert_eq!((raw.comm(0).gets, raw.comm(0).puts), (2, 1));
        assert_eq!(raw.faults(1, true).puts_failed, 1);
        assert_eq!(raw.link(0, 1).messages, 2);
    }

    #[test]
    fn reads_sum_only_the_cells_they_report() {
        let t = Tally::new(3);
        t.charge(l(1), l(2), &CommMessage::Put { bytes: 8 });
        t.charge(l(2), l(1), &CommMessage::Get { bytes: 4 });
        t.reset();
        t.charge(l(1), l(2), &CommMessage::Put { bytes: 8 });
        t.local(l(1));
        let from = t.since_reset(Cells::From(l(1)));
        assert_eq!(from.comm(1).puts, 1);
        assert_eq!(from.comm(1).local_accesses, 1);
        assert_eq!(t.link_stats(l(1), l(2)).bytes, 8);
        assert_eq!(t.link_stats(l(2), l(1)), LinkStats::default());
    }

    #[test]
    fn an_exited_thread_hands_its_row_to_the_next() {
        // Slots are process-wide, so a test running alongside may claim
        // the freed slot before the second thread does: try a few
        // times. A thread exit that never hands its slot on fails every
        // attempt.
        let handed_on = (0..20).any(|_| {
            let t = Tally::new(1);
            for _ in 0..2 {
                std::thread::scope(|s| s.spawn(|| t.local(l(0))).join().unwrap());
            }
            assert_eq!(t.since_reset(Cells::All).comm(0).local_accesses, 2);
            t.row_count() == 1
        });
        assert!(handed_on, "each thread charged a row of its own");
    }
}
