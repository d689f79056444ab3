//! Sampled spans recorded at the benchmark's own call boundaries into
//! each layer, and the self-time arithmetic over them.
//!
//! A span has a name, a start and an end (ns since the process clock
//! origin) and names its parent; the spans of one op or request share
//! an `op` id. Spans live in per-thread buffers and are merged and
//! written out once the run ends.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Op or request the span belongs to (shared by its spans).
    pub op: u64,
    /// Layer boundary, e.g. `rcuarray.read`.
    pub name: &'static str,
    /// Name of the enclosing span of the same op; `None` for the root.
    pub parent: Option<&'static str>,
    /// Start, ns since the process clock origin.
    pub start: u64,
    /// End, ns since the same origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Ns of `instant` since the clock origin.
#[inline]
pub fn at_ns(instant: Instant) -> u64 {
    instant.saturating_duration_since(origin()).as_nanos() as u64
}

/// Self time of `parent`: its duration minus the part of its interval
/// covered by at least one of `children` (overlapping children are
/// counted once; parts of a child outside the parent are ignored).
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur() - covered
}

/// Self times (ns) of every span, grouped by span name.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut by_op: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(*s);
    }
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for group in by_op.values() {
        for s in group {
            let children: Vec<Span> = group
                .iter()
                .filter(|c| c.parent == Some(s.name))
                .copied()
                .collect();
            out.entry(s.name).or_default().push(self_time(s, &children));
        }
    }
    for v in out.values_mut() {
        v.sort_unstable();
    }
    out
}

/// Spans named `name` whose interval overlaps any of `windows` (sorted
/// by start, non-overlapping).
pub fn overlapping<'a>(
    spans: &'a [Span],
    name: &'static str,
    windows: &'a [(u64, u64)],
) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| {
        if s.name != name {
            return false;
        }
        // First window ending after the span starts.
        let i = windows.partition_point(|w| w.1 <= s.start);
        i < windows.len() && windows[i].0 < s.end
    })
}

/// Write `spans` as CSV (`op,name,parent,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "op,name,parent,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            f,
            "{},{},{},{},{}",
            s.op,
            s.name,
            s.parent.unwrap_or(""),
            s.start,
            s.end
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &'static str, parent: Option<&'static str>, s: u64, e: u64) -> Span {
        Span {
            op,
            name,
            parent,
            start: s,
            end: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span(1, "op", None, 100, 200);
        // Disjoint children.
        let a = span(1, "a", Some("op"), 110, 130);
        let b = span(1, "b", Some("op"), 150, 160);
        assert_eq!(self_time(&p, &[a, b]), 100 - 20 - 10);
        // Overlapping children are counted once.
        let c = span(1, "c", Some("op"), 120, 140);
        assert_eq!(self_time(&p, &[a, c]), 100 - 30);
        // Children sticking out of the parent are clipped.
        let d = span(1, "d", Some("op"), 50, 105);
        let e = span(1, "e", Some("op"), 195, 300);
        assert_eq!(self_time(&p, &[d, e]), 100 - 5 - 5);
        // A child covering everything leaves nothing.
        let f = span(1, "f", Some("op"), 0, 1000);
        assert_eq!(self_time(&p, &[f]), 0);
        assert_eq!(self_time(&p, &[]), 100);
    }

    #[test]
    fn self_times_group_by_op_and_parent() {
        let spans = [
            span(1, "op", None, 0, 100),
            span(1, "read", Some("op"), 10, 70),
            span(2, "op", None, 200, 260),
            span(2, "read", Some("op"), 210, 250),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], vec![20, 40]);
        assert_eq!(st["read"], vec![40, 60]);
    }

    #[test]
    fn overlap_finds_spans_inside_windows() {
        let spans = [
            span(1, "read", None, 0, 5),
            span(2, "read", None, 12, 14),
            span(3, "read", None, 19, 21),
            span(4, "read", None, 40, 50),
        ];
        let windows = [(10, 20), (30, 35)];
        let ids: Vec<u64> = overlapping(&spans, "read", &windows)
            .map(|s| s.op)
            .collect();
        assert_eq!(ids, vec![2, 3]);
    }
}
