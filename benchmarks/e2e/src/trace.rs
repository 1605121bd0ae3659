//! Span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own files, around the calls
//! into each layer; nothing inside the workspace crates is
//! instrumented. Records stay in memory (a preallocated `Vec`) until
//! the run ends and are then written as one JSON file.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] for "not recorded", which
/// every method accepts so call sites need no `if tracing` of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: Self = Self(u32::MAX);

    pub fn is_some(self) -> bool {
        self != Self::NONE
    }
}

/// Marks a span whose `end` has not been called.
const OPEN: u64 = u64::MAX;

/// Most spans one op records (root plus children); a root is refused
/// when fewer than this many slots are left, so ops are never cut off.
const ROOM_PER_OP: usize = 16;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shared by all spans of one op (timestep or request).
    pub op_id: u64,
}

/// Per-name totals over the closed spans of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration in microseconds (0 when the name never occurred).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    cap: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps at most `cap` spans. It starts switched
    /// off; `cap == 0` can never record.
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            on: false,
            cap,
            spans: Vec::with_capacity(cap),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// `true` once no further op can be recorded.
    pub fn is_full(&self) -> bool {
        self.spans.len() + ROOM_PER_OP > self.cap
    }

    /// `true` when tracing is on but has run out of room: the traced
    /// phase is over.
    pub fn is_exhausted(&self) -> bool {
        self.on && self.is_full()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Opens the root span of op `op_id`, or returns [`SpanId::NONE`]
    /// when tracing is off or the store is full.
    pub fn begin_root(&mut self, name: &'static str, op_id: u64) -> SpanId {
        if !self.on || self.is_full() {
            return SpanId::NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns,
            end_ns: OPEN,
            parent: SpanId::NONE,
            op_id,
        })
    }

    pub fn end(&mut self, id: SpanId) {
        if id.is_some() {
            self.spans[id.0 as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` as a child span of `parent`; just runs it when the
    /// parent was not recorded.
    pub fn span<R>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !parent.is_some() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(parent, name, start, Instant::now());
        out
    }

    /// Records a child span the caller timed itself (the action calls
    /// are timed in every run, for `action_p50_us`).
    pub fn record(&mut self, parent: SpanId, name: &'static str, start: Instant, end: Instant) {
        if !parent.is_some() {
            return;
        }
        let op_id = self.spans[parent.0 as usize].op_id;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
    }

    /// Per-name count, total and self time over the closed spans. A
    /// span's self time is its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn summarize(&self) -> BTreeMap<&'static str, NameStats> {
        let mut covered = vec![0u64; self.spans.len()];
        let mut children: Vec<(u32, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some() && s.end_ns != OPEN)
            .map(|s| (s.parent.0, s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut reach = (u32::MAX, 0u64);
        for (parent, start, end) in children {
            let p = &self.spans[parent as usize];
            if reach.0 != parent {
                reach = (parent, p.start_ns);
            }
            let lo = start.max(reach.1);
            let hi = end.min(p.end_ns);
            if hi > lo {
                covered[parent as usize] += hi - lo;
                reach.1 = hi;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            if span.end_ns == OPEN {
                continue;
            }
            let total = span.end_ns - span.start_ns;
            let stats = by_name.entry(span.name).or_default();
            stats.count += 1;
            stats.total_ns += total;
            stats.self_ns += total - covered;
        }
        by_name
    }

    /// Writes every span as `{name, start_ns, end_ns, parent, op_id}`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_cap\":{},\"spans\":[",
            self.cap
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                w,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":",
                s.name, s.start_ns
            )?;
            if s.end_ns == OPEN {
                write!(w, "null")?;
            } else {
                write!(w, "{}", s.end_ns)?;
            }
            if s.parent.is_some() {
                write!(w, ",\"parent\":{}", s.parent.0)?;
            } else {
                write!(w, ",\"parent\":null")?;
            }
            write!(w, ",\"op_id\":{}}}", s.op_id)?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer holding hand-made spans `(name, start, end, parent)`.
    fn tracer_of(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut t = Tracer::new(1024);
        for &(name, start_ns, end_ns, parent) in spans {
            t.push(Span {
                name,
                start_ns,
                end_ns,
                parent: parent.map_or(SpanId::NONE, SpanId),
                op_id: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_siblings_and_leaves_nested_time_to_the_child() {
        // root 0..100 with siblings a 10..30 and b 40..90; b holds c 50..60.
        let t = tracer_of(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 40, 90, Some(0)),
            ("c", 50, 60, Some(2)),
        ]);
        let s = t.summarize();
        assert_eq!(s["root"].total_ns, 100);
        assert_eq!(s["root"].self_ns, 100 - 20 - 50);
        assert_eq!(s["a"].self_ns, 20);
        assert_eq!(s["b"].self_ns, 50 - 10);
        assert_eq!(s["c"].self_ns, 10);
        let self_sum: u64 = s.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100, "self times add back up to the root");
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let t = tracer_of(&[
            ("root", 100, 200, None),
            ("x", 110, 150, Some(0)),
            ("x", 140, 170, Some(0)),
            ("x", 190, 230, Some(0)),
        ]);
        let s = t.summarize();
        // Union of children inside the root: 110..170 and 190..200.
        assert_eq!(s["root"].self_ns, 100 - 60 - 10);
        assert_eq!(s["x"].count, 3);
        assert_eq!(s["x"].total_ns, 40 + 30 + 40);
    }

    #[test]
    fn per_name_totals_and_open_spans() {
        let t = tracer_of(&[
            ("root", 0, 10, None),
            ("root", 10, 30, None),
            ("root", 30, OPEN, None),
        ]);
        let s = t.summarize();
        assert_eq!(s["root"].count, 2);
        assert_eq!(s["root"].total_ns, 30);
        assert_eq!(s["root"].mean_us(), 0.015);
    }

    #[test]
    fn nothing_is_recorded_while_off_or_when_full() {
        let mut t = Tracer::new(ROOM_PER_OP + 1);
        assert_eq!(t.begin_root("op", 0), SpanId::NONE);
        assert_eq!(t.span(SpanId::NONE, "child", || 7), 7);
        t.end(SpanId::NONE);
        assert!(t.spans().is_empty());

        t.set_on(true);
        let root = t.begin_root("op", 42);
        assert!(root.is_some());
        assert_eq!(t.span(root, "child", || 7), 7);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert_eq!(t.spans()[1].op_id, 42);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.is_full());
        assert_eq!(t.begin_root("op", 43), SpanId::NONE);
    }
}
