//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self times derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `frontend.lex`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: usize,
}

/// A span recorder. Spans nest by open/close order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.stack.pop(), Some(idx), "spans close in LIFO order");
        self.spans[idx].end = self.now();
    }

    /// Closes `idx` and every span still open inside it (after a panic
    /// unwound past their closes).
    pub fn unwind_to(&mut self, idx: usize) {
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == idx {
                return;
            }
        }
        panic!("span {idx} is not open");
    }

    /// Records a span measured elsewhere, with times in ns since this
    /// tracer's epoch.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each
/// other or stick out of the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed per (op, span name).
pub fn self_by_op(spans: &[Span]) -> BTreeMap<(usize, &'static str), u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.op, s.name)).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 50, 55, Some(0)),  // inside b
            span("d", 90, 120, Some(0)), // sticks out of the parent
            span("a.x", 15, 20, Some(1)),
        ];
        let t = self_times(&spans);
        // Children cover [10,60] and [90,100]: 60 of 100.
        assert_eq!(t[0], 40);
        assert_eq!(t[1], 25);
        assert_eq!(t[2], 30);
        assert_eq!(t[3], 5);
        assert_eq!(t[4], 30);
        assert_eq!(t[5], 5);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut tr = Tracer::default();
        tr.set_op(7);
        let root = tr.open("op");
        let v = tr.span("leaf", || 42);
        tr.close(root);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let by = self_by_op(s);
        assert_eq!(by[&(7, "op")] + by[&(7, "leaf")], s[0].end - s[0].start);
    }
}
