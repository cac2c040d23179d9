//! In-memory spans recorded by the benchmark around each call into a
//! layer: name, start, end, parent and request id, plus the heap
//! allocations the calling thread made inside the span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::{thread_allocations, untracked};

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request (0 outside requests).
    pub req: u64,
    /// Words the span processed (0 when not a unit of work).
    pub words: u64,
    /// Heap allocations the thread made inside the span.
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; does nothing but run the closure when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for a worker thread sharing this one's epoch and state.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        words: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        untracked(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                req,
                words,
                allocs: 0,
            });
            self.open.push(index);
        });
        let allocs_before = thread_allocations();
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let allocs = thread_allocations() - allocs_before;
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.allocs = allocs;
        out
    }

    /// Moves another recorder's spans under the currently open span.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        untracked(|| {
            self.spans.extend(other.spans.into_iter().map(|mut span| {
                span.parent = match span.parent {
                    Some(p) => Some(p + offset),
                    None => parent,
                };
                span
            }))
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of every span sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
    pub words: u64,
    pub allocs: u64,
}

impl Totals {
    pub fn words_per_s(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.words as f64 * 1e9 / self.ns as f64
        }
    }
}

/// Aggregates spans by name, with self time (duration minus children).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.ns += span.ns();
        t.self_ns += span.ns().saturating_sub(children);
        t.words += span.words;
        t.allocs += span.allocs;
    }
    out
}

/// Renders spans as JSON lines, one object per span.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"words\":{},\"allocs\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req, s.words, s.allocs
        );
    }
    out
}
