//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end and the id of the span that caused it
//! (0 for a root). Spans are kept in memory and written out once, at the end
//! of the run, as one JSON object per line; a layer's self time is its span's
//! duration minus the part its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span ids, unique across the threads and tracers of a run.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A per-thread span recorder. Disabled recorders run the closure and
/// nothing else.
pub struct Tracer {
    capable: bool,
    on: Cell<bool>,
    epoch: Instant,
    open: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            capable: on,
            on: Cell::new(on),
            epoch,
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.get()
    }

    /// Pause or resume recording; a tracer made disabled stays disabled.
    pub fn enable(&self, on: bool) {
        self.on.set(self.capable && on);
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.borrow().last().copied().unwrap_or(0);
        self.open.borrow_mut().push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let pos: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = pos.get(&s.parent) {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name `(count, total µs, self µs)`, by name.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64 / 1e3;
        e.2 += own as f64 / 1e3;
    }
    out
}

/// Write the spans, one JSON object a line, followed by one summary line
/// per span name.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        writeln!(
            f,
            r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id, s.parent, s.name, s.start_ns, s.end_ns, own
        )?;
    }
    for (name, (n, total, own)) in summary(spans) {
        writeln!(
            f,
            r#"{{"summary":"{name}","count":{n},"total_us":{total:.3},"self_us":{own:.3}}}"#
        )?;
    }
    f.flush()
}
