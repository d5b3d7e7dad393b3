//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions, kept
//! in memory, and reduced to per-name self time (duration minus the time
//! covered by child spans) and call counts when the replay ends. With the
//! recorder off, [`Tracer::span`] just calls the closure, so the untraced
//! replay runs the same code and the difference is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    inner: RefCell<Inner>,
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.stack.last().copied();
            let id = inner.spans.len();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            inner.stack.push(id);
            id
        };
        let r = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].end_ns = end;
        inner.stack.pop();
        r
    }

    /// Per-name self time and calls over every recorded span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }
}
