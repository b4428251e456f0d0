//! In-memory span recorder. Spans are recorded by the benchmark around its
//! calls into each layer; a disabled tracer only runs the closure, so the
//! traced and untraced runs execute the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Total and self time (span minus its child spans) of one span name.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub count: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, attributed to `job`.
    pub fn span<R>(&self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, job });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        result
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per-name totals and self times. Children run on the same thread and
    /// never overlap, so a span's covered part is the sum of its children.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
            e.count += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
            );
        }
        std::fs::write(path, text)
    }
}
