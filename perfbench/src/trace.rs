//! In-memory spans and counters recorded around the calls into each
//! layer's public functions. When off, a span is just the call.

/// How requests run and what is recorded.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Each request calls its layer's public entry point; nothing is
    /// recorded.
    Entry,
    /// Each request calls the public steps of that entry point one by
    /// one; nothing is recorded.
    Steps,
    /// As [`Mode::Steps`], with a span around each step and the exact
    /// counters recorded.
    Traced,
}

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

pub struct Tracer {
    mode: Mode,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(mode: Mode) -> Self {
        Tracer {
            mode,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    fn on(&self) -> bool {
        self.mode == Mode::Traced
    }

    /// Requests call the steps of their entry point, not the entry point.
    pub fn steps(&self) -> bool {
        self.mode != Mode::Entry
    }

    /// Runs `f` as one request: always timed (the returned nanoseconds
    /// are the request's latency), and recorded as the parent span of
    /// the layer spans opened inside it when tracing is on.
    pub fn request<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        self.request += 1;
        let open = self.enter(kind);
        let start = Instant::now();
        let out = f(self);
        let nanos = start.elapsed().as_nanos() as u64;
        self.exit(open);
        (out, nanos)
    }

    /// Runs `f` inside a span named after the layer call it wraps.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds `n` to the counter `name` (tracing only).
    pub fn count(&mut self, name: &'static str, n: usize) {
        if self.on() {
            *self.counts.entry(name).or_default() += n as u64;
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.on() {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Some(id)
    }

    fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            self.open.pop();
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total self time per span name in milliseconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
