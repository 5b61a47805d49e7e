//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, start, end, the span that caused it, and the id of
//! the request it belongs to. Self time is a span's duration minus the
//! part of it its child spans cover.

use crate::stats::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// One thread's recorder. Disabled recorders keep nothing, so untraced
/// runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records a finished top-level span, for operations that overlap
    /// (pipelined requests) and so cannot nest.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (spans, total µs, self µs).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e3;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// The spans and the self-time summary as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_time_us\": {");
        for (i, (name, (n, total, own))) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "{}: {{\"spans\": {n}, \"total\": {total:.3}, \"self\": {own:.3}}}",
                json_string(name)
            )
            .expect("write to String");
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "[{i}, {}, {}, {}, {parent}, {}]",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )
            .expect("write to String");
        }
        out.push_str("\n]}\n");
        out
    }
}
