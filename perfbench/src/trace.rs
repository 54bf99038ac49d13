//! Spans the benchmark records around each call into a layer: kept in
//! memory during the run, summarised into per-layer metrics, and written
//! out as JSON lines when the run ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, used as a parent link.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `encoder` or `client.rtt`.
    pub name: &'static str,
    /// The job the call served (spans of one job share it).
    pub job: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made (0 while open).
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, job, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration of spans called `name`, in seconds.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Self time of spans called `name`: each span's duration minus the
    /// part of it its children cover, in seconds.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_secs[p] += span.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.secs() - child_secs[i]).max(0.0))
            .fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Measured cost of recording one span, in seconds: the tracing
    /// overhead each recorded span adds to the run it is part of.
    pub fn cost_per_span() -> f64 {
        const N: usize = 20_000;
        let mut probe = Tracer::new(true);
        probe.spans.reserve(N);
        let t = Instant::now();
        for i in 0..N {
            let id = probe.begin("probe", i as u64, None);
            probe.end(id);
        }
        std::hint::black_box(&probe.spans);
        t.elapsed().as_secs_f64() / N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("job", None, 0, 1_000),
            span("encoder", Some(0), 100, 700),
            span("embedding", Some(0), 700, 900),
        ];
        assert!((t.busy("job") - 1e-6).abs() < 1e-15);
        assert!((t.self_time("job") - 2e-7).abs() < 1e-15);
        assert!((t.self_time("encoder") - 6e-7).abs() < 1e-15);
        assert_eq!(t.count("embedding"), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let out = t.time("x", 0, None, || 5);
        assert_eq!(out, 5);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn nested_spans_link_parents() {
        let mut t = Tracer::new(true);
        let job = t.begin("job", 9, None);
        t.time("inner", 9, job, || ());
        t.end(job);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
