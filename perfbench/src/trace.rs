//! In-memory spans recorded around calls into the generator's public
//! functions. Nothing here reaches inside the program: every span starts
//! and ends in the benchmark's own code. Spans are kept in memory and
//! written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Operation the span belongs to (a key, request, or kernel index).
    pub op: u64,
    /// Offset from the tracer's origin, in microseconds.
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Time `f` as a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.spans[idx].dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.open.pop();
        r
    }

    /// Record a span timed elsewhere that just ended (e.g. one Stage-3
    /// pass reported through the pipeline's observer callback).
    pub fn ended(&mut self, name: &str, op: u64, dur: Duration) {
        let end = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            start_us: ((end - self.origin).as_secs_f64() - dur.as_secs_f64()) * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            parent: self.open.last().copied(),
        });
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).collect()
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// Take over another tracer's spans (e.g. one per client thread).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"parent\":{parent}}}",
                s.name, s.op, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}
