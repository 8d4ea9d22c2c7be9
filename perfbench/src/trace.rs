//! Spans recorded by the benchmark around calls into the program.
//!
//! The program is not instrumented for this: every span here is taken
//! from outside, around one public call (or one client round trip), so
//! none has a parent. Spans of one request share its id. Spans stay in
//! memory and are written, one JSON object per line, when the run ends.

use atsq_service::json::{obj, Value};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder with one time origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that was timed elsewhere.
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, request: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(request, name, start, Instant::now());
        out
    }

    /// Durations in ms of every span called `name`, ascending.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = obj(vec![
                ("request", Value::Num(s.request as f64)),
                ("name", Value::Str(s.name.into())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}
