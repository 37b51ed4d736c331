//! Spans recorded by the traced run around each call into a layer,
//! kept in memory and written out as one JSON document at the end.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: Option<u32>,
    name: String,
    start_us: f64,
    dur_us: f64,
    counters: Vec<(&'static str, u64)>,
}

/// The span recorder. Its own cost is measured and reported as the
/// tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Records a span that started at `start` and lasted `dur`, under
    /// `parent`; returns its id.
    pub fn span(
        &mut self,
        parent: Option<u32>,
        name: impl Into<String>,
        start: Instant,
        dur: Duration,
        counters: Vec<(&'static str, u64)>,
    ) -> u32 {
        let t0 = Instant::now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            counters,
        });
        self.overhead += t0.elapsed();
        id
    }

    /// Time spent recording spans so far.
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_us,
                s.dur_us
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}
