//! Benchmark-side spans: one per call into a layer (`create`, `load`,
//! `run`, `wait_durable`, `quiesce`, `recover`, ...), kept in memory while
//! the run is timed and written out as chrome-trace JSON when it ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// Handle returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(256),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span opened inside it that is still open);
    /// returns its duration in nanoseconds.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
        now - self.spans[id.0].start_ns
    }

    /// The spans as a chrome-trace document (`chrome://tracing`,
    /// Perfetto): complete events in microseconds, with each span's id and
    /// parent id under `args`; `run` names the workload run all of them
    /// belong to.
    pub fn to_chrome_trace(&self, run: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\": ");
            json::push_str(&mut out, s.name);
            let _ = write!(
                out,
                ", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"run\": ",
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
            );
            json::push_str(&mut out, run);
            let _ = write!(out, ", \"id\": {i}");
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_export() {
        let mut spans = Spans::default();
        let outer = spans.enter("run");
        let inner = spans.enter("quiesce");
        spans.exit(inner);
        spans.exit(outer);
        let doc = json::parse(&spans.to_chrome_trace("w")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert!(events[0].get("args").unwrap().get("parent").is_none());
    }
}
